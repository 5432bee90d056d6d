"""Figure 1: technology characteristics and the parallelism argument."""

import pytest

from repro.memories import TECHNOLOGIES, parallelism_rank


class TestProfiles:
    def test_six_technologies_present(self):
        assert set(TECHNOLOGIES) == {"SRAM", "eDRAM", "DRAM", "STT-RAM", "ReRAM", "NAND"}

    def test_energy_ordering_sram_cheapest(self):
        # Figure 1: SRAM has the lowest energy per access; NVMs and
        # NAND are one-two orders of magnitude higher.
        energies = {n: p.read_energy_pj_per_bit for n, p in TECHNOLOGIES.items()}
        assert energies["SRAM"] == min(energies.values())
        assert energies["NAND"] == max(energies.values())

    def test_latency_ordering(self):
        lat = {n: p.read_latency_ns for n, p in TECHNOLOGIES.items()}
        assert lat["SRAM"] < lat["DRAM"] < lat["NAND"]
        # NVM in-memory computing is 1-2 orders of magnitude slower
        # than SRAM (paper II-A).
        assert lat["ReRAM"] / lat["SRAM"] >= 10

    def test_nvm_write_asymmetry(self):
        # NVMs have high write energy/latency relative to reads.
        for name in ("STT-RAM", "ReRAM", "NAND"):
            profile = TECHNOLOGIES[name]
            assert profile.write_energy_pj_per_bit > profile.read_energy_pj_per_bit
            assert profile.write_latency_ns >= profile.read_latency_ns

    def test_volatile_flags(self):
        assert TECHNOLOGIES["SRAM"].volatile
        assert TECHNOLOGIES["DRAM"].volatile
        assert not TECHNOLOGIES["ReRAM"].volatile
        assert not TECHNOLOGIES["NAND"].volatile

    def test_endurance_limits_nvm(self):
        # "NVMs have limited endurance ... which curtails the number of
        # writes" (paper II-A).
        assert TECHNOLOGIES["ReRAM"].endurance_writes < TECHNOLOGIES["SRAM"].endurance_writes
        assert TECHNOLOGIES["NAND"].endurance_writes < TECHNOLOGIES["ReRAM"].endurance_writes


class TestParallelism:
    def test_small_cells_do_not_imply_parallelism(self):
        # The paper's Figure 1 point: despite small cells, DRAM and
        # NAND have *lower* SA density (hence parallelism) than SRAM
        # because many cells share each sense amplifier.
        ranked = dict(parallelism_rank())
        assert TECHNOLOGIES["DRAM"].cell_size_f2 < TECHNOLOGIES["SRAM"].cell_size_f2
        assert ranked["DRAM"] < ranked["SRAM"]
        assert ranked["NAND"] < ranked["SRAM"]

    def test_rank_is_normalised_to_sram(self):
        ranked = dict(parallelism_rank())
        assert ranked["SRAM"] == pytest.approx(1.0)

    def test_rank_sorted_descending(self):
        values = [v for _, v in parallelism_rank()]
        assert values == sorted(values, reverse=True)
