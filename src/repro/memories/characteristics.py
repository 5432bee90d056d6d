"""Memory technology characteristics (paper Figure 1).

Figure 1 of the paper compares the energy per access, delay, and the
metrics from which available compute parallelism can be estimated
(sense-amplifier density, cell structure) across memory technologies.
The paper plots relative values without a numeric table; the constants
here are representative per-technology figures assembled from the
literature the paper builds on (Compute Caches, Neural Cache, Ambit,
IMP/ISAAC) and standard technology surveys.  They are used to
regenerate the Figure 1 comparison and to sanity-check the Table III
device specs; the simulator's timing comes from the per-device specs,
not from this table.

Parallelism is estimated as the paper describes: every bitline
operation completes at a sense amplifier, so available parallelism per
unit area follows the SA density -- which falls when many rows share
one SA stripe (DRAM, NAND) and rises with per-array private SAs
(SRAM).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TechnologyProfile", "TECHNOLOGIES", "parallelism_rank"]


@dataclass(frozen=True)
class TechnologyProfile:
    """One bar group of Figure 1.

    Energies are per-bit dynamic access energies; latencies are array
    access times; ``cell_size_f2`` is the cell footprint in F^2;
    ``rows_per_sa`` is how many rows share one sense amplifier
    (array height between SA stripes).
    """

    name: str
    read_energy_pj_per_bit: float
    write_energy_pj_per_bit: float
    read_latency_ns: float
    write_latency_ns: float
    cell_size_f2: float
    rows_per_sa: int
    endurance_writes: float
    volatile: bool

    @property
    def sa_density(self) -> float:
        """Sense amplifiers per unit cell area (arbitrary units).

        One SA serves one column of ``rows_per_sa`` cells, so SA
        density per area is ``1 / (cell_size * rows_per_sa)``.
        """
        return 1.0 / (self.cell_size_f2 * self.rows_per_sa)

    @property
    def parallelism_per_area(self) -> float:
        """Relative available compute parallelism per unit area.

        Normalised so SRAM == 1.0 (computed lazily in
        :func:`parallelism_rank`); raw value equals ``sa_density``.
        """
        return self.sa_density


#: Representative technology profiles (Figure 1 bar groups).
TECHNOLOGIES: dict[str, TechnologyProfile] = {
    "SRAM": TechnologyProfile(
        name="SRAM",
        read_energy_pj_per_bit=0.2,
        write_energy_pj_per_bit=0.2,
        read_latency_ns=1.0,
        write_latency_ns=1.0,
        cell_size_f2=150.0,
        rows_per_sa=256,
        endurance_writes=1e16,
        volatile=True,
    ),
    "eDRAM": TechnologyProfile(
        name="eDRAM",
        read_energy_pj_per_bit=0.4,
        write_energy_pj_per_bit=0.4,
        read_latency_ns=3.0,
        write_latency_ns=3.0,
        cell_size_f2=60.0,
        rows_per_sa=512,
        endurance_writes=1e16,
        volatile=True,
    ),
    "DRAM": TechnologyProfile(
        name="DRAM",
        read_energy_pj_per_bit=1.0,
        write_energy_pj_per_bit=1.0,
        read_latency_ns=30.0,
        write_latency_ns=30.0,
        cell_size_f2=6.0,
        # Bank-level compute: one SA stripe (row buffer) per 8192-row
        # bank, which is what makes DRAM parallelism low despite its
        # tiny cells (paper II-A).
        rows_per_sa=8192,
        endurance_writes=1e16,
        volatile=True,
    ),
    "STT-RAM": TechnologyProfile(
        name="STT-RAM",
        read_energy_pj_per_bit=1.5,
        write_energy_pj_per_bit=8.0,
        read_latency_ns=10.0,
        write_latency_ns=20.0,
        cell_size_f2=20.0,
        rows_per_sa=1024,
        endurance_writes=1e12,
        volatile=False,
    ),
    "ReRAM": TechnologyProfile(
        name="ReRAM",
        read_energy_pj_per_bit=2.0,
        write_energy_pj_per_bit=20.0,
        read_latency_ns=50.0,
        write_latency_ns=200.0,
        cell_size_f2=4.0,
        # 128 rows per crossbar, but ADCs are shared across 8 columns,
        # so the effective rows-per-sense-resource is 8x higher.
        rows_per_sa=1024,
        endurance_writes=1e8,
        volatile=False,
    ),
    "NAND": TechnologyProfile(
        name="NAND",
        read_energy_pj_per_bit=5.0,
        write_energy_pj_per_bit=50.0,
        read_latency_ns=25_000.0,
        write_latency_ns=300_000.0,
        cell_size_f2=1.0,
        rows_per_sa=65536,
        endurance_writes=1e4,
        volatile=False,
    ),
}


def parallelism_rank() -> list[tuple[str, float]]:
    """Technologies sorted by parallelism per area, normalised to SRAM.

    Reproduces the ordering discussed around Figure 1: despite small
    cells, DRAM and NAND offer low compute parallelism because many
    cells share each sense amplifier.
    """
    sram = TECHNOLOGIES["SRAM"].parallelism_per_area
    ranked = sorted(
        ((name, profile.parallelism_per_area / sram) for name, profile in TECHNOLOGIES.items()),
        key=lambda item: item[1],
        reverse=True,
    )
    return ranked
