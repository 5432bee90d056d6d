"""Parallel experiment grid: determinism, name validation, bench gate.

The seed-determinism property ISSUE requires: sharding the grid across
worker processes must produce byte-identical report JSON
(``Report.to_json_dict()``) to the serial path, because every
experiment pins its own seeds and workers share no mutable state.
"""

import json

import pytest

from repro.harness.bench import check_cache_health, check_regression
from repro.harness.experiments import (
    full_registry,
    run_experiment_grid,
    run_named_experiment,
)


def _json(report) -> str:
    return json.dumps(report.to_json_dict(), default=str)


class TestGridDeterminism:
    def test_parallel_output_byte_identical_to_serial(self):
        # The three cheapest registry entries -- this spawns real
        # worker processes, so keep the workload small.
        names = ["table2", "table3", "fig1"]
        serial = run_experiment_grid(names, parallel=False)
        sharded = run_experiment_grid(names, max_workers=2)
        assert [name for name, _ in serial] == names
        assert [name for name, _ in sharded] == names
        for (_, a), (_, b) in zip(serial, sharded):
            assert _json(a) == _json(b)

    def test_single_name_stays_in_process(self):
        [(name, report)] = run_experiment_grid(["table3"])
        assert name == "table3"
        assert _json(report) == _json(run_named_experiment("table3"))

    def test_unknown_names_rejected_before_any_work(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_experiment_grid(["table2", "fig99"])

    def test_run_named_experiment_unknown(self):
        with pytest.raises(KeyError, match="python -m repro list"):
            run_named_experiment("fig99")

    def test_full_registry_includes_ablations(self):
        registry = full_registry()
        assert "fig19" in registry
        assert any(name.startswith("ablation-") for name in registry)


class TestBenchRegressionGate:
    @staticmethod
    def _payload(events_per_sec: float, quick: bool = True) -> dict:
        return {"quick": quick, "totals": {"events_per_sec": events_per_sec}}

    def test_within_band_passes(self):
        assert check_regression(self._payload(80.0), self._payload(100.0)) == []

    def test_beyond_band_fails(self):
        failures = check_regression(self._payload(60.0), self._payload(100.0))
        assert failures and "regressed" in failures[0]

    def test_suite_mismatch_fails(self):
        failures = check_regression(
            self._payload(100.0, quick=False), self._payload(100.0)
        )
        assert failures and "mismatch" in failures[0]

    def test_custom_band(self):
        payload, reference = self._payload(60.0), self._payload(100.0)
        assert check_regression(payload, reference, max_regression=0.5) == []

    def test_faster_than_reference_passes(self):
        assert check_regression(self._payload(150.0), self._payload(100.0)) == []


class TestCacheHealthGate:
    """A cache with lookups but zero hits is a wiring bug, not a
    tuning knob -- exactly how the ``perfmodel.min_time`` key bug
    shipped unnoticed."""

    @staticmethod
    def _payload(caches: dict) -> dict:
        return {"caches": caches}

    def test_healthy_caches_pass(self):
        payload = self._payload(
            {"perfmodel.knee": {"hits": 90, "misses": 10, "hit_rate": 0.9}}
        )
        assert check_cache_health(payload) == []

    def test_dead_cache_fails(self):
        payload = self._payload(
            {"perfmodel.min_time": {"hits": 0, "misses": 40, "hit_rate": 0.0}}
        )
        failures = check_cache_health(payload)
        assert failures and "perfmodel.min_time" in failures[0]
        assert "dead" in failures[0]

    def test_untouched_cache_is_fine(self):
        payload = self._payload(
            {"isa.timing": {"hits": 0, "misses": 0, "hit_rate": 0.0}}
        )
        assert check_cache_health(payload) == []

    def test_all_dead_caches_reported(self):
        payload = self._payload(
            {
                "a": {"hits": 0, "misses": 5},
                "b": {"hits": 1, "misses": 5},
                "c": {"hits": 0, "misses": 2},
            }
        )
        failures = check_cache_health(payload)
        assert len(failures) == 2

    def test_missing_caches_section_passes(self):
        assert check_cache_health({}) == []
