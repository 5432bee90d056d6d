"""Perf-layer regression checks: the caches must make repeat work
visibly cheaper, and the batched event drain must not change the
event order.  Byte-identity of the simulated output is pinned by the
golden digests (``tests/golden/``).

Unlike the figure benchmarks these are plain assertions (no
pytest-benchmark fixture): run with ``pytest benchmarks/test_perf_regression.py -q``.
The full timed suite with the JSON artifact is ``python -m repro bench``.
"""

import random
import time

from repro.core import perfmodel
from repro.core.perfmodel import (
    ProfileEstimate,
    ScaleFreeEstimate,
    knee_allocation,
    knee_allocations,
)
from repro.harness.config import full_system
from repro.serving.workload import OpenWorkload
from repro.sim import Simulator


def test_knee_cache_speedup():
    """Repeated knee searches over a small estimate population -- the
    scheduler's actual access pattern -- must be visibly faster warm
    than cold (caches cleared before every search).  The bound is
    deliberately loose (the measured win is >10x); this guards against
    the cache being silently bypassed."""
    estimates = [
        ScaleFreeEstimate(
            unit_arrays=unit,
            t_load=1e-6,
            t_replica_unit=5e-8,
            t_compute_unit=1e-4,
            beta=beta,
        )
        for unit in (4, 8, 16)
        for beta in (0.6, 0.8, 0.92, 1.0)
    ]
    rounds = 300

    def sweep(cold: bool) -> float:
        start = time.perf_counter()
        for _ in range(rounds):
            for est in estimates:
                if cold:
                    perfmodel.clear_caches()
                knee_allocation(est, 5120)
        return time.perf_counter() - start

    try:
        uncached = sweep(cold=True)
        perfmodel.clear_caches()
        cached = sweep(cold=False)
    finally:
        perfmodel.clear_caches()
    assert cached < uncached / 1.3, (
        f"knee memo speedup only {uncached / cached:.2f}x"
    )


def test_cohort_knee_speedup():
    """Serving traffic misses the knee cache on every arrival, so its
    searches are sized as cohorts: 600 serving-shaped curves (200
    arrivals on every memory of the full system) in one
    ``knee_allocations`` call must be visibly faster than 600 cold
    single-curve searches, with the same answers.  The bound is loose
    (the measured win is about 4x); this guards against the cohort
    pass falling back to per-curve NumPy work."""
    system = full_system()
    workload = OpenWorkload(system)
    rng = random.Random(14)
    jobs = [workload.make_job(i, "tenant-0", rng, {}) for i in range(200)]
    curves = [
        (ProfileEstimate(job.profile(kind)), system.arrays(kind) // 2)
        for job in jobs
        for kind in system.kinds
    ]
    estimates = [estimate for estimate, _ in curves]
    caps = [cap for _, cap in curves]

    def best_of(runs: int, fn) -> float:
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def singles():
        for estimate, cap in curves:
            perfmodel.clear_caches()
            knee_allocation(estimate, cap)

    def cohort():
        perfmodel.clear_caches()
        knee_allocations(estimates, caps)

    try:
        perfmodel.clear_caches()
        expected = [knee_allocation(e, c) for e, c in curves]
        perfmodel.clear_caches()
        assert knee_allocations(estimates, caps) == expected
        single = best_of(3, singles)
        batched = best_of(3, cohort)
    finally:
        perfmodel.clear_caches()
    assert batched < single / 2, f"cohort speedup only {single / batched:.2f}x"


def test_chunked_run_matches_step_trace():
    """``run()``'s batched same-timestamp drain must visit events in
    exactly the order the one-at-a-time ``step()`` loop does."""

    def build(log):
        sim = Simulator()
        for i in range(200):
            # Deliberately collide timestamps (i % 7) to form chunks.
            sim.at(float(i % 7), lambda i=i: log.append((sim.now, i)))
        return sim

    run_log: list = []
    sim = build(run_log)
    sim.run()

    step_log: list = []
    stepped = build(step_log)
    while stepped.step():
        pass

    assert run_log == step_log
    assert sim.now == stepped.now
    assert sim.processed == stepped.processed == 200
