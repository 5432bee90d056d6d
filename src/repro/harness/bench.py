"""The pinned benchmark suite behind ``python -m repro bench``.

Times a fixed set of representative workloads -- the Fig. 11 kernel
comparison, the Fig. 15 scheduler sweep, the Fig. 19 multiprogramming
combos and one full GNN epoch -- and writes ``BENCH_<date>.json``
recording wall-clock, simulator events/sec and the perf-layer cache
hit-rates (:func:`repro.obs.metrics.runtime_snapshot`).

The suite runs once.  The perf-layer caches are cleared before the
timed pass, so the reported hit-rates reflect only the timed region;
one-time costs -- dataset/workload construction and MLP predictor
training -- happen in an untimed warmup.  Speed is compared across
commits through the committed ``BENCH_*.json`` history and the
``--check`` gate, not against an in-process reference pass.

Usage::

    python -m repro bench                  # full suite
    python -m repro bench --quick          # small dataset / combo subset
    python -m repro bench --out b.json --check benchmarks/bench_baseline.json

or programmatically::

    from repro.harness.bench import run_bench, write_bench_json
    payload = run_bench(quick=True)
    path = write_bench_json(payload)
    payload["totals"]["events_per_sec"]
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from ..core import perfmodel
from ..core.predictor import OraclePredictor
from ..core.scheduler import GlobalScheduler
from ..isa import timing
from ..obs.metrics import (
    reset_runtime_counters,
    runtime_counters,
    runtime_snapshot,
)
from .ablations import ablation_knee
from .experiments import (
    _workload,
    fig11_kernel_speedup,
    fig15_scheduler_predictor,
    fig19_combo_schedulers,
)
from .gnn import run_workload

__all__ = [
    "build_suite",
    "run_bench",
    "write_bench_json",
    "check_regression",
    "check_cache_health",
    "DEFAULT_MAX_REGRESSION",
]

#: CI gate: fail when events/sec drops more than this fraction below
#: the checked-in baseline.
DEFAULT_MAX_REGRESSION = 0.30


def build_suite(quick: bool = False) -> list[tuple[str, Callable[[], object]]]:
    """Prepare the pinned suite; everything built here is warmup.

    Returns ``(name, thunk)`` pairs.  ``quick`` shrinks the inputs
    (smallest dataset, two combos) for CI smoke runs; the full suite
    uses the paper's citation dataset and all Table II combos.
    """
    dataset = "collab" if quick else "citation"
    combos = ("A", "B") if quick else None
    workload = _workload(dataset)
    mlp = workload.train_predictor()
    sizing_workload = _workload(dataset, num_batches=2)
    return [
        ("fig11_kernels", lambda: fig11_kernel_speedup(dataset)),
        ("fig15_sched_sweep", lambda: fig15_scheduler_predictor(dataset, mlp=mlp)),
        ("fig19_combos", lambda: fig19_combo_schedulers(combos)),
        # Fig. 10 sizing-policy sweep: the only target that exercises
        # sizing="min", so perfmodel.min_time sees real traffic and
        # check_cache_health can catch a dead cache (it once sat at a
        # 0% hit rate -- non-timing profile fields fragmented the key).
        ("fig10_sizing", lambda: ablation_knee(dataset, workload=sizing_workload)),
        (
            "gnn_epoch",
            lambda: run_workload(workload, GlobalScheduler(OraclePredictor())),
        ),
    ]


def _timed_pass(suite: list[tuple[str, Callable[[], object]]]) -> dict[str, dict]:
    """Run every target once, recording wall time and simulator-event
    throughput (from the process-global ``sim.events`` counter the
    dispatcher maintains)."""
    results: dict[str, dict] = {}
    for name, thunk in suite:
        events_before = runtime_counters().get("sim.events", 0.0)
        start = time.perf_counter()
        thunk()
        wall = time.perf_counter() - start
        events = runtime_counters().get("sim.events", 0.0) - events_before
        results[name] = {
            "wall_s": wall,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        }
    return results


def run_bench(quick: bool = False) -> dict:
    """Run the pinned suite and return the JSON-ready payload."""
    suite = build_suite(quick)
    perfmodel.clear_caches()
    timing.clear_cache()
    reset_runtime_counters()
    targets = _timed_pass(suite)
    snapshot = runtime_snapshot()

    wall = sum(entry["wall_s"] for entry in targets.values())
    events = sum(entry["events"] for entry in targets.values())
    totals: dict = {
        "wall_s": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }
    return {
        "schema": 1,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "targets": targets,
        "totals": totals,
        "caches": snapshot["caches"],
        "counters": snapshot["counters"],
    }


def write_bench_json(payload: dict, out: str | os.PathLike | None = None) -> Path:
    """Write the payload; default filename is ``BENCH_<YYYYMMDD>.json``
    in the current directory."""
    if out is None:
        out = f"BENCH_{datetime.now(timezone.utc):%Y%m%d}.json"
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def check_cache_health(payload: dict) -> list[str]:
    """Flag perf-layer caches that saw traffic but never hit.

    A cache with lookups and a 0% hit rate is not a tuning problem,
    it is a wiring bug -- ``perfmodel.min_time`` shipped exactly that
    way (every key unique, every lookup a miss) and no gate noticed
    because throughput gates tolerate slow-but-correct.  Returns
    human-readable failure strings (empty = healthy).  Caches with no
    traffic are fine: not every workload exercises every cache.
    """
    failures: list[str] = []
    for name, stats in sorted(payload.get("caches", {}).items()):
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        if lookups > 0 and stats.get("hits", 0) == 0:
            failures.append(
                f"cache {name} is dead: 0 hits in {lookups:,} lookups "
                "(every key unique -- check key normalisation)"
            )
    return failures


def check_regression(
    payload: dict,
    reference: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> list[str]:
    """Compare a fresh payload against a checked-in reference.

    Returns human-readable failure strings (empty = pass).  The gate
    is total events/sec -- wall-clock alone shifts with machine load,
    while events/sec normalises by the work actually simulated.
    """
    failures: list[str] = []
    if payload.get("quick") != reference.get("quick"):
        failures.append(
            f"suite mismatch: payload quick={payload.get('quick')} vs "
            f"reference quick={reference.get('quick')}"
        )
        return failures
    current = payload["totals"]["events_per_sec"]
    floor = reference["totals"]["events_per_sec"] * (1.0 - max_regression)
    if current < floor:
        failures.append(
            f"events/sec regressed: {current:,.0f} < floor {floor:,.0f} "
            f"(reference {reference['totals']['events_per_sec']:,.0f}, "
            f"allowed regression {max_regression:.0%})"
        )
    return failures
