"""Metric declarations, the fold of one run's workers into metric
values, and the order statistics every report uses.

The gated end-to-end metrics -- name, unit, direction and bound -- are
declared once, in ``BENCHMARK.json`` at the repository root.  Every one
is defined and nonzero on every workload.

Host time is read in reference-loop units (``ref``, see
``hostspeed.py``): ``wall_ref`` is the mean round time over the mean
reference-loop pass timed during the rounds, pooled over the run's
workers.  Means, not medians: the passes are timed at even steps of
CPU time, so their mean weights the host's fast and slow stretches as
the round times do.  ``setup_s`` is each worker's set-up time over the
passes timed during it, in seconds of a nominal host on which a pass
takes ``NOMINAL_REFERENCE_S``; the run reports the workers' median.
The raw mean round time and median set-up time are kept in each run's
record as ``raw_wall_s`` and ``raw_setup_s``, ungated.

``SUITE_METRICS`` adds what the suite (``run.py`` without
``--workload``) also reports.  ``sojourn_p99_ms`` is deterministic for
a seed, so between two sets of one seed its bound only absorbs
floating-point re-association.  Across seeds it moves too far to gate.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SUITE_METRICS = [
    {"name": "sojourn_p99_ms", "unit": "ms", "better": "lower", "bound": 1e-6},
]
#: ``setup_s`` is in seconds of a nominal host on which one
#: reference-loop pass takes this long (the 2-vCPU host of the baseline
#: in README.md takes 1.5 ms on a fast stretch, 2.5 ms on a slow one).
NOMINAL_REFERENCE_S = 0.002
#: End-to-end metrics that are the simulation's own output.
SIMULATED = ("slo_attainment", "admitted_frac", "sim_makespan_ms", "sojourn_p99_ms")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(benchmark: dict) -> list[dict]:
    """Every end-to-end metric the suite reports, gated ones first."""
    return list(benchmark["end_to_end"]) + SUITE_METRICS


def _failed_round(record: dict, round_: dict) -> bool:
    # A traced record's own checks (cross-check, fold check) belong to
    # its one round.
    return bool(round_["checks"] or record["checks"])


def fold(workers: list[dict], traced: dict | None) -> dict:
    """One run: its metric values, digests, failures and counts.

    ``workers`` are the untraced worker records, ``traced`` the traced
    one (or None).  A record with ``error`` is a worker that crashed or
    timed out; it counts as one failed operation.  Every round is one
    operation.
    """
    records = workers + ([traced] if traced is not None else [])
    good = [r for r in records if "error" not in r]
    failures = [r["error"] for r in records if "error" in r]
    attempted = failed = len(failures)
    for record in good:
        failures.extend(record["checks"])
        for round_ in record["rounds"]:
            failures.extend(round_["checks"])
            attempted += 1
            failed += _failed_round(record, round_)
    digests = sorted({rd["digest"] for r in good for rd in r["rounds"]})
    if len(digests) > 1:
        failures.append(f"sim_digest differs across rounds of one seed: {digests}")

    plain = [r for r in workers if "error" not in r]
    values: dict[str, float] = {}
    raw_wall_s = raw_setup_s = None
    if plain:
        walls = [rd["wall_s"] for r in plain for rd in r["rounds"]]
        reference = [s for r in plain for s in r["reference_s"]]
        raw_wall_s = statistics.fmean(walls)
        raw_setup_s = statistics.median(r["setup_s"] for r in plain)
        wall_ref = raw_wall_s / statistics.fmean(reference)
        sim = plain[0]["sim"]
        values = {
            "wall_ref": wall_ref,
            "sim_jobs_per_ref": sim["jobs"] / wall_ref,
            "setup_s": statistics.median(
                r["setup_s"] / statistics.fmean(r["setup_reference_s"]) * NOMINAL_REFERENCE_S
                for r in plain
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            **{name: sim[name] for name in SIMULATED},
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    layers = None
    if traced is not None and "error" not in traced and values:
        traced_ref = traced["rounds"][0]["wall_s"] / statistics.fmean(traced["reference_s"])
        layers = dict(traced["layers"], **{
            "trace.overhead_frac": traced_ref / values["wall_ref"] - 1.0,
        })
    return {
        "metrics": values,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "layers": layers,
    }


def summarize(values: list[float]) -> dict:
    """Sample count, median, quartiles, min and max of some runs."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def spread(summary: dict) -> float:
    """Interquartile range as a share of the median."""
    median = summary["median"]
    iqr = summary["q3"] - summary["q1"]
    if median == 0:
        return 0.0 if iqr == 0 else float("inf")
    return abs(iqr / median)
