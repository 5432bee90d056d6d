"""Golden digests of the closed-batch dispatch path.

Each case runs one seeded batch scenario and reduces its output to
the sha256 of the canonical JSON: the four schedulers on two seeded
batches, the global schedule on combos A and D, the Fig. 11/15/19
bench scenarios, a seeded fault plan per scheduler and a seeded
open-system serve.  The digests in ``tests/golden/batch.json`` were
captured while the dispatcher still had two phase-chain engines
(per-launch closures and the columnar flight table) and the perf
model could switch its caches and batch evaluation off; every case
agreed under all three of those configurations, so the digests pin
the one path that remains.  ``tests/test_differential_columnar.py``
checks each case against its digest.

Regenerate (only for a change that is *meant* to move the output,
with the reason stated in the change log) with::

    PYTHONPATH=src python tests/test_golden_batch.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.apps import combo_jobs
from repro.harness.config import full_system
from repro.harness.experiments import (
    _workload,
    fig11_kernel_speedup,
    fig15_scheduler_predictor,
    fig19_combo_schedulers,
)
from repro.memories import DEFAULT_SPECS
from repro.obs.export import result_payload
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from tests.prophelpers import (
    SCHEDULERS,
    make_jobs,
    random_plan,
    run_batch,
    trace_key,
)

GOLDEN = Path(__file__).parent / "golden" / "batch.json"


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _batch(scheduler: str, seed: int) -> dict:
    result = run_batch(scheduler, make_jobs(seed))
    return {
        "trace": trace_key(result),
        "makespan": result.makespan,
        "payload": result_payload(result),
    }


def _combo(combo: str) -> dict:
    result = run_batch("global", combo_jobs(combo, DEFAULT_SPECS))
    return {"trace": trace_key(result), "payload": result_payload(result)}


def _fig15() -> dict:
    mlp = _workload("collab").train_predictor()
    return fig15_scheduler_predictor("collab", mlp=mlp).to_json_dict()


def _faults(scheduler: str) -> dict:
    plan = random_plan(3, 0.05, n_events=6)
    result = run_batch(scheduler, make_jobs(3), faults=plan)
    return {
        "trace": trace_key(result),
        "failed_jobs": result.failed_jobs,
        "fault_summary": result.fault_summary,
        "payload": result_payload(result),
    }


def _serve() -> dict:
    runtime = ServingRuntime(full_system(), scheduler="adaptive")
    served = runtime.serve(
        PoissonArrivals(rate=2e3, horizon=0.02, seed=7, tenants=("a", "b")),
        tenants=[Tenant("a"), Tenant("b", weight=2.0)],
        slo_s=0.01,
    )
    return {"report": served.report.as_dict(), "trace": trace_key(served.result)}


def _cases() -> dict:
    cases = {
        f"batch-{seed}-{name}": (lambda n=name, s=seed: _batch(n, s))
        for seed in (0, 7)
        for name in SCHEDULERS
    }
    for combo in ("A", "D"):
        cases[f"combo-{combo}-global"] = lambda c=combo: _combo(c)
    cases["fig11-collab"] = lambda: fig11_kernel_speedup("collab").to_json_dict()
    cases["fig15-collab"] = _fig15
    cases["fig19-AB"] = lambda: fig19_combo_schedulers(("A", "B")).to_json_dict()
    for name in SCHEDULERS:
        cases[f"faults-{name}"] = lambda n=name: _faults(n)
    cases["serve-adaptive"] = _serve
    return cases


CASES = _cases()


def case_digest(case: str) -> str:
    """Run one case and digest its canonical output."""
    return _digest(CASES[case]())


def golden_digest(case: str) -> str:
    return json.loads(GOLDEN.read_text())[case]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    digests = {name: case_digest(name) for name in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
