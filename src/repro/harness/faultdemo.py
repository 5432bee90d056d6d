"""Fault-injection demo harness: one batch, one plan, one report.

``python -m repro run --faults examples/faultplan_smoke.json`` lands
here: a multiprogramming combo is scheduled on the full three-layer
system, the :class:`~repro.faults.plan.FaultPlan` is injected, and the
run's report -- including the degradation section (faults injected,
jobs retried / re-queued / failed, makespan vs the fault-free
baseline) -- is returned for printing.  The same entry point doubles
as the CI smoke test for the fault subsystem.
"""

from __future__ import annotations

from pathlib import Path

from ..apps import COMBOS, combo_jobs
from ..core.dispatcher import DispatchResult
from ..core.runtime import MLIMPRuntime
from ..faults import FaultPlan
from ..memories import DEFAULT_SPECS
from .config import full_system

__all__ = ["run_fault_demo"]


def run_fault_demo(
    plan: FaultPlan | str | Path,
    scheduler: str = "adaptive",
    combo: str = "A",
) -> DispatchResult:
    """Run one combo under a fault plan, with a fault-free baseline.

    ``plan`` is a loaded plan or the path of one.  Raises
    ``ValueError`` for an unknown combo; JSON/plan validation errors
    surface from :meth:`FaultPlan.load`.
    """
    if combo not in COMBOS:
        raise ValueError(
            f"unknown combo {combo!r}; choose from {', '.join(sorted(COMBOS))}"
        )
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.load(plan)
    runtime = MLIMPRuntime(full_system(), scheduler=scheduler)
    runtime.submit_many(combo_jobs(combo, DEFAULT_SPECS))
    return runtime.run(
        label=f"{scheduler}/{combo}+faults",
        faults=plan,
        fault_baseline=True,
    )
