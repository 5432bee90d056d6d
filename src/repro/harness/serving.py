"""Closed-vs-open serving comparison (the open-system experiment).

The paper's scheduler evaluation is *closed*: a batch is fully known
at time zero and judged by makespan.  Serving workloads are *open*:
jobs arrive over time and are judged by sojourn time and SLO
attainment.  This harness runs the **same seeded arrival stream**
through both regimes for each scheduler:

* **closed** -- every job handed to the scheduler at t = 0 (the
  batch's perfect-knowledge upper bound on scheduling quality), and
* **open** -- jobs enter through the serving layer's admission path
  as they arrive, so the policy sees the future one arrival at a
  time.

The closed-batch hypothesis (global >= adaptive >= ljf) **inverts**
in the open system: arrivals are a relentless source of plan
staleness, so the global scheduler's launch-no-earlier-than-planned
contract -- re-planned from scratch on every admission batch --
degrades exactly the way Section V-B3 predicts for predictor noise,
while the adaptive scheduler's completion-driven re-evaluation
absorbs the arrival process the same way it absorbs misprediction.
LJF head-of-line blocks and sheds first.  Measured ordering under
contention: ``adaptive >= ljf >= global`` on SLO attainment (see
EXPERIMENTS.md, "Open-system serving").  A degraded variant injects
a seeded fault plan mid-stream to show the serving layer composing
with graceful degradation (PR 3).

Run them from the CLI::

    python -m repro run serving-open
    python -m repro run serving-degraded
"""

from __future__ import annotations

from ..core.runtime import MLIMPRuntime
from ..faults.plan import FaultPlan
from ..obs.metrics import nearest_rank
from ..serving import PoissonArrivals, ServingRuntime, Tenant
from ..serving.report import completed_sojourns
from ..serving.workload import OpenWorkload
from .config import gnn_system
from .reporting import Report, fmt_time

__all__ = ["serving_open_system", "serving_degraded", "SERVING_EXPERIMENTS"]

SCHEDULERS = ("ljf", "adaptive", "global")

#: Aggregate arrival rate (jobs/s) that keeps the scaled GNN system
#: under sustained contention without collapsing into pure shedding.
_RATE = 6e5
_HORIZON_S = 0.004
_SEED = 20
_SLO_S = 200e-6
_TENANTS = ("interactive", "batch", "besteffort")


def _tenants() -> list[Tenant]:
    """Three asymmetric traffic classes: a weighted interactive
    tenant, a default batch tenant, and a strictly bounded
    best-effort tenant that sheds first under pressure."""
    return [
        Tenant("interactive", weight=4.0, queue_limit=32),
        Tenant("batch", weight=2.0, queue_limit=32),
        Tenant("besteffort", weight=1.0, queue_limit=8),
    ]


def _arrivals() -> PoissonArrivals:
    return PoissonArrivals(
        rate=_RATE, horizon=_HORIZON_S, seed=_SEED, tenants=_TENANTS
    )


def _run_pair(scheduler: str, faults: FaultPlan | None = None):
    """(closed DispatchResult, open ServingResult) on one stream."""
    system = gnn_system()
    workload = OpenWorkload(system)
    timeline = _arrivals().generate(workload.make_job)

    closed = MLIMPRuntime(system, scheduler=scheduler)
    closed.submit_many([a.job for a in timeline])
    closed_result = closed.run(label=f"{scheduler}/closed", faults=faults)

    serving = ServingRuntime(system, scheduler=scheduler, max_backlog=16)
    open_result = serving.serve(
        _arrivals(),
        tenants=_tenants(),
        slo_s=_SLO_S,
        label=f"{scheduler}/open",
        faults=faults,
        workload=workload,
    )
    return closed_result, open_result


def _comparison_report(title: str, faults: FaultPlan | None = None) -> Report:
    report = Report(
        title=title,
        columns=[
            "scheduler",
            "closed makespan",
            "open makespan",
            "open p50",
            "open p99",
            "slo attainment",
            "shed rate",
            "completed",
        ],
    )
    attainments: dict[str, float] = {}
    for scheduler in SCHEDULERS:
        closed_result, open_result = _run_pair(scheduler, faults=faults)
        r = open_result.report
        all_sojourns = sorted(
            sojourn
            for _, sojourn in completed_sojourns(
                open_result.result, open_result.open_loop
            ).values()
        )
        p50 = nearest_rank(all_sojourns, 0.50) if all_sojourns else 0.0
        p99 = nearest_rank(all_sojourns, 0.99) if all_sojourns else 0.0
        attainments[scheduler] = r.slo_attainment
        report.add_row(
            scheduler,
            fmt_time(closed_result.makespan),
            fmt_time(r.makespan),
            fmt_time(p50),
            fmt_time(p99),
            f"{r.slo_attainment:.1%}",
            f"{r.shed_rate:.1%}",
            r.completed,
        )
    report.note(
        f"poisson rate {_RATE:g} jobs/s over {_HORIZON_S * 1e3:g} ms, "
        f"slo {_SLO_S * 1e3:g} ms, tenants "
        + ", ".join(f"{t.name}(w={t.weight:g})" for t in _tenants())
    )
    report.note(
        "closed-batch hypothesis global >= adaptive >= ljf inverts under "
        "open arrivals (plan staleness, V-B3); measured attainment: "
        + ", ".join(f"{s}={attainments[s]:.1%}" for s in SCHEDULERS)
    )
    return report


def serving_open_system() -> Report:
    """Open-system serving: closed-batch vs arrival-driven scheduling."""
    return _comparison_report(
        "Serving -- closed batch vs open arrivals (per-scheduler)"
    )


def serving_degraded() -> Report:
    """Open-system serving under a seeded mid-stream fault plan."""
    faults = FaultPlan.random(
        seed=_SEED, devices=gnn_system().kinds, horizon_s=_HORIZON_S
    )
    report = _comparison_report(
        "Serving under faults -- open arrivals + graceful degradation",
        faults=faults,
    )
    report.note(f"fault plan: {len(faults)} seeded events over the horizon")
    return report


#: Registry fragment merged by ``repro.harness.experiments.full_registry``.
SERVING_EXPERIMENTS = {
    "serving-open": serving_open_system,
    "serving-degraded": serving_degraded,
}
