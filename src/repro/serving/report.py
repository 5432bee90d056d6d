"""Per-tenant SLO reporting for open-system serving runs.

A closed batch is judged by makespan; an open system is judged by
**sojourn time** -- how long each job spent in the system from its
arrival (not its dispatch) to its completion -- plus how much load had
to be shed to keep that sojourn bounded.  :func:`build_serving_report`
joins the dispatcher's job records with the
:class:`~repro.serving.tenants.OpenLoop`'s arrival bookkeeping into a
:class:`ServingReport`:

* per-tenant p50/p95/p99/mean sojourn (nearest-rank quantiles, the
  same definition as the dispatcher's tail latency),
* per-tenant SLO attainment (fraction of completed jobs whose sojourn
  met the target),
* shed counts split by cause (queue overflow vs unplaceable), and
* per-memory-layer utilisation from the trace analytics.

``str(report)`` renders the summary table; :meth:`ServingReport.as_dict`
is the JSON-ready schema the CLI emits and CI asserts against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.dispatcher import DispatchResult
from ..obs.analytics import device_utilisation
from ..obs.metrics import nearest_rank
from .tenants import OpenLoop

__all__ = [
    "TenantReport",
    "ServingReport",
    "build_serving_report",
    "completed_sojourns",
    "tenant_report",
]


@dataclass(frozen=True)
class TenantReport:
    """One tenant's view of the run.

    ``shed_predicted`` counts predictive-admission rejections (zero
    whenever no controller ran); its report key is only emitted when
    the gate was active, keeping the historical schema byte-identical.
    """

    tenant: str
    offered: int
    admitted: int
    completed: int
    shed_queue_full: int
    shed_unplaced: int
    sojourn_mean_s: float
    sojourn_p50_s: float
    sojourn_p95_s: float
    sojourn_p99_s: float
    slo_attainment: float
    shed_predicted: int = 0

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_unplaced + self.shed_predicted

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def as_dict(self, include_admission: bool = False) -> dict:
        out = {
            "tenant": self.tenant,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed_queue_full": self.shed_queue_full,
            "shed_unplaced": self.shed_unplaced,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "sojourn_ms": {
                "mean": self.sojourn_mean_s * 1e3,
                "p50": self.sojourn_p50_s * 1e3,
                "p95": self.sojourn_p95_s * 1e3,
                "p99": self.sojourn_p99_s * 1e3,
            },
            "slo_attainment": self.slo_attainment,
        }
        if include_admission:
            out["shed_predicted"] = self.shed_predicted
        return out


@dataclass
class ServingReport:
    """Everything one open-system run produced, tenant by tenant."""

    scheduler: str
    makespan: float
    slo_s: float
    tenants: dict[str, TenantReport] = field(default_factory=dict)
    #: Busy fraction of the makespan, per memory layer.
    utilisation: dict[str, float] = field(default_factory=dict)
    #: Per-node utilisation/SLO sections of a cluster run
    #: (:mod:`repro.cluster`); empty -- and absent from
    #: :meth:`as_dict` -- for single-node serving runs, which keeps
    #: those byte-identical to the pre-cluster schema.
    nodes: dict[str, dict] = field(default_factory=dict)
    #: Name of the admission controller that gated arrivals ("" when
    #: the run used plain shed-only backpressure; the admission keys
    #: are then absent from :meth:`as_dict`, preserving the schema).
    admission: str = ""
    #: Predictor lifecycle counters (:attr:`OnlinePredictor.counters`);
    #: empty -- and absent from the dict/text output -- for predictors
    #: without a lifecycle.
    predictor: dict[str, int] = field(default_factory=dict)

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tenants.values())

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def shed_predicted(self) -> int:
        return sum(t.shed_predicted for t in self.tenants.values())

    @property
    def slo_attainment(self) -> float:
        """Attainment over all completed jobs (not a tenant average)."""
        total = self.completed
        if not total:
            return 1.0
        met = sum(t.slo_attainment * t.completed for t in self.tenants.values())
        return met / total

    def as_dict(self) -> dict:
        out = {
            "scheduler": self.scheduler,
            "makespan": self.makespan,
            "slo_ms": self.slo_s * 1e3,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "slo_attainment": self.slo_attainment,
            "tenants": {
                name: report.as_dict(include_admission=bool(self.admission))
                for name, report in sorted(self.tenants.items())
            },
            "utilisation": dict(sorted(self.utilisation.items())),
        }
        if self.admission:
            out["admission"] = self.admission
            out["shed_predicted"] = self.shed_predicted
        if self.predictor:
            out["predictor"] = {
                name: self.predictor[name] for name in sorted(self.predictor)
            }
        if self.nodes:
            out["nodes"] = {
                name: dict(section) for name, section in sorted(self.nodes.items())
            }
        return out

    def __str__(self) -> str:
        lines = [
            f"serving[{self.scheduler}]  makespan {self.makespan * 1e3:.3f} ms  "
            f"slo {self.slo_s * 1e3:.2f} ms  offered {self.offered}  "
            f"completed {self.completed}  shed {self.shed} "
            f"({self.shed_rate:.1%})  attainment {self.slo_attainment:.1%}",
            f"{'tenant':<12} {'off':>5} {'done':>5} {'shed':>5} "
            f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'slo':>6}",
        ]
        for name, t in sorted(self.tenants.items()):
            lines.append(
                f"{name:<12} {t.offered:>5} {t.completed:>5} {t.shed:>5} "
                f"{t.sojourn_p50_s * 1e3:>8.3f} {t.sojourn_p95_s * 1e3:>8.3f} "
                f"{t.sojourn_p99_s * 1e3:>8.3f} {t.slo_attainment:>6.1%}"
            )
        if self.utilisation:
            util = "  ".join(
                f"{dev}={frac:.1%}" for dev, frac in sorted(self.utilisation.items())
            )
            lines.append(f"utilisation  {util}")
        if self.admission:
            lines.append(
                f"admission[{self.admission}]  shed_predicted "
                f"{self.shed_predicted}"
            )
        if self.predictor:
            lines.append("predictor lifecycle:")
            for name in sorted(self.predictor):
                lines.append(f"  {name:32s} {self.predictor[name]}")
        if self.nodes:
            lines.append(
                f"{'node':<12} {'placed':>6} {'done':>5} {'shed':>5} "
                f"{'makespan ms':>12} {'slo':>6}  utilisation"
            )
            for name, section in sorted(self.nodes.items()):
                util = "  ".join(
                    f"{dev}={frac:.1%}"
                    for dev, frac in sorted(section.get("utilisation", {}).items())
                )
                lines.append(
                    f"{name:<12} {section.get('placed', 0):>6} "
                    f"{section.get('completed', 0):>5} "
                    f"{section.get('shed', 0):>5} "
                    f"{section.get('makespan', 0.0) * 1e3:>12.3f} "
                    f"{section.get('slo_attainment', 0.0):>6.1%}  {util}"
                )
        return "\n".join(lines)


def tenant_report(
    name: str,
    sojourns: list[float],
    slo_s: float,
    *,
    offered: int,
    admitted: int,
    shed_queue_full: int,
    shed_unplaced: int,
    shed_predicted: int,
) -> TenantReport:
    """One tenant's row from its completed jobs' sojourns.

    Quantiles are nearest-rank; attainment is judged against
    ``slo_s`` and is 1.0 for a tenant that completed nothing.
    """
    values = sorted(sojourns)
    met = sum(1 for v in values if v <= slo_s)
    return TenantReport(
        tenant=name,
        offered=offered,
        admitted=admitted,
        completed=len(values),
        shed_queue_full=shed_queue_full,
        shed_unplaced=shed_unplaced,
        shed_predicted=shed_predicted,
        sojourn_mean_s=sum(values) / len(values) if values else 0.0,
        sojourn_p50_s=nearest_rank(values, 0.50) if values else 0.0,
        sojourn_p95_s=nearest_rank(values, 0.95) if values else 0.0,
        sojourn_p99_s=nearest_rank(values, 0.99) if values else 0.0,
        slo_attainment=met / len(values) if values else 1.0,
    )


def completed_sojourns(
    result: DispatchResult, open_loop: OpenLoop
) -> dict[str, tuple[str, float]]:
    """``job_id -> (tenant, sojourn)`` of every completed job that
    arrived through ``open_loop``, in the order of ``result.records``.

    Sojourn is ``finished_at - arrival_time``; jobs injected by the
    *closed* part of a mixed run (no arrival record) are left out.
    """
    arrival_times, job_tenants = open_loop.arrival_times, open_loop.job_tenants
    sojourns = {}
    for job_id, record in result.records.items():
        arrived = arrival_times.get(job_id)
        if arrived is not None:
            sojourns[job_id] = (job_tenants[job_id], record.finished_at - arrived)
    return sojourns


def build_serving_report(
    result: DispatchResult,
    open_loop: OpenLoop,
    slo_s: float,
    predictor=None,
    admission=None,
) -> ServingReport:
    """Join dispatch records with arrival bookkeeping.

    Each tenant's sojourns come from :func:`completed_sojourns`.
    ``predictor`` (when it carries lifecycle ``counters``) and
    ``admission`` (the run's controller, if any) land in the report's
    feature-gated sections.
    """
    if slo_s <= 0:
        raise ValueError(f"slo must be positive, got {slo_s}")
    sojourns: dict[str, list[float]] = {t.name: [] for t in open_loop.tenants}
    for tenant, sojourn in completed_sojourns(result, open_loop).values():
        sojourns[tenant].append(sojourn)

    tenants = {
        name: tenant_report(
            name,
            sojourns.get(name, []),
            slo_s,
            offered=stats["offered"],
            admitted=stats["admitted"],
            shed_queue_full=stats["shed_queue_full"],
            shed_unplaced=stats["shed_unplaced"],
            shed_predicted=stats["shed_predicted"],
        )
        for name, stats in open_loop.tenant_stats().items()
    }

    utilisation = device_utilisation(result.trace)
    counters = getattr(predictor, "counters", None)
    return ServingReport(
        scheduler=result.scheduler_name,
        makespan=result.makespan,
        slo_s=slo_s,
        tenants=tenants,
        utilisation=utilisation,
        admission=admission.name if admission is not None else "",
        predictor=dict(counters) if counters else {},
    )
