"""Cluster-level reporting: merge per-node serving runs into one view.

Each node of a sharded cluster run produces an ordinary per-node
:class:`~repro.serving.report.ServingReport` plus its raw sojourn and
intake bookkeeping.  :func:`build_cluster_report` merges them --
deterministically, nodes in spec order, tenants sorted -- into a
cluster-level ``ServingReport`` whose

* tenant rows are recomputed from the **union** of per-job sojourns
  (each shifted by the job's interconnect handoff delay, so a
  cluster sojourn runs from the *original* arrival to completion,
  not from the delayed landing on the node);
* ``utilisation`` is the fleet-wide busy fraction per memory layer
  (per-node busy time summed, normalised by nodes x cluster
  makespan);
* ``nodes`` sections carry each node's placed/completed/shed counts,
  makespan, SLO attainment and utilisation -- the per-node view the
  ROADMAP asks ``ServingReport`` to grow.

The merge is pure arithmetic over plain data, so a merged report is
byte-identical no matter how many processes produced the node runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import nearest_rank
from ..serving.report import ServingReport, TenantReport, tenant_report
from ..serving.tenants import Tenant
from .spec import ClusterSpec

__all__ = ["ClusterStats", "NodeOutcome", "build_cluster_report"]


def _delay_histogram(delays: list[float]) -> dict[str, int]:
    """Log-decade histogram of queueing delays (seconds): bucket
    ``"<=1e-06"`` counts delays up to a microsecond, and so on up a
    decade at a time; ``">1e+00"`` catches the tail.  Deterministic
    and JSON-friendly (string keys, fixed bucket set)."""
    edges = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0)
    counts = dict.fromkeys([f"<={edge:.0e}" for edge in edges], 0)
    counts[">1e+00"] = 0
    for delay in delays:
        for edge in edges:
            if delay <= edge:
                counts[f"<={edge:.0e}"] += 1
                break
        else:
            counts[">1e+00"] += 1
    return counts


@dataclass
class ClusterStats:
    """Placement and interconnect accounting of one cluster run.

    The contention and migration fields are *feature-gated* in
    :meth:`as_dict`: a run with ``contention="none"`` and no
    migrations emits exactly the historical key set, keeping pinned
    outputs byte-identical.
    """

    placement: str
    #: node name -> arrivals placed there.
    placed: dict[str, int] = field(default_factory=dict)
    #: Jobs placed away from their tenant's (effective) home node.
    handoffs: int = 0
    handoff_bytes: float = 0.0
    #: Replicated fills (first landing of a tenant away from home).
    replicas: int = 0
    replica_bytes: float = 0.0
    #: tenant -> arrivals that found no live node (cluster-level shed).
    lost_no_node: dict[str, int] = field(default_factory=dict)
    #: job_id -> total interconnect delay added before the job
    #: reached its node (handoff + replica + queueing + migration).
    delays: dict[str, float] = field(default_factory=dict)
    #: Interconnect contention model the run used ("none"/"shared").
    contention: str = "none"
    #: Per-transfer queueing delays (seconds waited behind earlier
    #: transfers on a shared link); empty under ``contention="none"``.
    queue_delays: list[float] = field(default_factory=list)
    #: Largest total bytes simultaneously in flight across all links.
    peak_inflight_bytes: float = 0.0
    #: Jobs re-placed off a node that died before their (delayed)
    #: landing time.
    migrations: int = 0
    migration_bytes: float = 0.0

    @property
    def total_lost(self) -> int:
        return sum(self.lost_no_node.values())

    def as_dict(self) -> dict:
        """JSON-ready summary (per-job delays are summarised, not
        dumped)."""
        delayed = [d for d in self.delays.values() if d > 0]
        out = {
            "placement": self.placement,
            "placed": dict(sorted(self.placed.items())),
            "handoffs": self.handoffs,
            "handoff_bytes": self.handoff_bytes,
            "replicas": self.replicas,
            "replica_bytes": self.replica_bytes,
            "lost_no_node": dict(sorted(self.lost_no_node.items())),
            "handoff_delay_s": {
                "count": len(delayed),
                "total": sum(delayed),
                "max": max(delayed) if delayed else 0.0,
            },
        }
        if self.contention != "none":
            queued = [d for d in self.queue_delays if d > 0]
            out["contention"] = {
                "model": self.contention,
                "transfers": len(self.queue_delays),
                "queued": len(queued),
                "queue_delay_s": {
                    "count": len(queued),
                    "total": sum(queued),
                    "max": max(queued) if queued else 0.0,
                    "p50": nearest_rank(sorted(queued), 0.50) if queued else 0.0,
                    "p95": nearest_rank(sorted(queued), 0.95) if queued else 0.0,
                },
                "queue_delay_histogram": _delay_histogram(queued),
                "peak_inflight_bytes": self.peak_inflight_bytes,
            }
        if self.migrations:
            out["migrations"] = {
                "count": self.migrations,
                "bytes": self.migration_bytes,
            }
        return out


@dataclass
class NodeOutcome:
    """Everything one node's shard returns to the merge.

    Plain data only -- this object crosses the
    ``ProcessPoolExecutor`` boundary when the run is sharded.
    """

    index: int
    name: str
    report: ServingReport
    #: ``repro.obs.export.result_summary`` of the node's dispatch run.
    payload: dict
    #: ``OpenLoop.tenant_stats()`` of the node's admission loop.
    tenant_stats: dict[str, dict[str, int]]
    #: job_id -> (tenant, node-local sojourn seconds).
    sojourns: dict[str, tuple[str, float]]
    makespan: float
    failed_jobs: dict[str, str] = field(default_factory=dict)


def build_cluster_report(
    spec: ClusterSpec,
    scheduler: str,
    slo_s: float,
    tenants: list[Tenant],
    outcomes: list[NodeOutcome],
    stats: ClusterStats,
    admission: str = "",
) -> ServingReport:
    """Merge node outcomes into the cluster-level serving report.

    ``admission`` names the per-node admission controller when the
    run used one ("" for the shed-only baseline, which keeps the
    merged schema byte-identical to the historical output)."""
    outcomes = sorted(outcomes, key=lambda o: o.index)

    # Union of per-job sojourns, shifted to original-arrival time base.
    sojourns: dict[str, list[float]] = {t.name: [] for t in tenants}
    for outcome in outcomes:
        for job_id, (tenant, sojourn) in outcome.sojourns.items():
            sojourns[tenant].append(sojourn + stats.delays.get(job_id, 0.0))

    tenant_reports: dict[str, TenantReport] = {}
    for tenant in tenants:
        name = tenant.name
        offered = admitted = queue_full = unplaced = predicted = 0
        for outcome in outcomes:
            node_stats = outcome.tenant_stats.get(name, {})
            offered += node_stats.get("offered", 0)
            admitted += node_stats.get("admitted", 0)
            queue_full += node_stats.get("shed_queue_full", 0)
            unplaced += node_stats.get("shed_unplaced", 0)
            predicted += node_stats.get("shed_predicted", 0)
        lost = stats.lost_no_node.get(name, 0)
        tenant_reports[name] = tenant_report(
            name,
            sojourns[name],
            slo_s,
            offered=offered + lost,
            admitted=admitted,
            shed_queue_full=queue_full,
            shed_unplaced=unplaced + lost,
            shed_predicted=predicted,
        )

    makespan = max((o.makespan for o in outcomes), default=0.0)

    # Fleet utilisation: per-node busy time (utilisation x node
    # makespan) summed, over nodes x cluster makespan.  A single node
    # reuses its own fractions directly -- (frac * m) / m is not an
    # identity in floating point, and the 1-node cluster must stay
    # byte-identical to the plain serving path.
    utilisation: dict[str, float] = {}
    if len(outcomes) == 1:
        utilisation = dict(outcomes[0].report.utilisation)
    elif makespan > 0:
        for outcome in outcomes:
            for device, frac in outcome.report.utilisation.items():
                utilisation[device] = utilisation.get(device, 0.0) + (
                    frac * outcome.makespan
                )
        total = len(spec.nodes) * makespan
        utilisation = {dev: busy / total for dev, busy in utilisation.items()}

    nodes: dict[str, dict] = {}
    for outcome in outcomes:
        report = outcome.report
        nodes[outcome.name] = {
            "placed": stats.placed.get(outcome.name, 0),
            "offered": report.offered,
            "completed": report.completed,
            "shed": report.shed,
            "failed": len(outcome.failed_jobs),
            "makespan": outcome.makespan,
            "slo_attainment": report.slo_attainment,
            "utilisation": dict(sorted(report.utilisation.items())),
        }

    return ServingReport(
        scheduler=scheduler,
        makespan=makespan,
        slo_s=slo_s,
        tenants=tenant_reports,
        utilisation=utilisation,
        nodes=nodes,
        admission=admission,
    )
