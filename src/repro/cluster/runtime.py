"""ClusterRuntime: two-level scheduling over sharded node simulations.

One cluster run is three passes:

1. **Placement** (cluster level, causal): the arrival timeline is
   generated once for the whole fleet, then walked in arrival order.
   A :class:`~repro.cluster.placement.PlacementPolicy` assigns each
   arrival to a live node using only information available at that
   timestamp; jobs placed away from their tenant's *effective* CRC32
   home node (the salted rehash over live nodes, so a tenant whose
   home died is not charged forever) pay the interconnect handoff
   (and, on a tenant's first landing on a foreign node, a replicated
   fill), which *delays their node-local arrival time*.  Dead nodes
   (``NodeFault``) stop being candidates.  Under
   ``contention="shared"`` every transfer additionally runs through
   :class:`_SharedLinks` -- a deterministic fluid queue per directed
   link, walked in the same arrival order, so concurrent transfers
   serialise and pick up queueing delay.  A job whose *delayed*
   landing time falls after its node's fault is **migrated**: pass 1
   re-places it among the nodes still alive at the landing time,
   paying a fresh handoff on the (dead node, new node) link, instead
   of delivering it into the dead node's failure path.
2. **Node simulation** (per node, independent): each node replays its
   slice of the timeline through an ordinary
   :class:`~repro.serving.runtime.ServingRuntime` -- same scheduler
   stack, same ``admit``/``device_lost`` hooks, same fault machinery
   (node losses are compiled onto the node's
   :class:`~repro.faults.plan.FaultPlan`).  Because placement never
   looks inside a node, the per-node simulations share nothing and
   run **embarrassingly parallel**: ``shards > 1`` fans them out over
   a ``ProcessPoolExecutor`` (the ``run_experiment_grid`` pattern,
   turned inward on a single run).
3. **Merge** (deterministic): node outcomes are plain data, combined
   in node order into one cluster-level
   :class:`~repro.serving.report.ServingReport` regardless of how
   many processes produced them -- the same inputs give
   byte-identical cluster output for any shard count.

A 1-node cluster degenerates exactly to the single-node serving path:
every tenant's home is node 0, no handoff delay is ever added, and
the node replays the unmodified timeline -- traces, reports and
export payloads are byte-identical to ``ServingRuntime.serve`` on the
same system (see ``tests/test_cluster_serving.py``).  Nodes ship back
:func:`~repro.obs.export.result_summary` payloads: the trace and
decision rows stay in the worker as row counts and sha256 digests, so
the byte-identity check still covers every row.
"""

from __future__ import annotations

import dataclasses
import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..core.runtime import make_scheduler
from ..faults.plan import FaultPlan
from ..obs.export import result_summary
from ..serving.arrivals import ArrivalProcess, TimelineArrivals
from ..serving.report import ServingReport, completed_sojourns
from ..serving.runtime import DEFAULT_SLO_S, ServingRuntime
from ..serving.tenants import Tenant
from ..serving.workload import OpenWorkload
from ..sim.events import JobArrival
from .placement import (
    PLACEMENTS,
    PlacementPolicy,
    estimate_service_time,
    home_node,
    job_fill_bytes,
    node_capacity,
    resolve_home,
)
from .report import ClusterStats, NodeOutcome, build_cluster_report
from .spec import ClusterSpec, InterconnectSpec, NodeFault, NodeSpec, node_fail_events

__all__ = ["ClusterResult", "ClusterRuntime"]


class _SharedLinks:
    """Deterministic fluid queue over the interconnect's directed links.

    Each (source, destination) node pair is one link.  Transfers are
    issued in fleet arrival order (pass 1's walk), and a transfer
    holds its link from the moment it starts until delivery completes
    (``latency + bytes/bandwidth`` -- store-and-forward, the Tesseract
    framing of explicit inter-node cost).  A transfer issued while its
    link is held *queues*: it begins at the link's release time, never
    earlier.  Because ``begin = max(start, busy_until)`` and IEEE
    addition is monotone in its left operand, a transfer's completion
    under contention is **never earlier** than the uncontended
    ``start + transfer_time(bytes)`` -- contention can only add delay
    (see ``tests/test_cluster_contention.py``).

    Also tracks the accounting the contention report wants: every
    transfer's queueing delay, and the peak total bytes simultaneously
    in flight across all links (a min-heap of completion times drains
    delivered transfers as later ones are issued).
    """

    def __init__(self, interconnect: InterconnectSpec) -> None:
        self.interconnect = interconnect
        self._busy_until: dict[tuple[int, int], float] = {}
        self._inflight: list[tuple[float, float]] = []
        self._inflight_bytes = 0.0
        #: Per-transfer wait behind earlier transfers (0.0 when clear).
        self.queue_delays: list[float] = []
        self.peak_inflight_bytes = 0.0

    def ship(self, src: int, dst: int, nbytes: float, start: float) -> float:
        """Issue one transfer; returns its delivery completion time."""
        link = (src, dst)
        busy = self._busy_until.get(link, 0.0)
        begin = busy if busy > start else start
        self.queue_delays.append(begin - start)
        complete = begin + self.interconnect.transfer_time(nbytes)
        self._busy_until[link] = complete
        while self._inflight and self._inflight[0][0] <= begin:
            _, delivered = heapq.heappop(self._inflight)
            self._inflight_bytes -= delivered
        heapq.heappush(self._inflight, (complete, nbytes))
        self._inflight_bytes += nbytes
        if self._inflight_bytes > self.peak_inflight_bytes:
            self.peak_inflight_bytes = self._inflight_bytes
        return complete


@dataclass(frozen=True)
class _NodeTask:
    """One node's complete, self-contained simulation order.

    Frozen plain data so it pickles across the process pool; the
    worker rebuilds the ServingRuntime from it on the far side.
    """

    index: int
    name: str
    node: NodeSpec
    scheduler: str
    max_backlog: int
    arrivals: tuple[JobArrival, ...]
    tenants: tuple[Tenant, ...]
    slo_s: float
    faults: FaultPlan | None
    label: str
    #: Admission mode string ("shed"/"predictive") -- a string, not a
    #: controller, so the task stays picklable; each node builds its
    #: own controller over its local system and predictor.
    admission: str = "shed"
    admission_margin: float = 1.0


def _run_node_task(task: _NodeTask) -> NodeOutcome:
    """Run one node's serving simulation (module-level for pickling).

    Pure function of the task: in-process and pooled execution return
    identical outcomes.  The outcome carries the node's
    :func:`~repro.obs.export.result_summary`: the trace and decision
    rows stay in the worker, and only their counts and digests cross
    the process boundary.
    """
    runtime = ServingRuntime(
        task.node.system,
        scheduler=task.scheduler,
        max_backlog=task.max_backlog,
    )
    serving = runtime.serve(
        TimelineArrivals(arrivals=task.arrivals),
        tenants=list(task.tenants),
        slo_s=task.slo_s,
        label=task.label,
        faults=task.faults,
        admission=task.admission,
        admission_margin=task.admission_margin,
    )
    return NodeOutcome(
        index=task.index,
        name=task.name,
        report=serving.report,
        payload=result_summary(serving.result),
        tenant_stats=serving.open_loop.tenant_stats(),
        sojourns=completed_sojourns(serving.result, serving.open_loop),
        makespan=serving.result.makespan,
        failed_jobs=dict(serving.result.failed_jobs),
    )


@dataclass
class ClusterResult:
    """One cluster run: merged report, per-node artefacts, accounting."""

    spec: ClusterSpec
    report: ServingReport
    #: node name -> that node's own ServingReport.
    node_reports: dict[str, ServingReport]
    #: node name -> ``result_summary`` of the node's dispatch run: the
    #: ``result_payload`` fields with the trace and decision rows
    #: replaced by their counts and sha256 digests.
    node_payloads: dict[str, dict]
    stats: ClusterStats

    @property
    def makespan(self) -> float:
        return self.report.makespan

    @property
    def completed(self) -> int:
        return self.report.completed

    @property
    def completed_per_sec(self) -> float:
        """Cluster throughput in completed jobs per simulated second."""
        return self.completed / self.makespan if self.makespan > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready summary (the per-node summaries in
        ``node_payloads`` stay out)."""
        return {
            "n_nodes": len(self.spec),
            "report": self.report.as_dict(),
            "cluster": self.stats.as_dict(),
            "completed_per_sec": self.completed_per_sec,
        }


@dataclass
class ClusterRuntime:
    """Open-system serving across a fleet of MLIMP nodes."""

    cluster: ClusterSpec
    scheduler: str = "adaptive"
    placement: str | PlacementPolicy = "least-loaded"
    max_backlog: int = 32

    def __post_init__(self) -> None:
        make_scheduler(self.scheduler)  # an unknown name fails here
        if (
            isinstance(self.placement, str)
            and self.placement not in PLACEMENTS
        ):
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"choose from {sorted(PLACEMENTS)}"
            )

    def _make_placement(self) -> PlacementPolicy:
        if isinstance(self.placement, PlacementPolicy):
            return self.placement
        return PLACEMENTS[self.placement]()

    # ------------------------------------------------------------------
    def _node_plans(
        self, faults, node_faults: tuple[NodeFault, ...]
    ) -> dict[int, FaultPlan]:
        """Per-node fault plans: device plans merged with compiled
        node losses.  A node with neither gets no plan at all, so its
        run takes the exact fault-free code path."""
        plans: dict[int, FaultPlan] = {}
        for fault in node_faults:
            self.cluster.index_of(fault.node)  # KeyError on unknown
        for i, node in enumerate(self.cluster.nodes):
            if isinstance(faults, FaultPlan):
                base = faults
            elif faults:
                base = faults.get(node.name)
            else:
                base = None
            fail_events = tuple(
                event
                for fault in node_faults
                if fault.node == node.name
                for event in node_fail_events(node, fault)
            )
            if fail_events:
                plans[i] = (
                    dataclasses.replace(
                        base, events=base.events + fail_events
                    )
                    if base
                    else FaultPlan(events=fail_events)
                )
            elif base:
                plans[i] = base
        return plans

    def serve(
        self,
        arrivals: ArrivalProcess,
        tenants: list[Tenant],
        slo_s: float = DEFAULT_SLO_S,
        faults: FaultPlan | dict[str, FaultPlan] | None = None,
        node_faults: tuple[NodeFault, ...] = (),
        workload: OpenWorkload | None = None,
        shards: int | None = None,
        label: str = "",
        admission: str = "shed",
        admission_margin: float = 1.0,
    ) -> ClusterResult:
        """Place the arrival stream, simulate every node, merge.

        ``faults`` is either one :class:`FaultPlan` applied to every
        node or a ``{node name: plan}`` mapping; ``node_faults`` lose
        whole nodes and compose with both.  ``shards`` > 1 runs the
        node simulations in that many worker processes (capped at the
        node count); the merged output is byte-identical either way.

        ``admission`` is the per-node passthrough of the serving
        layer's predictive gate: each node builds its own controller
        over its local system, so admission decisions ride on the
        node's view of outstanding work (placement stays above and
        unchanged).  The default ``"shed"`` keeps every node on the
        historical code path.
        """
        spec = self.cluster
        n = len(spec)
        interconnect = spec.interconnect
        fail_time = [float("inf")] * n
        for fault in node_faults:
            i = spec.index_of(fault.node)
            fail_time[i] = min(fail_time[i], fault.time)

        maker = workload or OpenWorkload(spec.nodes[0].system)
        timeline = arrivals.generate(maker.make_job)

        # Pass 1: causal placement over the fleet-wide timeline.
        policy = self._make_placement()
        policy.reset(n, [node_capacity(node.system) for node in spec.nodes])
        shared = interconnect.contention == "shared"
        links = _SharedLinks(interconnect) if shared else None
        stats = ClusterStats(
            placement=policy.name,
            placed={node.name: 0 for node in spec.nodes},
            contention=interconnect.contention,
        )
        per_node: list[list[JobArrival]] = [[] for _ in range(n)]
        replicated: set[tuple[str, int]] = set()
        for arrival in timeline:
            candidates = [i for i in range(n) if arrival.time < fail_time[i]]
            if not candidates:
                stats.lost_no_node[arrival.tenant] = (
                    stats.lost_no_node.get(arrival.tenant, 0) + 1
                )
                continue
            est = estimate_service_time(arrival.job)
            chosen = policy.choose(arrival, candidates, est)
            # The tenant's *effective* home is the salted rehash over
            # the live nodes -- the exact node HashPlacement resolves
            # to -- so a tenant whose home died pays for the one move
            # to its new stable home, not forever after.
            home = resolve_home(arrival.tenant, n, set(candidates))
            if home is None:  # pragma: no cover - salts cover all nodes
                home = home_node(arrival.tenant, n)
            delay = 0.0
            if chosen != home:
                # Handoff: the job's input crosses the interconnect...
                nbytes = job_fill_bytes(arrival.job)
                stats.handoffs += 1
                stats.handoff_bytes += nbytes
                # ...and the tenant's first landing on this foreign
                # node drags its replicated resident state along.
                first = (arrival.tenant, chosen) not in replicated
                if first:
                    replicated.add((arrival.tenant, chosen))
                    rbytes = interconnect.replica_bytes(nbytes)
                    stats.replicas += 1
                    stats.replica_bytes += rbytes
                if links is not None:
                    complete = links.ship(home, chosen, nbytes, arrival.time)
                    if first:
                        complete = links.ship(home, chosen, rbytes, complete)
                    delay = complete - arrival.time
                else:
                    # contention="none": keep the exact historical
                    # accumulation (FP addition is non-associative;
                    # pinned outputs must stay byte-identical).
                    delay += interconnect.transfer_time(nbytes)
                    if first:
                        delay += interconnect.transfer_time(rbytes)
            # Migration: if the interconnect delay lands the job after
            # its node's fault, it must not be delivered to a dead
            # node -- re-place among nodes alive at the landing time,
            # shipping the input off the dying node.
            t_land = arrival.time + delay
            lost = False
            tried: set[int] = set()
            while t_land >= fail_time[chosen]:
                tried.add(chosen)
                later = [
                    i
                    for i in range(n)
                    if i not in tried and t_land < fail_time[i]
                ]
                if not later:
                    stats.lost_no_node[arrival.tenant] = (
                        stats.lost_no_node.get(arrival.tenant, 0) + 1
                    )
                    lost = True
                    break
                target = policy.choose(
                    dataclasses.replace(arrival, time=t_land), later, est
                )
                nbytes = job_fill_bytes(arrival.job)
                stats.migrations += 1
                stats.migration_bytes += nbytes
                if links is not None:
                    complete = links.ship(chosen, target, nbytes, t_land)
                else:
                    complete = t_land + interconnect.transfer_time(nbytes)
                if target != home and (arrival.tenant, target) not in replicated:
                    replicated.add((arrival.tenant, target))
                    rbytes = interconnect.replica_bytes(nbytes)
                    stats.replicas += 1
                    stats.replica_bytes += rbytes
                    if links is not None:
                        complete = links.ship(chosen, target, rbytes, complete)
                    else:
                        complete += interconnect.transfer_time(rbytes)
                t_land = complete
                delay = t_land - arrival.time
                chosen = target
            if lost:
                continue
            stats.placed[spec.nodes[chosen].name] += 1
            if delay > 0:
                stats.delays[arrival.job.job_id] = delay
                arrival = dataclasses.replace(
                    arrival, time=arrival.time + delay
                )
            per_node[chosen].append(arrival)
        if links is not None:
            stats.queue_delays = links.queue_delays
            stats.peak_inflight_bytes = links.peak_inflight_bytes

        # Pass 2: independent node simulations, optionally sharded.
        plans = self._node_plans(faults, tuple(node_faults))
        tasks = [
            _NodeTask(
                index=i,
                name=spec.nodes[i].name,
                node=spec.nodes[i],
                scheduler=self.scheduler,
                max_backlog=self.max_backlog,
                arrivals=tuple(per_node[i]),
                tenants=tuple(tenants),
                slo_s=slo_s,
                faults=plans.get(i),
                label=label,
                admission=admission,
                admission_margin=admission_margin,
            )
            for i in range(n)
        ]
        if shards is None or shards <= 1 or n == 1:
            outcomes = [_run_node_task(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=min(shards, n)) as pool:
                outcomes = list(pool.map(_run_node_task, tasks))

        # Pass 3: deterministic merge, node order.
        report = build_cluster_report(
            spec,
            scheduler=label or self.scheduler,
            slo_s=slo_s,
            tenants=list(tenants),
            outcomes=outcomes,
            stats=stats,
            admission="" if admission in ("", "shed") else admission,
        )
        outcomes = sorted(outcomes, key=lambda o: o.index)
        return ClusterResult(
            spec=spec,
            report=report,
            node_reports={o.name: o.report for o in outcomes},
            node_payloads={o.name: o.payload for o in outcomes},
            stats=stats,
        )
