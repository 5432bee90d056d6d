"""Cluster-level placement: the top half of the two-level scheduler.

Per-node scheduling is already solved -- each node runs one of the
existing :class:`~repro.core.scheduler.base.DispatchPolicy` families,
fed through its ``admit``/``device_lost`` hooks by the node's serving
loop.  What a cluster adds is the *upper* decision: **which node gets
each arriving job**.  A :class:`PlacementPolicy` makes that call per
arrival, in arrival order, using only information available at the
arrival's timestamp (estimated backlogs, tenant homes, node liveness)
-- never the future of the stream and never the inner simulation
state.  That causality restriction is what keeps the per-node
simulations independent, and therefore shardable across processes
with a deterministic merge (see ``cluster/runtime.py``).

Four policies, mirroring the placement framings of "Efficient
Deployment of CNN Models on Multiple In-Memory Computing Units"
(PAPERS.md):

* :class:`LeastLoadedPlacement` -- fluid backlog model: each node
  drains estimated work at its **capacity-normalised** rate (a
  heterogeneous fleet's big nodes drain faster); an arrival goes to
  the node with the smallest expected wait and deposits its own
  predicted service time there.
* :class:`FeedbackPlacement` -- the fluid model, *biased by measured
  outcomes*: between replay windows it reads each node's prior-window
  :class:`~repro.serving.report.ServingReport` section (SLO
  attainment, shed rate, utilisation) and re-weights nodes, steering
  work away from nodes that underperformed for reasons the fluid
  model cannot see (derated devices, contended links, fault plans).
* :class:`HashPlacement` -- locality-aware: a tenant's jobs hash to a
  stable **home node** (CRC32, never Python's salted ``hash``), so
  its resident state is filled once and handoff/replication costs
  vanish; dead homes rehash deterministically.
* :class:`RoundRobinPlacement` -- the oblivious baseline.

All are deterministic: same arrival stream, same assignment.
"""

from __future__ import annotations

import abc
import zlib
from collections.abc import Mapping, Sequence

from ..core.job import Job
from ..core.scheduler.base import MLIMPSystem
from ..sim.events import JobArrival

__all__ = [
    "PlacementPolicy",
    "LeastLoadedPlacement",
    "FeedbackPlacement",
    "HashPlacement",
    "RoundRobinPlacement",
    "PLACEMENTS",
    "home_node",
    "resolve_home",
    "estimate_service_time",
    "node_capacity",
    "job_fill_bytes",
]


def home_node(tenant: str, n_nodes: int, salt: int = 0) -> int:
    """Stable home of ``tenant`` among ``n_nodes`` (CRC32, so it is
    identical across processes and interpreter runs)."""
    key = tenant if salt == 0 else f"{tenant}#{salt}"
    return zlib.crc32(key.encode()) % n_nodes


def resolve_home(tenant: str, n_nodes: int, alive: set[int]) -> int | None:
    """The tenant's *effective* home among the live nodes: the first
    salted rehash (salt 0 first) that lands on a member of ``alive``.

    This is the exact search :class:`HashPlacement` runs, exposed so
    the runtime's handoff accounting agrees with it -- a tenant whose
    home node died rehashes to a stable new home and must not be
    charged a handoff for landing there (node failures are permanent,
    so the resolution is stable for the rest of the run).  If no salt
    in ``0..n_nodes`` hits a live node, the lowest live index is the
    home (the policy's fallback); ``None`` only when nothing is
    alive.
    """
    if not alive:
        return None
    for salt in range(n_nodes + 1):
        node = home_node(tenant, n_nodes, salt)
        if node in alive:
            return node
    return min(alive)


def estimate_service_time(job: Job) -> float:
    """Cheap service-time proxy for load bookkeeping: the best
    unit-allocation total time across the job's memory profiles."""
    return min(
        profile.total_time(profile.unit_arrays) for profile in job.profiles.values()
    )


def node_capacity(system: MLIMPSystem) -> float:
    """Relative throughput proxy of one node: total ALU-cycles per
    second over its device set.  Only ratios between nodes matter --
    placement normalises by the fleet maximum -- so any consistent
    linear-in-arrays measure works; this one tracks
    :func:`~repro.serving.autoscale.scale_system` exactly (scale 2
    doubles it)."""
    return sum(
        spec.total_alus * spec.clock_mhz for spec in system.specs.values()
    )


def job_fill_bytes(job: Job) -> float:
    """Input bytes a cross-node handoff must move: the largest
    per-layer fill (profiles of one job share their input)."""
    return max(profile.fill_bytes for profile in job.profiles.values())


class PlacementPolicy(abc.ABC):
    """Chooses the node for each arrival, one arrival at a time."""

    name: str = "placement"

    def reset(
        self, n_nodes: int, capacities: Sequence[float] | None = None
    ) -> None:
        """Start a new placement pass over ``n_nodes`` nodes.

        ``capacities`` are per-node throughput proxies
        (:func:`node_capacity`); they are normalised to the fleet
        maximum, so a homogeneous fleet sees exactly ``1.0``
        everywhere and behaves byte-identically to the
        capacity-blind model.
        """
        self.n_nodes = n_nodes
        if capacities is None:
            self.capacities = [1.0] * n_nodes
        else:
            if len(capacities) != n_nodes:
                raise ValueError(
                    f"need one capacity per node, got {len(capacities)} "
                    f"for {n_nodes} nodes"
                )
            peak = max(capacities)
            if peak <= 0:
                raise ValueError("node capacities must be positive")
            self.capacities = [c / peak for c in capacities]

    @abc.abstractmethod
    def choose(
        self, arrival: JobArrival, candidates: list[int], est_service_s: float
    ) -> int:
        """Pick one of ``candidates`` (alive node indices, ascending)
        for this arrival.  ``est_service_s`` is the job's estimated
        service time, for load bookkeeping."""


class LeastLoadedPlacement(PlacementPolicy):
    """Send each arrival to the node with the least expected wait.

    The backlog is a fluid approximation: every node drains estimated
    work at its capacity-normalised rate (one second of work per
    second of simulated time on the biggest node; proportionally
    slower on smaller ones), and each placed job deposits its
    estimated service time.  The arrival goes to the node whose
    backlog *divided by its drain rate* -- the expected wait -- is
    smallest; ties break on the lowest node index, so placement is
    deterministic.  On a homogeneous fleet every rate is exactly 1.0
    and the model degenerates to the original capacity-blind argmin.
    """

    name = "least-loaded"

    def reset(
        self, n_nodes: int, capacities: Sequence[float] | None = None
    ) -> None:
        super().reset(n_nodes, capacities)
        self._backlog = [0.0] * n_nodes
        self._clock = 0.0

    def _load(self, i: int) -> float:
        """Expected wait at node ``i``: backlog over drain rate."""
        return self._backlog[i] / self.capacities[i]

    def choose(
        self, arrival: JobArrival, candidates: list[int], est_service_s: float
    ) -> int:
        elapsed = arrival.time - self._clock
        if elapsed > 0:
            self._backlog = [
                max(0.0, b - elapsed * c)
                for b, c in zip(self._backlog, self.capacities)
            ]
            self._clock = arrival.time
        chosen = min(candidates, key=lambda i: (self._load(i), i))
        self._backlog[chosen] += est_service_s
        return chosen


#: The range :class:`FeedbackPlacement` clamps each node weight to.
MIN_WEIGHT = 0.25
MAX_WEIGHT = 4.0


class FeedbackPlacement(LeastLoadedPlacement):
    """Least-loaded fluid core, re-weighted by measured outcomes.

    The fluid model sees only what placement deposits; it is blind to
    everything that happens *inside* a node -- derated devices, fault
    plans, admission sheds, contended ingress links.  This policy
    closes that loop: :meth:`observe_reports` reads each node's
    prior-window report section (the ``nodes`` entries a cluster
    :class:`~repro.serving.report.ServingReport` carries) and nudges a
    per-node weight -- nodes that beat the fleet's mean outcome score
    attract more work, laggards shed it.  Weights multiply the node's
    effective drain rate, persist across :meth:`reset` (so one policy
    instance learns across replay windows), and are plain floats, so
    a replay checkpoint captures them exactly.

    A fresh policy (all weights 1.0) is byte-identical to
    :class:`LeastLoadedPlacement` -- feedback only ever moves it away
    from that baseline when a window measured a difference.
    """

    name = "feedback"

    def __init__(
        self, weights: Sequence[float] | None = None, gain: float = 0.5
    ) -> None:
        if gain < 0:
            raise ValueError(f"gain must be non-negative, got {gain}")
        self.gain = gain
        self._weights = [float(w) for w in weights] if weights else None

    def reset(
        self, n_nodes: int, capacities: Sequence[float] | None = None
    ) -> None:
        super().reset(n_nodes, capacities)
        if self._weights is None or len(self._weights) != n_nodes:
            self._weights = [1.0] * n_nodes

    @property
    def weights(self) -> list[float]:
        """Current per-node bias weights (checkpointable plain data)."""
        return list(self._weights or [])

    def _load(self, i: int) -> float:
        return self._backlog[i] / (self.capacities[i] * self._weights[i])

    @staticmethod
    def _score(section: Mapping) -> float | None:
        """One node's window outcome in [0, 1]: attainment damped by
        shed rate and (mildly) by saturation."""
        offered = section.get("offered", 0)
        if not offered:
            return None
        attainment = float(section.get("slo_attainment", 1.0))
        shed_rate = section.get("shed", 0) / offered
        busiest = max(section.get("utilisation", {}).values(), default=0.0)
        return attainment * (1.0 - shed_rate) * (1.0 - 0.1 * busiest)

    def observe_reports(self, sections: Sequence[Mapping]) -> None:
        """Feed one finished window's per-node report sections, in
        node order (empty dicts for nodes the window never saw)."""
        if self._weights is None or len(sections) != len(self._weights):
            raise ValueError(
                "observe_reports needs one section per node "
                "(reset the policy first)"
            )
        scores = [self._score(section) for section in sections]
        known = [s for s in scores if s is not None]
        if not known:
            return
        mean = sum(known) / len(known)
        for i, score in enumerate(scores):
            if score is None:
                continue
            biased = self._weights[i] * (1.0 + self.gain * (score - mean))
            self._weights[i] = min(MAX_WEIGHT, max(MIN_WEIGHT, biased))


class HashPlacement(PlacementPolicy):
    """Locality-aware: every tenant sticks to its hash-derived home.

    Jobs of one tenant always land on one node, so the tenant's
    resident state is replicated nowhere and handoff costs are zero
    -- at the price of ignoring load skew.  If the home node is dead,
    the tenant rehashes with an increasing salt until a live node is
    found (deterministic, and stable for the rest of the run since
    node failures are permanent).
    """

    name = "hash"

    def choose(
        self, arrival: JobArrival, candidates: list[int], est_service_s: float
    ) -> int:
        node = resolve_home(arrival.tenant, self.n_nodes, set(candidates))
        if node is not None:
            return node
        return candidates[0]  # pragma: no cover - candidates is non-empty


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through live nodes in arrival order (oblivious baseline)."""

    name = "round-robin"

    def reset(
        self, n_nodes: int, capacities: Sequence[float] | None = None
    ) -> None:
        super().reset(n_nodes, capacities)
        self._next = 0

    def choose(
        self, arrival: JobArrival, candidates: list[int], est_service_s: float
    ) -> int:
        chosen = candidates[self._next % len(candidates)]
        self._next += 1
        return chosen


#: Placement registry (the CLI's ``--placement`` namespace).
PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    LeastLoadedPlacement.name: LeastLoadedPlacement,
    FeedbackPlacement.name: FeedbackPlacement,
    HashPlacement.name: HashPlacement,
    RoundRobinPlacement.name: RoundRobinPlacement,
}
