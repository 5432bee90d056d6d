"""Multi-tenant admission control for open-system serving.

The :class:`OpenLoop` sits between the arrival stream and the
scheduler's :meth:`~repro.core.scheduler.base.DispatchPolicy.admit`
hook.  Each tenant owns a **bounded FIFO queue** (admission control:
an arrival against a full queue is shed, counted, and never enters
the system), and queued jobs are released to the policy by **stride
scheduling** over the tenant weights -- a tenant with weight 2 gets
twice the admissions of a weight-1 tenant under contention, while
idle tenants cost nothing.

Backpressure is two-level:

* ``queue_limit`` bounds each tenant's waiting line (shed on
  overflow, ``serving.shed.queue_full``), and
* ``max_backlog`` bounds how many released-but-undispatched jobs the
  policy may hold, so a slow scheduler never absorbs the whole
  arrival stream into its internal queues.

Jobs the policy itself cannot place (e.g. every fitting device died)
come back through :meth:`on_rejected` and are counted as
``serving.shed.unplaced``.

An optional :class:`~repro.serving.admission.AdmissionController`
adds a third, *predictive* gate ahead of the queues: arrivals whose
predicted sojourn misses the run's SLO are rejected at the door
and counted as ``serving.shed.predicted``.  Without a controller the
loop takes exactly the historical code path.

The loop is **inert when empty**: with no arrivals it schedules no
simulation events and creates no metric series, which is what makes a
zero-rate serve run byte-identical to the closed-batch path (see
``tests/test_serving.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.job import Job
from ..obs.metrics import MetricsRegistry
from ..sim.events import JobArrival

__all__ = ["Tenant", "OpenLoop"]


@dataclass(frozen=True)
class Tenant:
    """One traffic class: a name, a share weight, a queue bound."""

    name: str
    weight: float = 1.0
    queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name}: weight must be positive")
        if self.queue_limit < 1:
            raise ValueError(f"tenant {self.name}: queue_limit must be >= 1")


@dataclass
class _TenantState:
    tenant: Tenant
    queue: deque = field(default_factory=deque)
    #: Stride-scheduling virtual time; the lowest pass goes next.
    pass_value: float = 0.0
    offered: int = 0
    admitted: int = 0
    shed_queue_full: int = 0
    shed_unplaced: int = 0
    shed_predicted: int = 0


class OpenLoop:
    """Arrival intake, tenant queues, and weighted release.

    The dispatcher drives it: ``on_arrival`` at each
    :class:`~repro.sim.events.JobArrival` event, then ``release`` at
    the top of every pump (the returned jobs are offered to
    ``policy.admit``), then ``on_rejected`` with whatever the policy
    could not place.
    """

    def __init__(
        self,
        arrivals: list[JobArrival],
        tenants: list[Tenant],
        max_backlog: int = 32,
        admission=None,
    ) -> None:
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 (or nothing ever releases)")
        self.arrivals = sorted(arrivals, key=lambda a: (a.time, a.seq))
        self.max_backlog = max_backlog
        #: Optional predictive gate (AdmissionController); ``None``
        #: keeps the historical two-level backpressure path untouched.
        self.admission = admission
        self._tenants: dict[str, _TenantState] = {
            t.name: _TenantState(tenant=t) for t in tenants
        }
        if len(self._tenants) != len(tenants):
            raise ValueError("tenant names must be unique")
        for arrival in self.arrivals:
            if arrival.tenant not in self._tenants:
                raise ValueError(
                    f"arrival {arrival.seq} names unknown tenant "
                    f"{arrival.tenant!r}; known: {sorted(self._tenants)}"
                )
            if arrival.job is None:
                raise ValueError(f"arrival {arrival.seq} carries no job")
        #: job_id -> original arrival time (sojourn = finish - this).
        self.arrival_times: dict[str, float] = {}
        #: job_id -> tenant name, for attribution after release.
        self.job_tenants: dict[str, str] = {}
        self._metrics: MetricsRegistry | None = None

    # ------------------------------------------------------------------
    def bind(self, metrics: MetricsRegistry) -> None:
        """Attach the run's metrics registry (counters stay lazy: a
        loop that never sees an arrival creates no series)."""
        self._metrics = metrics

    def _count(self, name: str, tenant: str) -> None:
        if self._metrics is None:
            return
        self._metrics.counter(name).inc()
        self._metrics.counter(f"{name}.{tenant}").inc()

    # ------------------------------------------------------------------
    @property
    def tenants(self) -> list[Tenant]:
        return [state.tenant for state in self._tenants.values()]

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Per-tenant intake counters (the serve report's backbone)."""
        return {
            name: {
                "offered": state.offered,
                "admitted": state.admitted,
                "shed_queue_full": state.shed_queue_full,
                "shed_unplaced": state.shed_unplaced,
                "shed_predicted": state.shed_predicted,
                "queued": len(state.queue),
            }
            for name, state in sorted(self._tenants.items())
        }

    # ------------------------------------------------------------------
    def on_arrival(self, arrival: JobArrival, now: float) -> None:
        """Admission control: enqueue, or shed against a full queue.

        With a predictive controller attached, an arrival that passes
        the (cheap) queue-limit check is additionally judged on its
        predicted sojourn and shed as ``serving.shed.predicted`` on a
        forecast miss -- before any admitted-work bookkeeping."""
        state = self._tenants[arrival.tenant]
        state.offered += 1
        self._count("serving.offered", arrival.tenant)
        if len(state.queue) >= state.tenant.queue_limit:
            state.shed_queue_full += 1
            self._count("serving.shed.queue_full", arrival.tenant)
            return
        if self.admission is not None and not self.admission.decide(
            arrival.job, state.tenant, now
        ):
            state.shed_predicted += 1
            self._count("serving.shed.predicted", arrival.tenant)
            return
        state.queue.append(arrival)

    def release(self, now: float, policy_backlog: int) -> list[Job]:
        """Weighted-fair drain of the tenant queues, bounded by the
        policy backlog cap.  Pure bookkeeping: calling it with empty
        queues returns ``[]`` and touches nothing."""
        released: list[Job] = []
        while policy_backlog + len(released) < self.max_backlog:
            candidates = [
                (state.pass_value, name, state)
                for name, state in self._tenants.items()
                if state.queue
            ]
            if not candidates:
                break
            _, _, state = min(candidates)  # lowest pass, name tie-break
            state.pass_value += 1.0 / state.tenant.weight
            arrival = state.queue.popleft()
            state.admitted += 1
            self._count("serving.admitted", arrival.tenant)
            self.arrival_times[arrival.job.job_id] = arrival.time
            self.job_tenants[arrival.job.job_id] = arrival.tenant
            released.append(arrival.job)
        return released

    def on_rejected(self, jobs: list[Job], now: float) -> None:
        """The policy could not place these released jobs: shed."""
        for job in jobs:
            tenant = self.job_tenants.get(job.job_id, "")
            state = self._tenants.get(tenant)
            if state is None:  # pragma: no cover - defensive
                continue
            state.shed_unplaced += 1
            self._count("serving.shed.unplaced", tenant)
            self.arrival_times.pop(job.job_id, None)
            if self.admission is not None:
                self.admission.release(job.job_id)

    def on_finished(self, job_id: str) -> None:
        """Dispatcher hook for any job leaving the system -- completed
        or failed.  Pure admission bookkeeping: without a controller
        this is a no-op, so the historical paths stay byte-identical."""
        if self.admission is not None:
            self.admission.release(job_id)
