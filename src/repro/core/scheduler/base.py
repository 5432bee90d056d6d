"""Scheduler framework: system description, dispatch policies.

Scheduling in MLIMP is a Resource-Constrained Project Scheduling
Problem (paper III-C1): for every job the scheduler picks a *memory
type*, an *allocation size*, and an *execution order*.  Each concrete
scheduler plans a batch of jobs and returns a
:class:`DispatchPolicy` -- a small object the event-driven dispatcher
consults at time zero and after every job completion to learn what to
launch next.  This uniform shape covers the naive single-queue LJF
baseline, the adaptive multi-queue scheduler, and the global scheduler
that fixes the complete plan in advance.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field

from ...memories.base import MemoryKind, MemorySpec
from ..job import Job

__all__ = [
    "DISPATCH_OVERHEAD_S",
    "MLIMPSystem",
    "Dispatch",
    "ResourceView",
    "DispatchPolicy",
    "Scheduler",
]

#: Runtime cost of launching one in-memory job (scheduler decision +
#: firmware kernel launch; "similar to the kernel launch for CUDA
#: runtime", paper III-A).  The dispatcher charges it and every
#: planner (static schedule, exact solver, oracle bound) plans with it.
DISPATCH_OVERHEAD_S = 2e-6


@dataclass(frozen=True)
class MLIMPSystem:
    """The set of in-memory devices available to the scheduler."""

    specs: dict[MemoryKind, MemorySpec]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("system needs at least one memory device")
        for kind, spec in self.specs.items():
            if spec.kind is not kind:
                raise ValueError(f"spec for {kind} has kind {spec.kind}")

    @property
    def kinds(self) -> list[MemoryKind]:
        return list(self.specs)

    def arrays(self, kind: MemoryKind) -> int:
        return self.specs[kind].num_arrays

    def slots(self, kind: MemoryKind) -> int:
        return self.specs[kind].max_outstanding_jobs

    def fair_share(self, kind: MemoryKind) -> int:
        """``a_unit = max_size / P``: the fixed per-job allocation of
        the LJF baseline (paper III-C2)."""
        return max(1, self.arrays(kind) // self.slots(kind))

    def fair_allocation(self, kind: MemoryKind, unit_arrays: int) -> int:
        """The fair share floored at one replica (``unit_arrays``) and
        capped at the device size: the fixed allocation of LJF,
        Johnson's rule and the dispatcher's fallback re-queue."""
        return min(max(self.fair_share(kind), unit_arrays), self.arrays(kind))

    def subset(self, kinds) -> "MLIMPSystem":
        """System restricted to some memory layers (Fig. 12's device
        mixtures)."""
        chosen = {kind: self.specs[kind] for kind in kinds}
        return MLIMPSystem(specs=chosen)


@dataclass(frozen=True)
class Dispatch:
    """One launch decision: run ``job`` on ``kind`` with ``arrays``.

    ``predicted_time`` is the total execution time the scheduler's
    estimate forecast for this allocation; the dispatcher logs it
    against the measured latency so predictor error (paper III-E) is
    observable on every run.  Policies that plan without an estimate
    may leave it ``None``.
    """

    job: Job
    kind: MemoryKind
    arrays: int
    predicted_time: float | None = None

    def __post_init__(self) -> None:
        if self.arrays < 1:
            raise ValueError("dispatch must allocate at least one array")
        if self.kind not in self.job.profiles:
            raise ValueError(f"{self.job.job_id} does not support {self.kind}")
        if self.predicted_time is not None and self.predicted_time < 0:
            raise ValueError("predicted_time must be non-negative")


@dataclass
class ResourceView:
    """What a policy can observe when asked for dispatches."""

    now: float
    free_slots: dict[MemoryKind, int]
    free_arrays: dict[MemoryKind, int]
    largest_free_run: dict[MemoryKind, int]

    def can_place(self, kind: MemoryKind, arrays: int) -> bool:
        return (
            self.free_slots.get(kind, 0) > 0
            and self.largest_free_run.get(kind, 0) >= arrays
        )


class DispatchPolicy(abc.ABC):
    """Callback object driving the event-driven dispatcher."""

    @abc.abstractmethod
    def next_dispatches(self, view: ResourceView) -> list[Dispatch]:
        """Jobs to launch right now; called at t=0 and after every
        completion.  Must never return a dispatch that does not fit
        the view."""

    @abc.abstractmethod
    def pending(self) -> int:
        """Jobs not yet dispatched (the dispatcher uses this to detect
        starvation/livelock)."""

    def notify_completion(self, job: Job, kind: MemoryKind, now: float) -> None:
        """Hook: a dispatched job finished (adaptive policies use it)."""

    def notify_failed(self, job: Job, now: float) -> None:
        """Hook: the dispatcher gave up on ``job`` (reported it failed);
        it will never run or come back to the policy."""

    # -- online admission (repro.serving) ------------------------------
    def admit(self, jobs: list[Job], now: float) -> list[Job]:
        """Open-system hook: ``jobs`` arrived at ``now`` and want in.

        Closed-batch policies see their whole queue at plan time; under
        the serving layer (:mod:`repro.serving`) jobs arrive while the
        dispatcher runs and are offered here after admission control.
        An arrival-aware policy plans each job (sizing it with its own
        machinery), inserts it into its queue structure, and returns
        the jobs it could **not** place -- e.g. a job that only fits
        devices lost to faults.  Rejected jobs are counted as shed by
        the serving layer, never silently dropped.

        Contract, uniform across every policy (pinned by
        ``tests/test_core_scheduler.py``): an **empty** ``jobs`` list
        is a pure no-op -- ``[]`` comes back and no internal state
        (queue order, plans, schedules) changes, so callers may probe
        ``admit([], now)`` freely.  ``now`` values need not arrive in
        monotone order: each call is interpreted against the given
        timestamp only, never against the history of earlier calls.

        The default is not arrival-aware: everything is rejected.
        """
        return list(jobs)

    def queue_depths(self) -> dict[str, int] | None:
        """Pending jobs per internal queue, for the observability
        layer's queue-depth gauges.  ``None`` (the default) means the
        policy does not expose its queue structure."""
        return None

    def next_event_time(self, now: float) -> float | None:
        """Next *planned* time this policy wants to be consulted, for
        time-driven (statically scheduled) policies.  ``None`` means
        event-driven only (the default)."""
        return None

    # -- graceful degradation hooks (repro.faults) ---------------------
    def device_lost(
        self, kind: MemoryKind, jobs: list[Job], now: float
    ) -> list[Job]:
        """``kind`` failed permanently at ``now``; ``jobs`` were in
        flight or parked on it and need a new home.

        A fault-aware policy absorbs what it can -- re-pointing its own
        queued work off the dead device and re-queueing the returned
        jobs onto survivors -- and returns the jobs it could *not*
        place (the dispatcher then falls back to a profile-driven
        re-queue, or reports them failed).  The default cannot absorb
        anything.
        """
        return list(jobs)

    def device_derated(self, kind: MemoryKind, factor: float, now: float) -> None:
        """``kind`` now runs at ``factor`` of nominal throughput.

        Fault-aware policies rebalance their queues so estimates stay
        honest; the default ignores the signal (dispatch stays correct,
        only placement quality suffers)."""
        return None


class Scheduler(abc.ABC):
    """Plans a batch of jobs into a dispatch policy."""

    name: str = "scheduler"

    @abc.abstractmethod
    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> DispatchPolicy:
        """Build the policy for one batch.

        ``upcoming`` lists the jobs the run will later offer to the
        policy's ``admit`` hook, in arrival order (empty for a closed
        batch).  A policy may size them ahead of their arrival; it
        must not queue them before they are admitted.
        """
