"""Wear-aware memory filtering (endurance extension).

The paper's II-A endurance concern, acted on: before planning, jobs
whose fill traffic would push an NVM device past its endurance
reserve have that memory removed from their candidate set, so the
inner scheduler (adaptive/global/LJF -- anything) places them on
unconstrained layers instead.  Built on
:class:`repro.memories.endurance.WearTracker`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ...memories.base import MemoryKind
from ...memories.endurance import WearTracker
from ..job import Job
from .base import DispatchPolicy, MLIMPSystem, Scheduler

__all__ = ["WearAwareScheduler", "restrict_worn_memories"]


def restrict_worn_memories(
    jobs: list[Job],
    trackers: dict[MemoryKind, WearTracker],
    reserve_fraction: float = 0.1,
) -> list[Job]:
    """Return jobs with endurance-breaching memories filtered out.

    A job keeps a tracked memory only if the tracker admits its fill
    traffic; jobs are returned unchanged when nothing is filtered.  A
    job that fits *no* remaining memory keeps its least-worn tracked
    option (running somewhere beats not running; the tracker will
    report the overshoot).
    """
    filtered: list[Job] = []
    for job in jobs:
        allowed = {}
        for kind, profile in job.profiles.items():
            tracker = trackers.get(kind)
            if tracker is None or tracker.admit(
                profile.fill_bytes * profile.n_iter, reserve_fraction
            ):
                allowed[kind] = profile
        if not allowed:
            fallback = min(
                (k for k in job.profiles if k in trackers),
                key=lambda k: trackers[k].wear_fraction,
            )
            allowed = {fallback: job.profiles[fallback]}
        if len(allowed) == len(job.profiles):
            filtered.append(job)
        else:
            filtered.append(
                Job(
                    job_id=job.job_id,
                    kernel=job.kernel,
                    profiles=allowed,
                    metadata=job.metadata,
                    tags=dict(job.tags),
                )
            )
    return filtered


@dataclass
class WearAwareScheduler(Scheduler):
    """Wrap any scheduler with endurance-reserve admission."""

    inner: Scheduler
    trackers: dict[MemoryKind, WearTracker]
    reserve_fraction: float = 0.1
    name: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"wear-aware({self.inner.name})"

    def plan(
        self, jobs: list[Job], system: MLIMPSystem, upcoming: Sequence[Job] = ()
    ) -> DispatchPolicy:
        restricted = restrict_worn_memories(
            jobs, self.trackers, self.reserve_fraction
        )
        return self.inner.plan(restricted, system, upcoming)
