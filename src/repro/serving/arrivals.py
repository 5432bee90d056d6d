"""Arrival processes: when open-system jobs hit the runtime.

A closed batch hands the scheduler its whole queue at time zero; an
open system confronts it with jobs that arrive *while it runs*.  This
module generates the arrival timeline as a list of
:class:`~repro.sim.events.JobArrival` values -- plain data the
dispatcher turns into first-class simulation events.

Two processes cover the paper-style serving experiments:

* :class:`PoissonArrivals` -- a seeded memoryless stream at ``rate``
  jobs/second until ``horizon`` seconds, tenants drawn by weight.
  Everything derives from one ``random.Random(seed)``, so the same
  seed always produces the identical timeline (byte-identical serve
  reports; see ``tests/test_serving.py``).
* :class:`TraceArrivals` -- replays a JSON trace file, for measured
  or hand-crafted workloads.

Usage::

    process = PoissonArrivals(rate=50.0, horizon=1.0, seed=7,
                              tenants=["a", "b", "c"])
    arrivals = process.generate(workload.make_job)

Trace file format (a JSON list, times in seconds)::

    [{"time": 0.0001, "tenant": "a"},
     {"time": 0.0004, "tenant": "b", "kernel": "gemm"}]
"""

from __future__ import annotations

import abc
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core.job import Job
from ..sim.events import JobArrival

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "TraceArrivals",
    "TimelineArrivals",
]

#: ``make_job(index, tenant, rng, hint)``: synthesises the job carried
#: by one arrival.  ``hint`` is the trace entry's extra fields (empty
#: for generated processes).
JobFactory = Callable[[int, str, random.Random, dict], Job]


class ArrivalProcess(abc.ABC):
    """Generates the timed arrival list for one serving run."""

    @abc.abstractmethod
    def generate(self, make_job: JobFactory) -> list[JobArrival]:
        """The full arrival timeline, sorted by (time, seq)."""


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Merged Poisson stream: exponential gaps, weighted tenant draw.

    ``rate`` is the aggregate arrival rate over all tenants in
    jobs/second; ``horizon`` bounds generation (the run itself then
    drains to completion).  ``weights`` defaults to uniform.
    """

    rate: float
    horizon: float
    seed: int
    tenants: tuple[str, ...] = ("tenant-0",)
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative, got {self.rate}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.weights is not None and len(self.weights) != len(self.tenants):
            raise ValueError("one weight per tenant required")
        if self.weights is not None and any(w <= 0 for w in self.weights):
            raise ValueError("tenant weights must be positive")

    def generate(self, make_job: JobFactory) -> list[JobArrival]:
        rng = random.Random(self.seed)
        weights = list(self.weights) if self.weights is not None else None
        arrivals: list[JobArrival] = []
        now = 0.0
        seq = 0
        while self.rate > 0:
            now += rng.expovariate(self.rate)
            if now >= self.horizon:
                break
            tenant = rng.choices(list(self.tenants), weights=weights)[0]
            job = make_job(seq, tenant, rng, {})
            arrivals.append(JobArrival(time=now, seq=seq, tenant=tenant, job=job))
            seq += 1
        return arrivals


@dataclass(frozen=True)
class TimelineArrivals(ArrivalProcess):
    """A prebuilt arrival timeline: jobs already materialised.

    The cluster layer (:mod:`repro.cluster`) generates one timeline
    for the whole fleet, partitions it across nodes, and hands each
    node its slice through this process -- ``generate`` returns the
    stored arrivals verbatim (time-sorted, original sequence numbers
    kept) and never calls the job factory, so a node replays exactly
    the jobs placement assigned to it.
    """

    arrivals: tuple[JobArrival, ...]

    def generate(self, make_job: JobFactory) -> list[JobArrival]:
        return sorted(self.arrivals, key=lambda a: (a.time, a.seq))


def _checked_entries(raw, source: str) -> list:
    """``raw`` if it is a valid trace: a list of objects, each with a
    ``tenant`` and a finite, non-negative numeric ``time``.  Otherwise
    a one-line ``ValueError`` naming ``source`` and the entry index."""
    if not isinstance(raw, list):
        raise ValueError(f"trace {source}: expected a JSON list")
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"trace {source}: entry {i} is not an object")
        if "time" not in entry or "tenant" not in entry:
            raise ValueError(f"trace {source}: entry {i} needs 'time' and 'tenant'")
        time = entry["time"]
        if (
            isinstance(time, bool)
            or not isinstance(time, (int, float))
            or not math.isfinite(time)
            or time < 0
        ):
            raise ValueError(
                f"trace {source}: entry {i} 'time' must be a finite, "
                f"non-negative number, got {time!r}"
            )
    return raw


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replays a recorded arrival trace (JSON list of entries).

    Each entry needs ``time`` (finite, non-negative seconds) and
    ``tenant``; any further keys are passed to the job factory as its
    ``hint`` so traces can pin per-arrival workload shape.  Entries
    are stably sorted by time, so an unsorted trace is still
    deterministic.
    """

    path: str
    seed: int = 0

    def entries(self) -> list[dict]:
        return _checked_entries(json.loads(Path(self.path).read_text()), self.path)

    def generate(self, make_job: JobFactory) -> list[JobArrival]:
        rng = random.Random(self.seed)
        entries = sorted(enumerate(self.entries()), key=lambda pair: (pair[1]["time"], pair[0]))
        arrivals: list[JobArrival] = []
        for seq, (_, entry) in enumerate(entries):
            hint = {k: v for k, v in entry.items() if k not in ("time", "tenant")}
            tenant = str(entry["tenant"])
            job = make_job(seq, tenant, rng, hint)
            arrivals.append(
                JobArrival(
                    time=float(entry["time"]), seq=seq, tenant=tenant, job=job
                )
            )
        return arrivals
