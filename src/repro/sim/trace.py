"""Execution traces: what ran where, when.

The dispatcher records one trace row per job phase (fill, replication,
compute).  The trace is storage only: parallel append-only columns
(struct-of-arrays) -- job id, device, phase, start, end, arrays --
plus the makespan.  Every number derived from it (per-device busy
time, utilisation, *scheduling bubbles* -- the device-idle gaps
Section III-C5 identifies as the adaptive scheduler's weakness --
and the phase split) is one sweep in :mod:`repro.obs.analytics`.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["Phase", "TraceRecord", "TraceColumns", "ExecutionTrace"]


class Phase(enum.Enum):
    FILL = "fill"
    REPLICATE = "replicate"
    COMPUTE = "compute"
    DRAIN = "drain"

    # Identity hash (members are singletons): phase-keyed dict lookups
    # in the analytics skip Enum's Python-level name hash.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class TraceRecord:
    """One contiguous activity of one job on one device."""

    job_id: str
    device: str
    phase: Phase
    start: float
    end: float
    arrays: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("trace record ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceColumns(NamedTuple):
    """The trace's columns, row-aligned, in record order."""

    job_ids: list[str]
    devices: list[str]
    phases: list[Phase]
    starts: array
    ends: array
    arrays: array


class ExecutionTrace:
    """Append-only columnar trace: :meth:`record` appends a row,
    :attr:`records` rebuilds the rows as :class:`TraceRecord` objects
    and :attr:`columns` exposes the columns themselves."""

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self._columns = TraceColumns([], [], [], array("d"), array("d"), array("q"))

    def __len__(self) -> int:
        return len(self._columns.starts)

    def record(
        self,
        job_id: str,
        device: str,
        phase: Phase,
        start: float,
        end: float,
        arrays: int = 0,
    ) -> None:
        if end < start:
            raise ValueError("trace record ends before it starts")
        columns = self._columns
        columns.job_ids.append(job_id)
        columns.devices.append(device)
        columns.phases.append(phase)
        columns.starts.append(start)
        columns.ends.append(end)
        columns.arrays.append(arrays)

    @property
    def columns(self) -> TraceColumns:
        """The live columns, for reading only.  A buffer view of
        ``starts``/``ends`` (``np.frombuffer``) must be dropped before
        the next :meth:`record`, which raises ``BufferError`` while one
        is alive."""
        return self._columns

    @property
    def records(self) -> list[TraceRecord]:
        """The trace as a fresh list of :class:`TraceRecord` objects."""
        return [TraceRecord(*row) for row in zip(*self._columns)]

    @property
    def makespan(self) -> float:
        return max(self._columns.ends, default=0.0)
