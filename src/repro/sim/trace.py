"""Execution traces: what ran where, when.

The dispatcher records one trace row per job phase (fill, replication,
compute).  From the trace we derive the quantities the paper's
evaluation reports: makespan, per-device busy time and utilisation,
and *scheduling bubbles* (device-idle gaps while work was still
waiting), which Section III-C5 identifies as the adaptive scheduler's
weakness that global scheduling removes.

Storage is columnar (struct-of-arrays): parallel append-only columns
-- job id, device, phase, start, end, arrays -- instead of a list of
Python objects.  :class:`TraceRecord` objects are materialised lazily,
only when a caller actually asks for :attr:`ExecutionTrace.records`;
the analytics run directly over the numeric columns with NumPy.
"""

from __future__ import annotations

import enum
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["Phase", "TraceRecord", "ExecutionTrace"]


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


class ExecutionTrace:
    """Append-only columnar trace with derived schedule metrics.

    The public surface is unchanged from the object-based trace:
    :meth:`record` / :meth:`add` append, :attr:`records` yields
    :class:`TraceRecord` objects (materialised on first access and
    cached until the next append).
    """

    __slots__ = (
        "_job_ids",
        "_devices",
        "_phases",
        "_starts",
        "_ends",
        "_arrays",
        "_materialised",
    )

    def __init__(self, records: list[TraceRecord] | None = None) -> None:
        self._job_ids: list[str] = []
        self._devices: list[str] = []
        self._phases: list[Phase] = []
        self._starts = array("d")
        self._ends = array("d")
        self._arrays = array("q")
        self._materialised: list[TraceRecord] | None = None
        for record in records or ():
            self.add(record)

    def __len__(self) -> int:
        return len(self._starts)

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
        self._job_ids.append(job_id)
        self._devices.append(device)
        self._phases.append(phase)
        self._starts.append(start)
        self._ends.append(end)
        self._arrays.append(arrays)
        self._materialised = None

    def add(self, record: TraceRecord) -> None:
        self.record(
            record.job_id,
            record.device,
            record.phase,
            record.start,
            record.end,
            record.arrays,
        )

    @property
    def records(self) -> list[TraceRecord]:
        """The trace as :class:`TraceRecord` objects (lazy, cached)."""
        if self._materialised is None:
            self._materialised = [
                TraceRecord(*row)
                for row in zip(
                    self._job_ids,
                    self._devices,
                    self._phases,
                    self._starts,
                    self._ends,
                    self._arrays,
                )
            ]
        return self._materialised

    # -- columnar views -------------------------------------------------
    # Copies, not buffer views: a live view of an ``array`` would make
    # the next append raise BufferError ("exporting buffers").
    def starts(self) -> np.ndarray:
        return np.frombuffer(self._starts, dtype=np.float64).copy()

    def ends(self) -> np.ndarray:
        return np.frombuffer(self._ends, dtype=np.float64).copy()

    def _device_mask(self, device: str) -> np.ndarray:
        return np.fromiter(
            (d == device for d in self._devices),
            dtype=bool,
            count=len(self._devices),
        )

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self._ends:
            return 0.0
        return float(self.ends().max())

    def devices(self) -> list[str]:
        return sorted(set(self._devices))

    def job_ids(self) -> list[str]:
        return sorted(set(self._job_ids))

    def _intervals(self, device: str) -> np.ndarray:
        """(n, 2) start/end pairs on ``device``, sorted lexicographically
        (matching the object-based ``sorted()`` of tuples)."""
        mask = self._device_mask(device)
        pairs = np.column_stack((self.starts()[mask], self.ends()[mask]))
        if pairs.size:
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
        return pairs

    @staticmethod
    def _union_length(pairs: np.ndarray) -> float:
        """Union length of sorted intervals, vectorised: each interval
        contributes the part past the running maximum of earlier ends."""
        if not pairs.size:
            return 0.0
        starts, ends = pairs[:, 0], pairs[:, 1]
        cover = np.empty_like(ends)
        cover[0] = starts[0]
        np.maximum.accumulate(ends[:-1], out=cover[1:])
        cover[1:] = np.maximum(cover[1:], starts[1:])
        cover[0] = starts[0]
        return float(np.maximum(0.0, ends - cover).sum())

    def busy_time(self, device: str) -> float:
        """Union length of the device's active intervals."""
        return self._union_length(self._intervals(device))

    def utilisation(self, device: str) -> float:
        span = self.makespan
        if span == 0:
            return 0.0
        return self.busy_time(device) / span

    def job_span(self, job_id: str) -> tuple[float, float]:
        mask = np.fromiter(
            (j == job_id for j in self._job_ids),
            dtype=bool,
            count=len(self._job_ids),
        )
        if not mask.any():
            raise KeyError(f"no trace records for job {job_id!r}")
        return float(self.starts()[mask].min()), float(self.ends()[mask].max())

    def job_latency(self, job_id: str) -> float:
        start, end = self.job_span(job_id)
        return end - start

    def bubble_time(self, device: str) -> float:
        """Idle time on ``device`` between its first and last activity."""
        pairs = self._intervals(device)
        if not pairs.size:
            return 0.0
        first = float(pairs[0, 0])
        last = float(pairs[:, 1].max())
        return (last - first) - self._union_length(pairs)

    def phase_time(self, phase: Phase) -> float:
        """Total (possibly overlapping) time spent in ``phase``."""
        return sum(
            e - s
            for s, e, p in zip(self._starts, self._ends, self._phases)
            if p is phase
        )

    def per_device_phase_breakdown(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for device, phase, start, end in zip(
            self._devices, self._phases, self._starts, self._ends
        ):
            out[device][phase.value] += end - start
        return {device: dict(phases) for device, phases in out.items()}
