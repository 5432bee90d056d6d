"""The host's speed, sampled while a workload runs.

This shared host runs the same code at two speeds, about 1.6x apart,
switching every few tenths of a second and drifting between them over
minutes; a process's CPU time tracks its wall time, so the slow
stretches are a slower CPU, not time spent descheduled.  A raw host
time therefore moves with the share of slow stretches in the run.

:class:`HostSpeed` times :func:`reference_loop` -- a fixed amount of
pure-Python work that uses no repro code -- every ``PERIOD_S`` of
process CPU time (``SIGPROF``), in the process and in the children it
forks, while sampling is on.  A host time divided by the mean of the
passes timed in the same stretch is in reference-loop units (``ref``):
it stays put while the host's speed moves, and nothing repro does can
change the loop's cost.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import os
import signal
import time
from pathlib import Path

#: Process CPU time between two timed passes.
PERIOD_S = 0.05


class _Item:
    __slots__ = ("key", "size", "done")

    def __init__(self, key: int, size: float) -> None:
        self.key = key
        self.size = size
        self.done = 0.0


def reference_loop(n: int = 500) -> float:
    """Objects, a heap, a dict and small float sums: the kinds of work a
    discrete-event simulator in Python does (about 2 ms)."""
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(n):
        item = _Item(i, (i * 7919 % 1000) / 997.0)
        table[i % 257] = item
        heapq.heappush(heap, (item.size, i, item))
        if len(heap) > 64:
            _, _, done = heapq.heappop(heap)
            done.done = done.size * 1.5 + acc * 1e-9
            acc += done.done
        acc += sum(x.size for x in list(table.values())[:8])
    return acc


def time_reference() -> float:
    """Host time of one :func:`reference_loop` pass.

    The collector is off for the pass, so it does not collect the
    workload's garbage on the reference loop's clock.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Timed reference-loop passes of one process and its forked children.

    A child's passes go to ``reference-<pid>.txt`` in ``spill_dir``; the
    children of the cluster's process pool are gone before the parent
    reads them.  ``own_s`` is the time this process spent in passes, to
    be taken out of the host time they interrupted; a child's passes
    stay in the time of the work it did for the parent.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.samples: list[float] = []
        self.own_s = 0.0
        self._on = False
        signal.signal(signal.SIGPROF, self._on_signal)
        os.register_at_fork(after_in_child=self._after_fork)

    def _on_signal(self, signum, frame) -> None:
        took = time_reference()
        if os.getpid() == self.pid:
            self.samples.append(took)
            self.own_s += took
        else:
            with open(self.spill_dir / f"reference-{os.getpid()}.txt", "a") as out:
                out.write(f"{took!r}\n")

    def _after_fork(self) -> None:
        # Interval timers are not inherited across fork.
        if self._on:
            self._arm(PERIOD_S)

    @staticmethod
    def _arm(period: float) -> None:
        signal.setitimer(signal.ITIMER_PROF, period, period)

    @contextlib.contextmanager
    def sampling(self):
        """Time a pass every ``PERIOD_S`` of CPU time inside the block."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._on = True
        self._arm(PERIOD_S)
        try:
            yield
        finally:
            self._arm(0.0)
            self._on = False

    def collect(self, passes: int) -> list[float]:
        """The passes timed since the last call, this process's and its
        children's, plus ``passes`` timed now (so a block too short to
        be sampled still has some)."""
        out, self.samples = self.samples, []
        for path in sorted(self.spill_dir.glob("reference-*.txt")):
            out.extend(float(line) for line in path.read_text().split())
            path.unlink()
        out.extend(time_reference() for _ in range(passes))
        return out
