"""Lightweight run metrics: counters, gauges, histograms.

The dispatcher feeds a :class:`MetricsRegistry` while a run executes:
counters for dispatch/completion events, step-function gauges for
per-device slots-in-use, arrays-in-use, queue depth and DDR4 pipe
occupancy, and value histograms for latency-like samples.  Gauges keep
their full (time, value) series, so time-weighted summaries -- the
quantities behind the paper's utilisation-timeline figures -- can be
derived after the run without any periodic sampling thread.

Everything is plain Python with no locking: the simulation is
single-threaded and deterministic, and a registry belongs to exactly
one :meth:`~repro.core.dispatcher.Dispatcher.run` call.

Usage::

    result = Dispatcher(system).run(policy)        # fills result.metrics
    result.metrics.counters["jobs.dispatched"].value
    result.metrics.gauges["sram.slots_in_use"].time_weighted_mean(result.makespan)
    result.metrics.snapshot()                      # JSON-ready dict

Besides per-run registries, the module keeps *process-global runtime
counters* -- totals that outlive any single run, e.g. simulator events
executed across a whole benchmark suite.  The dispatcher feeds
``sim.events`` / ``sim.runs``; :func:`runtime_snapshot` combines them
with the perf-layer cache hit-rates (``repro.core.perfmodel`` and
``repro.isa.timing``), which is what ``python -m repro bench`` records
into ``BENCH_<date>.json``::

    from repro.obs.metrics import reset_runtime_counters, runtime_snapshot
    reset_runtime_counters()
    ... run experiments ...
    snap = runtime_snapshot()
    snap["counters"]["sim.events"]            # events executed since reset
    snap["caches"]["perfmodel.knee"]["hit_rate"]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "nearest_rank",
    "runtime_counter_inc",
    "runtime_counters",
    "reset_runtime_counters",
    "runtime_state_set",
    "runtime_states",
    "runtime_snapshot",
]


def nearest_rank(sorted_values: list[float], quantile: float) -> float:
    """Nearest-rank quantile: value at index ``ceil(q * n) - 1``.

    This is the textbook definition the dispatcher's tail-latency
    metric also uses; ``quantile`` must be in (0, 1].
    """
    if not sorted_values:
        raise ValueError("nearest_rank of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    index = max(0, math.ceil(quantile * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


@dataclass
class Counter:
    """Monotonically increasing event count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


@dataclass
class Gauge:
    """Step-function time series of one instantaneous quantity.

    ``set(t, v)`` appends a sample; between samples the gauge holds its
    last value, which is what the event-driven dispatcher produces
    (state only changes at events).  Samples at the same timestamp
    overwrite, so a burst of same-instant events leaves one point.
    """

    name: str
    samples: list[tuple[float, float]] = field(default_factory=list)

    def set(self, time: float, value: float) -> None:
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(
                f"gauge {self.name}: sample at {time} precedes {self.samples[-1][0]}"
            )
        if self.samples and time == self.samples[-1][0]:
            self.samples[-1] = (time, float(value))
        else:
            self.samples.append((time, float(value)))

    @property
    def value(self) -> float:
        """Most recent sample (0 before any sample)."""
        return self.samples[-1][1] if self.samples else 0.0

    @property
    def max_value(self) -> float:
        return max((v for _, v in self.samples), default=0.0)

    def time_weighted_mean(self, horizon: float | None = None) -> float:
        """Mean of the step function over [first sample, horizon]."""
        if not self.samples:
            return 0.0
        end = self.samples[-1][0] if horizon is None else horizon
        start = self.samples[0][0]
        if end <= start:
            return self.samples[-1][1]
        area = 0.0
        for (t0, v0), (t1, _) in zip(self.samples, self.samples[1:]):
            area += v0 * (min(t1, end) - t0)
        last_t, last_v = self.samples[-1]
        if end > last_t:
            area += last_v * (end - last_t)
        return area / (end - start)


@dataclass
class Histogram:
    """Plain value histogram with nearest-rank quantiles."""

    name: str
    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        if not self.values:
            return 0.0
        return nearest_rank(sorted(self.values), q)


class MetricsRegistry:
    """Namespace of counters, gauges and histograms for one run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def snapshot(self, horizon: float | None = None) -> dict:
        """JSON-ready summary of every metric."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {
                name: {
                    "last": g.value,
                    "max": g.max_value,
                    "time_weighted_mean": g.time_weighted_mean(horizon),
                    "samples": len(g.samples),
                }
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": h.mean(),
                    "p50": h.quantile(0.5),
                    "p99": h.quantile(0.99),
                }
                for name, h in sorted(self.histograms.items())
            },
        }


# ======================================================================
# Process-global runtime counters
# ======================================================================
# Totals that span runs (a per-run MetricsRegistry dies with its
# DispatchResult).  Per-process like everything else here: parallel
# experiment workers each accumulate their own counters.
_RUNTIME_COUNTERS: dict[str, float] = {}

# Last-value runtime state (not monotonic): e.g. the current derate
# factor of each device under fault injection (``faults.derate.sram``).
_RUNTIME_STATE: dict[str, float] = {}


def runtime_state_set(name: str, value: float) -> None:
    """Set a process-global last-value state entry."""
    _RUNTIME_STATE[name] = float(value)


def runtime_states() -> dict[str, float]:
    """Copy of the process-global state entries."""
    return dict(_RUNTIME_STATE)


def runtime_counter_inc(name: str, amount: float = 1.0) -> None:
    """Increment a process-global counter (e.g. ``"sim.events"``)."""
    if amount < 0:
        raise ValueError("counters only increase")
    _RUNTIME_COUNTERS[name] = _RUNTIME_COUNTERS.get(name, 0.0) + amount


def runtime_counters() -> dict[str, float]:
    """Copy of the process-global counters."""
    return dict(_RUNTIME_COUNTERS)


def reset_runtime_counters() -> None:
    """Zero the process-global counters and state (start of a bench
    interval)."""
    _RUNTIME_COUNTERS.clear()
    _RUNTIME_STATE.clear()


def runtime_snapshot() -> dict:
    """Global counters plus the perf-layer cache statistics.

    The cache stats are pulled lazily from ``repro.core.perfmodel``
    and ``repro.isa.timing`` so this module stays import-light (the
    dispatcher imports ``repro.obs`` -- a module-level import back
    into ``repro.core`` would be circular).
    """
    from ..core import perfmodel
    from ..isa import timing

    caches = {}
    caches.update(perfmodel.cache_stats())
    caches.update(timing.cache_stats())
    return {"counters": runtime_counters(), "state": runtime_states(), "caches": caches}
