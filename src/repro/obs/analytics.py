"""Trace analytics: the numbers behind the paper's timeline figures.

Figures 12-19 of the paper are statements about *where time goes*:
per-device utilisation, fill/replicate/compute overlap, and the
scheduling bubbles that separate the adaptive scheduler from the
global one (Section III-C5).  This module derives all of them from an
:class:`~repro.sim.trace.ExecutionTrace` -- which only stores the rows
-- and packages the result as a :class:`RunReport`, reachable from any
run via :meth:`repro.core.dispatcher.DispatchResult.report`.

The report is one fold over the trace: a single pass over its rows
splits them by device and sums the phase seconds, then one sweep per
device sorts that device's intervals once and reads off its first and
last activity, busy time (the union of its intervals) and bubbles
(the gaps between them).  Each float is summed in a fixed order, so a
report is the same to the bit on every run and every Python version.

Usage::

    result = runtime.run()
    report = result.report()          # RunReport (str() renders the table)
    print(report)

    sram = report.devices["sram"]     # one DeviceReport per device
    sram.utilisation                  # busy fraction of the makespan
    sram.bubble_count                 # scheduling gaps (Section III-C5)
    sram.phase_seconds["fill"]        # fill / replicate / compute split
    report.as_dict()                  # JSON-ready form
    report.predictor                  # predictor error over the decisions

    # or derive it directly from a DispatchResult:
    from repro.obs import build_report, decision_rows
    report = build_report(result)
    decision_rows(result)             # predicted vs measured, per job

The predictor study (Section III-E, Figs. 10 and 15) asks how far the
scheduler's estimate is from the measured time.  Every launched job's
row (:class:`~repro.core.dispatcher.JobRecord`) keeps the time its
first launch was predicted to take; :func:`decision_rows` pairs it
with the job's measured latency, and ``report.predictor`` summarises
the relative errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.trace import ExecutionTrace, Phase
from .metrics import nearest_rank

__all__ = [
    "DeviceReport",
    "RunReport",
    "build_report",
    "decision_rows",
    "device_utilisation",
]

#: Gaps shorter than this fraction of the device's active span are
#: measurement noise (event ordering, dispatch overhead), not bubbles.
MIN_BUBBLE_FRACTION = 1e-9


@dataclass(frozen=True)
class DeviceReport:
    """One device's share of the run."""

    device: str
    first_activity: float
    last_activity: float
    busy_time: float
    utilisation: float
    bubble_count: int
    bubble_time: float
    phase_seconds: dict[str, float]
    jobs: int

    def as_dict(self) -> dict:
        return {
            "device": self.device,
            "first_activity": self.first_activity,
            "last_activity": self.last_activity,
            "busy_time": self.busy_time,
            "utilisation": self.utilisation,
            "bubble_count": self.bubble_count,
            "bubble_time": self.bubble_time,
            "phase_seconds": dict(self.phase_seconds),
            "jobs": self.jobs,
        }


@dataclass
class RunReport:
    """Everything the observability layer derives from one run."""

    scheduler: str
    makespan: float
    n_jobs: int
    mean_latency: float
    p99_latency: float
    devices: dict[str, DeviceReport] = field(default_factory=dict)
    predictor: dict | None = None
    #: Fault-injection summary (None for fault-free runs): plan size,
    #: injected/retried/re-queued/failed counts, per-device health and
    #: migrations, and the makespan overhead vs the fault-free baseline
    #: when one was recorded.
    degradation: dict | None = None

    def as_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "makespan": self.makespan,
            "n_jobs": self.n_jobs,
            "mean_latency": self.mean_latency,
            "p99_latency": self.p99_latency,
            "devices": {name: dev.as_dict() for name, dev in self.devices.items()},
            "predictor": self.predictor,
            "degradation": self.degradation,
        }

    def __str__(self) -> str:
        lines = [
            f"== dispatch report ({self.scheduler or 'unlabelled'}) ==",
            f"makespan {_fmt_time(self.makespan)}  jobs {self.n_jobs}  "
            f"mean latency {_fmt_time(self.mean_latency)}  "
            f"p99 {_fmt_time(self.p99_latency)}",
        ]
        phases = sorted({p for dev in self.devices.values() for p in dev.phase_seconds})
        header = ["device", "jobs", "util", "busy", "bubbles", "idle"] + phases
        rows = [header]
        for name in sorted(self.devices):
            dev = self.devices[name]
            rows.append(
                [
                    name,
                    str(dev.jobs),
                    f"{dev.utilisation:.3f}",
                    _fmt_time(dev.busy_time),
                    str(dev.bubble_count),
                    _fmt_time(dev.bubble_time),
                ]
                + [_fmt_time(dev.phase_seconds.get(p, 0.0)) for p in phases]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self.predictor is None:
            lines.append("predictor error: n/a (no predictions recorded)")
        else:
            p = self.predictor
            lines.append(
                f"predictor error: n={p['count']}  "
                f"mean |err| {p['mean_abs_rel_error'] * 100:.1f}%  "
                f"p50 {p['p50_abs_rel_error'] * 100:.1f}%  "
                f"p90 {p['p90_abs_rel_error'] * 100:.1f}%  "
                f"bias {p['mean_signed_rel_error'] * 100:+.1f}%"
            )
        if self.degradation is not None:
            d = self.degradation
            lines.append(
                f"degraded mode: {int(d['faults_injected'])} faults injected "
                f"(plan {int(d['plan_size'])})  "
                f"retried {int(d['jobs_retried'])}  "
                f"re-queued {int(d['jobs_requeued'])}  "
                f"failed {int(d['jobs_failed'])}"
            )
            for device, count in sorted(d["migrated_off"].items()):
                lines.append(f"  migrated off {device}: {int(count)} jobs")
            dead = [
                name
                for name, health in sorted(d["devices"].items())
                if not health.get("alive", True)
            ]
            if dead:
                lines.append("  lost devices: " + ", ".join(dead))
            if d.get("makespan_overhead") is not None:
                lines.append(
                    "  makespan vs fault-free: "
                    f"{_fmt_time(d['fault_free_makespan'])} -> "
                    f"{_fmt_time(self.makespan)} "
                    f"({d['makespan_overhead'] * 100:+.1f}%)"
                )
        return "\n".join(lines)


def build_report(result) -> RunReport:
    """Derive the :class:`RunReport` for one
    :class:`~repro.core.dispatcher.DispatchResult`."""
    trace = result.trace
    jobs_per_device: dict[str, int] = {}
    for record in result.records.values():
        device = record.kind.value
        jobs_per_device[device] = jobs_per_device.get(device, 0) + 1
    span = trace.makespan
    devices = {
        device: _device_report(
            device, starts, ends, phase_seconds, span, jobs_per_device.get(device, 0)
        )
        for device, starts, ends, phase_seconds in _device_columns(trace)
    }
    return RunReport(
        scheduler=result.scheduler_name,
        makespan=result.makespan,
        n_jobs=len(result.records),
        mean_latency=result.mean_latency(),
        p99_latency=result.tail_latency(0.99),
        devices=devices,
        predictor=_predictor_error(decision_rows(result)),
        degradation=_degradation_summary(result),
    )


def decision_rows(result) -> list[dict]:
    """Every launched job's dispatch decision and its outcome, in
    first-launch order.

    ``device``, ``arrays``, ``decided_at``, ``predicted_time`` and
    ``queue_depth`` are the first launch's; ``actual_time`` is the
    latency of the job's last attempt, or None for a job that failed.
    ``relative_error`` is the signed ``(actual - predicted) / actual``
    (negative: the predictor overestimated), when both sides are known.
    """
    failed = result.failed_jobs
    rows = []
    for row in result.rows.values():
        actual = None if row.job_id in failed else row.latency
        predicted = row.predicted_time
        error = None
        if predicted is not None and actual is not None and actual > 0:
            error = (actual - predicted) / actual
        rows.append(
            {
                "job_id": row.job_id,
                "device": row.decided_device,
                "arrays": row.decided_arrays,
                "decided_at": row.decided_at,
                "predicted_time": predicted,
                "actual_time": actual,
                "queue_depth": row.queue_depth,
                "relative_error": error,
            }
        )
    return rows


def _predictor_error(decisions: list[dict]) -> dict | None:
    """Relative-error statistics over the decisions with both a
    prediction and a measured time; None when there is none (e.g.
    hand-built policies predict nothing).  ``mean_signed_rel_error``
    is the bias: positive means the predictor underestimates."""
    signed = [d["relative_error"] for d in decisions if d["relative_error"] is not None]
    if not signed:
        return None
    abs_errors = sorted(abs(error) for error in signed)
    return {
        "count": len(signed),
        "mean_abs_rel_error": sum(abs_errors) / len(abs_errors),
        "p50_abs_rel_error": nearest_rank(abs_errors, 0.5),
        "p90_abs_rel_error": nearest_rank(abs_errors, 0.9),
        "max_abs_rel_error": abs_errors[-1],
        "mean_signed_rel_error": sum(signed) / len(signed),
    }


def device_utilisation(trace: ExecutionTrace) -> dict[str, float]:
    """Each device's busy fraction of the trace's makespan: the
    ``utilisation`` column of :func:`build_report`, from the same
    per-device sweep, without the rest of the report."""
    span = trace.makespan
    return {
        device: _device_report(device, starts, ends, phase_seconds, span, 0).utilisation
        for device, starts, ends, phase_seconds in _device_columns(trace)
    }


_PHASE_NAMES = {phase: phase.value for phase in Phase}


def _device_columns(trace: ExecutionTrace):
    """Each device's start/end columns and phase seconds, devices sorted.

    One pass over the trace rows splits them by device.  Phase seconds
    accumulate with ``+=`` in trace order, the order the report's bytes
    were first produced in (a pairwise or compensated sum rounds
    differently).
    """
    columns = trace.columns
    rows: dict[str, tuple[list[int], dict[str, float]]] = {}
    for row, (device, phase, start, end) in enumerate(
        zip(columns.devices, columns.phases, columns.starts, columns.ends)
    ):
        entry = rows.get(device)
        if entry is None:
            entry = rows[device] = ([], {})
        entry[0].append(row)
        seconds = entry[1]
        name = _PHASE_NAMES[phase]
        seconds[name] = seconds.get(name, 0.0) + (end - start)
    # Copies, not np.frombuffer views: a live view of the trace's
    # array columns makes its next ``record`` raise BufferError.
    starts = np.array(columns.starts, dtype=np.float64)
    ends = np.array(columns.ends, dtype=np.float64)
    for device in sorted(rows):
        index, phase_seconds = rows[device]
        yield device, starts[index], ends[index], phase_seconds


def _device_report(
    device: str,
    starts: np.ndarray,
    ends: np.ndarray,
    phase_seconds: dict[str, float],
    span: float,
    jobs: int,
) -> DeviceReport:
    """The sweep over one device's intervals.

    After one lexsort (by start, then end), ``running[i]`` is the
    latest end among the first ``i + 1`` intervals.  An interval adds
    to the busy union the part of it past ``cover`` -- the larger of its
    own start and the running end before it -- and leaves a gap of
    ``start - running[i - 1]`` before it when that is positive: the
    same union and the same gaps as merging the sorted intervals.
    """
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    running = np.maximum.accumulate(ends)
    first, last = float(starts[0]), float(running[-1])
    cover = np.empty_like(ends)
    cover[0] = starts[0]
    np.maximum(running[:-1], starts[1:], out=cover[1:])
    # One NumPy sum over the contiguous per-interval parts: the same
    # pairwise summation, hence the same bits, on every run.
    busy = float(np.maximum(0.0, ends - cover).sum())
    # Gaps below this sliver of the active span are event-ordering
    # noise, not bubbles.
    min_gap = (last - first) * MIN_BUBBLE_FRACTION
    gaps = starts[1:] - running[:-1]
    gaps = gaps[gaps > min_gap].tolist()
    # Sequential ``+=``: builtin ``sum`` is compensated on Python 3.12+
    # and would round differently there than here.
    idle = 0.0
    for gap in gaps:
        idle += gap
    return DeviceReport(
        device=device,
        first_activity=first,
        last_activity=last,
        busy_time=busy,
        utilisation=busy / span if span else 0.0,
        bubble_count=len(gaps),
        bubble_time=idle,
        phase_seconds=phase_seconds,
        jobs=jobs,
    )


def _degradation_summary(result) -> dict | None:
    """The report's fault-injection section, reconciled against the
    run's metric counters (``faults.injected``, ``jobs.retried``,
    ``jobs.requeued`` / ``jobs.requeued.<device>``, ``failed_jobs``)."""
    fault_summary = getattr(result, "fault_summary", None)
    if fault_summary is None:
        return None
    metrics = getattr(result, "metrics", None)
    counters = metrics.counters if metrics is not None else {}

    def value(name: str) -> float:
        return counters[name].value if name in counters else 0.0

    migrated = {
        name.split(".", 2)[2]: counter.value
        for name, counter in counters.items()
        if name.startswith("jobs.requeued.")
    }
    failed = dict(getattr(result, "failed_jobs", {}) or {})
    fault_free = getattr(result, "fault_free_makespan", None)
    return {
        "plan_size": fault_summary.get("plan_size", 0),
        "faults_injected": value("faults.injected"),
        "jobs_retried": value("jobs.retried"),
        "jobs_requeued": value("jobs.requeued"),
        "jobs_failed": len(failed),
        "failed_jobs": failed,
        "migrated_off": migrated,
        "devices": fault_summary.get("devices", {}),
        "fault_free_makespan": fault_free,
        "makespan_overhead": (
            result.makespan / fault_free - 1.0
            if fault_free is not None and fault_free > 0
            else None
        ),
    }


def _fmt_time(seconds: float) -> str:
    """Human-scaled time (kept local: obs sits below the harness)."""
    if seconds == 0:
        return "0"
    for unit, factor in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if abs(seconds) >= factor:
            return f"{seconds / factor:.2f}{unit}"
    return f"{seconds:.2e}s"
