"""Event-driven execution of a dispatch policy (the MLIMP runtime).

The dispatcher realises the runtime half of Figure 6: it holds one
scratchpad allocator and job-slot counter per memory device, a shared
main-memory pipe for off-chip fills, an energy ledger, and an
execution trace.  At t = 0 and after every job completion it asks the
scheduler's :class:`~repro.core.scheduler.base.DispatchPolicy` what to
launch; each launched job walks through fill -> replicate -> compute
phases whose durations come from the job's ground-truth profile.

Fills for SRAM and ReRAM stream over the shared DDR4 pipe, so
concurrent jobs genuinely contend for memory bandwidth (and the
scheduler's nominal-bandwidth estimates drift from reality -- one of
the error sources the adaptive scheduler absorbs).  In-DRAM jobs fill
with internal row moves and bypass the pipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultKind, FaultPlan
from ..memories.allocator import Allocation, ScratchpadAllocator
from ..memories.base import MemoryKind
from ..obs.analytics import RunReport, build_report
from ..obs.decisions import DecisionLog
from ..obs.metrics import MetricsRegistry, runtime_counter_inc, runtime_state_set
from ..sim.columnar import (
    PHASE_BEGIN_FILL,
    PHASE_COMPUTE_DONE,
    PHASE_FILL_DONE,
    PHASE_REPLICATE_DONE,
    FlightColumns,
)
from ..sim.energy import EnergyCategory, EnergyLedger
from ..sim.engine import Simulator
from ..sim.mainmem import DDR4Config, SharedBandwidthPipe
from ..sim.trace import ExecutionTrace, Phase, StreamingTrace
from .job import Job
from .scheduler.base import Dispatch, DispatchPolicy, MLIMPSystem, ResourceView

if TYPE_CHECKING:  # pragma: no cover - serving imports core, not vice versa
    from ..serving.tenants import OpenLoop

__all__ = ["JobRecord", "DispatchResult", "Dispatcher", "DispatchError"]


class DispatchError(RuntimeError):
    """Raised when a policy dead-locks or over-subscribes a device."""


@dataclass
class JobRecord:
    """Lifecycle timestamps of one executed job.

    Under fault injection a job may run more than once (stall-aborted
    retries, migration off a failed device); the timestamps describe
    the **final, successful** attempt and ``attempts`` counts how many
    launches it took.
    """

    job_id: str
    kind: MemoryKind
    arrays: int
    dispatched_at: float
    fill_done_at: float = 0.0
    replicate_done_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 1

    @property
    def latency(self) -> float:
        return self.finished_at - self.dispatched_at


@dataclass
class DispatchResult:
    """Everything a run produced.

    ``metrics`` and ``decisions`` are filled by the dispatcher's
    observability layer (``repro.obs``); :meth:`report` derives the
    per-device utilisation / bubble / phase / predictor-error summary
    the paper's timeline figures are built from.
    """

    makespan: float
    trace: ExecutionTrace
    energy: EnergyLedger
    records: dict[str, JobRecord]
    scheduler_name: str = ""
    metrics: MetricsRegistry | None = None
    decisions: DecisionLog | None = None
    #: Jobs the degraded run could not complete (job_id -> reason);
    #: always empty without a fault plan.
    failed_jobs: dict[str, str] = field(default_factory=dict)
    #: ``FaultInjector.summary()`` of the run, or None when no fault
    #: plan was active.
    fault_summary: dict | None = None
    #: Makespan of the same batch without faults, when the caller ran
    #: the baseline (``MLIMPRuntime.run(..., fault_baseline=True)``).
    fault_free_makespan: float | None = None

    def jobs_on(self, kind: MemoryKind) -> list[JobRecord]:
        return [r for r in self.records.values() if r.kind is kind]

    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.latency for r in self.records.values()) / len(self.records)

    def tail_latency(self, quantile: float = 0.99) -> float:
        """Nearest-rank latency quantile: value at ``ceil(q*n) - 1``.

        (``int(q * n)`` indexing is off by one against the nearest-rank
        definition and returns the maximum for every quantile once
        ``q * n`` reaches ``n - 1``.)
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if not self.records:
            return 0.0
        latencies = sorted(r.latency for r in self.records.values())
        index = max(0, math.ceil(quantile * len(latencies)) - 1)
        return latencies[min(index, len(latencies) - 1)]

    def report(self) -> RunReport:
        """Per-device utilisation, bubbles, phase breakdown and
        predictor error (see :mod:`repro.obs.analytics`)."""
        return build_report(self)


@dataclass
class _Device:
    allocator: ScratchpadAllocator
    running: int = 0


@dataclass
class _Flight:
    """Fault-mode bookkeeping for one job's current launch attempt.

    Phase events scheduled for an attempt capture ``attempt`` and only
    act while the flight is still ``active`` on that attempt number --
    aborting a job is a pure state flip, no event cancellation, so a
    run with an **empty** fault plan schedules exactly the events a
    fault-free run does.
    """

    dispatch: Dispatch
    attempt: int = 0
    active: bool = False
    parked: bool = False
    done: bool = False
    pending_retry: bool = False
    #: Ownership went back to the policy (``device_lost`` absorbed the
    #: job); the dispatcher's stale retry paths must stand down until
    #: the policy re-emits it through ``next_dispatches``.
    with_policy: bool = False
    allocation: Allocation | None = None


#: Runtime cost of launching one in-memory job (scheduler decision +
#: firmware kernel launch; "similar to the kernel launch for CUDA
#: runtime", paper III-A).
DEFAULT_DISPATCH_OVERHEAD_S = 2e-6


class Dispatcher:
    """Runs one batch of jobs under a dispatch policy."""

    def __init__(
        self,
        system: MLIMPSystem,
        ddr4: DDR4Config | None = None,
        dispatch_overhead_s: float = DEFAULT_DISPATCH_OVERHEAD_S,
    ) -> None:
        self.system = system
        self.ddr4 = ddr4 or DDR4Config()
        if dispatch_overhead_s < 0:
            raise ValueError("dispatch overhead must be non-negative")
        self.dispatch_overhead_s = dispatch_overhead_s

    # ------------------------------------------------------------------
    def run(
        self,
        policy: DispatchPolicy,
        label: str = "",
        faults: FaultPlan | None = None,
        open_loop: "OpenLoop | None" = None,
        predictor: object | None = None,
        trace: "ExecutionTrace | StreamingTrace | None" = None,
    ) -> DispatchResult:
        """Execute one batch under ``policy``.

        ``trace`` overrides the run's trace store.  Pass a
        :class:`~repro.sim.trace.StreamingTrace` for open-ended runs:
        phase rows stream to its sink instead of accumulating, so
        memory stays flat however many jobs arrive (the result's
        row-level analytics are then unavailable -- see the class
        docs).  By default the run fills a columnar
        :class:`~repro.sim.trace.ExecutionTrace`.

        With a non-empty ``faults`` plan the run degrades gracefully:
        stalled devices abort their in-flight jobs and retry them with
        exponential backoff, derated devices stretch device-timed phase
        durations, and failed devices hand their in-flight and parked
        work to the policy's ``device_lost`` hook (falling back to a
        profile-driven re-queue, then to ``failed_jobs``).  Energy
        charged to aborted attempts stays charged -- wasted work is
        real work.  With ``faults`` None or empty, the run takes
        exactly the fault-free code path (byte-identical traces).

        ``open_loop`` (see :class:`repro.serving.tenants.OpenLoop`)
        turns the closed batch into an open system: its timed arrivals
        become first-class sim events, and every pump first drains the
        admission layer (tenant queues -> ``policy.admit``) before
        consulting the policy for dispatches.  With no arrivals the
        open loop adds **zero** sim events and no metric series, so a
        zero-rate serving run is byte-identical to the closed path.

        ``predictor`` closes the lifecycle loop: if it exposes an
        ``on_completion(job, kind, now, metrics)`` hook (see
        :class:`repro.core.predictor.OnlinePredictor`), every job
        completion feeds the measured profile back into it -- after
        the policy's own completion callback, so scheduling decisions
        never observe mid-completion model updates.  Predictors
        without the hook are ignored here (they only shape estimates
        inside the policy).
        """
        predictor_hook = getattr(predictor, "on_completion", None)
        sim = Simulator()
        pipe = SharedBandwidthPipe(sim, self.ddr4)
        if trace is None:
            trace = ExecutionTrace()
        ledger = EnergyLedger()
        records: dict[str, JobRecord] = {}
        devices = {
            kind: _Device(allocator=ScratchpadAllocator(spec))
            for kind, spec in self.system.specs.items()
        }

        # Fault state: only materialised for a non-empty plan, so the
        # common path stays untouched.
        injector: FaultInjector | None = None
        if faults is not None and len(faults) > 0:
            injector = FaultInjector(faults, list(devices))
        flights: dict[str, _Flight] = {}
        parked: dict[MemoryKind, list[_Flight]] = {kind: [] for kind in devices}
        failed_jobs: dict[str, str] = {}
        backoffs_pending = 0

        # Observability: metric gauges track device occupancy and the
        # shared-pipe load over time; the decision log pairs every
        # dispatch's predicted time with its measured latency.
        metrics = MetricsRegistry()
        decisions = DecisionLog()
        pending_gauge = metrics.gauge("jobs.pending")
        pipe_gauge = metrics.gauge("ddr4.active_transfers")
        pipe_gauge.set(0.0, 0)
        pipe.on_occupancy = pipe_gauge.set
        slot_gauges = {
            kind: metrics.gauge(f"{kind.value}.slots_in_use") for kind in devices
        }
        array_gauges = {
            kind: metrics.gauge(f"{kind.value}.arrays_in_use") for kind in devices
        }
        for kind in devices:
            slot_gauges[kind].set(0.0, 0)
            array_gauges[kind].set(0.0, 0)

        def sample_queue_depths() -> None:
            depths = policy.queue_depths()
            if depths is None:
                return
            for queue_name, depth in depths.items():
                metrics.gauge(f"queue_depth.{queue_name}").set(sim.now, depth)

        def view() -> ResourceView:
            free_slots = {
                kind: self.system.slots(kind) - dev.running
                for kind, dev in devices.items()
            }
            free_arrays = {
                kind: dev.allocator.free_arrays for kind, dev in devices.items()
            }
            largest_free_run = {
                kind: dev.allocator.largest_free_run
                for kind, dev in devices.items()
            }
            if injector is not None:
                # Dead and stalled devices accept no launches: hide
                # their capacity so policies route around them.
                for kind, health in injector.health.items():
                    if not health.usable(sim.now):
                        free_slots[kind] = 0
                        free_arrays[kind] = 0
                        largest_free_run[kind] = 0
            return ResourceView(
                now=sim.now,
                free_slots=free_slots,
                free_arrays=free_arrays,
                largest_free_run=largest_free_run,
            )

        # -- fault machinery (no-ops without an injector) ---------------
        def park(flight: _Flight) -> None:
            flight.parked = True
            parked[flight.dispatch.kind].append(flight)

        def drain_parked(kind: MemoryKind) -> None:
            """Launch parked jobs while the device has room again."""
            queue = parked[kind]
            if not queue or not injector.health[kind].usable(sim.now):
                return
            device = devices[kind]
            slots = self.system.slots(kind)
            for flight in list(queue):
                if device.running >= slots:
                    break
                if device.allocator.largest_free_run < flight.dispatch.arrays:
                    continue
                queue.remove(flight)
                flight.parked = False
                launch(flight.dispatch, requeued=True)

        def abort_flight(flight: _Flight) -> None:
            """Release the device; the attempt's stale events no-op."""
            if not flight.active:
                return
            flight.active = False
            kind = flight.dispatch.kind
            device = devices[kind]
            if flight.allocation is not None:
                device.allocator.free(flight.allocation)
                flight.allocation = None
            device.running -= 1
            slot_gauges[kind].set(sim.now, device.running)
            array_gauges[kind].set(sim.now, device.allocator.used_arrays)

        def fail_job(flight: _Flight, reason: str) -> None:
            abort_flight(flight)
            flight.done = True
            flight.pending_retry = False
            job_id = flight.dispatch.job.job_id
            records.pop(job_id, None)
            failed_jobs[job_id] = reason
            policy.notify_failed(flight.dispatch.job, sim.now)
            metrics.counter("jobs.failed").inc()
            runtime_counter_inc("jobs.failed")
            if open_loop is not None:
                # A failed job leaves the system too: return its
                # predicted-work reservation to the admission ledger.
                open_loop.on_finished(job_id)

        def requeue_elsewhere(flight: _Flight, reason: str) -> None:
            """Fallback migration: park the job on the surviving device
            with the most free arrays (profile-driven fair-share
            sizing), or report it failed if none fits."""
            flight.pending_retry = False
            job = flight.dispatch.job
            source = flight.dispatch.kind
            best_kind: MemoryKind | None = None
            best_free = -1
            for cand, dev in devices.items():
                if not injector.health[cand].alive or cand not in job.profiles:
                    continue
                if job.profile(cand).unit_arrays > self.system.arrays(cand):
                    continue
                free = dev.allocator.free_arrays
                if free > best_free:
                    best_free, best_kind = free, cand
            if best_kind is None:
                fail_job(flight, f"{reason}; no surviving device fits")
                return
            arrays = min(
                max(
                    self.system.fair_share(best_kind),
                    job.profile(best_kind).unit_arrays,
                ),
                self.system.arrays(best_kind),
            )
            flight.dispatch = Dispatch(job=job, kind=best_kind, arrays=arrays)
            metrics.counter("jobs.requeued").inc()
            metrics.counter(f"jobs.requeued.{source.value}").inc()
            runtime_counter_inc("jobs.requeued")
            park(flight)
            drain_parked(best_kind)

        def retry_attempt(
            flight: _Flight, next_backoff: float, attempts: int
        ) -> None:
            nonlocal backoffs_pending
            backoffs_pending -= 1
            if flight.done or flight.active or flight.parked or flight.with_policy:
                return  # already resolved by another path
            kind = flight.dispatch.kind
            health = injector.health[kind]
            if not health.alive:
                requeue_elsewhere(flight, f"{kind.value} failed during backoff")
                return
            if health.stalled(sim.now):
                if attempts >= injector.retry.max_attempts:
                    fail_job(
                        flight,
                        f"retry budget exhausted on stalled {kind.value}",
                    )
                    return
                metrics.counter("jobs.retry_backoff").inc()
                backoffs_pending += 1
                sim.after(
                    next_backoff,
                    retry_attempt,
                    flight,
                    next_backoff * injector.retry.multiplier,
                    attempts + 1,
                )
                return
            launch(flight.dispatch, requeued=True)

        def on_stall(event: "FaultEvent") -> None:
            nonlocal backoffs_pending
            kind = event.device
            retry = injector.retry
            for flight in [
                f
                for f in flights.values()
                if f.active and f.dispatch.kind is kind
            ]:
                abort_flight(flight)
                flight.pending_retry = True
                backoffs_pending += 1
                sim.after(
                    retry.base_backoff_s,
                    retry_attempt,
                    flight,
                    retry.base_backoff_s * retry.multiplier,
                    1,
                )
            sim.at(injector.health[kind].stalled_until, stall_end, kind)

        def stall_end(kind: MemoryKind) -> None:
            health = injector.health[kind]
            if not health.alive or health.stalled(sim.now):
                return  # died meanwhile, or the stall was extended
            drain_parked(kind)
            pump()

        def on_derate(event: "FaultEvent") -> None:
            kind = event.device
            metrics.gauge(f"faults.derate.{kind.value}").set(
                sim.now, event.factor
            )
            runtime_state_set(f"faults.derate.{kind.value}", event.factor)
            policy.device_derated(kind, event.factor, sim.now)
            pump()

        def on_fail(kind: MemoryKind, reason: str) -> None:
            victims = [
                f
                for f in flights.values()
                if not f.done
                and f.dispatch.kind is kind
                and (f.active or f.parked or f.pending_retry)
            ]
            for flight in victims:
                abort_flight(flight)
                if flight.parked:
                    parked[kind].remove(flight)
                    flight.parked = False
                flight.pending_retry = False
            unplaced = policy.device_lost(
                kind, [f.dispatch.job for f in victims], sim.now
            )
            unplaced_ids = {job.job_id for job in unplaced}
            for flight in victims:
                if flight.dispatch.job.job_id in unplaced_ids:
                    continue
                # The policy absorbed this in-flight job onto a
                # survivor; it will come back through next_dispatches.
                flight.with_policy = True
                metrics.counter("jobs.requeued").inc()
                metrics.counter(f"jobs.requeued.{kind.value}").inc()
                runtime_counter_inc("jobs.requeued")
            for job in unplaced:
                flight = flights.get(job.job_id)
                if flight is None:
                    # Policy-queued, never launched, and unplaceable by
                    # the policy: carry it through the fallback.
                    flight = _Flight(
                        dispatch=Dispatch(job=job, kind=kind, arrays=1)
                    )
                    flights[job.job_id] = flight
                requeue_elsewhere(flight, reason)
            pump()

        def fire_fault(event: "FaultEvent") -> None:
            # Injection is counted per plan event (wear-outs when they
            # trigger); a fault against an already-dead device is moot.
            metrics.counter("faults.injected").inc()
            metrics.counter(
                f"faults.{event.device.value}.{event.kind.value}"
            ).inc()
            runtime_counter_inc("faults.injected")
            if not injector.apply(event, sim.now):
                return
            if event.kind is FaultKind.STALL:
                on_stall(event)
            elif event.kind is FaultKind.DERATE:
                on_derate(event)
            else:
                on_fail(event.device, event.reason or f"{event.kind.value} fault")

        # -- columnar flight table (the batch simulation hot path) ------
        # In-flight phase rows live in struct-of-arrays columns; the
        # engine fires due rows straight from its chunked drain through
        # fire_row, which advances each row's fill -> replicate ->
        # compute state machine in place.
        flights_col = FlightColumns()

        def pipe_fill_done(row: int, attempt: int, extra: float) -> None:
            """Shared-pipe fill completed: arm the fill-done transition."""
            flight = flights_col.flight[row]
            if flight is not None and not (
                flight.active and flight.attempt == attempt
            ):
                flights_col.release(row)
                return
            flights_col.state[row] = PHASE_FILL_DONE
            sim.after_row(extra, row)

        def fire_row(row: int) -> None:
            col = flights_col
            flight = col.flight[row]
            if flight is not None and not (
                flight.active and flight.attempt == col.attempt[row]
            ):
                # Stale transition of an aborted attempt: no-op, and
                # recycle the row.
                col.release(row)
                return
            state = col.state[row]
            dispatch = col.dispatch[row]
            kind = col.kind[row]
            job = col.job[row]
            profile = col.profile[row]
            spec = col.spec[row]
            record = col.record[row]
            if state == PHASE_BEGIN_FILL:
                bytes_total = float(col.fill_bytes[row])
                if kind is MemoryKind.DRAM:
                    # In-situ: data is already in main memory; the fill
                    # is an internal row-move, off the shared pipe.
                    fill_time = spec.fill_seconds(bytes_total)
                    if injector is not None:
                        fill_time *= injector.time_scale(kind)
                    col.state[row] = PHASE_FILL_DONE
                    sim.after_row(fill_time, row)
                else:
                    # Off-chip stream through the shared DDR4 pipe, plus
                    # device-side write overhead beyond pipe bandwidth.
                    # (An aborted job's in-flight transfer still drains
                    # the pipe -- the DMA stream is already committed --
                    # but its completion no-ops in pipe_fill_done.)
                    extra = max(
                        0.0,
                        spec.fill_seconds(bytes_total)
                        - bytes_total / self.ddr4.total_bandwidth_bps,
                    )
                    if injector is not None:
                        extra *= injector.time_scale(kind)
                    attempt = int(col.attempt[row])
                    pipe.submit(
                        bytes_total,
                        lambda: pipe_fill_done(row, attempt, extra),
                    )
            elif state == PHASE_FILL_DONE:
                record.fill_done_at = sim.now
                trace.record(
                    job.job_id, kind.value, Phase.FILL,
                    record.dispatched_at, sim.now, dispatch.arrays,
                )
                replicas = profile.replicas(dispatch.arrays)
                rep_time = profile.n_iter * profile.t_replica_unit * (replicas - 1)
                rep_bytes = profile.fill_bytes * (replicas - 1)
                if rep_bytes > 0:
                    ledger.add(
                        EnergyCategory.REPLICATION,
                        kind.value,
                        rep_bytes * spec.fill_energy_pj_per_byte * 1e-12,
                    )
                if injector is not None:
                    rep_time *= injector.time_scale(kind)
                    if rep_bytes > 0:
                        wear = injector.record_fill(kind, rep_bytes)
                        if wear is not None:
                            sim.after(0.0, fire_fault, wear)
                col.state[row] = PHASE_REPLICATE_DONE
                sim.after_row(rep_time, row)
            elif state == PHASE_REPLICATE_DONE:
                record.replicate_done_at = sim.now
                if sim.now > record.fill_done_at:
                    trace.record(
                        job.job_id, kind.value, Phase.REPLICATE,
                        record.fill_done_at, sim.now, dispatch.arrays,
                    )
                compute = profile.n_iter * profile.compute_time(dispatch.arrays)
                if injector is not None:
                    compute *= injector.time_scale(kind)
                col.t0[row] = sim.now
                col.state[row] = PHASE_COMPUTE_DONE
                sim.after_row(compute, row)
            else:  # PHASE_COMPUTE_DONE
                record.finished_at = sim.now
                trace.record(
                    job.job_id, kind.value, Phase.COMPUTE,
                    float(col.t0[row]), sim.now, dispatch.arrays,
                )
                ledger.add(
                    EnergyCategory.COMPUTE, kind.value, profile.compute_energy_j
                )
                if flight is not None:
                    flight.active = False
                    flight.done = True
                    flight.allocation = None
                allocation = col.alloc[row]
                device = devices[kind]
                device.allocator.free(allocation)
                device.running -= 1
                metrics.counter("jobs.completed").inc()
                slot_gauges[kind].set(sim.now, device.running)
                array_gauges[kind].set(sim.now, device.allocator.used_arrays)
                decisions.complete(job.job_id, record.latency)
                col.release(row)
                policy.notify_completion(job, kind, sim.now)
                if predictor_hook is not None:
                    predictor_hook(job, kind, sim.now, metrics)
                if open_loop is not None:
                    open_loop.on_finished(job.job_id)
                if injector is not None:
                    # Freed capacity goes to migrated/retried jobs first.
                    drain_parked(kind)
                pump()

        sim.attach_row_handler(fire_row)

        def launch(dispatch: Dispatch, requeued: bool = False) -> None:
            kind, job = dispatch.kind, dispatch.job
            spec = self.system.specs[kind]
            device = devices[kind]
            profile = job.profile(kind)
            if dispatch.arrays > spec.num_arrays:
                raise DispatchError(
                    f"{job.job_id}: requested {dispatch.arrays} arrays on "
                    f"{kind} (device has {spec.num_arrays})"
                )
            flight: _Flight | None = None
            if injector is not None:
                flight = flights.get(job.job_id)
                if flight is None:
                    flight = _Flight(dispatch=dispatch)
                    flights[job.job_id] = flight
                if flight.active or flight.done:
                    raise DispatchError(f"job {job.job_id} dispatched twice")
                flight.with_policy = False
                flight.dispatch = dispatch
                health = injector.health[kind]
                if not health.alive:
                    # The policy raced a failure it has not absorbed:
                    # migrate the job instead of crashing the batch.
                    requeue_elsewhere(flight, f"{kind.value} is failed")
                    return
                if health.stalled(sim.now):
                    park(flight)
                    return
                if requeued and (
                    device.running >= self.system.slots(kind)
                    or device.allocator.largest_free_run < dispatch.arrays
                ):
                    # A re-queued job must not crash the run on a full
                    # device -- it waits for room instead.
                    park(flight)
                    return
            slots = self.system.slots(kind)
            if device.running >= slots:
                raise DispatchError(
                    f"{job.job_id}: {kind.value} already runs {device.running} "
                    f"jobs (limit {slots}); the policy over-subscribed the "
                    "device's job slots"
                )
            allocation = device.allocator.allocate(dispatch.arrays)
            device.running += 1
            record = records.get(job.job_id)
            relaunch = record is not None
            if relaunch and flight is None:
                raise DispatchError(f"job {job.job_id} dispatched twice")
            if relaunch:
                record.kind = kind
                record.arrays = dispatch.arrays
                record.dispatched_at = sim.now
                record.fill_done_at = 0.0
                record.replicate_done_at = 0.0
                record.attempts += 1
            else:
                record = JobRecord(
                    job_id=job.job_id,
                    kind=kind,
                    arrays=dispatch.arrays,
                    dispatched_at=sim.now,
                )
                records[job.job_id] = record
            metrics.counter("jobs.dispatched").inc()
            metrics.counter(f"{kind.value}.jobs").inc()
            slot_gauges[kind].set(sim.now, device.running)
            array_gauges[kind].set(sim.now, device.allocator.used_arrays)
            if not relaunch:
                decisions.record(
                    job_id=job.job_id,
                    device=kind.value,
                    arrays=dispatch.arrays,
                    decided_at=sim.now,
                    predicted_time=dispatch.predicted_time,
                    queue_depth=policy.pending(),
                )
            if flight is not None:
                if flight.pending_retry:
                    flight.pending_retry = False
                    metrics.counter("jobs.retried").inc()
                    runtime_counter_inc("jobs.retried")
                flight.attempt += 1
                flight.active = True
                flight.allocation = allocation
            attempt = flight.attempt if flight is not None else 0
            bytes_total = profile.fill_bytes * profile.n_iter
            ledger.add(
                EnergyCategory.FILL,
                kind.value,
                bytes_total * spec.fill_energy_pj_per_byte * 1e-12,
            )
            if injector is not None:
                wear = injector.record_fill(kind, bytes_total)
                if wear is not None:
                    sim.after(0.0, fire_fault, wear)

            # One flight-table row per launch; the dispatch-overhead
            # transition begins its fill.
            col = flights_col
            row = col.acquire()
            col.job[row] = job
            col.kind[row] = kind
            col.dispatch[row] = dispatch
            col.profile[row] = profile
            col.spec[row] = spec
            col.record[row] = record
            col.flight[row] = flight
            col.alloc[row] = allocation
            col.attempt[row] = attempt
            col.fill_bytes[row] = bytes_total
            col.state[row] = PHASE_BEGIN_FILL
            sim.after_row(self.dispatch_overhead_s, row)

        def pump() -> None:
            if open_loop is not None:
                # Admission before dispatch: release queued arrivals up
                # to the backlog cap, offer them to the policy, count
                # what it cannot place as shed.
                released = open_loop.release(sim.now, policy.pending())
                if released:
                    rejected = policy.admit(released, sim.now)
                    open_loop.on_rejected(rejected, sim.now)
            dispatches = policy.next_dispatches(view())
            for dispatch in dispatches:
                launch(dispatch)
            pending_gauge.set(sim.now, policy.pending())
            sample_queue_depths()
            # Time-driven policies (static global schedules) want to be
            # consulted at their next planned dispatch time.  Planned
            # times already in the past are served by the next
            # completion event instead (never self-schedule at `now`,
            # which would spin).
            wakeup = policy.next_event_time(sim.now)
            if wakeup is not None and wakeup > sim.now and policy.pending() > 0:
                sim.at(wakeup, pump)
                return
            if (
                not dispatches
                and policy.pending() > 0
                and all(dev.running == 0 for dev in devices.values())
                and pipe.active_transfers == 0
                and (
                    injector is None
                    or (
                        backoffs_pending == 0
                        and not any(parked.values())
                        and not any(
                            h.stalled(sim.now)
                            for h in injector.health.values()
                        )
                    )
                )
            ):
                raise DispatchError(
                    f"policy dead-locked with {policy.pending()} jobs pending"
                )

        sim.after(0.0, pump)
        if open_loop is not None:
            open_loop.bind(metrics)

            def handle_arrival(arrival) -> None:
                open_loop.on_arrival(arrival, sim.now)
                pump()

            # Each timed arrival becomes a first-class sim event; an
            # empty arrival list schedules nothing at all.
            for arrival in open_loop.arrivals:
                sim.at_arrival(arrival, handle_arrival)
        if injector is not None:
            # The plan's timed faults become first-class sim events.
            for event in faults.timed_events():
                sim.at(event.time, fire_fault, event)
        makespan = sim.run()
        if policy.pending() > 0:
            raise DispatchError(f"{policy.pending()} jobs never dispatched")
        if injector is not None:
            # Fault machinery (stall ends, backoff probes) can outlive
            # the last completion; the makespan is the end of useful
            # work, comparable with the fault-free run's.
            makespan = trace.makespan
        ledger.add(EnergyCategory.OFFCHIP, "ddr4", pipe.energy_j())
        # Engine throughput: per-run counter for the snapshot, plus the
        # process-global totals `repro bench` derives events/sec from.
        metrics.counter("sim.events").inc(sim.processed)
        runtime_counter_inc("sim.events", sim.processed)
        runtime_counter_inc("sim.runs")
        return DispatchResult(
            makespan=makespan,
            trace=trace,
            energy=ledger,
            records=records,
            scheduler_name=label,
            metrics=metrics,
            decisions=decisions,
            failed_jobs=failed_jobs,
            fault_summary=injector.summary() if injector is not None else None,
        )
