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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultKind, FaultPlan
from ..memories.allocator import Allocation, ScratchpadAllocator
from ..memories.base import MemoryKind
from ..obs.analytics import RunReport, build_report
from ..obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    nearest_rank,
    runtime_counter_inc,
    runtime_state_set,
)
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
from ..sim.trace import ExecutionTrace, Phase
from .job import Job
from .scheduler.base import (
    DISPATCH_OVERHEAD_S,
    Dispatch,
    DispatchPolicy,
    MLIMPSystem,
    ResourceView,
)

if TYPE_CHECKING:  # pragma: no cover - serving imports core, not vice versa
    from ..serving.tenants import OpenLoop

__all__ = ["JobRecord", "DispatchResult", "Dispatcher", "DispatchError"]


class DispatchError(RuntimeError):
    """Raised when a policy dead-locks or over-subscribes a device."""


@dataclass
class JobRecord:
    """One launched job's row: its first launch's decision and the
    lifecycle timestamps of its last attempt.

    The row is written once, at the job's first launch, and its
    ``decided_*``, ``predicted_time`` and ``queue_depth`` fields keep
    that decision: the device and arrays the policy chose, when, the
    time the policy's estimate predicted for it, and how many jobs
    were still queued.  Under fault injection a job may run more than
    once (stall-aborted retries, migration off a failed device);
    ``kind``, ``arrays`` and the timestamps describe the **last**
    attempt and ``attempts`` counts how many launches it took.
    """

    job_id: str
    kind: MemoryKind
    arrays: int
    dispatched_at: float
    fill_done_at: float = 0.0
    replicate_done_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 1
    decided_device: str = ""
    decided_arrays: int = 0
    decided_at: float = 0.0
    predicted_time: float | None = None
    queue_depth: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.dispatched_at


@dataclass
class DispatchResult:
    """Everything a run produced.

    ``rows`` holds every launched job's :class:`JobRecord` in
    first-launch order; ``records`` the completed ones, in the same
    order.  ``metrics`` is filled by the dispatcher's observability
    layer (``repro.obs``); :meth:`report` derives the per-device
    utilisation / bubble / phase / predictor-error summary the paper's
    timeline figures are built from.
    """

    makespan: float
    trace: ExecutionTrace
    energy: EnergyLedger
    records: dict[str, JobRecord]
    scheduler_name: str = ""
    metrics: MetricsRegistry | None = None
    #: Every launched job's row, failed ones included.
    rows: dict[str, JobRecord] = field(default_factory=dict)
    #: Jobs the degraded run could not complete (job_id -> reason);
    #: always empty without a fault plan.
    failed_jobs: dict[str, str] = field(default_factory=dict)
    #: ``FaultInjector.summary()`` of the run, or None when no fault
    #: plan was active.
    fault_summary: dict | None = None
    #: Makespan of the same batch without faults, when the caller ran
    #: the baseline (``MLIMPRuntime.run(..., fault_baseline=True)``).
    fault_free_makespan: float | None = None

    def mean_latency(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.latency for r in self.records.values()) / len(self.records)

    def tail_latency(self, quantile: float = 0.99) -> float:
        """Nearest-rank latency quantile (0.0 for a run with no jobs)."""
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if not self.records:
            return 0.0
        latencies = sorted(r.latency for r in self.records.values())
        return nearest_rank(latencies, quantile)

    def report(self) -> RunReport:
        """Per-device utilisation, bubbles, phase breakdown and
        predictor error (see :mod:`repro.obs.analytics`)."""
        return build_report(self)


@dataclass
class _Device:
    """One memory device's ledger and metric handles within a run."""

    allocator: ScratchpadAllocator
    slots: int
    slot_gauge: Gauge
    array_gauge: Gauge
    running: int = 0
    #: The ``<name>.jobs`` counter, created at the device's first
    #: launch so a snapshot lists metrics in the same order.
    jobs_counter: Counter | None = None
    #: Fault mode: launches waiting for the device to have room.
    parked: list[_Flight] = field(default_factory=list)


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


# Enum members the phase machine reads on every transition.
_DRAM = MemoryKind.DRAM
_FILL, _REPLICATE, _COMPUTE = Phase.FILL, Phase.REPLICATE, Phase.COMPUTE
_FILL_ENERGY = EnergyCategory.FILL
_REPLICATION = EnergyCategory.REPLICATION
_COMPUTE_ENERGY = EnergyCategory.COMPUTE


class Dispatcher:
    """Runs one batch of jobs under a dispatch policy."""

    def __init__(self, system: MLIMPSystem, ddr4: DDR4Config | None = None) -> None:
        self.system = system
        self.ddr4 = ddr4 or DDR4Config()

    # ------------------------------------------------------------------
    def run(
        self,
        policy: DispatchPolicy,
        label: str = "",
        faults: FaultPlan | None = None,
        open_loop: "OpenLoop | None" = None,
        predictor: object | None = None,
    ) -> DispatchResult:
        """Execute one batch under ``policy``; the run's phase rows fill
        a columnar :class:`~repro.sim.trace.ExecutionTrace`.

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
        run = _Run(self, policy, label, faults, open_loop, predictor)
        try:
            return run.execute()
        finally:
            run.close()


class _Run:
    """State and event handlers of one :meth:`Dispatcher.run`.

    The handlers are methods, so the engine, the DDR4 pipe and the
    flight table point back into the run only through the callbacks
    they hold; :meth:`close` drops those, and a finished run -- trace,
    records, jobs and all -- is freed by reference counting as soon as
    its caller lets go of the result.
    """

    def __init__(
        self,
        dispatcher: Dispatcher,
        policy: DispatchPolicy,
        label: str,
        faults: FaultPlan | None,
        open_loop: "OpenLoop | None",
        predictor: object | None,
    ) -> None:
        system = dispatcher.system
        self.system = system
        self.pipe_bandwidth_bps = dispatcher.ddr4.total_bandwidth_bps
        self.policy = policy
        self.label = label
        self.faults = faults
        self.open_loop = open_loop
        self.predictor_hook = getattr(predictor, "on_completion", None)
        self.sim = sim = Simulator()
        self.pipe = SharedBandwidthPipe(sim, dispatcher.ddr4)
        self.trace = ExecutionTrace()
        self.ledger = EnergyLedger()
        #: One row per launched job, in first-launch order.
        self.rows: dict[str, JobRecord] = {}

        # Observability: metric gauges track device occupancy and the
        # shared-pipe load over time.
        self.metrics = metrics = MetricsRegistry()
        self.pending_gauge = metrics.gauge("jobs.pending")
        pipe_gauge = metrics.gauge("ddr4.active_transfers")
        pipe_gauge.set(0.0, 0)
        self.pipe.on_occupancy = pipe_gauge.set
        #: ``kind.value`` of every device: an enum property, read once.
        self.names = {kind: kind.value for kind in system.specs}
        self.devices = {
            kind: _Device(
                allocator=ScratchpadAllocator(spec),
                slots=system.slots(kind),
                slot_gauge=metrics.gauge(f"{self.names[kind]}.slots_in_use"),
                array_gauge=metrics.gauge(f"{self.names[kind]}.arrays_in_use"),
            )
            for kind, spec in system.specs.items()
        }
        for device in self.devices.values():
            device.slot_gauge.set(0.0, 0)
            device.array_gauge.set(0.0, 0)
        #: ``queue_depth.*`` gauges, resolved once per queue name and
        #: created on first use, so a snapshot lists the same metrics
        #: in the same order.
        self.depth_gauges: dict[str, Gauge] = {}

        # Fault state: only materialised for a non-empty plan, so the
        # common path stays untouched.
        self.injector: FaultInjector | None = None
        if faults is not None and len(faults) > 0:
            self.injector = FaultInjector(faults, list(self.devices))
        self.flights: dict[str, _Flight] = {}
        self.failed_jobs: dict[str, str] = {}
        self.backoffs_pending = 0

        # In-flight phase rows live in struct-of-arrays columns; the
        # engine fires due rows straight from its chunked drain through
        # fire_row, which advances each row's fill -> replicate ->
        # compute state machine in place.
        self.col = FlightColumns()

    # ------------------------------------------------------------------
    def execute(self) -> DispatchResult:
        """Schedule the first pump, the arrivals and the timed faults,
        run the engine to drain, check the ledgers and build the
        result."""
        sim, policy, open_loop = self.sim, self.policy, self.open_loop
        injector = self.injector
        sim.attach_row_handler(self.fire_row)
        sim.after(0.0, self.pump)
        if open_loop is not None:
            open_loop.bind(self.metrics)
            # Each timed arrival becomes a first-class sim event; an
            # empty arrival list schedules nothing at all.
            handle_arrival = self.handle_arrival
            for arrival in open_loop.arrivals:
                sim.at_arrival(arrival, handle_arrival)
        if injector is not None:
            # The plan's timed faults become first-class sim events.
            for event in self.faults.timed_events():
                sim.at(event.time, self.fire_fault, event)
        makespan = sim.run()
        if policy.pending() > 0:
            raise DispatchError(f"{policy.pending()} jobs never dispatched")
        self.check_drained()
        if injector is not None:
            # Fault machinery (stall ends, backoff probes) can outlive
            # the last completion; the makespan is the end of useful
            # work, comparable with the fault-free run's.
            makespan = self.trace.makespan
        self.ledger.add(EnergyCategory.OFFCHIP, "ddr4", self.pipe.energy_j())
        rows, failed = self.rows, self.failed_jobs
        records = (
            {job_id: row for job_id, row in rows.items() if job_id not in failed}
            if failed
            else rows
        )
        # The job counters are counts of the rows; a counter exists
        # only when its value is non-zero.
        metrics = self.metrics
        for name, value in (
            ("jobs.dispatched", sum(row.attempts for row in rows.values())),
            ("jobs.completed", len(records)),
            ("jobs.failed", len(failed)),
        ):
            if value:
                metrics.counter(name).inc(value)
        if failed:
            runtime_counter_inc("jobs.failed", len(failed))
        # Engine throughput: per-run counter for the snapshot, plus the
        # process-global totals `repro bench` derives events/sec from.
        metrics.counter("sim.events").inc(sim.processed)
        runtime_counter_inc("sim.events", sim.processed)
        runtime_counter_inc("sim.runs")
        return DispatchResult(
            makespan=makespan,
            trace=self.trace,
            energy=self.ledger,
            records=records,
            scheduler_name=self.label,
            metrics=metrics,
            rows=rows,
            failed_jobs=failed,
            fault_summary=injector.summary() if injector is not None else None,
        )

    def check_drained(self) -> None:
        """Every device ledger must be back at zero once the queue
        drains: no job running, no array allocated, no job parked; and
        every job a policy's ``device_lost`` took back was dispatched
        again or failed."""
        for kind, device in self.devices.items():
            running = device.running
            live = device.allocator.live_allocations
            parked = len(device.parked)
            if running or live or parked:
                raise DispatchError(
                    f"{self.names[kind]} did not drain: {running} jobs running, "
                    f"{live} live allocations, {parked} parked jobs"
                )
        stranded = sum(
            1 for f in self.flights.values() if f.with_policy and not f.done
        )
        if stranded:
            raise DispatchError(
                f"{stranded} jobs the policy took back in device_lost "
                "never came back"
            )

    def close(self) -> None:
        """Break the references the engine and the pipe hold back into
        this run, and let go of the caller's objects.

        The engine drops its row handler and, for a run that raised,
        the events still queued (their callbacks are this run's
        methods).
        """
        self.sim.close()
        self.pipe.on_occupancy = None
        self.col = None
        self.policy = self.open_loop = self.predictor_hook = None

    # ------------------------------------------------------------------
    def sample_queue_depths(self) -> None:
        depths = self.policy.queue_depths()
        if depths is None:
            return
        now = self.sim.now
        gauges = self.depth_gauges
        for queue_name, depth in depths.items():
            gauge = gauges.get(queue_name)
            if gauge is None:
                gauge = gauges[queue_name] = self.metrics.gauge(
                    f"queue_depth.{queue_name}"
                )
            gauge.set(now, depth)

    def view(self) -> ResourceView:
        now = self.sim.now
        free_slots = {}
        free_arrays = {}
        largest_free_run = {}
        for kind, device in self.devices.items():
            allocator = device.allocator
            free_slots[kind] = device.slots - device.running
            free_arrays[kind] = allocator.free_arrays
            largest_free_run[kind] = allocator.largest_free_run
        if self.injector is not None:
            # Dead and stalled devices accept no launches: hide
            # their capacity so policies route around them.
            for kind, health in self.injector.health.items():
                if not health.usable(now):
                    free_slots[kind] = 0
                    free_arrays[kind] = 0
                    largest_free_run[kind] = 0
        return ResourceView(
            now=now,
            free_slots=free_slots,
            free_arrays=free_arrays,
            largest_free_run=largest_free_run,
        )

    def note_occupancy(self, device: _Device) -> None:
        now = self.sim.now
        device.slot_gauge.set(now, device.running)
        device.array_gauge.set(now, device.allocator.used_arrays)

    # -- fault machinery (only reached with an injector) ---------------
    def park(self, flight: _Flight) -> None:
        flight.parked = True
        self.devices[flight.dispatch.kind].parked.append(flight)

    def drain_parked(self, kind: MemoryKind) -> None:
        """Launch parked jobs while the device has room again."""
        device = self.devices[kind]
        queue = device.parked
        if not queue or not self.injector.health[kind].usable(self.sim.now):
            return
        for flight in list(queue):
            if device.running >= device.slots:
                break
            if device.allocator.largest_free_run < flight.dispatch.arrays:
                continue
            queue.remove(flight)
            flight.parked = False
            self.launch(flight.dispatch, requeued=True)

    def abort_flight(self, flight: _Flight) -> None:
        """Release the device; the attempt's stale events no-op."""
        if not flight.active:
            return
        flight.active = False
        device = self.devices[flight.dispatch.kind]
        if flight.allocation is not None:
            device.allocator.free(flight.allocation)
            flight.allocation = None
        device.running -= 1
        self.note_occupancy(device)

    def fail_job(self, flight: _Flight, reason: str) -> None:
        self.abort_flight(flight)
        flight.done = True
        flight.pending_retry = False
        job_id = flight.dispatch.job.job_id
        self.failed_jobs[job_id] = reason
        self.policy.notify_failed(flight.dispatch.job, self.sim.now)
        if self.open_loop is not None:
            # A failed job leaves the system too: return its
            # predicted-work reservation to the admission ledger.
            self.open_loop.on_finished(job_id)

    def requeue_elsewhere(self, flight: _Flight, reason: str) -> None:
        """Fallback migration: park the job on the surviving device
        with the most free arrays (profile-driven fair-share sizing),
        or report it failed if none fits."""
        flight.pending_retry = False
        system = self.system
        job = flight.dispatch.job
        source = flight.dispatch.kind
        best_kind: MemoryKind | None = None
        best_free = -1
        for cand, device in self.devices.items():
            if not self.injector.health[cand].alive or cand not in job.profiles:
                continue
            if job.profile(cand).unit_arrays > system.arrays(cand):
                continue
            free = device.allocator.free_arrays
            if free > best_free:
                best_free, best_kind = free, cand
        if best_kind is None:
            self.fail_job(flight, f"{reason}; no surviving device fits")
            return
        arrays = system.fair_allocation(best_kind, job.profile(best_kind).unit_arrays)
        flight.dispatch = Dispatch(job=job, kind=best_kind, arrays=arrays)
        self.count_requeued(source)
        self.park(flight)
        self.drain_parked(best_kind)

    def count_requeued(self, source: MemoryKind) -> None:
        self.metrics.counter("jobs.requeued").inc()
        self.metrics.counter(f"jobs.requeued.{self.names[source]}").inc()
        runtime_counter_inc("jobs.requeued")

    def retry_attempt(
        self, flight: _Flight, next_backoff: float, attempts: int
    ) -> None:
        self.backoffs_pending -= 1
        if flight.done or flight.active or flight.parked or flight.with_policy:
            return  # already resolved by another path
        kind = flight.dispatch.kind
        injector = self.injector
        health = injector.health[kind]
        if not health.alive:
            self.requeue_elsewhere(flight, f"{kind.value} failed during backoff")
            return
        if health.stalled(self.sim.now):
            if attempts >= injector.retry.max_attempts:
                self.fail_job(
                    flight, f"retry budget exhausted on stalled {kind.value}"
                )
                return
            self.metrics.counter("jobs.retry_backoff").inc()
            self.backoffs_pending += 1
            self.sim.after(
                next_backoff,
                self.retry_attempt,
                flight,
                next_backoff * injector.retry.multiplier,
                attempts + 1,
            )
            return
        self.launch(flight.dispatch, requeued=True)

    def on_stall(self, event: FaultEvent) -> None:
        kind = event.device
        retry = self.injector.retry
        for flight in [
            f
            for f in self.flights.values()
            if f.active and f.dispatch.kind is kind
        ]:
            self.abort_flight(flight)
            flight.pending_retry = True
            self.backoffs_pending += 1
            self.sim.after(
                retry.base_backoff_s,
                self.retry_attempt,
                flight,
                retry.base_backoff_s * retry.multiplier,
                1,
            )
        self.sim.at(self.injector.health[kind].stalled_until, self.stall_end, kind)

    def stall_end(self, kind: MemoryKind) -> None:
        health = self.injector.health[kind]
        if not health.alive or health.stalled(self.sim.now):
            return  # died meanwhile, or the stall was extended
        self.drain_parked(kind)
        self.pump()

    def on_derate(self, event: FaultEvent) -> None:
        kind = event.device
        name = f"faults.derate.{self.names[kind]}"
        self.metrics.gauge(name).set(self.sim.now, event.factor)
        runtime_state_set(name, event.factor)
        self.policy.device_derated(kind, event.factor, self.sim.now)
        self.pump()

    def on_fail(self, kind: MemoryKind, reason: str) -> None:
        victims = [
            f
            for f in self.flights.values()
            if not f.done
            and f.dispatch.kind is kind
            and (f.active or f.parked or f.pending_retry)
        ]
        parked = self.devices[kind].parked
        for flight in victims:
            self.abort_flight(flight)
            if flight.parked:
                parked.remove(flight)
                flight.parked = False
            flight.pending_retry = False
        unplaced = self.policy.device_lost(
            kind, [f.dispatch.job for f in victims], self.sim.now
        )
        unplaced_ids = {job.job_id for job in unplaced}
        for flight in victims:
            if flight.dispatch.job.job_id in unplaced_ids:
                continue
            # The policy absorbed this in-flight job onto a survivor;
            # it will come back through next_dispatches.
            flight.with_policy = True
            self.count_requeued(kind)
        for job in unplaced:
            flight = self.flights.get(job.job_id)
            if flight is None:
                # Policy-queued, never launched, and unplaceable by the
                # policy: carry it through the fallback.
                flight = _Flight(dispatch=Dispatch(job=job, kind=kind, arrays=1))
                self.flights[job.job_id] = flight
            self.requeue_elsewhere(flight, reason)
        self.pump()

    def fire_fault(self, event: FaultEvent) -> None:
        # Injection is counted per plan event (wear-outs when they
        # trigger); a fault against an already-dead device is moot.
        metrics = self.metrics
        metrics.counter("faults.injected").inc()
        metrics.counter(f"faults.{event.device.value}.{event.kind.value}").inc()
        runtime_counter_inc("faults.injected")
        if not self.injector.apply(event, self.sim.now):
            return
        if event.kind is FaultKind.STALL:
            self.on_stall(event)
        elif event.kind is FaultKind.DERATE:
            self.on_derate(event)
        else:
            self.on_fail(event.device, event.reason or f"{event.kind.value} fault")

    # -- the columnar phase machine (the batch simulation hot path) ----
    def pipe_fill_done(self, row: int, attempt: int, extra: float) -> None:
        """Shared-pipe fill completed: arm the fill-done transition."""
        col = self.col
        flight = col.flight[row]
        if flight is not None and not (flight.active and flight.attempt == attempt):
            col.release(row)
            return
        col.state[row] = PHASE_FILL_DONE
        self.sim.after_row(extra, row)

    def fire_row(self, row: int) -> None:
        col = self.col
        flight = col.flight[row]
        if flight is not None and not (
            flight.active and flight.attempt == col.attempt[row]
        ):
            # Stale transition of an aborted attempt: no-op, and
            # recycle the row.
            col.release(row)
            return
        state = col.state[row]
        kind = col.kind[row]
        sim = self.sim
        now = sim.now
        injector = self.injector
        if state == PHASE_BEGIN_FILL:
            spec = col.spec[row]
            bytes_total = col.fill_bytes[row]
            if kind is _DRAM:
                # In-situ: data is already in main memory; the fill is
                # an internal row-move, off the shared pipe.
                fill_time = spec.fill_seconds(bytes_total)
                if injector is not None:
                    fill_time *= injector.time_scale(kind)
                col.state[row] = PHASE_FILL_DONE
                sim.after_row(fill_time, row)
            else:
                # Off-chip stream through the shared DDR4 pipe, plus
                # device-side write overhead beyond pipe bandwidth.  (An
                # aborted job's in-flight transfer still drains the
                # pipe -- the DMA stream is already committed -- but
                # its completion no-ops in pipe_fill_done.)
                extra = max(
                    0.0,
                    spec.fill_seconds(bytes_total)
                    - bytes_total / self.pipe_bandwidth_bps,
                )
                if injector is not None:
                    extra *= injector.time_scale(kind)
                self.pipe.submit(
                    bytes_total, self.pipe_fill_done, row, col.attempt[row], extra
                )
        elif state == PHASE_FILL_DONE:
            record = col.record[row]
            profile = col.profile[row]
            arrays = col.dispatch[row].arrays
            name = self.names[kind]
            record.fill_done_at = now
            self.trace.record(
                col.job[row].job_id, name, _FILL, record.dispatched_at, now, arrays
            )
            replicas = profile.replicas(arrays)
            rep_time = profile.n_iter * profile.t_replica_unit * (replicas - 1)
            rep_bytes = profile.fill_bytes * (replicas - 1)
            if rep_bytes > 0:
                self.ledger.add(
                    _REPLICATION,
                    name,
                    rep_bytes * col.spec[row].fill_energy_pj_per_byte * 1e-12,
                )
            if injector is not None:
                rep_time *= injector.time_scale(kind)
                if rep_bytes > 0:
                    wear = injector.record_fill(kind, rep_bytes)
                    if wear is not None:
                        sim.after(0.0, self.fire_fault, wear)
            col.state[row] = PHASE_REPLICATE_DONE
            sim.after_row(rep_time, row)
        elif state == PHASE_REPLICATE_DONE:
            record = col.record[row]
            arrays = col.dispatch[row].arrays
            record.replicate_done_at = now
            if now > record.fill_done_at:
                self.trace.record(
                    col.job[row].job_id, self.names[kind], _REPLICATE,
                    record.fill_done_at, now, arrays,
                )
            profile = col.profile[row]
            compute = profile.n_iter * profile.compute_time(arrays)
            if injector is not None:
                compute *= injector.time_scale(kind)
            col.t0[row] = now
            col.state[row] = PHASE_COMPUTE_DONE
            sim.after_row(compute, row)
        else:  # PHASE_COMPUTE_DONE
            record = col.record[row]
            job = col.job[row]
            name = self.names[kind]
            record.finished_at = now
            self.trace.record(
                job.job_id, name, _COMPUTE, col.t0[row], now, col.dispatch[row].arrays
            )
            self.ledger.add(_COMPUTE_ENERGY, name, col.profile[row].compute_energy_j)
            if flight is not None:
                flight.active = False
                flight.done = True
                flight.allocation = None
            device = self.devices[kind]
            device.allocator.free(col.alloc[row])
            device.running -= 1
            self.note_occupancy(device)
            col.release(row)
            self.policy.notify_completion(job, kind, now)
            if self.predictor_hook is not None:
                self.predictor_hook(job, kind, now, self.metrics)
            if self.open_loop is not None:
                self.open_loop.on_finished(job.job_id)
            if injector is not None:
                # Freed capacity goes to migrated/retried jobs first.
                self.drain_parked(kind)
            self.pump()

    def launch(self, dispatch: Dispatch, requeued: bool = False) -> None:
        kind, job = dispatch.kind, dispatch.job
        spec = self.system.specs[kind]
        device = self.devices[kind]
        profile = job.profile(kind)
        arrays = dispatch.arrays
        if arrays > spec.num_arrays:
            raise DispatchError(
                f"{job.job_id}: requested {arrays} arrays on "
                f"{kind} (device has {spec.num_arrays})"
            )
        sim = self.sim
        now = sim.now
        injector = self.injector
        flight: _Flight | None = None
        if injector is not None:
            flight = self.flights.get(job.job_id)
            if flight is None:
                flight = _Flight(dispatch=dispatch)
                self.flights[job.job_id] = flight
            if flight.active or flight.done:
                raise DispatchError(f"job {job.job_id} dispatched twice")
            flight.with_policy = False
            flight.dispatch = dispatch
            health = injector.health[kind]
            if not health.alive:
                # The policy raced a failure it has not absorbed:
                # migrate the job instead of crashing the batch.
                self.requeue_elsewhere(flight, f"{kind.value} is failed")
                return
            if health.stalled(now):
                self.park(flight)
                return
            if requeued and (
                device.running >= device.slots
                or device.allocator.largest_free_run < arrays
            ):
                # A re-queued job must not crash the run on a full
                # device -- it waits for room instead.
                self.park(flight)
                return
        if device.running >= device.slots:
            raise DispatchError(
                f"{job.job_id}: {self.names[kind]} already runs {device.running} "
                f"jobs (limit {device.slots}); the policy over-subscribed the "
                "device's job slots"
            )
        allocation = device.allocator.allocate(arrays)
        device.running += 1
        name = self.names[kind]
        record = self.rows.get(job.job_id)
        if record is None:
            record = self.rows[job.job_id] = JobRecord(
                job_id=job.job_id,
                kind=kind,
                arrays=arrays,
                dispatched_at=now,
                decided_device=name,
                decided_arrays=arrays,
                decided_at=now,
                predicted_time=dispatch.predicted_time,
                queue_depth=self.policy.pending(),
            )
        elif flight is None:
            raise DispatchError(f"job {job.job_id} dispatched twice")
        else:
            record.kind = kind
            record.arrays = arrays
            record.dispatched_at = now
            record.fill_done_at = 0.0
            record.replicate_done_at = 0.0
            record.attempts += 1
        counter = device.jobs_counter
        if counter is None:
            counter = device.jobs_counter = self.metrics.counter(f"{name}.jobs")
        counter.inc()
        self.note_occupancy(device)
        attempt = 0
        if flight is not None:
            if flight.pending_retry:
                flight.pending_retry = False
                self.metrics.counter("jobs.retried").inc()
                runtime_counter_inc("jobs.retried")
            flight.attempt += 1
            flight.active = True
            flight.allocation = allocation
            attempt = flight.attempt
        bytes_total = profile.fill_bytes * profile.n_iter
        self.ledger.add(
            _FILL_ENERGY,
            name,
            bytes_total * spec.fill_energy_pj_per_byte * 1e-12,
        )
        if injector is not None:
            wear = injector.record_fill(kind, bytes_total)
            if wear is not None:
                sim.after(0.0, self.fire_fault, wear)

        # One flight-table row per launch; the dispatch-overhead
        # transition begins its fill.
        col = self.col
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
        col.fill_bytes[row] = float(bytes_total)
        col.state[row] = PHASE_BEGIN_FILL
        sim.after_row(DISPATCH_OVERHEAD_S, row)

    def pump(self) -> None:
        policy = self.policy
        sim = self.sim
        now = sim.now
        open_loop = self.open_loop
        if open_loop is not None:
            # Admission before dispatch: release queued arrivals up to
            # the backlog cap, offer them to the policy, count what it
            # cannot place as shed.
            released = open_loop.release(now, policy.pending())
            if released:
                rejected = policy.admit(released, now)
                open_loop.on_rejected(rejected, now)
        dispatches = policy.next_dispatches(self.view())
        launch = self.launch
        for dispatch in dispatches:
            launch(dispatch)
        pending = policy.pending()
        self.pending_gauge.set(now, pending)
        self.sample_queue_depths()
        # Time-driven policies (static global schedules) want to be
        # consulted at their next planned dispatch time.  Planned times
        # already in the past are served by the next completion event
        # instead (never self-schedule at `now`, which would spin).
        wakeup = policy.next_event_time(now)
        if wakeup is not None and wakeup > now and pending > 0:
            sim.at(wakeup, self.pump)
            return
        if not dispatches and pending > 0 and self.stuck():
            raise DispatchError(f"policy dead-locked with {pending} jobs pending")

    def stuck(self) -> bool:
        """Nothing runs, transfers, backs off, waits parked or sits out
        a stall: no future event can free capacity for the policy."""
        if any(device.running for device in self.devices.values()):
            return False
        if self.pipe.active_transfers:
            return False
        injector = self.injector
        if injector is None:
            return True
        now = self.sim.now
        return (
            self.backoffs_pending == 0
            and not any(device.parked for device in self.devices.values())
            and not any(h.stalled(now) for h in injector.health.values())
        )

    def handle_arrival(self, arrival) -> None:
        self.open_loop.on_arrival(arrival, self.sim.now)
        self.pump()
