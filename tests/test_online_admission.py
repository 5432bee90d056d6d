"""Online admission: plan tables stay backlog-sized, Algorithm 1 only
ranks the queued jobs.

* **Plan-table pruning** -- the LJF, adaptive, global and EWT policies
  drop a job's plans when it completes, fails or is handed back
  unplaced, so after every ``admit`` in a seeded serve the table's keys
  are exactly the queued and in-flight job ids.  A seeded device loss
  shows that in-flight victims still find their plans and re-place on
  the survivors; with SRAM-only jobs in the stream, the jobs the loss
  strands leave no plans behind.
* **Extra plan-table entries are inert** -- ``inter_queue_adjust``
  with a table that also holds finished jobs and options on lost
  kinds returns the same queues (entry identity and order) as the
  call with the table pre-filtered to the queued jobs on live kinds.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core import Job, JobPerfProfile, MLIMPSystem
from repro.core.perfmodel import ScaleFreeEstimate
from repro.core.scheduler import AdaptivePolicy, EWTPolicy, GlobalPolicy, LJFPolicy
from repro.core.scheduler.adjustments import PlannedJob, inter_queue_adjust
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent, FaultKind, RetryPolicy
from repro.harness.config import gnn_system
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from repro.serving.workload import OpenWorkload


def _queued_ids(policy) -> set[str]:
    if isinstance(policy, LJFPolicy):
        return {e.job.job_id for e in policy._queue}
    if isinstance(policy, GlobalPolicy):
        return {s.entry.job.job_id for s in policy._scheduled()}
    # Adaptive and EWT: one queue of planned entries per memory.
    return {e.job.job_id for q in policy._queues.values() for e in q}


def _plans(policy) -> dict:
    return policy.table.plans


class _Watch:
    """Tracks in-flight jobs (dispatched, not yet completed, failed or
    handed back) from the outside by wrapping the policy class's
    hooks."""

    def __init__(self, monkeypatch, cls) -> None:
        self.inflight: set[str] = set()
        self.admits = 0
        self.lost_calls: list[tuple[list[str], list[str]]] = []
        self.policies: list = []
        watch = self
        next_dispatches = cls.next_dispatches
        notify_completion = cls.notify_completion
        notify_failed = cls.notify_failed
        admit = cls.admit
        device_lost = cls.device_lost

        def wrapped_next(policy, view):
            if policy not in watch.policies:
                watch.policies.append(policy)
            dispatches = next_dispatches(policy, view)
            watch.inflight.update(d.job.job_id for d in dispatches)
            return dispatches

        def wrapped_complete(policy, job, kind, now):
            notify_completion(policy, job, kind, now)
            watch.inflight.discard(job.job_id)

        def wrapped_failed(policy, job, now):
            notify_failed(policy, job, now)
            watch.inflight.discard(job.job_id)

        def wrapped_admit(policy, jobs, now):
            unplaced = admit(policy, jobs, now)
            if jobs:
                watch.admits += 1
                expected = _queued_ids(policy) | watch.inflight
                assert set(_plans(policy)) == expected
            return unplaced

        def wrapped_lost(policy, kind, jobs, now):
            victims = [job.job_id for job in jobs]
            # Victims are still in flight, so their plans survive.
            assert set(victims) <= set(_plans(policy))
            unplaced = device_lost(policy, kind, jobs, now)
            watch.lost_calls.append((victims, [job.job_id for job in unplaced]))
            # Handed back to the dispatcher's fallback: no longer ours.
            watch.inflight.difference_update(job.job_id for job in unplaced)
            assert set(_plans(policy)) == _queued_ids(policy) | watch.inflight
            return unplaced

        monkeypatch.setattr(cls, "next_dispatches", wrapped_next)
        monkeypatch.setattr(cls, "notify_completion", wrapped_complete)
        monkeypatch.setattr(cls, "notify_failed", wrapped_failed)
        monkeypatch.setattr(cls, "admit", wrapped_admit)
        monkeypatch.setattr(cls, "device_lost", wrapped_lost)


_POLICIES = {
    "ljf": LJFPolicy,
    "adaptive": AdaptivePolicy,
    "global": GlobalPolicy,
    "ewt": EWTPolicy,
}


class _SramOnlyEvery(OpenWorkload):
    """Every ``period``-th arrival fits SRAM only."""

    def __init__(self, system, period: int) -> None:
        super().__init__(system)
        self.period = period

    def make_job(self, index, tenant, rng, hint):
        job = super().make_job(index, tenant, rng, hint)
        if index % self.period:
            return job
        return replace(job, profiles={MemoryKind.SRAM: job.profiles[MemoryKind.SRAM]})


def _serve(
    scheduler: str,
    rate: float,
    faults: FaultPlan | None = None,
    workload: OpenWorkload | None = None,
):
    system = gnn_system()
    return ServingRuntime(system, scheduler=scheduler, max_backlog=32).serve(
        PoissonArrivals(rate=rate, horizon=0.001, seed=13, tenants=("a", "b")),
        tenants=[Tenant("a"), Tenant("b", weight=2.0)],
        slo_s=1e-4,
        faults=faults,
        workload=workload,
    )


_SRAM_LOSS = FaultPlan(
    events=(FaultEvent(kind=FaultKind.FAIL, device=MemoryKind.SRAM, time=4e-4),)
)


@pytest.mark.parametrize("scheduler", sorted(_POLICIES))
def test_plan_table_is_queued_plus_inflight_after_every_admit(
    monkeypatch, scheduler
):
    watch = _Watch(monkeypatch, _POLICIES[scheduler])
    served = _serve(scheduler, rate=1e6)
    assert watch.admits > 100
    assert served.report.completed > 0
    # Drained: every completed job's plans are gone.
    assert not watch.inflight
    assert [_plans(policy) for policy in watch.policies] == [{}]


@pytest.mark.parametrize("scheduler", sorted(_POLICIES))
def test_device_loss_victims_replace_after_pruning(monkeypatch, scheduler):
    watch = _Watch(monkeypatch, _POLICIES[scheduler])
    served = _serve(scheduler, rate=1e6, faults=_SRAM_LOSS)
    victims = [job_id for call, _ in watch.lost_calls for job_id in call]
    assert victims, "the loss must catch jobs in flight"
    # Every victim found its plans and went back into the policy.
    assert all(not unplaced for _, unplaced in watch.lost_calls)
    assert not served.result.failed_jobs
    for job_id in victims:
        assert served.result.records[job_id].kind is not MemoryKind.SRAM


@pytest.mark.parametrize("scheduler", sorted(_POLICIES))
def test_device_loss_strands_sram_only_jobs_without_leaking_plans(
    monkeypatch, scheduler
):
    watch = _Watch(monkeypatch, _POLICIES[scheduler])
    served = _serve(
        scheduler,
        rate=1e6,
        faults=_SRAM_LOSS,
        workload=_SramOnlyEvery(gnn_system(), period=5),
    )
    # The loss strands SRAM-only jobs: queued or in flight ones fail,
    # later arrivals are shed at admission.
    assert any(unplaced for _, unplaced in watch.lost_calls)
    assert served.result.failed_jobs
    assert sum(t.shed_unplaced for t in served.report.tenants.values()) > 0
    assert not watch.inflight
    assert [_plans(policy) for policy in watch.policies] == [{}]


@pytest.mark.parametrize("scheduler", sorted(_POLICIES))
def test_stall_failures_drop_plans(monkeypatch, scheduler):
    watch = _Watch(monkeypatch, _POLICIES[scheduler])
    faults = FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.STALL, device=MemoryKind.SRAM, time=4e-4, duration=1e-3
            ),
        ),
        retry=RetryPolicy(max_attempts=2),
    )
    served = _serve(scheduler, rate=1e6, faults=faults)
    # In-flight SRAM jobs exhaust their retries: the dispatcher fails
    # them without a completion, and their plans still go.
    assert served.result.failed_jobs
    assert not watch.inflight
    assert [_plans(policy) for policy in watch.policies] == [{}]


# ----------------------------------------------------------------------
# inter_queue_adjust: the plan table's extra entries are never read
# ----------------------------------------------------------------------
_KINDS = (MemoryKind.SRAM, MemoryKind.RERAM, MemoryKind.DRAM)


def _spec(kind: MemoryKind, arrays: int, slots: int) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"eq-{kind.value}",
        geometry=ArrayGeometry(64, 64),
        num_arrays=arrays,
        alus_per_array=64,
        clock_mhz=1000.0,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=4,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=100.0,
        copy_bandwidth_gbps=100.0,
        max_outstanding_jobs=slots,
    )


def _instance(seed: int):
    """Queues over the live kinds, plus a plan table that also holds
    finished jobs and every job's options on lost kinds."""
    rng = random.Random(seed)
    system = MLIMPSystem(
        specs={k: _spec(k, rng.choice((32, 64, 128)), rng.randint(1, 4)) for k in _KINDS}
    )
    live = rng.sample(_KINDS, rng.randint(2, 3))
    plans: dict[str, dict[MemoryKind, PlannedJob]] = {}
    queues: dict[MemoryKind, list[PlannedJob]] = {k: [] for k in live}
    n_queued = rng.randint(1, 40)
    for i in range(n_queued + rng.randint(0, 40)):
        kinds = rng.sample(_KINDS, rng.randint(1, 3))
        if i < n_queued and not set(kinds) & set(live):
            kinds.append(live[0])
        # Coarse times make equal-time ties (broken by job id) common.
        options = {}
        profiles = {}
        for kind in kinds:
            unit = rng.choice((1, 2, 4))
            est = ScaleFreeEstimate(
                unit_arrays=unit,
                t_load=0.0,
                t_replica_unit=0.0,
                t_compute_unit=rng.randint(1, 6) * 1e-5,
                beta=1.0,
            )
            profiles[kind] = JobPerfProfile(
                unit_arrays=unit,
                t_load=0.0,
                t_replica_unit=0.0,
                t_compute_unit=est.t_compute_unit,
                fill_bytes=float(rng.randint(0, 8)) * 4e6,
            )
            options[kind] = (unit * rng.randint(1, 4), est)
        job = Job(job_id=f"j{seed}-{i}", kernel="eq", profiles=profiles)
        plans[job.job_id] = {
            kind: PlannedJob(job=job, kind=kind, arrays=arrays, estimate=est)
            for kind, (arrays, est) in options.items()
        }
        if i < n_queued:
            # Queue on a random live option (not the best one), so
            # the balancer has work to do.
            kind = rng.choice([k for k in live if k in plans[job.job_id]])
            queues[kind].append(plans[job.job_id][kind])
    queued = {e.job.job_id for q in queues.values() for e in q}
    filtered = {
        job_id: {k: e for k, e in options.items() if k in queues}
        for job_id, options in plans.items()
        if job_id in queued
    }
    return queues, plans, filtered, system.subset(live)


def _shape(queues) -> dict:
    return {kind: [id(e) for e in entries] for kind, entries in queues.items()}


def test_inter_queue_adjust_ignores_unqueued_plans_and_lost_kinds():
    moved = 0
    for seed in range(240):
        queues, plans, filtered, system = _instance(seed)
        full = inter_queue_adjust(queues, plans, system)
        reference = inter_queue_adjust(queues, filtered, system)
        assert _shape(full) == _shape(reference), seed
        moved += _shape(full) != _shape(queues)
    # The comparison is only meaningful if Algorithm 1 migrates jobs.
    assert moved >= 100
