"""The plan table every dispatch policy places jobs from.

* **One tie-break** -- on a system whose DRAM is a copy of its SRAM
  spec, a job with the same profile on both ties exactly; every policy
  queues it on DRAM (the smaller memory name), at plan time and at
  admission alike.
* **The table** -- ``admit`` keeps only live options, ``best`` ranks
  them by derate-scaled time, ``lose`` drops a memory from the
  subsystem and from every job's options, ``drop`` forgets jobs.
* **No plans, every job back** -- a policy on a table built with
  ``no_options`` hands back every arrival and every device-loss victim.
* **Losing every memory** -- the global policy hands back its
  unlaunched schedule too, so a serve where every device fails still
  accounts for every offered job.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Job, JobPerfProfile, MLIMPSystem, OraclePredictor
from repro.core.scheduler import (
    AdaptivePolicy,
    AdaptiveScheduler,
    EWTPolicy,
    EWTScheduler,
    GlobalPolicy,
    GlobalScheduler,
    LJFPolicy,
    LJFScheduler,
)
from repro.core.scheduler.adjustments import PlanTable, no_options, plan_jobs
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent, FaultKind
from repro.harness.config import gnn_system
from repro.memories import ArrayGeometry, MemoryKind, MemorySpec
from repro.serving import PoissonArrivals, ServingRuntime, Tenant

SRAM, DRAM = MemoryKind.SRAM, MemoryKind.DRAM

_SRAM_SPEC = MemorySpec(
    kind=SRAM,
    name="tie-sram",
    geometry=ArrayGeometry(64, 64),
    num_arrays=64,
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
    max_outstanding_jobs=4,
)

#: SRAM first, so "the first minimum in system order" would pick it.
TIE_SYSTEM = MLIMPSystem(specs={SRAM: _SRAM_SPEC, DRAM: replace(_SRAM_SPEC, kind=DRAM)})

_PROFILE = JobPerfProfile(
    unit_arrays=2, t_load=1e-6, t_replica_unit=1e-7, t_compute_unit=4e-5, waves_unit=8
)


def _job(job_id: str = "tie", kinds=(SRAM, DRAM)) -> Job:
    return Job(job_id=job_id, kernel="tie", profiles={k: _PROFILE for k in kinds})


_SCHEDULERS = {
    "ljf": LJFScheduler,
    "adaptive": AdaptiveScheduler,
    "global": GlobalScheduler,
    "ewt": EWTScheduler,
}


def _queued_kinds(policy) -> dict[str, MemoryKind]:
    if isinstance(policy, LJFPolicy):
        entries = list(policy._queue)
    elif isinstance(policy, GlobalPolicy):
        entries = [s.entry for s in policy._scheduled()]
    else:  # adaptive and EWT: one queue of planned entries per memory
        entries = [e for q in policy._queues.values() for e in q]
    return {e.job.job_id: e.kind for e in entries}


@pytest.mark.parametrize("name", sorted(_SCHEDULERS))
def test_exact_tie_queues_on_dram_at_plan_and_admit(name):
    scheduler = _SCHEDULERS[name](OraclePredictor())
    job = _job()
    planned = scheduler.plan([job], TIE_SYSTEM)
    assert _queued_kinds(planned) == {"tie": DRAM}
    admitting = scheduler.plan([], TIE_SYSTEM, upcoming=[job])
    assert admitting.admit([job], 0.0) == []
    assert _queued_kinds(admitting) == {"tie": DRAM}


def _options(job: Job) -> dict:
    return plan_jobs([job], OraclePredictor(), TIE_SYSTEM)[0]


def test_table_admit_best_derate_lose_drop():
    table = PlanTable(TIE_SYSTEM, _options)
    a, b = _job("a"), _job("b", kinds=(SRAM,))
    assert set(table.admit(a)) == {SRAM, DRAM}
    assert table.best("a").kind is DRAM
    table.derate(DRAM, 0.5)
    assert table.factor(DRAM) == 0.5 and table.factor(SRAM) == 1.0
    best = table.best("a")
    assert best.kind is SRAM
    assert table.scaled(table.plans["a"][DRAM]) == best.est_time / 0.5
    table.lose(SRAM)
    assert table.live == [DRAM] and table.system.kinds == [DRAM]
    assert set(table.plans["a"]) == {DRAM}
    assert table.admit(b) == {} and "b" not in table.plans
    assert table.best("b") is None
    table.drop([a])
    assert table.plans == {}
    table.lose(DRAM)
    assert table.live == [] and table.system is None
    assert table.admit(a) == {}


def _planless(name: str):
    table = PlanTable(TIE_SYSTEM, no_options)
    return {
        "ljf": lambda: LJFPolicy(table, []),
        "adaptive": lambda: AdaptivePolicy(table, {}),
        "global": lambda: GlobalPolicy(table, []),
        "ewt": lambda: EWTPolicy(table),
    }[name]()


@pytest.mark.parametrize("name", sorted(_SCHEDULERS))
def test_planless_policy_hands_every_job_back(name):
    policy = _planless(name)
    jobs = [_job("x"), _job("y")]
    assert policy.admit(jobs, 0.0) == jobs
    assert policy.device_lost(SRAM, jobs, 0.0) == jobs
    assert policy.pending() == 0
    assert policy.table.plans == {}


_ALL_LOST = FaultPlan(
    events=tuple(
        FaultEvent(kind=FaultKind.FAIL, device=kind, time=4e-4)
        for kind in (MemoryKind.SRAM, MemoryKind.RERAM, MemoryKind.DRAM)
    )
)


@pytest.mark.parametrize("name", sorted(_SCHEDULERS))
def test_losing_every_memory_accounts_for_every_job(name):
    served = ServingRuntime(gnn_system(), scheduler=name, max_backlog=32).serve(
        PoissonArrivals(rate=1e6, horizon=0.001, seed=13, tenants=("a",)),
        tenants=[Tenant("a")],
        slo_s=1e-4,
        faults=_ALL_LOST,
    )
    report = served.report
    failed = len(served.result.failed_jobs)
    assert failed > 0
    assert report.offered == report.completed + report.shed + failed
    assert all(r.finished_at > 0 for r in served.result.records.values())
