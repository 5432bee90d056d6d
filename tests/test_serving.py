"""Open-system serving layer: determinism, backpressure, identity.

The three load-bearing guarantees of ``repro.serving``:

* **Seeded determinism** -- the same (seed, rate, horizon) produces a
  byte-identical serve report, for every scheduler.
* **Backpressure, never deadlock** -- overload sheds (counted, per
  cause), and every offered job is either completed or shed.
* **Closed-path identity** -- an empty arrival stream adds zero sim
  events and zero metric series, so a zero-rate serve run is
  byte-identical to the closed-batch dispatcher path.
"""

from __future__ import annotations

import json

import pytest

from tests.prophelpers import SCHEDULERS, make_jobs, trace_key
from repro.core.runtime import MLIMPRuntime
from repro.core.scheduler.base import DispatchPolicy
from repro.faults import FaultPlan
from repro.harness.config import full_system, gnn_system
from repro.obs.export import result_payload
from repro.serving import (
    OpenLoop,
    OpenWorkload,
    PoissonArrivals,
    ServingRuntime,
    Tenant,
    TraceArrivals,
    build_serving_report,
)
from repro.sim.events import JobArrival


def serve_once(
    scheduler: str,
    rate: float = 2e3,
    horizon: float = 0.02,
    seed: int = 7,
    system=None,
    **kwargs,
):
    system = system or full_system()
    runtime = ServingRuntime(
        system, scheduler=scheduler, max_backlog=kwargs.pop("max_backlog", 32)
    )
    return runtime.serve(
        PoissonArrivals(
            rate=rate, horizon=horizon, seed=seed, tenants=("a", "b", "c")
        ),
        tenants=[
            Tenant("a"),
            Tenant("b", weight=2.0),
            Tenant("c", queue_limit=kwargs.pop("queue_limit", 64)),
        ],
        slo_s=kwargs.pop("slo_s", 0.01),
        **kwargs,
    )


# ======================================================================
# Seeded determinism
# ======================================================================
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_same_seed_byte_identical_report(scheduler):
    first = serve_once(scheduler)
    second = serve_once(scheduler)
    assert json.dumps(first.report.as_dict(), sort_keys=True) == json.dumps(
        second.report.as_dict(), sort_keys=True
    )
    assert trace_key(first.result) == trace_key(second.result)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_different_seed_changes_timeline(scheduler):
    a = serve_once(scheduler, seed=1)
    b = serve_once(scheduler, seed=2)
    assert trace_key(a.result) != trace_key(b.result)


def test_poisson_generation_is_pure():
    process = PoissonArrivals(rate=5e3, horizon=0.01, seed=3, tenants=("a",))
    workload = OpenWorkload(full_system())
    first = process.generate(workload.make_job)
    second = process.generate(workload.make_job)
    assert [(a.time, a.seq, a.tenant) for a in first] == [
        (a.time, a.seq, a.tenant) for a in second
    ]
    assert all(a.time < 0.01 for a in first)
    assert [a.seq for a in first] == sorted(a.seq for a in first)


# ======================================================================
# Closed-path identity (empty arrivals)
# ======================================================================
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_zero_rate_serve_byte_identical_to_closed_batch(scheduler):
    closed_runtime = MLIMPRuntime(full_system(), scheduler=scheduler)
    closed_runtime.submit_many(make_jobs(11))
    closed = closed_runtime.run(label=scheduler)

    serving = ServingRuntime(full_system(), scheduler=scheduler)
    open_run = serving.serve(
        PoissonArrivals(rate=0.0, horizon=1.0, seed=1, tenants=("a",)),
        tenants=[Tenant("a")],
        slo_s=0.01,
        initial_jobs=make_jobs(11),
        label=scheduler,
    )
    assert json.dumps(result_payload(closed), sort_keys=True) == json.dumps(
        result_payload(open_run.result), sort_keys=True
    )
    # The inert loop leaves no serving metric series behind.
    assert not any(
        name.startswith("serving.") for name in open_run.result.metrics.counters
    )
    report = open_run.report
    assert report.offered == 0 and report.shed == 0
    assert report.slo_attainment == 1.0


# ======================================================================
# Backpressure and shedding
# ======================================================================
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_overload_sheds_and_drains(scheduler):
    run = serve_once(
        scheduler,
        rate=1e6,
        horizon=0.005,
        seed=3,
        system=gnn_system(),
        max_backlog=4,
        queue_limit=2,
        slo_s=0.001,
    )
    report = run.report
    assert report.offered > 0
    assert report.shed > 0, "overload run must shed"
    assert report.completed + report.shed == report.offered
    # Sheds are counted in the run metrics, split by cause.
    shed_counted = (
        run.result.metrics.counter("serving.shed.queue_full").value
        + run.result.metrics.counter("serving.shed.unplaced").value
    )
    assert shed_counted == report.shed
    # Every completed arrival has a non-negative sojourn.
    for job_id, arrived in run.open_loop.arrival_times.items():
        if job_id in run.result.records:
            assert run.result.records[job_id].finished_at >= arrived


def test_bounded_queue_sheds_at_limit():
    jobs = make_jobs(5, count=4)
    arrivals = [
        JobArrival(time=0.0, seq=i, tenant="a", job=job)
        for i, job in enumerate(jobs)
    ]
    loop = OpenLoop(arrivals, tenants=[Tenant("a", queue_limit=2)])
    for arrival in arrivals:
        loop.on_arrival(arrival, arrival.time)
    stats = loop.tenant_stats()["a"]
    assert stats["offered"] == 4
    assert stats["queued"] == 2
    assert stats["shed_queue_full"] == 2


def test_release_respects_max_backlog():
    jobs = make_jobs(6, count=6)
    arrivals = [
        JobArrival(time=0.0, seq=i, tenant="a", job=job)
        for i, job in enumerate(jobs)
    ]
    loop = OpenLoop(arrivals, tenants=[Tenant("a")], max_backlog=3)
    for arrival in arrivals:
        loop.on_arrival(arrival, 0.0)
    assert len(loop.release(0.0, policy_backlog=0)) == 3
    assert len(loop.release(0.0, policy_backlog=3)) == 0
    assert len(loop.release(0.0, policy_backlog=1)) == 2
    assert sum(s["queued"] for s in loop.tenant_stats().values()) == 1


def test_stride_release_is_weighted_and_deterministic():
    jobs = make_jobs(8, count=8)
    arrivals = []
    for i, job in enumerate(jobs):
        tenant = "heavy" if i < 4 else "light"
        arrivals.append(JobArrival(time=0.0, seq=i, tenant=tenant, job=job))
    loop = OpenLoop(
        arrivals,
        tenants=[Tenant("heavy", weight=2.0), Tenant("light", weight=1.0)],
        max_backlog=3,
    )
    for arrival in arrivals:
        loop.on_arrival(arrival, 0.0)
    released = loop.release(0.0, policy_backlog=0)
    tenants = [loop.job_tenants[job.job_id] for job in released]
    # Stride with weights 2:1 admits heavy, light, heavy in the first
    # three slots (pass values 0.5/1.0 vs 1.0/2.0, name tie-break).
    assert tenants == ["heavy", "light", "heavy"]


def test_default_policy_rejects_arrivals_as_unplaced():
    class Inert(DispatchPolicy):
        def next_dispatches(self, view):
            return []

        def pending(self):
            return 0

    jobs = make_jobs(9, count=2)
    policy = Inert()
    rejected = policy.admit(jobs, 0.0)
    assert rejected == jobs


# ======================================================================
# Trace arrivals
# ======================================================================
def test_trace_arrivals_replay(tmp_path):
    entries = [
        {"time": 0.0002, "tenant": "b", "kernel": "gemm"},
        {"time": 0.0001, "tenant": "a"},
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(entries))
    workload = OpenWorkload(full_system())
    arrivals = TraceArrivals(path=str(path), seed=1).generate(workload.make_job)
    assert [a.tenant for a in arrivals] == ["a", "b"]  # sorted by time
    assert arrivals[1].job.kernel == "gemm"  # hint pins the shape
    assert arrivals[0].time == pytest.approx(0.0001)


def test_trace_arrivals_from_entries_runs(tmp_path):
    entries = [
        {"time": 0.00001 * i, "tenant": "a" if i % 2 else "b"}
        for i in range(10)
    ]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(entries))
    runtime = ServingRuntime(full_system(), scheduler="adaptive")
    run = runtime.serve(
        TraceArrivals(path=str(path), seed=2),
        tenants=[Tenant("a"), Tenant("b")],
        slo_s=0.01,
    )
    assert run.report.completed == 10
    assert run.report.shed == 0


def test_trace_arrivals_validates_entries(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"tenant": "a"}]))
    with pytest.raises(ValueError, match="needs 'time' and 'tenant'"):
        TraceArrivals(path=str(path)).generate(lambda *a: None)


@pytest.mark.parametrize(
    "entries, needle",
    [
        ([{"time": 0.1, "tenant": "a"}, 5], "entry 1 is not an object"),
        ([{"time": None, "tenant": "a"}], "entry 0 'time' must be a finite"),
        ([{"time": "0.1", "tenant": "a"}], "entry 0 'time' must be a finite"),
        ([{"time": float("nan"), "tenant": "a"}], "entry 0 'time' must be a finite"),
        ([{"time": True, "tenant": "a"}], "entry 0 'time' must be a finite"),
        ([{"time": -1.0, "tenant": "a"}], "entry 0 'time' must be a finite"),
    ],
)
def test_trace_entries_checked_on_both_paths(tmp_path, entries, needle):
    """A trace is checked whether it is read or replayed."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError, match=needle):
        TraceArrivals(path=str(path)).entries()
    with pytest.raises(ValueError, match=needle):
        TraceArrivals(path=str(path)).generate(lambda *a: None)


# ======================================================================
# Validation and report schema
# ======================================================================
def test_job_arrival_rejects_negative_time():
    with pytest.raises(ValueError, match="non-negative"):
        JobArrival(time=-1.0, seq=0)


def test_open_loop_validates_tenants_and_jobs():
    job = make_jobs(1, count=1)[0]
    with pytest.raises(ValueError, match="unknown tenant"):
        OpenLoop(
            [JobArrival(time=0.0, seq=0, tenant="ghost", job=job)],
            tenants=[Tenant("a")],
        )
    with pytest.raises(ValueError, match="carries no job"):
        OpenLoop(
            [JobArrival(time=0.0, seq=0, tenant="a")], tenants=[Tenant("a")]
        )
    with pytest.raises(ValueError, match="max_backlog"):
        OpenLoop([], tenants=[Tenant("a")], max_backlog=0)
    with pytest.raises(ValueError, match="weight"):
        Tenant("a", weight=0.0)


def test_report_schema_and_render():
    run = serve_once("adaptive")
    payload = run.report.as_dict()
    for key in (
        "scheduler",
        "makespan",
        "slo_ms",
        "offered",
        "completed",
        "shed",
        "shed_rate",
        "slo_attainment",
        "tenants",
        "utilisation",
    ):
        assert key in payload
    for tenant_payload in payload["tenants"].values():
        for key in (
            "offered",
            "admitted",
            "completed",
            "shed_queue_full",
            "shed_unplaced",
            "shed_rate",
            "sojourn_ms",
            "slo_attainment",
        ):
            assert key in tenant_payload
        assert set(tenant_payload["sojourn_ms"]) == {"mean", "p50", "p95", "p99"}
    rendered = str(run.report)
    assert "attainment" in rendered and "tenant" in rendered
    with pytest.raises(ValueError, match="slo"):
        build_serving_report(run.result, run.open_loop, slo_s=0.0)


# ======================================================================
# Composition with fault injection
# ======================================================================
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_serving_composes_with_fault_plan(scheduler):
    faults = FaultPlan.random(
        seed=20, devices=gnn_system().kinds, horizon_s=0.005
    )
    run = serve_once(
        scheduler,
        rate=3e5,
        horizon=0.005,
        seed=20,
        system=gnn_system(),
        faults=faults,
    )
    report = run.report
    failed = len(run.result.failed_jobs)
    assert report.completed + report.shed + failed == report.offered
    assert run.result.fault_summary is not None


# ======================================================================
# Predictive admission (PR 9)
# ======================================================================
from repro.serving import PredictiveAdmission  # noqa: E402
from tests.prophelpers import serve_overloaded  # noqa: E402


@pytest.mark.parametrize("scheduler", ("adaptive", "ewt"))
def test_admission_replay_byte_identical(scheduler):
    """Seeded replay with the predictive gate on is deterministic."""
    first = serve_overloaded(scheduler, admission="predictive")
    second = serve_overloaded(scheduler, admission="predictive")
    assert json.dumps(first.report.as_dict(), sort_keys=True) == json.dumps(
        second.report.as_dict(), sort_keys=True
    )
    assert trace_key(first.result) == trace_key(second.result)


def test_admission_off_byte_identical_to_baseline():
    """admission=None and admission="shed" both take the exact
    historical serve path: same report bytes, same trace, no
    admission-only schema keys, no extra metric series."""
    baseline = serve_overloaded("adaptive", admission=None)
    shed = serve_overloaded("adaptive", admission="shed")
    base_json = json.dumps(baseline.report.as_dict(), sort_keys=True)
    assert base_json == json.dumps(shed.report.as_dict(), sort_keys=True)
    assert trace_key(baseline.result) == trace_key(shed.result)
    assert '"shed_predicted"' not in base_json
    assert '"admission"' not in base_json
    assert not any(
        name == "serving.shed.predicted"
        or name.startswith("serving.shed.predicted.")
        for name in baseline.result.metrics.counters
    )


def test_predictive_admission_improves_attainment_under_overload():
    """The acceptance bar: on the overloaded trace the predictive gate
    sheds at arrival time and lifts SLO attainment over shed-only."""
    baseline = serve_overloaded("adaptive", admission=None)
    gated = serve_overloaded("adaptive", admission="predictive")
    assert gated.report.shed_predicted > 0
    assert (
        gated.report.slo_attainment > baseline.report.slo_attainment
    )
    # Accounting still closes on both sides of the gate.
    for run in (baseline, gated):
        report = run.report
        failed = len(run.result.failed_jobs)
        assert report.completed + report.shed + failed == report.offered
    # The gate's rejections are itemised per tenant and in the render.
    payload = gated.report.as_dict()
    assert payload["admission"] == "predictive"
    assert payload["shed_predicted"] == sum(
        t["shed_predicted"] for t in payload["tenants"].values()
    )
    rendered = str(gated.report)
    assert "admission[predictive]" in rendered
    assert "shed_predicted" in rendered


def test_predictive_admission_bookkeeping():
    """Unit-level: outstanding work grows on admit, drains on release,
    and the accumulator re-anchors to zero when the system empties."""
    import random

    from repro.core.predictor import OraclePredictor

    system = gnn_system()
    gate = PredictiveAdmission(
        predictor=OraclePredictor(), system=system, slo_s=1.0
    )
    tenant = Tenant("a")
    job = OpenWorkload(system).make_job(0, "a", random.Random(1), {})
    assert gate.decide(job, tenant, now=0.0)
    assert gate.outstanding and gate.admitted == 1
    gate.release(job.job_id)
    assert not gate.outstanding
    assert gate._outstanding_work == 0.0
    # Releasing an unknown job is a no-op (shed jobs were never
    # recorded).
    gate.release("never-admitted")
    # An unserveable SLO rejects at the gate.
    strict = PredictiveAdmission(
        predictor=OraclePredictor(), system=system, slo_s=1e-12
    )
    assert not strict.decide(job, tenant, now=0.0)
    assert strict.rejected == 1 and not strict.outstanding
    with pytest.raises(ValueError, match="slo"):
        PredictiveAdmission(
            predictor=OraclePredictor(), system=system, slo_s=0.0
        )
    with pytest.raises(ValueError, match="margin"):
        PredictiveAdmission(
            predictor=OraclePredictor(), system=system, slo_s=1.0, margin=0.0
        )
    with pytest.raises(ValueError, match="admission"):
        ServingRuntime(system).serve(
            PoissonArrivals(rate=0.0, horizon=0.0, seed=0, tenants=("a",)),
            tenants=[Tenant("a")],
            slo_s=0.01,
            admission="bogus",
        )


def test_comparison_table_quantiles_are_nearest_rank(monkeypatch):
    """The closed-vs-open table reads its open p50/p99 as nearest rank,
    like every serving report: of 50 sojourns, p50 is the 25th value
    (index 24) and p99 the largest (index 49, not 48)."""
    from types import SimpleNamespace

    from repro.harness import serving as comparison
    from repro.harness.reporting import fmt_time

    sojourns = {f"j{i}": ("batch", (i + 1) * 1e-6) for i in range(50)}
    report = SimpleNamespace(
        makespan=1e-3, slo_attainment=1.0, shed_rate=0.0, completed=50
    )
    open_run = SimpleNamespace(report=report, result=None, open_loop=None)
    monkeypatch.setattr(
        comparison,
        "_run_pair",
        lambda scheduler, faults=None: (SimpleNamespace(makespan=1e-3), open_run),
    )
    monkeypatch.setattr(
        comparison, "completed_sojourns", lambda result, open_loop: sojourns
    )
    table = comparison._comparison_report("quantiles")
    assert table.column("open p50") == [fmt_time(25e-6)] * 3
    assert table.column("open p99") == [fmt_time(50e-6)] * 3
