"""A finished dispatch run is freed by reference counting alone.

Each case disables the cyclic collector, turns on
``gc.DEBUG_SAVEALL`` (so a collection keeps what it finds in
``gc.garbage`` instead of freeing it), runs one dispatch path, drops
the result and collects.  Anything from a ``repro`` module that shows
up in ``gc.garbage`` was kept alive only by a reference cycle -- the
run's handlers, flights, trace or jobs waiting for a gen-2 collection.
The stdlib JSON encoder's own closures (checkpoint writing) are not
``repro`` objects and are not counted.
"""

from __future__ import annotations

import gc
import types
from pathlib import Path

import pytest

from repro.apps import combo_jobs
from repro.cluster import ClusterRuntime, ClusterSpec
from repro.core import Dispatcher, DispatchError
from repro.core.scheduler.base import DispatchPolicy
from repro.faults import FaultPlan
from repro.harness.config import full_system, gnn_system
from repro.memories import DEFAULT_SPECS
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from tests.prophelpers import counter, make_jobs, run_batch

FAULT_PLAN = Path(__file__).resolve().parents[1] / "examples" / "faultplan_smoke.json"


def _origin(obj) -> str:
    """Module an object's code comes from: a function's own module,
    a bound method's function, otherwise its type's."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    return type(obj).__module__ or ""


def _repro_garbage() -> list[str]:
    return sorted(
        {
            f"{_origin(obj)}.{type(obj).__qualname__}"
            + (f":{obj.__qualname__}" if isinstance(obj, types.FunctionType) else "")
            for obj in gc.garbage
            if _origin(obj).split(".")[0] == "repro"
        }
    )


@pytest.fixture
def cyclic_garbage():
    """Yield a checker that collects and names the ``repro`` objects
    the collector found; the collector is off in between, so only a
    cycle can keep a finished run alive until the check."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()

    def check() -> list[str]:
        gc.collect()
        found = _repro_garbage()
        gc.garbage.clear()
        return found

    try:
        yield check
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("scheduler", ["global", "adaptive"])
def test_closed_batch_leaves_no_cycles(cyclic_garbage, scheduler):
    jobs = make_jobs(4)
    result = run_batch(scheduler, jobs)  # also warms the perf-model caches
    assert len(result.records) == len(jobs)
    del result
    cyclic_garbage()  # drop what set-up left
    run_batch(scheduler, jobs)
    assert cyclic_garbage() == []


def test_predictive_serve_leaves_no_cycles(cyclic_garbage):
    runtime = ServingRuntime(gnn_system(), scheduler="adaptive", max_backlog=16)

    def serve():
        return runtime.serve(
            PoissonArrivals(rate=5e5, horizon=0.001, seed=3, tenants=("a", "b")),
            tenants=[Tenant("a", weight=2.0), Tenant("b")],
            slo_s=1e-4,
            admission="predictive",
        )

    served = serve()
    assert served.report.as_dict()["offered"] > 0
    del served
    cyclic_garbage()
    serve()
    assert cyclic_garbage() == []


def test_fault_plan_run_leaves_no_cycles(cyclic_garbage):
    plan = FaultPlan.load(FAULT_PLAN)
    jobs = combo_jobs("A", DEFAULT_SPECS)
    result = run_batch("adaptive", jobs, faults=plan)
    # The plan's stall, derate and loss all took effect, so the retry,
    # backoff and park paths ran.
    assert counter(result, "faults.injected") == 3
    assert counter(result, "jobs.requeued") > 0
    assert counter(result, "jobs.retried") > 0
    del result
    cyclic_garbage()
    run_batch("adaptive", jobs, faults=plan)
    assert cyclic_garbage() == []


def test_single_shard_cluster_leaves_no_cycles(cyclic_garbage):
    runtime = ClusterRuntime(ClusterSpec.homogeneous(2, system=gnn_system()))

    def serve():
        return runtime.serve(
            PoissonArrivals(rate=4e5, horizon=0.001, seed=5, tenants=("a",)),
            tenants=[Tenant("a")],
            slo_s=1e-4,
            shards=1,
        )

    assert serve().as_dict()
    cyclic_garbage()
    serve()
    assert cyclic_garbage() == []


class _Deadlocked(DispatchPolicy):
    """Claims one pending job and never dispatches it."""

    def pending(self) -> int:
        return 1

    def next_dispatches(self, view):
        return []


def test_failed_run_leaves_no_cycles(cyclic_garbage):
    system = full_system()

    def deadlock() -> bool:
        # A plain try/except: pytest.raises would keep the traceback,
        # and with it the run, alive past the check.
        try:
            Dispatcher(system).run(_Deadlocked())
        except DispatchError:
            return True
        return False

    assert deadlock()
    cyclic_garbage()
    assert deadlock()
    assert cyclic_garbage() == []
