"""Wall-clock spans around repro's layer boundaries, installed from outside.

:func:`install` wraps the public functions and methods of each layer
without editing ``src/``.  A module-level function is replaced in every
checkout module that holds a reference to it (``perfmodel.knee_allocation``
and ``scheduler.adjustments.knee_allocation`` alike); a method is
replaced on every class of the hierarchy that defines it.

Each span records its name, start, end, parent span, run id and an
item count (jobs offered to ``admit``, dispatches returned by
``next_dispatches``, simulator events of a ``Dispatcher.run``...).
Spans stay in memory until the run ends; then they are folded into
metrics and written out (:func:`write`).  A layer's *self time* is its
span's duration minus the durations of its child spans; calls are
strictly nested on one thread, so children never overlap.

Cluster shard workers are forked from the traced process and inherit
the wrappers.  Each worker starts an empty span table at fork and, after
every node task, writes its spans and its own counter deltas to
``spans-<pid>.json`` in the spill directory; :meth:`Tracer.collect`
merges those files into the parent's view.

:func:`layer_metrics` folds the spans into the per-layer metrics named
in ``BENCHMARK.json`` and :func:`fold_check` reconciles traced counts
with the counts repro's reports carry.  The module is not named
``trace`` so that it cannot shadow the standard library's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

#: Spans opened by the benchmark's own workload code (``workload.*``)
#: are not a repro layer: their self time is the unattributed share.
ENTRY_PREFIX = "workload."


def _process_counters() -> dict[str, float]:
    """repro's process-global counters and cache statistics, flattened."""
    from repro.obs.metrics import runtime_snapshot

    snap = runtime_snapshot()
    out = {f"counter:{k}": float(v) for k, v in snap["counters"].items()}
    for cache, stats in snap["caches"].items():
        out[f"cache:{cache}.hits"] = float(stats["hits"])
        out[f"cache:{cache}.misses"] = float(stats["misses"])
    return out


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """In-memory span table for one process."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.origin_pid = os.getpid()
        self.run_id = "setup"
        #: run id -> {"wall_s": ..., "delta": counter deltas}
        self.regions: dict[str, dict] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.items: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._baseline = _process_counters() if "repro" in sys.modules else {}

    def _after_fork(self) -> None:
        # A shard worker: forget the parent's spans, keep the run id.
        self._reset()

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.items.append(0.0)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int, items: float = 0.0) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()
        self.items[index] = items

    def count(self, name: str, amount: float) -> None:
        key = f"{self.run_id}/{name}"
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name, fn, items=None, on_return=None):
        """``fn`` with a span around every call.

        ``items(args, kwargs, result)`` gives the span's item count;
        ``on_return(args, kwargs, result)`` may record extra counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, items(args, kwargs, result) if items else 0.0)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def region(self, run_id: str):
        """Tag every span opened inside with ``run_id``; record the
        region's wall time and repro's counter deltas over it."""
        previous = self.run_id
        self.run_id = run_id
        before = _process_counters()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.regions[run_id] = {
                "wall_s": time.perf_counter() - start,
                "delta": _delta(_process_counters(), before),
            }
            self.run_id = previous

    # ------------------------------------------------------------------
    def table(self) -> dict:
        """This process's spans and counts as plain data."""
        return {
            "pid": self.pid,
            "names": self.names,
            "parents": self.parents,
            "runs": self.runs,
            "starts": self.starts,
            "ends": self.ends,
            "items": self.items,
            "counts": self.counts,
            "delta": _delta(_process_counters(), self._baseline),
        }

    def flush(self) -> None:
        """Write a shard worker's spans for the parent to merge."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.table()))
        tmp.replace(path)

    def collect(self) -> list[dict]:
        """The parent's span table followed by every worker's."""
        tables = [self.table()]
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            tables.append(json.loads(path.read_text()))
            path.unlink()
        return tables


# ======================================================================
# Installation
# ======================================================================
def _checkout_modules() -> list:
    """Loaded modules whose source lives in this checkout."""
    root = str(Path(__file__).resolve().parent.parent) + os.sep
    return [
        module
        for module in list(sys.modules.values())
        if (getattr(module, "__file__", None) or "").startswith(root)
    ]


def _patch_function(tracer, module, attr, name, items=None, on_return=None):
    original = getattr(module, attr)
    traced = tracer.wrap(name, original, items, on_return)
    for mod in _checkout_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _hierarchy(base) -> list[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _patch_method(tracer, base, attr, name, items=None, on_return=None):
    for cls in _hierarchy(base):
        if attr in cls.__dict__:
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], items, on_return))


def _len_result(args, kwargs, result) -> float:
    return float(len(result))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.cluster import placement as cluster_placement
    from repro.cluster import report as cluster_report
    from repro.cluster import runtime as cluster_runtime
    from repro.core import perfmodel
    from repro.core.dispatcher import Dispatcher
    from repro.core.predictor import MLPPredictor, PerformancePredictor
    from repro.core.scheduler import DispatchPolicy, Scheduler
    # Loaded before patching so their from-imported names are patched too.
    from repro.harness import ablations, experiments, gnn, replay  # noqa: F401
    from repro.obs import export
    from repro.serving import admission, arrivals, autoscale, report, runtime, tenants
    from repro.sim.engine import Simulator

    # sim: an event count kept apart from the engine's own ``processed``
    # (which feeds the ``DispatchResult`` counter): every callback and
    # row transition the simulator fires passes through ``fired``.
    def fired(fn):
        def counted(*args):
            tracer.count("sim.fired", 1.0)
            return fn(*args)

        return counted

    schedule, attach = Simulator.at, Simulator.attach_row_handler
    Simulator.at = lambda sim, time, callback, *args: schedule(
        sim, time, fired(callback), *args
    )
    Simulator.attach_row_handler = lambda sim, fire: attach(sim, fired(fire))

    # core.scheduler: planning (Alg. 1/2 up front) and the online path.
    _patch_method(tracer, Scheduler, "plan", "scheduler.plan")
    _patch_method(
        tracer, DispatchPolicy, "admit", "scheduler.admit",
        items=lambda args, kwargs, result: float(len(args[1])),
    )
    _patch_method(
        tracer, DispatchPolicy, "next_dispatches", "scheduler.next_dispatches",
        items=_len_result,
    )
    _patch_method(
        tracer, DispatchPolicy, "notify_completion", "scheduler.notify_completion"
    )
    # core.perfmodel allocation searches and core.predictor.
    _patch_function(tracer, perfmodel, "knee_allocation", "perfmodel.knee")
    _patch_function(tracer, perfmodel, "min_time_allocation", "perfmodel.min_time")
    _patch_method(tracer, PerformancePredictor, "estimate", "predictor.estimate")
    # core.dispatcher + sim: the event engine and phase machine.
    _patch_method(
        tracer, Dispatcher, "run", "dispatcher.run",
        items=lambda args, kwargs, result: float(
            result.metrics.counter("sim.events").value
        ),
    )
    # serving layers.
    _patch_method(tracer, tenants.OpenLoop, "on_arrival", "tenants.on_arrival")
    _patch_method(
        tracer, tenants.OpenLoop, "release", "tenants.release", items=_len_result
    )
    _patch_method(
        tracer, admission.AdmissionController, "decide", "admission.decide",
        items=lambda args, kwargs, result: 1.0 if result else 0.0,
    )
    for process in (arrivals.PoissonArrivals, arrivals.TraceArrivals):
        _patch_method(tracer, process, "generate", "arrivals.generate", items=_len_result)
    _patch_method(tracer, runtime.ServingRuntime, "serve", "serving.serve")

    def gated_arrivals(args, kwargs, result) -> None:
        # Arrivals that passed the queue-limit check reached the gate.
        if result.admission:
            tracer.count(
                "report.gate_arrivals",
                sum(t.offered - t.shed_queue_full for t in result.tenants.values()),
            )
            tracer.count("report.shed_predicted", result.shed_predicted)

    _patch_function(
        tracer, report, "build_serving_report", "report.build",
        on_return=gated_arrivals,
    )

    def scaled(args, kwargs, result) -> float:
        autoscaler, window = args[0], args[1]
        return 1.0 if autoscaler.events and autoscaler.events[-1].window == window else 0.0

    _patch_method(tracer, autoscale.Autoscaler, "observe", "autoscale.observe", items=scaled)

    # cluster: pass 1 is ClusterRuntime.serve's own time plus placement,
    # pass 2 the process pool, pass 3 the merge.
    _patch_method(tracer, cluster_runtime.ClusterRuntime, "serve", "cluster.serve")
    _patch_method(tracer, cluster_placement.PlacementPolicy, "choose", "cluster.place")
    _patch_function(tracer, cluster_report, "build_cluster_report", "cluster.merge")
    _patch_function(tracer, export, "result_payload", "cluster.export")

    def flush_worker(args, kwargs, result) -> None:
        if os.getpid() != tracer.origin_pid:
            tracer.flush()

    _patch_function(
        tracer, cluster_runtime, "_run_node_task", "cluster.node",
        on_return=flush_worker,
    )
    base_pool = cluster_runtime.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __enter__(self):
            self._bench_cpu = _cpu_seconds()
            self._bench_span = tracer.begin("cluster.pass2")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                # Workers are joined by now, so their CPU is counted.
                tracer.end(self._bench_span, float(self._max_workers))
                tracer.count("cluster.pass2_cpu_s", _cpu_seconds() - self._bench_cpu)

    cluster_runtime.ProcessPoolExecutor = TracedPool

    # harness.replay windows and checkpoints.
    _patch_function(tracer, replay, "_run_window", "replay.window")
    _patch_function(tracer, replay, "_write_checkpoint", "replay.checkpoint")
    _patch_function(tracer, replay, "load_checkpoint", "replay.checkpoint")
    # set-up: dataset construction and predictor training.
    _patch_function(tracer, gnn, "build_workload", "setup.dataset")
    _patch_method(tracer, MLPPredictor, "train", "setup.predictor_train")


# ======================================================================
# Folding spans into metrics
# ======================================================================
class _Agg:
    __slots__ = ("self_s", "dur_s", "calls", "items", "durations", "item_counts")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.dur_s = 0.0
        self.calls = 0
        self.items = 0.0
        self.durations: list[float] = []
        self.item_counts: list[float] = []


def self_times(table: dict) -> list[float]:
    """Self time in seconds of every span of one process table."""
    n = len(table["names"])
    child = [0] * n
    dur = [table["ends"][i] - table["starts"][i] for i in range(n)]
    for i, parent in enumerate(table["parents"]):
        if parent >= 0:
            child[parent] += dur[i]
    return [(dur[i] - child[i]) * 1e-9 for i in range(n)]


def aggregate(tables: list[dict], run_id: str) -> dict[str, _Agg]:
    """Per-span-name totals over one run id, across processes."""
    out: dict[str, _Agg] = {}
    for table in tables:
        selfs = self_times(table)
        for i, name in enumerate(table["names"]):
            if table["runs"][i] != run_id:
                continue
            agg = out.get(name)
            if agg is None:
                agg = out[name] = _Agg()
            dur = (table["ends"][i] - table["starts"][i]) * 1e-9
            agg.self_s += selfs[i]
            agg.dur_s += dur
            agg.calls += 1
            agg.items += table["items"][i]
            agg.durations.append(dur)
            agg.item_counts.append(table["items"][i])
    return out


def region_counts(tables: list[dict], run_id: str) -> dict[str, float]:
    out: dict[str, float] = {}
    prefix = f"{run_id}/"
    for table in tables:
        for key, value in table["counts"].items():
            if key.startswith(prefix):
                name = key[len(prefix):]
                out[name] = out.get(name, 0.0) + value
    return out


def region_delta(tracer: Tracer, tables: list[dict], run_id: str) -> dict[str, float]:
    """Counter deltas over a region: the parent's plus its workers'."""
    out = dict(tracer.regions[run_id]["delta"])
    for table in tables[1:]:
        if run_id in table["runs"]:
            for key, value in table["delta"].items():
                out[key] = out.get(key, 0.0) + value
    return out


def _hit_rate(delta: dict[str, float], cache: str) -> float:
    hits = delta.get(f"cache:{cache}.hits", 0.0)
    total = hits + delta.get(f"cache:{cache}.misses", 0.0)
    return hits / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pool_overhead(tables: list[dict], origin_pid: int) -> float:
    """Pass-2 time not covered by the slowest worker's node tasks,
    summed over the ``main`` region's pass-2 calls.

    Every call starts a fresh pool, so a worker's node tasks are the
    ones that start inside that call's span (``perf_counter_ns`` is the
    system-wide monotonic clock, so the processes' spans compare).
    """
    def spans(name: str, own: bool):
        for table in tables:
            if (table["pid"] == origin_pid) != own:
                continue
            for i, n in enumerate(table["names"]):
                if n == name and table["runs"][i] == "main":
                    yield table["pid"], table["starts"][i], table["ends"][i]

    nodes = list(spans("cluster.node", own=False))
    total = 0
    for _, start, end in spans("cluster.pass2", own=True):
        busy: dict[int, int] = {}
        for pid, s, e in nodes:
            if start <= s <= end:
                busy[pid] = busy.get(pid, 0) + e - s
        total += max(0, end - start - max(busy.values(), default=0))
    return total * 1e-9


def region_balance(tables: list[dict], run_id: str, wall_s: float) -> dict:
    """Self-time sums per process against the region's wall time."""
    out = {"wall_s": wall_s, "self_sum_s": {}, "min_self_s": 0.0}
    lows = []
    for table in tables:
        selfs = [s for s, r in zip(self_times(table), table["runs"]) if r == run_id]
        if selfs:
            out["self_sum_s"][str(table["pid"])] = sum(selfs)
            lows.append(min(selfs))
    out["min_self_s"] = min(lows, default=0.0)
    return out


def layer_metrics(
    tracer: Tracer,
    tables: list[dict],
    layer_region: str,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    Layer self times come from ``layer_region``; the cluster and replay
    internals from the ``main`` region (the timed, possibly sharded,
    run); set-up times from the ``setup`` region.
    """
    layer = aggregate(tables, layer_region)
    main = aggregate(tables, "main")
    setup = aggregate(tables, "setup")
    delta = region_delta(tracer, tables, layer_region)
    empty = _Agg()

    def g(aggs, name) -> _Agg:
        return aggs.get(name, empty)

    admit = g(layer, "scheduler.admit")
    nd = g(layer, "scheduler.next_dispatches")
    disp = g(layer, "dispatcher.run")
    decide = g(layer, "admission.decide")
    nodes = g(main, "cluster.node")
    pass2 = g(main, "cluster.pass2")
    main_counts = region_counts(tables, "main")
    windows = g(main, "replay.window").durations
    layer_self = sum(
        agg.self_s for name, agg in layer.items() if not name.startswith(ENTRY_PREFIX)
    )
    wall = tracer.regions[layer_region]["wall_s"]
    return {
        "scheduler.admit_s": admit.self_s,
        "scheduler.admit_calls": float(admit.calls),
        "scheduler.admit_us_per_job": _ratio(admit.self_s * 1e6, admit.items),
        "scheduler.plan_s": g(layer, "scheduler.plan").self_s,
        "scheduler.next_dispatches_s": nd.self_s,
        "scheduler.next_dispatches_calls": float(nd.calls),
        "scheduler.dispatch_yield": _ratio(nd.items, nd.calls),
        "scheduler.notify_completion_s": g(layer, "scheduler.notify_completion").self_s,
        "perfmodel.knee_s": g(layer, "perfmodel.knee").self_s,
        "perfmodel.knee_calls": float(g(layer, "perfmodel.knee").calls),
        "perfmodel.knee_hit_rate": _hit_rate(delta, "perfmodel.knee"),
        "perfmodel.min_time_s": g(layer, "perfmodel.min_time").self_s,
        "perfmodel.min_time_hit_rate": _hit_rate(delta, "perfmodel.min_time"),
        "perfmodel.grid_hit_rate": _hit_rate(delta, "perfmodel.grid"),
        "isa.op_cycles_hit_rate": _hit_rate(delta, "timing.op_cycles"),
        "predictor.estimate_s": g(layer, "predictor.estimate").self_s,
        "predictor.estimate_calls": float(g(layer, "predictor.estimate").calls),
        "dispatcher.self_s": disp.self_s,
        "sim.events": disp.items,
        "sim.events_per_s": _ratio(disp.items, disp.self_s),
        "tenants.on_arrival_s": g(layer, "tenants.on_arrival").self_s,
        "tenants.release_s": g(layer, "tenants.release").self_s,
        "tenants.release_calls": float(g(layer, "tenants.release").calls),
        "admission.decide_s": decide.self_s,
        "admission.decide_calls": float(decide.calls),
        "admission.accept_ratio": _ratio(decide.items, decide.calls),
        "arrivals.generate_s": g(layer, "arrivals.generate").self_s,
        "arrivals.jobs": g(layer, "arrivals.generate").items,
        "report.build_s": g(layer, "report.build").self_s,
        "autoscale.observe_s": g(layer, "autoscale.observe").self_s,
        "autoscale.scale_events": g(layer, "autoscale.observe").items,
        "cluster.pass1_s": g(main, "cluster.serve").self_s + g(main, "cluster.place").self_s,
        "cluster.place_calls": float(g(main, "cluster.place").calls),
        "cluster.link_queued_frac": extras.get("cluster.link_queued_frac", 0.0),
        "cluster.pass2_s": pass2.dur_s,
        "cluster.node_serve_s": nodes.dur_s,
        "cluster.pool_overhead_s": _pool_overhead(tables, tracer.origin_pid),
        "cluster.export_s": g(main, "cluster.export").self_s,
        "cluster.merge_s": g(main, "cluster.merge").self_s,
        # Each pass-2 span's item count is its pool's worker count.
        "cluster.parallel_efficiency": _ratio(
            main_counts.get("cluster.pass2_cpu_s", 0.0),
            sum(d * w for d, w in zip(pass2.durations, pass2.item_counts)),
        ),
        "replay.window_p50_s": statistics.median(windows) if windows else 0.0,
        "replay.window_max_s": max(windows, default=0.0),
        "replay.checkpoint_s": g(main, "replay.checkpoint").dur_s,
        "setup.dataset_s": g(setup, "setup.dataset").self_s,
        "setup.predictor_train_s": g(setup, "setup.predictor_train").self_s,
        "trace.unattributed_frac": 1.0 - _ratio(layer_self, wall),
    }


def fold_check(tracer: Tracer, tables: list[dict]) -> list[str]:
    """Traced counts must equal the counts repro's reports carry."""
    failures = []
    for run_id in tracer.regions:
        traced = aggregate(tables, run_id)
        counts = region_counts(tables, run_id)
        # The span items are the DispatchResult sim.events counters
        # (read in the shard workers when sharded).
        reported = traced.get("dispatcher.run", _Agg()).items
        fired = counts.get("sim.fired", 0.0)
        if fired != reported:
            failures.append(
                f"fold[{run_id}]: simulator fired {fired:.0f} events != "
                f"DispatchResult sim.events counters {reported:.0f}"
            )
        decide = traced.get("admission.decide", _Agg())
        if decide.calls != counts.get("report.gate_arrivals", 0.0):
            failures.append(
                f"fold[{run_id}]: admission.decide_calls {decide.calls} != "
                f"arrivals reaching the gate {counts.get('report.gate_arrivals', 0):.0f}"
            )
        if decide.calls - decide.items != counts.get("report.shed_predicted", 0.0):
            failures.append(
                f"fold[{run_id}]: traced rejections {decide.calls - decide.items:.0f} "
                f"!= report shed_predicted {counts.get('report.shed_predicted', 0):.0f}"
            )
    return failures


def write(tables: list[dict], path: Path) -> None:
    """Write the merged span tables of a traced run (one JSON document)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"tables": tables}))
