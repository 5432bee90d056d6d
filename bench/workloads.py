"""The four benchmark workloads, built from repro's public entry points.

Every workload derives its inputs from one seed in :meth:`Workload.setup`
(untimed).  Its timed region is a list of *units*, each one entry-point
call of under two seconds; :meth:`Workload.run` runs every unit once
(one *round*).  Each workload reduces what a round produced to plain
data: conservation checks, the canonical payload behind ``sim_digest``,
and the simulated metrics.  Nothing here imports ``repro.harness.bench``,
so changes to ``repro bench`` cannot change these inputs.

Why these four (each stresses a different part of the scheduler stack):

* ``closed_batch`` -- the paper's path: Fig. 11 kernels, the Fig. 15
  scheduler x predictor sweep, the Fig. 19 combos, the Fig. 10 sizing
  sweep and one GNN epoch.  Work sits in perfmodel knee/grid/min_time,
  the planner's ``plan`` and the columnar dispatcher; ``admit``,
  admission, cluster and replay never run.
* ``serve_poisson`` -- an underloaded open system.  Every arrival goes
  through ``OpenLoop`` and the adaptive policy's ``admit`` (an Alg. 1
  re-balance per arrival); the shed-only gate does no work.
* ``cluster_sharded`` -- four nodes over shared links, node simulations
  in two worker processes: placement with link queueing, pickling of
  tasks and outcomes, and the merge.  Node simulations match
  ``serve_poisson``, so a cluster-only change shows here alone.
* ``replay_overload`` -- the serving layers overloaded: the predictive
  gate decides every arrival and sheds, the autoscaler resizes between
  windows, and the replay halts to a checkpoint and resumes.

The serving workloads split their traffic into several independent
streams (seeds ``seed * 8 + i``), one unit each, rather than one long
stream.  A round then takes a few seconds, so a run holds several, and
the streams' differences average out, so two seeds cost about the same
(a stream's host time grows faster than its length: the backlog that
``admit`` re-balances grows with it).  The harness is a closed loop
with one client (one simulation at a time); arrivals inside a unit are
an open-loop Poisson stream in simulated time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import time
from pathlib import Path

from repro.cluster.runtime import ClusterRuntime
from repro.cluster.spec import ClusterSpec, InterconnectSpec
from repro.core.dispatcher import Dispatcher
from repro.core.predictor import OraclePredictor
from repro.core.scheduler import GlobalScheduler
from repro.harness import experiments
from repro.harness.ablations import ablation_knee
from repro.harness.config import full_system
from repro.harness.gnn import build_workload, run_workload
from repro.harness.replay import ReplayConfig, resume_replay, run_replay
from repro.obs.metrics import nearest_rank, runtime_counters
from repro.serving import PoissonArrivals, ServingRuntime, Tenant


def digest(payload) -> str:
    """sha256 of a canonical JSON rendering (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _tenants(n: int) -> list[Tenant]:
    """The serve CLI's tenants: ``tenant-i`` with weight ``n - i``."""
    return [Tenant(f"tenant-{i}", weight=float(n - i)) for i in range(n)]


def _poisson(rate: float, horizon: float, seed: int, tenants: list[Tenant]):
    return PoissonArrivals(
        rate=rate,
        horizon=horizon,
        seed=seed,
        tenants=tuple(t.name for t in tenants),
        weights=tuple(t.weight for t in tenants),
    )


def _stream_seeds(seed: int, n: int) -> list[int]:
    """Distinct seeds for ``n`` (at most 8) streams of one workload seed."""
    return [seed * 8 + i for i in range(n)]


class Workload:
    """One set of inputs.

    Subclasses implement ``units``, ``checks``, ``canonical`` and ``sim``
    and override the other hooks where the workload has them.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        #: unit name -> {"wall_s", "events"} of the last round.
        self.parts: dict[str, dict] = {}

    @contextlib.contextmanager
    def part(self, name: str):
        """Time one unit (and trace it as ``workload.<name>``)."""
        span = self.tracer.span(f"workload.{name}") if self.tracer else contextlib.nullcontext()
        events = runtime_counters().get("sim.events", 0.0)
        start = time.perf_counter()
        with span:
            yield
        self.parts[name] = {
            "wall_s": time.perf_counter() - start,
            "events": runtime_counters().get("sim.events", 0.0) - events,
        }

    def setup(self) -> None:
        """Build the inputs (not timed)."""

    def units(self) -> list[tuple[str, object]]:
        """The timed region as ``(name, call)`` pairs, in run order."""
        raise NotImplementedError

    def run_units(self) -> dict:
        """Every unit once, by name."""
        outs = {}
        for name, call in self.units():
            with self.part(name):
                outs[name] = call()
        return outs

    def run(self):
        """One round; returns what the checks and digest read."""
        return self.run_units()

    def checks(self, out) -> list[str]:
        """Conservation failures (empty when the round is consistent)."""
        raise NotImplementedError

    def canonical(self, out):
        """The simulated output the ``sim_digest`` covers."""
        raise NotImplementedError

    def sim(self, out) -> dict[str, float]:
        """Simulated metrics: ``jobs`` completed and every simulated
        end-to-end metric (``slo_attainment``, ``admitted_frac``,
        ``sojourn_p99_ms``, ``sim_makespan_ms``)."""
        raise NotImplementedError

    def layer_extras(self, out) -> dict[str, float]:
        """Per-layer metrics read from the round's own reports."""
        return {}

    def verify(self, out) -> list[str]:
        """Traced-run cross-check against an equivalent second run."""
        return []


# ----------------------------------------------------------------------
@contextlib.contextmanager
def _tap(cls: type, attr: str, seen):
    """Call ``seen`` on what every call of ``cls.attr`` returns.

    The figure and replay entry points return summaries, not the
    dispatch results and serving reports under them; the tap reads
    those as they are returned (a handful of calls per unit, so it costs
    nothing measurable).  ``seen`` keeps only what it needs, so the
    results do not outlive their caller and add to ``peak_rss_mb``.
    """
    original = getattr(cls, attr)

    def tapped(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        seen(result)
        return result

    setattr(cls, attr, tapped)
    try:
        yield
    finally:
        setattr(cls, attr, original)


def _worst_p99_ms(reports) -> float:
    """The worst tenant's sojourn p99 over some serving reports."""
    return max(t.sojourn_p99_s for r in reports for t in r.tenants.values()) * 1e3


class ClosedBatch(Workload):
    name = "closed_batch"

    def setup(self) -> None:
        self.dataset = "collab" if self.smoke else "citation"
        self.combos = ("A",) if self.smoke else None
        # fig11/fig15 read the pinned (dataset, 3 batches, seed 3)
        # workload from the figures' cache; building it here keeps
        # dataset construction out of the timed region, as `repro
        # bench` does.
        experiments._workload(self.dataset)
        # The seeded inputs: the GNN epoch, the Fig. 10 sizing sweep and
        # the MLP predictor Fig. 15 compares against the oracle.
        self.workload = build_workload(
            self.dataset, num_batches=1 if self.smoke else 3, seed=self.seed
        )
        self.mlp = self.workload.train_predictor(epochs=20 if self.smoke else 100)

    def units(self):
        return [
            ("fig11", functools.partial(experiments.fig11_kernel_speedup, self.dataset)),
            ("fig15", functools.partial(
                experiments.fig15_scheduler_predictor, self.dataset, mlp=self.mlp
            )),
            ("fig19", functools.partial(experiments.fig19_combo_schedulers, self.combos)),
            ("fig10", functools.partial(ablation_knee, self.dataset, workload=self.workload)),
            ("gnn_epoch", functools.partial(
                run_workload, self.workload, GlobalScheduler(OraclePredictor())
            )),
        ]

    def run(self):
        tally = {"completed": 0, "failed": 0}

        def count(result) -> None:
            tally["completed"] += len(result.records)
            tally["failed"] += len(result.failed_jobs)

        with _tap(Dispatcher, "run", count):
            reports = self.run_units()
        epoch = reports.pop("gnn_epoch")
        return {"reports": reports, "epoch": epoch, "tally": tally}

    def checks(self, out) -> list[str]:
        failures = []
        if out["tally"]["failed"]:
            failures.append(f"closed_batch: {out['tally']['failed']} jobs failed")
        done = sum(len(r.records) for r in out["epoch"].results)
        offered = len(self.workload.all_jobs)
        if done != offered:
            failures.append(f"gnn_epoch: offered {offered} != completed {done}")
        return failures

    def canonical(self, out):
        return {
            "reports": {k: r.to_json_dict() for k, r in out["reports"].items()},
            "epoch_makespans": [r.makespan for r in out["epoch"].results],
        }

    def sim(self, out) -> dict[str, float]:
        # Every epoch job is released when its batch's dispatch starts
        # (simulated time 0), so its sojourn is its finish time.  A closed
        # batch has no SLO and no admission gate: every job attains and
        # every job is admitted.
        finishes = sorted(
            rec.finished_at for r in out["epoch"].results for rec in r.records.values()
        )
        return {
            "jobs": float(out["tally"]["completed"]),
            "sim_makespan_ms": out["epoch"].total_makespan * 1e3,
            "slo_attainment": 1.0,
            "admitted_frac": 1.0,
            "sojourn_p99_ms": nearest_rank(finishes, 0.99) * 1e3,
        }


# ----------------------------------------------------------------------
def _serving_sim(reports) -> dict[str, float]:
    """Simulated metrics pooled over some serving reports."""
    completed = sum(r.completed for r in reports)
    offered = sum(r.offered for r in reports)
    met = sum(r.slo_attainment * r.completed for r in reports)
    return {
        "jobs": float(completed),
        "sim_makespan_ms": sum(r.makespan for r in reports) * 1e3,
        "slo_attainment": met / completed if completed else 1.0,
        "admitted_frac": 1.0 - sum(r.shed for r in reports) / offered,
        "sojourn_p99_ms": _worst_p99_ms(reports),
    }


class ServePoisson(Workload):
    name = "serve_poisson"
    rate = 2e5
    slo_s = 25e-6

    def setup(self) -> None:
        self.system = full_system()
        self.tenants = _tenants(3)
        streams, horizon = (2, 0.5e-3) if self.smoke else (4, 2e-3)
        self.streams = [
            _poisson(self.rate, horizon, s, self.tenants)
            for s in _stream_seeds(self.seed, streams)
        ]

    def _serve(self, arrivals):
        runtime = ServingRuntime(self.system, scheduler="adaptive")
        return runtime.serve(arrivals, tenants=self.tenants, slo_s=self.slo_s)

    def units(self):
        return [
            (f"stream{i}", functools.partial(self._serve, arrivals))
            for i, arrivals in enumerate(self.streams)
        ]

    def checks(self, out) -> list[str]:
        failures = []
        for name, served in out.items():
            r = served.report
            failed = len(served.result.failed_jobs)
            if r.offered != r.completed + r.shed + failed:
                failures.append(
                    f"serve {name}: offered {r.offered} != completed {r.completed} "
                    f"+ shed {r.shed} + failed {failed}"
                )
        return failures

    def canonical(self, out):
        return {
            name: {
                "report": served.report.as_dict(),
                "records": sorted(
                    (job_id, rec.kind.value, rec.finished_at)
                    for job_id, rec in served.result.records.items()
                ),
            }
            for name, served in out.items()
        }

    def sim(self, out) -> dict[str, float]:
        return _serving_sim([served.report for served in out.values()])


# ----------------------------------------------------------------------
class ClusterSharded(Workload):
    name = "cluster_sharded"
    nodes = 4
    rate = 8e5
    slo_s = 25e-6
    shards = 2

    def setup(self) -> None:
        self.spec = ClusterSpec.homogeneous(
            self.nodes, interconnect=InterconnectSpec(contention="shared")
        )
        self.tenants = _tenants(3)
        streams, horizon = (2, 0.5e-3) if self.smoke else (4, 2e-3)
        self.streams = [
            _poisson(self.rate, horizon, s, self.tenants)
            for s in _stream_seeds(self.seed, streams)
        ]

    def _serve(self, arrivals, shards: int):
        runtime = ClusterRuntime(self.spec, scheduler="adaptive", placement="least-loaded")
        return runtime.serve(arrivals, tenants=self.tenants, slo_s=self.slo_s, shards=shards)

    def units(self):
        return [
            (f"stream{i}", functools.partial(self._serve, arrivals, self.shards))
            for i, arrivals in enumerate(self.streams)
        ]

    def checks(self, out) -> list[str]:
        failures = []
        for name, served in out.items():
            failures.extend(f"cluster {name}: {f}" for f in self._conservation(served))
        return failures

    @staticmethod
    def _conservation(served) -> list[str]:
        r, stats = served.report, served.stats
        lost = stats.total_lost
        failed = sum(section["failed"] for section in r.nodes.values())
        shed = r.shed - lost  # the merged report counts lost jobs as shed
        placed = sum(stats.placed.values())
        failures = []
        if r.offered != r.completed + shed + failed + lost:
            failures.append(
                f"offered {r.offered} != completed {r.completed} + shed "
                f"{shed} + failed {failed} + lost {lost}"
            )
        if placed + lost != r.offered:
            failures.append(f"placed {placed} + lost {lost} != offered {r.offered}")
        sections = r.nodes.values()
        for key, total in (
            ("offered", placed),
            ("completed", r.completed),
            ("shed", shed),
        ):
            node_sum = sum(section[key] for section in sections)
            if node_sum != total:
                failures.append(f"node {key} sum {node_sum} != total {total}")
        return failures

    def canonical(self, out):
        return {name: served.as_dict() for name, served in out.items()}

    def sim(self, out) -> dict[str, float]:
        return _serving_sim([served.report for served in out.values()])

    def layer_extras(self, out) -> dict[str, float]:
        delays = [d for served in out.values() for d in served.stats.queue_delays]
        queued = sum(1 for d in delays if d > 0)
        return {"cluster.link_queued_frac": queued / len(delays) if delays else 0.0}

    def verify(self, out) -> list[str]:
        """The in-process runs (also the per-node layer times' source)."""
        single = {name: self._serve(arrivals, 1)
                  for (name, _), arrivals in zip(self.units(), self.streams)}
        if digest(self.canonical(single)) != digest(self.canonical(out)):
            return ["cluster: shards=1 digest differs from the sharded run"]
        return []


# ----------------------------------------------------------------------
class ReplayOverload(Workload):
    name = "replay_overload"
    halt_after = 2

    def setup(self) -> None:
        replays, window_s = (1, 1e-4) if self.smoke else (6, 1.25e-4)
        self.configs = [
            ReplayConfig(
                seed=s,
                windows=4,
                window_s=window_s,
                rate=2e6,
                system="gnn",
                slo_s=100e-6,
                admission="predictive",
                autoscale=True,
            )
            for s in _stream_seeds(self.seed, replays)
        ]

    def _halt_and_resume(self, config: ReplayConfig, checkpoint: Path):
        halted = run_replay(config, checkpoint_path=checkpoint, halt_after=self.halt_after)
        if halted is not None:
            raise RuntimeError("replay did not halt at the checkpoint")
        return resume_replay(checkpoint)

    def units(self):
        return [
            (f"replay{i}", functools.partial(
                self._halt_and_resume, config, self.work_dir / f"replay{i}-checkpoint.json"
            ))
            for i, config in enumerate(self.configs)
        ]

    def run(self):
        reports = []
        with _tap(ServingRuntime, "serve", lambda window: reports.append(window.report)):
            payloads = self.run_units()
        return {"payloads": payloads, "reports": reports}

    def checks(self, out) -> list[str]:
        failures = []
        for name, payload in out["payloads"].items():
            for row in payload["windows"]:
                if row["offered"] != row["completed"] + row["shed"]:
                    failures.append(
                        f"{name} window {row['window']}: offered {row['offered']} != "
                        f"completed {row['completed']} + shed {row['shed']}"
                    )
            totals = payload["totals"]
            if totals["offered"] != totals["completed"] + totals["shed"]:
                failures.append(f"{name} totals: offered != completed + shed")
            if len(payload["windows"]) != payload["config"]["windows"]:
                failures.append(f"{name}: {len(payload['windows'])} windows reported")
        return failures

    def canonical(self, out):
        return out["payloads"]

    def sim(self, out) -> dict[str, float]:
        totals = [payload["totals"] for payload in out["payloads"].values()]
        completed = sum(t["completed"] for t in totals)
        return {
            "jobs": float(completed),
            "sim_makespan_ms": sum(
                row["makespan_s"]
                for payload in out["payloads"].values()
                for row in payload["windows"]
            ) * 1e3,
            "slo_attainment": sum(t["slo_attainment"] * t["completed"] for t in totals)
            / completed,
            "admitted_frac": 1.0 - sum(t["shed"] for t in totals)
            / sum(t["offered"] for t in totals),
            "sojourn_p99_ms": _worst_p99_ms(out["reports"]),
        }

    def verify(self, out) -> list[str]:
        uninterrupted = {
            name: run_replay(config)
            for (name, _), config in zip(self.units(), self.configs)
        }
        if digest(uninterrupted) != digest(out["payloads"]):
            return ["replay: uninterrupted digest differs from halt+resume"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ClosedBatch, ServePoisson, ClusterSharded, ReplayOverload)
}
