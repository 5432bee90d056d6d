"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # available experiments
    python -m repro run fig16            # one experiment
    python -m repro run fig13 fig14      # several
    python -m repro run all --parallel 4 # everything, across 4 workers
    python -m repro specs                # Table III device summary
    python -m repro trace A              # observability report for combo A
    python -m repro trace collab --scheduler adaptive --json out.json
    python -m repro bench --quick        # timed perf suite -> BENCH_<date>.json
    python -m repro serve --arrivals poisson --rate 50 --tenants 3 --slo 10
    python -m repro predictor train --dataset collab --out pred.json
    python -m repro serve --predictor online   # self-training serve run
    python -m repro cluster --nodes 4 --rate 200 --placement hash
    python -m repro cluster --nodes 2 --fail-node node-1:0.5 --json out.json
    python -m repro serve --admission predictive --slo 0.1 --rate 2e6
    python -m repro replay --windows 6 --admission predictive --autoscale
    python -m repro replay --halt-after 3 --checkpoint ck.json
"""

from __future__ import annotations

import argparse
import sys
import time


def _registry() -> dict:
    from .harness.experiments import full_registry

    return full_registry()


def cmd_list() -> int:
    registry = _registry()
    width = max(len(name) for name in registry)
    for name, fn in registry.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name.ljust(width)}  {doc}")
    return 0


def cmd_specs() -> int:
    from .memories import DEFAULT_SPECS

    for kind, spec in DEFAULT_SPECS.items():
        print(
            f"{kind.value:6s} {spec.name:24s} {spec.num_arrays:6d} arrays  "
            f"{spec.total_alus / 1e6:6.2f}M ALUs  {spec.capacity_mb:8.0f} MB  "
            f"{spec.clock_mhz:6.0f} MHz  MAC {spec.mac_cycles_2op} cyc"
        )
    return 0


def cmd_fault_demo(args: argparse.Namespace) -> int:
    """Run one combo under a fault plan and print its degraded report."""
    from .harness.faultdemo import run_fault_demo

    result = run_fault_demo(
        args.faults, scheduler=args.scheduler, combo=args.combo
    )
    print(result.report())
    if result.failed_jobs:
        print(
            f"{len(result.failed_jobs)} jobs failed under the plan",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_run(names: list[str], parallel: int | None = None) -> int:
    registry = _registry()
    if not names:
        print("run needs experiment names (or --faults PLAN)", file=sys.stderr)
        print("use 'python -m repro list'", file=sys.stderr)
        return 2
    if names == ["all"]:
        names = list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("use 'python -m repro list'", file=sys.stderr)
        return 2
    if parallel is not None and len(names) > 1:
        from .harness.experiments import run_experiment_grid

        start = time.time()
        results = run_experiment_grid(names, max_workers=parallel or None)
        for name, report in results:
            print(report)
            print(f"[{name}]\n")
        print(f"[{len(names)} experiments: {time.time() - start:.1f}s total]")
        return 0
    for name in names:
        start = time.time()
        report = registry[name]()
        print(report)
        print(f"[{name}: {time.time() - start:.1f}s]\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the pinned perf suite and write ``BENCH_<date>.json``."""
    import json

    from .harness.bench import (
        check_cache_health,
        check_regression,
        run_bench,
        write_bench_json,
    )

    payload = run_bench(quick=args.quick)
    width = max(len(name) for name in payload["targets"])
    for name, entry in payload["targets"].items():
        print(
            f"{name.ljust(width)}  {entry['wall_s']:8.3f}s  "
            f"{entry['events']:>9,.0f} events  "
            f"{entry['events_per_sec']:>12,.0f} ev/s"
        )
    totals = payload["totals"]
    print(
        f"{'TOTAL'.ljust(width)}  {totals['wall_s']:8.3f}s  "
        f"{totals['events']:>9,.0f} events  "
        f"{totals['events_per_sec']:>12,.0f} ev/s"
    )
    for cache in ("perfmodel.knee", "perfmodel.min_time"):
        stats = payload["caches"].get(cache, {})
        print(f"{cache} hit rate: {stats.get('hit_rate', 0.0):.1%}")
    path = write_bench_json(payload, args.out)
    print(f"wrote {path}")
    health = check_cache_health(payload)
    for failure in health:
        print(f"CACHE HEALTH: {failure}", file=sys.stderr)
    if health:
        return 1
    if args.check:
        reference = json.loads(open(args.check).read())
        failures = check_regression(payload, reference, args.max_regression)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"regression check vs {args.check}: ok")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one workload and print its per-device dispatch report."""
    from .apps import COMBOS, combo_jobs
    from .core.runtime import MLIMPRuntime
    from .gnn import DATASETS
    from .obs import write_results_json, write_trace_csv

    if args.target in COMBOS:
        from .harness.config import full_system
        from .memories import DEFAULT_SPECS

        runtime = MLIMPRuntime(full_system(), scheduler=args.scheduler)
        runtime.submit_many(combo_jobs(args.target, DEFAULT_SPECS))
        results = [runtime.run(label=f"{args.scheduler}/{args.target}")]
    elif args.target in DATASETS:
        from .core.predictor import OraclePredictor
        from .core.runtime import _SCHEDULERS
        from .harness.gnn import build_workload, run_workload

        if args.batches < 1:
            print("--batches must be at least 1", file=sys.stderr)
            return 2
        workload = build_workload(args.target, num_batches=args.batches)
        scheduler = _SCHEDULERS[args.scheduler](OraclePredictor())
        summary = run_workload(workload, scheduler)
        results = summary.results
    else:
        known = sorted(COMBOS) + sorted(DATASETS)
        print(
            f"unknown trace target {args.target!r}; "
            f"choose a combo or dataset: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2

    for run_index, result in enumerate(results):
        if len(results) > 1:
            print(f"-- batch {run_index} --")
        print(result.report())
        print()
    if args.json:
        write_results_json(results, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        write_trace_csv(results, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _predictor_eval_rows(predictor, jobs) -> list[tuple[str, int, float, float]]:
    """Per-memory (kind, n, r2, rel_rmse) of unit-compute predictions."""
    import numpy as np

    from .ml import r2_score, relative_rmse

    kinds = sorted(
        {kind for job in jobs for kind in job.profiles}, key=lambda k: k.value
    )
    rows = []
    for kind in kinds:
        actual = np.array([job.profile(kind).t_compute_unit for job in jobs])
        predicted = np.array(
            [predictor.predict_unit_compute(job, kind) for job in jobs]
        )
        rows.append(
            (
                kind.value,
                len(jobs),
                r2_score(np.log(actual), np.log(predicted)),
                relative_rmse(actual, predicted),
            )
        )
    return rows


def cmd_predictor(args: argparse.Namespace) -> int:
    """Train, evaluate, or export a reusable MLP predictor artifact."""
    from .core.predictor import MLPPredictor

    if args.action == "train":
        from .harness.gnn import build_workload

        workload = build_workload(args.dataset)
        predictor = MLPPredictor(epochs=args.epochs, seed=args.seed)
        predictor.train(workload.training_jobs)
        path = predictor.save(args.out)
        print(f"trained on {len(workload.training_jobs)} held-out "
              f"{args.dataset} SpMM jobs; wrote {path}")
        for kind, n, r2, rel in _predictor_eval_rows(
            predictor, workload.spmm_jobs()
        ):
            print(f"{kind:6s} n={n:4d}  log-R2 {r2:6.3f}  rel-RMSE {rel:6.3f}")
        return 0

    predictor = MLPPredictor.load(args.model)
    if args.action == "eval":
        from .harness.gnn import build_workload

        workload = build_workload(args.dataset)
        rows = _predictor_eval_rows(predictor, workload.spmm_jobs())
        worst = 0.0
        for kind, n, r2, rel in rows:
            print(f"{kind:6s} n={n:4d}  log-R2 {r2:6.3f}  rel-RMSE {rel:6.3f}")
            worst = max(worst, rel)
        if args.max_rel_rmse is not None and worst > args.max_rel_rmse:
            print(
                f"FAIL: worst rel-RMSE {worst:.3f} exceeds the "
                f"--max-rel-rmse {args.max_rel_rmse} gate",
                file=sys.stderr,
            )
            return 1
        return 0

    # export: summarise the artifact; --out re-writes the canonical
    # JSON (byte-identical for an untouched artifact).
    state = predictor.to_dict()
    kinds = sorted(state.get("cycle_models", {}))
    print(
        f"mlimp-predictor v{state['version']}  "
        f"hidden={tuple(state['hidden'])}  epochs={state['epochs']}  "
        f"seed={state['seed']}"
    )
    print(
        f"features: {state['feature_schema']['n_features']} "
        f"({state['feature_schema']['transform']})"
    )
    print(f"cycle models: {', '.join(kinds) if kinds else 'none (untrained)'}")
    if args.out:
        path = predictor.save(args.out)
        print(f"wrote {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Open-system serving run: arrivals, admission, per-tenant SLOs."""
    import json

    from .faults.plan import FaultPlan
    from .harness.config import full_system, gnn_system
    from .serving import (
        PoissonArrivals,
        ServingRuntime,
        Tenant,
        TraceArrivals,
    )

    if args.tenants < 1:
        print("--tenants must be at least 1", file=sys.stderr)
        return 2
    if args.slo <= 0:
        print("--slo must be positive (milliseconds)", file=sys.stderr)
        return 2
    if args.arrivals == "poisson":
        tenant_names = tuple(f"tenant-{i}" for i in range(args.tenants))
        process = PoissonArrivals(
            rate=args.rate,
            horizon=args.horizon,
            seed=args.seed,
            tenants=tenant_names,
        )
    else:
        if not args.trace_file:
            print("--arrivals trace needs --trace-file PATH", file=sys.stderr)
            return 2
        process = TraceArrivals(path=args.trace_file, seed=args.seed)
        tenant_names = tuple(
            sorted({str(e["tenant"]) for e in process.entries()})
        )
        if not tenant_names:
            print(f"trace {args.trace_file} has no arrivals", file=sys.stderr)
            return 2
    # Earlier tenants get higher weights (a deliberate asymmetry so the
    # weighted-fair release is visible in the report).
    tenants = [
        Tenant(
            name,
            weight=float(len(tenant_names) - i),
            queue_limit=args.queue_limit,
        )
        for i, name in enumerate(tenant_names)
    ]
    faults = FaultPlan.load(args.faults) if args.faults else None
    system = gnn_system() if args.system == "gnn" else full_system()
    predictor = None
    if args.predictor == "online":
        from .core.predictor import OnlinePredictor

        predictor = OnlinePredictor(seed=args.seed)
    elif args.predictor != "oracle":
        from .core.predictor import MLPPredictor

        predictor = MLPPredictor.load(args.predictor)
    runtime = ServingRuntime(
        system,
        scheduler=args.scheduler,
        max_backlog=args.max_backlog,
        predictor=predictor,
    )
    serving = runtime.serve(
        process,
        tenants=tenants,
        slo_s=args.slo * 1e-3,
        faults=faults,
        label=f"{args.scheduler}/serve",
        admission=args.admission,
        admission_margin=args.admission_margin,
    )
    # The report itself carries the admission line and the predictor
    # lifecycle counters now -- in both the text and the JSON forms.
    print(serving.report)
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(serving.report.as_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Cluster serving run: placement, sharded node sims, merged SLOs."""
    import json

    from .cluster import ClusterRuntime, ClusterSpec, InterconnectSpec, NodeFault
    from .faults.plan import FaultPlan
    from .harness.config import full_system, gnn_system
    from .serving import PoissonArrivals, Tenant

    if args.nodes < 1:
        print("--nodes must be at least 1", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("--tenants must be at least 1", file=sys.stderr)
        return 2
    if args.slo <= 0:
        print("--slo must be positive (milliseconds)", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    system = gnn_system() if args.system == "gnn" else full_system()
    interconnect = InterconnectSpec(contention=args.contention)
    node_names = [f"node-{i}" for i in range(args.nodes)]
    if args.node_spec:
        scales = {name: 1.0 for name in node_names}
        for entry in args.node_spec:
            name, sep, value = entry.rpartition(":")
            try:
                if not sep:
                    raise ValueError
                scale = float(value)
            except ValueError:
                print(
                    f"--node-spec wants NAME:SCALE, got {entry!r}",
                    file=sys.stderr,
                )
                return 2
            if name not in scales:
                print(
                    f"--node-spec names unknown node {name!r}; "
                    f"nodes are {', '.join(node_names)}",
                    file=sys.stderr,
                )
                return 2
            if scale <= 0:
                print(
                    f"--node-spec scale must be positive, got {entry!r}",
                    file=sys.stderr,
                )
                return 2
            scales[name] = scale
        spec = ClusterSpec.heterogeneous(
            scales, system=system, interconnect=interconnect
        )
    else:
        spec = ClusterSpec.homogeneous(
            args.nodes, system=system, interconnect=interconnect
        )
    node_faults = []
    for entry in args.fail_node or []:
        name, sep, when = entry.rpartition(":")
        try:
            if not sep:
                raise ValueError
            node_faults.append(NodeFault(node=name, time=float(when)))
        except ValueError:
            print(
                f"--fail-node wants NODE:SECONDS, got {entry!r}",
                file=sys.stderr,
            )
            return 2
        if name not in spec.names:
            print(
                f"--fail-node names unknown node {name!r}; "
                f"nodes are {', '.join(spec.names)}",
                file=sys.stderr,
            )
            return 2
    tenant_names = tuple(f"tenant-{i}" for i in range(args.tenants))
    process = PoissonArrivals(
        rate=args.rate,
        horizon=args.horizon,
        seed=args.seed,
        tenants=tenant_names,
    )
    # Same deliberate weight asymmetry as `serve`.
    tenants = [
        Tenant(
            name,
            weight=float(len(tenant_names) - i),
            queue_limit=args.queue_limit,
        )
        for i, name in enumerate(tenant_names)
    ]
    faults = FaultPlan.load(args.faults) if args.faults else None
    runtime = ClusterRuntime(
        spec,
        scheduler=args.scheduler,
        placement=args.placement,
        max_backlog=args.max_backlog,
    )
    result = runtime.serve(
        process,
        tenants=tenants,
        slo_s=args.slo * 1e-3,
        faults=faults,
        node_faults=tuple(node_faults),
        shards=args.shards,
        label=f"{args.scheduler}/cluster",
        admission=args.admission,
        admission_margin=args.admission_margin,
    )
    print(result.report)
    stats = result.stats
    print(
        f"placement[{stats.placement}]  handoffs {stats.handoffs} "
        f"({stats.handoff_bytes / 1e6:.1f} MB)  replicas {stats.replicas} "
        f"({stats.replica_bytes / 1e6:.1f} MB)  lost {stats.total_lost}  "
        f"throughput {result.completed_per_sec:,.0f} jobs/s"
    )
    if stats.contention != "none":
        queued = [d for d in stats.queue_delays if d > 0]
        print(
            f"contention[{stats.contention}]  transfers "
            f"{len(stats.queue_delays)}  queued {len(queued)} "
            f"({sum(queued) * 1e6:.1f} us total)  peak in-flight "
            f"{stats.peak_inflight_bytes / 1e6:.1f} MB"
        )
    if stats.migrations:
        print(
            f"migrations {stats.migrations} "
            f"({stats.migration_bytes / 1e6:.1f} MB) off dying nodes"
        )
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Trace-replay horizon run: windows, autoscaling, checkpointing."""
    import json

    from .harness.replay import ReplayConfig, resume_replay, run_replay

    if args.halt_after is not None:
        if args.halt_after < 1:
            print("--halt-after must be at least 1", file=sys.stderr)
            return 2
        if not args.checkpoint:
            print("--halt-after needs --checkpoint PATH", file=sys.stderr)
            return 2
    try:
        if args.resume:
            payload = resume_replay(
                args.resume,
                checkpoint_path=args.checkpoint,
                halt_after=args.halt_after,
            )
        else:
            config = ReplayConfig(
                seed=args.seed,
                rate=args.rate,
                windows=args.windows,
                window_s=args.window_ms * 1e-3,
                tenants=args.tenants,
                slo_s=args.slo * 1e-3,
                scheduler=args.scheduler,
                system=args.system,
                queue_limit=args.queue_limit,
                max_backlog=args.max_backlog,
                admission=args.admission,
                admission_margin=args.admission_margin,
                autoscale=args.autoscale,
                max_scale=args.max_scale,
                nodes=args.nodes,
                placement=args.placement,
            )
            payload = run_replay(
                config,
                checkpoint_path=args.checkpoint,
                halt_after=args.halt_after,
            )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if payload is None:
        print(f"halted after {args.halt_after} window(s); "
              f"checkpoint -> {args.checkpoint}")
        print(f"resume with: python -m repro replay --resume {args.checkpoint}")
        return 0
    print(
        f"{'win':>3s} {'scale':>5s} {'offered':>8s} {'done':>8s} "
        f"{'shed':>6s} {'pred':>6s} {'attain':>7s} {'util':>5s} {'queue':>6s}"
    )
    for row in payload["windows"]:
        print(
            f"{row['window']:3d} {row['scale']:5d} {row['offered']:8d} "
            f"{row['completed']:8d} {row['shed']:6d} "
            f"{row['shed_predicted']:6d} {row['slo_attainment']:6.1%} "
            f"{row['utilisation_max']:5.2f} {row['queue_depth_mean']:6.1f}"
        )
    for event in payload["autoscale_events"]:
        print(
            f"scale event: window {event['window']} "
            f"{event['from_scale']} -> {event['to_scale']} ({event['reason']})"
        )
    totals = payload["totals"]
    print(
        f"totals: offered {totals['offered']}  completed "
        f"{totals['completed']}  shed {totals['shed']} "
        f"(predicted {totals['shed_predicted']})  "
        f"attainment {totals['slo_attainment']:.1%}  "
        f"peak scale {totals['peak_scale']}"
    )
    if args.json:
        from pathlib import Path

        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MLIMP (MICRO 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("specs", help="print the Table III device summary")
    run = sub.add_parser(
        "run",
        help="run experiments by name (or 'all'), or --faults PLAN "
        "for a fault-injection demo",
    )
    run.add_argument("names", nargs="*", help="experiment names, or 'all'")
    run.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="run a combo under the JSON fault plan and print the "
        "degraded-mode report (no experiment names needed)",
    )
    run.add_argument(
        "--scheduler",
        choices=["ljf", "adaptive", "global", "ewt"],
        default="adaptive",
        help="scheduler for the --faults demo (default: adaptive)",
    )
    run.add_argument(
        "--combo",
        default="A",
        help="multiprogramming combo for the --faults demo (default: A)",
    )
    run.add_argument(
        "--parallel",
        "-j",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="N",
        help="shard the grid across N worker processes "
        "(no N = one per CPU); results print in input order",
    )
    trace = sub.add_parser(
        "trace",
        help="run one workload and print the observability report",
    )
    trace.add_argument(
        "target", help="multiprogramming combo (A-G) or GNN dataset name"
    )
    trace.add_argument(
        "--scheduler",
        choices=["ljf", "adaptive", "global", "ewt"],
        default="global",
        help="scheduler to trace (default: global)",
    )
    trace.add_argument(
        "--batches",
        type=int,
        default=2,
        help="query batches for dataset targets (default: 2)",
    )
    trace.add_argument("--json", metavar="PATH", help="write the full run JSON")
    trace.add_argument("--csv", metavar="PATH", help="write the phase trace CSV")
    bench = sub.add_parser(
        "bench",
        help="time the pinned perf suite and write BENCH_<date>.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small inputs (collab dataset, two combos) for CI smoke runs",
    )
    bench.add_argument(
        "--out", metavar="PATH", default=None,
        help="output path (default: BENCH_<date>.json in the CWD)",
    )
    bench.add_argument(
        "--check", metavar="PATH", default=None,
        help="compare events/sec against a previous BENCH json; "
        "exit 1 on regression beyond --max-regression",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.30, metavar="FRAC",
        help="allowed fractional events/sec drop for --check (default 0.30)",
    )
    serve = sub.add_parser(
        "serve",
        help="open-system serving run: timed arrivals, multi-tenant "
        "admission, per-tenant SLO report",
    )
    serve.add_argument(
        "--arrivals",
        choices=["poisson", "trace"],
        default="poisson",
        help="arrival process (default: poisson)",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0, metavar="JOBS_PER_S",
        help="aggregate Poisson arrival rate in jobs/second (default: 50)",
    )
    serve.add_argument(
        "--horizon", type=float, default=1.0, metavar="SECONDS",
        help="arrival-generation horizon; the run then drains (default: 1.0)",
    )
    serve.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="tenant count for poisson arrivals (default: 3); trace "
        "arrivals name their own tenants",
    )
    serve.add_argument(
        "--slo", type=float, default=10.0, metavar="MS",
        help="per-tenant sojourn-time SLO in milliseconds (default: 10)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="arrival/workload seed; same seed -> byte-identical report",
    )
    serve.add_argument(
        "--scheduler",
        choices=["ljf", "adaptive", "global", "ewt"],
        default="adaptive",
        help="scheduling policy (default: adaptive)",
    )
    serve.add_argument(
        "--system",
        choices=["full", "gnn"],
        default="full",
        help="device set: full Table III or the scaled GNN system "
        "(default: full)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="per-tenant bounded-queue depth; overflow is shed (default: 64)",
    )
    serve.add_argument(
        "--max-backlog", type=int, default=32, metavar="N",
        help="released-but-undispatched jobs the policy may hold (default: 32)",
    )
    serve.add_argument(
        "--trace-file", metavar="PATH", default=None,
        help="JSON arrival trace for --arrivals trace",
    )
    serve.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="inject a JSON fault plan into the serving run",
    )
    serve.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the SLO report as JSON",
    )
    serve.add_argument(
        "--predictor", metavar="WHICH", default="oracle",
        help="'oracle' (default), 'online' for a self-training "
        "OnlinePredictor fed by completion actuals, or the path of a "
        "saved predictor artifact from 'predictor train'",
    )
    serve.add_argument(
        "--admission",
        choices=["shed", "predictive"],
        default="shed",
        help="arrival-time admission: 'shed' (default) keeps the "
        "queue-overflow-only baseline; 'predictive' rejects jobs whose "
        "predicted sojourn would miss the tenant's SLO",
    )
    serve.add_argument(
        "--admission-margin", type=float, default=1.0, metavar="FACTOR",
        help="admit while predicted sojourn <= SLO x FACTOR; >1 admits "
        "optimistically, <1 leaves headroom (default: 1.0)",
    )
    cluster = sub.add_parser(
        "cluster",
        help="cluster serving run: two-level scheduling over N nodes, "
        "per-node sims sharded across processes, merged SLO report",
    )
    cluster.add_argument(
        "--nodes", type=int, default=2, metavar="N",
        help="homogeneous node count (default: 2)",
    )
    cluster.add_argument(
        "--node-spec", metavar="NAME:SCALE", action="append", default=None,
        help="size one node relative to the base system (repeatable), "
        "e.g. --node-spec node-1:2 --node-spec node-2:0.5; unnamed "
        "nodes stay at scale 1",
    )
    cluster.add_argument(
        "--contention",
        choices=["none", "shared"],
        default="none",
        help="interconnect model: 'none' prices each transfer "
        "independently (default, byte-identical to historical "
        "output); 'shared' queues transfers per directed link",
    )
    cluster.add_argument(
        "--rate", type=float, default=50.0, metavar="JOBS_PER_S",
        help="aggregate Poisson arrival rate in jobs/second (default: 50)",
    )
    cluster.add_argument(
        "--horizon", type=float, default=1.0, metavar="SECONDS",
        help="arrival-generation horizon; the run then drains (default: 1.0)",
    )
    cluster.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="tenant count (default: 3)",
    )
    cluster.add_argument(
        "--slo", type=float, default=10.0, metavar="MS",
        help="per-tenant sojourn-time SLO in milliseconds (default: 10)",
    )
    cluster.add_argument(
        "--seed", type=int, default=0,
        help="arrival/workload seed; same seed -> byte-identical report",
    )
    cluster.add_argument(
        "--scheduler",
        choices=["ljf", "adaptive", "global", "ewt"],
        default="adaptive",
        help="per-node scheduling policy (default: adaptive)",
    )
    cluster.add_argument(
        "--placement",
        choices=["least-loaded", "feedback", "hash", "round-robin"],
        default="least-loaded",
        help="cluster-level placement policy (default: least-loaded; "
        "'feedback' biases least-loaded by per-node report feedback "
        "across replay windows, and equals it on a single run)",
    )
    cluster.add_argument(
        "--system",
        choices=["full", "gnn"],
        default="full",
        help="per-node device set: full Table III or the scaled GNN "
        "system (default: full)",
    )
    cluster.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="per-tenant bounded-queue depth per node (default: 64)",
    )
    cluster.add_argument(
        "--max-backlog", type=int, default=32, metavar="N",
        help="released-but-undispatched jobs each node's policy may "
        "hold (default: 32)",
    )
    cluster.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes for the node simulations (capped at the "
        "node count; output is byte-identical either way; default: 1)",
    )
    cluster.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="inject a JSON device-fault plan into every node",
    )
    cluster.add_argument(
        "--fail-node", metavar="NODE:SECONDS", action="append", default=None,
        help="lose a whole node at a point in time (repeatable), "
        "e.g. --fail-node node-1:0.5",
    )
    cluster.add_argument(
        "--admission",
        choices=["shed", "predictive"],
        default="shed",
        help="per-node arrival-time admission: 'shed' (default) or "
        "'predictive' (each node gates on its own predicted sojourn)",
    )
    cluster.add_argument(
        "--admission-margin", type=float, default=1.0, metavar="FACTOR",
        help="admit while predicted sojourn <= SLO x FACTOR (default: 1.0)",
    )
    cluster.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the merged cluster report as JSON",
    )
    replay = sub.add_parser(
        "replay",
        help="trace-replay horizon benchmark: windows of seeded "
        "arrivals, between-window autoscaling, exact checkpoint/resume",
    )
    replay.add_argument(
        "--windows", type=int, default=6, metavar="N",
        help="replay windows to simulate (default: 6)",
    )
    replay.add_argument(
        "--window-ms", type=float, default=2.0, metavar="MS",
        help="arrival horizon of each window in milliseconds; every "
        "window drains to completion (default: 2.0)",
    )
    replay.add_argument(
        "--rate", type=float, default=2e6, metavar="JOBS_PER_S",
        help="aggregate Poisson arrival rate (default: 2e6 -- "
        "overloads the scale-1 gnn pool)",
    )
    replay.add_argument(
        "--tenants", type=int, default=3, metavar="N",
        help="tenant count (default: 3)",
    )
    replay.add_argument(
        "--slo", type=float, default=0.1, metavar="MS",
        help="per-tenant sojourn SLO in milliseconds (default: 0.1)",
    )
    replay.add_argument(
        "--seed", type=int, default=20,
        help="base seed; window w replays with a seed derived from "
        "(seed, w), so any window is reproducible in isolation",
    )
    replay.add_argument(
        "--scheduler",
        choices=["ljf", "adaptive", "global", "ewt"],
        default="adaptive",
        help="per-window scheduling policy (default: adaptive)",
    )
    replay.add_argument(
        "--system",
        choices=["full", "gnn"],
        default="gnn",
        help="scale-1 device set (default: gnn)",
    )
    replay.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="per-tenant bounded-queue depth (default: 32)",
    )
    replay.add_argument(
        "--max-backlog", type=int, default=16, metavar="N",
        help="released-but-undispatched jobs the policy may hold "
        "(default: 16)",
    )
    replay.add_argument(
        "--admission",
        choices=["shed", "predictive"],
        default="shed",
        help="arrival-time admission for every window (default: shed)",
    )
    replay.add_argument(
        "--admission-margin", type=float, default=1.0, metavar="FACTOR",
        help="admit while predicted sojourn <= SLO x FACTOR (default: 1.0)",
    )
    replay.add_argument(
        "--autoscale", action="store_true",
        help="resize the pool between windows from the finished "
        "window's utilisation / queue-depth / shed signals",
    )
    replay.add_argument(
        "--max-scale", type=int, default=4, metavar="N",
        help="autoscaler ceiling as a multiple of the base pool "
        "(default: 4)",
    )
    replay.add_argument(
        "--nodes", type=int, default=0, metavar="N",
        help="replay over an N-node cluster instead of one node; the "
        "autoscaled system is stamped onto every node (default: 0)",
    )
    replay.add_argument(
        "--placement",
        choices=["least-loaded", "feedback", "hash", "round-robin"],
        default="least-loaded",
        help="cluster placement for --nodes > 0 (default: least-loaded; "
        "'feedback' learns per-node weights across windows and rides "
        "the checkpoint)",
    )
    replay.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="where --halt-after writes the mid-replay state",
    )
    replay.add_argument(
        "--halt-after", type=int, default=None, metavar="N",
        help="stop after N windows and write --checkpoint; resuming "
        "reproduces the uninterrupted output byte for byte",
    )
    replay.add_argument(
        "--resume", metavar="PATH", default=None,
        help="continue from a checkpoint file (ignores the trace "
        "flags; the checkpoint carries the full config)",
    )
    replay.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the replay payload as JSON",
    )
    predictor = sub.add_parser(
        "predictor",
        help="train, evaluate, or export a reusable MLP predictor "
        "artifact (JSON weights + scalers + feature schema)",
    )
    predictor.add_argument(
        "action",
        choices=["train", "eval", "export"],
        help="train on a dataset's held-out SpMM jobs, eval a saved "
        "artifact against a dataset, or summarise/re-write an artifact",
    )
    predictor.add_argument(
        "--dataset", default="collab",
        help="GNN dataset for train/eval (default: collab)",
    )
    predictor.add_argument(
        "--epochs", type=int, default=250,
        help="training epochs per stage (default: 250)",
    )
    predictor.add_argument(
        "--seed", type=int, default=0,
        help="training seed; same seed -> byte-identical artifact",
    )
    predictor.add_argument(
        "--model", metavar="PATH", default=None,
        help="saved artifact for eval/export",
    )
    predictor.add_argument(
        "--out", metavar="PATH", default="predictor.json",
        help="artifact output path for train/export (default: "
        "predictor.json)",
    )
    predictor.add_argument(
        "--max-rel-rmse", type=float, default=None, metavar="BOUND",
        help="eval gate: exit 1 if any memory's relative RMSE exceeds "
        "BOUND",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "specs":
        return cmd_specs()
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "cluster":
        return cmd_cluster(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "predictor":
        if args.action in {"eval", "export"} and not args.model:
            print(f"predictor {args.action} needs --model PATH", file=sys.stderr)
            return 2
        return cmd_predictor(args)
    if args.faults is not None:
        if args.names:
            print(
                "--faults runs the fault demo; experiment names are not "
                "combinable with it",
                file=sys.stderr,
            )
            return 2
        return cmd_fault_demo(args)
    return cmd_run(args.names, parallel=args.parallel)


if __name__ == "__main__":
    raise SystemExit(main())
