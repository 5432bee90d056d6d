"""Set up one benchmark workload in a fresh interpreter and run rounds.

``run.py`` starts this script several times per run, so each process
pays its own start-up and set-up (``setup_s``) and begins with cold
caches.  Untraced, it runs rounds -- every unit of the workload once --
until about ``--seconds`` of rounds have run (at least one), sampling
the host's speed through set-up and every round (``hostspeed.py``).
Traced (``--trace 1``), it runs one round inside the tracer, with the
reference loop timed just before and after it instead.  The last line
of standard output is one JSON object: set-up time, peak memory, each
round's host time, ``sim_digest`` and check failures, the
reference-loop times, the simulated metrics and, traced, the per-layer
metrics.  A traced run also writes its span tables under
``bench/.work/spans/``.

    python bench/worker.py --workload serve_poisson --seed 0 --work-dir bench/.work/x
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed, time_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: A traced run's span tables, one file per workload (the last traced
#: run of each replaces the one before).
SPANS = Path(__file__).resolve().parent / ".work" / "spans"
#: Reference-loop passes timed after set-up and after every round.
CLOSING_PASSES = 3
#: Reference-loop passes timed on each side of a traced round.
TRACED_PASSES = 20


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="host time of rounds to run (untraced; at least one round)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument(
        "--t0", type=float, default=None,
        help="time.monotonic() when the parent started this process",
    )
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    speed = HostSpeed(args.work_dir / "reference")
    # Traced runs are not sampled: a pass would land inside some span.
    sampling = speed.sampling if not args.trace else contextlib.nullcontext

    with sampling():
        if not (SRC / "repro" / "__init__.py").is_file():
            print(f"error: no repro sources under {SRC}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        import repro

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
            return 2

        import spans
        from repro.core import perfmodel
        from repro.isa import timing
        from workloads import WORKLOADS, digest

        tracer = None
        if args.trace:
            tracer = spans.Tracer(args.work_dir / "spill")
            spans.install(tracer)
        workload = WORKLOADS[args.workload](args.seed, args.smoke, args.work_dir, tracer)

        region = tracer.region if tracer else (lambda _: contextlib.nullcontext())
        with region("setup"):
            workload.setup()
    setup_s = time.monotonic() - t0 - speed.own_s
    setup_reference = speed.collect(CLOSING_PASSES)

    reference: list[float] = []
    rounds: list[dict] = []
    out = None
    start = time.perf_counter()
    while True:
        # Each round starts with cold allocation-search and op-cycle caches.
        perfmodel.clear_caches()
        timing.clear_cache()
        if tracer is None:
            own = speed.own_s
            round_start = time.perf_counter()
            with speed.sampling():
                out = workload.run()
            wall_s = time.perf_counter() - round_start - (speed.own_s - own)
            reference.extend(speed.collect(CLOSING_PASSES))
        else:
            reference.extend(time_reference() for _ in range(TRACED_PASSES))
            round_start = time.perf_counter()
            with tracer.region("main"):
                out = workload.run()
            wall_s = time.perf_counter() - round_start
            reference.extend(time_reference() for _ in range(TRACED_PASSES))
        rounds.append({
            "wall_s": wall_s,
            "digest": digest(workload.canonical(out)),
            "checks": workload.checks(out),
            "parts": {name: dict(part) for name, part in workload.parts.items()},
        })
        elapsed = time.perf_counter() - start
        # Stop at the round that ends nearest to --seconds.
        if tracer is not None or elapsed + elapsed / len(rounds) / 2 > args.seconds:
            break

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_reference_s": setup_reference,
        "peak_rss_mb": _peak_rss_mb(getattr(workload, "shards", 0)),
        "rounds": rounds,
        "rounds_s": elapsed,
        "reference_s": reference,
        "sim": workload.sim(out),
        "checks": [],
    }
    if tracer is not None:
        layer_region = "main"
        if args.workload == "cluster_sharded":
            # Per-node layer times come from the in-process run: sharded
            # workers overlap in time, so their self times add past the
            # wall clock.
            layer_region = "aux"
        with tracer.region("aux"):
            record["checks"].extend(workload.verify(out))
        tables = tracer.collect()
        record["checks"].extend(spans.fold_check(tracer, tables))
        record["layers"] = spans.layer_metrics(
            tracer, tables, layer_region, workload.layer_extras(out)
        )
        record["balance"] = {
            run_id: spans.region_balance(tables, run_id, info["wall_s"])
            for run_id, info in tracer.regions.items()
        }
        spans.write(tables, SPANS / f"{args.workload}{'-smoke' if args.smoke else ''}.json")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
