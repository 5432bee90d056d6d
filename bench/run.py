"""Outside-in benchmark of the MLIMP scheduler stack.

One *run* of a workload starts ``SETUPS`` fresh interpreters
(``worker.py``) one after another.  Each pays its own start-up and
set-up (``setup_s`` is their median) and starts with cold caches, then
runs rounds of the workload for its share of ``--seconds`` while it
samples the host's speed; host time is reported in reference-loop
units (``ref``, see ``hostspeed.py`` and ``metrics.py``).  With
tracing, one more interpreter runs one traced round first.  Two modes:

Suite -- every workload ``--repeats`` runs, interleaved round by round,
each run traced with ``--trace``; prints every end-to-end metric with
unit, sample count, median, quartiles and min, and writes one JSON
result per ``--out`` file.  Several ``--out`` files measure that many
sets of runs, interleaved round by round the way a parent/change
comparison is::

    python bench/run.py [--seed N] [--repeats R] [--seconds S] [--trace] [--smoke] [--out FILE ...]

One workload -- one run; the last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of its traced round (``--trace 1``)::

    python bench/run.py --workload serve_poisson --seed 3 --seconds 15 --trace 0

Both modes exit non-zero when a worker fails, a round fails a check,
or two rounds of one seed disagree on ``sim_digest``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from metrics import ROOT, end_to_end, fold, load_benchmark, summarize

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = Path(__file__).resolve().parent / ".work"
#: Fresh interpreters per run: set-up is timed this many times.
SETUPS = 3
#: Longest one run may take before its remaining workers count as failed.
RUN_LIMIT_S = 170

_counter = itertools.count()


def run_worker(
    workload: str, seed: int, trace: bool, smoke: bool, seconds: float, deadline: float
) -> dict:
    """One worker process; ``{"error": ...}`` on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"workload": workload, "error": f"run exceeded {RUN_LIMIT_S} s"}
    work_dir = WORK / f"{os.getpid()}-{next(_counter)}"
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--seconds", repr(seconds), "--work-dir", str(work_dir),
        "--t0", repr(time.monotonic()),
    ]
    if smoke:
        cmd.append("--smoke")
    # Its own session, so a timeout also stops the cluster's pool workers.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return {"workload": workload, "error": f"run exceeded {RUN_LIMIT_S} s"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload, "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a worker's whole process group and wait for it to go."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def measure(workload: str, seed: int, seconds: float, smoke: bool, trace: bool) -> dict:
    """One run of one workload, folded into its metric values."""
    deadline = time.monotonic() + RUN_LIMIT_S
    traced = None
    if trace:
        traced = run_worker(workload, seed, True, smoke, 0.0, deadline)
        _log(f"{workload} traced: {_describe(traced)}")
    workers = []
    for i in range(SETUPS):
        # Rounds end on a round boundary, so each worker's share is what
        # the workers before it left, split evenly.
        share = (seconds - sum(r.get("rounds_s", 0.0) for r in workers)) / (SETUPS - i)
        record = run_worker(workload, seed, False, smoke, max(share, 0.0), deadline)
        workers.append(record)
        _log(f"{workload} worker {i + 1}/{SETUPS}: {_describe(record)}")
    run = fold(workers, traced)
    run["workers"] = [_slim(r) for r in workers]
    if traced is not None:
        run["traced"] = _slim({k: v for k, v in traced.items() if k != "layers"})
    return run


def _slim(record: dict) -> dict:
    """A worker record with its reference-loop passes as count and mean."""
    out = dict(record)
    for name in ("setup_reference", "reference"):
        if f"{name}_s" in out:
            passes = out.pop(f"{name}_s")
            out[f"{name}_passes"] = len(passes)
            out[f"{name}_mean_s"] = statistics.fmean(passes)
    return out


def _describe(record: dict) -> str:
    if "error" in record:
        return f"ERROR {record['error']}"
    walls = " ".join(f"{rd['wall_s']:.3f}" for rd in record["rounds"])
    checks = [c for rd in record["rounds"] for c in rd["checks"]] + record["checks"]
    return (f"setup {record['setup_s']:.3f} s, rounds {walls} s"
            + (f"  CHECKS {checks}" if checks else ""))


def correct(run: dict) -> bool:
    return run["failed"] == 0 and not run["failures"] and len(run["digests"]) == 1


# ----------------------------------------------------------------------
def one_workload(args, benchmark: dict) -> int:
    """One run of one workload; one JSON result line."""
    run = measure(args.workload, args.seed, args.seconds, args.smoke, bool(args.trace))
    if args.trace:
        declared, values = benchmark["per_layer"], run["layers"] or {}
    else:
        declared, values = benchmark["end_to_end"], run["metrics"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared if m["name"] in values
    }
    ok = correct(run) and len(metrics) == len(declared)
    for failure in run["failures"]:
        _log(f"{args.workload} FAILED {failure}")
    for d in run["digests"]:
        print(f"sim_digest {d}")
    print(json.dumps({
        "correct": ok,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0 if ok else 1


# ----------------------------------------------------------------------
def suite(args, benchmark: dict) -> int:
    """Every workload, ``--repeats`` rounds, one result per ``--out``."""
    names = [w["name"] for w in benchmark["workloads"]]
    outs = args.out or [None]
    sets = [{name: [] for name in names} for _ in outs]
    order = list(range(len(outs)))
    for round_ in range(args.repeats):
        for name in names:
            for s in order:
                _log(f"round {round_ + 1}/{args.repeats} set {s} {name}")
                sets[s][name].append(
                    measure(name, args.seed, args.seconds, args.smoke, bool(args.trace))
                )
            order.reverse()  # alternate which set goes first

    ok = True
    for s, out in enumerate(outs):
        result = build_result(args, benchmark, sets[s])
        ok = ok and result["ok"]
        print_result(result)
        if out is not None:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
            print(f"wrote {out}")
    return 0 if ok else 1


def build_result(args, benchmark: dict, runs: dict) -> dict:
    workloads = {}
    ok = True
    for name, measured in runs.items():
        digests = sorted({d for run in measured for d in run["digests"]})
        failures = [f for run in measured for f in run["failures"]]
        if len(digests) > 1:
            failures.append(f"sim_digest differs across runs of one seed: {digests}")
        metrics = {}
        for m in end_to_end(benchmark):
            values = [run["metrics"][m["name"]] for run in measured if run["metrics"]]
            if values:
                metrics[m["name"]] = dict(summarize(values), **{
                    k: m[k] for k in ("unit", "better", "bound")
                })
        entry = {
            "metrics": metrics,
            "sim_digest": digests[0] if len(digests) == 1 else None,
            "attempted": sum(run["attempted"] for run in measured),
            "failed": sum(run["failed"] for run in measured),
            "failures": failures,
            "runs": measured,
        }
        layers = [run["layers"] for run in measured if run["layers"]]
        if layers:
            entry["layers"] = {
                key: summarize([lay[key] for lay in layers])["median"] for key in layers[0]
            }
        ok = ok and not failures and entry["failed"] == 0
        workloads[name] = entry
    return {
        "format": "mlimp-bench-result",
        "version": 2,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": workloads,
        "ok": ok,
    }


def print_result(result: dict) -> None:
    print(f"{'workload':<16} {'metric':<17} {'unit':<8} {'n':>2} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'min':>12}")
    for name, entry in result["workloads"].items():
        for metric, s in entry["metrics"].items():
            print(f"{name:<16} {metric:<17} {s['unit']:<8} {s['n']:>2} "
                  f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {s['min']:>12.6g}")
        print(f"{name:<16} sim_digest {entry['sim_digest']}")
        for failure in entry["failures"]:
            print(f"{name:<16} FAILED {failure}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="run one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host time of rounds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add a traced round for the per-layer metrics",
    )
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    parser.add_argument("--out", nargs="+", help="result JSON, one per set of runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    try:
        if args.workload is not None:
            if args.workload not in names:
                parser.error(f"unknown workload {args.workload!r}; choose from {names}")
            return one_workload(args, benchmark)
        return suite(args, benchmark)
    finally:
        try:
            WORK.rmdir()  # each worker removes its own directory
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
