"""Compare two suite results, one row per workload x end-to-end metric.

    python bench/compare.py A.json B.json

Each row shows both sides' median and quartiles, the change of B's
median against A's, and a verdict against the metric's bound (from
``BENCHMARK.json``, or ``metrics.SUITE_METRICS``):

* ``unresolved`` -- either side's interquartile range, as a share of
  its median, is wider than the bound, and not every run of B reads
  better than every run of A (that case is ``better``);
* ``worse`` / ``better`` -- B's median moved past the bound;
* ``within bound`` -- otherwise.

Per workload, each side's failed runs (``ops_failed_frac``) are shown
and ``sim_digest`` is compared.  Exits 1 when any row is ``worse``, a
run failed, or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import end_to_end, load_benchmark, spread


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """Relative change of B's median against A's, and its verdict."""
    higher = better == "higher"
    if a["median"] == 0:
        change = 0.0 if b["median"] == 0 else float("inf")
    else:
        change = (b["median"] - a["median"]) / abs(a["median"])
    gain = change if higher else -change  # > 0: B is better
    if max(spread(a), spread(b)) > bound:
        if higher:
            every_run_better = min(b["values"]) > max(a["values"])
        else:
            every_run_better = max(b["values"]) < min(a["values"])
        return change, "better" if every_run_better else "unresolved"
    if gain < -bound:
        return change, "worse"
    if gain > bound:
        return change, "better"
    return change, "within bound"


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<16} {'metric':<16} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>9} {'bound':>7}  verdict"
    ]
    ok = True
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<16} missing from B")
            ok = False
            continue
        for m in metrics:
            sa, sb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if sa is None or sb is None:
                continue
            change, word = verdict(sa, sb, m["better"], m["bound"])
            ok = ok and word != "worse"
            lines.append(
                f"{name:<16} {m['name']:<16} "
                f"{_side(sa):>34} {_side(sb):>34} {change:>+9.2%} {m['bound']:>7.2g}  {word}"
            )
        same = wa["sim_digest"] is not None and wa["sim_digest"] == wb["sim_digest"]
        ok = ok and same and not wa["failed"] and not wb["failed"]
        lines.append(
            f"{name:<16} sim_digest {'matches' if same else 'DIFFERS'} "
            f"(A {str(wa['sim_digest'])[:12]}, B {str(wb['sim_digest'])[:12]}); "
            f"ops_failed_frac A {wa['failed']}/{wa['attempted']}, "
            f"B {wb['failed']}/{wb['attempted']}"
        )
    return lines, ok


def _side(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    lines, ok = compare(a, b, end_to_end(load_benchmark()))
    print(f"A = {args.a}\nB = {args.b}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
