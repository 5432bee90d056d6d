"""Tests of the benchmark itself, at ``--smoke`` sizes.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from compare import compare, verdict
from metrics import ROOT, end_to_end, fold, load_benchmark, summarize

RUN = ROOT / "bench" / "run.py"
WORKER = ROOT / "bench" / "worker.py"
BENCHMARK = load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def traced_suite(tmp_path_factory) -> dict:
    """Seed 0: one traced run of every workload (a traced round, then
    one round in each of the run's workers)."""
    out = tmp_path_factory.mktemp("suite") / "seed0.json"
    proc = _run(
        "--smoke", "--repeats", "1", "--seconds", "0", "--seed", "0", "--trace",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def other_seed_digests(tmp_path_factory) -> dict:
    """Seed 1: one worker, one round, of every workload."""
    work = tmp_path_factory.mktemp("work")
    digests = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", name, "--seed", "1", "--smoke",
             "--work-dir", str(work / name)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        digests[name] = record["rounds"][0]["digest"]
    return digests


def test_suite_reports_every_end_to_end_metric_with_its_unit(traced_suite):
    assert traced_suite["ok"]
    for name in WORKLOADS:
        metrics = traced_suite["workloads"][name]["metrics"]
        for m in end_to_end(BENCHMARK):
            assert metrics[m["name"]]["unit"] == m["unit"], (name, m["name"])
            assert metrics[m["name"]]["median"] > 0, (name, m["name"])
        assert metrics["ops_ok_frac"]["median"] == 1.0


def test_traced_run_reports_every_per_layer_metric(traced_suite):
    for name in WORKLOADS:
        layers = traced_suite["workloads"][name]["layers"]
        assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
        assert layers["trace.unattributed_frac"] <= 0.20, name
    serve = traced_suite["workloads"]["serve_poisson"]["layers"]
    assert serve["scheduler.admit_calls"] > 0
    assert serve["admission.decide_calls"] == 0  # shed-only gate
    closed = traced_suite["workloads"]["closed_batch"]["layers"]
    assert closed["scheduler.admit_calls"] == 0
    replay = traced_suite["workloads"]["replay_overload"]["layers"]
    assert 0 < replay["admission.accept_ratio"] < 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_workload_mode_prints_every_benchmark_metric(trace):
    proc = _run(
        "--workload", "serve_poisson", "--seed", "2", "--seconds", "0",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_same_seed_same_digest_other_seed_other_digest(traced_suite, other_seed_digests):
    for name in WORKLOADS:
        # The traced and plain rounds of seed 0 agreed (else no digest).
        same = traced_suite["workloads"][name]["sim_digest"]
        assert same is not None, name
        assert same != other_seed_digests[name], name


def test_self_times_are_non_negative_and_within_the_traced_wall(traced_suite):
    for name in WORKLOADS:
        balance = traced_suite["workloads"][name]["runs"][0]["traced"]["balance"]
        for region in balance.values():
            assert region["min_self_s"] >= 0.0
            for self_sum in region["self_sum_s"].values():
                assert self_sum <= region["wall_s"] * (1 + 1e-6), (name, region)


def test_compare_against_itself_is_within_bound(traced_suite):
    lines, ok = compare(traced_suite, traced_suite, end_to_end(BENCHMARK))
    assert ok
    assert not any(word in line for line in lines for word in ("worse", "DIFFERS"))


def test_fold_check_flags_events_the_reports_do_not_carry():
    class Regions:
        regions = {"main": {}}

    def table(fired: float) -> dict:
        return {
            "pid": 1, "names": ["dispatcher.run"], "parents": [-1], "runs": ["main"],
            "starts": [0], "ends": [10], "items": [5.0],
            "counts": {"main/sim.fired": fired}, "delta": {},
        }

    assert spans.fold_check(Regions, [table(5.0)]) == []
    assert "fired 4 events" in " ".join(spans.fold_check(Regions, [table(4.0)]))


def test_pool_overhead_is_taken_per_pool():
    def table(pid, spans):
        return {
            "pid": pid, "names": [n for n, _, _ in spans], "runs": ["main"] * len(spans),
            "starts": [s for _, s, _ in spans], "ends": [e for _, _, e in spans],
        }

    tables = [
        table(1, [("cluster.pass2", 0, 100), ("cluster.pass2", 200, 300)]),
        # Every pass-2 call forks its own two workers.
        table(2, [("cluster.node", 10, 80)]),
        table(3, [("cluster.node", 10, 60)]),
        table(4, [("cluster.node", 210, 240), ("cluster.node", 240, 290)]),
        table(5, [("cluster.node", 210, 250)]),
    ]
    # (100 - 70) + (100 - 80) ns.
    assert spans._pool_overhead(tables, origin_pid=1) == pytest.approx(50e-9)


def test_fold_reads_host_time_in_reference_units_and_counts_failures():
    def worker(walls, reference, digest="d"):
        sim = dict.fromkeys(("slo_attainment", "admitted_frac", "sim_makespan_ms",
                             "sojourn_p99_ms"), 1.0)
        return {
            "setup_s": 1.0, "setup_reference_s": [reference[0]], "peak_rss_mb": 10.0,
            "checks": [], "reference_s": reference,
            "rounds": [{"wall_s": w, "digest": digest, "checks": []} for w in walls],
            "sim": dict(sim, jobs=300.0),
        }

    run = fold([worker([2.0, 4.0], [0.01, 0.03]), worker([3.0], [0.02])], None)
    # Mean round time 3.0 s over mean reference time 0.02 s.
    assert run["metrics"]["wall_ref"] == pytest.approx(150.0)
    assert run["metrics"]["sim_jobs_per_ref"] == pytest.approx(2.0)
    # Set-up passes of 10 ms and 20 ms: 1 s of set-up is 100 and 50
    # passes, 0.2 s and 0.1 s at the nominal 2 ms a pass; median 0.15 s.
    assert run["metrics"]["setup_s"] == pytest.approx(0.15)
    assert (run["attempted"], run["failed"], run["digests"]) == (3, 0, ["d"])

    bad = fold([worker([2.0], [0.01]), {"error": "exit 1"}, worker([2.0], [0.01], "e")], None)
    assert (bad["attempted"], bad["failed"]) == (3, 1)
    assert bad["metrics"]["ops_ok_frac"] == pytest.approx(2 / 3)
    assert any("sim_digest differs" in f for f in bad["failures"])


def test_verdicts():
    a = summarize([1.00, 1.01, 0.99, 1.00])
    assert verdict(a, summarize([1.30, 1.31, 1.29, 1.30]), "lower", 0.15)[1] == "worse"
    assert verdict(a, summarize([0.80, 0.81, 0.79, 0.80]), "lower", 0.15)[1] == "better"
    assert verdict(a, summarize([1.05, 1.06, 1.04, 1.05]), "lower", 0.15)[1] == "within bound"
    assert verdict(a, summarize([1.30, 1.31, 1.29, 1.30]), "higher", 0.15)[1] == "better"
    noisy = summarize([0.5, 1.0, 1.5, 2.0])
    assert verdict(a, noisy, "lower", 0.15)[1] == "unresolved"
    assert verdict(a, summarize([0.2, 0.4, 0.6, 0.8]), "lower", 0.15)[1] == "better"


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"
    ))
    # run.py finds the checkout from its own location, not the cwd.
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "serve_poisson", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
