"""CLI entry point (python -m repro)."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

#: The option surface of every parameterised subcommand: for each
#: option (or positional), its default, type name, sorted choices and
#: argparse action.  Pinned so that a refactor of how the parser is
#: built can add, lose or re-default no knob.
CLI_SURFACE = {
    "run": {
        "names": (None, None, None, "Store"),
        "--faults": (None, None, None, "Store"),
        "--scheduler": (
            "adaptive", None,
            ("adaptive", "ewt", "global", "ljf"),
            "Store",
        ),
        "--combo": ("A", None, None, "Store"),
        "--parallel -j": (None, "int", None, "Store"),
    },
    "trace": {
        "target": (None, None, None, "Store"),
        "--scheduler": (
            "global", None,
            ("adaptive", "ewt", "global", "ljf"),
            "Store",
        ),
        "--batches": (2, "int", None, "Store"),
        "--json": (None, None, None, "Store"),
        "--csv": (None, None, None, "Store"),
    },
    "serve": {
        "--arrivals": ("poisson", None, ("poisson", "trace"), "Store"),
        "--rate": (50.0, "float", None, "Store"),
        "--horizon": (1.0, "float", None, "Store"),
        "--tenants": (3, "int", None, "Store"),
        "--slo": (10.0, "float", None, "Store"),
        "--seed": (0, "int", None, "Store"),
        "--scheduler": (
            "adaptive", None,
            ("adaptive", "ewt", "global", "ljf"),
            "Store",
        ),
        "--system": ("full", None, ("full", "gnn"), "Store"),
        "--queue-limit": (64, "int", None, "Store"),
        "--max-backlog": (32, "int", None, "Store"),
        "--trace-file": (None, None, None, "Store"),
        "--faults": (None, None, None, "Store"),
        "--json": (None, None, None, "Store"),
        "--predictor": ("oracle", None, None, "Store"),
        "--admission": ("shed", None, ("predictive", "shed"), "Store"),
        "--admission-margin": (1.0, "float", None, "Store"),
    },
    "cluster": {
        "--nodes": (2, "int", None, "Store"),
        "--node-spec": (None, None, None, "Append"),
        "--contention": ("none", None, ("none", "shared"), "Store"),
        "--rate": (50.0, "float", None, "Store"),
        "--horizon": (1.0, "float", None, "Store"),
        "--tenants": (3, "int", None, "Store"),
        "--slo": (10.0, "float", None, "Store"),
        "--seed": (0, "int", None, "Store"),
        "--scheduler": (
            "adaptive", None,
            ("adaptive", "ewt", "global", "ljf"),
            "Store",
        ),
        "--placement": (
            "least-loaded", None,
            ("feedback", "hash", "least-loaded", "round-robin"),
            "Store",
        ),
        "--system": ("full", None, ("full", "gnn"), "Store"),
        "--queue-limit": (64, "int", None, "Store"),
        "--max-backlog": (32, "int", None, "Store"),
        "--shards": (1, "int", None, "Store"),
        "--faults": (None, None, None, "Store"),
        "--fail-node": (None, None, None, "Append"),
        "--admission": ("shed", None, ("predictive", "shed"), "Store"),
        "--admission-margin": (1.0, "float", None, "Store"),
        "--json": (None, None, None, "Store"),
    },
    "replay": {
        "--windows": (6, "int", None, "Store"),
        "--window-ms": (2.0, "float", None, "Store"),
        "--rate": (2000000.0, "float", None, "Store"),
        "--tenants": (3, "int", None, "Store"),
        "--slo": (0.1, "float", None, "Store"),
        "--seed": (20, "int", None, "Store"),
        "--scheduler": (
            "adaptive", None,
            ("adaptive", "ewt", "global", "ljf"),
            "Store",
        ),
        "--system": ("gnn", None, ("full", "gnn"), "Store"),
        "--queue-limit": (32, "int", None, "Store"),
        "--max-backlog": (16, "int", None, "Store"),
        "--admission": ("shed", None, ("predictive", "shed"), "Store"),
        "--admission-margin": (1.0, "float", None, "Store"),
        "--autoscale": (False, None, None, "StoreTrue"),
        "--max-scale": (4, "int", None, "Store"),
        "--nodes": (0, "int", None, "Store"),
        "--placement": (
            "least-loaded", None,
            ("feedback", "hash", "least-loaded", "round-robin"),
            "Store",
        ),
        "--checkpoint": (None, None, None, "Store"),
        "--halt-after": (None, "int", None, "Store"),
        "--resume": (None, None, None, "Store"),
        "--json": (None, None, None, "Store"),
    },
}


def _surface(command: str) -> dict:
    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {}
    for action in sub.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        surface[" ".join(action.option_strings) or action.dest] = (
            action.default,
            action.type.__name__ if action.type else None,
            tuple(sorted(action.choices)) if action.choices else None,
            type(action).__name__.strip("_").replace("Action", ""),
        )
    return surface


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_cli_surface_matches_golden(command):
    assert _surface(command) == CLI_SURFACE[command]


def _assert_one_line_error(capsys, argv, needle):
    """``argv`` exits 2 with one stderr line naming ``needle``."""
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert needle in err, err


def _incomplete_plans(tmp_path) -> list[tuple[str, str]]:
    """Fault plans whose events lack a required key, each with the
    error text that must name the event and the key."""
    plans = []
    for name, events, needle in (
        ("no-kind", [{"time": 0.001}], "fault event 0: missing key 'kind'"),
        ("no-device", [{"kind": "fail", "device": "sram"}, {"kind": "stall"}],
         "fault event 1: missing key 'device'"),
        ("not-object", [7], "fault event 0: expected a JSON object"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"events": events}))
        plans.append((str(path), needle))
    top = tmp_path / "list.json"
    top.write_text("[]")
    plans.append((str(top), "fault plan must be a JSON object"))
    return plans


#: The flags the serve, cluster and replay subcommands share.
SHARED_FLAGS = (
    "--rate", "--tenants", "--slo", "--seed", "--scheduler", "--system",
    "--queue-limit", "--max-backlog", "--admission", "--admission-margin",
    "--horizon", "--faults", "--json", "--placement",
)


def test_shared_flags_are_declared_once():
    """Each shared flag opens exactly one declaring call in the package."""
    src = Path(__file__).resolve().parent.parent / "src"
    text = "".join(p.read_text() for p in sorted(src.rglob("*.py")))
    for flag in SHARED_FLAGS:
        declarations = re.findall(r'\(\s*"' + re.escape(flag) + '"', text)
        assert len(declarations) == 1, flag


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "ablation-knee" in out

    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "5120 arrays" in out and "86016 arrays" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "MLIMP configurations" in out
        assert "302" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_trace_combo(self, capsys):
        assert main(["trace", "A", "--scheduler", "global"]) == 0
        out = capsys.readouterr().out
        assert "dispatch report" in out
        assert "predictor error" in out
        for device in ("sram", "dram", "reram"):
            assert device in out

    def test_trace_exports(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "runs.json"
        csv_path = tmp_path / "trace.csv"
        assert (
            main(
                [
                    "trace", "A",
                    "--scheduler", "ljf",
                    "--json", str(json_path),
                    "--csv", str(csv_path),
                ]
            )
            == 0
        )
        data = json.loads(json_path.read_text())
        (run,) = data["runs"]
        assert run["report"]["n_jobs"] == len(run["decisions"]) > 0
        assert all(
            d["predicted_time"] is not None and d["actual_time"] is not None
            for d in run["decisions"]
        )
        header = csv_path.read_text().splitlines()[0]
        assert header == "run,job_id,device,phase,start,end,duration,arrays"

    def test_trace_unknown_target(self, capsys):
        assert main(["trace", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace target" in err


class TestFaultsCommand:
    SMOKE_PLAN = str(
        Path(__file__).resolve().parent.parent
        / "examples"
        / "faultplan_smoke.json"
    )

    def test_run_faults_smoke_plan(self, capsys):
        assert main(["run", "--faults", self.SMOKE_PLAN]) == 0
        out = capsys.readouterr().out
        assert "degraded mode" in out
        assert "makespan vs fault-free" in out
        assert "migrated off dram" in out

    def test_faults_picks_scheduler_and_combo(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--faults", self.SMOKE_PLAN,
                    "--scheduler", "ljf",
                    "--combo", "C",
                ]
            )
            == 0
        )
        assert "degraded mode" in capsys.readouterr().out

    def test_faults_conflicts_with_experiment_names(self, capsys):
        assert main(["run", "table3", "--faults", self.SMOKE_PLAN]) == 2
        assert "not combinable" in capsys.readouterr().err

    def test_faults_unknown_combo(self, capsys):
        _assert_one_line_error(
            capsys, ["run", "--faults", self.SMOKE_PLAN, "--combo", "Z"], "unknown combo"
        )

    def test_faults_unreadable_plan(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        _assert_one_line_error(
            capsys, ["run", "--faults", missing], f"--faults: cannot read {missing}"
        )
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        _assert_one_line_error(capsys, ["run", "--faults", str(garbled)], "--faults")
        for plan, needle in _incomplete_plans(tmp_path):
            _assert_one_line_error(capsys, ["run", "--faults", plan], needle)


class TestServeCommand:
    def test_serve_poisson_smoke(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--arrivals", "poisson",
                    "--rate", "2000",
                    "--horizon", "0.02",
                    "--tenants", "2",
                    "--slo", "10",
                    "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "attainment" in out
        assert "tenant-0" in out and "tenant-1" in out

    def test_serve_is_deterministic(self, capsys):
        argv = [
            "serve", "--rate", "2000", "--horizon", "0.02",
            "--tenants", "2", "--slo", "10", "--seed", "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_writes_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve", "--rate", "1000", "--horizon", "0.01",
                    "--tenants", "2", "--slo", "5", "--scheduler", "global",
                    "--json", str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        for key in ("scheduler", "slo_ms", "tenants", "utilisation",
                    "slo_attainment", "shed_rate"):
            assert key in payload
        assert payload["slo_ms"] == 5.0
        assert set(payload["tenants"]) == {"tenant-0", "tenant-1"}

    def test_serve_trace_arrivals(self, capsys, tmp_path):
        trace = tmp_path / "arrivals.json"
        trace.write_text(json.dumps([
            {"time": 0.0001, "tenant": "web"},
            {"time": 0.0002, "tenant": "batch", "kernel": "gemm"},
        ]))
        assert (
            main(["serve", "--arrivals", "trace", "--trace-file", str(trace)])
            == 0
        )
        out = capsys.readouterr().out
        assert "web" in out and "batch" in out

    def test_serve_trace_needs_file(self, capsys):
        assert main(["serve", "--arrivals", "trace"]) == 2
        assert "--trace-file" in capsys.readouterr().err

    def test_serve_rejects_bad_args(self, capsys, tmp_path):
        assert main(["serve", "--tenants", "0"]) == 2
        assert "--tenants" in capsys.readouterr().err
        assert main(["serve", "--slo", "-1"]) == 2
        assert "--slo" in capsys.readouterr().err
        for bad in (
            ["--queue-limit", "0"],
            ["--max-backlog", "0"],
            ["--rate", "-1"],
            ["--horizon", "0.001", "--admission", "predictive",
             "--admission-margin", "0"],
        ):
            _assert_one_line_error(capsys, ["serve", *bad], bad[-2])
        missing = str(tmp_path / "missing.json")
        for bad in (
            ["--faults", missing],
            ["--predictor", missing],
            ["--arrivals", "trace", "--trace-file", missing],
        ):
            _assert_one_line_error(
                capsys, ["serve", *bad], f"{bad[-2]}: cannot read {missing}"
            )
        for plan, needle in _incomplete_plans(tmp_path):
            _assert_one_line_error(capsys, ["serve", "--faults", plan], needle)
        for name, entries, needle in (
            ("non-object", [5], "entry 0 is not an object"),
            (
                "null-time",
                [{"time": None, "tenant": "a"}, {"time": 0.1, "tenant": "a"}],
                "entry 0 'time' must be a finite, non-negative number, got None",
            ),
        ):
            trace = tmp_path / f"{name}-trace.json"
            trace.write_text(json.dumps(entries))
            _assert_one_line_error(
                capsys,
                ["serve", "--arrivals", "trace", "--trace-file", str(trace)],
                f"trace {trace}: {needle}",
            )

    def test_serve_with_fault_plan(self, capsys):
        plan = TestFaultsCommand.SMOKE_PLAN
        assert (
            main(
                [
                    "serve", "--rate", "2000", "--horizon", "0.02",
                    "--tenants", "2", "--slo", "10", "--faults", plan,
                    "--system", "gnn",
                ]
            )
            == 0
        )
        assert "attainment" in capsys.readouterr().out


class TestClusterCommand:
    ARGS = [
        "cluster", "--nodes", "2", "--rate", "2000", "--horizon", "0.01",
        "--tenants", "2", "--slo", "10", "--seed", "5", "--system", "gnn",
    ]

    def test_cluster_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "node-0" in out and "node-1" in out
        assert "placement[least-loaded]" in out
        assert "attainment" in out

    def test_cluster_is_deterministic_across_shards(self, capsys):
        assert main(self.ARGS + ["--shards", "1"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_cluster_writes_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "cluster.json"
        assert main(self.ARGS + ["--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["n_nodes"] == 2
        report = payload["report"]
        for key in ("scheduler", "slo_ms", "tenants", "utilisation",
                    "slo_attainment", "nodes"):
            assert key in report
        assert set(report["nodes"]) == {"node-0", "node-1"}
        assert payload["cluster"]["placement"] == "least-loaded"
        assert payload["completed_per_sec"] > 0

    def test_cluster_placement_flag(self, capsys):
        assert main(self.ARGS + ["--placement", "hash"]) == 0
        out = capsys.readouterr().out
        assert "placement[hash]" in out
        assert "handoffs 0" in out

    def test_cluster_node_fault(self, capsys):
        assert main(self.ARGS + ["--fail-node", "node-1:0.005"]) == 0
        assert "node-1" in capsys.readouterr().out

    def test_cluster_rejects_bad_args(self, capsys, tmp_path):
        assert main(["cluster", "--nodes", "0"]) == 2
        assert "--nodes" in capsys.readouterr().err
        assert main(["cluster", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(self.ARGS + ["--fail-node", "node-1"]) == 2
        assert "NODE:SECONDS" in capsys.readouterr().err
        assert main(self.ARGS + ["--fail-node", "node-9:0.1"]) == 2
        assert "unknown node" in capsys.readouterr().err
        for bad in (
            ["--max-backlog", "0"],
            ["--queue-limit", "0"],
            ["--admission-margin", "0"],
        ):
            _assert_one_line_error(capsys, ["cluster", *bad], bad[0])
        missing = str(tmp_path / "missing.json")
        _assert_one_line_error(
            capsys, ["cluster", "--faults", missing], f"--faults: cannot read {missing}"
        )
        for plan, needle in _incomplete_plans(tmp_path):
            _assert_one_line_error(capsys, ["cluster", "--faults", plan], needle)


class TestPredictorCommand:
    @pytest.mark.parametrize("action", ["eval", "export"])
    def test_rejects_unreadable_model(self, capsys, tmp_path, action):
        missing = str(tmp_path / "missing.json")
        _assert_one_line_error(
            capsys, ["predictor", action, "--model", missing],
            f"--model: cannot read {missing}",
        )
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        _assert_one_line_error(
            capsys, ["predictor", action, "--model", str(garbled)],
            f"--model: {garbled} is not JSON",
        )
        for payload in ("[]", '{"format": "other"}'):
            wrong = tmp_path / "wrong.json"
            wrong.write_text(payload)
            _assert_one_line_error(
                capsys, ["predictor", action, "--model", str(wrong)],
                "not an mlimp-predictor artifact",
            )


class TestReplayCommand:
    ARGS = ["replay", "--windows", "2", "--window-ms", "0.5"]

    def test_replay_smoke(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "totals:" in out and "attainment" in out

    def test_replay_predictive_autoscale_json(self, capsys, tmp_path):
        out_path = tmp_path / "replay.json"
        assert main(self.ARGS + [
            "--admission", "predictive", "--autoscale",
            "--json", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "mlimp-replay"
        assert len(payload["windows"]) == 2
        assert payload["totals"]["shed_predicted"] > 0
        out = capsys.readouterr().out
        assert "scale event" in out

    def test_replay_halt_and_resume_byte_identical(self, capsys, tmp_path):
        straight = tmp_path / "straight.json"
        resumed = tmp_path / "resumed.json"
        ck = tmp_path / "ck.json"
        args = self.ARGS + ["--admission", "predictive", "--autoscale"]
        assert main(args + ["--json", str(straight)]) == 0
        capsys.readouterr()
        assert main(args + [
            "--halt-after", "1", "--checkpoint", str(ck),
        ]) == 0
        assert "halted after 1" in capsys.readouterr().out
        assert main([
            "replay", "--resume", str(ck), "--json", str(resumed),
        ]) == 0
        assert straight.read_bytes() == resumed.read_bytes()

    def test_replay_rejects_bad_args(self, capsys):
        assert main(["replay", "--halt-after", "1"]) == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert main(["replay", "--halt-after", "0",
                     "--checkpoint", "x.json"]) == 2
        assert "--halt-after" in capsys.readouterr().err
        assert main(["replay", "--windows", "0"]) == 2
        assert "windows" in capsys.readouterr().err
        _assert_one_line_error(capsys, ["replay", "--max-scale", "0"], "--max-scale")

    def test_replay_resume_rejects_non_checkpoint(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "nope"}))
        assert main(["replay", "--resume", str(bogus)]) == 2
        assert "checkpoint" in capsys.readouterr().err
        ck = tmp_path / "ck.json"
        assert main(self.ARGS + ["--halt-after", "1",
                                 "--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        state = json.loads(ck.read_text())
        corrupt = tmp_path / "corrupt.json"
        for key, broken in (
            ("bogus", {**state, "config": {**state["config"], "bogus": 1}}),
            ("list", {**state, "config": [1, 2]}),
            ("next_window",
             {k: v for k, v in state.items() if k != "next_window"}),
        ):
            corrupt.write_text(json.dumps(broken))
            _assert_one_line_error(
                capsys, ["replay", "--resume", str(corrupt)], key
            )
        _assert_one_line_error(
            capsys, ["replay", "--resume", str(tmp_path / "nope.json")],
            "nope.json",
        )

    def test_serve_admission_flag(self, capsys, tmp_path):
        out_path = tmp_path / "serve.json"
        assert main([
            "serve", "--system", "gnn", "--rate", "2e6",
            "--horizon", "0.001", "--slo", "0.1", "--seed", "20",
            "--queue-limit", "32", "--max-backlog", "16",
            "--admission", "predictive", "--json", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "admission[predictive]" in out
        payload = json.loads(out_path.read_text())
        assert payload["admission"] == "predictive"
        assert payload["shed_predicted"] > 0

    def test_cluster_admission_flag(self, capsys):
        assert main([
            "cluster", "--nodes", "2", "--system", "gnn",
            "--rate", "2e6", "--horizon", "0.0005", "--slo", "0.1",
            "--seed", "20", "--queue-limit", "32",
            "--max-backlog", "16", "--admission", "predictive",
        ]) == 0
        assert "admission[predictive]" in capsys.readouterr().out
