"""Trace-replay horizon benchmark: determinism, resume, autoscaling.

The replay harness's load-bearing guarantees:

* **Window determinism** -- the same :class:`ReplayConfig` produces a
  byte-identical payload, single-node and cluster-mode alike.
* **Exact resume** -- a replay halted at any window and resumed from
  its checkpoint file matches the uninterrupted run byte for byte.
* **Feedback that moves the needle** -- the autoscaler grows the pool
  under sustained overload (and shrinks it when idle), and predictive
  admission beats the shed-only baseline's SLO attainment on the
  overloaded trace.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.harness.config import gnn_system
from repro.harness.replay import (
    REPLAY_EXPERIMENTS,
    ReplayConfig,
    load_checkpoint,
    resume_replay,
    run_replay,
)
from repro.serving import Autoscaler, scale_system

#: Small but genuinely overloaded: ~2x the scale-1 gnn drain rate.
SMALL = ReplayConfig(
    seed=20,
    rate=2e6,
    windows=3,
    window_s=0.001,
    slo_s=100e-6,
    queue_limit=32,
    max_backlog=16,
)


def payload_json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ======================================================================
# Determinism and resume
# ======================================================================
def test_replay_deterministic():
    cfg = dataclasses.replace(SMALL, admission="predictive", autoscale=True)
    assert payload_json(run_replay(cfg)) == payload_json(run_replay(cfg))


def test_checkpoint_resume_byte_identical(tmp_path):
    cfg = dataclasses.replace(SMALL, admission="predictive", autoscale=True)
    straight = run_replay(cfg)
    ck = tmp_path / "ck.json"
    assert run_replay(cfg, checkpoint_path=ck, halt_after=1) is None
    state = load_checkpoint(ck)
    assert state["next_window"] == 1
    assert len(state["windows"]) == 1
    resumed = resume_replay(ck)
    assert payload_json(resumed) == payload_json(straight)


def test_resume_can_halt_again(tmp_path):
    cfg = dataclasses.replace(SMALL, admission="predictive", autoscale=True)
    straight = run_replay(cfg)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run_replay(cfg, checkpoint_path=first, halt_after=1) is None
    assert (
        resume_replay(first, checkpoint_path=second, halt_after=2) is None
    )
    assert payload_json(resume_replay(second)) == payload_json(straight)


def test_checkpoint_validation(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a replay checkpoint"):
        load_checkpoint(bogus)
    stale = tmp_path / "stale.json"
    stale.write_text(
        json.dumps({"format": "mlimp-replay-checkpoint", "version": 99})
    )
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(stale)
    with pytest.raises(ValueError, match="checkpoint_path"):
        run_replay(SMALL, halt_after=1)
    with pytest.raises(ValueError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "missing.json")
    # A malformed checkpoint names the unknown or missing key.
    good = tmp_path / "good.json"
    assert run_replay(SMALL, checkpoint_path=good, halt_after=0) is None
    state = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    for broken, match in (
        ({**state, "config": {**state["config"], "bogus": 1}}, "bogus"),
        ({**state, "config": [1, 2]}, "JSON object"),
        ({k: v for k, v in state.items() if k != "next_window"},
         "next_window"),
        ({**state, "config": {
            k: v for k, v in state["config"].items() if k != "rate"
        }}, "rate"),
    ):
        bad.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=match):
            resume_replay(bad)


def test_config_validation_and_roundtrip():
    cfg = dataclasses.replace(SMALL, admission="predictive", nodes=2)
    assert ReplayConfig.from_dict(cfg.as_dict()) == cfg
    for bad in (
        {"windows": 0},
        {"window_s": 0.0},
        {"tenants": 0},
        {"slo_s": 0.0},
        {"nodes": -1},
        {"system": "bogus"},
        {"rate": -1.0},
        {"queue_limit": 0},
        {"max_backlog": 0},
        {"admission_margin": 0.0},
        {"scheduler": "bogus"},
        {"admission": "bogus"},
        {"placement": "bogus"},
    ):
        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, **bad)


# ======================================================================
# Autoscaler behaviour
# ======================================================================
def test_replay_scales_up_under_overload():
    cfg = dataclasses.replace(
        SMALL, admission="predictive", autoscale=True, max_scale=3
    )
    payload = run_replay(cfg)
    scales = [row["scale"] for row in payload["windows"]]
    assert scales[0] == 1
    assert payload["totals"]["peak_scale"] > 1
    assert payload["autoscale_events"]
    # More capacity must not lose jobs: completions rise window over
    # window as the pool grows (same arrival volume each window).
    by_scale = {row["scale"]: row["completed"] for row in payload["windows"]}
    assert by_scale[max(by_scale)] > by_scale[min(by_scale)]


def test_autoscaler_scales_down_when_idle():
    scaler = Autoscaler(max_scale=4, scale=3)
    scaler.observe(0, utilisation=0.1, queue_depth=0.0, shed_rate=0.0)
    assert scaler.scale == 2
    # ...but never through the floor.
    scaler.observe(1, utilisation=0.1, queue_depth=0.0, shed_rate=0.0)
    scaler.observe(2, utilisation=0.1, queue_depth=0.0, shed_rate=0.0)
    assert scaler.scale == 1
    # Holding steady emits no event.
    before = len(scaler.events)
    scaler.observe(3, utilisation=0.5, queue_depth=1.0, shed_rate=0.0)
    assert scaler.scale == 1 and len(scaler.events) == before
    # State round-trips exactly.
    rebuilt = Autoscaler.from_state(scaler.max_scale, scaler.state_dict())
    assert rebuilt.state_dict() == scaler.state_dict()


def test_autoscaler_validation():
    with pytest.raises(ValueError, match="scale"):
        Autoscaler(max_scale=2, scale=5)
    with pytest.raises(ValueError, match="scale"):
        Autoscaler(scale=0)
    with pytest.raises(ValueError, match=r"max_scale \(--max-scale\)"):
        ReplayConfig(max_scale=0)


def test_scale_system_multiplies_arrays_and_slots():
    base = gnn_system()
    assert scale_system(base, 1) is base
    doubled = scale_system(base, 2)
    for kind, spec in base.specs.items():
        assert doubled.specs[kind].num_arrays == 2 * spec.num_arrays
        assert (
            doubled.specs[kind].max_outstanding_jobs
            == 2 * spec.max_outstanding_jobs
        )
        # Device physics stay at spec.
        assert doubled.specs[kind].clock_mhz == spec.clock_mhz
    with pytest.raises(ValueError, match="scale"):
        scale_system(base, 0)


# ======================================================================
# Policy deltas and cluster mode
# ======================================================================
def test_predictive_replay_beats_shed_only():
    baseline = run_replay(SMALL)
    gated = run_replay(dataclasses.replace(SMALL, admission="predictive"))
    assert gated["totals"]["shed_predicted"] > 0
    assert baseline["totals"]["shed_predicted"] == 0
    assert (
        gated["totals"]["slo_attainment"]
        > baseline["totals"]["slo_attainment"]
    )
    # Both arms saw the identical offered arrival stream.
    assert gated["totals"]["offered"] == baseline["totals"]["offered"]


def test_cluster_replay_deterministic_and_scaled():
    cfg = dataclasses.replace(
        SMALL,
        windows=2,
        nodes=2,
        admission="predictive",
        autoscale=True,
    )
    a, b = run_replay(cfg), run_replay(cfg)
    assert payload_json(a) == payload_json(b)
    # Cluster windows report fleet utilisation but no queue gauge.
    for row in a["windows"]:
        assert row["queue_depth_mean"] == 0.0
        assert row["utilisation_max"] > 0.0


def test_feedback_cluster_replay_deterministic_with_weights():
    cfg = dataclasses.replace(
        SMALL, windows=3, nodes=2, placement="feedback"
    )
    a, b = run_replay(cfg), run_replay(cfg)
    assert payload_json(a) == payload_json(b)
    weights = a["placement_weights"]
    assert len(weights) == 2
    assert all(w > 0 for w in weights)
    # A non-feedback cluster replay carries no weights key at all.
    plain = run_replay(dataclasses.replace(SMALL, windows=2, nodes=2))
    assert "placement_weights" not in plain


def test_feedback_replay_resume_byte_identical(tmp_path):
    cfg = dataclasses.replace(
        SMALL, windows=3, nodes=2, placement="feedback"
    )
    straight = run_replay(cfg)
    ck = tmp_path / "ck.json"
    assert run_replay(cfg, checkpoint_path=ck, halt_after=1) is None
    state = load_checkpoint(ck)
    # The learned weights ride the checkpoint so the resumed policy
    # picks up mid-education, not from scratch.
    assert len(state["placement_weights"]) == 2
    resumed = resume_replay(ck)
    assert payload_json(resumed) == payload_json(straight)


def test_replay_horizon_registered():
    from repro.harness.experiments import full_registry

    assert "replay-horizon" in full_registry()
    assert "replay-horizon" in REPLAY_EXPERIMENTS
