"""Trace-replay horizon benchmark: serving policies at fleet timescales.

A single serve run lasts a few thousand job services -- long enough
to rank schedulers, far too short to judge *policies* that act on
feedback (predictive admission, pool autoscaling).  The Tesseract
retrospective's point (PAPERS.md) is that PIM systems are judged at
fleet horizons; this harness gets there by replaying **windows** of
seeded arrivals back to back:

* every window is one ordinary serving (or cluster) run on a fixed
  pool -- seeded Poisson arrivals, run to drain, byte-stable;
* between windows the :class:`~repro.serving.autoscale.Autoscaler`
  reads the finished window's utilisation / queue-depth / shed-rate
  signals and resizes the pool for the next one; a cluster replay
  with ``placement="feedback"`` additionally feeds every node's
  window report back into one persistent
  :class:`~repro.cluster.placement.FeedbackPlacement`, so placement
  and scaling share the same between-window feedback cycle;
* window seeds derive deterministically from ``(config.seed, window
  index)``, so any window simulates identically no matter when -- or
  in which process -- it runs.

That last property makes **checkpoint/resume exact**: the only state
crossing a window boundary is the autoscaler's integer scale, its
event log, the feedback policy's plain-float node weights, and the
finished windows' summary rows -- all plain JSON.
A replay halted at any window and resumed from its checkpoint file
produces byte-identical final output to the uninterrupted run (CI's
``replay-smoke`` job ``cmp``-gates this).

The ``replay-horizon`` experiment runs the same overloaded trace
through the shed-only baseline and the predictive/autoscaling stack
and reports the SLO-attainment delta::

    python -m repro run replay-horizon
    python -m repro replay --windows 6 --rate 2e6 --slo 0.1 --admission predictive
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..cluster.placement import PLACEMENTS, FeedbackPlacement, PlacementPolicy
from ..cluster.runtime import ClusterRuntime
from ..cluster.spec import ClusterSpec
from ..serving import Autoscaler, ServingRuntime, scale_system
from .reporting import Report
from .spec import RunSpec, _require

__all__ = [
    "ReplayConfig",
    "run_replay",
    "resume_replay",
    "load_checkpoint",
    "replay_horizon",
    "REPLAY_EXPERIMENTS",
]

CHECKPOINT_FORMAT = "mlimp-replay-checkpoint"
PAYLOAD_FORMAT = "mlimp-replay"
REPLAY_STATE_VERSION = 1
#: What ``resume_replay`` reads from a checkpoint besides its header.
_CHECKPOINT_KEYS = ("config", "next_window", "autoscale", "windows")

#: Window-seed stride: seeds of consecutive windows stay far apart so
#: neighbouring windows never share an arrival stream.
_SEED_STRIDE = 7919


@dataclass(frozen=True, kw_only=True)
class ReplayConfig(RunSpec):
    """One replay's complete, JSON-round-trippable description.

    The shared serving fields come from :class:`RunSpec`, defaulted to
    an overloaded scale-1 gnn pool under a 100 us SLO.
    """

    rate: float = 2e6
    slo_s: float = 100e-6
    system: str = "gnn"
    queue_limit: int = 32
    max_backlog: int = 16
    windows: int = 6
    window_s: float = 0.002
    autoscale: bool = False
    max_scale: int = 4
    #: 0 = single-node serving; N > 0 = an N-node cluster replay (the
    #: autoscaled system is stamped onto every node).
    nodes: int = 0
    placement: str = "least-loaded"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self,
            ("windows", self.windows >= 1, "must be >= 1"),
            ("window_s", self.window_s > 0, "must be positive"),
            ("max_scale", self.max_scale >= 1, "must be >= 1"),
            ("nodes", self.nodes >= 0, "must be >= 0 (0 = single node)"),
            ("placement", self.placement in PLACEMENTS,
             f"must be one of {sorted(PLACEMENTS)}"),
        )


# ----------------------------------------------------------------------
def _window_seed(config: ReplayConfig, window: int) -> int:
    return config.seed + _SEED_STRIDE * window

def _run_window(
    config: ReplayConfig,
    window: int,
    scale: int,
    placement: PlacementPolicy | None = None,
) -> dict:
    """Simulate one window at one pool scale; return its summary row.

    ``placement`` optionally threads one persistent policy instance
    through the window (the feedback loop: a
    :class:`FeedbackPlacement` keeps its learned node weights across
    windows, and this function feeds it the finished window's
    per-node report sections).
    """
    system = scale_system(config.build_system(), scale)
    arrivals = config.arrivals(config.window_s, _window_seed(config, window))
    label = f"{config.scheduler}/replay-w{window}"
    if config.nodes > 0:
        cluster = ClusterSpec.homogeneous(config.nodes, system=system)
        runtime = ClusterRuntime(
            cluster,
            scheduler=config.scheduler,
            placement=placement if placement is not None else config.placement,
            max_backlog=config.max_backlog,
        )
        result = runtime.serve(arrivals, label=label, **config.serve_kwargs())
        report = result.report
        if isinstance(placement, FeedbackPlacement):
            placement.observe_reports(
                [report.nodes.get(name, {}) for name in cluster.names]
            )
        # Per-node metrics stay inside the shards; the cluster signal
        # set is utilisation + shed rate (queue depth reads 0).
        queue_depth = 0.0
    else:
        runtime = ServingRuntime(
            system,
            scheduler=config.scheduler,
            max_backlog=config.max_backlog,
        )
        serving = runtime.serve(arrivals, label=label, **config.serve_kwargs())
        report = serving.report
        makespan = serving.result.makespan
        queue_depth = (
            serving.result.metrics.gauge("jobs.pending").time_weighted_mean(
                makespan
            )
            if makespan > 0
            else 0.0
        )
    return {
        "window": window,
        "start_s": window * config.window_s,
        "scale": scale,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "shed_predicted": report.shed_predicted,
        "shed_rate": report.shed_rate,
        "slo_attainment": report.slo_attainment,
        "makespan_s": report.makespan,
        "utilisation_max": max(report.utilisation.values(), default=0.0),
        "queue_depth_mean": queue_depth,
    }


def _totals(rows: list[dict]) -> dict:
    completed = sum(r["completed"] for r in rows)
    offered = sum(r["offered"] for r in rows)
    met = sum(r["slo_attainment"] * r["completed"] for r in rows)
    return {
        "windows": len(rows),
        "offered": offered,
        "completed": completed,
        "shed": sum(r["shed"] for r in rows),
        "shed_predicted": sum(r["shed_predicted"] for r in rows),
        "slo_attainment": met / completed if completed else 1.0,
        "peak_scale": max((r["scale"] for r in rows), default=1),
    }


def _uses_feedback(config: ReplayConfig) -> bool:
    return config.nodes > 0 and config.placement == "feedback"


def _payload(
    config: ReplayConfig,
    rows: list[dict],
    autoscaler: Autoscaler,
    placement: PlacementPolicy | None = None,
) -> dict:
    payload = {
        "format": PAYLOAD_FORMAT,
        "version": REPLAY_STATE_VERSION,
        "config": config.as_dict(),
        "windows": rows,
        "autoscale_events": [e.as_dict() for e in autoscaler.events],
        "final_scale": autoscaler.scale,
        "totals": _totals(rows),
    }
    # Gated: only feedback replays carry weights, so every other
    # payload stays byte-identical to the historical schema.
    if isinstance(placement, FeedbackPlacement):
        payload["placement_weights"] = placement.weights
    return payload


def _write_checkpoint(
    path, config: ReplayConfig, next_window: int,
    rows: list[dict], autoscaler: Autoscaler,
    placement: PlacementPolicy | None = None,
) -> Path:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": REPLAY_STATE_VERSION,
        "config": config.as_dict(),
        "next_window": next_window,
        "autoscale": autoscaler.state_dict(),
        "windows": rows,
    }
    if isinstance(placement, FeedbackPlacement):
        payload["placement_weights"] = placement.weights
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_checkpoint(path) -> dict:
    """Read and validate a replay checkpoint file."""
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read checkpoint {path}: {error}") from error
    if not isinstance(state, dict) or state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a replay checkpoint")
    if state.get("version") != REPLAY_STATE_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {state.get('version')!r} "
            f"(this build reads version {REPLAY_STATE_VERSION})"
        )
    missing = sorted(set(_CHECKPOINT_KEYS) - set(state))
    if missing:
        raise ValueError(f"checkpoint {path} misses {', '.join(missing)}")
    return state


# ----------------------------------------------------------------------
def run_replay(
    config: ReplayConfig,
    checkpoint_path=None,
    halt_after: int | None = None,
    _start_window: int = 0,
    _autoscaler: Autoscaler | None = None,
    _rows: list[dict] | None = None,
    _placement_weights: list[float] | None = None,
) -> dict | None:
    """Replay the configured windows; return the final payload.

    ``halt_after=N`` stops once N windows have completed, writes the
    mid-replay state to ``checkpoint_path`` and returns ``None`` --
    :func:`resume_replay` then continues from exactly that point.
    The resumed run's payload is byte-identical to an uninterrupted
    one: window seeds depend only on the window index, and all
    cross-window state (autoscaler, feedback-placement weights) lives
    in the checkpoint.
    """
    if halt_after is not None and checkpoint_path is None:
        raise ValueError("halt_after needs a checkpoint_path to write")
    autoscaler = _autoscaler or Autoscaler(max_scale=config.max_scale)
    rows = list(_rows or [])
    # One persistent policy instance carries the feedback loop's node
    # weights across windows (and in/out of checkpoints).
    placement = (
        FeedbackPlacement(weights=_placement_weights)
        if _uses_feedback(config)
        else None
    )
    for window in range(_start_window, config.windows):
        if halt_after is not None and window >= halt_after:
            _write_checkpoint(
                checkpoint_path, config, window, rows, autoscaler, placement
            )
            return None
        row = _run_window(config, window, autoscaler.scale, placement)
        rows.append(row)
        if config.autoscale:
            autoscaler.observe(
                window,
                utilisation=row["utilisation_max"],
                queue_depth=row["queue_depth_mean"],
                shed_rate=row["shed_rate"],
            )
    return _payload(config, rows, autoscaler, placement)


def resume_replay(
    path, checkpoint_path=None, halt_after: int | None = None
) -> dict | None:
    """Continue a replay from a checkpoint written by ``halt_after``."""
    state = load_checkpoint(path)
    config = ReplayConfig.from_dict(state["config"])
    autoscaler = Autoscaler.from_state(config.max_scale, state["autoscale"])
    weights = state.get("placement_weights")
    return run_replay(
        config,
        checkpoint_path=checkpoint_path,
        halt_after=halt_after,
        _start_window=int(state["next_window"]),
        _autoscaler=autoscaler,
        _rows=list(state["windows"]),
        _placement_weights=list(weights) if weights else None,
    )


# ----------------------------------------------------------------------
#: The overloaded seeded trace both experiment arms replay (the
#: ReplayConfig defaults): ~2x the drain rate of the scale-1 gnn pool,
#: judged against a 100 us SLO.
_HORIZON_CONFIG = ReplayConfig(seed=20)


def replay_horizon() -> Report:
    """Trace replay: predictive admission + autoscale vs shed-only."""
    arms = [
        ("shed-only", _HORIZON_CONFIG),
        (
            "predictive",
            dataclasses.replace(_HORIZON_CONFIG, admission="predictive"),
        ),
        (
            "predictive+autoscale",
            dataclasses.replace(
                _HORIZON_CONFIG, admission="predictive", autoscale=True
            ),
        ),
    ]
    report = Report(
        title="Trace replay -- predictive serving vs shed-only baseline",
        columns=[
            "arm",
            "offered",
            "completed",
            "shed",
            "predicted",
            "slo attainment",
            "peak scale",
            "scale events",
        ],
    )
    attainment: dict[str, float] = {}
    for name, config in arms:
        payload = run_replay(config)
        totals = payload["totals"]
        attainment[name] = totals["slo_attainment"]
        report.add_row(
            name,
            totals["offered"],
            totals["completed"],
            totals["shed"],
            totals["shed_predicted"],
            f"{totals['slo_attainment']:.1%}",
            totals["peak_scale"],
            len(payload["autoscale_events"]),
        )
    cfg = _HORIZON_CONFIG
    report.note(
        f"{cfg.windows} windows x {cfg.window_s * 1e3:g} ms at "
        f"{cfg.rate:g} jobs/s (seed {cfg.seed}), slo {cfg.slo_s * 1e6:g} us, "
        f"{cfg.scheduler} scheduler on the scaled gnn system"
    )
    report.note(
        "attainment delta vs baseline: predictive "
        f"{attainment['predictive'] - attainment['shed-only']:+.1%}, "
        "predictive+autoscale "
        f"{attainment['predictive+autoscale'] - attainment['shed-only']:+.1%}"
    )
    return report


#: Registry fragment merged by ``repro.harness.experiments.full_registry``.
REPLAY_EXPERIMENTS = {
    "replay-horizon": replay_horizon,
}
