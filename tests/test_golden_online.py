"""Golden digests of the online (open-system) paths.

Each case runs one seeded serve / cluster / replay and reduces its
output to the sha256 of the canonical JSON.  The digests in
``tests/golden/online.json`` were captured before the online
admission path was optimised (plan-table pruning, the backlog-scoped
Algorithm 1 ranking, the precomputed knee stencil and the lean
cluster node summaries); the learning-predictor, noisy-predictor and
estimate-order cases were captured before knee searches ran in
cohorts and admission sized arrivals ahead; the EWT and global
overload cases before the admission planner kept its table across
cohorts; the faulted-serve decision rows (jobs that relaunch on
another device) before the decision log became a fold over the
dispatcher's per-job rows.  Every one of those
changes is meant to keep the simulated output byte-identical, and
these cases hold them to it.

Regenerate (only for a change that is *meant* to move the output,
with the reason stated in the change log) with::

    PYTHONPATH=src python tests/test_golden_online.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import ClusterRuntime, ClusterSpec, InterconnectSpec
from repro.core.predictor import NoisyPredictor, OnlinePredictor, OraclePredictor
from repro.faults import FaultPlan
from repro.harness.config import gnn_system
from repro.harness.replay import ReplayConfig, resume_replay, run_replay
from repro.obs.export import result_payload
from repro.serving import PoissonArrivals, ServingRuntime, Tenant

GOLDEN = Path(__file__).parent / "golden" / "online.json"

SCHEDULERS = ("ljf", "adaptive", "global", "ewt")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tenants() -> list[Tenant]:
    return [Tenant("a", weight=2.0), Tenant("b"), Tenant("c", queue_limit=8)]


def _arrivals(seed: int, rate: float = 3e5, horizon: float = 0.003):
    return PoissonArrivals(
        rate=rate, horizon=horizon, seed=seed, tenants=("a", "b", "c")
    )


def _serve_payload(served) -> dict:
    return {
        "report": served.report.as_dict(),
        "records": sorted(
            (job_id, rec.kind.value, rec.arrays, rec.dispatched_at, rec.finished_at)
            for job_id, rec in served.result.records.items()
        ),
        "failed": sorted(served.result.failed_jobs),
    }


def _serve_run(
    scheduler: str, faults: FaultPlan | None = None, arrivals=None, predictor=None
):
    runtime = ServingRuntime(
        gnn_system(), scheduler=scheduler, predictor=predictor, max_backlog=32
    )
    return runtime.serve(
        arrivals or _arrivals(seed=11),
        tenants=_tenants(),
        slo_s=1e-4,
        faults=faults,
    )


def _serve(scheduler: str, **kwargs) -> dict:
    return _serve_payload(_serve_run(scheduler, **kwargs))


class _RecordingOnlinePredictor(OnlinePredictor):
    """An :class:`OnlinePredictor` that logs every ``estimate`` query."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.calls: list[tuple[str, str]] = []

    def estimate(self, job, kind):
        self.calls.append((job.job_id, kind.value))
        return super().estimate(job, kind)


def _online_estimate_calls() -> list:
    """The (job, memory) order a learning predictor is queried in: it
    learns between queries, so planning must never ask it ahead."""
    predictor = _RecordingOnlinePredictor()
    _serve("adaptive", predictor=predictor)
    return predictor.calls


def _serve_overload(scheduler: str) -> dict:
    """Overloaded: a deep backlog for Algorithm 1 to rebalance."""
    return _serve(scheduler, arrivals=_arrivals(seed=13, rate=1e6, horizon=0.001))


def _serve_faults_plan() -> FaultPlan:
    return FaultPlan.random(seed=20, devices=gnn_system().kinds, horizon_s=0.003)


def _serve_faults(scheduler: str) -> dict:
    return _serve(scheduler, faults=_serve_faults_plan())


def _serve_faults_decisions(scheduler: str) -> list:
    """The decision rows of a faulted serve, where jobs relaunch on
    another device: each row keeps its first launch's device, arrays
    and time, and the final attempt's latency."""
    served = _serve_run(scheduler, faults=_serve_faults_plan())
    return result_payload(served.result)["decisions"]


def _cluster_run(shards: int):
    spec = ClusterSpec.homogeneous(
        2, system=gnn_system(), interconnect=InterconnectSpec(contention="shared")
    )
    runtime = ClusterRuntime(spec, scheduler="adaptive", placement="least-loaded")
    result = runtime.serve(
        _arrivals(seed=5, rate=6e5, horizon=0.002),
        tenants=_tenants(),
        slo_s=1e-4,
        shards=shards,
    )
    return result


def _cluster(shards: int) -> dict:
    return _cluster_run(shards).as_dict()


def _cluster_rows(shards: int) -> dict:
    """Digests of every node's trace and decision rows.

    The goldens were captured when nodes shipped their full rows (as
    ``_digest(payload["trace"])``); node summaries now carry the same
    canonical-JSON sha256, so the golden pins the rows unchanged."""
    return {
        name: [payload["trace_sha256"], payload["decisions_sha256"]]
        for name, payload in _cluster_run(shards).node_payloads.items()
    }


def _replay(tmp_dir: Path) -> dict:
    config = ReplayConfig(
        seed=3,
        windows=4,
        window_s=1.25e-4,
        rate=2e6,
        system="gnn",
        slo_s=100e-6,
        admission="predictive",
        autoscale=True,
    )
    checkpoint = tmp_dir / "replay-checkpoint.json"
    if run_replay(config, checkpoint_path=checkpoint, halt_after=2) is not None:
        raise AssertionError("replay did not halt at the checkpoint")
    return resume_replay(checkpoint)


def _cases(tmp_dir: Path) -> dict:
    cases = {f"serve-{name}": (lambda n=name: _serve(n)) for name in SCHEDULERS}
    # EWT and global size arrivals through the same admission planner.
    for name in ("adaptive", "ewt", "global"):
        cases[f"serve-overload-{name}"] = lambda n=name: _serve_overload(n)
    cases["serve-faults-adaptive"] = lambda: _serve_faults("adaptive")
    cases["serve-faults-ewt"] = lambda: _serve_faults("ewt")
    for name in SCHEDULERS:
        cases[f"serve-faults-{name}-decisions"] = (
            lambda n=name: _serve_faults_decisions(n)
        )
    # A learning predictor (it has an ``on_completion`` hook) and a
    # consistently wrong one that hands the planner scaled profile curves.
    cases["serve-online"] = lambda: _serve("adaptive", predictor=OnlinePredictor())
    cases["serve-noisy"] = lambda: _serve(
        "adaptive", predictor=NoisyPredictor(OraclePredictor(), sigma=0.3)
    )
    cases["serve-online-estimate-calls"] = _online_estimate_calls
    cases["cluster-shards1"] = lambda: _cluster(1)
    cases["cluster-shards2"] = lambda: _cluster(2)
    cases["cluster-node-rows"] = lambda: _cluster_rows(2)
    cases["replay-predictive-autoscale"] = lambda: _replay(tmp_dir)
    return cases


CASE_NAMES = tuple(_cases(Path(".")))


@pytest.mark.parametrize("case", CASE_NAMES)
def test_online_golden(case, tmp_path):
    goldens = json.loads(GOLDEN.read_text())
    assert _digest(_cases(tmp_path)[case]()) == goldens[case]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: _digest(run()) for name, run in _cases(Path(tmp)).items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
