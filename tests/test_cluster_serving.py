"""Cluster serving: degeneracy, determinism, reconciliation, scaling.

The load-bearing guarantees of ``repro.cluster``'s runtime half:

* **1-node degeneracy** -- a single-node cluster is byte-identical to
  the plain single-node serving path: same dispatch payload summary
  (row counts and sha256 digests of the trace and decisions), same
  per-node report, and the cluster-level report (minus its ``nodes``
  section) matches field for field.
* **Shard invariance** -- running the node simulations in worker
  processes produces byte-identical merged output to the in-process
  loop.
* **Reconciliation** -- per-node report sections sum to the cluster
  totals (offered, completed, placed) under seeded multi-tenant
  arrivals, with cluster-level losses counted as shed.
* **Scaling** -- at a rate that saturates one node, an 8-node
  cluster completes >= 4x the jobs per simulated second.
* **Fault composition** -- a node-level ``fail`` composes with a
  device-level plan on the same node and steers later arrivals away.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    ClusterRuntime,
    ClusterSpec,
    InterconnectSpec,
    NodeFault,
    home_node,
)
from repro.faults import FaultPlan
from repro.faults.plan import FaultEvent, FaultKind
from repro.harness.config import full_system, gnn_system
from repro.obs.export import result_summary
from repro.serving import PoissonArrivals, ServingRuntime, Tenant
from repro.serving.arrivals import TimelineArrivals
from repro.sim.events import JobArrival
from tests.prophelpers import make_jobs

SLO_S = 0.01


def _tenants() -> list[Tenant]:
    return [
        Tenant("a", weight=2.0),
        Tenant("b"),
        Tenant("c", queue_limit=8),
    ]


def _arrivals(rate: float = 2e3, horizon: float = 0.02, seed: int = 7):
    return PoissonArrivals(
        rate=rate, horizon=horizon, seed=seed, tenants=("a", "b", "c")
    )


def _cluster_serve(n_nodes: int, system=None, shards: int | None = None, **kwargs):
    system = system or full_system()
    runtime = ClusterRuntime(
        ClusterSpec.homogeneous(n_nodes, system=system),
        scheduler=kwargs.pop("scheduler", "adaptive"),
        placement=kwargs.pop("placement", "least-loaded"),
    )
    return runtime.serve(
        kwargs.pop("arrivals", _arrivals()),
        tenants=_tenants(),
        slo_s=SLO_S,
        shards=shards,
        **kwargs,
    )


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ======================================================================
# 1-node degeneracy: byte-identical to the plain serving path
# ======================================================================
@pytest.mark.parametrize("scheduler", ["ljf", "adaptive", "global"])
def test_single_node_cluster_matches_serving_path(scheduler):
    system = full_system()
    direct = ServingRuntime(system, scheduler=scheduler).serve(
        _arrivals(), tenants=_tenants(), slo_s=SLO_S
    )
    cluster = _cluster_serve(1, system=system, scheduler=scheduler)

    # Nodes ship a summary; its row digests keep every trace and
    # decision row byte-checked.
    node = cluster.node_payloads["node-0"]
    assert _dumps(result_summary(direct.result)) == _dumps(node)
    assert _dumps(direct.report.as_dict()) == _dumps(
        cluster.node_reports["node-0"].as_dict()
    )
    # The merged cluster report adds only the per-node sections.
    merged = cluster.report.as_dict()
    nodes = merged.pop("nodes")
    assert set(nodes) == {"node-0"}
    assert _dumps(direct.report.as_dict()) == _dumps(merged)
    # No interconnect traffic on one node: every tenant is home.
    assert cluster.stats.handoffs == 0
    assert cluster.stats.replicas == 0
    assert cluster.stats.delays == {}


def test_single_node_placement_choice_is_irrelevant():
    reports = {
        name: _cluster_serve(1, placement=name).report.as_dict()
        for name in ("least-loaded", "hash", "round-robin")
    }
    baseline = _dumps(reports["least-loaded"])
    assert all(_dumps(r) == baseline for r in reports.values())


# ======================================================================
# Shard invariance and seeded determinism
# ======================================================================
def test_sharded_run_byte_identical_to_in_process():
    serial = _cluster_serve(2, shards=1)
    pooled = _cluster_serve(2, shards=2)
    assert _dumps(serial.as_dict()) == _dumps(pooled.as_dict())
    assert _dumps(serial.node_payloads) == _dumps(pooled.node_payloads)


def test_same_seed_byte_identical_cluster_report():
    first = _cluster_serve(3)
    second = _cluster_serve(3)
    assert _dumps(first.as_dict()) == _dumps(second.as_dict())


def test_shards_beyond_node_count_are_capped():
    a = _cluster_serve(2, shards=2)
    b = _cluster_serve(2, shards=16)
    assert _dumps(a.as_dict()) == _dumps(b.as_dict())


# ======================================================================
# Reconciliation: per-node sections vs cluster totals
# ======================================================================
def test_node_sections_reconcile_with_cluster_totals():
    result = _cluster_serve(3)
    report = result.report
    assert set(report.nodes) == {"node-0", "node-1", "node-2"}

    node_reports = result.node_reports.values()
    assert report.completed == sum(r.completed for r in node_reports)
    assert report.offered == sum(r.offered for r in node_reports)
    assert report.shed == sum(r.shed for r in node_reports)
    assert report.makespan == max(r.makespan for r in node_reports)

    placed = sum(result.stats.placed.values())
    assert placed == report.offered
    for name, section in report.nodes.items():
        node = result.node_reports[name]
        assert section["completed"] == node.completed
        assert section["offered"] == node.offered
        assert section["placed"] == result.stats.placed[name]
        assert section["makespan"] == node.makespan

    # Conservation: every offered job is completed, shed, or failed.
    failed = sum(len(p["failed_jobs"]) for p in result.node_payloads.values())
    assert report.offered == report.completed + report.shed + failed


def test_handoffs_record_delays_and_traffic():
    result = _cluster_serve(4, placement="round-robin")
    stats = result.stats
    assert stats.handoffs > 0
    assert len(stats.delays) == stats.handoffs
    assert all(d > 0 for d in stats.delays.values())
    assert stats.handoff_bytes > 0
    # First foreign landing per (tenant, node) pays the replica fill.
    assert 0 < stats.replicas <= 3 * 3  # 3 tenants x 3 foreign nodes
    summary = stats.as_dict()
    assert summary["handoff_delay_s"]["count"] == stats.handoffs
    assert summary["handoff_delay_s"]["max"] > 0


def test_hash_placement_pins_tenants_home():
    result = _cluster_serve(4, placement="hash")
    assert result.stats.handoffs == 0
    assert result.stats.replicas == 0
    # A tenant's jobs all land on one node: at most one node per tenant.
    populated = [n for n, count in result.stats.placed.items() if count]
    assert len(populated) <= 3


# ======================================================================
# Throughput scaling
# ======================================================================
def test_eight_nodes_scale_throughput_at_least_4x():
    system = gnn_system()
    saturating = PoissonArrivals(
        rate=6e6, horizon=5e-4, seed=20,
        tenants=("a", "b", "c"),
    )
    one = _cluster_serve(1, system=system, arrivals=saturating)
    eight = _cluster_serve(8, system=system, arrivals=saturating, shards=4)
    assert one.report.shed > 0  # one node is genuinely saturated
    assert eight.completed_per_sec >= 4 * one.completed_per_sec


# ======================================================================
# Fault composition
# ======================================================================
def test_node_fault_steers_later_arrivals_away():
    fail_at = 0.01
    result = _cluster_serve(
        2, node_faults=(NodeFault(node="node-1", time=fail_at),)
    )
    # The stream extends past the failure, and everything after it is
    # steered to the survivor: node-1 only saw the early arrivals.
    timeline = _arrivals().generate(lambda *args: None)
    early = sum(1 for a in timeline if a.time < fail_at)
    assert early < len(timeline)  # arrivals do continue past the failure
    node1 = result.node_payloads["node-1"]
    assert result.stats.placed["node-1"] <= early
    assert result.stats.placed["node-0"] >= len(timeline) - early
    # The dead node ran under a fault plan; the survivor did not.
    assert node1["faults"] is not None
    assert result.node_payloads["node-0"]["faults"] is None


def test_node_fault_composes_with_device_plan():
    from repro.memories.base import MemoryKind

    device_plan = FaultPlan(
        events=(
            FaultEvent(
                kind=FaultKind.STALL,
                device=MemoryKind.SRAM,
                time=0.002,
                duration=0.001,
            ),
        )
    )
    result = _cluster_serve(
        2,
        faults={"node-1": device_plan},
        node_faults=(NodeFault(node="node-1", time=0.01),),
    )
    summary = result.node_payloads["node-1"]["faults"]
    assert summary is not None
    # The plan carries both the stall and the compiled per-device fails.
    n_kinds = len(full_system().kinds)
    assert summary["plan_size"] == 1 + n_kinds
    assert result.node_payloads["node-0"]["faults"] is None


def test_all_nodes_dead_counts_losses_as_shed():
    fail_at = 0.005
    result = _cluster_serve(
        2,
        node_faults=(
            NodeFault(node="node-0", time=fail_at),
            NodeFault(node="node-1", time=fail_at),
        ),
    )
    assert result.stats.total_lost > 0
    report = result.report
    lost = sum(result.stats.lost_no_node.values())
    assert sum(t.shed_unplaced for t in report.tenants.values()) >= lost
    # Lost arrivals still count as offered.
    assert report.offered == sum(result.stats.placed.values()) + lost


def test_unknown_fault_node_raises():
    with pytest.raises(KeyError):
        _cluster_serve(2, node_faults=(NodeFault(node="nope", time=0.1),))


# ======================================================================
# Effective home: a rehomed tenant stops paying handoffs (bugfix)
# ======================================================================
def test_rehomed_tenants_stop_paying_handoffs():
    # Regression: handoffs were charged against the salt-0 home, so a
    # tenant whose home died under HashPlacement paid a handoff (and
    # first-landing replica bookkeeping) on every job forever, even
    # though it had rehashed to a stable new home.
    assert any(home_node(t, 2) == 1 for t in ("a", "b", "c"))
    result = _cluster_serve(
        2,
        placement="hash",
        node_faults=(NodeFault(node="node-1", time=1e-9),),
    )
    # Every arrival lands on the survivor, which IS every tenant's
    # effective (rehashed) home: no interconnect traffic at all.
    assert result.stats.placed["node-1"] == 0
    assert result.stats.handoffs == 0
    assert result.stats.replicas == 0
    assert result.stats.delays == {}


# ======================================================================
# Migration: delayed landings never reach a dead node (bugfix)
# ======================================================================
def _timeline(tenant: str, times: list[float]) -> TimelineArrivals:
    jobs = make_jobs(seed=11, count=len(times))
    return TimelineArrivals(
        arrivals=tuple(
            JobArrival(time=t, seq=i, tenant=tenant, job=jobs[i])
            for i, t in enumerate(times)
        )
    )


def test_handoff_delay_past_fault_migrates_instead_of_delivering():
    # Regression: candidate filtering used the pre-delay arrival time,
    # so a job whose handoff delay carried it past its node's fault
    # was delivered into the dead node's failure path.  A slow fabric
    # (50 ms latency) guarantees the second arrival, handed off to
    # node-1, lands well after node-1 dies at t=10 ms.
    tenant = next(t for t in ("a", "b", "c", "d") if home_node(t, 2) == 0)
    spec = ClusterSpec.homogeneous(
        2,
        system=full_system(),
        interconnect=InterconnectSpec(latency_s=0.05),
    )
    runtime = ClusterRuntime(spec, placement="round-robin")
    result = runtime.serve(
        _timeline(tenant, [0.001, 0.002]),
        tenants=[Tenant(tenant)],
        slo_s=SLO_S,
        node_faults=(NodeFault(node="node-1", time=0.01),),
    )
    stats = result.stats
    assert stats.migrations >= 1
    assert stats.migration_bytes > 0
    # Nothing was delivered to (or lost on) the dead node: both jobs
    # ran to completion on the survivor.
    assert stats.placed == {"node-0": 2, "node-1": 0}
    assert stats.total_lost == 0
    assert result.report.completed == 2
    assert result.node_reports["node-1"].offered == 0
    # The migrated job's recorded delay covers both hops.
    migrated = max(stats.delays.values())
    assert migrated > 0.05
    summary = stats.as_dict()
    assert summary["migrations"]["count"] == stats.migrations


def test_migration_with_no_survivor_counts_as_lost():
    tenant = next(t for t in ("a", "b", "c", "d") if home_node(t, 2) == 0)
    spec = ClusterSpec.homogeneous(
        2,
        system=full_system(),
        interconnect=InterconnectSpec(latency_s=0.05),
    )
    runtime = ClusterRuntime(spec, placement="round-robin")
    # Node-1 dies at 10 ms; node-0 dies at 20 ms -- before the
    # handed-off job's ~51 ms landing, leaving nowhere to migrate to.
    result = runtime.serve(
        _timeline(tenant, [0.001, 0.002]),
        tenants=[Tenant(tenant)],
        slo_s=SLO_S,
        node_faults=(
            NodeFault(node="node-0", time=0.02),
            NodeFault(node="node-1", time=0.01),
        ),
    )
    assert result.stats.total_lost >= 1


# ======================================================================
# Heterogeneous fleets: capacity-aware placement
# ======================================================================
def test_big_node_absorbs_more_of_a_saturating_stream():
    spec = ClusterSpec.heterogeneous(
        {"node-0": 1.0, "node-1": 4.0}, system=gnn_system()
    )
    runtime = ClusterRuntime(spec, placement="least-loaded")
    result = runtime.serve(
        PoissonArrivals(
            rate=6e6, horizon=5e-4, seed=20, tenants=("a", "b", "c")
        ),
        tenants=_tenants(),
        slo_s=SLO_S,
        shards=2,
    )
    placed = result.stats.placed
    # The 4x node drains backlog four times as fast: under sustained
    # saturation it must attract the bulk of the placements.
    assert placed["node-1"] > 2 * placed["node-0"]
    assert result.report.offered == placed["node-0"] + placed["node-1"]
