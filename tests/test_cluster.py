"""Cluster topology, interconnect pricing, and placement policies.

Unit-level guarantees of ``repro.cluster``'s static half: specs
validate and pickle-shaped data stays plain, the interconnect cost
model is the arithmetic it claims, node faults compile onto the
existing device-fault machinery, and every placement policy is
deterministic in arrival order.
"""

from __future__ import annotations

import pytest

from tests.prophelpers import make_jobs
from repro.cluster import (
    CONTENTION_MODES,
    PLACEMENTS,
    ClusterRuntime,
    ClusterSpec,
    FeedbackPlacement,
    HashPlacement,
    InterconnectSpec,
    LeastLoadedPlacement,
    NodeFault,
    NodeSpec,
    RoundRobinPlacement,
    home_node,
    node_capacity,
    node_fail_events,
    resolve_home,
)
from repro.cluster.placement import (
    MAX_WEIGHT,
    MIN_WEIGHT,
    estimate_service_time,
    job_fill_bytes,
)
from repro.core.scheduler.base import MLIMPSystem
from repro.faults.plan import FaultKind
from repro.harness.config import full_system
from repro.serving.autoscale import scale_system
from repro.sim.events import JobArrival


def _arrival(seq: int, tenant: str = "a", time: float = 0.0) -> JobArrival:
    job = make_jobs(seed=seq, count=1)[0]
    return JobArrival(time=time, seq=seq, tenant=tenant, job=job)


# ======================================================================
# Specs
# ======================================================================
class TestClusterSpec:
    def test_homogeneous_names_and_len(self):
        spec = ClusterSpec.homogeneous(4)
        assert len(spec) == 4
        assert spec.names == ["node-0", "node-1", "node-2", "node-3"]
        assert spec.index_of("node-2") == 2

    def test_every_node_owns_a_full_system(self):
        spec = ClusterSpec.homogeneous(2)
        for node in spec.nodes:
            assert node.system.kinds

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec(nodes=())
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec.homogeneous(0)

    def test_rejects_duplicate_node_names(self):
        system = full_system()
        with pytest.raises(ValueError, match="unique"):
            ClusterSpec(
                nodes=(
                    NodeSpec("n", system),
                    NodeSpec("n", system),
                )
            )

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError, match="nope"):
            ClusterSpec.homogeneous(2).index_of("nope")

    def test_homogeneous_nodes_do_not_alias_one_system(self):
        # Regression: every NodeSpec used to receive the SAME
        # MLIMPSystem instance -- mutating one node's (plain-dict)
        # device set silently rewrote every node's.
        import dataclasses

        spec = ClusterSpec.homogeneous(2)
        a, b = spec.nodes[0].system, spec.nodes[1].system
        assert a is not b
        assert a.specs is not b.specs
        kind = next(iter(a.specs))
        before = b.specs[kind].num_arrays
        a.specs[kind] = dataclasses.replace(
            a.specs[kind], num_arrays=a.specs[kind].num_arrays * 2
        )
        assert b.specs[kind].num_arrays == before


class TestHeterogeneousSpec:
    def test_scales_apply_to_arrays_and_slots(self):
        base = full_system()
        spec = ClusterSpec.heterogeneous(
            {"node-0": 1.0, "node-1": 2.0, "node-2": 0.5}, system=base
        )
        assert spec.names == ["node-0", "node-1", "node-2"]
        assert [n.scale for n in spec.nodes] == [1.0, 2.0, 0.5]
        for kind, ref in base.specs.items():
            assert spec.nodes[1].system.specs[kind].num_arrays == max(
                1, round(ref.num_arrays * 2)
            )
            assert spec.nodes[2].system.specs[kind].num_arrays == max(
                1, round(ref.num_arrays * 0.5)
            )

    def test_accepts_ordered_pairs(self):
        spec = ClusterSpec.heterogeneous([("big", 2.0), ("small", 0.5)])
        assert spec.names == ["big", "small"]

    def test_scale_one_nodes_still_independent(self):
        base = full_system()
        spec = ClusterSpec.heterogeneous(
            {"node-0": 1.0, "node-1": 1.0}, system=base
        )
        assert spec.nodes[0].system is not base
        assert spec.nodes[0].system is not spec.nodes[1].system
        assert spec.nodes[0].system.specs is not spec.nodes[1].system.specs

    def test_rejects_empty_and_bad_scales(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterSpec.heterogeneous({})
        with pytest.raises(ValueError, match="positive"):
            ClusterSpec.heterogeneous({"node-0": 0.0})
        with pytest.raises(ValueError, match="positive"):
            NodeSpec("n", full_system(), scale=-1.0)


class TestNodeCapacity:
    def test_tracks_scale_linearly(self):
        base = full_system()
        assert node_capacity(scale_system(base, 2)) == pytest.approx(
            2 * node_capacity(base)
        )

    def test_positive_for_real_systems(self):
        assert node_capacity(full_system()) > 0


class TestInterconnect:
    def test_transfer_time_is_latency_plus_wire(self):
        ic = InterconnectSpec(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert ic.transfer_time(0) == pytest.approx(1e-6)
        assert ic.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_replica_bytes_scales_fill(self):
        ic = InterconnectSpec(replica_factor=3.0)
        assert ic.replica_bytes(1000.0) == pytest.approx(3000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterconnectSpec(latency_s=-1.0)
        with pytest.raises(ValueError):
            InterconnectSpec(bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            InterconnectSpec(replica_factor=-0.5)
        with pytest.raises(ValueError):
            InterconnectSpec().transfer_time(-1.0)


class TestNodeFault:
    def test_compiles_to_one_fail_per_device(self):
        spec = ClusterSpec.homogeneous(2)
        fault = NodeFault(node="node-1", time=0.5, reason="power loss")
        events = node_fail_events(spec.nodes[1], fault)
        assert len(events) == len(spec.nodes[1].system.kinds)
        assert {e.device for e in events} == set(spec.nodes[1].system.kinds)
        for event in events:
            assert event.kind is FaultKind.FAIL
            assert event.time == 0.5
            assert event.reason == "power loss"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            NodeFault(node="node-0", time=-1.0)


# ======================================================================
# Placement
# ======================================================================
class TestHomeNode:
    def test_stable_and_in_range(self):
        for tenant in ("interactive", "batch", "besteffort", "x"):
            home = home_node(tenant, 4)
            assert 0 <= home < 4
            assert home == home_node(tenant, 4)

    def test_salt_changes_mapping_eventually(self):
        homes = {home_node("tenant", 8, salt=s) for s in range(16)}
        assert len(homes) > 1

    def test_single_node_is_always_home(self):
        for tenant in ("a", "b", "c", "interactive"):
            assert home_node(tenant, 1) == 0


class TestResolveHome:
    def test_all_alive_is_plain_home(self):
        for tenant in ("a", "b", "interactive"):
            assert resolve_home(tenant, 4, {0, 1, 2, 3}) == home_node(
                tenant, 4
            )

    def test_dead_home_resolves_to_hash_rehash(self):
        # The effective home must be the exact node HashPlacement
        # lands on once the original home is dead.
        policy = HashPlacement()
        policy.reset(4)
        home = home_node("t", 4)
        alive = [i for i in range(4) if i != home]
        rehash = policy.choose(_arrival(0, tenant="t"), alive, 1.0)
        assert resolve_home("t", 4, set(alive)) == rehash

    def test_no_live_node_returns_none(self):
        assert resolve_home("t", 4, set()) is None


class TestCapacities:
    def test_reset_normalises_to_fleet_max(self):
        policy = LeastLoadedPlacement()
        policy.reset(3, [2.0, 4.0, 1.0])
        assert policy.capacities == [0.5, 1.0, 0.25]

    def test_homogeneous_capacities_are_exactly_one(self):
        policy = LeastLoadedPlacement()
        policy.reset(3, [7.5, 7.5, 7.5])
        assert policy.capacities == [1.0, 1.0, 1.0]

    def test_reset_validates(self):
        policy = LeastLoadedPlacement()
        with pytest.raises(ValueError, match="one capacity per node"):
            policy.reset(3, [1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            policy.reset(2, [0.0, 0.0])

    def test_big_node_attracts_more_load(self):
        policy = LeastLoadedPlacement()
        policy.reset(2, [1.0, 2.0])
        picks = [
            policy.choose(_arrival(i, time=0.0), [0, 1], 1.0)
            for i in range(6)
        ]
        # The 2x node drains twice as fast, so its expected wait grows
        # half as quickly: it takes two jobs for every one on node 0.
        assert picks.count(1) > picks.count(0)


class TestLeastLoaded:
    def test_ties_break_to_lowest_index(self):
        policy = LeastLoadedPlacement()
        policy.reset(3)
        assert policy.choose(_arrival(0), [0, 1, 2], 1.0) == 0

    def test_deposits_steer_away(self):
        policy = LeastLoadedPlacement()
        policy.reset(2)
        assert policy.choose(_arrival(0), [0, 1], 1.0) == 0
        assert policy.choose(_arrival(1), [0, 1], 1.0) == 1

    def test_backlog_drains_with_time(self):
        policy = LeastLoadedPlacement()
        policy.reset(2)
        policy.choose(_arrival(0, time=0.0), [0, 1], 0.5)
        policy.choose(_arrival(1, time=0.0), [0, 1], 0.5)
        # Both backlogs drained to zero by t=1: tie goes to node 0.
        assert policy.choose(_arrival(2, time=1.0), [0, 1], 0.5) == 0


class TestHashPlacement:
    def test_tenant_sticks_to_home(self):
        policy = HashPlacement()
        policy.reset(4)
        chosen = {
            policy.choose(_arrival(i, tenant="t"), [0, 1, 2, 3], 1.0)
            for i in range(8)
        }
        assert chosen == {home_node("t", 4)}

    def test_dead_home_rehashes_deterministically(self):
        policy = HashPlacement()
        policy.reset(4)
        home = home_node("t", 4)
        alive = [i for i in range(4) if i != home]
        first = policy.choose(_arrival(0, tenant="t"), alive, 1.0)
        assert first != home
        assert policy.choose(_arrival(1, tenant="t"), alive, 1.0) == first


class TestRoundRobin:
    def test_cycles_live_nodes(self):
        policy = RoundRobinPlacement()
        policy.reset(3)
        picks = [policy.choose(_arrival(i), [0, 1, 2], 1.0) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]


class TestFeedbackPlacement:
    def _sections(self, good: float, bad: float) -> list[dict]:
        return [
            {"offered": 100, "shed": 0, "slo_attainment": good,
             "utilisation": {"sram": 0.2}},
            {"offered": 100, "shed": 50, "slo_attainment": bad,
             "utilisation": {"sram": 0.9}},
        ]

    def test_fresh_policy_matches_least_loaded(self):
        feedback = FeedbackPlacement()
        baseline = LeastLoadedPlacement()
        feedback.reset(3)
        baseline.reset(3)
        for i in range(12):
            arrival = _arrival(i, tenant=f"t{i % 4}", time=i * 1e-4)
            assert feedback.choose(arrival, [0, 1, 2], 0.5) == (
                baseline.choose(arrival, [0, 1, 2], 0.5)
            )

    def test_observe_reports_downweights_the_laggard(self):
        policy = FeedbackPlacement()
        policy.reset(2)
        policy.observe_reports(self._sections(good=1.0, bad=0.2))
        weights = policy.weights
        assert weights[0] > 1.0 > weights[1]

    def test_weights_bias_choice(self):
        policy = FeedbackPlacement(weights=[1.0, 2.0])
        policy.reset(2)
        # The upweighted node's effective wait grows half as fast, so
        # it absorbs most of a burst the uniform policy would split.
        picks = [policy.choose(_arrival(i), [0, 1], 1.0) for i in range(5)]
        assert picks.count(1) > picks.count(0)

    def test_weights_survive_reset_and_are_plain_floats(self):
        policy = FeedbackPlacement()
        policy.reset(2)
        policy.observe_reports(self._sections(good=1.0, bad=0.2))
        learned = policy.weights
        policy.reset(2)  # new window, same fleet
        assert policy.weights == learned
        policy.reset(3)  # different fleet size: start over
        assert policy.weights == [1.0, 1.0, 1.0]
        assert all(isinstance(w, float) for w in learned)

    def test_weights_clamped(self):
        policy = FeedbackPlacement(gain=100.0)
        policy.reset(2)
        for _ in range(5):
            policy.observe_reports(self._sections(good=1.0, bad=0.0))
        assert policy.weights == [MAX_WEIGHT, MIN_WEIGHT]

    def test_empty_windows_leave_weights_alone(self):
        policy = FeedbackPlacement()
        policy.reset(2)
        policy.observe_reports([{}, {"offered": 0}])
        assert policy.weights == [1.0, 1.0]

    def test_observe_validates_section_count(self):
        policy = FeedbackPlacement()
        policy.reset(2)
        with pytest.raises(ValueError, match="one section per node"):
            policy.observe_reports([{}])
        with pytest.raises(ValueError, match="reset"):
            FeedbackPlacement().observe_reports([{}])

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match="gain"):
            FeedbackPlacement(gain=-1.0)


class TestEstimates:
    def test_service_estimate_is_best_profile_time(self):
        job = make_jobs(seed=3, count=1)[0]
        expected = min(
            p.total_time(p.unit_arrays) for p in job.profiles.values()
        )
        assert estimate_service_time(job) == pytest.approx(expected)

    def test_fill_bytes_is_largest_profile_fill(self):
        job = make_jobs(seed=3, count=1)[0]
        expected = max(p.fill_bytes for p in job.profiles.values())
        assert job_fill_bytes(job) == pytest.approx(expected)


class TestContentionMode:
    def test_modes_and_default(self):
        assert CONTENTION_MODES == ("none", "shared")
        assert InterconnectSpec().contention == "none"
        assert InterconnectSpec(contention="shared").contention == "shared"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="contention"):
            InterconnectSpec(contention="fluid")


class TestRegistry:
    def test_placement_names(self):
        assert set(PLACEMENTS) == {
            "least-loaded",
            "feedback",
            "hash",
            "round-robin",
        }
        for name, cls in PLACEMENTS.items():
            assert cls.name == name

    def test_runtime_rejects_unknown_names(self):
        spec = ClusterSpec.homogeneous(1)
        with pytest.raises(ValueError, match="scheduler"):
            ClusterRuntime(spec, scheduler="nope")
        with pytest.raises(ValueError, match="placement"):
            ClusterRuntime(spec, placement="nope")
