"""Optimality-gap experiment: every heuristic vs the exact oracle.

The scheduler experiments so far rank the heuristics against each
other (fig15/fig19, the serving inversion) and against the *fluid*
oracle bound -- which no schedule can reach -- so "how far from
optimal is the adaptive scheduler?" had no measurable answer.  This
harness produces one: it sweeps seeded small instances sized for the
exact branch-and-bound reference (:mod:`repro.core.scheduler.exact`),
runs **every registered heuristic scheduler through the real sim
engine**, replays the exact schedule through the same engine (the
solver's prediction must reproduce bit-for-bit), and reports the
per-scheduler optimality-gap distribution:

    gap = (simulated makespan - optimal makespan) / optimal makespan

Instances are compute-pure (no off-chip fills -- the exact model's
domain) and generously provisioned in arrays relative to the largest
single allocation, so the dispatcher's contiguous first-fit allocator
never fragments below a planned placement and the oracle's makespan
is *achievable*, not merely a bound.  Everything is seeded through
``random.Random``; two runs produce byte-identical payloads (the CI
``optgap-smoke`` job diffs the JSON).

Run it from the CLI::

    python -m repro run optgap
"""

from __future__ import annotations

import math
import random

from ..core.dispatcher import Dispatcher
from ..core.job import Job, JobPerfProfile
from ..core.runtime import make_scheduler
from ..core.scheduler.base import MLIMPSystem
from ..core.scheduler.exact import ExactSolution, solve_exact
from ..memories.base import ArrayGeometry, MemoryKind, MemorySpec
from .reporting import Report

__all__ = [
    "HEURISTICS",
    "generate_instance",
    "run_instance",
    "optgap_payload",
    "optimality_gap",
    "OPTGAP_EXPERIMENTS",
]

#: Every registered heuristic scheduler, swept in this order.
HEURISTICS = ("ljf", "adaptive", "global", "ewt")

#: Default sweep size -- large enough for a meaningful distribution,
#: small enough that `repro run optgap` stays interactive.
DEFAULT_INSTANCES = 40
DEFAULT_BASE_SEED = 1000

_KIND_POOL = (MemoryKind.SRAM, MemoryKind.DRAM, MemoryKind.RERAM)

#: Instance-shape knobs.  ``unit_arrays <= 3`` and ``waves_unit <= 3``
#: cap the largest single allocation at 9 arrays; with 2 job slots and
#: >= 32 arrays per device the first-fit allocator always has a
#: contiguous run for any planned placement (A >= (2P-1) * a_max), so
#: the exact schedule replays without fragmentation stalls.
_UNIT_CHOICES = (2, 3)
_WAVE_CHOICES = (2, 3)
_ARRAY_CHOICES = (32, 40, 48)
_SLOTS = 2


def _tiny_spec(kind: MemoryKind, num_arrays: int, clock_mhz: float) -> MemorySpec:
    return MemorySpec(
        kind=kind,
        name=f"{kind.value}-optgap",
        geometry=ArrayGeometry(64, 64),
        num_arrays=num_arrays,
        alus_per_array=64,
        clock_mhz=clock_mhz,
        mac_cycles_2op=10,
        multi_operand_alpha=1.0,
        max_operands=4,
        pack_limit=4,
        energy_per_mac_pj=1.0,
        energy_per_bitop_pj=0.1,
        fill_bandwidth_gbps=100.0,
        copy_bandwidth_gbps=100.0,
        max_outstanding_jobs=_SLOTS,
    )


def generate_instance(seed: int) -> tuple[list[Job], MLIMPSystem]:
    """One seeded small instance inside the exact solver's domain.

    5-8 compute-pure jobs over 2-3 device kinds; every job carries a
    profile on every kind (so placement is a real decision), with
    per-kind speed asymmetry from independent compute draws.
    """
    rng = random.Random(seed)
    kinds = list(_KIND_POOL[: rng.randint(2, 3)])
    specs = {
        kind: _tiny_spec(kind, rng.choice(_ARRAY_CHOICES), clock_mhz=1000.0)
        for kind in kinds
    }
    system = MLIMPSystem(specs=specs)
    jobs: list[Job] = []
    for i in range(rng.randint(5, 8)):
        profiles = {}
        for kind in kinds:
            base = rng.uniform(0.4, 3.0) * 1e-3
            profiles[kind] = JobPerfProfile(
                unit_arrays=rng.choice(_UNIT_CHOICES),
                t_load=0.0,
                t_replica_unit=base * rng.uniform(0.003, 0.01),
                t_compute_unit=base,
                waves_unit=rng.choice(_WAVE_CHOICES),
                fill_bytes=0.0,
            )
        jobs.append(Job(job_id=f"opt-{seed}-{i}", kernel="gemm", profiles=profiles))
    return jobs, system


def _simulate(name: str, jobs: list[Job], system: MLIMPSystem, seed: int) -> float:
    policy = make_scheduler(name).plan(list(jobs), system)
    result = Dispatcher(system).run(policy, label=f"optgap-{name}-{seed}")
    return result.makespan


def run_instance(seed: int) -> dict:
    """Solve one instance exactly, replay the optimum, run every
    heuristic, and return the per-scheduler makespans and gaps."""
    jobs, system = generate_instance(seed)
    solution: ExactSolution = solve_exact(jobs, system)
    replayed = Dispatcher(system).run(
        solution.policy(system), label=f"optgap-exact-{seed}"
    )
    row = {
        "seed": seed,
        "n_jobs": len(jobs),
        "kinds": [kind.value for kind in system.kinds],
        "optimal": solution.makespan,
        "replayed": replayed.makespan,
        "replay_exact": replayed.makespan == solution.makespan,
        "nodes": solution.nodes,
        "schedulers": {},
    }
    for name in HEURISTICS:
        makespan = _simulate(name, jobs, system, seed)
        row["schedulers"][name] = {
            "makespan": makespan,
            "gap": (makespan - solution.makespan) / solution.makespan,
        }
    return row


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the repo's tail-latency convention)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def optgap_payload(
    n_instances: int = DEFAULT_INSTANCES,
    base_seed: int = DEFAULT_BASE_SEED,
) -> dict:
    """The full sweep as a JSON-stable dict (instances + aggregates)."""
    instances = [run_instance(base_seed + i) for i in range(n_instances)]
    aggregates: dict[str, dict] = {}
    for name in HEURISTICS:
        gaps = [row["schedulers"][name]["gap"] for row in instances]
        optimal_hits = sum(1 for gap in gaps if gap <= 1e-12)
        aggregates[name] = {
            "mean_gap": sum(gaps) / len(gaps),
            "p95_gap": _percentile(gaps, 0.95),
            "max_gap": max(gaps),
            "pct_optimal": optimal_hits / len(gaps),
        }
    return {
        "n_instances": n_instances,
        "base_seed": base_seed,
        "replays_exact": all(row["replay_exact"] for row in instances),
        "total_nodes": sum(row["nodes"] for row in instances),
        "instances": instances,
        "schedulers": aggregates,
    }


def optimality_gap(
    n_instances: int = DEFAULT_INSTANCES,
    base_seed: int = DEFAULT_BASE_SEED,
) -> Report:
    """`repro run optgap`: per-scheduler optimality-gap distribution."""
    payload = optgap_payload(n_instances, base_seed)
    report = Report(
        title="Optimality gap vs exact branch-and-bound reference",
        columns=[
            "scheduler",
            "mean gap %",
            "p95 gap %",
            "max gap %",
            "% optimal",
        ],
    )
    for name in HEURISTICS:
        stats = payload["schedulers"][name]
        report.add_row(
            name,
            round(stats["mean_gap"] * 100.0, 2),
            round(stats["p95_gap"] * 100.0, 2),
            round(stats["max_gap"] * 100.0, 2),
            round(stats["pct_optimal"] * 100.0, 1),
        )
    report.note(
        f"{payload['n_instances']} seeded instances (5-8 jobs, 2-3 kinds), "
        f"{payload['total_nodes']} search nodes; exact schedule replay "
        + ("bit-exact on every instance"
           if payload["replays_exact"] else "DIVERGED (bug!)")
    )
    report.note(
        "gap = (simulated makespan - optimal) / optimal; optimal = exact "
        "B&B over (kind, allocation, order) run through the same sim engine"
    )
    return report


OPTGAP_EXPERIMENTS = {"optgap": optimality_gap}
