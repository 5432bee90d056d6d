"""Oracle throughput bound (paper Figure 16).

The oracle assumes *perfect job balancing across the memories*: its
makespan is the fluid lower bound of the unrelated-machines scheduling
problem.  Jobs may be split fractionally across devices; device ``k``
with ``P`` outstanding-job slots completes ``P * T`` job-seconds of
work in a horizon ``T``.  Minimising ``T`` subject to every job being
fully served is a small linear program (solved with scipy's HiGHS):

    minimise  T
    s.t.      sum_k f_jk = 1                        for every job j
              sum_j f_jk * t_jk <= P_k * T          for every memory k
              sum_j f_jk * t_jk * a_jk <= A_k * T   for every memory k
              f_jk >= 0

where ``t_jk`` is job j's true execution time on memory k at its
allocation ``a_jk`` (the fair share, raised to the job's unit
allocation when needed), ``P_k`` the outstanding-job slots and ``A_k``
the device's arrays.  The second family of constraints is the
array-second capacity: a device cannot hand out more array-time than
it has.  For identical jobs this reduces to the paper's "sum of the
throughput of each in-memory processor".
"""

from __future__ import annotations

import numpy as np

from ...memories.base import MemoryKind
from ..job import Job
from .base import DISPATCH_OVERHEAD_S, MLIMPSystem

__all__ = ["oracle_makespan"]


def _fair_allocation(job: Job, system: MLIMPSystem, kind: MemoryKind) -> int:
    profile = job.profile(kind)
    arrays = max(system.fair_share(kind), profile.unit_arrays)
    return max(min(arrays, system.arrays(kind)), profile.unit_arrays)


def _fair_time(job: Job, system: MLIMPSystem, kind: MemoryKind) -> float:
    """True time at the fair allocation plus the launch cost: perfect
    balancing does not waive the runtime's dispatch overhead."""
    profile = job.profile(kind)
    return (
        profile.total_time(_fair_allocation(job, system, kind))
        + DISPATCH_OVERHEAD_S
    )


def oracle_makespan(jobs: list[Job], system: MLIMPSystem) -> float:
    """Perfect-balance fluid makespan for a batch of jobs."""
    # scipy.optimize is imported here, not at module level: it is a
    # large import that only the oracle bound needs.
    from scipy.optimize import linprog

    if not jobs:
        return 0.0
    kinds = system.kinds
    n_jobs, n_kinds = len(jobs), len(kinds)
    times = np.full((n_jobs, n_kinds), np.inf)
    for j, job in enumerate(jobs):
        for k, kind in enumerate(kinds):
            if kind in job.profiles:
                times[j, k] = _fair_time(job, system, kind)
    if np.isinf(times).all(axis=1).any():
        raise ValueError("some job fits no memory in the system")

    # Variables: f_jk (row-major) then T.
    n_vars = n_jobs * n_kinds + 1
    c = np.zeros(n_vars)
    c[-1] = 1.0

    a_eq = np.zeros((n_jobs, n_vars))
    for j in range(n_jobs):
        a_eq[j, j * n_kinds : (j + 1) * n_kinds] = 1.0
    b_eq = np.ones(n_jobs)

    a_ub = np.zeros((2 * n_kinds, n_vars))
    for k, kind in enumerate(kinds):
        for j, job in enumerate(jobs):
            if not np.isfinite(times[j, k]):
                continue
            arrays = _fair_allocation(job, system, kind)
            a_ub[k, j * n_kinds + k] = times[j, k]
            a_ub[n_kinds + k, j * n_kinds + k] = times[j, k] * arrays
        a_ub[k, -1] = -float(system.slots(kind))
        a_ub[n_kinds + k, -1] = -float(system.arrays(kind))
    b_ub = np.zeros(2 * n_kinds)

    bounds = []
    for j in range(n_jobs):
        for k in range(n_kinds):
            bounds.append((0.0, 0.0) if np.isinf(times[j, k]) else (0.0, 1.0))
    bounds.append((0.0, None))

    result = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"oracle LP failed: {result.message}")
    return float(result.x[-1])
