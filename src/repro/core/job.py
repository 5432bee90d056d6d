"""Jobs: the unit of MLIMP scheduling.

A call to an in-memory-marked function generates *MLIMP jobs* (paper
III-A).  Each job carries one :class:`JobPerfProfile` per memory layer
-- the exact analytic timing parameters produced by the kernel mappings
in :mod:`repro.kernels` -- plus optional subgraph metadata consumed by
the learned performance predictor.

The profile is the *ground truth* the event-driven simulator charges.
Its compute model is discrete: the job's work is ``waves_unit``
sequential waves at the unit allocation; granting ``R`` replicas
(multiples of the unit allocation) processes waves ``R`` at a time with
a small synchronisation overhead::

    t_cmpt(m) = ceil(W / R) / W * t_cmpt(a_unit) * R ** delta,
    R = floor(m / a_unit)

The *scheduler* never sees this directly -- it plans with the smooth
scale-free approximation of paper Eq. (1)-(3)
(:class:`repro.core.perfmodel.ScaleFreeEstimate`), exactly as the
paper fits a scale-free model to measured kernel scaling curves
(median R^2 0.998, Section III-C3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..memories.base import MemoryKind

__all__ = ["JobPerfProfile", "Job"]


@dataclass(frozen=True)
class JobPerfProfile:
    """Per-(job, memory) ground-truth timing parameters.

    Attributes
    ----------
    unit_arrays:
        ``a_repunit``: arrays holding one replica of the job's
        stationary data.
    t_load:
        One-time input load at nominal bandwidth, seconds.
    t_replica_unit:
        Time to produce one extra in-memory replica.
    t_compute_unit:
        Compute time with the unit allocation.
    waves_unit:
        Sequential compute waves at the unit allocation (the
        replication parallelism available to bigger allocations).
    overhead_delta:
        Synchronisation-cost exponent on the replica count (>= 0;
        this is what makes the effective scale-free beta < 1).
    n_iter:
        Kernel iterations when the working set exceeds the allocation
        (``datasize / a_repunit``, at least 1).
    fill_bytes:
        Off-chip bytes streamed into the device for this job (drives
        main-memory contention and transfer energy).
    compute_energy_j:
        Dynamic in-array energy of the whole job.
    vector_width:
        Natural SIMD width of the job's data (None = streaming).
    """

    unit_arrays: int
    t_load: float
    t_replica_unit: float
    t_compute_unit: float
    waves_unit: int = 1
    overhead_delta: float = 0.05
    n_iter: int = 1
    fill_bytes: float = 0.0
    compute_energy_j: float = 0.0
    vector_width: int | None = None

    def __post_init__(self) -> None:
        if self.unit_arrays < 1:
            raise ValueError("unit_arrays must be >= 1")
        if self.waves_unit < 1:
            raise ValueError("waves_unit must be >= 1")
        if self.overhead_delta < 0:
            raise ValueError("overhead_delta must be >= 0")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if min(self.t_load, self.t_replica_unit, self.t_compute_unit) < 0:
            raise ValueError("times must be non-negative")

    # ------------------------------------------------------------------
    def replicas(self, arrays: int) -> int:
        self._check(arrays)
        return max(1, min(arrays // self.unit_arrays, self.waves_unit))

    def load_time(self, arrays: int) -> float:
        """Input load plus replica copies (paper Eq. 2 ground truth)."""
        return self.load_time_at(self.replicas(arrays))

    def load_time_at(self, replicas: int) -> float:
        """:meth:`load_time` for a known replica count."""
        return self.t_load + self.t_replica_unit * (replicas - 1)

    def compute_time(self, arrays: int) -> float:
        """Discrete replicated-wave compute time.

        The sync overhead is charged on the *minimal* replica count
        that achieves the wave count: the device controller does not
        engage replicas that cannot reduce waves, keeping the model
        monotone in the allocation.
        """
        return self.compute_time_at(self.replicas(arrays))

    def compute_time_at(self, replicas: int) -> float:
        """:meth:`compute_time` for a known replica count."""
        waves = math.ceil(self.waves_unit / replicas)
        effective = math.ceil(self.waves_unit / waves)
        per_wave = self.t_compute_unit / self.waves_unit
        return waves * per_wave * effective**self.overhead_delta

    def total_time(self, arrays: int) -> float:
        return self.n_iter * (self.load_time(arrays) + self.compute_time(arrays))

    def replica_shape(self, arrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The time-free factors of t(x, m) over an allocation array:
        ``(replicas - 1, waves, effective ** overhead_delta)``.

        They depend on ``unit_arrays``, ``waves_unit`` and
        ``overhead_delta`` alone, so every curve sharing those shares
        them over a given allocation grid; the scheduler's allocation
        searches scale them by each curve's times
        (:meth:`repro.core.perfmodel.ProfileEstimate.total_time_batch`).
        """
        a = np.asarray(arrays, dtype=np.int64)
        if a.size and int(a.min()) < self.unit_arrays:
            raise ValueError(
                f"allocation below the unit allocation {self.unit_arrays}"
            )
        replicas = np.minimum(a // self.unit_arrays, self.waves_unit)
        waves = np.ceil(self.waves_unit / replicas)
        effective = np.ceil(self.waves_unit / waves)
        return replicas - 1, waves, effective**self.overhead_delta

    def useful_max_arrays(self) -> int:
        """Beyond this allocation no further replica can help."""
        return self.unit_arrays * self.waves_unit

    def _check(self, arrays: int) -> None:
        if arrays < self.unit_arrays:
            raise ValueError(
                f"allocation {arrays} below the unit allocation {self.unit_arrays}"
            )


@dataclass
class Job:
    """One schedulable in-memory job.

    ``profiles`` must cover every memory the scheduler may consider.
    ``metadata`` (a feature vector provider, e.g.
    :class:`repro.gnn.metadata.SubgraphMetadata`) is present for
    input-dependent kernels so the MLP predictor can estimate them.
    """

    job_id: str
    kernel: str
    profiles: dict[MemoryKind, JobPerfProfile]
    metadata: object | None = None
    tags: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError(f"job {self.job_id}: no memory profiles")

    def profile(self, kind: MemoryKind) -> JobPerfProfile:
        try:
            return self.profiles[kind]
        except KeyError:
            raise KeyError(f"job {self.job_id} has no profile for {kind}") from None

    def best_memory(self, arrays_by_kind: dict[MemoryKind, int]) -> MemoryKind:
        """Memory minimising true time under the given allocations."""
        best_kind = None
        best_time = math.inf
        for kind, arrays in arrays_by_kind.items():
            if kind not in self.profiles:
                continue
            profile = self.profiles[kind]
            usable = max(arrays, profile.unit_arrays)
            t = profile.total_time(usable)
            if t < best_time:
                best_time, best_kind = t, kind
        if best_kind is None:
            raise ValueError(f"job {self.job_id}: no supported memory offered")
        return best_kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.job_id!r}, kernel={self.kernel!r})"
