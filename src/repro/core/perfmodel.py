"""The scheduler's analytical performance model (paper Eq. 1-3).

The scheduler never executes jobs to learn their timing; it plans with
a smooth *scale-free* approximation of the execution-time curve:

    t(x, m)      = n_iter(x) * (t_ld(x, m) + t_cmpt(x, m))          (1)
    t_ld(x, m)   = t_ld(x) + t_replica * (m / a_repunit)            (2)
    t_cmpt(x, m) = t_cmpt(x, a_repunit) * (a_repunit / m) ** beta   (3)

``t_cmpt(x, a_repunit)`` comes from the performance predictor (oracle
or MLP); ``beta`` is the shape parameter fitted offline per kernel
class (:func:`fit_beta` backs the paper's "median R^2 of 0.998"
scale-free-fit claim against the discrete ground-truth curves).

Allocation sizing (Section III-C3): minimising t(x, m) outright
over-provisions because the curve flattens; the scheduler instead
picks the *knee* -- the ``m`` maximising the angular speed
``d theta / d m`` of the tangent to the curve
(:func:`knee_allocation`).

Performance layer
-----------------
Schedulers re-solve identical knee searches thousands of times per
dispatch round (every job is planned on every memory, and the global
scheduler replans the adaptive queues).  Both estimate classes are
frozen (hashable by value), so the searches are memoised behind small
LRU caches (:data:`CACHE_MAXSIZE` entries each) keyed on the curve
and the replica count of the cap; the grid/inversion math is one
vectorised NumPy batch (``total_time_batch``) per search::

    from repro.core import perfmodel
    perfmodel.cache_stats()   # {"perfmodel.knee": {"hits": ..., ...}, ...}
    perfmodel.clear_caches()

Serving traffic rarely repeats a knee search (every arrival is a new
curve), so the cost of a miss matters too, and a lone miss is almost
all NumPy per-call overhead on a ~40-point grid.  Searches therefore
run in *cohorts*: :func:`knee_points` looks every (curve, cap)
pair up in the knee cache and runs all the misses as one segmented
pass over a flat array -- per-curve min and span by
``np.minimum/maximum.reduceat``, the grids' stencils applied across
segments, one ``np.arctan`` and a segmented first-index argmax -- so
a planner sizing many jobs pays the per-call overhead once
(:func:`knee_allocation` is the one-curve cohort), and each answer
comes with the curve's time at the knee, which the planner hands to
its queue entry instead of evaluating ``total_time`` again.
Everything that depends on the grid alone is built once per grid and
cached next to it in the ``perfmodel.grid`` cache: the normalised
allocation axis and the three-point ``np.gradient`` stencil over it
(interior coefficients plus the two one-sided end spacings,
:func:`_knee_stencil`), and, for the oracle's
:class:`ProfileEstimate` curves, the time-free *replica shape*
(``replicas - 1``, ``waves``, ``effective ** delta``, the last
also by the scalar power ``total_time`` uses) per
``(waves_unit, overhead_delta)``, so a whole cohort of profile curves
evaluates in a few array operations.  Each answer is bit-identical
to a one-curve ``np.gradient`` / ``np.argmax`` search.

The caches are per-process (no locking -- the simulator is
single-threaded and parallel experiment runners fork worker processes
that each own their caches).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .job import JobPerfProfile

__all__ = [
    "ScaleFreeEstimate",
    "ProfileEstimate",
    "estimate_from_profile",
    "allocation_grid",
    "knee_allocation",
    "knee_points",
    "min_time_allocation",
    "fit_beta",
    "DEFAULT_BETA",
    "CACHE_MAXSIZE",
    "cache_stats",
    "clear_caches",
]

#: Shape parameter used when no per-kernel fit is available; less than
#: one models the parallelisation cost (paper III-C3).
DEFAULT_BETA = 0.92


# ======================================================================
# Perf-layer caches
# ======================================================================
#: Entries per allocation-search LRU cache.
CACHE_MAXSIZE = 4096

_MISSING = object()


class _LRUCache:
    """Ordered-dict LRU with hit/miss accounting.

    Not thread-safe by design: the simulation is single-threaded and
    every parallel-runner worker process owns its own module state.
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "_data")

    def __init__(self, name: str, maxsize: int = CACHE_MAXSIZE) -> None:
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return _MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self, reset_counters: bool = True) -> None:
        self._data.clear()
        if reset_counters:
            self.hits = 0
            self.misses = 0

    def info(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


_GRID_CACHE = _LRUCache("perfmodel.grid")
_KNEE_CACHE = _LRUCache("perfmodel.knee")
_MIN_TIME_CACHE = _LRUCache("perfmodel.min_time")
_ALL_CACHES = (_GRID_CACHE, _KNEE_CACHE, _MIN_TIME_CACHE)


def cache_stats() -> dict[str, dict]:
    """Hit/miss/occupancy per cache, keyed by cache name."""
    return {cache.name: cache.info() for cache in _ALL_CACHES}


def clear_caches(reset_counters: bool = True) -> None:
    """Drop all memoised allocation-search results."""
    for cache in _ALL_CACHES:
        cache.clear(reset_counters)


@dataclass(frozen=True)
class ScaleFreeEstimate:
    """Smooth Eq. (1)-(3) estimate of one (job, memory) pair."""

    unit_arrays: int
    t_load: float
    t_replica_unit: float
    t_compute_unit: float
    beta: float = DEFAULT_BETA
    n_iter: int = 1
    max_useful_arrays: int | None = None

    def __post_init__(self) -> None:
        if self.unit_arrays < 1:
            raise ValueError("unit_arrays must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if min(self.t_load, self.t_replica_unit, self.t_compute_unit) < 0:
            raise ValueError("times must be non-negative")

    def load_time(self, arrays: int) -> float:
        self._check(arrays)
        replicas = self._effective(arrays) / self.unit_arrays
        return self.t_load + self.t_replica_unit * max(0.0, replicas - 1.0)

    def compute_time(self, arrays: int) -> float:
        self._check(arrays)
        ratio = self.unit_arrays / self._effective(arrays)
        return self.t_compute_unit * ratio**self.beta

    def total_time(self, arrays: int) -> float:
        # The curve is pure in (estimate, effective arrays) and the
        # balancing loops re-evaluate the same few allocations millions
        # of times; memoised per instance (frozen dataclass, so writes
        # go through __dict__).
        self._check(arrays)
        effective = self._effective(arrays)
        cache = self.__dict__.get("_tt_cache")
        if cache is None:
            cache = self.__dict__["_tt_cache"] = {}
        value = cache.get(effective)
        if value is None:
            value = self.n_iter * (self.load_time(arrays) + self.compute_time(arrays))
            cache[effective] = value
        return value

    def total_time_batch(self, arrays) -> np.ndarray:
        """Vectorised :meth:`total_time` over an allocation array."""
        a = np.asarray(arrays, dtype=float)
        if a.size and float(a.min()) < self.unit_arrays:
            raise ValueError(
                f"allocation below the unit allocation {self.unit_arrays}"
            )
        if self.max_useful_arrays is not None:
            a = np.minimum(a, float(self.max_useful_arrays))
        replicas = a / self.unit_arrays
        load = self.t_load + self.t_replica_unit * np.maximum(0.0, replicas - 1.0)
        compute = self.t_compute_unit * (self.unit_arrays / a) ** self.beta
        return self.n_iter * (load + compute)

    def _effective(self, arrays: int) -> int:
        if self.max_useful_arrays is not None:
            return min(arrays, self.max_useful_arrays)
        return arrays

    def _check(self, arrays: int) -> None:
        if arrays < self.unit_arrays:
            raise ValueError(
                f"allocation {arrays} below the unit allocation {self.unit_arrays}"
            )

    def snap_to_replica(self, arrays: int) -> int:
        """Round an allocation down to a whole replica multiple.

        The ground-truth compute model only speeds up at whole
        replicas of the unit allocation, so fractional-replica arrays
        are pure waste; every planner snaps its choices.
        """
        snapped = max(self.unit_arrays, (arrays // self.unit_arrays) * self.unit_arrays)
        if self.max_useful_arrays is not None:
            snapped = min(snapped, max(self.unit_arrays, self.max_useful_arrays))
        return snapped

    def invert_total_time(self, target_seconds: float, max_arrays: int) -> int:
        """Smallest allocation whose estimated *total* time meets the
        target (Algorithm 2's ``t^{-1}``), or the time-minimising
        allocation if the target is unreachable.  Grid search over
        replica multiples: the curve is *not* monotone once
        replication load cost dominates."""
        return _invert_total_time(self, target_seconds, max_arrays)

    def curve_key(self) -> tuple:
        """Canonical identity of the t(x, m) curve (see
        :func:`_estimate_key`); every field of this estimate shapes the
        curve, so the key is the field tuple."""
        key = self.__dict__.get("_curve_key")
        if key is None:
            key = (
                "sf",
                self.unit_arrays,
                self.t_load,
                self.t_replica_unit,
                self.t_compute_unit,
                self.beta,
                self.n_iter,
                self.max_useful_arrays,
            )
            self.__dict__["_curve_key"] = key
        return key


@dataclass(frozen=True)
class ProfileEstimate:
    """Oracle-grade estimate: delegates to the true discrete profile.

    The paper's oracle predictor "returns the accurate cycle counts of
    a job in each memory" (V-B3) -- with it, the scheduler's planning
    curve *is* the ground truth.  ``compute_scale`` lets the noisy
    predictor perturb the compute component multiplicatively while
    keeping the discrete shape.
    """

    profile: JobPerfProfile
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")

    @property
    def unit_arrays(self) -> int:
        return self.profile.unit_arrays

    @property
    def n_iter(self) -> int:
        return self.profile.n_iter

    @property
    def max_useful_arrays(self) -> int:
        return self.profile.useful_max_arrays()

    @property
    def t_compute_unit(self) -> float:
        return self.profile.t_compute_unit * self.compute_scale

    @property
    def t_load(self) -> float:
        return self.profile.t_load

    @property
    def t_replica_unit(self) -> float:
        return self.profile.t_replica_unit

    def load_time(self, arrays: int) -> float:
        return self.profile.load_time(arrays)

    def compute_time(self, arrays: int) -> float:
        return self.profile.compute_time(arrays) * self.compute_scale

    def total_time(self, arrays: int) -> float:
        # Pure in (profile, replica count, compute_scale): the discrete
        # model only changes at whole replicas, so a per-instance memo
        # keyed on the replica count collapses the balancing loops'
        # millions of repeat evaluations.
        profile = self.profile
        replicas = profile.replicas(arrays)
        cache = self.__dict__.get("_tt_cache")
        if cache is None:
            cache = self.__dict__["_tt_cache"] = {}
        value = cache.get(replicas)
        if value is None:
            value = profile.n_iter * (
                profile.load_time_at(replicas)
                + profile.compute_time_at(replicas) * self.compute_scale
            )
            cache[replicas] = value
        return value

    def total_time_batch(self, arrays) -> np.ndarray:
        """Vectorised :meth:`total_time` over an allocation array."""
        return _profile_times(self.curve_params(), self.profile.replica_shape(arrays))

    def curve_params(self) -> tuple:
        """The per-curve scalars :func:`_profile_times` scales a
        replica shape by: ``(n_iter, t_load, t_replica_unit, compute
        time per wave, compute_scale)``."""
        p = self.profile
        return (
            p.n_iter,
            p.t_load,
            p.t_replica_unit,
            p.t_compute_unit / p.waves_unit,
            self.compute_scale,
        )

    def snap_to_replica(self, arrays: int) -> int:
        unit = self.profile.unit_arrays
        snapped = max(unit, (arrays // unit) * unit)
        return min(snapped, max(unit, self.max_useful_arrays))

    def invert_total_time(self, target_seconds: float, max_arrays: int) -> int:
        """Smallest replica-multiple allocation meeting the target, or
        the time-minimising allocation if unreachable (the curve is
        not monotone once replication load cost dominates)."""
        return _invert_total_time(self, target_seconds, max_arrays)

    def curve_key(self) -> tuple:
        """Canonical identity of the t(x, m) curve.

        :class:`~repro.core.job.JobPerfProfile` also carries
        ``fill_bytes``, ``compute_energy_j`` and ``vector_width``,
        none of which enter the timing curve -- two jobs differing
        only in those fields used to occupy distinct cache entries for
        identical searches (the ``perfmodel.knee`` key-normalisation
        bug).  The key keeps exactly the timing-relevant fields.
        """
        key = self.__dict__.get("_curve_key")
        if key is None:
            p = self.profile
            key = (
                "prof",
                p.unit_arrays,
                p.t_load,
                p.t_replica_unit,
                p.t_compute_unit,
                p.waves_unit,
                p.overhead_delta,
                p.n_iter,
                self.compute_scale,
            )
            self.__dict__["_curve_key"] = key
        return key


def _profile_times(params, shape):
    """t(x, m) of profile curves from their replica shape
    (:meth:`~repro.core.job.JobPerfProfile.replica_shape`), in the
    ground truth's operation order.  ``params`` are the
    :meth:`ProfileEstimate.curve_params` -- scalars for one curve, or
    columns repeated along a flat cohort of curves."""
    n_iter, t_load, t_replica, per_wave, scale = params
    replicas_less_one, waves, overhead = shape
    return n_iter * (
        t_load + t_replica * replicas_less_one + waves * per_wave * overhead * scale
    )


def estimate_from_profile(
    profile: JobPerfProfile,
    t_compute_unit: float | None = None,
    beta: float = DEFAULT_BETA,
) -> ScaleFreeEstimate:
    """Build the scheduler's estimate for one ground-truth profile.

    ``t_compute_unit`` is the predictor's output; omit it for an
    oracle estimate that reads the true unit compute time.
    """
    return ScaleFreeEstimate(
        unit_arrays=profile.unit_arrays,
        t_load=profile.t_load,
        t_replica_unit=profile.t_replica_unit,
        t_compute_unit=(
            profile.t_compute_unit if t_compute_unit is None else t_compute_unit
        ),
        beta=beta,
        n_iter=profile.n_iter,
        max_useful_arrays=profile.useful_max_arrays(),
    )


def _invert_total_time(estimate, target_seconds: float, max_arrays: int) -> int:
    """Shared t^{-1} implementation over the replica-multiple grid."""
    if target_seconds <= 0:
        raise ValueError("target must be positive")
    grid = allocation_grid(estimate, max(estimate.unit_arrays, max_arrays))
    times = estimate.total_time_batch(grid)
    meets = np.nonzero(times <= target_seconds)[0]
    if meets.size:
        return int(grid[int(meets[0])])
    return int(grid[int(np.argmin(times))])


def allocation_grid(estimate, max_arrays: int, points: int = 48) -> np.ndarray:
    """Feasible allocations from the unit allocation up to ``max_arrays``.

    Allocations are whole replica multiples of the unit allocation
    (anything in between is wasted -- see
    :meth:`ScaleFreeEstimate.snap_to_replica`), geometrically
    subsampled so the knee search stays cheap.

    The grid depends only on ``(unit_arrays, max_arrays, points)``, so
    results are memoised; cached grids are returned *read-only* (they
    are shared across callers -- copy before mutating).
    """
    return _grid_entry(estimate, max_arrays, points).grid


class _GridEntry(NamedTuple):
    """One cached allocation grid and its knee stencil
    (:func:`_knee_stencil`); ``key`` is its :data:`_GRID_CACHE` key."""

    key: tuple
    grid: np.ndarray
    coeffs: np.ndarray | None
    dx_first: float
    dx_last: float


def _grid_entry(estimate, max_arrays: int, points: int = 48) -> _GridEntry:
    """The allocation grid plus its knee stencil, cached together."""
    lo = estimate.unit_arrays
    if max_arrays < lo:
        raise ValueError("max_arrays below the unit allocation")
    max_replicas = max_arrays // lo
    # The grid depends only on the replica count, so caps that differ
    # by less than one replica (or by int-vs-float type) share an
    # entry.
    key = (lo, int(max_replicas), points)
    cached = _GRID_CACHE.get(key)
    if cached is not _MISSING:
        return cached
    grid = _build_grid(lo, max_replicas, points)
    grid.setflags(write=False)
    entry = _GridEntry(key, grid, *_knee_stencil(grid))
    _GRID_CACHE.put(key, entry)
    return entry


def _build_grid(lo: int, max_replicas: int, points: int) -> np.ndarray:
    if max_replicas <= 1:
        return np.asarray([lo])
    replicas = np.unique(
        np.round(np.geomspace(1, max_replicas, num=points)).astype(int)
    )
    return replicas[replicas >= 1] * lo


def _knee_stencil(grid: np.ndarray) -> tuple:
    """Grid-only constants of the knee search's two gradients.

    The allocation axis is normalised to ``x`` in [0, 1] (so the angle
    is scale-invariant), and ``np.gradient(f, x)`` on that axis is a
    fixed three-point stencil: second-order interior coefficients
    ``(a, b, c)`` and first-order one-sided ends over ``dx[0]`` and
    ``dx[-1]``.  None of it depends on the curve, so it is built once
    per grid.  Returns ``(coeffs, dx_first, dx_last)``: ``coeffs`` is
    the ``(3, len(grid))`` array of ``a, b, c`` with zeros at both
    ends, so the stencils of a cohort's grids concatenate into one
    (``(None, 0.0, 0.0)`` for a one-point grid, which has no knee to
    search).
    """
    if len(grid) == 1:
        return None, 0.0, 0.0
    x = (grid - grid[0]) / max(1, (grid[-1] - grid[0]))
    dx = np.diff(x)
    dx1 = dx[:-1]
    dx2 = dx[1:]
    coeffs = np.zeros((3, len(grid)))
    coeffs[0, 1:-1] = -(dx2) / (dx1 * (dx1 + dx2))
    coeffs[1, 1:-1] = (dx2 - dx1) / (dx1 * dx2)
    coeffs[2, 1:-1] = dx1 / (dx2 * (dx1 + dx2))
    coeffs.setflags(write=False)
    return coeffs, float(dx[0]), float(dx[-1])


#: The rows of a :func:`_profile_shape` that give a curve's
#: ``total_time`` bit for bit (the knee search reads the first three).
_EXACT_ROWS = [0, 1, 3]


def _profile_shape(profile: JobPerfProfile, entry: _GridEntry) -> np.ndarray:
    """``profile.replica_shape`` over a cached grid, as one read-only
    ``(4, len(grid))`` array: ``replicas - 1``, ``waves``, the overhead
    factor ``effective ** delta`` as NumPy's vectorised power computes
    it (what the knee search has always read), and the same factor from
    the scalar power ``total_time`` uses -- a SIMD build of NumPy's
    power can differ from it in the last bit, so :data:`_EXACT_ROWS` are
    the ones :func:`_profile_times` turns into ``total_time`` exactly.
    Cached in the grid cache under the grid key plus the two shape
    fields, so every curve of the same shape evaluates from it with a
    handful of array operations."""
    key = entry.key + (profile.waves_unit, profile.overhead_delta)
    shape = _GRID_CACHE.get(key)
    if shape is _MISSING:
        replicas_less_one, waves, overhead = profile.replica_shape(entry.grid)
        delta = profile.overhead_delta
        effective = np.ceil(profile.waves_unit / waves).tolist()
        shape = np.array(
            (replicas_less_one, waves, overhead, [e**delta for e in effective]),
            dtype=float,
        )
        shape.setflags(write=False)
        _GRID_CACHE.put(key, shape)
    return shape


def _estimate_key(estimate, max_arrays: int) -> tuple:
    """Canonical cache key for an allocation search.

    Keys are normalised so *equivalent* searches share one entry:

    * the estimate contributes its :meth:`curve_key` -- only the
      fields that shape the t(x, m) curve (a :class:`ProfileEstimate`
      drops the profile's ``fill_bytes`` / ``compute_energy_j`` /
      ``vector_width``, which used to fragment the cache);
    * the cap contributes its whole-replica count, since the search
      grid cannot distinguish caps within the same replica multiple
      (this also unifies int and float ``max_arrays``).
    """
    return (estimate.curve_key(), int(max_arrays // estimate.unit_arrays))


def min_time_allocation(estimate, max_arrays: int) -> int:
    """The allocation strictly minimising t(x, m) -- the naive choice
    the paper rejects for over-provisioning (kept for the ablation)."""
    key = _estimate_key(estimate, max_arrays)
    cached = _MIN_TIME_CACHE.get(key)
    if cached is not _MISSING:
        return cached
    grid = allocation_grid(estimate, max_arrays)
    times = estimate.total_time_batch(grid)
    result = int(grid[int(np.argmin(times))])
    _MIN_TIME_CACHE.put(key, result)
    return result


def knee_allocation(estimate, max_arrays: int) -> int:
    """Allocation at the knee of t(x, m): max angular speed of the
    tangent (paper III-C3)."""
    return knee_points([estimate], [max_arrays])[0][0]


def knee_points(estimates, caps) -> list[tuple[int, float | None]]:
    """The knee allocation of each ``(estimate, cap)`` pair, with the
    curve's ``total_time`` there (``None`` for a one-point grid, which
    has no search and so no time to hand back).

    Searches already in the knee cache are lookups; the misses run as
    one segmented NumPy pass (:func:`_knee_pass`) instead of one small
    pass each, which is where a lone search spends its time.  A search
    repeated within the cohort runs once and counts as a cache hit,
    as it would have searched one at a time.
    """
    knees: list = [None] * len(estimates)
    pending: dict[tuple, list[int]] = {}
    for i, (estimate, cap) in enumerate(zip(estimates, caps, strict=True)):
        key = _estimate_key(estimate, cap)
        repeats = pending.get(key)
        if repeats is not None:
            _KNEE_CACHE.hits += 1
            repeats.append(i)
            continue
        cached = _KNEE_CACHE.get(key)
        if cached is _MISSING:
            pending[key] = [i]
        else:
            knees[i] = cached
    if pending:
        firsts = [repeats[0] for repeats in pending.values()]
        searched = _knee_pass([estimates[i] for i in firsts], [caps[i] for i in firsts])
        for (key, repeats), knee in zip(pending.items(), searched):
            _KNEE_CACHE.put(key, knee)
            for i in repeats:
                knees[i] = knee
    return knees


def _knee_pass(estimates, caps) -> list[tuple[int, float | None]]:
    """The knee search of many curves over one flat array; returns
    :func:`knee_points` rows.

    Each curve's times over its grid form one segment of the flat
    array.  Both axes are normalised per segment (so the angle is
    scale-invariant); the x axis lives in the grid's stencil, and the
    two gradients, the arctangent and the argmax run once for the
    whole cohort.  Every step is elementwise on the same values in
    the same order as a one-curve search, so each answer is
    bit-identical to ``np.gradient`` / ``np.argmax`` on that curve
    alone.  A profile curve's guard and handed-back time come from its
    shape's exact rows at the unit and the knee, which are its
    ``total_time`` bit for bit (:func:`_profile_times` keeps the ground
    truth's operation order); a scale-free curve's batch times can
    differ from its scalar ones in the last bit, so it evaluates
    ``total_time`` at the unit and the knee.
    """
    knees: list = [None] * len(estimates)
    # (result slot, estimate, grid entry); profile curves first, so
    # their times come from one flat evaluation over cached shapes.
    profiles: list = []
    others: list = []
    for i, (estimate, cap) in enumerate(zip(estimates, caps)):
        entry = _grid_entry(estimate, cap)
        if entry.coeffs is None:
            knees[i] = (int(entry.grid[0]), None)
        elif isinstance(estimate, ProfileEstimate):
            profiles.append((i, estimate, entry))
        else:
            others.append((i, estimate, entry))
    curves = profiles + others
    if not curves:
        return knees
    lengths = [len(entry.grid) for _, _, entry in curves]
    starts: list[int] = []
    ends: list[int] = []
    size = 0
    for length in lengths:
        starts.append(size)
        size += length
        ends.append(size - 1)
    segment = np.repeat(np.arange(len(curves)), lengths)
    parts = []
    if profiles:
        params = np.array([estimate.curve_params() for _, estimate, _ in profiles])
        shapes = np.concatenate(
            [_profile_shape(est.profile, entry) for _, est, entry in profiles], axis=1
        )
        parts.append(
            _profile_times(params[segment[: shapes.shape[1]]].T, shapes[:3])
        )
    parts.extend(est.total_time_batch(entry.grid) for _, est, entry in others)
    times = np.concatenate(parts)

    # Both one-sided ends of every segment, as positions in the flat
    # array, positions in its forward difference, and spacings.
    stencil = (
        np.concatenate([entry.coeffs for _, _, entry in curves], axis=1)[:, 1:-1],
        np.array(starts + ends),
        np.array(starts + [end - 1 for end in ends]),
        np.array(
            [entry.dx_first for _, _, entry in curves]
            + [entry.dx_last for _, _, entry in curves]
        ),
    )
    low = np.minimum.reduceat(times, starts)
    span = np.maximum.reduceat(times, starts) - low
    # Flat curve: no benefit from more than the unit allocation.
    flat = span <= 0.0
    y = (times - low[segment]) / np.where(flat, 1.0, span)[segment]
    theta = np.arctan(_segment_gradient(y, *stencil))
    dtheta = np.abs(_segment_gradient(theta, *stencil))
    # First index of each segment's maximum: np.argmax's rule (a NaN,
    # as in np.argmax, counts as the maximum).
    peak = np.maximum.reduceat(dtheta, starts)[segment]
    at_peak = np.flatnonzero((dtheta == peak) | np.isnan(dtheta))
    first = at_peak[np.searchsorted(at_peak, starts)]
    # A flat curve stays at its unit allocation.
    chosen = np.where(flat, starts, first)
    if profiles:
        # The profile curves' exact times at their unit and knee.
        count = len(profiles)
        at = np.concatenate([starts[:count], chosen[:count]])
        exact = _profile_times(
            params[segment[at]].T, shapes[:, at][_EXACT_ROWS]
        ).tolist()
        unit_times, knee_times = exact[:count], exact[count:]

    for n, ((i, estimate, entry), start, knee_at) in enumerate(
        zip(curves, starts, chosen.tolist())
    ):
        unit = int(entry.grid[0])
        knee = int(entry.grid[knee_at - start])
        if n < len(profiles):
            unit_t, knee_t = unit_times[n], knee_times[n]
        else:
            unit_t = estimate.total_time(unit)
            knee_t = unit_t if knee == unit else estimate.total_time(knee)
        # Guard: never pick an allocation that is *worse* than the unit
        # allocation (possible when replication cost dominates).
        if knee_t > unit_t:
            knee, knee_t = unit, unit_t
        knees[i] = (knee, knee_t)
    return knees


def _segment_gradient(f, coeffs, edges, edge_diffs, edge_dx) -> np.ndarray:
    """``np.gradient(f_i, x_i)`` for every segment ``f_i`` of a flat
    cohort array, on the concatenated stencils of the segments' grids
    (:func:`_knee_stencil`, without the first and last column): the
    interior three-point rule runs over the whole array (the zero
    coefficients at segment ends keep the neighbours out), then each
    segment's one-sided ends are written from the forward difference."""
    a, b, c = coeffs
    out = np.empty_like(f)
    out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
    out[edges] = np.diff(f)[edge_diffs] / edge_dx
    return out


def fit_beta(allocations, compute_times) -> tuple[float, float]:
    """Least-squares fit of the scale-free model (Eq. 3).

    Fits ``log t = log t0 - beta * log m`` and returns ``(beta, r2)``
    of the fit in log space.  Used to validate the scale-free property
    on the ground-truth (discrete) kernel scaling curves, reproducing
    the paper's median R^2 of 0.998.

    Raises :class:`ValueError` on degenerate inputs -- mismatched
    shapes, fewer than two *distinct* allocations (the log-log line is
    underdetermined), or non-positive/non-finite values -- instead of
    letting NumPy's linear algebra fail with an opaque error.
    """
    m = np.asarray(allocations, dtype=float)
    t = np.asarray(compute_times, dtype=float)
    if m.shape != t.shape or m.size < 2:
        raise ValueError(
            "need >= 2 matching (allocation, time) points, got shapes "
            f"{m.shape} and {t.shape}"
        )
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(t))):
        raise ValueError("allocations and times must be finite")
    if np.any(m <= 0) or np.any(t <= 0):
        raise ValueError("allocations and times must be positive")
    if np.unique(m).size < 2:
        raise ValueError(
            "need >= 2 distinct allocations to fit beta "
            f"(all {m.size} points are at allocation {m[0]:g})"
        )
    log_m, log_t = np.log(m), np.log(t)
    slope, intercept = np.polyfit(log_m, log_t, deg=1)
    pred = slope * log_m + intercept
    ss_res = float(np.sum((log_t - pred) ** 2))
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2
