"""SpMM kernel mapping: the B-stationary lookup-based approach (III-D3).

Computes ``C = A @ B`` where A is the (normalised) sparse adjacency of
a sampled subgraph and B the dense node-feature matrix -- the
*aggregation* step of a GCN layer.

Rather than decompressing A into memory (the inefficiency the paper
catalogues), B is partitioned into horizontal slices stored across
arrays; the matching vertical strip of A streams in row by row, and
each non-zero *prow* (partial row of strip width ``w``) triggers a
vector MAC over the feature lanes, using the non-zero column indices
as lookups into the resident B rows.

The decisive technology difference: the ReRAM crossbar accumulates all
``k`` non-zeros of a prow in *one* analog multi-operand operation
(strip width w = 128, the paper's ``H_128``), while bit-serial targets
sequence ``k`` two-operand MACs -- so ReRAM wins exactly when the job
size per allocation ``nnz / H_w`` is large (Figure 10).

Partial-sum vectors from different strips are merged in buffer arrays
(one add per non-zero prow); B-slice *replication* within a larger
allocation exploits input-row parallelism (paper: "having a few
replicas helps achieve good performance scaling").
"""

from __future__ import annotations

import math

import numpy as np

from ..core.job import Job, JobPerfProfile
from ..gnn.graph import CSRGraph
from ..gnn.metadata import SubgraphMetadata, prow_population
from ..isa.ops import Op
from ..isa.timing import op_cycles
from ..memories.base import ELEMENT_BYTES, MemoryKind, MemorySpec
from .mapping import (
    cap_unit_arrays,
    nominal_load_seconds,
    replica_copy_seconds,
    spmm_strip_width,
    spmm_unit_arrays,
)

__all__ = [
    "spmm_profile",
    "spmm_profile_c_stationary",
    "make_spmm_job",
    "spmm_macs",
]

#: Bytes per streamed non-zero of A (a 32-bit column index plus a
#: 16-bit value).
_NNZ_STREAM_BYTES = 6


def spmm_macs(adjacency: CSRGraph, feature_dim: int) -> int:
    """Element multiply-accumulates of the SpMM."""
    return adjacency.nnz * feature_dim


def spmm_profile(
    spec: MemorySpec,
    adjacency: CSRGraph,
    feature_dim: int,
    resident_b: bool = False,
    population: np.ndarray | None = None,
) -> JobPerfProfile:
    """Ground-truth profile of one SpMM job on ``spec``.

    The compute model scans the actual adjacency: per strip of width
    ``w``, every non-zero prow costs one multi-operand accumulation
    (ReRAM) or ``k`` chained 2-operand MACs (bit-serial), repeated for
    each group of feature lanes, plus one partial-sum merge per prow.

    ``resident_b`` marks the dense matrix as already in the compute
    region (a later GCN layer consuming the previous layer's in-memory
    output) -- the "tight integration with the host memory hierarchy"
    that lets MLIMP bypass the memcpy bottleneck (paper V-B1); only
    the sparse-matrix stream is then charged.  ``population`` is the
    adjacency's :func:`prow_population` at this target's strip width,
    when the caller has it already.
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be positive")
    n = adjacency.num_nodes
    if n < 1:
        raise ValueError("empty adjacency")

    width = spmm_strip_width(spec, feature_dim)
    unit_arrays = spmm_unit_arrays(spec, n, feature_dim)
    pops = prow_population(adjacency, width) if population is None else population
    h_w = len(pops)
    nnz = adjacency.nnz

    mac = op_cycles(spec.kind, Op.MAC, spec.element_bits)
    add = op_cycles(spec.kind, Op.ADD, spec.element_bits)

    if spec.kind is MemoryKind.RERAM:
        # ceil(k / 128) analog ops per prow.  The unit allocation holds
        # every strip AND the full ceil(f / 16) column partition, so
        # all feature segments advance in parallel; unit-compute time
        # divides by the resident strip count only.
        ops = int(np.ceil(pops / spec.max_operands).sum()) if h_w else 0
        strip_count = max(1, math.ceil(n / width))
        total_cycles = ops * mac + h_w * add
        t_compute_unit = spec.seconds(total_cycles / strip_count)
        mac_ops_for_energy = ops * feature_dim
    else:
        lanes = spec.usable_lanes(vector_width=feature_dim)
        feature_passes = math.ceil(feature_dim / lanes)
        strip_count = max(1, math.ceil(n / width))
        total_cycles = (nnz * mac + h_w * add) * feature_passes
        t_compute_unit = spec.seconds(total_cycles / strip_count)
        mac_ops_for_energy = nnz * feature_dim

    b_bytes = n * feature_dim * ELEMENT_BYTES
    a_bytes = nnz * _NNZ_STREAM_BYTES
    loaded_bytes = a_bytes if resident_b else b_bytes + a_bytes
    t_load = nominal_load_seconds(spec, loaded_bytes)
    t_replica = replica_copy_seconds(spec, b_bytes)

    # Input-row parallelism: replicas split the non-empty A rows.
    nonempty_rows = int(np.count_nonzero(np.diff(adjacency.indptr)))
    energy = mac_ops_for_energy * spec.energy_per_mac_pj * 1e-12

    # Small devices process the B slices in n_iter sequential chunks.
    unit_arrays, n_iter = cap_unit_arrays(spec, unit_arrays)
    return JobPerfProfile(
        unit_arrays=unit_arrays,
        t_load=t_load / n_iter,
        t_replica_unit=t_replica / n_iter,
        t_compute_unit=t_compute_unit / n_iter,
        waves_unit=max(1, nonempty_rows),
        n_iter=n_iter,
        fill_bytes=loaded_bytes / n_iter,
        compute_energy_j=energy,
        vector_width=feature_dim,
    )


def spmm_profile_c_stationary(
    spec: MemorySpec,
    adjacency: CSRGraph,
    feature_dim: int,
) -> JobPerfProfile:
    """C-stationary SpMM (the CPU/GPU-style reuse pattern, Fig. 9).

    Kept as the ablation baseline for the paper's B-stationary choice:
    the output block stays resident while A is kept and B is
    *re-streamed* once per strip of output rows ("multi-loading" in
    Fig. 9), and the per-output reductions are padded with the null
    entries the compressed format had eliminated (III-D3).  The paper
    measures B-stationary at 4.3x better memory latency and far better
    compute on ogbl-collab; this model reproduces both penalties.
    """
    if feature_dim <= 0:
        raise ValueError("feature_dim must be positive")
    n = adjacency.num_nodes
    width = spmm_strip_width(spec, feature_dim)
    unit_arrays = spmm_unit_arrays(spec, n, feature_dim)
    nnz = adjacency.nnz
    pops = prow_population(adjacency, width)
    h_w = len(pops)

    mac = op_cycles(spec.kind, Op.MAC, spec.element_bits)
    add = op_cycles(spec.kind, Op.ADD, spec.element_bits)
    strip_count = max(1, math.ceil(n / width))
    lanes = spec.usable_lanes(vector_width=feature_dim)
    feature_passes = math.ceil(feature_dim / lanes)
    # Decompression re-inserts the eliminated null elements, so the
    # in-memory compute is dense-equivalent (n x n MAC lattice) plus
    # null-padded reductions over every strip of every output row --
    # the "low compute density per array" of III-D3.
    dense_macs = n * min(n, width * strip_count)
    total_cycles = (dense_macs * mac + n * strip_count * width * add) * feature_passes
    t_compute_unit = spec.seconds(total_cycles / strip_count)

    b_bytes = n * feature_dim * ELEMENT_BYTES
    a_bytes = nnz * _NNZ_STREAM_BYTES
    # B is re-streamed once per output strip (multi-loading).
    loaded_bytes = b_bytes * strip_count + a_bytes
    t_load = nominal_load_seconds(spec, loaded_bytes)
    nonempty_rows = int(np.count_nonzero(np.diff(adjacency.indptr)))

    unit_arrays, n_iter = cap_unit_arrays(spec, unit_arrays)
    return JobPerfProfile(
        unit_arrays=unit_arrays,
        t_load=t_load / n_iter,
        t_replica_unit=replica_copy_seconds(spec, b_bytes) / n_iter,
        t_compute_unit=t_compute_unit / n_iter,
        waves_unit=max(1, nonempty_rows),
        n_iter=n_iter,
        fill_bytes=loaded_bytes / n_iter,
        compute_energy_j=nnz * feature_dim * spec.energy_per_mac_pj * 1e-12,
        vector_width=feature_dim,
    )


def make_spmm_job(
    job_id: str,
    adjacency: CSRGraph,
    feature_dim: int,
    specs: dict[MemoryKind, MemorySpec],
    metadata: SubgraphMetadata | None = None,
    resident_b: bool = False,
    tags: dict | None = None,
) -> Job:
    """Cross-map one SpMM onto every configured memory layer.

    The adjacency is scanned once per distinct strip width: each
    memory's profile and its ``h_w`` tag (the paper's job-size
    statistic, III-E) share that population.
    """
    widths = {kind: spmm_strip_width(spec, feature_dim) for kind, spec in specs.items()}
    populations = {w: prow_population(adjacency, w) for w in set(widths.values())}
    profiles = {
        kind: spmm_profile(
            spec,
            adjacency,
            feature_dim,
            resident_b=resident_b,
            population=populations[widths[kind]],
        )
        for kind, spec in specs.items()
    }
    job_tags = {
        "nodes": adjacency.num_nodes,
        "nnz": adjacency.nnz,
        "feature_dim": feature_dim,
        "macs": spmm_macs(adjacency, feature_dim),
        "strip_width": widths,
        "h_w": {kind: len(populations[width]) for kind, width in widths.items()},
    }
    if tags:
        job_tags.update(tags)
    return Job(
        job_id=job_id,
        kernel="spmm",
        profiles=profiles,
        metadata=metadata,
        tags=job_tags,
    )
