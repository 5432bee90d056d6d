"""GCN model: turns sampled subgraphs into MLIMP job streams.

The paper evaluates a GNN framework with three Graph Convolutional
Network layers (Kipf & Welling), quantised to 16-bit fixed point
(Section IV).  Each layer on each subgraph contributes three MLIMP
jobs -- the paper's Figure 11 kernels:

* **SpMM** -- aggregation ``B = A_hat X`` (input-dependent timing,
  carries subgraph metadata for the predictor),
* **GEMM** -- combination ``H = B W`` (deterministic),
* **Vadd** -- bias/residual addition (deterministic).

Activation functions and other glue run on the host ("they take
insignificant time and are thus executed in the host processor").

Data residency follows the MLIMP integration story: the first layer
loads node features from main memory; every later kernel consumes the
previous kernel's in-memory output, and the per-layer weights are
stationary across the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.job import Job
from ..kernels.gemm import make_gemm_job
from ..kernels.spmm import make_spmm_job
from ..kernels.vadd import make_vadd_job
from ..memories.base import MemoryKind, MemorySpec
from .metadata import extract_metadata
from .sampler import Subgraph

__all__ = ["GCNConfig", "spmm_jobs", "gcn_jobs", "batch_jobs"]


@dataclass(frozen=True)
class GCNConfig:
    """Layer dimensions of the GCN."""

    layer_dims: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.layer_dims:
            raise ValueError("GCN needs at least one layer")
        for i, (fan_in, fan_out) in enumerate(self.layer_dims):
            if fan_in < 1 or fan_out < 1:
                raise ValueError("layer dims must be positive")
            if i > 0 and self.layer_dims[i - 1][1] != fan_in:
                raise ValueError("layer dims must chain")

    @classmethod
    def three_layer(cls, input_dim: int, hidden_dim: int = 256) -> "GCNConfig":
        """The evaluated 3-layer GCN (Section IV)."""
        return cls(
            layer_dims=(
                (input_dim, hidden_dim),
                (hidden_dim, hidden_dim),
                (hidden_dim, hidden_dim),
            )
        )


def spmm_jobs(
    subgraph: Subgraph,
    config: GCNConfig,
    specs: dict[MemoryKind, MemorySpec],
    prefix: str,
) -> list[Job]:
    """The aggregation (SpMM) job of every layer of one subgraph: the
    input-dependent jobs, which carry the predictor's metadata."""
    # Degree statistics are per subgraph; only the feature width
    # changes from layer to layer.
    metadata = extract_metadata(subgraph, config.layer_dims[0][0])
    return [
        make_spmm_job(
            f"{prefix}/L{layer}/spmm",
            subgraph.graph,
            fan_in,
            specs,
            metadata=replace(metadata, feature_dim=fan_in),
            resident_b=layer > 0,
            tags={"layer": layer, "phase": "aggregate"},
        )
        for layer, (fan_in, _) in enumerate(config.layer_dims)
    ]


def gcn_jobs(
    subgraph: Subgraph,
    config: GCNConfig,
    specs: dict[MemoryKind, MemorySpec],
    prefix: str,
) -> list[Job]:
    """All MLIMP jobs of one subgraph's GCN inference."""
    jobs: list[Job] = []
    n = subgraph.num_nodes
    aggregates = spmm_jobs(subgraph, config, specs, prefix)
    for layer, ((fan_in, fan_out), spmm) in enumerate(zip(config.layer_dims, aggregates)):
        jobs.append(spmm)
        jobs.append(
            make_gemm_job(
                f"{prefix}/L{layer}/gemm",
                n,
                fan_in,
                fan_out,
                specs,
                resident_inputs=True,
                resident_weights=True,
                tags={"layer": layer, "phase": "combine"},
            )
        )
        jobs.append(
            make_vadd_job(
                f"{prefix}/L{layer}/vadd",
                n * fan_out,
                specs,
                vector_width=fan_out,
                resident=True,
                tags={"layer": layer, "phase": "bias"},
            )
        )
    return jobs


def batch_jobs(
    batch: list[Subgraph],
    config: GCNConfig,
    specs: dict[MemoryKind, MemorySpec],
    batch_id: int = 0,
) -> list[Job]:
    """Jobs for one sampled batch (one or many subgraphs)."""
    jobs: list[Job] = []
    for i, subgraph in enumerate(batch):
        jobs.extend(gcn_jobs(subgraph, config, specs, prefix=f"b{batch_id}/q{i}"))
    return jobs
