"""GNN workload substrate: graphs, datasets, sampling, GCN job streams."""

from .datasets import DATASETS, DatasetSpec, barabasi_albert, dataset_names, generate
from .gcn import GCNConfig, batch_jobs, gcn_jobs, spmm_jobs
from .graph import CSRGraph
from .metadata import SubgraphMetadata, extract_metadata, prow_population
from .sampler import NeighborSampler, Subgraph, sample_batches

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "barabasi_albert",
    "dataset_names",
    "generate",
    "GCNConfig",
    "batch_jobs",
    "gcn_jobs",
    "spmm_jobs",
    "CSRGraph",
    "SubgraphMetadata",
    "extract_metadata",
    "prow_population",
    "NeighborSampler",
    "Subgraph",
    "sample_batches",
]
