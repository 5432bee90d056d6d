"""Subgraph metadata: the predictor's input features.

Section III-E: SpMM execution time depends on the *contents* of the
subgraph adjacency matrix.  The paper's proxy metric is the job size
per allocation, ``nnz(x) / H_w(x)``, where ``H_w(x)`` counts the
non-zero *partial rows* (prows) of width ``w``: rows of the vertical
strips of A that contain at least one non-zero.  The predictor instead
learns from cheap subgraph metadata (nnz, node count, degree moments)
-- metadata that does *not* require the full adjacency scan that
computing H_w exactly would.

This module provides both: the exact strip statistics used by the SpMM
timing model / oracle, and the cheap metadata vector the MLP regressors
consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CSRGraph
from .sampler import Subgraph

__all__ = ["prow_population", "SubgraphMetadata", "extract_metadata"]


def prow_population(graph: CSRGraph, width: int) -> np.ndarray:
    """Non-zero counts of every non-empty prow of strip width ``width``.

    A prow is the segment of adjacency row ``r`` covering columns
    ``[s*width, (s+1)*width)``; its population is how many non-zeros it
    holds -- i.e. how many B-rows one multi-operand accumulation can
    fuse on ReRAM.  Returned in (row, strip) order.

    The (row, strip) keys of a graph with sorted rows are already
    non-decreasing, so the populations are the lengths of their runs;
    the keys are sorted first only when some row is not.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if graph.nnz == 0:
        return np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    num_strips = -(-graph.num_nodes // width)
    keys = rows * num_strips + graph.indices // width
    if np.any(keys[1:] < keys[:-1]):
        keys = np.sort(keys, kind="stable")
    run_edges = np.empty(len(keys) + 1, dtype=bool)
    run_edges[0] = run_edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_edges[1:-1])
    return np.diff(np.flatnonzero(run_edges))


@dataclass(frozen=True)
class SubgraphMetadata:
    """Cheap per-subgraph features for the performance predictor.

    All fields are computable from the sampler output without scanning
    the adjacency matrix column-by-column (degree statistics fall out
    of the CSR indptr for free).
    """

    num_nodes: int
    nnz: int
    feature_dim: int
    avg_degree: float
    max_degree: int
    degree_std: float
    num_queries: int

    def as_features(self, width: int) -> np.ndarray:
        """Feature vector for the H_w regressor (includes the strip
        width ``w``, per the paper's training recipe)."""
        return np.asarray(
            [
                float(self.num_nodes),
                float(self.nnz),
                float(self.feature_dim),
                self.avg_degree,
                float(self.max_degree),
                self.degree_std,
                float(self.num_queries),
                float(width),
            ]
        )


def extract_metadata(subgraph: Subgraph, feature_dim: int) -> SubgraphMetadata:
    """Compute the metadata vector for one sampled subgraph."""
    graph = subgraph.graph
    degrees = graph.degrees()
    return SubgraphMetadata(
        num_nodes=graph.num_nodes,
        nnz=graph.nnz,
        feature_dim=feature_dim,
        avg_degree=float(degrees.mean()) if len(degrees) else 0.0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        degree_std=float(degrees.std()) if len(degrees) else 0.0,
        num_queries=len(subgraph.query_nodes),
    )
