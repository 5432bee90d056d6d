"""CSR graph substrate for the GNN workloads.

Immutable compressed-sparse-row adjacency with the operations the GNN
pipeline needs: degree queries, induced subgraph extraction (the
neighbour sampler's output), and the symmetric normalisation
``D^{-1/2} A D^{-1/2}`` used by GCN aggregation (paper II-C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """Directed graph in CSR form (undirected graphs store both arcs).

    ``indptr`` has length ``num_nodes + 1``; ``indices[indptr[v]:
    indptr[v+1]]`` are the out-neighbours of ``v``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    name: str = "graph"

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if len(indptr) != self.num_nodes + 1:
            raise ValueError("indptr length must be num_nodes + 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr endpoints are inconsistent with indices")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.num_nodes):
            raise ValueError("indices out of range")

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: np.ndarray, name: str = "graph", symmetric: bool = True
    ) -> "CSRGraph":
        """Build from an (E, 2) edge array; optionally symmetrise.

        Duplicate arcs and self-loops are removed.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if symmetric and len(edges):
            edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        if len(edges):
            edges = edges[edges[:, 0] != edges[:, 1]]
            # unique arcs via linear keys
            keys = edges[:, 0] * num_nodes + edges[:, 1]
            edges = edges[np.unique(keys, return_index=True)[1]]
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
        counts = np.bincount(edges[:, 0], minlength=num_nodes) if len(edges) else np.zeros(
            num_nodes, dtype=np.int64
        )
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = edges[:, 1] if len(edges) else np.empty(0, dtype=np.int64)
        return cls(indptr=indptr, indices=indices, num_nodes=num_nodes, name=name)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Stored arcs (an undirected edge counts twice)."""
        return int(len(self.indices))

    @property
    def nnz(self) -> int:
        """Non-zeros of the adjacency matrix (alias of ``num_edges``)."""
        return self.num_edges

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def avg_degree(self) -> float:
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0

    # ------------------------------------------------------------------
    def induced_subgraph(self, nodes: np.ndarray, name: str | None = None) -> "CSRGraph":
        """Subgraph on ``nodes`` with locally re-numbered vertices.

        The order of ``nodes`` defines the new numbering (duplicates
        are rejected).  Each local row lists its columns in ascending
        order, whatever the order of ``nodes`` or of the mother rows.

        Cost: a sampled subgraph keeps a few percent of the arcs of its
        rows (a kept hub row can be 10^4 arcs long), so the kept rows
        are copied slice by slice and tested against a one-byte
        membership mask; index arithmetic and the renumbering touch
        only the kept arcs, and they are sorted only when the node
        order or an unsorted mother row leaves them out of order.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        k = len(nodes)
        kept = np.zeros(self.num_nodes, dtype=bool)
        kept[nodes] = True
        if np.count_nonzero(kept) != k:
            raise ValueError("node list contains duplicates")
        starts, ends = self.indptr[nodes], self.indptr[nodes + 1]
        row_ends = np.cumsum(ends - starts)
        if k and row_ends[-1]:
            arcs = np.concatenate(
                [self.indices[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
            )
            hits = np.flatnonzero(kept[arcs])
            mapping = np.empty(self.num_nodes, dtype=np.int64)
            mapping[nodes] = np.arange(k)
            local_dst = mapping[arcs[hits]]
            local_src = np.searchsorted(row_ends, hits, side="right")
            keys = local_src * k + local_dst
            if np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys, kind="stable")
                local_src, local_dst = local_src[order], local_dst[order]
        else:
            local_src = local_dst = np.empty(0, dtype=np.int64)
        sub_counts = np.bincount(local_src, minlength=k)
        return CSRGraph(
            indptr=np.concatenate([[0], np.cumsum(sub_counts)]),
            indices=local_dst,
            num_nodes=len(nodes),
            name=name or f"{self.name}/sub{len(nodes)}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"arcs={self.num_edges})"
        )
