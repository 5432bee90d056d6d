"""k-hop neighbourhood sampling and batching (subgraph learning).

GNN frameworks train on sampled subgraphs ("mini-batching", paper
II-C2): the k-hop neighbourhood of each query node is extracted and
the GCN runs on that subgraph.  The resulting subgraph sizes follow a
heavy-tailed distribution (Fig. 5) -- the *runtime workload dynamism*
that motivates MLIMP's scheduler.

:class:`NeighborSampler` implements full k-hop BFS expansion with an
optional per-hop fanout cap (PyG's neighbor-sampler style).  Batches
follow the paper: 64 query nodes per batch, either one subgraph per
query or -- for high-connectivity graphs (ogbl-ppa, ogbl-ddi) -- one
*concatenated* subgraph that unions all query neighbourhoods so node
features are reused across queries (Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import CSRGraph

__all__ = ["Subgraph", "NeighborSampler", "sample_batches"]


@dataclass(frozen=True)
class Subgraph:
    """A sampled k-hop neighbourhood, re-numbered locally."""

    graph: CSRGraph
    query_nodes: tuple[int, ...]  # local ids of the batch's query nodes
    global_nodes: np.ndarray  # local id -> mother-graph id
    hops: int

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


@dataclass
class NeighborSampler:
    """Samples k-hop neighbourhoods from a mother graph.

    ``fanout`` caps the neighbours expanded per node per hop (None =
    full neighbourhood, the default).  ``max_nodes`` truncates runaway
    frontiers on dense graphs.
    """

    graph: CSRGraph
    hops: int = 3
    fanout: int | tuple[int, ...] | None = None
    max_nodes: int | None = None
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _fanouts: tuple[int | None, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.fanout is None:
            fanouts: tuple[int | None, ...] = (None,) * self.hops
        elif isinstance(self.fanout, int):
            fanouts = (self.fanout,) * self.hops
        else:
            if len(self.fanout) != self.hops:
                raise ValueError("per-hop fanout tuple must have one entry per hop")
            fanouts = tuple(self.fanout)
        for f in fanouts:
            if f is not None and f < 1:
                raise ValueError("fanout must be >= 1 or None")
        self._fanouts = fanouts
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def _neighbours_of(self, frontier: np.ndarray, fanout: int | None) -> np.ndarray:
        """All (possibly fanout-capped) neighbours of a frontier."""
        if fanout is None:
            # Vectorised gather of every adjacency run in the frontier.
            indptr, indices = self.graph.indptr, self.graph.indices
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            run_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
            flat = np.arange(total) + np.repeat(starts - run_offsets, counts)
            return indices[flat]
        gathered: list[np.ndarray] = []
        for node in frontier:
            neigh = self.graph.neighbors(int(node))
            if len(neigh) > fanout:
                neigh = self._rng.choice(neigh, size=fanout, replace=False)
            gathered.append(neigh)
        if not gathered:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(gathered)

    def _expand(self, seeds: np.ndarray) -> np.ndarray:
        """BFS out to ``hops``; returns reached mother-graph node ids."""
        visited_mask = np.zeros(self.graph.num_nodes, dtype=bool)
        visited_mask[seeds] = True
        frontier = np.unique(np.asarray(seeds, dtype=np.int64))
        for hop in range(self.hops):
            if len(frontier) == 0:
                break
            candidates = np.unique(self._neighbours_of(frontier, self._fanouts[hop]))
            fresh = candidates[~visited_mask[candidates]]
            visited_mask[fresh] = True
            frontier = fresh
            if self.max_nodes is not None and int(visited_mask.sum()) >= self.max_nodes:
                break
        nodes = np.flatnonzero(visited_mask).astype(np.int64)
        if self.max_nodes is not None and len(nodes) > self.max_nodes:
            # Keep the seeds, truncate the rest deterministically.
            seed_mask = np.zeros(self.graph.num_nodes, dtype=bool)
            seed_mask[seeds] = True
            seed_nodes = nodes[seed_mask[nodes]]
            rest = nodes[~seed_mask[nodes]][: self.max_nodes - len(seed_nodes)]
            nodes = np.sort(np.concatenate([seed_nodes, rest]))
        return nodes

    def sample(self, query: int) -> Subgraph:
        """k-hop subgraph around a single query node."""
        return self.sample_many(np.asarray([query]))

    def sample_many(self, queries: np.ndarray) -> Subgraph:
        """One subgraph covering the union of all query neighbourhoods
        (the paper's *concatenated subgraph* mode)."""
        queries = np.asarray(queries, dtype=np.int64)
        if len(queries) == 0:
            raise ValueError("need at least one query node")
        if queries.min() < 0 or queries.max() >= self.graph.num_nodes:
            raise ValueError("query node out of range")
        nodes = self._expand(queries)
        sub = self.graph.induced_subgraph(nodes)
        position = {int(n): i for i, n in enumerate(nodes)}
        local_queries = tuple(position[int(q)] for q in queries)
        return Subgraph(
            graph=sub, query_nodes=local_queries, global_nodes=nodes, hops=self.hops
        )


def sample_batches(
    graph: CSRGraph,
    num_batches: int,
    batch_size: int = 64,
    hops: int = 3,
    fanout: int | tuple[int, ...] | None = None,
    max_nodes: int | None = None,
    concat: bool = False,
    seed: int = 0,
) -> list[list[Subgraph]]:
    """Draw query batches like the paper's methodology.

    Returns ``num_batches`` batches; each batch is a list of subgraphs
    (one per query, or a single concatenated subgraph when ``concat``).
    The paper simulates 10 random batches of 64 queries (Section IV).
    """
    if num_batches < 1 or batch_size < 1:
        raise ValueError("num_batches and batch_size must be positive")
    rng = np.random.default_rng(seed)
    sampler = NeighborSampler(
        graph, hops=hops, fanout=fanout, max_nodes=max_nodes, seed=seed + 1
    )
    batches: list[list[Subgraph]] = []
    for _ in range(num_batches):
        queries = rng.choice(graph.num_nodes, size=batch_size, replace=False)
        if concat:
            batches.append([sampler.sample_many(queries)])
        else:
            batches.append([sampler.sample(int(q)) for q in queries])
    return batches
