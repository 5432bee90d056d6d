"""CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import CSRGraph, prow_population


def triangle() -> CSRGraph:
    return CSRGraph.from_edges(3, np.asarray([[0, 1], [1, 2], [0, 2]]), name="tri")


class TestConstruction:
    def test_from_edges_symmetrises(self):
        g = triangle()
        assert g.num_edges == 6  # each undirected edge stored twice
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [0, 2]

    def test_from_edges_directed(self):
        g = CSRGraph.from_edges(3, np.asarray([[0, 1]]), symmetric=False)
        assert g.num_edges == 1
        assert list(g.neighbors(1)) == []

    def test_self_loops_and_duplicates_removed(self):
        g = CSRGraph.from_edges(
            3, np.asarray([[0, 0], [0, 1], [0, 1], [1, 0]]), symmetric=False
        )
        assert g.num_edges == 2  # 0->1 and 1->0

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, np.empty((0, 2)))
        assert g.num_edges == 0
        assert g.avg_degree() == 0.0

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.asarray([0, 2]), indices=np.asarray([1]), num_nodes=1)

    def test_validation_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.asarray([0, 1]), indices=np.asarray([5]), num_nodes=1)

    def test_degrees(self):
        g = triangle()
        assert list(g.degrees()) == [2, 2, 2]
        assert g.avg_degree() == pytest.approx(2.0)

    def test_neighbors_out_of_range(self):
        with pytest.raises(IndexError):
            triangle().neighbors(7)


class TestSubgraph:
    def test_induced_subgraph_renumbers(self):
        g = CSRGraph.from_edges(
            5, np.asarray([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
        )
        sub = g.induced_subgraph(np.asarray([1, 2, 3]))
        assert sub.num_nodes == 3
        # Edges 1-2 and 2-3 survive; 0 and 4 are cut away.
        assert sub.num_edges == 4
        assert list(sub.neighbors(1)) == [0, 2]

    def test_subgraph_of_disconnected_nodes(self):
        g = triangle()
        sub = g.induced_subgraph(np.asarray([0]))
        assert sub.num_nodes == 1
        assert sub.num_edges == 0

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            triangle().induced_subgraph(np.asarray([0, 0]))

    def test_full_subgraph_is_identity(self):
        g = triangle()
        sub = g.induced_subgraph(np.arange(3))
        assert sub.num_edges == g.num_edges
        assert np.array_equal(sub.indptr, g.indptr)
        assert np.array_equal(sub.indices, g.indices)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=100
    ),
    data=st.data(),
)
def test_subgraph_edges_are_subset_property(n, edges, data):
    """Induced subgraphs never invent edges and preserve all edges
    internal to the node set."""
    edges = [(a % n, b % n) for a, b in edges]
    g = CSRGraph.from_edges(n, np.asarray(edges).reshape(-1, 2))
    k = data.draw(st.integers(min_value=1, max_value=n))
    nodes = data.draw(
        st.permutations(list(range(n))).map(lambda p: np.asarray(p[:k]))
    )
    sub = g.induced_subgraph(nodes)
    node_set = set(int(x) for x in nodes)
    expected = sum(
        1
        for u in node_set
        for v in g.neighbors(u)
        if int(v) in node_set
    )
    assert sub.num_edges == expected
    assert sub.num_nodes == k


# ----------------------------------------------------------------------
# Reference models: the straightforward extraction and strip count the
# optimised ones must reproduce exactly.


def reference_induced_subgraph(graph: CSRGraph, nodes: np.ndarray) -> CSRGraph:
    """Gather every kept row whole, drop the arcs that leave the node
    set, then lexsort the survivors into CSR order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    mapping = np.full(graph.num_nodes, -1, dtype=np.int64)
    mapping[nodes] = np.arange(len(nodes))
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total:
        run_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        flat = np.arange(total) + np.repeat(starts - run_offsets, counts)
        local_dst = mapping[graph.indices[flat]]
        local_src = np.repeat(np.arange(len(nodes)), counts)
        keep = local_dst >= 0
        local_src, local_dst = local_src[keep], local_dst[keep]
        order = np.lexsort((local_dst, local_src))
        local_src, local_dst = local_src[order], local_dst[order]
    else:
        local_src = local_dst = np.empty(0, dtype=np.int64)
    sub_counts = np.bincount(local_src, minlength=len(nodes))
    return CSRGraph(
        indptr=np.concatenate([[0], np.cumsum(sub_counts)]),
        indices=local_dst,
        num_nodes=len(nodes),
    )


def reference_prow_population(graph: CSRGraph, width: int) -> np.ndarray:
    """Sort every (row, strip) key and count the distinct ones."""
    if graph.nnz == 0:
        return np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    num_strips = -(-graph.num_nodes // width)
    keys = rows * num_strips + graph.indices // width
    return np.unique(keys, return_counts=True)[1]


@st.composite
def csr_graphs(draw, max_nodes: int = 24):
    """Arbitrary CSR graphs: rows in any order, duplicate arcs and
    self loops allowed, plus (half the time) the sorted, deduplicated
    symmetric form the dataset generators build."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    rows = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=3 * n), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        edges = [(r, c) for r, row in enumerate(rows) for c in row]
        return CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    indices = np.asarray([c for row in rows for c in row], dtype=np.int64)
    return CSRGraph(indptr=indptr, indices=indices, num_nodes=n)


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    assert got.num_nodes == want.num_nodes
    assert got.indptr.dtype == want.indptr.dtype == np.int64
    assert got.indices.dtype == want.indices.dtype == np.int64
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


@settings(max_examples=200, deadline=None)
@given(graph=csr_graphs(), data=st.data())
def test_induced_subgraph_matches_reference(graph, data):
    """Any graph, any node subset in any order: the mask walk builds
    the reference's arrays exactly."""
    k = data.draw(st.integers(min_value=0, max_value=graph.num_nodes))
    nodes = data.draw(st.permutations(list(range(graph.num_nodes))))[:k]
    if data.draw(st.booleans()):
        nodes = sorted(nodes)
    nodes = np.asarray(nodes, dtype=np.int64)
    assert_same_graph(
        graph.induced_subgraph(nodes), reference_induced_subgraph(graph, nodes)
    )


@settings(max_examples=200, deadline=None)
@given(graph=csr_graphs(), width=st.integers(min_value=1, max_value=30))
def test_prow_population_matches_reference(graph, width):
    got = prow_population(graph, width)
    want = reference_prow_population(graph, width)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_unsorted_rows_match_reference():
    """Rows listed out of column order (and a repeated arc) take the
    sorting path of both the extraction and the strip count."""
    graph = CSRGraph(
        indptr=np.asarray([0, 4, 6, 8, 9, 11]),
        indices=np.asarray([4, 1, 3, 1, 2, 0, 4, 0, 2, 3, 0]),
        num_nodes=5,
    )
    for nodes in ([0, 1, 2, 3, 4], [4, 0, 3], [3, 1, 0, 2], [2]):
        nodes = np.asarray(nodes)
        assert_same_graph(
            graph.induced_subgraph(nodes), reference_induced_subgraph(graph, nodes)
        )
    for width in (1, 2, 3, 5, 8):
        assert np.array_equal(
            prow_population(graph, width), reference_prow_population(graph, width)
        )
