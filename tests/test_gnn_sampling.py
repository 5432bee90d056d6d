"""Datasets, neighbour sampling and subgraph metadata."""

import numpy as np
import pytest

from repro.gnn import (
    DATASETS,
    CSRGraph,
    NeighborSampler,
    barabasi_albert,
    extract_metadata,
    generate,
    prow_population,
    sample_batches,
)


def path_graph(n=10) -> CSRGraph:
    edges = np.asarray([[i, i + 1] for i in range(n - 1)])
    return CSRGraph.from_edges(n, edges)


class TestDatasets:
    def test_table1_datasets_present(self):
        assert set(DATASETS) == {"collab", "citation", "ppa", "ddi", "products"}

    def test_concat_mode_marks_nature_graphs(self):
        # ogbl-ppa and ogbl-ddi use concatenated subgraphs (Section IV).
        assert DATASETS["ppa"].concat_subgraphs
        assert DATASETS["ddi"].concat_subgraphs
        assert not DATASETS["citation"].concat_subgraphs

    def test_feature_dims_match_table1(self):
        assert DATASETS["collab"].feature_dim == 128
        assert DATASETS["ppa"].feature_dim == 58
        assert DATASETS["products"].feature_dim == 100
        for spec in DATASETS.values():
            assert spec.hidden_dim == 256

    def test_density_ordering_matches_paper(self):
        # ogbl-ddi is far denser than ogbl-collab.
        ddi = generate("ddi")
        collab = generate("collab")
        assert ddi.avg_degree() > 10 * collab.avg_degree()

    def test_generate_caches(self):
        assert generate("collab") is generate("collab")
        assert generate("collab", cache=False) is not generate("collab")

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            generate("imaginary")

    def test_ba_degree_heavy_tail(self):
        g = barabasi_albert(3000, 5, seed=1)
        degrees = np.sort(g.degrees())[::-1]
        # Power-law-ish: the top vertex has degree far above the mean,
        # and many vertices sit at low degree.
        assert degrees[0] > 10 * g.avg_degree()
        assert np.percentile(degrees, 25) < g.avg_degree()

    def test_ba_edge_count_near_target(self):
        spec = DATASETS["collab"]
        g = generate("collab")
        assert g.num_edges == pytest.approx(2 * spec.m * spec.nodes, rel=0.25)

    def test_ba_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert(1, 1)
        with pytest.raises(ValueError):
            barabasi_albert(10, 10)


class TestSampler:
    def test_khop_on_path_graph(self):
        sampler = NeighborSampler(path_graph(), hops=2)
        sub = sampler.sample(5)
        # 2-hop neighbourhood of node 5 on a path: {3,4,5,6,7}.
        assert set(sub.global_nodes.tolist()) == {3, 4, 5, 6, 7}
        assert sub.num_nodes == 5

    def test_query_node_is_included_and_mapped(self):
        sampler = NeighborSampler(path_graph(), hops=1)
        sub = sampler.sample(0)
        assert sub.global_nodes[sub.query_nodes[0]] == 0

    def test_fanout_caps_expansion(self):
        g = generate("citation")
        full = NeighborSampler(g, hops=2, seed=1).sample(0)
        capped = NeighborSampler(g, hops=2, fanout=3, seed=1).sample(0)
        assert capped.num_nodes <= full.num_nodes

    def test_per_hop_fanout_tuple(self):
        g = generate("collab")
        sampler = NeighborSampler(g, hops=3, fanout=(5, 4, 3), seed=1)
        sub = sampler.sample(10)
        assert sub.num_nodes >= 1

    def test_fanout_tuple_length_validated(self):
        with pytest.raises(ValueError):
            NeighborSampler(path_graph(), hops=3, fanout=(5, 4))

    def test_max_nodes_truncation_keeps_seeds(self):
        g = generate("collab")
        sampler = NeighborSampler(g, hops=3, max_nodes=20, seed=2)
        sub = sampler.sample_many(np.asarray([0, 1]))
        assert sub.num_nodes <= 20 + 2
        assert {int(g_) for g_ in (0, 1)} <= set(sub.global_nodes.tolist())

    def test_concat_subgraph_unions_queries(self):
        sampler = NeighborSampler(path_graph(), hops=1)
        sub = sampler.sample_many(np.asarray([0, 9]))
        assert {0, 1, 8, 9} == set(sub.global_nodes.tolist())
        assert len(sub.query_nodes) == 2

    def test_sample_batches_shapes(self):
        g = generate("collab")
        batches = sample_batches(g, num_batches=2, batch_size=8, fanout=5, seed=0)
        assert len(batches) == 2
        assert all(len(batch) == 8 for batch in batches)
        concat = sample_batches(
            g, num_batches=2, batch_size=8, fanout=5, concat=True, seed=0
        )
        assert all(len(batch) == 1 for batch in concat)

    def test_subgraph_size_dynamism(self):
        """Figure 5: sampled subgraph sizes vary widely -- the
        workload dynamism that motivates the scheduler."""
        g = generate("citation")
        spec = DATASETS["citation"]
        batches = sample_batches(
            g, num_batches=3, batch_size=32, fanout=spec.fanout, seed=4
        )
        sizes = [s.num_nodes for batch in batches for s in batch]
        assert max(sizes) > 3 * min(sizes)

    def test_invalid_queries(self):
        sampler = NeighborSampler(path_graph())
        with pytest.raises(ValueError):
            sampler.sample_many(np.asarray([]))
        with pytest.raises(ValueError):
            sampler.sample(99)


class TestMetadata:
    def test_prow_population_path_graph(self):
        g = path_graph(6)
        # Width 2 strips: columns {0,1},{2,3},{4,5}.  Row 1 has
        # neighbours 0 and 2 -> prows (1,strip0) and (1,strip1).
        pops = prow_population(g, 2)
        assert pops.sum() == g.nnz

    def test_prow_width_one_counts_nnz(self):
        g = path_graph(6)
        assert len(prow_population(g, 1)) == g.nnz

    def test_prow_full_width_counts_nonempty_rows(self):
        g = path_graph(6)
        assert len(prow_population(g, 6)) == 6  # every row has a neighbour

    def test_wider_strips_never_increase_prows(self):
        g = generate("collab")
        sub = NeighborSampler(g, hops=2, fanout=8, seed=0).sample(5)
        h = [len(prow_population(sub.graph, w)) for w in (1, 4, 16, 64, 256)]
        assert all(a >= b for a, b in zip(h, h[1:]))

    def test_empty_graph_prows(self):
        g = CSRGraph.from_edges(3, np.empty((0, 2)))
        assert len(prow_population(g, 4)) == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            prow_population(path_graph(), 0)

    def test_extract_metadata_fields(self):
        g = generate("collab")
        sub = NeighborSampler(g, hops=2, fanout=8, seed=0).sample(5)
        md = extract_metadata(sub, feature_dim=128)
        assert md.num_nodes == sub.num_nodes
        assert md.nnz == sub.graph.nnz
        assert md.feature_dim == 128
        assert md.max_degree >= md.avg_degree
        assert md.num_queries == 1

    def test_feature_vector_shape_and_names(self):
        g = generate("collab")
        sub = NeighborSampler(g, hops=2, fanout=8, seed=0).sample(5)
        md = extract_metadata(sub, 128)
        features = md.as_features(width=128)
        assert features.shape == (8,)  # seven graph features and the width
        assert features[-1] == 128.0
