"""GCN model -> MLIMP job stream."""

import pytest

from repro.gnn import GCNConfig, NeighborSampler, batch_jobs, gcn_jobs, generate
from repro.harness.config import scaled_specs
from repro.memories import DEFAULT_SPECS, MemoryKind


@pytest.fixture(scope="module")
def subgraph():
    graph = generate("collab")
    return NeighborSampler(graph, hops=3, fanout=(10, 8, 5), seed=2).sample(42)


class TestConfig:
    def test_three_layer(self):
        config = GCNConfig.three_layer(128, 256)
        assert config.layer_dims == ((128, 256), (256, 256), (256, 256))

    def test_dims_must_chain(self):
        with pytest.raises(ValueError):
            GCNConfig(layer_dims=((128, 256), (128, 256)))

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            GCNConfig(layer_dims=())

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            GCNConfig(layer_dims=((0, 4),))


class TestJobGeneration:
    def test_three_kernels_per_layer(self, subgraph):
        config = GCNConfig.three_layer(128)
        jobs = gcn_jobs(subgraph, config, DEFAULT_SPECS, prefix="q")
        assert len(jobs) == 9
        kernels = [job.kernel for job in jobs]
        assert kernels == ["spmm", "gemm", "vadd"] * 3

    def test_spmm_jobs_carry_metadata(self, subgraph):
        config = GCNConfig.three_layer(128)
        jobs = gcn_jobs(subgraph, config, DEFAULT_SPECS, prefix="q")
        for job in jobs:
            if job.kernel == "spmm":
                assert job.metadata is not None
                assert "h_w" in job.tags

    def test_layer_dims_flow_into_jobs(self, subgraph):
        config = GCNConfig.three_layer(128, 256)
        jobs = gcn_jobs(subgraph, config, DEFAULT_SPECS, prefix="q")
        spmm0 = jobs[0]
        gemm0 = jobs[1]
        assert spmm0.tags["feature_dim"] == 128
        assert gemm0.tags["k"] == 128 and gemm0.tags["n"] == 256
        spmm1 = jobs[3]
        assert spmm1.tags["feature_dim"] == 256

    def test_memcpy_bypass_residency(self, subgraph):
        """Only the first layer loads node features; later kernels
        consume in-memory outputs (paper V-B1)."""
        config = GCNConfig.three_layer(128)
        jobs = gcn_jobs(subgraph, config, DEFAULT_SPECS, prefix="q")
        l0 = jobs[0].profile(MemoryKind.SRAM)
        l1 = jobs[3].profile(MemoryKind.SRAM)
        assert l0.fill_bytes > l1.fill_bytes
        gemm = jobs[1].profile(MemoryKind.SRAM)
        assert gemm.fill_bytes == 0
        vadd = jobs[2].profile(MemoryKind.SRAM)
        assert vadd.fill_bytes == 0

    def test_batch_jobs(self, subgraph):
        config = GCNConfig.three_layer(128)
        jobs = batch_jobs([subgraph, subgraph], config, DEFAULT_SPECS, batch_id=7)
        assert len(jobs) == 18
        assert jobs[0].job_id.startswith("b7/q0/")
        assert jobs[9].job_id.startswith("b7/q1/")

    def test_jobs_fit_scaled_devices(self, subgraph):
        """GCN jobs must remain schedulable on the scaled evaluation
        system (unit allocations iterate rather than overflow)."""
        specs = scaled_specs()
        config = GCNConfig.three_layer(128)
        jobs = gcn_jobs(subgraph, config, specs, prefix="q")
        for job in jobs:
            for kind, profile in job.profiles.items():
                assert profile.unit_arrays <= specs[kind].num_arrays
