"""GNN evaluation pipeline: datasets -> batches -> jobs -> runs.

Builds the workloads of Section V-B: per Table I dataset, sample query
batches (10 batches of 64 queries in the paper; fewer by default here
to keep the harness quick), lower each subgraph through the 3-layer
GCN into MLIMP jobs, and run them batch-by-batch under a scheduler.
Also trains the MLP performance predictor on held-out subgraphs of the
same mother graph, exactly as the paper's per-mother-graph training
recipe prescribes; that training set is sampled and lowered only when
something first reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..baselines import TITAN_XP, XEON_E5_2697V3, HostDevice
from ..core.dispatcher import Dispatcher, DispatchResult
from ..core.job import Job
from ..core.predictor import MLPPredictor
from ..core.scheduler import MLIMPSystem, Scheduler
from ..gnn import DATASETS, GCNConfig, batch_jobs, generate, sample_batches, spmm_jobs
from ..gnn.sampler import Subgraph
from ..memories import MemoryKind, MemorySpec
from ..sim import EnergyCategory, EnergyLedger, Phase
from .config import DEVICE_SCALE, scaled_specs

__all__ = ["GNNWorkload", "BatchRunSummary", "build_workload", "run_workload"]

#: Host-side pre/post-processing per query (indexing, sigmoid, the
#: prediction MLP -- the paper's "Others" slice, identical across
#: systems and insignificant next to the kernels).
HOST_OTHERS_PER_QUERY_S = 2e-6
HOST_POWER_W = 80.0  # single socket lightly loaded

#: Wall-power constants for the Figure 14 energy comparison (the
#: paper measures CPU/DRAM via RAPL and GPU via nvprof, i.e. whole
#: systems).  The MLIMP host actively orchestrates sampling,
#: scheduling and data generation during the run; the GPU baseline's
#: host mostly waits on PCIe.
MLIMP_SYSTEM_POWER_W = 300.0
BASELINE_HOST_POWER_W = 180.0


@dataclass
class TrainingSet:
    """The predictor's held-out training jobs, kept as their recipe.

    The jobs are sampled from the mother graph and lowered the first
    time :attr:`jobs` is read; most workloads never train a predictor.
    The sampler's seed is ``seed + 1000``, disjoint from the batches',
    so the draw does not depend on when it runs.
    """

    dataset: str
    specs: dict[MemoryKind, MemorySpec]
    config: GCNConfig
    batch_size: int
    seed: int
    subgraphs: int
    _jobs: list[Job] | None = field(default=None, repr=False)

    @property
    def jobs(self) -> list[Job]:
        if self._jobs is None:
            per_batch = max(8, min(self.batch_size, self.subgraphs))
            batches = sample_batches(
                generate(self.dataset),
                num_batches=math.ceil(self.subgraphs / per_batch),
                batch_size=per_batch,
                hops=3,
                fanout=DATASETS[self.dataset].fanout,
                concat=False,
                seed=self.seed + 1000,
            )
            self._jobs = [
                job
                for i, batch in enumerate(batches)
                for q, subgraph in enumerate(batch)
                for job in spmm_jobs(
                    subgraph, self.config, self.specs, prefix=f"b{1000 + i}/q{q}"
                )
            ]
        return self._jobs


@dataclass
class GNNWorkload:
    """One dataset's evaluation workload.

    ``training`` is the recipe of the predictor's held-out training
    set; :attr:`training_jobs` builds it on first read."""

    dataset: str
    specs: dict[MemoryKind, MemorySpec]
    system: MLIMPSystem
    batches: list[list[Subgraph]]
    jobs_per_batch: list[list[Job]]
    config: GCNConfig
    training: TrainingSet

    @property
    def training_jobs(self) -> list[Job]:
        return self.training.jobs

    @property
    def all_jobs(self) -> list[Job]:
        return [job for jobs in self.jobs_per_batch for job in jobs]

    @property
    def num_queries(self) -> int:
        return sum(len(s.query_nodes) for batch in self.batches for s in batch)

    def spmm_jobs(self) -> list[Job]:
        return [job for job in self.all_jobs if job.kernel == "spmm"]

    def host_others_seconds(self) -> float:
        return self.num_queries * HOST_OTHERS_PER_QUERY_S

    # ------------------------------------------------------------------
    def train_predictor(self, epochs: int = 250, seed: int = 0) -> MLPPredictor:
        """The paper's two-stage MLP, trained once per mother graph."""
        predictor = MLPPredictor(epochs=epochs, seed=seed)
        predictor.train(self.training_jobs)
        return predictor

    # ------------------------------------------------------------------
    def baseline_time(self, device: HostDevice) -> float:
        return sum(device.batch_time(jobs) for jobs in self.jobs_per_batch)

    def baseline_energy(self, device: HostDevice) -> float:
        return sum(device.batch_energy_j(jobs) for jobs in self.jobs_per_batch)

    def gpu_time(self) -> float:
        return self.baseline_time(TITAN_XP)

    def cpu_time(self) -> float:
        return self.baseline_time(XEON_E5_2697V3)


def add_kernel_busy(
    busy: dict[str, float], result: DispatchResult, jobs: list[Job]
) -> dict[str, float]:
    """Add each kernel's traced device time in ``result`` (one batch of
    ``jobs``) to ``busy``, row by row in trace order; returns ``busy``."""
    kernel_of = {job.job_id: job.kernel for job in jobs}
    columns = result.trace.columns
    for job_id, start, end in zip(columns.job_ids, columns.starts, columns.ends):
        kernel = kernel_of[job_id]
        busy[kernel] = busy.get(kernel, 0.0) + (end - start)
    return busy

@dataclass
class BatchRunSummary:
    """Aggregate of running every batch under one scheduler."""

    scheduler_name: str
    total_makespan: float
    results: list[DispatchResult]

    @property
    def energy(self) -> EnergyLedger:
        merged = EnergyLedger()
        for result in self.results:
            merged = merged.merge(result.energy)
        return merged

    def kernel_busy_seconds(self, jobs_per_batch: list[list[Job]]) -> dict[str, float]:
        """Total per-kernel device time (fill+replicate+compute)."""
        out: dict[str, float] = {}
        for jobs, result in zip(jobs_per_batch, self.results):
            add_kernel_busy(out, result, jobs)
        return out

    def memcpy_seconds(self) -> float:
        """Time spent in fill phases (the memcpy analog)."""
        return sum(
            sum(
                end - start
                for phase, start, end in zip(c.phases, c.starts, c.ends)
                if phase is Phase.FILL
            )
            for c in (result.trace.columns for result in self.results)
        )


def build_workload(
    dataset: str,
    num_batches: int = 4,
    batch_size: int = 64,
    scale: int = DEVICE_SCALE,
    seed: int = 3,
    training_subgraphs: int = 72,
) -> GNNWorkload:
    """Sample batches and lower them into MLIMP jobs.

    The predictor's ``training_subgraphs`` held-out subgraphs are only
    a recipe here: ``training_jobs`` samples and lowers them on first
    read."""
    spec = DATASETS[dataset]
    graph = generate(dataset)
    specs = scaled_specs(scale)
    system = MLIMPSystem(specs=specs)
    batches = sample_batches(
        graph,
        num_batches=num_batches,
        batch_size=batch_size,
        hops=3,
        fanout=spec.fanout,
        concat=spec.concat_subgraphs,
        seed=seed,
    )
    config = GCNConfig.three_layer(spec.feature_dim)
    jobs_per_batch = [
        batch_jobs(batch, config, specs, batch_id=i) for i, batch in enumerate(batches)
    ]
    return GNNWorkload(
        dataset=dataset,
        specs=specs,
        system=system,
        batches=batches,
        jobs_per_batch=jobs_per_batch,
        config=config,
        training=TrainingSet(
            dataset=dataset,
            specs=specs,
            config=config,
            batch_size=batch_size,
            seed=seed,
            subgraphs=training_subgraphs,
        ),
    )


def run_workload(
    workload: GNNWorkload,
    scheduler: Scheduler,
    jobs_per_batch: list[list[Job]] | None = None,
    predictor=None,
) -> BatchRunSummary:
    """Run every batch (batches are the scheduling unit, as in the
    paper's batched inference).

    ``predictor`` forwards to :meth:`Dispatcher.run`: an object with an
    ``on_completion`` hook (e.g. ``OnlinePredictor``) sees every
    completion across the whole batch sequence, so online learning
    carries over from batch to batch.
    """
    dispatcher = Dispatcher(workload.system)
    results = []
    batches = jobs_per_batch if jobs_per_batch is not None else workload.jobs_per_batch
    for jobs in batches:
        policy = scheduler.plan(jobs, workload.system)
        results.append(
            dispatcher.run(policy, label=scheduler.name, predictor=predictor)
        )
    return BatchRunSummary(
        scheduler_name=scheduler.name,
        total_makespan=sum(r.makespan for r in results),
        results=results,
    )
