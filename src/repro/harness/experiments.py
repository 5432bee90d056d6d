"""Experiment registry: one runner per table and figure of the paper.

Every function regenerates the rows/series of one published table or
figure as a :class:`~repro.harness.reporting.Report`.  Absolute
numbers differ from the paper (our substrate is a scaled simulator,
not the authors' testbed); the *shape* -- who wins, by what factor,
where crossovers fall -- is the reproduction target.  EXPERIMENTS.md
records paper-vs-measured for each.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from ..apps import APPLICATIONS, COMBOS, combo_jobs, make_app_jobs
from ..baselines import TITAN_XP, XEON_E5_2697V3
from ..core.dispatcher import Dispatcher
from ..core.job import Job, JobPerfProfile
from ..core.perfmodel import estimate_from_profile, fit_beta, knee_allocation
from ..core.predictor import (
    MLPPredictor,
    NaiveThresholdClassifier,
    NoisyPredictor,
    OraclePredictor,
    naive_metric,
)
from ..core.scheduler import (
    AdaptiveScheduler,
    GlobalScheduler,
    LJFScheduler,
    MLIMPSystem,
    oracle_makespan,
)
from ..gnn import DATASETS, dataset_names, generate, sample_batches
from ..memories import DEFAULT_SPECS, TECHNOLOGIES, MemoryKind, parallelism_rank
from ..ml import GradientBoostedTrees, r2_score, relative_rmse
from ..sim import EnergyCategory
from .config import DEVICE_SCALE, full_system, gnn_system, scaled_specs
from .gnn import (
    BASELINE_HOST_POWER_W,
    HOST_OTHERS_PER_QUERY_S,
    HOST_POWER_W,
    MLIMP_SYSTEM_POWER_W,
    GNNWorkload,
    add_kernel_busy,
    build_workload,
    run_workload,
)
from .reporting import Report

__all__ = [
    "table1_datasets",
    "table2_applications",
    "table3_configurations",
    "fig1_characteristics",
    "fig5_subgraph_distribution",
    "fig10_naive_metric",
    "fig11_kernel_speedup",
    "fig12_breakdown",
    "fig13_application_time",
    "fig14_energy",
    "fig15_scheduler_predictor",
    "fig16_oracle_fraction",
    "fig17_app_kernels",
    "fig18_multiprogramming",
    "fig19_combo_schedulers",
    "stress_noise_tolerance",
    "scalefree_fit",
    "predictor_accuracy",
    "EXPERIMENTS",
    "full_registry",
    "run_named_experiment",
    "run_experiment_grid",
]

_WORKLOAD_CACHE: dict[tuple, GNNWorkload] = {}


def _workload(dataset: str, num_batches: int = 3, seed: int = 3) -> GNNWorkload:
    key = (dataset, num_batches, seed)
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = build_workload(
            dataset, num_batches=num_batches, seed=seed
        )
    return _WORKLOAD_CACHE[key]


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ======================================================================
# Tables
# ======================================================================
def table1_datasets() -> Report:
    """Table I: dataset details (paper graphs and scaled analogs)."""
    report = Report(
        title="Table I -- Dataset details (paper -> synthetic analog)",
        columns=[
            "dataset", "paper_vertices", "paper_edges", "feature/hidden",
            "analog_nodes", "analog_arcs", "analog_avg_deg", "scale", "concat",
        ],
    )
    for name in dataset_names():
        spec = DATASETS[name]
        graph = generate(name)
        report.add_row(
            name,
            spec.paper_vertices,
            spec.paper_edges,
            f"{spec.feature_dim}/{spec.hidden_dim}",
            graph.num_nodes,
            graph.num_edges,
            round(graph.avg_degree(), 1),
            f"{spec.scale_factor:.0f}x",
            "yes" if spec.concat_subgraphs else "no",
        )
    report.note("analog graphs keep the paper's average-degree ratios")
    return report


def table2_applications() -> Report:
    """Table II: data-parallel applications and combination columns."""
    report = Report(
        title="Table II -- Data-parallel applications",
        columns=["application", "domain", "jobs", "elements", "combos"],
    )
    for name, app in APPLICATIONS.items():
        combos = "".join(c for c, members in COMBOS.items() if name in members)
        report.add_row(
            name, app.domain, app.num_jobs, app.total_elements, combos or "-"
        )
    return report


def table3_configurations() -> Report:
    """Table III: MLIMP device configurations (must match exactly)."""
    report = Report(
        title="Table III -- MLIMP configurations",
        columns=[
            "memory", "array", "#arrays", "MB/mm2", "MHz", "#ALUs",
            "cyc/op(2)", "MOPS(2)", "MOPS(4)",
        ],
    )
    for kind, spec in DEFAULT_SPECS.items():
        g = spec.geometry
        report.add_row(
            kind.value,
            f"{g.rows}x{g.cols}" + (f"x{g.bits_per_cell}b" if g.bits_per_cell > 1 else ""),
            spec.num_arrays,
            spec.mb_per_mm2,
            int(spec.clock_mhz),
            f"{spec.total_alus / 1e6:.2f}M",
            spec.mac_cycles_2op,
            round(spec.mac_mops(2), 3),
            round(spec.mac_mops(4), 3),
        )
    return report


# ======================================================================
# Figures -- motivation
# ======================================================================
def fig1_characteristics() -> Report:
    """Figure 1: energy/latency/parallelism of memory technologies."""
    report = Report(
        title="Figure 1 -- Memory technology characteristics",
        columns=[
            "technology", "read_pJ/bit", "write_pJ/bit", "read_ns",
            "cell_F2", "rows/SA", "parallelism(vs SRAM)",
        ],
    )
    rank = dict(parallelism_rank())
    for name, profile in TECHNOLOGIES.items():
        report.add_row(
            name,
            profile.read_energy_pj_per_bit,
            profile.write_energy_pj_per_bit,
            profile.read_latency_ns,
            profile.cell_size_f2,
            profile.rows_per_sa,
            round(rank[name], 3),
        )
    report.note(
        "small cells do not imply parallelism: DRAM/NAND share one SA "
        "across many rows (paper II-A)"
    )
    return report


def fig5_subgraph_distribution(dataset: str = "citation") -> Report:
    """Figure 5: node distribution of 3-hop subgraphs."""
    spec = DATASETS[dataset]
    graph = generate(dataset)
    batches = sample_batches(
        graph, num_batches=10, batch_size=64, hops=3, fanout=spec.fanout, seed=5
    )
    sizes = sorted(s.num_nodes for batch in batches for s in batch)
    report = Report(
        title=f"Figure 5 -- 3-hop subgraph node distribution ({dataset})",
        columns=["percentile", "num_nodes"],
    )
    for pct in (1, 10, 25, 50, 75, 90, 99, 100):
        report.add_row(f"p{pct}", int(np.percentile(sizes, pct)))
    spread = max(sizes) / max(1, np.percentile(sizes, 10))
    report.note(f"{len(sizes)} subgraphs; max/p10 spread = {spread:.1f}x")
    report.note("heavy-tailed sizes are the workload dynamism motivating MLIMP")
    return report


# ======================================================================
# Figures -- GNN evaluation
# ======================================================================
def fig10_naive_metric() -> Report:
    """Figure 10: the naive nnz/H_128 classifier and its borderline
    misclassifications."""
    from ..gnn import NeighborSampler, barabasi_albert, extract_metadata
    from ..kernels import make_spmm_job

    jobs: list[Job] = []
    for m in (2, 8, 30, 80, 150):
        graph = barabasi_albert(400, m, seed=m)
        sampler = NeighborSampler(graph, hops=2, fanout=(20, 10), seed=m)
        for i, query in enumerate((3, 77, 200, 333, 365)):
            sub = sampler.sample(query)
            jobs.append(
                make_spmm_job(
                    f"d{m}-{i}", sub.graph, 128, DEFAULT_SPECS,
                    metadata=extract_metadata(sub, 128),
                )
            )
    metrics = np.asarray([naive_metric(j) for j in jobs])
    ratios = np.asarray(
        [
            j.profile(MemoryKind.SRAM).t_compute_unit
            / j.profile(MemoryKind.RERAM).t_compute_unit
            for j in jobs
        ]
    )
    labels = ratios > 1.0
    clf = NaiveThresholdClassifier().fit(metrics, labels)
    order = np.argsort(metrics)
    report = Report(
        title="Figure 10 -- naive nnz/H_128 metric vs memory preference",
        columns=["metric nnz/H_128", "t_SRAM/t_ReRAM", "ReRAM preferred"],
    )
    for idx in order[:: max(1, len(order) // 12)]:
        report.add_row(
            round(float(metrics[idx]), 1),
            round(float(ratios[idx]), 2),
            "yes" if labels[idx] else "no",
        )
    accuracy = clf.accuracy(metrics, labels)
    correlation = float(np.corrcoef(metrics, np.log(ratios))[0, 1])
    report.note(f"threshold (red line) = {clf.threshold:.1f}")
    report.note(f"threshold accuracy = {accuracy:.2f} (borderline jobs misclassified)")
    report.note(f"log-ratio correlation = {correlation:.2f}")
    return report


def fig11_kernel_speedup(dataset: str = "citation") -> Report:
    """Figure 11: per-kernel speedup of MLIMP over the GPU.

    Per batch, the GPU's per-kernel time (roofline + launch + its
    share of PCIe transfer) is compared against MLIMP's attributed
    share of the batch makespan (device-busy-time weighted) -- an
    aggregate-throughput comparison, since single scaled-down kernels
    are dominated by fixed overheads on both sides.
    """
    workload = _workload(dataset)
    summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
    speedups: dict[str, list[float]] = {"gemm": [], "spmm": [], "vadd": []}
    for jobs, result in zip(workload.jobs_per_batch, summary.results):
        busy = add_kernel_busy({}, result, jobs)
        total_busy = sum(busy.values()) or 1.0
        for kernel in speedups:
            gpu = sum(
                TITAN_XP.job_time(job) for job in jobs if job.kernel == kernel
            )
            attributed = result.makespan * busy.get(kernel, 0.0) / total_busy
            if attributed > 0 and gpu > 0:
                speedups[kernel].append(gpu / attributed)
    report = Report(
        title=f"Figure 11 -- kernel speedup over GPU ({dataset})",
        columns=["kernel", "p25", "median", "p75", "mean"],
    )
    for kernel in ("gemm", "spmm", "vadd"):
        values = speedups[kernel]
        report.add_row(
            kernel,
            round(float(np.percentile(values, 25)), 2),
            round(float(np.percentile(values, 50)), 2),
            round(float(np.percentile(values, 75)), 2),
            round(float(np.mean(values)), 2),
        )
    report.note("paper means: GEMM 4.07x, SpMM 3.40x, Vadd 1.82x")
    return report


def fig12_breakdown(dataset: str = "citation") -> Report:
    """Figure 12: execution-time breakdown per device mixture."""
    workload = _workload(dataset)
    predictor = OraclePredictor()
    mixtures: list[tuple[str, list[MemoryKind] | None]] = [
        ("SRAM", [MemoryKind.SRAM]),
        ("DRAM", [MemoryKind.DRAM]),
        ("ReRAM", [MemoryKind.RERAM]),
        ("SRAM+DRAM", [MemoryKind.SRAM, MemoryKind.DRAM]),
        ("SRAM+ReRAM", [MemoryKind.SRAM, MemoryKind.RERAM]),
        ("All", list(MemoryKind)),
    ]
    report = Report(
        title=f"Figure 12 -- execution time breakdown ({dataset})",
        columns=["system", "total", "spmm", "gemm", "vadd", "memcpy"],
    )
    # Host baselines first: per-kernel roofline sums; memcpy = PCIe.
    for label, device in (("CPU", XEON_E5_2697V3), ("GPU", TITAN_XP)):
        per_kernel: dict[str, float] = {"spmm": 0.0, "gemm": 0.0, "vadd": 0.0}
        transfer = 0.0
        for job in workload.all_jobs:
            per_kernel[job.kernel] += device.kernel_time(job)
            transfer += device.transfer_time(job)
        total = sum(per_kernel.values()) + transfer
        report.add_row(
            label, total, per_kernel["spmm"], per_kernel["gemm"],
            per_kernel["vadd"], transfer,
        )
    for label, kinds in mixtures:
        system = gnn_system(kinds=kinds)
        workload_view = GNNWorkload(
            dataset=workload.dataset,
            specs={k: workload.specs[k] for k in kinds},
            system=system,
            batches=workload.batches,
            jobs_per_batch=workload.jobs_per_batch,
            config=workload.config,
            training=workload.training,
        )
        summary = run_workload(workload_view, GlobalScheduler(predictor))
        busy = summary.kernel_busy_seconds(workload.jobs_per_batch)
        total_busy = sum(busy.values()) or 1.0
        total = summary.total_makespan
        report.add_row(
            label,
            total,
            total * busy.get("spmm", 0.0) / total_busy,
            total * busy.get("gemm", 0.0) / total_busy,
            total * busy.get("vadd", 0.0) / total_busy,
            summary.memcpy_seconds(),
        )
    report.note(
        "in-memory rows: kernel columns are the makespan attributed by "
        "device-busy share; memcpy is the (overlapped) fill-phase time"
    )
    report.note("SpMM dominates; SRAM+ReRAM lands close to All (paper V-B1)")
    return report


def fig13_application_time(datasets: list[str] | None = None) -> Report:
    """Figure 13: application time per input graph vs GPU and CPU."""
    chosen = datasets or dataset_names()
    report = Report(
        title="Figure 13 -- application time (normalised to GPU+CPU baseline)",
        columns=["dataset", "mlimp", "gpu", "cpu", "speedup_vs_gpu", "speedup_vs_cpu"],
    )
    gpu_speedups, cpu_speedups = [], []
    for name in chosen:
        workload = _workload(name)
        others = workload.host_others_seconds()
        summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
        mlimp = summary.total_makespan + others
        gpu = workload.gpu_time() + others
        cpu = workload.cpu_time() + others
        gpu_speedups.append(gpu / mlimp)
        cpu_speedups.append(cpu / mlimp)
        report.add_row(
            name, mlimp, gpu, cpu, round(gpu / mlimp, 2), round(cpu / mlimp, 1)
        )
    report.note(
        f"geomean speedup vs GPU = {_geomean(gpu_speedups):.2f}x (paper 4.80x)"
    )
    report.note(
        f"geomean speedup vs CPU = {_geomean(cpu_speedups):.0f}x (paper 241x)"
    )
    return report


def fig14_energy(datasets: list[str] | None = None) -> Report:
    """Figure 14: energy of GNN inference, MLIMP vs GPU vs CPU."""
    chosen = datasets or dataset_names()
    report = Report(
        title="Figure 14 -- GNN energy (J)",
        columns=["dataset", "mlimp_J", "gpu_J", "cpu_J", "gpu/mlimp"],
    )
    ratios = []
    for name in chosen:
        workload = _workload(name)
        summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
        # Whole-system energies: dynamic in-memory ops plus wall power
        # over the run (the paper measures RAPL/nvprof system power).
        mlimp_time = summary.total_makespan + workload.host_others_seconds()
        mlimp = summary.energy.total() + MLIMP_SYSTEM_POWER_W * mlimp_time
        gpu_time = workload.gpu_time() + workload.host_others_seconds()
        gpu = workload.baseline_energy(TITAN_XP) + BASELINE_HOST_POWER_W * gpu_time
        cpu_time = workload.cpu_time() + workload.host_others_seconds()
        cpu = workload.baseline_energy(XEON_E5_2697V3) + 60.0 * cpu_time  # DRAM power
        ratios.append(gpu / mlimp)
        report.add_row(name, mlimp, gpu, cpu, round(gpu / mlimp, 2))
    report.note(
        f"geomean energy efficiency vs GPU = {_geomean(ratios):.2f}x (paper 5.02x)"
    )
    return report


def fig15_scheduler_predictor(
    dataset: str = "citation", mlp: MLPPredictor | None = None
) -> Report:
    """Figure 15: SpMM time under scheduler x predictor combinations.

    ``mlp`` accepts a pre-trained predictor so callers timing the
    scheduler sweep (``repro bench``) can keep training out of the
    measured region; by default one is trained here.
    """
    workload = _workload(dataset)
    spmm_per_batch = [
        [job for job in jobs if job.kernel == "spmm"]
        for jobs in workload.jobs_per_batch
    ]
    if mlp is None:
        mlp = workload.train_predictor()
    predictors = [("oracle", OraclePredictor()), ("mlp", mlp)]
    report = Report(
        title=f"Figure 15 -- SpMM execution time by scheduler/predictor ({dataset})",
        columns=["scheduler", "predictor", "total_time", "vs_best"],
    )
    results = {}
    for pname, predictor in predictors:
        # The paper's Fig. 15 compares the adaptive and global
        # schedulers (the LJF baseline appears in Fig. 16).
        for scheduler in (
            AdaptiveScheduler(predictor),
            GlobalScheduler(predictor),
        ):
            summary = run_workload(workload, scheduler, jobs_per_batch=spmm_per_batch)
            results[(scheduler.name, pname)] = summary.total_makespan
    best = min(results.values())
    for (sname, pname), total in results.items():
        report.add_row(sname, pname, total, round(total / best, 3))
    gap = results[("global", "mlp")] / results[("global", "oracle")]
    report.note(f"global: MLP-vs-oracle gap = {(gap - 1) * 100:.1f}% (paper: <1%)")
    return report


def fig16_oracle_fraction(datasets: list[str] | None = None) -> Report:
    """Figure 16: fraction of the oracle throughput achieved."""
    chosen = datasets or dataset_names()
    report = Report(
        title="Figure 16 -- fraction of oracle throughput",
        columns=["dataset", "oracle", "naive_ljf", "mlimp_global", "naive_frac", "mlimp_frac"],
    )
    naive_fracs, mlimp_fracs = [], []
    for name in chosen:
        workload = _workload(name)
        # Scheduling operates on the whole job queue: batches arrive
        # together, and the oracle's fluid bound is only meaningful
        # with a deep queue (concat datasets emit few jobs per batch).
        queue = [workload.all_jobs]
        oracle = oracle_makespan(workload.all_jobs, workload.system)
        naive = run_workload(
            workload, LJFScheduler(OraclePredictor()), jobs_per_batch=queue
        ).total_makespan
        mlimp = run_workload(
            workload, GlobalScheduler(OraclePredictor()), jobs_per_batch=queue
        ).total_makespan
        naive_fracs.append(oracle / naive)
        mlimp_fracs.append(oracle / mlimp)
        report.add_row(
            name, oracle, naive, mlimp,
            round(oracle / naive, 2), round(oracle / mlimp, 2),
        )
    report.note(
        f"mean fractions: naive = {statistics.mean(naive_fracs):.2f} (paper 0.34), "
        f"MLIMP = {statistics.mean(mlimp_fracs):.2f} (paper 0.77)"
    )
    return report


# ======================================================================
# Figures -- data-parallel applications
# ======================================================================
def fig17_app_kernels() -> Report:
    """Figure 17: kernel execution time per memory, normalised to best."""
    report = Report(
        title="Figure 17 -- app kernel time per memory (normalised to min)",
        columns=["application", "sram", "dram", "reram", "preferred"],
    )
    for name, app in APPLICATIONS.items():
        job = make_app_jobs(app, DEFAULT_SPECS)[0]
        times = {}
        for kind, spec in DEFAULT_SPECS.items():
            profile = job.profile(kind)
            estimate = estimate_from_profile(profile)
            knee = knee_allocation(
                estimate, max(profile.unit_arrays, spec.num_arrays // 4)
            )
            times[kind] = profile.total_time(knee)
        best = min(times.values())
        report.add_row(
            name,
            round(times[MemoryKind.SRAM] / best, 2),
            round(times[MemoryKind.DRAM] / best, 2),
            round(times[MemoryKind.RERAM] / best, 2),
            min(times, key=times.get).value,  # type: ignore[arg-type]
        )
    report.note(
        "preferences split across all three memories: compute-dense -> SRAM, "
        "dot-product -> ReRAM, bulk-bitwise/large data -> DRAM"
    )
    return report


def fig18_multiprogramming() -> Report:
    """Figure 18: multiprogramming combos, MLIMP vs single layers."""
    predictor = OraclePredictor()
    report = Report(
        title="Figure 18 -- multiprogramming execution time (ms)",
        columns=["combo", "ALL", "sram_only", "dram_only", "reram_only", "best_single/ALL"],
    )
    ratios = []
    for combo in COMBOS:
        times = {}
        for label, kinds in [("ALL", list(MemoryKind))] + [
            (k.value, [k]) for k in MemoryKind
        ]:
            system = full_system(kinds)
            specs = {k: DEFAULT_SPECS[k] for k in kinds}
            jobs = combo_jobs(combo, specs)
            result = Dispatcher(system).run(
                GlobalScheduler(predictor).plan(jobs, system)
            )
            times[label] = result.makespan
        best_single = min(times[k] for k in ("sram", "dram", "reram"))
        ratios.append(best_single / times["ALL"])
        report.add_row(
            combo,
            round(times["ALL"] * 1e3, 2),
            round(times["sram"] * 1e3, 2),
            round(times["dram"] * 1e3, 2),
            round(times["reram"] * 1e3, 2),
            round(best_single / times["ALL"], 2),
        )
    report.note(
        f"geomean speedup over best single layer = {_geomean(ratios):.1f}x "
        "(paper: 7.1x over single-layer IMP)"
    )
    return report


def fig19_combo_schedulers(combos=None) -> Report:
    """Figure 19: scheduling approaches on the multiprogramming combos.

    ``combos`` restricts the run to a subset of the Table II columns
    (``repro bench --quick`` uses this); default is all of them.
    """
    predictor = OraclePredictor()
    system = full_system()
    chosen = list(combos) if combos is not None else list(COMBOS)
    report = Report(
        title="Figure 19 -- combo execution time by scheduler (ms)",
        columns=["combo", "ljf", "adaptive", "global", "global_wins"],
    )
    global_best = 0
    for combo in chosen:
        jobs = combo_jobs(combo, DEFAULT_SPECS)
        times = {}
        for scheduler in (
            LJFScheduler(predictor),
            AdaptiveScheduler(predictor),
            GlobalScheduler(predictor),
        ):
            result = Dispatcher(system).run(scheduler.plan(jobs, system))
            times[scheduler.name] = result.makespan
        wins = times["global"] <= min(times.values()) * 1.02
        global_best += wins
        report.add_row(
            combo,
            round(times["ljf"] * 1e3, 2),
            round(times["adaptive"] * 1e3, 2),
            round(times["global"] * 1e3, 2),
            "yes" if wins else "no",
        )
    report.note(
        f"global within 2% of best on {global_best}/{len(chosen)} combos "
        "(deterministic kernel times favour global scheduling, paper V-C)"
    )
    return report


# ======================================================================
# Section V-B3 stress test and model-fit experiments
# ======================================================================
def _pareto_jobs(count: int, seed: int, kinds: list[MemoryKind]) -> list[Job]:
    """Synthetic jobs with Pareto (scale-free) execution times."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(count):
        base = 1e-5 * (1.0 + rng.pareto(2.0))
        # Bigger jobs expose proportionally more replication
        # parallelism (more input rows to split across replicas).
        waves = int(np.clip(base / 1e-5 * 8, 8, 256))
        profiles = {}
        for kind in kinds:
            skew = float(rng.uniform(0.6, 1.7))
            # Compute-pure jobs: the stress test isolates the effect of
            # *compute-time* misprediction, so loads are zeroed (a
            # non-zero t_load inconsistent with fill_bytes would bake
            # plan-vs-runtime drift into the sigma = 0 baseline).
            profiles[kind] = JobPerfProfile(
                unit_arrays=int(rng.integers(2, 9)),
                t_load=0.0,
                t_replica_unit=base * 0.005,
                t_compute_unit=base * skew,
                waves_unit=waves,
                fill_bytes=0.0,
                compute_energy_j=1e-9,
            )
        jobs.append(Job(job_id=f"p{i}", kernel="app", profiles=profiles))
    return jobs


def stress_noise_tolerance(
    sigmas=(0.0, 0.1, 0.25, 0.39, 0.6, 0.9),
    batch_sizes=(64, 16),
    seeds=tuple(range(8)),
) -> Report:
    """Section V-B3: predictor-noise tolerance of adaptive vs global.

    Pareto-distributed synthetic jobs; Gaussian noise of width sigma on
    the predictor's log estimate.  The paper finds adaptive overtakes
    global above sigma ~ 0.39 (0.25 at batch size 16).
    """
    system = gnn_system()
    dispatcher = Dispatcher(system)
    report = Report(
        title="Stress test -- scheduler tolerance to predictor noise",
        columns=["batch_size", "sigma", "adaptive", "global", "adaptive_wins"],
    )
    crossovers = {}
    for batch_size in batch_sizes:
        for sigma in sigmas:
            adaptive_total = global_total = 0.0
            for seed in seeds:
                jobs = _pareto_jobs(batch_size, seed, system.kinds)
                noisy = NoisyPredictor(OraclePredictor(), sigma=sigma, seed=seed)
                adaptive_total += dispatcher.run(
                    AdaptiveScheduler(noisy).plan(jobs, system)
                ).makespan
                global_total += dispatcher.run(
                    GlobalScheduler(noisy).plan(jobs, system)
                ).makespan
            wins = adaptive_total < global_total
            if wins and batch_size not in crossovers:
                crossovers[batch_size] = sigma
            report.add_row(
                batch_size, sigma, adaptive_total, global_total,
                "yes" if wins else "no",
            )
    for batch_size, sigma in crossovers.items():
        report.note(
            f"batch {batch_size}: adaptive first wins at sigma = {sigma} "
            f"(paper: ~0.39 at batch 64, ~0.25 at batch 16)"
        )
    return report


def scalefree_fit(dataset: str = "citation") -> Report:
    """III-C3: scale-free model fit quality on SpMM scaling curves."""
    workload = _workload(dataset)
    r2_values = []
    betas = []
    for job in workload.spmm_jobs()[:64]:
        profile = job.profile(MemoryKind.SRAM)
        max_replicas = min(16, profile.waves_unit)
        if max_replicas < 3:
            continue
        replicas = np.unique(
            np.round(np.geomspace(1, max_replicas, 8)).astype(int)
        )
        arrays = replicas * profile.unit_arrays
        times = [profile.compute_time(int(a)) for a in arrays]
        if min(times) <= 0:
            continue
        beta, r2 = fit_beta(arrays, times)
        betas.append(beta)
        r2_values.append(r2)
    report = Report(
        title=f"Scale-free model fit on SpMM scaling curves ({dataset})",
        columns=["statistic", "value"],
    )
    report.add_row("jobs fitted", len(r2_values))
    report.add_row("median R^2", round(statistics.median(r2_values), 4))
    report.add_row("min R^2", round(min(r2_values), 4))
    report.add_row("median beta", round(statistics.median(betas), 3))
    report.note("paper: median R^2 of 0.998 on OGB SpMM kernels")
    return report


def predictor_accuracy(dataset: str = "citation") -> Report:
    """III-E: MLP predictor accuracy, with the GBT comparison."""
    workload = _workload(dataset)
    mlp = workload.train_predictor()
    test_jobs = workload.spmm_jobs()
    report = Report(
        title=f"Performance predictor accuracy ({dataset})",
        columns=["model", "memory", "R^2", "RMSE/mean", "parameters"],
    )
    gbt_features, gbt_targets = {}, {}
    for kind in (MemoryKind.SRAM, MemoryKind.RERAM):
        truth = [j.profile(kind).t_compute_unit for j in test_jobs]
        pred = [mlp.predict_unit_compute(j, kind) for j in test_jobs]
        n_params = (
            mlp._hw_model.n_parameters  # noqa: SLF001 - report internals
            + mlp._cycle_models[kind].n_parameters
        )
        report.add_row(
            "mlp(16,8)", kind.value,
            round(r2_score(truth, pred), 4),
            round(relative_rmse(truth, pred), 3),
            n_params,
        )
        # GBT comparison on the same features.
        X_train = np.asarray(
            [
                np.log1p(j.metadata.as_features(j.tags["strip_width"][kind]))
                for j in workload.training_jobs
            ]
        )
        y_train = np.asarray(
            [np.log(j.profile(kind).t_compute_unit) for j in workload.training_jobs]
        )
        gbt = GradientBoostedTrees(n_estimators=150, max_depth=4).fit(X_train, y_train)
        X_test = np.asarray(
            [
                np.log1p(j.metadata.as_features(j.tags["strip_width"][kind]))
                for j in test_jobs
            ]
        )
        gbt_pred = np.exp(gbt.predict(X_test))
        report.add_row(
            "gbt(150x4)", kind.value,
            round(r2_score(truth, gbt_pred), 4),
            round(relative_rmse(truth, gbt_pred), 3),
            gbt.n_parameters,
        )
    report.note("paper: R^2 0.995, RMSE ~22% of mean; GBT up to 2x better RMSE "
                "at far higher storage cost")
    return report


# ======================================================================
# Parallel experiment grid
# ======================================================================
def full_registry() -> dict:
    """Every runnable experiment: the figure/table registry plus the
    ablations under ``ablation-<name>`` plus the open-system serving,
    predictor-lifecycle and cluster-scale runs (the CLI's namespace)."""
    from .ablations import ABLATIONS
    from .cluster import CLUSTER_EXPERIMENTS
    from .optgap import OPTGAP_EXPERIMENTS
    from .predictor import LIFECYCLE_EXPERIMENTS
    from .replay import REPLAY_EXPERIMENTS
    from .serving import SERVING_EXPERIMENTS

    registry = dict(EXPERIMENTS)
    registry.update({f"ablation-{name}": fn for name, fn in ABLATIONS.items()})
    registry.update(SERVING_EXPERIMENTS)
    registry.update(LIFECYCLE_EXPERIMENTS)
    registry.update(CLUSTER_EXPERIMENTS)
    registry.update(OPTGAP_EXPERIMENTS)
    registry.update(REPLAY_EXPERIMENTS)
    return registry


def run_named_experiment(name: str) -> Report:
    """Resolve and run one experiment from :func:`full_registry`.

    Module-level (not a closure) so :class:`ProcessPoolExecutor`
    workers can pickle it by reference.
    """
    registry = full_registry()
    try:
        runner = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; see 'python -m repro list'"
        ) from None
    return runner()


def run_experiment_grid(
    names,
    max_workers: int | None = None,
    parallel: bool = True,
) -> list[tuple[str, Report]]:
    """Run a grid of experiments, optionally sharded across worker
    processes, returning ``(name, Report)`` pairs in input order.

    Every experiment pins its own seeds (dataset generation, sampling
    and the noisy predictor are all explicitly seeded), and worker
    processes never share mutable state, so the parallel output is
    byte-identical to the serial path -- the JSON of each result's
    ``Report.to_json_dict()`` matches regardless of ``max_workers``.
    With ``parallel`` false, one name, or ``max_workers <= 1``,
    everything runs in-process (which also keeps the per-process
    workload/knee caches warm across grid entries).
    """
    names = list(names)
    registry = full_registry()
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown experiments: {', '.join(unknown)}")
    if (
        not parallel
        or len(names) <= 1
        or (max_workers is not None and max_workers <= 1)
    ):
        return [(name, run_named_experiment(name)) for name in names]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        # pool.map preserves input order no matter which worker
        # finishes first.
        return list(zip(names, pool.map(run_named_experiment, names)))


#: Registry used by the benchmark harness.
EXPERIMENTS = {
    "table1": table1_datasets,
    "table2": table2_applications,
    "table3": table3_configurations,
    "fig1": fig1_characteristics,
    "fig5": fig5_subgraph_distribution,
    "fig10": fig10_naive_metric,
    "fig11": fig11_kernel_speedup,
    "fig12": fig12_breakdown,
    "fig13": fig13_application_time,
    "fig14": fig14_energy,
    "fig15": fig15_scheduler_predictor,
    "fig16": fig16_oracle_fraction,
    "fig17": fig17_app_kernels,
    "fig18": fig18_multiprogramming,
    "fig19": fig19_combo_schedulers,
    "stress": stress_noise_tolerance,
    "scalefree": scalefree_fit,
    "predictor": predictor_accuracy,
}
