"""repro: a reproduction of "Multi-Layer In-Memory Processing" (MICRO 2022).

Simulator and scheduler stack for systems with multiple in-memory
compute layers (SRAM LLC / DRAM / ReRAM).  See README.md for the
architecture tour and DESIGN.md for the paper-to-module map.

Subpackages
-----------
``repro.memories``   device models (Table III), allocator, Figure 1 data
``repro.isa``        SIMD-DFG frontend, lowering, cross-compiler
``repro.sim``        event engine, DDR4 pipe, energy, traces
``repro.kernels``    GEMM / SpMM / Vadd mappings
``repro.gnn``        graphs, OGB analogs, sampler, GCN job streams
``repro.apps``       Table II data-parallel applications and combos
``repro.core``       jobs, Eq. 1-3 model, predictors, schedulers, runtime
``repro.faults``     fault plans, injector, graceful degradation
``repro.obs``        metrics, trace analytics, decision rows, exporters
``repro.ml``         from-scratch MLP and gradient-boosted trees
``repro.baselines``  Xeon / Titan XP roofline models
``repro.harness``    per-figure experiment runners and ablations
"""

from . import (
    apps,
    baselines,
    core,
    faults,
    gnn,
    harness,
    isa,
    kernels,
    memories,
    ml,
    obs,
    sim,
)
from .core import (
    AdaptiveScheduler,
    Dispatcher,
    GlobalScheduler,
    Job,
    JobPerfProfile,
    LJFScheduler,
    MLIMPSystem,
    MLPPredictor,
    NoisyPredictor,
    OraclePredictor,
    oracle_makespan,
)
from .faults import FaultEvent, FaultKind, FaultPlan, RetryPolicy
from .memories import DEFAULT_SPECS, MemoryKind, MemorySpec

__version__ = "1.0.0"

__all__ = [
    "apps",
    "baselines",
    "core",
    "faults",
    "gnn",
    "harness",
    "isa",
    "kernels",
    "memories",
    "ml",
    "obs",
    "sim",
    "AdaptiveScheduler",
    "Dispatcher",
    "GlobalScheduler",
    "Job",
    "JobPerfProfile",
    "LJFScheduler",
    "MLIMPSystem",
    "MLPPredictor",
    "NoisyPredictor",
    "OraclePredictor",
    "oracle_makespan",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "RetryPolicy",
    "DEFAULT_SPECS",
    "MemoryKind",
    "MemorySpec",
    "__version__",
]
