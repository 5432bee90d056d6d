"""Experiment harness: configuration, workloads, and per-figure runners."""

from .config import DEVICE_SCALE, full_system, gnn_system, scaled_specs
from .experiments import EXPERIMENTS
from .gnn import BatchRunSummary, GNNWorkload, build_workload, run_workload
from .reporting import Report, fmt_time

__all__ = [
    "DEVICE_SCALE",
    "full_system",
    "gnn_system",
    "scaled_specs",
    "EXPERIMENTS",
    "BatchRunSummary",
    "GNNWorkload",
    "build_workload",
    "run_workload",
    "Report",
    "fmt_time",
]
