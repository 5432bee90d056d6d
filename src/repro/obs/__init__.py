"""Observability for MLIMP runs: metrics, trace analytics, decision rows.

The paper's evaluation (Figs. 12-19) reasons about per-device
utilisation timelines, phase overlap and scheduler-vs-oracle gaps;
this package makes those quantities first-class for *every* run:

``repro.obs.metrics``    counters and gauges fed by the dispatcher
``repro.obs.analytics``  one sweep per device over the trace: utilisation,
                         bubbles, phase breakdown -> RunReport; the
                         per-job predicted-vs-actual decision rows and
                         the predictor-error summary folded from them
``repro.obs.export``     JSON / CSV dumps (also behind ``python -m repro trace``)

The package root re-exports the report types, ``build_report`` and
``decision_rows``, the metric types with ``nearest_rank`` and the
process-global runtime counters, and the exporters.  The trace itself
(:mod:`repro.sim.trace`) only stores rows; every derived number comes
from ``build_report``.
"""

from .analytics import DeviceReport, RunReport, build_report, decision_rows
from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    nearest_rank,
    reset_runtime_counters,
    runtime_counter_inc,
    runtime_counters,
    runtime_snapshot,
    runtime_state_set,
    runtime_states,
)
from .export import result_payload, trace_rows, write_results_json, write_trace_csv

__all__ = [
    "DeviceReport",
    "RunReport",
    "build_report",
    "decision_rows",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "nearest_rank",
    "reset_runtime_counters",
    "runtime_counter_inc",
    "runtime_counters",
    "runtime_snapshot",
    "runtime_state_set",
    "runtime_states",
    "result_payload",
    "trace_rows",
    "write_results_json",
    "write_trace_csv",
]
