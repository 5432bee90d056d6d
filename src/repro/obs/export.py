"""JSON / CSV exporters for dispatch runs.

One :func:`result_payload` dict per run -- the derived report, the
raw trace timeline, the decision rows and the metrics snapshot --
written by :func:`write_results_json` (:func:`result_summary` is the
same dict with the timeline and decision rows folded to row counts
and digests, what cluster nodes ship back); :func:`write_trace_csv` dumps
the flat per-phase timeline for spreadsheet/Perfetto-style analysis.
Both accept a single :class:`~repro.core.dispatcher.DispatchResult`
or a list of them (multi-batch runs), tagging each row with its run
index.

Usage::

    from repro.obs import write_results_json, write_trace_csv

    result = runtime.run()
    write_results_json(result, "runs.json")   # report + timeline + decisions
    write_trace_csv(result, "trace.csv")      # run,job_id,device,phase,start,...

    # Multi-batch: pass the list; rows carry their run index.
    write_results_json(summary.results, "epoch.json")

The same artifacts are available from the CLI::

    python -m repro trace collab --json runs.json --csv trace.csv
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from .analytics import build_report, decision_rows

__all__ = [
    "trace_rows",
    "result_payload",
    "result_summary",
    "write_results_json",
    "write_trace_csv",
]

_CSV_COLUMNS = ["run", "job_id", "device", "phase", "start", "end", "duration", "arrays"]


def trace_rows(result, run: int = 0) -> list[dict]:
    """Flat timeline rows for one run's trace."""
    return [
        {
            "run": run,
            "job_id": job_id,
            "device": device,
            "phase": phase.value,
            "start": start,
            "end": end,
            "duration": end - start,
            "arrays": arrays,
        }
        for job_id, device, phase, start, end, arrays in zip(*result.trace.columns)
    ]


def result_payload(result, run: int = 0) -> dict:
    """Everything one run produced, as JSON-ready data."""
    metrics = getattr(result, "metrics", None)
    return {
        "run": run,
        "scheduler": result.scheduler_name,
        "makespan": result.makespan,
        "report": build_report(result).as_dict(),
        "trace": trace_rows(result, run),
        "decisions": decision_rows(result),
        "metrics": (
            metrics.snapshot(result.makespan) if metrics is not None else None
        ),
        "energy_j": result.energy.total(),
        "faults": getattr(result, "fault_summary", None),
        "failed_jobs": dict(getattr(result, "failed_jobs", {}) or {}),
    }


def result_summary(result) -> dict:
    """:func:`result_payload` without its per-row lists.

    ``trace`` and ``decisions`` -- the two fields that grow with the
    job count -- are replaced by ``<field>_rows`` (the row count) and
    ``<field>_sha256`` (the sha256 of the list's canonical JSON: sorted
    keys, compact separators); every other field is kept as is.  Two
    runs with equal summaries produced byte-identical rows.
    """
    payload = result_payload(result)
    for name in ("trace", "decisions"):
        rows = payload.pop(name)
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        payload[f"{name}_rows"] = len(rows)
        payload[f"{name}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return payload


def _as_results(results) -> list:
    return list(results) if isinstance(results, (list, tuple)) else [results]


def write_results_json(results, path: str | Path) -> Path:
    """Write one or several runs to ``path`` as a JSON document."""
    path = Path(path)
    runs = [result_payload(r, i) for i, r in enumerate(_as_results(results))]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True))
    return path

def write_trace_csv(results, path: str | Path) -> Path:
    """Write the flat phase timeline of one or several runs as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for run, result in enumerate(_as_results(results)):
            writer.writerows(trace_rows(result, run))
    return path
