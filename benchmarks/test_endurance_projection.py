"""Extension: ReRAM endurance projection under the GNN workload.

The paper flags NVM endurance as a first-order constraint (II-A) but
does not quantify it; this bench does, using the dispatcher's actual
write traffic.
"""

from repro.core import GlobalScheduler, OraclePredictor
from repro.harness import Report, build_workload, run_workload
from repro.memories import TECHNOLOGIES, MemoryKind
from repro.memories.endurance import WearTracker


def endurance_projection() -> Report:
    workload = build_workload("citation", num_batches=3, seed=3)
    summary = run_workload(workload, GlobalScheduler(OraclePredictor()))
    report = Report(
        title="Extension -- endurance under sustained GNN inference",
        columns=["memory", "endurance", "written_MB", "sustained_lifetime"],
    )
    for kind in (MemoryKind.RERAM, MemoryKind.SRAM):
        tracker = WearTracker(
            spec=workload.specs[kind],
            endurance_writes=TECHNOLOGIES[
                "ReRAM" if kind is MemoryKind.RERAM else "SRAM"
            ].endurance_writes,
        )
        for result in summary.results:
            tracker.record_result(result)
        seconds = tracker.projected_lifetime_seconds()
        pretty = (
            f"{seconds / 3600:.1f} hours" if seconds < 1e7 else f"{seconds / 3.156e7:.0f}+ years"
        )
        report.add_row(
            kind.value,
            f"{tracker.endurance_writes:.0e}",
            round(tracker.written_bytes / 1e6, 2),
            pretty,
        )
    report.note(
        "sustained full-duty SpMM fills are endurance-bound on ReRAM -- "
        "the II-A constraint, quantified; SRAM is unconstrained"
    )
    return report


def test_endurance_projection(run_report):
    report = run_report(endurance_projection)
    rows = report.as_dict()
    assert "hours" in rows["reram"]["sustained_lifetime"]
    assert "years" in rows["sram"]["sustained_lifetime"]
