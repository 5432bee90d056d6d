#!/usr/bin/env python3
"""Fail when a ``def`` or ``class`` in ``src/repro`` is referenced nowhere
in ``src/repro`` apart from its own definition.

The check is static and by name, in the spirit of ``vulture``: every
identifier a module reads (a bare name, an attribute, or a string
constant that is a valid identifier, as in ``getattr`` tables) counts
as a reference to every definition of that name -- except that a
method is only reached through an attribute or a string, so a bare
name (a local variable, a function of the same name) does not count
for it.  Three things do not count: the definition's own body
(recursion), an ``import`` (a re-export is not a use), and the
strings of an ``__all__`` list.
Dunder methods are exempt, since Python calls them implicitly.

A definition that only the outside of the package reaches -- the
benchmark, an example, a paper-claim test -- or that exists to keep an
interface whole is named in :data:`ALLOWED` with the reason it stays.
An entry that no longer names an unreferenced definition is reported
too, so the list cannot go stale.

Exit status is the number of findings (0 = clean); each is printed as
``path:line: name``.  Used by ``tests/test_docs.py`` and the CI
``docs`` job; run it directly with ``python tools/check_unused.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

_BENCH = "imported or patched by bench/, which must keep working"
_PAPER = "paper-claim model; tests check it against the paper's formulas"
_FAULT = "fault and error handling"
_EXAMPLE = "used by examples/"
_FIGURES = "the paper-figure checks under benchmarks/ read it"
_ENDURANCE = "benchmarks/test_endurance_projection.py, the endurance extension"
_INTERFACE = "part of an interface handed to user-written policies and schedulers"
_OBSERVABLE = "the only accessor through which tests observe kept behaviour"

#: Definitions kept although nothing in ``src/repro`` references them,
#: each with its reason.  Keys are ``module.py::Qualified.name``
#: relative to ``src/repro``.
ALLOWED: dict[str, str] = {
    # Reached from bench/, examples/ or the benchmarks/ figure checks.
    "harness/reporting.py::Report.to_json_dict": _BENCH,
    "core/job.py::Job.best_memory": _EXAMPLE,
    "isa/dfg.py::DFG.depth": _EXAMPLE,
    "isa/compiler.py::compile_for_all": _EXAMPLE,
    "sim/energy.py::EnergyLedger.by_category": _EXAMPLE,
    "harness/reporting.py::Report.column": _FIGURES,
    "memories/endurance.py::WearTracker.projected_lifetime_seconds": _ENDURANCE,
    "memories/endurance.py::WearTracker": _ENDURANCE,
    "memories/endurance.py::WearTracker.record_result": _ENDURANCE,
    # Paper-claim models (Sections II-III), driven by their tests.
    "core/predictor.py::MLPPredictor.predict_hw": _PAPER,
    "core/scheduler/johnson.py::JohnsonScheduler": _PAPER,
    "core/scheduler/johnson.py::flow_shop_makespan": _PAPER,
    "isa/executor.py::execute_dfg": _PAPER,
    "memories/bitserial.py::BitSerialArray": _PAPER,
    "memories/bitserial.py::BitSerialArray.multiply": _PAPER,
    "memories/crossbar.py::AnalogCrossbar": _PAPER,
    "memories/crossbar.py::AnalogCrossbar.program": _PAPER,
    "memories/sram.py::bit_serial_add_cycles": _PAPER,
    "memories/tra.py::AmbitBank": _PAPER,
    "memories/tra.py::AmbitBank.read_row": _PAPER,
    "memories/tra.py::AmbitBank.or_rows": _PAPER,
    "memories/tra.py::AmbitBank.xor_rows": _PAPER,
    # Fault handling reached only through a fault plan or a test.
    "faults/injector.py::FaultInjector.alive_kinds": _FAULT,
    "faults/injector.py::FaultInjector.dead_kinds": _FAULT,
    "memories/endurance.py::WearTracker.wearout_event": _FAULT,
    # The exact branch-and-bound reference as a Scheduler (the optgap
    # suite's replay check); interfaces for user-written policies.
    "core/scheduler/exact.py::ExactScheduler": _INTERFACE,
    "core/scheduler/base.py::ResourceView.can_place": _INTERFACE,
    # Accessors whose only readers are tests of kept behaviour.
    "core/runtime.py::MLIMPRuntime.history": _OBSERVABLE,
    "memories/allocator.py::Allocation.alus": _OBSERVABLE,
    "serving/arrivals.py::TraceArrivals.from_entries": _OBSERVABLE,
    "sim/columnar.py::FlightColumns.in_flight": _OBSERVABLE,
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.AST):
    """Yield ``(qualname, node, is_method)`` for every def and class in
    ``tree``; ``is_method`` marks a def directly inside a class."""

    def walk(node, prefix):
        in_class = isinstance(node, ast.ClassDef)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                yield qualname, child, in_class and not isinstance(child, ast.ClassDef)
                yield from walk(child, qualname + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string constants inside ``__all__ = [...]``."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(c) for c in ast.walk(node.value))
    return ids


def _references(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """``(name, line, bare)`` of every identifier the module reads;
    ``bare`` marks a bare name (not an attribute or a string)."""
    skip = _all_strings(tree)
    refs: list[tuple[str, int, bool]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno, False))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skip
        ):
            refs.append((node.value, node.lineno, False))
    return refs


def find_unused() -> tuple[list[str], list[str]]:
    """Unreferenced definitions not in :data:`ALLOWED`, and stale
    :data:`ALLOWED` keys."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    # name -> [(path, line, bare)] of every reference in the package.
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            uses.setdefault(name, []).append((path, line, bare))

    unused: dict[str, str] = {}
    for path, tree in trees.items():
        module = path.relative_to(PACKAGE).as_posix()
        for qualname, node, is_method in _definitions(tree):
            if _is_dunder(node.name):
                continue
            start = min([d.lineno for d in node.decorator_list] + [node.lineno])
            outside = [
                (p, line)
                for p, line, bare in uses.get(node.name, ())
                if not (is_method and bare)
                and (p != path or not start <= line <= node.end_lineno)
            ]
            if not outside:
                key = f"{module}::{qualname}"
                unused[key] = f"src/repro/{module}:{node.lineno}: {qualname}"
    findings = [where for key, where in unused.items() if key not in ALLOWED]
    stale = [key for key in ALLOWED if key not in unused]
    return findings, stale


def main() -> int:
    findings, stale = find_unused()
    for where in findings:
        print(f"{where} is referenced nowhere in src/repro")
    for key in stale:
        print(f"tools/check_unused.py: allowlist entry {key!r} is referenced "
              "in src/repro (or gone); drop it")
    return len(findings) + len(stale)


if __name__ == "__main__":
    sys.exit(main())
