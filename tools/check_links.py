#!/usr/bin/env python3
"""Check that the repo's markdown documentation points at real files.

Two classes of reference are verified, across a pinned list of
documentation files:

* **Markdown links** -- ``[text](target)``.  Relative targets must
  exist on disk (anchors and external ``http(s)``/``mailto`` targets
  are skipped).
* **Backtick path references** -- `` `path/to/file.py` `` and
  variants like `` `pkg/mod.py::func` `` or `` `pkg/mod.py:162` ``.
  The docs deliberately refer to sources by short paths
  (``core/dispatcher.py``, ``harness/serving.py``), so each candidate
  is resolved against a small set of roots (repo root, ``src/``,
  ``src/repro/``, ``src/repro/core/``, ``docs/``).  A ``::name``
  suffix (dotted for a class member, ``Class.method``) must name a
  ``def``, ``class`` or assignment at that level of the file, and a
  ``:N`` suffix must be a line within the file.

Exit status is the number of broken references (0 = all good), and
every failure is printed as ``file:line: broken reference 'target'``.
Used by ``tests/test_docs.py`` and the CI ``docs`` job; run it
directly with ``python tools/check_links.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation scanned for references.  SNIPPETS.md / PAPERS.md are
#: excluded on purpose: they quote external repos and papers.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/ARCHITECTURE.md",
    "docs/CLUSTER.md",
    "docs/SCHEDULERS.md",
    "docs/SERVING.md",
)

#: Roots a short backtick path may be relative to, in match order.
SEARCH_ROOTS = ("", "src", "src/repro", "src/repro/core", "docs")

#: Extensions that make a backtick token a checkable file reference.
PATH_SUFFIXES = (".py", ".md", ".json", ".yml", ".yaml", ".toml", ".csv")

MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
BACKTICK_SPAN = re.compile(r"`([^`]+)`")
#: Anything that marks a backtick span as a placeholder or glob, not
#: a concrete path: wildcards, angle-bracket templates, spaces, shell.
NON_PATH_CHARS = re.compile(r"[\s*<>{}$|,]")


def _candidate_paths(token: str) -> list[Path]:
    return [REPO_ROOT / root / token for root in SEARCH_ROOTS]


def _split_backtick(token: str) -> tuple[str, str | None, int | None] | None:
    """Split a backtick span into ``(relative path, symbol, line)``, or
    None when it is not a checkable file reference."""
    token, _, symbol = token.partition("::")  # `mod.py::func`
    line = re.search(r":(\d+)$", token)  # `mod.py:162`
    if line:
        token = token[: line.start()]
    if token.startswith(("/", "http://", "https://")):
        return None
    if NON_PATH_CHARS.search(token):
        return None
    if "/" not in token:  # bare filenames are usually examples
        return None
    if not token.endswith(PATH_SUFFIXES):
        return None
    return token, symbol or None, int(line.group(1)) if line else None


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _has_symbol(path: Path, symbol: str) -> bool:
    """``symbol`` (``name`` or ``Class.member``) is defined in ``path``."""
    body = ast.parse(path.read_text()).body
    for part in symbol.split("."):
        node = next((n for n in body if part in _defined_names(n)), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def _resolves(path: Path, symbol: str | None, line: int | None) -> bool:
    if symbol is not None and (path.suffix != ".py" or not _has_symbol(path, symbol)):
        return False
    return line is None or 1 <= line <= len(path.read_text().splitlines())


def check_file(doc: Path) -> list[str]:
    """Return broken-reference descriptions for one markdown file."""
    failures: list[str] = []
    try:
        rel = doc.relative_to(REPO_ROOT)
    except ValueError:  # e.g. a test fixture outside the repo
        rel = doc.name
    in_code_block = False
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_block = not in_code_block
            continue
        for match in MARKDOWN_LINK.finditer(line):
            target = match.group(1).split("#")[0]
            if not target or target.startswith(
                ("http://", "https://", "mailto:")
            ):
                continue
            if not (doc.parent / target).exists():
                failures.append(f"{rel}:{lineno}: broken link '{target}'")
        if in_code_block:
            continue  # code blocks hold example commands, not claims
        for match in BACKTICK_SPAN.finditer(line):
            reference = _split_backtick(match.group(1))
            if reference is None:
                continue
            token, symbol, target_line = reference
            path = next((p for p in _candidate_paths(token) if p.exists()), None)
            if path is None or not _resolves(path, symbol, target_line):
                failures.append(
                    f"{rel}:{lineno}: broken reference '{match.group(1)}'"
                )
    return failures


def check_all(doc_files: tuple[str, ...] = DOC_FILES) -> list[str]:
    """Check every pinned doc; missing docs are themselves failures."""
    failures: list[str] = []
    for name in doc_files:
        doc = REPO_ROOT / name
        if not doc.exists():
            failures.append(f"{name}: documentation file missing")
            continue
        failures.extend(check_file(doc))
    return failures


def main() -> int:
    failures = check_all()
    for failure in failures:
        print(failure, file=sys.stderr)
    if not failures:
        print(f"ok: {len(DOC_FILES)} docs, all references resolve")
    return len(failures)


if __name__ == "__main__":
    raise SystemExit(main())
