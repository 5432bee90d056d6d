"""Documentation stays truthful: links resolve, CLI docs complete.

Docs drift silently -- a renamed module or dropped flag leaves the
README pointing at nothing.  These tests pin the documentation to the
code: every path reference in the pinned markdown set must resolve
(`tools/check_links.py`), the README must document every `python -m
repro` subcommand, and the serving doctests must run (the CI `docs`
job runs the same checks).  Code that nothing references does not
grow back either: every `src/repro` definition is referenced in the
package or named, with its reason, in `tools/check_unused.py`.
"""

from __future__ import annotations

import doctest
import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_check_links():
    return _load_tool("check_links")


class TestLinkChecker:
    def test_all_doc_references_resolve(self):
        check_links = _load_check_links()
        assert check_links.check_all() == []

    def test_pinned_doc_set_covers_subsystem_walkthroughs(self):
        """The guided walkthroughs stay in the checked set."""
        check_links = _load_check_links()
        for doc in (
            "docs/ARCHITECTURE.md",
            "docs/SCHEDULERS.md",
            "docs/CLUSTER.md",
            "docs/SERVING.md",
        ):
            assert doc in check_links.DOC_FILES

    def test_checker_is_not_vacuous(self, tmp_path):
        """A doc with a broken link and a broken path ref fails twice."""
        check_links = _load_check_links()
        bad = tmp_path / "bad.md"
        bad.write_text(
            "See [the guide](no/such/guide.md) and `core/nosuch.py`.\n"
        )
        failures = check_links.check_file(bad)
        assert len(failures) == 2
        assert any("no/such/guide.md" in f for f in failures)
        assert any("core/nosuch.py" in f for f in failures)

    def test_checker_resolves_symbols_and_lines(self, tmp_path):
        """A ``::symbol`` must be defined in the file and a ``:line``
        must be within it; the file existing is not enough."""
        check_links = _load_check_links()
        doc = tmp_path / "pointers.md"
        doc.write_text(
            "`core/dispatcher.py::Dispatcher.run` and "
            "`core/scheduler/adjustments.py::PlanTable` resolve;\n"
            "`core/dispatcher.py::no_such_function`, "
            "`core/dispatcher.py::Dispatcher.no_such_method` and "
            "`core/dispatcher.py:999999` do not.\n"
        )
        failures = check_links.check_file(doc)
        assert len(failures) == 3
        assert all(f.startswith("pointers.md:2: broken reference") for f in failures)

    def test_checker_skips_code_blocks_and_placeholders(self, tmp_path):
        check_links = _load_check_links()
        doc = tmp_path / "ok.md"
        doc.write_text(
            "```bash\ncat fake/path.py\n```\n"
            "`BENCH_<date>.json` and `a/*.py` are placeholders.\n"
        )
        assert check_links.check_file(doc) == []


class TestUnusedChecker:
    def test_every_definition_is_referenced_or_allowed(self):
        assert _load_tool("check_unused").find_unused() == ([], [])

    def test_checker_is_not_vacuous(self, tmp_path, monkeypatch):
        """An orphan definition is reported; a referenced one is not."""
        check_unused = _load_tool("check_unused")
        package = tmp_path / "repro"
        package.mkdir()
        (package / "mod.py").write_text(
            "def used():\n    return 1\n\n\n"
            "def orphan(n):\n    return orphan(n - 1) if n else used()\n"
        )
        monkeypatch.setattr(check_unused, "PACKAGE", package)
        monkeypatch.setattr(check_unused, "ALLOWED", {"mod.py::gone": "stale"})
        findings, stale = check_unused.find_unused()
        assert findings == ["src/repro/mod.py:5: orphan"]
        assert stale == ["mod.py::gone"]

    def test_bare_name_does_not_reach_a_method(self, tmp_path, monkeypatch):
        """A local variable spelled like a method is not a call of it."""
        check_unused = _load_tool("check_unused")
        package = tmp_path / "repro"
        package.mkdir()
        (package / "mod.py").write_text(
            "class Shape:\n"
            "    def depth(self):\n        return 1\n\n"
            "    def area(self):\n        return 2\n\n\n"
            "def size(shape):\n    depth = 3\n    return depth + shape.area()\n\n\n"
            "SIZE = size(Shape())\n"
        )
        monkeypatch.setattr(check_unused, "PACKAGE", package)
        monkeypatch.setattr(check_unused, "ALLOWED", {})
        assert check_unused.find_unused() == (["src/repro/mod.py:2: Shape.depth"], [])


class TestCLIDocs:
    def _subcommands(self) -> set[str]:
        source = (REPO_ROOT / "src" / "repro" / "__main__.py").read_text()
        return set(re.findall(r"add_parser\(\s*\"(\w+)\"", source))

    def test_every_subcommand_is_documented_in_readme(self):
        readme = (REPO_ROOT / "README.md").read_text()
        subcommands = self._subcommands()
        assert subcommands >= {"list", "specs", "run", "trace", "bench",
                               "serve", "cluster"}
        table = readme.split("## Command line")[1].split("##")[0]
        for name in subcommands:
            assert f"`{name}`" in table, f"README table misses '{name}'"
            assert f"python -m repro {name}" in readme

    def _flags(self) -> set[str]:
        """Every option string of every ``python -m repro`` subcommand."""
        import argparse

        from repro.__main__ import build_parser

        (sub,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            flag
            for parser in sub.choices.values()
            for action in parser._actions
            for flag in action.option_strings
        }

    def test_readme_serve_flags_exist(self):
        """Flags the README shows for `serve` must exist in argparse."""
        known = self._flags()
        readme = (REPO_ROOT / "README.md").read_text()
        serve_section = readme.split("## Serving")[1].split("\n## ")[0]
        for flag in set(re.findall(r"(--[a-z-]+)", serve_section)):
            assert flag in known, f"README shows unknown {flag}"

    def test_readme_cluster_flags_exist(self):
        """Flags the README shows for `cluster` must exist in argparse."""
        known = self._flags()
        readme = (REPO_ROOT / "README.md").read_text()
        cluster_section = readme.split("## Cluster")[1].split("\n## ")[0]
        flags = set(re.findall(r"(--[a-z-]+)", cluster_section))
        assert flags, "README Cluster section shows no flags"
        for flag in flags:
            assert flag in known, f"README shows unknown {flag}"

    def test_cluster_doc_covers_contention_features(self):
        """docs/CLUSTER.md documents the contended-cluster surface, and
        everything it names is real: the flags exist in argparse and
        the feedback policy is registered."""
        from repro.cluster import PLACEMENTS

        known = self._flags()
        doc = (REPO_ROOT / "docs" / "CLUSTER.md").read_text()
        for flag in ("--node-spec", "--contention", "--placement"):
            assert flag in doc, f"CLUSTER.md misses {flag}"
            assert flag in known, f"CLUSTER.md shows unknown {flag}"
        assert "feedback" in doc
        assert "feedback" in PLACEMENTS
        for topic in ("contention", "heterogeneous", "migration"):
            assert topic in doc.lower(), f"CLUSTER.md misses {topic}"


class TestServingDoctests:
    def test_serving_doctests_pass(self):
        import repro.serving.workload as workload

        results = doctest.testmod(workload)
        assert results.attempted > 0, "workload doctest went missing"
        assert results.failed == 0
