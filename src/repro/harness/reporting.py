"""Tabular reports for the experiment harness.

Every experiment returns a :class:`Report` -- a titled table of rows
plus free-form notes -- which the benchmark targets print verbatim, so
``pytest benchmarks/ --benchmark-only`` regenerates the paper's tables
and figure series as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Report", "fmt_time"]


def fmt_time(seconds: float) -> str:
    """Human-scaled time."""
    if seconds == 0:
        return "0"
    for unit, factor in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if abs(seconds) >= factor:
            return f"{seconds / factor:.2f}{unit}"
    return f"{seconds:.2e}s"


@dataclass
class Report:
    """One experiment's regenerated table/series."""

    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values; report has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def row(self, key: Any) -> tuple:
        """The row whose first column equals ``key``."""
        for row in self.rows:
            if row[0] == key:
                return row
        raise KeyError(f"no row with key {key!r}")

    def as_dict(self) -> dict[Any, dict[str, Any]]:
        """Rows keyed by first column."""
        return {
            row[0]: dict(zip(self.columns[1:], row[1:])) for row in self.rows
        }

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-ready structure: title, columns, rows, notes."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def __str__(self) -> str:
        cells = [[str(c) for c in self.columns]] + [
            [value if isinstance(value, str) else _fmt(value) for value in row]
            for row in self.rows
        ]
        widths = [
            max(len(line[i]) for line in cells) for i in range(len(self.columns))
        ]
        out = [f"== {self.title} =="]
        header, *body = cells
        out.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        out.append("  ".join("-" * w for w in widths))
        for line in body:
            out.append("  ".join(v.ljust(w) for v, w in zip(line, widths)))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
