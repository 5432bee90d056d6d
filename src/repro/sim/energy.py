"""Energy accounting for simulation runs.

Energy is tracked as a ledger of (category, device) -> joules so the
Figure 14 breakdown (compute vs data transfer, per memory layer, vs
CPU/GPU baselines) can be regenerated from one run.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["EnergyCategory", "EnergyLedger"]


class EnergyCategory(enum.Enum):
    """Where the joules went."""

    COMPUTE = "compute"  # in-array operations
    FILL = "fill"  # loading operands into compute regions
    REPLICATION = "replication"  # in-memory data copies
    OFFCHIP = "offchip"  # main-memory / PCIe transfers
    HOST = "host"  # CPU-side pre/post processing
    STATIC = "static"  # leakage over the run


@dataclass
class EnergyLedger:
    """Accumulates joules by (category, device) pairs."""

    _entries: dict[tuple[EnergyCategory, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )

    def add(self, category: EnergyCategory, device: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("energy must be non-negative")
        self._entries[(category, device)] += joules

    def total(self) -> float:
        return sum(self._entries.values())

    def by_category(self) -> dict[EnergyCategory, float]:
        out: dict[EnergyCategory, float] = defaultdict(float)
        for (category, _), joules in self._entries.items():
            out[category] += joules
        return dict(out)

    def get(self, category: EnergyCategory, device: str) -> float:
        return self._entries.get((category, device), 0.0)

    def merge(self, other: "EnergyLedger") -> "EnergyLedger":
        merged = EnergyLedger()
        for (category, device), joules in self._entries.items():
            merged.add(category, device, joules)
        for (category, device), joules in other._entries.items():
            merged.add(category, device, joules)
        return merged
