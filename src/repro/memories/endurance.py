"""NVM endurance tracking (an extension the paper motivates).

Section II-A: "NVMs have limited endurance (and high write
energy/delay) which curtails the number of writes the memories can
reliably sustain."  The paper's scheduler does not act on this; this
module provides the bookkeeping a production MLIMP runtime would need:
a per-device wear tracker fed by the dispatcher's fill/replication
traffic, lifetime projection under a measured write rate, and the
wear-out fault event that ends a device once its budget is spent.

Cell-write accounting assumes ideal wear levelling across the
device's cells (the standard first-order model): lifetime ends when
``endurance_writes`` mean writes per cell are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.energy import EnergyCategory
from .base import MemorySpec

if TYPE_CHECKING:  # avoid a core <-> memories import cycle
    from ..core.dispatcher import DispatchResult
    from ..faults.plan import FaultEvent

__all__ = ["WearTracker"]


@dataclass
class WearTracker:
    """Accumulates cell writes against a device's endurance budget."""

    spec: MemorySpec
    endurance_writes: float
    written_bytes: float = 0.0
    busy_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.endurance_writes <= 0:
            raise ValueError("endurance must be positive")

    # ------------------------------------------------------------------
    @property
    def total_cell_writes_budget(self) -> float:
        """Device-lifetime budget in bytes written (ideal levelling)."""
        return self.endurance_writes * self.spec.capacity_bytes

    @property
    def mean_writes_per_cell(self) -> float:
        return self.written_bytes / self.spec.capacity_bytes

    # ------------------------------------------------------------------
    def record_bytes(self, nbytes: float, busy_seconds: float = 0.0) -> None:
        if nbytes < 0 or busy_seconds < 0:
            raise ValueError("negative traffic")
        self.written_bytes += nbytes
        self.busy_seconds += busy_seconds

    def record_result(self, result: "DispatchResult") -> None:
        """Charge a dispatch run's fill + replication traffic.

        The energy ledger already holds the per-device write traffic
        (fills and replicas are charged at ``fill_energy_pj_per_byte``),
        so bytes are recovered from it exactly.
        """
        per_byte = self.spec.fill_energy_pj_per_byte * 1e-12
        device = self.spec.kind.value
        joules = result.energy.get(EnergyCategory.FILL, device) + result.energy.get(
            EnergyCategory.REPLICATION, device
        )
        self.record_bytes(joules / per_byte, busy_seconds=result.makespan)

    # ------------------------------------------------------------------
    def projected_lifetime_seconds(self) -> float:
        """Device lifetime at the observed write rate (inf if unworn)."""
        if self.written_bytes <= 0 or self.busy_seconds <= 0:
            return float("inf")
        rate = self.written_bytes / self.busy_seconds  # bytes/s
        return self.total_cell_writes_budget / rate

    # -- fault-injection bridge (repro.faults) -------------------------
    def remaining_bytes(self, reserve_fraction: float = 0.0) -> float:
        """Write traffic left before the endurance budget (minus an
        optional reserve) is exhausted."""
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        budget = self.total_cell_writes_budget * (1.0 - reserve_fraction)
        return max(0.0, budget - self.written_bytes)

    def wearout_event(self, reserve_fraction: float = 0.0) -> "FaultEvent":
        """A :class:`~repro.faults.plan.FaultEvent` that kills this
        device once a run writes the tracker's *remaining* endurance
        budget -- the bridge from long-horizon wear bookkeeping to the
        fault injector's per-run traffic threshold.
        """
        from ..faults.plan import FaultEvent, FaultKind

        remaining = self.remaining_bytes(reserve_fraction)
        return FaultEvent(
            kind=FaultKind.WEAROUT,
            device=self.spec.kind,
            # A fully-worn device dies on its first write: keep the
            # threshold strictly positive so the event validates.
            threshold_bytes=max(remaining, 1.0),
            reason=(
                f"endurance budget exhausted "
                f"({self.mean_writes_per_cell:.3g} writes/cell consumed)"
            ),
        )
