"""Main-memory bandwidth model (Ramulator stand-in).

The paper simulates DDR4 load/store bandwidth with Ramulator integrated
into their event-driven simulator.  For scheduling-level fidelity what
matters is the *aggregate* behaviour: a fixed channel bandwidth shared
by every in-flight transfer, plus a fixed access latency.  We model the
channels as a processor-sharing pipe: all active transfers progress at
``total_bandwidth / n_active``; each time a transfer starts or ends the
remaining completion times are recomputed.  This captures the
first-order contention effect (loads issued together finish later than
loads issued alone) without per-request DRAM command modelling.

:class:`DDR4Config` defaults to the evaluated system: DDR4-2400 with 4
channels, 1 rank, 16 chips and 16 banks (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .engine import Simulator
from .events import EventHandle

__all__ = ["DDR4Config", "SharedBandwidthPipe", "Transfer"]


@dataclass(frozen=True)
class DDR4Config:
    """Aggregate DDR4 main-memory parameters."""

    channels: int = 4
    channel_bandwidth_gbps: float = 19.2  # DDR4-2400 x 64-bit
    access_latency_ns: float = 60.0
    energy_pj_per_bit: float = 15.0  # off-chip DRAM access energy

    @property
    def total_bandwidth_gbps(self) -> float:
        return self.channels * self.channel_bandwidth_gbps

    @property
    def total_bandwidth_bps(self) -> float:
        return self.total_bandwidth_gbps * 1e9

    def transfer_energy_j(self, nbytes: float) -> float:
        return nbytes * 8 * self.energy_pj_per_bit * 1e-12


@dataclass
class Transfer:
    """One in-flight bulk transfer through the shared pipe."""

    nbytes: float
    remaining: float
    on_done: Callable[..., None]
    started_at: float
    last_update: float
    handle: EventHandle | None = field(default=None, repr=False)
    #: Arguments ``on_done`` is called with.
    args: tuple = ()


class SharedBandwidthPipe:
    """Processor-sharing bandwidth pipe driven by a :class:`Simulator`.

    ``submit`` starts a transfer and invokes ``on_done(*args)`` (via
    the simulator) once the bytes have drained; the fixed access
    latency is added up front.  Total bytes moved are tracked for
    energy accounting.
    """

    def __init__(self, sim: Simulator, config: DDR4Config | None = None) -> None:
        self.sim = sim
        self.config = config or DDR4Config()
        self._active: list[Transfer] = []
        self.total_bytes = 0.0
        #: Optional hook called with ``(now, active_transfers)`` every
        #: time pipe membership changes; the observability layer uses
        #: it to record DDR4 occupancy over time.
        self.on_occupancy: Callable[[float, int], None] | None = None

    @property
    def active_transfers(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def submit(
        self, nbytes: float, on_done: Callable[..., None], *args: Any
    ) -> None:
        """Start moving ``nbytes``; ``on_done(*args)`` fires at
        completion."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.total_bytes += nbytes
        latency = self.config.access_latency_ns * 1e-9
        if nbytes == 0:
            self.sim.after(latency, on_done, *args)
            return
        transfer = Transfer(
            nbytes=nbytes,
            remaining=float(nbytes),
            on_done=on_done,
            started_at=self.sim.now + latency,
            last_update=self.sim.now + latency,
            args=args,
        )
        # The access latency is modelled as a delayed join of the pipe.
        self.sim.after(latency, self._join, transfer)

    # ------------------------------------------------------------------
    def _join(self, transfer: Transfer) -> None:
        self._drain_progress()
        self._active.append(transfer)
        transfer.last_update = self.sim.now
        self._reschedule()
        if self.on_occupancy is not None:
            self.on_occupancy(self.sim.now, len(self._active))

    def _drain_progress(self) -> None:
        """Advance ``remaining`` of all active transfers to ``now``."""
        if not self._active:
            return
        rate = self.config.total_bandwidth_bps / len(self._active)
        for transfer in self._active:
            elapsed = self.sim.now - transfer.last_update
            transfer.remaining = max(0.0, transfer.remaining - elapsed * rate)
            transfer.last_update = self.sim.now

    def _reschedule(self) -> None:
        """Re-point completion events after membership changed."""
        for transfer in self._active:
            if transfer.handle is not None:
                transfer.handle.cancel()
                transfer.handle = None
        if not self._active:
            return
        rate = self.config.total_bandwidth_bps / len(self._active)
        soonest = min(self._active, key=lambda t: t.remaining)
        eta = soonest.remaining / rate
        soonest.handle = self.sim.after(eta, self._complete, soonest)

    def _complete(self, transfer: Transfer) -> None:
        self._drain_progress()
        # Floating-point drain may leave the finishing transfer with a
        # vanishing remainder; clamp it out.
        transfer.remaining = 0.0
        # The fired handle's event holds this transfer: drop the cycle.
        transfer.handle = None
        self._active.remove(transfer)
        self._reschedule()
        if self.on_occupancy is not None:
            self.on_occupancy(self.sim.now, len(self._active))
        transfer.on_done(*transfer.args)

    def energy_j(self) -> float:
        """Off-chip transfer energy consumed so far."""
        return self.config.transfer_energy_j(self.total_bytes)
