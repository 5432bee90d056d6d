"""Event-driven simulation substrate: engine, main memory, energy, traces."""

from .columnar import FlightColumns
from .energy import EnergyCategory, EnergyLedger
from .engine import SimulationError, Simulator
from .events import Event, EventHandle, JobArrival
from .mainmem import DDR4Config, SharedBandwidthPipe, Transfer
from .trace import ExecutionTrace, Phase, TraceRecord

__all__ = [
    "EnergyCategory",
    "EnergyLedger",
    "SimulationError",
    "Simulator",
    "Event",
    "EventHandle",
    "JobArrival",
    "DDR4Config",
    "SharedBandwidthPipe",
    "Transfer",
    "ExecutionTrace",
    "FlightColumns",
    "Phase",
    "TraceRecord",
]
