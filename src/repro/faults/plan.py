"""Fault plans: deterministic, seedable device-fault descriptions.

The paper assumes fault-free devices; a production MLIMP runtime
cannot (ROADMAP north star; CLSA-CIM and MASIM both note that
multi-unit CIM schedulers must re-map work when a unit's effective
throughput changes at runtime).  A :class:`FaultPlan` describes the
device-level faults one dispatch run will experience:

``stall``
    The device is unavailable for ``duration`` seconds starting at
    ``time``.  Jobs in flight are aborted and retried with exponential
    backoff; new launches park until the stall clears.
``derate``
    From ``time`` on, every device-timed phase (fill write, replicate,
    compute) runs at ``factor`` of nominal throughput (0 < factor <= 1;
    a later event with factor 1.0 models a repair).
``fail``
    The device is permanently lost at ``time``.  In-flight and parked
    jobs are re-queued onto surviving devices via the scheduler's
    ``device_lost`` hook.
``wearout``
    Endurance-triggered permanent failure: the device dies once its
    cumulative fill/replication traffic in this run reaches
    ``threshold_bytes`` (see :mod:`repro.memories.endurance` for
    deriving thresholds from a :class:`~repro.memories.endurance.WearTracker`).

Plans are plain data: JSON round-trippable (``repro run --faults
plan.json``), seedably random for the property harness
(:meth:`FaultPlan.random` uses only :class:`random.Random`), and
independent of the simulator -- the dispatcher turns timed events into
first-class sim events when a run starts.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..memories.base import MemoryKind

__all__ = ["FaultKind", "FaultEvent", "RetryPolicy", "FaultPlan"]


class FaultKind(enum.Enum):
    """The injectable device-fault classes."""

    STALL = "stall"
    DERATE = "derate"
    FAIL = "fail"
    WEAROUT = "wearout"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FaultEvent:
    """One fault against one device.

    ``time`` is the injection time in simulation seconds for the timed
    kinds (stall/derate/fail); wear-out events are traffic-triggered
    and carry ``threshold_bytes`` instead.
    """

    kind: FaultKind
    device: MemoryKind
    time: float = 0.0
    duration: float = 0.0
    factor: float = 1.0
    threshold_bytes: float = 0.0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind is not FaultKind.WEAROUT and self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.kind is FaultKind.STALL and self.duration <= 0:
            raise ValueError("stall faults need a positive duration")
        if self.kind is FaultKind.DERATE and not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"derate factor must be in (0, 1], got {self.factor}"
            )
        if self.kind is FaultKind.WEAROUT and self.threshold_bytes <= 0:
            raise ValueError("wearout faults need a positive threshold_bytes")

    @property
    def timed(self) -> bool:
        """Whether this fault fires at a fixed simulation time."""
        return self.kind is not FaultKind.WEAROUT

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "device": self.device.value}
        if self.timed:
            out["time"] = self.time
        if self.kind is FaultKind.STALL:
            out["duration"] = self.duration
        if self.kind is FaultKind.DERATE:
            out["factor"] = self.factor
        if self.kind is FaultKind.WEAROUT:
            out["threshold_bytes"] = self.threshold_bytes
        if self.reason:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_dict(cls, data: dict, index: int = 0) -> "FaultEvent":
        """Rebuild an event from :meth:`as_dict`.  ``index`` is the
        event's position in its plan, named by the error when a
        required key is missing."""
        if not isinstance(data, dict):
            raise ValueError(f"fault event {index}: expected a JSON object, got {data!r}")
        for key in ("kind", "device"):
            if key not in data:
                raise ValueError(f"fault event {index}: missing key {key!r}")
        return cls(
            kind=FaultKind(data["kind"]),
            device=MemoryKind(data["device"]),
            time=float(data.get("time", 0.0)),
            duration=float(data.get("duration", 0.0)),
            factor=float(data.get("factor", 1.0)),
            threshold_bytes=float(data.get("threshold_bytes", 0.0)),
            reason=str(data.get("reason", "")),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff parameters for stall-aborted jobs.

    An aborted job retries after ``base_backoff_s``; every attempt that
    still finds the device stalled doubles the wait (``multiplier``)
    until ``max_attempts`` is exhausted, at which point the job is
    reported failed.
    """

    base_backoff_s: float = 1e-5
    multiplier: float = 2.0
    max_attempts: int = 16

    def __post_init__(self) -> None:
        if self.base_backoff_s <= 0:
            raise ValueError("base_backoff_s must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def as_dict(self) -> dict:
        return {
            "base_backoff_s": self.base_backoff_s,
            "multiplier": self.multiplier,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(
            base_backoff_s=float(data.get("base_backoff_s", 1e-5)),
            multiplier=float(data.get("multiplier", 2.0)),
            max_attempts=int(data.get("max_attempts", 16)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault events plus the retry policy."""

    events: tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def timed_events(self) -> list[FaultEvent]:
        """Events injected at a fixed simulation time, time-ordered."""
        return sorted(
            (e for e in self.events if e.timed),
            key=lambda e: (e.time, e.device.value),
        )

    def wear_events(self) -> list[FaultEvent]:
        """Traffic-triggered wear-out events."""
        return [e for e in self.events if e.kind is FaultKind.WEAROUT]

    def devices(self) -> set[MemoryKind]:
        return {e.device for e in self.events}

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def random(
        cls,
        seed: int,
        devices: list[MemoryKind],
        horizon_s: float,
        n_events: int = 3,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.STALL,
            FaultKind.DERATE,
            FaultKind.FAIL,
        ),
        max_failures: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> "FaultPlan":
        """Seeded random plan of *timed* faults within ``horizon_s``.

        Uses only :class:`random.Random`, so the plan -- and every run
        built on it -- is reproducible from ``seed`` alone.
        ``max_failures`` caps permanent failures (defaults to
        ``len(devices) - 1`` so at least one device survives).
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not devices:
            raise ValueError("need at least one device to fault")
        rng = random.Random(seed)
        if max_failures is None:
            max_failures = max(0, len(devices) - 1)
        failed: set[MemoryKind] = set()
        events: list[FaultEvent] = []
        for _ in range(n_events):
            kind = rng.choice(list(kinds))
            if kind is FaultKind.FAIL:
                candidates = [d for d in devices if d not in failed]
                if len(failed) >= max_failures or not candidates:
                    kind = FaultKind.STALL
                    device = rng.choice(devices)
                else:
                    device = rng.choice(candidates)
                    failed.add(device)
            else:
                device = rng.choice(devices)
            time = rng.uniform(0.0, horizon_s)
            if kind is FaultKind.STALL:
                events.append(
                    FaultEvent(
                        kind=kind,
                        device=device,
                        time=time,
                        duration=rng.uniform(0.05, 0.5) * horizon_s,
                    )
                )
            elif kind is FaultKind.DERATE:
                events.append(
                    FaultEvent(
                        kind=kind,
                        device=device,
                        time=time,
                        factor=rng.uniform(0.2, 1.0),
                    )
                )
            else:
                events.append(FaultEvent(kind=kind, device=device, time=time))
        return cls(
            events=tuple(events), retry=retry or RetryPolicy(), seed=seed
        )

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> dict:
        out: dict = {"events": [e.as_dict() for e in self.events]}
        out["retry"] = self.retry.as_dict()
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("a fault plan must be a JSON object")
        retry = (
            RetryPolicy.from_dict(data["retry"])
            if "retry" in data
            else RetryPolicy()
        )
        return cls(
            events=tuple(
                FaultEvent.from_dict(e, i)
                for i, e in enumerate(data.get("events", []))
            ),
            retry=retry,
            seed=data.get("seed"),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))
