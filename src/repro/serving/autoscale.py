"""Feedback-driven pool autoscaling for long-horizon serving.

One MLIMP node's device pool is fixed for the life of a dispatch run
-- the simulator owns the allocators.  At *fleet* horizons the pool
is a knob: production schedulers grow and shrink capacity from the
same queue-depth and utilisation signals our runs already export
(``repro.obs`` gauges, the serving report's busy fractions and shed
rate).  This module is that control loop, run **between replay
windows** (the k8s-HPA cadence: observe a period, then resize), never
mid-simulation -- every individual window stays a deterministic,
byte-stable run on a fixed pool.

* :class:`Autoscaler` applies a threshold rule one step at a time
  between 1 and ``max_scale``: scale **up** when the observed window
  shed load, saturated a device, or kept a deep release backlog;
  scale **down** when the pool was near-idle and nothing was shed.
  It holds the current integer ``scale`` and an auditable
  :class:`ScaleEvent` log; its state is two plain JSON values, so a
  replay checkpoint captures it exactly.
* :func:`scale_system` materialises a scale: every device's array
  count and job slots multiply by the factor
  (:func:`dataclasses.replace` on the frozen Table III specs), the
  same move ``harness.config.scaled_specs`` uses in the other
  direction.  Scale 1 returns the system untouched.

In cluster replays the scaled system is stamped onto **every node**
(the per-node autoscale passthrough): the cluster grows capacity in
place while placement keeps steering across the same node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.scheduler.base import MLIMPSystem

__all__ = ["ScaleEvent", "Autoscaler", "scale_system"]

#: Scale up when any device's busy fraction exceeds this...
UP_UTILISATION = 0.70
#: ...or the window shed more than this fraction of offered load...
UP_SHED_RATE = 0.0
#: ...or the policy's release backlog averaged deeper than this.
UP_QUEUE_DEPTH = 8.0
#: Scale down when the busiest device stayed under this fraction
#: (and nothing was shed, and the backlog stayed shallow).
DOWN_UTILISATION = 0.25


@dataclass(frozen=True)
class ScaleEvent:
    """One audited pool resize between two replay windows."""

    window: int
    from_scale: int
    to_scale: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "from_scale": self.from_scale,
            "to_scale": self.to_scale,
            "reason": self.reason,
        }


@dataclass
class Autoscaler:
    """The control loop: observe a window's signals, hold the scale."""

    max_scale: int = 4
    scale: int = 1
    events: list[ScaleEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 1 <= self.scale <= self.max_scale:
            raise ValueError(f"scale {self.scale} outside [1, {self.max_scale}]")

    # ------------------------------------------------------------------
    def observe(
        self,
        window: int,
        utilisation: float,
        queue_depth: float,
        shed_rate: float,
    ) -> int:
        """Feed one finished window's signals; returns the scale the
        *next* window should run at.

        ``utilisation`` is the window's busiest device fraction,
        ``queue_depth`` the time-weighted mean of the policy's release
        backlog (the ``jobs.pending`` gauge), ``shed_rate`` the
        window's shed fraction of offered load.
        """
        target = self.scale
        reason = ""
        if self.scale < self.max_scale and (
            shed_rate > UP_SHED_RATE
            or utilisation > UP_UTILISATION
            or queue_depth > UP_QUEUE_DEPTH
        ):
            target = self.scale + 1
            if shed_rate > UP_SHED_RATE:
                reason = f"shed_rate {shed_rate:.3f} > {UP_SHED_RATE:g}"
            elif utilisation > UP_UTILISATION:
                reason = f"utilisation {utilisation:.3f} > {UP_UTILISATION:g}"
            else:
                reason = f"queue_depth {queue_depth:.2f} > {UP_QUEUE_DEPTH:g}"
        elif (
            self.scale > 1
            and shed_rate == 0.0
            and utilisation < DOWN_UTILISATION
            and queue_depth <= UP_QUEUE_DEPTH
        ):
            target = self.scale - 1
            reason = f"utilisation {utilisation:.3f} < {DOWN_UTILISATION:g}"
        if target != self.scale:
            self.events.append(
                ScaleEvent(
                    window=window,
                    from_scale=self.scale,
                    to_scale=target,
                    reason=reason,
                )
            )
            self.scale = target
        return self.scale

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: plain JSON, no floats beyond reasons."""
        return {
            "scale": self.scale,
            "events": [event.as_dict() for event in self.events],
        }

    @classmethod
    def from_state(cls, max_scale: int, state: dict) -> "Autoscaler":
        """Rebuild mid-replay state saved by :meth:`state_dict`."""
        return cls(
            max_scale=max_scale,
            scale=int(state["scale"]),
            events=[
                ScaleEvent(
                    window=int(e["window"]),
                    from_scale=int(e["from_scale"]),
                    to_scale=int(e["to_scale"]),
                    reason=str(e["reason"]),
                )
                for e in state.get("events", [])
            ],
        )


def scale_system(system: MLIMPSystem, scale: int | float) -> MLIMPSystem:
    """``scale`` copies of every device: array counts and job slots
    multiply, clocks/geometry/bandwidths stay at spec.  Scale 1 is the
    identity (the same object, so an unscaled replay window runs on a
    byte-identical system).

    The autoscaler always passes integers; fractional scales exist
    for heterogeneous cluster nodes
    (:meth:`~repro.cluster.spec.ClusterSpec.heterogeneous`) -- a weak
    node at ``scale=0.5`` keeps half the arrays and slots, floored at
    one of each so every device stays usable.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if scale == 1:
        return system
    return MLIMPSystem(
        specs={
            kind: replace(
                spec,
                num_arrays=max(1, int(round(spec.num_arrays * scale))),
                max_outstanding_jobs=max(
                    1, int(round(spec.max_outstanding_jobs * scale))
                ),
            )
            for kind, spec in system.specs.items()
        }
    )
