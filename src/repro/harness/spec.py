"""One declared, validated spec for the parameters every serving run shares.

``serve``, ``cluster`` and ``replay`` configure the same scheduler
stack: a system, a scheduler, an admission gate and weighted tenants
under one SLO.  :class:`RunSpec` holds those parameters once: its
``__post_init__`` is the only place they are validated, and it builds
the system, the arrivals and the tenants every run needs.
:class:`~repro.harness.replay.ReplayConfig` extends it with the
replay-only fields.

:data:`FLAGS` is the single declaration of each shared command-line
flag.  :func:`add_run_flags` adds the spec's flags to a subcommand,
defaulting to a spec instance, so each command keeps its own defaults
without re-declaring a flag::

    parser = argparse.ArgumentParser()
    add_run_flags(parser, RunSpec(), "horizon")
    spec = RunSpec.from_args(parser.parse_args(["--rate", "200"]))

Choice lists come from the registries they select from, so a new
scheduler or placement policy is registered in one file.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass

from ..cluster.placement import PLACEMENTS
from ..core.runtime import _SCHEDULERS
from ..core.scheduler import MLIMPSystem
from ..serving import PoissonArrivals, Tenant
from .config import full_system, gnn_system

__all__ = [
    "SYSTEMS",
    "ADMISSIONS",
    "FLAGS",
    "RunSpec",
    "add_flag",
    "add_run_flags",
]

#: The ``--system`` namespace: scaled GNN devices or full Table III.
SYSTEMS = {"full": full_system, "gnn": gnn_system}

#: The ``--admission`` namespace (see ``ServingRuntime.serve``).
ADMISSIONS = ("shed", "predictive")


@dataclass(frozen=True)
class Flag:
    """One command-line flag: its spelling, help, type and choices.

    ``default`` is used by flags that are not :class:`RunSpec` fields;
    a spec field's default comes from the spec a command passes to
    :func:`add_run_flags`.
    """

    flag: str
    help: str
    type: type | None = None
    metavar: str | None = None
    choices: tuple[str, ...] | None = None
    default: object = None


#: Every flag shared by two or more subcommands or checked by a spec,
#: keyed by its argparse ``dest`` (a :class:`RunSpec` or
#: :class:`~repro.harness.replay.ReplayConfig` field name, except
#: ``slo`` for ``slo_s`` in milliseconds).
FLAGS = {
    "rate": Flag(
        "--rate", "aggregate Poisson arrival rate in jobs/second",
        float, "JOBS_PER_S",
    ),
    "tenants": Flag(
        "--tenants", "tenant count; trace arrivals name their own tenants",
        int, "N",
    ),
    "slo": Flag(
        "--slo", "per-tenant sojourn-time SLO in milliseconds", float, "MS"
    ),
    "seed": Flag(
        "--seed", "arrival/workload seed (replay derives each window's "
        "seed from it); same seed -> byte-identical output", int,
    ),
    "scheduler": Flag(
        "--scheduler", "scheduling policy on every node and window",
        choices=tuple(_SCHEDULERS),
    ),
    "system": Flag(
        "--system", "device set per node: full Table III or the scaled "
        "GNN system", choices=tuple(SYSTEMS),
    ),
    "queue_limit": Flag(
        "--queue-limit", "per-tenant bounded-queue depth; overflow is shed",
        int, "N",
    ),
    "max_backlog": Flag(
        "--max-backlog", "released-but-undispatched jobs each policy may hold",
        int, "N",
    ),
    "admission": Flag(
        "--admission", "arrival-time admission: 'shed' keeps the "
        "queue-overflow-only baseline; 'predictive' rejects jobs whose "
        "predicted sojourn would miss the tenant's SLO (per node in a "
        "cluster)", choices=ADMISSIONS,
    ),
    "admission_margin": Flag(
        "--admission-margin", "admit while predicted sojourn <= SLO x "
        "FACTOR; >1 admits optimistically, <1 leaves headroom",
        float, "FACTOR",
    ),
    "horizon": Flag(
        "--horizon", "arrival-generation horizon; the run then drains",
        float, "SECONDS", default=1.0,
    ),
    "placement": Flag(
        "--placement", "cluster placement policy; 'feedback' biases "
        "least-loaded by per-node report feedback across replay windows "
        "(and rides the checkpoint), and equals it on a single run",
        choices=tuple(PLACEMENTS), default="least-loaded",
    ),
    "faults": Flag(
        "--faults", "inject a JSON device-fault plan (into every node)",
        metavar="PLAN",
    ),
    "json": Flag("--json", "write the report as JSON", metavar="PATH"),
    "max_scale": Flag(
        "--max-scale", "autoscaler ceiling as a multiple of the base pool",
        int, "N",
    ),
}


def _dest(field: str) -> str:
    """The :data:`FLAGS` key of a spec field (``--slo`` takes ms)."""
    return "slo" if field == "slo_s" else field


def _require(spec, *checks: tuple[str, bool, str]) -> None:
    """Raise a one-line ``ValueError`` for the first failed check."""
    for name, ok, rule in checks:
        if not ok:
            flag = FLAGS.get(_dest(name))
            where = f"{name} ({flag.flag})" if flag else name
            raise ValueError(f"{where} {rule}, got {getattr(spec, name)!r}")


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """The parameters a serve, cluster or replay run shares.

    The defaults are ``serve``'s; ``slo_s`` is in seconds (the
    ``--slo`` flag takes milliseconds).
    """

    seed: int = 0
    rate: float = 50.0
    tenants: int = 3
    slo_s: float = 10e-3
    scheduler: str = "adaptive"
    system: str = "full"
    queue_limit: int = 64
    max_backlog: int = 32
    admission: str = "shed"
    admission_margin: float = 1.0

    def __post_init__(self) -> None:
        _require(
            self,
            ("rate", self.rate >= 0, "must be non-negative"),
            ("tenants", self.tenants >= 1, "must be >= 1"),
            ("slo_s", self.slo_s > 0, "must be positive"),
            ("scheduler", self.scheduler in _SCHEDULERS,
             f"must be one of {sorted(_SCHEDULERS)}"),
            ("system", self.system in SYSTEMS,
             f"must be one of {sorted(SYSTEMS)}"),
            ("queue_limit", self.queue_limit >= 1, "must be >= 1"),
            ("max_backlog", self.max_backlog >= 1, "must be >= 1"),
            ("admission", self.admission in ADMISSIONS,
             f"must be one of {list(ADMISSIONS)}"),
            ("admission_margin", self.admission_margin > 0,
             "must be positive"),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_args(cls, args, **fields):
        """The spec a parsed command line describes.

        ``fields`` supplies a subclass's own fields.
        """
        shared = {
            f.name: getattr(args, _dest(f.name))
            for f in dataclasses.fields(RunSpec)
        }
        shared["slo_s"] *= 1e-3
        return cls(**shared, **fields)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a spec from :meth:`as_dict`; every field is required."""
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"{cls.__name__} wants a JSON object, "
                f"got {type(payload).__name__}"
            )
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
            )
        missing = sorted(names - set(payload))
        if missing:
            raise ValueError(
                f"{cls.__name__} misses field(s): {', '.join(missing)}"
            )
        return cls(**payload)

    # ------------------------------------------------------------------
    def build_system(self) -> MLIMPSystem:
        return SYSTEMS[self.system]()

    def tenant_names(self) -> tuple[str, ...]:
        return tuple(f"tenant-{i}" for i in range(self.tenants))

    def arrivals(self, horizon: float, seed: int | None = None) -> PoissonArrivals:
        """Poisson arrivals over the spec's tenants (``seed`` overrides)."""
        return PoissonArrivals(
            rate=self.rate,
            horizon=horizon,
            seed=self.seed if seed is None else seed,
            tenants=self.tenant_names(),
        )

    def serve_kwargs(self, names: tuple[str, ...] | None = None) -> dict:
        """The tenant, SLO and admission arguments of ``serve()``.

        The tenants are ``names`` (default :meth:`tenant_names`), and
        earlier ones weigh more (weight ``n - i``): a deliberate
        asymmetry so the weighted-fair release shows in the report.
        """
        names = self.tenant_names() if names is None else names
        tenants = [
            Tenant(
                name,
                weight=float(len(names) - i),
                queue_limit=self.queue_limit,
            )
            for i, name in enumerate(names)
        ]
        return {
            "tenants": tenants,
            "slo_s": self.slo_s,
            "admission": self.admission,
            "admission_margin": self.admission_margin,
        }


# ----------------------------------------------------------------------
def add_flag(parser, name: str, default, help: str | None = None) -> None:
    """Add the :data:`FLAGS` entry ``name`` to ``parser``.

    ``default`` is this command's default; ``help`` replaces the
    table's help where a command reads the flag differently.
    """
    flag = FLAGS[name]
    text = help or flag.help
    if default is not None:
        shown = f"{default:g}" if isinstance(default, float) else default
        text = f"{text} (default: {shown})"
    parser.add_argument(
        flag.flag,
        type=flag.type,
        metavar=flag.metavar,
        choices=flag.choices,
        default=default,
        help=text,
    )


def add_run_flags(parser, defaults: RunSpec, *extra: str) -> None:
    """Add every :class:`RunSpec` flag, plus the ``extra`` ones.

    Defaults come from ``defaults`` (a flag that is not one of its
    fields takes the table default).
    """
    names = [_dest(f.name) for f in dataclasses.fields(RunSpec)]
    for name in (*names, *extra):
        if name == "slo":
            default = defaults.slo_s * 1e3
        else:
            default = getattr(defaults, name, FLAGS[name].default)
        add_flag(parser, name, default)
