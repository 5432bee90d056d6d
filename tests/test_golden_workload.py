"""Golden digests of GNN workload construction.

``build_workload`` samples k-hop subgraphs from a mother graph and
lowers them into SpMM/GEMM/Vadd jobs.  Each case reduces one built
workload to sha256 digests of its parts: the mother graph's CSR
arrays, every sampled subgraph (CSR arrays, name, ``global_nodes`` and
``query_nodes``), every batch job (id, kernel, per-memory profiles,
tags and metadata) and the predictor's training jobs.  The digests in
``tests/golden/workload.json`` were captured while subgraph extraction
still gathered, filtered and lexsorted every arc of each kept row and
every SpMM job counted its strip populations twice per memory with
``np.unique``; the faster extraction and strip count are meant to
build these bytes exactly.

``tests/golden/graphs.json`` pins the CSR bytes of every Table I mother
graph and of two small ``barabasi_albert`` cases (fixed ``m``, and one
that reaches the uniform top-up branch), captured while each vertex's
targets were still de-duplicated with ``np.unique``.

Regenerate (only for a change that is *meant* to move the output,
with the reason stated in the change log) with::

    PYTHONPATH=src python tests/test_golden_workload.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.gnn import DATASETS, barabasi_albert, generate
from repro.harness.gnn import build_workload

GOLDEN = Path(__file__).parent / "golden" / "workload.json"
GRAPHS = Path(__file__).parent / "golden" / "graphs.json"

#: case -> (dataset, num_batches, seed) of ``build_workload``.
CASES = {
    "collab-2x-seed0": ("collab", 2, 0),
    "citation-1x-seed3": ("citation", 1, 3),
}

PARTS = ("mother_graph", "subgraphs", "jobs", "training_jobs")

#: case -> ``barabasi_albert`` keyword arguments, besides the Table I
#: mother graphs.  ``ba-top-up`` draws too few distinct targets for
#: some vertices, so it reaches the uniform top-up picks;
#: ``ba-seed-clique`` grows no vertex past its seed clique.
GENERATOR_CASES = {
    "ba-fixed-m": {"nodes": 200, "m": 4, "seed": 1, "variable_m": False},
    "ba-top-up": {"nodes": 40, "m": 6, "seed": 1},
    "ba-seed-clique": {"nodes": 3, "m": 2, "seed": 1},
}


def _canon(value):
    """JSON-ready form of a workload value: exact floats, arrays as
    their dtype, shape and byte digest."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(_canon(k)): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _digest(payload) -> str:
    text = json.dumps(_canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _graph(graph) -> dict:
    return {
        "indptr": graph.indptr,
        "indices": graph.indices,
        "num_nodes": graph.num_nodes,
        "name": graph.name,
    }


def _job(job) -> dict:
    return {
        "job_id": job.job_id,
        "kernel": job.kernel,
        "profiles": job.profiles,
        "tags": job.tags,
        "metadata": job.metadata,
    }


@lru_cache(maxsize=None)
def case_digests(case: str) -> dict[str, str]:
    """Build one case's workload and digest each of its parts."""
    dataset, num_batches, seed = CASES[case]
    workload = build_workload(dataset, num_batches=num_batches, seed=seed)
    subgraphs = [
        {
            "graph": _graph(sub.graph),
            "global_nodes": sub.global_nodes,
            "query_nodes": sub.query_nodes,
            "hops": sub.hops,
        }
        for batch in workload.batches
        for sub in batch
    ]
    return {
        "mother_graph": _digest(_graph(generate(dataset))),
        "subgraphs": _digest(subgraphs),
        "jobs": _digest([[_job(job) for job in jobs] for jobs in workload.jobs_per_batch]),
        "training_jobs": _digest([_job(job) for job in workload.training_jobs]),
    }


class _CountingRng:
    """A generator that counts its ``choice`` calls (the top-up picks)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def graph_digests() -> dict[str, str]:
    """Digest every mother graph and every generator case."""
    out = {name: _digest(_graph(generate(name))) for name in DATASETS}
    for name, kwargs in GENERATOR_CASES.items():
        out[name] = _digest(_graph(barabasi_albert(name=name, **kwargs)))
    return out


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def golden_graphs() -> dict:
    return json.loads(GRAPHS.read_text())


def test_golden_file_covers_every_case():
    assert sorted(golden()) == sorted(CASES)
    assert all(sorted(parts) == sorted(PARTS) for parts in golden().values())


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("part", PARTS)
def test_workload_bytes_unchanged(case, part):
    assert case_digests(case)[part] == golden()[case][part]


def test_graph_golden_covers_every_case():
    assert sorted(golden_graphs()) == sorted([*DATASETS, *GENERATOR_CASES])


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_mother_graph_bytes_unchanged(name):
    assert _digest(_graph(generate(name))) == golden_graphs()[name]


@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generator_bytes_unchanged(case, monkeypatch):
    rngs: list[_CountingRng] = []
    make = np.random.default_rng

    def counting(*args, **kwargs):
        rngs.append(_CountingRng(make(*args, **kwargs)))
        return rngs[-1]

    monkeypatch.setattr(np.random, "default_rng", counting)
    graph = barabasi_albert(name=case, **GENERATOR_CASES[case])
    assert _digest(_graph(graph)) == golden_graphs()[case]
    assert len(rngs) == 1
    assert (rngs[0].choice_calls > 0) == (case == "ba-top-up")


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    digests = {name: case_digests(name) for name in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
    graphs = graph_digests()
    GRAPHS.write_text(json.dumps(graphs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(graphs)} graphs to {GRAPHS}")
