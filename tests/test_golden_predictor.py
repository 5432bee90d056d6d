"""Golden digests of the trained two-stage MLP predictor.

Each case trains :class:`MLPPredictor` on one mother graph's held-out
training jobs (``build_workload(dataset, num_batches=1, seed=0)``) and
digests the canonical JSON of ``to_dict()``: every weight, bias, Adam
moment, update counter, scaler and clamp bound.  A second digest pins
the state after two ``partial_fit`` calls on a ``from_dict`` copy, which
covers warm-started epochs, the carried Adam moments and the scaler
compensation.  The digests in ``tests/golden/predictor.json`` were
captured while the Adam step still updated each layer's weights and
biases one array at a time; the flat parameter buffer is meant to train
these bytes exactly.

Regenerate (only for a change that is *meant* to move the output,
with the reason stated in the change log) with::

    PYTHONPATH=src python tests/test_golden_predictor.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.predictor import MLPPredictor
from repro.harness.gnn import build_workload

GOLDEN = Path(__file__).parent / "golden" / "predictor.json"

DATASETS = ("collab", "citation")
PARTS = ("trained", "refit")
#: A short schedule keeps the four fits per training quick.
EPOCHS = 20


def _digest(predictor: MLPPredictor) -> str:
    text = json.dumps(predictor.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def case_digests(dataset: str) -> dict[str, str]:
    """Train on one dataset, then refit a reloaded copy twice."""
    workload = build_workload(dataset, num_batches=1, seed=0)
    predictor = MLPPredictor(epochs=EPOCHS, seed=0).train(workload.training_jobs)
    clone = MLPPredictor.from_dict(predictor.to_dict())
    fresh = workload.spmm_jobs()
    clone.partial_fit(fresh[:16])
    clone.partial_fit(fresh[16:40])
    return {"trained": _digest(predictor), "refit": _digest(clone)}


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(golden()) == sorted(DATASETS)
    assert all(sorted(parts) == sorted(PARTS) for parts in golden().values())


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("part", PARTS)
def test_predictor_bytes_unchanged(dataset, part):
    assert case_digests(dataset)[part] == golden()[dataset][part]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    digests = {name: case_digests(name) for name in DATASETS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}")
