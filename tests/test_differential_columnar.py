"""Golden gates for the batch simulation hot path.

The dispatcher runs every job's fill -> replicate -> compute chain
through one columnar flight table.  These gates hold its output
**byte-identical** to the committed digests in
``tests/golden/batch.json`` (see :mod:`tests.test_golden_batch`):
same traces, same reports, same exported payloads -- across the
Fig. 11/15/19 bench scenarios, under a seeded fault plan, and in a
seeded open-system serving run.
"""

import pytest

from tests.prophelpers import SCHEDULERS
from tests.test_golden_batch import case_digest, golden_digest


def assert_golden(case: str) -> None:
    assert case_digest(case) == golden_digest(case), case


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", (0, 7))
def test_batch_traces_byte_identical(scheduler, seed):
    assert_golden(f"batch-{seed}-{scheduler}")


@pytest.mark.parametrize("combo", ("A", "D"))
def test_fig19_combo_traces_byte_identical(combo):
    assert_golden(f"combo-{combo}-global")


def test_fig11_scenario_identical():
    assert_golden("fig11-collab")


def test_fig15_scenario_identical():
    assert_golden("fig15-collab")


def test_fig19_scenario_identical():
    assert_golden("fig19-AB")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_seeded_fault_run_byte_identical(scheduler):
    assert_golden(f"faults-{scheduler}")


def test_seeded_serving_report_byte_identical():
    assert_golden("serve-adaptive")
