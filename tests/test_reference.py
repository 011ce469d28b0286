"""Pin every preset's trajectory against the committed reference archive.

``data/reference_trajectories.npz`` was written by ``data/record_reference.py``;
each preset is rerun here on its matched problem and compared at a tolerance
far below any change to the update rule, so a refactor cannot drift unnoticed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("record_reference", DATA / "record_reference.py")
record_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_reference)

TOL = 1e-9


@pytest.fixture(scope="module")
def archive():
    with np.load(record_reference.ARCHIVE) as stored:
        return {name: stored[name] for name in stored.files}


@pytest.mark.parametrize("algo_id", sorted(record_reference._matched_setups(record_reference.DIM)))
def test_trajectory_matches_reference(archive, algo_id):
    fresh = record_reference.trajectory(algo_id)
    for name, value in fresh.items():
        np.testing.assert_allclose(
            value, archive[f"{algo_id}.{name}"], rtol=TOL, atol=TOL, err_msg=f"{algo_id}.{name}"
        )


def test_archive_covers_every_preset(archive):
    expected = {
        f"{algo_id}.{name}"
        for algo_id in record_reference._matched_setups(record_reference.DIM)
        for name in ("xs", "cum_regret", "bound")
    }
    assert set(archive) == expected
