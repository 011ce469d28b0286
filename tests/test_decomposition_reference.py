"""Pin every preset's regret-decomposition terms against the committed archive.

``data/reference_decomposition.npz`` was written by
``data/record_decomposition.py``: per preset, the telescoping distances
Delta_t(x*), the mirror-descent lemma's slacks and Theorem 1's worst margin
at the best fixed point x*.  A change to how a run records what these terms
read must leave them equal up to round-off.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location(
    "record_decomposition", DATA / "record_decomposition.py"
)
record_decomposition = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_decomposition)

TOL = 1e-9
ALGO_IDS = sorted(record_decomposition._matched_setups(record_decomposition.DIM))


@pytest.fixture(scope="module")
def archive():
    with np.load(record_decomposition.ARCHIVE) as stored:
        return {name: stored[name] for name in stored.files}


@pytest.mark.parametrize("algo_id", ALGO_IDS)
def test_decomposition_matches_reference(archive, algo_id):
    fresh = record_decomposition.decomposition(algo_id)
    for name, value in fresh.items():
        np.testing.assert_allclose(
            value, archive[f"{algo_id}.{name}"], rtol=TOL, atol=TOL, err_msg=f"{algo_id}.{name}"
        )


def test_archive_covers_every_preset(archive):
    expected = {f"{a}.{name}" for a in ALGO_IDS for name in record_decomposition.NAMES}
    assert set(archive) == expected
