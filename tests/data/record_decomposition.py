"""Record the regret-decomposition terms that ``tests/test_decomposition_reference.py`` checks.

Every preset runs on its matched problem and feasible set at the setting of
``record_reference.py`` (d=5, T=500, seed 2017).  For each preset the archive
holds three readings of the run's decomposition at the best fixed point x*:

* ``deltas``: the per-round telescoping distances Delta_t(x*) of ``regret``;
* ``mirror``: ``mirror_descent_lemma_check``'s (worst, cumulative) slack;
* ``theorem1``: ``theorem1_check(..., x_refs=[x*]).worst_margin``.

    PYTHONPATH=src python3 tests/data/record_decomposition.py

Re-record only when a change to these numbers is intended, and say why in
the commit that does it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from adareg.engine import run
from adareg.oracles import mirror_descent_lemma_check, theorem1_check
from adareg.problems import best_fixed_comparator, make_problem, regret
from adareg.suites import _matched_setups, build_matched_preset

DIM = 5
HORIZON = 500
SEED = 2017
ARCHIVE = Path(__file__).resolve().parent / "reference_decomposition.npz"
NAMES = ("deltas", "mirror", "theorem1")


def decomposition(algo_id):
    """{"deltas", "mirror", "theorem1"} of one preset on its matched problem."""
    problem_id, fset = _matched_setups(DIM)[algo_id]
    problem = make_problem(problem_id, DIM, SEED, fset, validate=False)
    preset = build_matched_preset(algo_id, fset, problem, horizon=HORIZON)
    x_star, _ = best_fixed_comparator(problem, HORIZON)
    problem.watch(x_star[None, :], HORIZON)
    result = run(preset.config, problem, HORIZON)
    _, worst, cumulative = mirror_descent_lemma_check(result, x_star)
    report = theorem1_check(result, problem, x_refs=[x_star])
    return {
        "deltas": regret(result, problem, x_star).deltas,
        "mirror": np.array([worst, cumulative]),
        "theorem1": np.array(report.worst_margin),
    }


if __name__ == "__main__":
    arrays = {
        f"{algo_id}.{name}": value
        for algo_id in _matched_setups(DIM)
        for name, value in decomposition(algo_id).items()
    }
    np.savez_compressed(ARCHIVE, **arrays)
    print(f"wrote {ARCHIVE}")
