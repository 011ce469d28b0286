"""Record the reference trajectories that ``tests/test_reference.py`` checks.

Every preset runs on its matched problem and feasible set (the table in
``adareg.suites``) at d=5, T=500 and a fixed seed.  For each preset the
archive holds the iterates ``xs``, the cumulative regret against the best
fixed point in hindsight, and the final regret bound:

    PYTHONPATH=src python3 tests/data/record_reference.py

Re-record only when a change to the numbers is intended, and say why in
the commit that does it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from adareg.engine import run
from adareg.oracles import regret_bound
from adareg.problems import best_fixed_comparator, make_problem, regret
from adareg.suites import _matched_setups, build_matched_preset

DIM = 5
HORIZON = 500
SEED = 2017
ARCHIVE = Path(__file__).resolve().parent / "reference_trajectories.npz"


def trajectory(algo_id):
    """{"xs", "cum_regret", "bound"} of one preset on its matched problem."""
    problem_id, fset = _matched_setups(DIM)[algo_id]
    problem = make_problem(problem_id, DIM, SEED, fset, validate=False)
    preset = build_matched_preset(algo_id, fset, problem, horizon=HORIZON)
    result = run(preset.config, problem, HORIZON)
    x_star, _ = best_fixed_comparator(problem, HORIZON)
    record = regret(result, problem, x_star)
    cert = regret_bound(preset.algo_id, preset.bound_params, result, record.final_regret)
    return {"xs": result.xs, "cum_regret": record.cum_regret, "bound": np.array(cert.bound)}


if __name__ == "__main__":
    arrays = {
        f"{algo_id}.{name}": value
        for algo_id in _matched_setups(DIM)
        for name, value in trajectory(algo_id).items()
    }
    np.savez_compressed(ARCHIVE, **arrays)
    print(f"wrote {ARCHIVE}")
