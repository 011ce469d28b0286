"""Adaptive regularization for online convex optimization.

The package implements a family of online learners that choose a full
matrix step size each round by minimizing a spectral potential over the
accumulated gradient outer products, together with the problem
generators, verification oracles and command-line harness used to check
their regret guarantees numerically.
"""

from .engine import AdaRegConfig, AdaRegState, RunResult, init, mirror_step_argmin, run, step
from .errors import (
    AdaRegError,
    ConfigError,
    ConvergenceError,
    DomainError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import (
    SpectralDecomposition,
    SymmetricMatrix,
    eig_sym,
    matrix_power_psd,
    psd_geq,
    rank_one_update,
)
from .potentials import (
    AdaGradPotential,
    OnsPotential,
    PNormPotential,
    RegularizerDomain,
    solve_regularizer,
)
from .presets import (
    Preset,
    adagrad_diag,
    adagrad_full,
    adaptive_ogd,
    build_preset,
    make_preset,
    ons_diag,
    ons_full,
    optimal_pnorm_eta,
    pnorm,
    sc_ogd,
)
from .problems import (
    OnlineProblem,
    RegretRecord,
    best_fixed_comparator,
    check_coordinatewise_exp_concave,
    check_exp_concave,
    check_strongly_convex,
    make_problem,
    online_to_batch,
    regret,
)
from .sets import Ball, Box, FeasibleSet, Unconstrained, project

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
