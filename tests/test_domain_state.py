"""The engine's per-domain regularizer state against a dense reference.

The engine keeps the accumulator in the form its domain reads (the dense
matrix, its diagonal, or its trace) and never builds a validated matrix
inside a round.  These tests replay random gradient sequences through an
inline dense implementation of the same update and through the numeric
mirror-step argmin, and pin what ``state.g_mat`` means in each domain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adareg import linalg
from adareg.engine import AdaRegConfig, init, mirror_step_argmin, run, step
from adareg.linalg import SymmetricMatrix
from adareg.potentials import AdaGradPotential, OnsPotential, PNormPotential, RegularizerDomain
from adareg.presets import make_preset
from adareg.problems import make_problem
from adareg.sets import Ball, Box, Unconstrained, project

POTENTIALS = {
    "inverse-trace": lambda rng: AdaGradPotential(eta=float(rng.uniform(0.3, 2.0))),
    "log-det": lambda rng: OnsPotential(beta=float(rng.uniform(0.3, 2.0))),
    "inverse-power": lambda rng: PNormPotential(
        eta=float(rng.uniform(0.3, 2.0)), p=float(rng.choice([0.5, 2.0, 4.0]))
    ),
}


def make_set(kind, dim, rng):
    if kind == "ball":
        return Ball(np.zeros(dim), float(rng.uniform(0.2, 1.5)))
    if kind == "box":
        half = rng.uniform(0.2, 1.0, size=dim)
        return Box(-half, half)
    return Unconstrained(dim=dim)


def dense_reference_step(config, g_dense, x, g):
    """One round through dense matrices: (G_t, H_t, x_{t+1})."""
    d = config.dim
    g_dense = g_dense + np.outer(g, g)
    if config.domain is RegularizerDomain.FULL:
        seen = g_dense
    elif config.domain is RegularizerDomain.DIAGONAL:
        seen = np.diag(np.diag(g_dense))
    else:
        seen = np.trace(g_dense) / d * np.eye(d)
    lam, u = np.linalg.eigh(seen)
    h_lam = np.asarray(config.potential.phi_prime_inverse(lam), dtype=float)
    h = u @ np.diag(h_lam) @ u.T
    h_inv = u @ np.diag(1.0 / h_lam) @ u.T
    x_next = project(x - h @ g, config.feasible_set, SymmetricMatrix((h_inv + h_inv.T) / 2.0))
    return g_dense, h, x_next


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=1, max_value=6),
    domain=st.sampled_from(list(RegularizerDomain)),
    family=st.sampled_from(sorted(POTENTIALS)),
    set_kind=st.sampled_from(["ball", "box", "none"]),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_step_matches_dense_reference(seed, dim, domain, family, set_kind, rounds):
    rng = np.random.default_rng(seed)
    fset = make_set(set_kind, dim, rng)
    epsilon = float(rng.uniform(0.05, 1.0))
    config = AdaRegConfig(
        potential=POTENTIALS[family](rng),
        domain=domain,
        feasible_set=fset,
        x1=fset.center_point(),
        g0=SymmetricMatrix.identity(dim, epsilon),
    )
    state = init(config)
    g_dense = config.g0.mat
    for _ in range(rounds):
        g = rng.uniform(-2.0, 2.0, size=dim)
        g_dense, h_ref, x_ref = dense_reference_step(config, g_dense, state.x, g)
        nxt = step(state, g)
        np.testing.assert_allclose(nxt.h_mat.mat, h_ref, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(nxt.x, x_ref, rtol=1e-9, atol=1e-9)
        via_argmin = mirror_step_argmin(state.x, g, nxt.h_mat, fset)
        np.testing.assert_allclose(nxt.x, via_argmin, atol=1e-6)
        state = nxt


@pytest.mark.parametrize("domain", list(RegularizerDomain))
def test_g_mat_is_the_accumulator_as_the_domain_sees_it(domain, rng):
    dim = 3
    config = AdaRegConfig(
        potential=AdaGradPotential(eta=1.0),
        domain=domain,
        feasible_set=Unconstrained(dim=dim),
        x1=np.zeros(dim),
        g0=SymmetricMatrix.identity(dim, 0.5),
    )
    state = init(config)
    g_dense = config.g0.mat
    for _ in range(4):
        g = rng.standard_normal(dim)
        g_dense = g_dense + np.outer(g, g)
        state = step(state, g)
    expected = {
        RegularizerDomain.FULL: g_dense,
        RegularizerDomain.DIAGONAL: np.diag(np.diag(g_dense)),
        RegularizerDomain.ISOTROPIC: np.trace(g_dense) / dim * np.eye(dim),
    }[domain]
    np.testing.assert_allclose(state.g_mat.mat, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "algo_id,set_kind",
    [
        ("adagrad-full", "ball"),
        ("adagrad-diag", "box"),
        ("adagrad-diag", "ball"),
        ("adaptive-ogd", "ball"),
    ],
)
def test_rounds_build_no_validated_matrix(algo_id, set_kind, monkeypatch):
    dim = 4
    if set_kind == "ball":
        fset = Ball(np.zeros(dim), 1.0)
    else:
        fset = Box(-0.5 * np.ones(dim), 0.5 * np.ones(dim))
    problem = make_problem("adv-linear", dim, 3, fset)
    config = make_preset(algo_id, fset).config
    built = []
    original = linalg.SymmetricMatrix.__init__

    def counting_init(self, entries):
        built.append(1)
        original(self, entries)

    monkeypatch.setattr(linalg.SymmetricMatrix, "__init__", counting_init)
    result = run(config, problem, 50)
    assert result.h_defined.all()
    assert built == []
