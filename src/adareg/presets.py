"""Named algorithm instances with their standard parameter choices.

Each preset fixes a potential, a regularizer domain and the accumulator
seed, following the tuning that yields the classical regret guarantees:

============  =============  =========  ========================  =================================
preset        potential      domain     parameters                bound
============  =============  =========  ========================  =================================
adagrad-full  inverse trace  full       eta = b / sqrt(2),        (eta + b^2/(2 eta)) tr G^(1/2)
                                        G0 = eps * I
adagrad-diag  inverse trace  diagonal   eta = b_inf / sqrt(2),    (eta + b_inf^2/(2 eta))
                                        G0 = eps * I              * sum_i G_ii^(1/2)
adaptive-ogd  inverse trace  isotropic  eta = c / sqrt(d),        (c + b^2/(2 c)) sqrt(sum |g|^2)
                                        c = b / sqrt(2), G0 = 0
pnorm         inverse power  full       eta free (default         eta (p+1)/(2p) tr G^(p/(p+1))
                                        b / sqrt(2)), p = 2,      + b^2/(2 eta) tr G^(1/(p+1))
                                        G0 = eps * I
ons-full      log det        full       eps = d / (beta^2 b^2)    d/beta (1 + log((beta gamma b)^2
                                                                  T / d))
ons-diag      log det        diagonal   eps = d / (beta^2 b^2)    as ons-full
sc-ogd        log det        isotropic  beta = alpha d/gamma^2,   gamma^2/alpha (8 + log T)
                                        eps = gamma^2,
                                        G0 = (eps / d) * I
============  =============  =========  ========================  =================================

Here ``b`` / ``b_inf`` are the Euclidean / infinity diameters of the
feasible set (taken from the set when not supplied), ``gamma`` a bound
on gradient norms, ``alpha`` the strong-convexity and ``beta`` the
exp-concavity constant of the loss family; ``G`` and ``T`` are the
accumulator and round count at the prefix bounded.  Without ``eta``
(``c``) a bound takes the minimizing one.  Constants that only enter the
bounds are carried along in ``bound_params``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .engine import AdaRegConfig
from .errors import ConfigError, DomainError, ValidationError
from .linalg import SymmetricMatrix, clamp_spectrum
from .potentials import AdaGradPotential, OnsPotential, PNormPotential, RegularizerDomain
from .sets import FeasibleSet

DEFAULT_EPSILON = 1e-8
DEFAULT_P = 2.0


@dataclass(frozen=True)
class Preset:
    """A ready-to-run configuration plus the constants its regret bound uses."""

    algo_id: str
    config: AdaRegConfig
    bound_params: dict = field(default_factory=dict)


def _resolve_x1(fset: FeasibleSet, x1) -> np.ndarray:
    return fset.center_point() if x1 is None else np.asarray(x1, dtype=float)


def _diameter(fset: FeasibleSet, b: Optional[float], norm: str, name: str) -> float:
    if b is not None:
        if not (b > 0 and math.isfinite(b)):
            raise ConfigError(f"{name} must be positive and finite, got {b}")
        return float(b)
    return fset.diameter(norm)


def _eta_scaled(algo_id, potential, domain, fset, x1, b, b_name, norm, epsilon, eta, **params):
    """A preset whose potential is ``potential(eta)``, eta defaulting to b / sqrt(2)."""
    if not (epsilon >= 0.0 and math.isfinite(epsilon)):
        raise ConfigError(f"epsilon must be nonnegative and finite, got {epsilon}")
    b = _diameter(fset, b, norm, b_name)
    if eta is None:
        eta = b / math.sqrt(2.0)
    config = AdaRegConfig(
        potential=potential(eta),
        domain=domain,
        feasible_set=fset,
        x1=_resolve_x1(fset, x1),
        g0=SymmetricMatrix.identity(fset.dim, epsilon),
    )
    return Preset(algo_id, config, {b_name: b, "eta": eta, **params})


def adagrad_full(fset, x1=None, b=None, epsilon=DEFAULT_EPSILON, eta=None) -> Preset:
    """Full-matrix step sizes proportional to the inverse root of G_t."""
    return _eta_scaled(
        "adagrad-full", AdaGradPotential, RegularizerDomain.FULL, fset, x1, b, "b", "euclidean",
        epsilon, eta,
    )


def adagrad_diag(fset, x1=None, b_inf=None, epsilon=DEFAULT_EPSILON, eta=None) -> Preset:
    """Per-coordinate step sizes from the diagonal of the accumulator."""
    return _eta_scaled(
        "adagrad-diag", AdaGradPotential, RegularizerDomain.DIAGONAL, fset, x1, b_inf, "b_inf",
        "infinity", epsilon, eta,
    )


def adaptive_ogd(fset, x1=None, c=None, b=None) -> Preset:
    """Scalar step size c / sqrt(sum of squared gradient norms); G0 = 0."""
    b = _diameter(fset, b, "euclidean", "b")
    if c is None:
        c = b / math.sqrt(2.0)
    elif not (c > 0 and math.isfinite(c)):
        raise ConfigError(f"c must be positive and finite, got {c}")
    d = fset.dim
    config = AdaRegConfig(
        potential=AdaGradPotential(eta=c / math.sqrt(d)),
        domain=RegularizerDomain.ISOTROPIC,
        feasible_set=fset,
        x1=_resolve_x1(fset, x1),
        g0=SymmetricMatrix.zero(d),
    )
    return Preset("adaptive-ogd", config, {"b": b, "c": c})


def pnorm(fset, p=DEFAULT_P, x1=None, b=None, eta=None, epsilon=DEFAULT_EPSILON) -> Preset:
    """Full-matrix step sizes proportional to G_t^(-1/(p+1)).

    ``eta`` defaults to b / sqrt(2), the value that is optimal at p = 1.
    :func:`build_preset` instead supplies the eta that optimizes the bound
    when the final accumulator is known in advance.
    """
    return _eta_scaled(
        "pnorm", lambda eta: PNormPotential(eta=eta, p=p), RegularizerDomain.FULL, fset, x1, b,
        "b", "euclidean", epsilon, eta, p=p,
    )


def optimal_pnorm_eta(b: float, p: float, g_spectrum: np.ndarray) -> float:
    """The eta minimizing the p-family regret bound for a known spectrum."""
    lam = np.asarray(g_spectrum, dtype=float)
    num = float(np.sum(lam ** (1.0 / (p + 1.0))))
    den = float(np.sum(lam ** (p / (p + 1.0))))
    if den <= 0.0:
        raise ConfigError("cannot tune eta: accumulator spectrum is zero")
    return b * math.sqrt(p / (p + 1.0) * num / den)


def oblivious_final_spectrum(problem, fset, horizon, epsilon=DEFAULT_EPSILON):
    """Spectrum of eps*I + sum g_t g_t' for an iterate-independent stream."""
    d = fset.dim
    g_sum = epsilon * np.eye(d)
    for (g,) in problem.blocks(1, horizon + 1):
        g_sum += g.T @ g
    return np.linalg.eigvalsh(g_sum)


def _ons_like(algo_id, domain, fset, beta, x1, b, gamma) -> Preset:
    if not (beta > 0 and math.isfinite(beta)):
        raise ConfigError(f"beta must be positive and finite, got {beta}")
    b = _diameter(fset, b, "euclidean", "b")
    d = fset.dim
    epsilon = d / (beta**2 * b**2)
    config = AdaRegConfig(
        potential=OnsPotential(beta=beta),
        domain=domain,
        feasible_set=fset,
        x1=_resolve_x1(fset, x1),
        g0=SymmetricMatrix.identity(d, epsilon),
    )
    params = {"beta": beta, "b": b, "d": d}
    if gamma is not None:
        params["gamma"] = gamma
    return Preset(algo_id, config, params)


def ons_full(fset, beta, x1=None, b=None, gamma=None) -> Preset:
    """Full-matrix inverse-accumulator steps for exp-concave losses."""
    return _ons_like("ons-full", RegularizerDomain.FULL, fset, beta, x1, b, gamma)


def ons_diag(fset, beta, x1=None, b=None, gamma=None) -> Preset:
    """Diagonal inverse-accumulator steps for coordinatewise exp-concave losses."""
    return _ons_like("ons-diag", RegularizerDomain.DIAGONAL, fset, beta, x1, b, gamma)


def sc_ogd(fset, alpha, gamma, x1=None) -> Preset:
    """Gradient descent with the 1/t-style step schedule for strongly convex losses.

    The scalar step at round t is (d / beta) / (eps + sum of squared
    gradient norms) with beta = alpha d / gamma^2 and eps = gamma^2.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ConfigError(f"alpha must be positive and finite, got {alpha}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")
    d = fset.dim
    beta = alpha * d / gamma**2
    epsilon = gamma**2
    config = AdaRegConfig(
        potential=OnsPotential(beta=beta),
        domain=RegularizerDomain.ISOTROPIC,
        feasible_set=fset,
        x1=_resolve_x1(fset, x1),
        g0=SymmetricMatrix.identity(d, epsilon / d),
    )
    return Preset("sc-ogd", config, {"alpha": alpha, "gamma": gamma, "beta": beta, "d": d})


# Bound formulas: bound_params plus one prefix statistic of a run (spectra
# (n, d), cumulative squared gradient norms (n,) or prefix lengths (n,)) to
# one bound per prefix.


def _psd_rows(spectra) -> np.ndarray:
    """A copy of the spectra as rows, each row's round-off band clamped."""
    lam = clamp_spectrum(np.atleast_2d(np.asarray(spectra, dtype=float)))
    if (lam < 0.0).any():
        raise DomainError("accumulator spectrum must be nonnegative")
    return lam


def _eta_explicit(eta, b, s):
    """(eta + b^2/(2 eta)) s, or its minimum sqrt(2) b s when eta is None."""
    if eta is None:
        return math.sqrt(2.0) * b * s
    return (eta + b * b / (2.0 * eta)) * s


def _adagrad_bound(b_name):
    def bound(q, spectra):
        lam = _psd_rows(spectra)
        root_trace = np.sqrt(lam, out=lam).sum(axis=1)
        return _eta_explicit(q.get("eta"), q[b_name], root_trace)

    return bound


def _pnorm_traces(spectra, p):
    """tr G^(1/(p+1)) and tr G^(p/(p+1)) per row, through one (n, d) buffer."""
    lam = _psd_rows(spectra)
    t1 = np.power(lam, 1.0 / (p + 1.0), out=lam).sum(axis=1)
    return t1, np.power(lam, p, out=lam).sum(axis=1)


def _pnorm_bound(q, spectra):
    p, b, eta = q["p"], q["b"], q.get("eta")
    t1, t2 = _pnorm_traces(spectra, p)
    if eta is None:
        return b * np.sqrt((p + 1.0) / p * t1 * t2)
    return eta * (p + 1.0) / (2.0 * p) * t2 + b * b / (2.0 * eta) * t1


def _ons_bound(q, horizons):
    beta, gamma, b, d = q["beta"], q["gamma"], q["b"], q["d"]
    return d / beta * (1.0 + np.log((beta * gamma * b) ** 2 * horizons / d))


def _tuned_pnorm_eta(fset, problem, horizon, kw) -> dict:
    """The bound-minimizing eta when the final accumulator is known in advance."""
    if "eta" in kw or horizon is None or not problem.oblivious:
        return {}
    eps = kw.get("epsilon", DEFAULT_EPSILON)
    spectrum = oblivious_final_spectrum(problem, fset, horizon, epsilon=eps)
    b = fset.diameter("euclidean")
    return {"eta": optimal_pnorm_eta(b, kw.get("p", DEFAULT_P), spectrum)}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the package states about one algorithm; :data:`ALGORITHMS` holds them."""

    builder: Callable[..., Preset]
    matched: Tuple[str, str]  # (problem family, set kind) its bound is verified on
    reads: str  # the prefix statistic of the bound: "spectra", "sum_sq" or "horizons"
    bound: Callable[[dict, np.ndarray], np.ndarray]
    options: Mapping[str, str] = field(default_factory=dict)  # run flag -> builder keyword
    # (keyword, problem attribute, usage error when neither supplies it)
    constants: Tuple[Tuple[str, str, str], ...] = ()
    tune: Optional[Callable[..., dict]] = None  # builder keywords derived from the problem

    @property
    def flags(self) -> frozenset:
        """The run flags the algorithm reads: its options and its constants."""
        return frozenset(self.options).union(name for name, _, _ in self.constants)


def _needs(algo_id, flag, what):
    return f"{algo_id} needs --{flag} (the problem declares no {what} constant)"


_ADAGRAD_OPTIONS = {"eta": "eta", "epsilon": "epsilon"}

ALGORITHMS = {
    "adagrad-full": AlgorithmSpec(
        adagrad_full, ("adv-linear", "ball"), "spectra", _adagrad_bound("b"), _ADAGRAD_OPTIONS
    ),
    "adagrad-diag": AlgorithmSpec(
        adagrad_diag, ("adv-linear", "box"), "spectra", _adagrad_bound("b_inf"), _ADAGRAD_OPTIONS
    ),
    "adaptive-ogd": AlgorithmSpec(
        adaptive_ogd, ("adv-linear", "ball"), "sum_sq",
        lambda q, sum_sq: _eta_explicit(q.get("c"), q["b"], np.sqrt(sum_sq)),
        options={"eta": "c"},
    ),
    "pnorm": AlgorithmSpec(
        pnorm, ("adv-linear", "ball"), "spectra", _pnorm_bound,
        options=dict(_ADAGRAD_OPTIONS, p="p"), tune=_tuned_pnorm_eta,
    ),
    "ons-full": AlgorithmSpec(
        ons_full, ("sq-loss", "ball"), "horizons", _ons_bound,
        constants=(("beta", "beta", _needs("ons-full", "beta", "exp-concavity")),),
    ),
    "ons-diag": AlgorithmSpec(
        ons_diag, ("coord-sq", "box"), "horizons", _ons_bound,
        constants=(("beta", "beta_coo", _needs("ons-diag", "beta", "exp-concavity")),),
    ),
    "sc-ogd": AlgorithmSpec(
        sc_ogd, ("rot-quad", "ball"), "horizons",
        lambda q, horizons: q["gamma"] ** 2 / q["alpha"] * (8.0 + np.log(horizons)),
        constants=(
            ("alpha", "alpha", _needs("sc-ogd", "alpha", "strong-convexity")),
            ("gamma", "gamma", _needs("sc-ogd", "gamma", "gradient-norm")),
        ),
    ),
}

PRESET_BUILDERS = {algo_id: spec.builder for algo_id, spec in ALGORITHMS.items()}


def algorithm_spec(algo_id: str) -> AlgorithmSpec:
    """The registry entry of an algorithm; unknown names are a config error."""
    try:
        return ALGORITHMS[algo_id]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigError(f"unknown algorithm {algo_id!r}; known: {known}") from None


def make_preset(algo_id: str, fset: FeasibleSet, **params) -> Preset:
    """Build a preset by registry name; see the module table for parameters."""
    return algorithm_spec(algo_id).builder(fset, **params)


def build_preset(algo_id, fset, problem, horizon=None, **overrides) -> Preset:
    """A preset wired to a problem, each constant from an override or the problem.

    ``overrides`` are keyed by run flag; ``None`` values are ignored, and a
    flag the algorithm neither takes as an option nor as a constant is a
    :class:`ValidationError` naming it.  ``horizon`` lets pnorm tune its
    eta to an oblivious stream.  ``bound_params`` gains the problem's gamma.
    """
    spec = algorithm_spec(algo_id)
    unused = sorted({k for k, v in overrides.items() if v is not None} - spec.flags)
    if unused:
        flags = ", ".join(f"--{k}" for k in unused)
        raise ValidationError(f"{algo_id} takes no {flags}")
    kw = {spec.options[k]: v for k, v in overrides.items() if k in spec.options and v is not None}
    for name, attribute, missing in spec.constants:
        value = overrides.get(name)
        value = getattr(problem, attribute) if value is None else value
        if value is None:
            raise ValidationError(missing)
        kw[name] = value
    if spec.tune is not None:
        kw.update(spec.tune(fset, problem, horizon, kw))
    preset = make_preset(algo_id, fset, **kw)
    return Preset(preset.algo_id, preset.config, {"gamma": problem.gamma, **preset.bound_params})
