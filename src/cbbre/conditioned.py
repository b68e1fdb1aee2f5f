"""Conditioned processes: the Q-process and conditioning on extinction.

For m <= 0 the process conditioned to survive forever (Q-process) is the
Doob h-transform with martingale D_t = e^{theta t} U(Z_t), where U is the
regime-dependent survival constant viewed as a function of the initial mass
and theta the matching exponential rate; both are read from the regime
table of ``longterm``, which also gives the survival constants.  For m > 0
the process conditioned on eventual extinction is the h-transform with the
bounded martingale U_*(Z_t), U_* being the exact extinction probability,
the table's Gamma limit E[exp(-z k Gamma_{-eta}^{1/beta})] (exactly 1 at
z = 0).

All series appearing in the constants are evaluated through their
Gamma-expectation integral forms; reweighting of simulated paths is the
default route to Q-process functionals, with the generator identification
as a stable process-with-immigration available on the linear-U branches
(m <= -sigma^2) as an independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .environment import MCEstimate, _density_rule, _mc_estimate, mc_log_exp_functionals
from .errors import ParameterError, RegimeError
from .longterm import (
    AsymptoticConstant,
    _gamma_limit,
    _phi_weights,
    _regime_table,
    extinction_prob_exact_stable,
)
from .mechanisms import (
    ConditionedRegime,
    EnvParams,
    Feller,
    ImmigrationMechanism,
    Mechanism,
    StableImmigration,
    classify_regime,
)
from .numerics import _gamma_rule, _row_sums, gamma_power_laplace

__all__ = [
    "U",
    "U_vectorized",
    "theta",
    "qprocess_weights",
    "U_star",
    "U_star_vectorized",
    "conditioned_survival",
    "asympt_conditioned_constant",
    "qprocess_as_cbibre",
    "QprocessCbibre",
    "h_fn",
    "h_bounds",
]


# ---------------------------------------------------------------------------
# U, theta and the Q-process weights (m <= 0)
# ---------------------------------------------------------------------------


def _require_subcritical(env: EnvParams):
    if env.beta <= 0:
        raise ParameterError("the Q-process is defined for beta in (0,1]")
    if env.m > 0:
        raise RegimeError("U and theta require m <= 0 (condition on non-extinction)")


def U_vectorized(env: EnvParams):
    """The h-transform weight U as a vectorized callable of the state: the
    survival constant's function of z from the regime table of `longterm`
    (cached per parameter set)."""
    _require_subcritical(env)
    return _regime_table(env).fn


def U(z: float, env: EnvParams) -> float:
    """The survival h-transform weight at a point; U(0) = 0."""
    if z < 0:
        raise ParameterError("z must be nonnegative")
    return float(U_vectorized(env)(np.array([z]))[0])


def theta(env: EnvParams) -> float:
    """Exponential rate of the Q-process martingale e^{theta t} U(Z_t): the
    survival constant's rate_exp."""
    _require_subcritical(env)
    return _regime_table(env).rate_exp


def qprocess_weights(z_values, t: float, z0: float, env: EnvParams):
    """Normalized h-transform weights D_t / U(z0) for reweighted expectations.

    Absorbed paths (state 0) carry weight 0.  E[weights] = 1 within Monte
    Carlo error is the martingale property.
    """
    if z0 <= 0:
        raise ParameterError("z0 must be positive")
    u_fn = U_vectorized(env)
    th = theta(env)
    return math.exp(th * t) * u_fn(np.asarray(z_values, float)) / u_fn(np.array([z0]))[0]


# ---------------------------------------------------------------------------
# Conditioning on eventual extinction (m > 0)
# ---------------------------------------------------------------------------


def _require_supercritical(env: EnvParams):
    if env.beta <= 0:
        raise ParameterError("conditioning on extinction is defined for beta in (0,1]")
    if env.m <= 0:
        raise RegimeError("U_* requires m > 0 (extinction is certain otherwise)")


def U_star(z: float, env: EnvParams) -> float:
    """U_*(z) = E[exp(-z k Gamma_{-eta}^{1/beta})], the extinction martingale."""
    _require_supercritical(env)
    if z < 0:
        raise ParameterError("z must be nonnegative")
    return extinction_prob_exact_stable(z, env)


def U_star_vectorized(env: EnvParams):
    """Vectorized U_* (for path reweighting); exactly 1 at z = 0."""
    _require_supercritical(env)
    return _gamma_limit(env)


def h_fn(x, y, k: float, beta: float):
    """h(x, y) = exp(-k x^{1/beta}) - exp(-k (x+y)^{1/beta}).

    Formed as e^{-k x^p} (1 - e^{-k d}), p = 1/beta, with the difference
    d = (x+y)^p - x^p = -(x+y)^p expm1(p log1p(-y/(x+y))), so that small y
    keeps full relative accuracy.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    p = 1.0 / beta
    s = x + y
    r = np.divide(y, s, out=np.zeros_like(s), where=s > 0)
    with np.errstate(divide="ignore"):  # x = 0: log1p(-1) = -inf gives d = y^p
        d = -(s**p) * np.expm1(p * np.log1p(-r))
    return np.exp(-k * x**p) * -np.expm1(-k * d)


def h_bounds(x, y, eps: float, k: float, beta: float):
    """Pointwise envelope for h from the mean value theorem.

    lower: (k/beta) x^{1/beta-1} e^{-k(x+y)^{1/beta}} y
    upper: (k/beta) e^{-k x^{1/beta}} ((x+eps)^{1/beta-1} y
                                       + (x/eps+1)^{1/beta-1} y^{1/beta})
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    kb = k / beta
    lower = kb * x ** (1.0 / beta - 1.0) * np.exp(-k * (x + y) ** (1.0 / beta)) * y
    upper = kb * np.exp(-k * x ** (1.0 / beta)) * (
        (x + eps) ** (1.0 / beta - 1.0) * y + (x / eps + 1.0) ** (1.0 / beta - 1.0) * y ** (1.0 / beta)
    )
    return lower, upper


def _gamma_h_integral(z: float, env: EnvParams, y, wy) -> float:
    """sum_j wy_j E[h(z^beta G, z^beta y_j)] over G ~ Gamma(-eta)."""
    x, wx = _gamma_rule(-env.eta, 1.0 / env.beta)
    zb = z**env.beta
    zy = zb * y[None, :]
    return float(wx @ _row_sums(lambda xx: h_fn(zb * xx[:, None], zy, env.k, env.beta), x, wy))


def conditioned_survival(z: float, t: float, env: EnvParams,
                         n_mc: int = 100_000, n_steps: int | None = None,
                         seed: int = 0, method: str = "formula-mc") -> MCEstimate:
    """P*_z(Z_t > 0): survival of the process conditioned on extinction.

    Evaluates E[h(z^beta G, z^beta/(2 I_nu^(-eta)))] / U_*(z) with
    G ~ Gamma(-eta) independent of the exponential functional, either by
    Monte Carlo (``"formula-mc"``) or by a Gamma x density tensor quadrature
    (``"quadrature"``; the relevant drift is -eta > 0, so the density route
    is always valid here).
    """
    _require_supercritical(env)
    if z <= 0:
        raise ParameterError("z must be positive")
    nu = env.beta**2 * env.sigma**2 * t / 4.0
    ustar = U_star(z, env)
    if method == "quadrature":
        v, mass = _density_rule(nu, -env.eta, 1.0 / env.beta)  # h is a function of v^(1/beta)
        val = _gamma_h_integral(z, env, v, mass) / ustar
        return MCEstimate(val, 0.0, 0, "quadrature",
                          {"nu": nu, "eta": env.eta, "u_star": ustar})
    n_steps = n_steps or max(400, int(round(2000 * nu)))
    logI = mc_log_exp_functionals(-env.eta, nu, n_mc, n_steps, seed)
    gamma_draws = _rng.stream(seed, 9001).gamma(-env.eta, size=n_mc)
    y = np.exp(-math.log(2.0) - logI)
    samples = h_fn(z**env.beta * gamma_draws, z**env.beta * y, env.k, env.beta)
    manifest = {"seed": seed, "n_paths": n_mc, "n_steps": n_steps,
                "estimator": "conditioned-survival-formula", "u_star": ustar}
    return _mc_estimate(samples / ustar, "formula-mc", manifest)


def asympt_conditioned_constant(z: float, env: EnvParams) -> AsymptoticConstant:
    """Theorem-5-type constants for the conditioned supercritical regimes."""
    _require_supercritical(env)
    if z <= 0:
        raise ParameterError("z must be positive")
    reg = classify_regime(env).conditioned
    b, s, kk, eta = env.beta, env.sigma, env.k, env.eta
    ustar = U_star(z, env)
    if reg is ConditionedRegime.WEAKLY_SUPERCRITICAL:
        const = 8.0 / (b**3 * s**3 * ustar) * _gamma_h_integral(z, env, *_phi_weights(-eta))
        return AsymptoticConstant(reg.value, 1.5, env.m**2 / (2.0 * s**2), const, "quadrature")
    try:
        if reg is ConditionedRegime.INTERMEDIATELY_SUPERCRITICAL:
            # E[e^{-zk G^{1/b}} G^{1/b}] over G ~ Gamma(2) = Gamma(1/b+1) * laplace form
            shape = 1.0 / b + 1.0
            integral = math.gamma(shape) * gamma_power_laplace(z * kk, shape, 1.0 / b)
            const = z * kk * math.sqrt(2.0) / (b**2 * s * math.sqrt(np.pi) * ustar) * integral
            return AsymptoticConstant(reg.value, 0.5, 0.5 * b**2 * s**2, const,
                                      "gamma-expectation")
        if reg is ConditionedRegime.STRONGLY_SUPERCRITICAL:
            shape = 1.0 / b - eta - 1.0
            integral = math.gamma(shape) * gamma_power_laplace(z * kk, shape, 1.0 / b)
            const = -z * kk * (eta + 2.0) / (b * ustar * math.gamma(-eta)) * integral
            return AsymptoticConstant(reg.value, 0.0, 0.5 * b * (2.0 * env.m - b * s**2), const,
                                      "gamma-expectation")
    except OverflowError:
        raise RegimeError(f"the {reg.value} constant needs a Gamma beyond double range "
                          f"at beta = {b}, eta = {eta}") from None
    raise RegimeError("no conditioned regime for these parameters")


# ---------------------------------------------------------------------------
# Q-process generator identification (m <= -sigma^2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QprocessCbibre:
    """The Q-process realized as a stable CBIBRE (linear-U branches only)."""

    mechanism: Mechanism
    immigration: ImmigrationMechanism
    sigma: float


def qprocess_as_cbibre(env: EnvParams) -> QprocessCbibre:
    """Identify the Q-process generator: drift alpha + sigma^2, immigration
    phi(u) = c (beta+1) u^beta, same Brownian environment.

    Only derived for m <= -sigma^2 (where U is linear).
    """
    _require_subcritical(env)
    if env.m > -env.sigma**2 + 1e-12:
        raise RegimeError(
            "the generator identification holds for m <= -sigma^2 only"
        )
    alpha_q = env.alpha + env.sigma**2
    b, c = env.beta, env.c
    if b == 1.0:
        mech: Mechanism = Feller(alpha_q, c)
        imm = ImmigrationMechanism(d=2.0 * c, nu=None)
    else:
        from .mechanisms import Stable

        mech = Stable(alpha_q, b, c)
        imm = ImmigrationMechanism(d=0.0, nu=StableImmigration(b, c * (b + 1.0)))
    return QprocessCbibre(mech, imm, env.sigma)
