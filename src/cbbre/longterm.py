"""Unconditional survival, explosion, extinction, and asymptotic constants.

Everything stable reduces to functionals of the exponential drift integral

    A_t = int_0^t exp(-beta (K_u + alpha u)) du  =d  (4/(beta^2 sigma^2)) I_nu^(eta)

with nu = beta^2 sigma^2 t / 4.  Finite-time survival (beta > 0) and
explosion (beta < 0) are one expectation over the law of I_nu^(eta), of
g(x) = 1 - e^(-x) or e^(-x), and one body serves both: it computes them two
independent ways, Monte Carlo over environment paths, and quadrature
against the density of 1/(2 I_nu^(eta)) (eta > -1) or against the
Hartman-Watson marginal (any eta; it raises where its lattice's mass is off
1 by more than 1e-6).  The Monte Carlo side integrates each
sampled path by the trapezoid rule (``environment.log_exp_functional``),
which is first-order unbiased for the Brownian functional; the exact-linear
segment rule of the closed forms would be biased low by O(dt).  Limits as
t -> infinity become Gamma expectations through Dufresne's identity, which
is also how the five survival regimes and three explosion regimes get their
constants.  All eight come from one cached table, `_regime_table`, whose
function of z is also the Q-process weight U of ``conditioned`` and whose
Gamma limit (`_gamma_limit`) is the extinction probability U_*.

Series forms of the regime constants are formal for beta < 1 (the terms grow
factorially); the canonical numerical object is always the Gamma-expectation
or integral form, and truncated series are exposed only as diagnostics.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .environment import (
    MCEstimate,
    _env_path_map,
    _mc_estimate,
    density_expectation,
    hw_marginal_expectation,
    log_exp_functional,
)
from .errors import MethodError, ParameterError, RegimeError
from .mechanisms import (
    EnvParams,
    ExplosionRegime,
    SurvivalRegime,
    classify_regime,
)
from .numerics import (_gamma, _gamma_laplace_rows, _gamma_rule, _gammaln, _peak_shape, _row_sums,
                       gl_panels, u_half)

__all__ = [
    "survival_prob",
    "explosion_prob",
    "extinction_prob_exact_stable",
    "ExtinctionBounds",
    "extinction_bounds",
    "AsymptoticConstant",
    "asympt_survival_constant",
    "asympt_explosion_constant",
    "phi_eta",
    "phi_eta_grid",
    "critical_constant_integral",
    "neveu_longterm",
    "NeveuReport",
    "survival_scaled_trend",
]


# ---------------------------------------------------------------------------
# Finite-time probabilities: MC over environments vs density quadrature
# ---------------------------------------------------------------------------


def _finite_time_prob(z, t, env, method, n_paths, n_steps, seed) -> MCEstimate:
    # 1 - E[exp(-x)], x = z k (2 I_nu^(eta))^(-1/beta): P_z(Z_t > 0) for
    # beta > 0, P_z(Z_t = inf) for beta < 0.  Quadrature integrates
    # g = 1 - e^(-x) (survival) or e^(-x) (explosion, then 1 - E[g])
    if z < 0:
        raise ParameterError("z must be nonnegative")
    if z == 0:
        return MCEstimate(0.0, 0.0, 0, method, {"trivial": "z=0"})
    if t <= 0:
        raise ParameterError("t must be positive")
    b, kk = env.beta, env.k
    if method == "mc":
        n_steps = n_steps or max(400, int(round(200 * t)))
        ps = np.empty(n_paths)
        scale = z * (b * env.c) ** (-1.0 / b)

        def fill(rows, grid, K0):
            log_a = log_exp_functional(grid, K0, -b)
            ps[rows] = -np.expm1(-scale * np.exp(-log_a / b))

        _env_path_map(fill, env.sigma, env.m, t, n_steps, seed, n_paths)
        return _mc_estimate(ps, "mc", {
            "seed": seed, "n_paths": n_paths, "n_steps": n_steps,
            "estimator": "mean cond_survival" if b > 0 else "mean cond_explosion"})
    if method == "quadrature":
        if env.eta <= -1.0:
            raise MethodError("density quadrature requires eta > -1; "
                              "use 'quadrature-hw' for eta <= -1")
        # the density's variable is v = 1/(2 I)
        expect, x = density_expectation, lambda v: kk * (z**b * v) ** (1.0 / b)
    elif method == "quadrature-hw":
        expect, x = hw_marginal_expectation, lambda u: z * kk * (2.0 * u) ** (-1.0 / b)
    else:
        raise MethodError(f"unknown method {method!r}")
    nu = b**2 * env.sigma**2 * t / 4.0
    if b > 0:
        val = expect(lambda s: -np.expm1(-x(s)), nu, env.eta)
    else:
        val = 1.0 - expect(lambda s: np.exp(-x(s)), nu, env.eta)
    return MCEstimate(float(val), 0.0, 0, method, {"nu": nu, "eta": env.eta})


def survival_prob(z: float, t: float, env: EnvParams, method: str = "mc",
                  n_paths: int = 30000, n_steps: int | None = None,
                  seed: int = 0) -> MCEstimate:
    """P_z(Z_t > 0) for the stable family with beta in (0, 1].

    Methods: ``"mc"`` averages the conditional survival over sampled
    environments; ``"quadrature"`` integrates against the density of
    1/(2 I_nu^(eta)) (requires eta > -1); ``"quadrature-hw"`` integrates
    against the Hartman-Watson marginal (valid for every eta).
    """
    if env.beta <= 0:
        raise ParameterError("survival_prob requires beta in (0,1]")
    return _finite_time_prob(z, t, env, method, n_paths, n_steps, seed)


def explosion_prob(z: float, t: float, env: EnvParams, method: str = "mc",
                   n_paths: int = 30000, n_steps: int | None = None,
                   seed: int = 0) -> MCEstimate:
    """P_z(Z_t = infinity) for beta in (-1, 0); positive for every t > 0.

    Methods as for `survival_prob`: ``"mc"``; ``"quadrature"`` (p-density,
    needs eta > -1); ``"quadrature-hw"`` (Hartman-Watson marginal, valid for
    every eta).
    """
    if not -1.0 < env.beta < 0.0:
        raise ParameterError("explosion_prob requires beta in (-1,0)")
    return _finite_time_prob(z, t, env, method, n_paths, n_steps, seed)


# ---------------------------------------------------------------------------
# Exact extinction probability and bounds
# ---------------------------------------------------------------------------


def extinction_prob_exact_stable(z: float, env: EnvParams) -> float:
    """P_z(lim Z_t = 0) for stable beta in (0,1].

    Equals E[exp(-z k Gamma_{-eta}^{1/beta})] when m > 0 (via Dufresne) and
    1 otherwise.
    """
    if env.beta <= 0:
        raise ParameterError("extinction requires beta in (0,1]")
    if z < 0:
        raise ParameterError("z must be nonnegative")
    if env.m <= 0:
        return 1.0
    return float(_gamma_limit(env)(np.array([z]))[0])


@dataclass(frozen=True)
class ExtinctionBounds:
    lower: float          # (1 + z sigma^2/gamma^2)^(-2m/sigma^2)
    upper: float | None   # (1 + z sigma^2/(2(gamma^2+kappa)))^(-2m/sigma^2)
    remark_lower: float   # (1 + z sigma^2/(2 gamma^2))^(-2m/sigma^2)
    remark_upper: float | None


def extinction_bounds(z: float, env: EnvParams, gamma2: float,
                      kappa: float = 0.0) -> ExtinctionBounds:
    """Lower/upper bounds on the extinction probability for m > 0.

    ``kappa`` is the second tail moment int_1^inf x^2 mu(dx); the upper
    bound is unavailable when it is infinite.
    """
    if gamma2 <= 0:
        raise ParameterError("bounds require gamma2 > 0")
    if env.m <= 0:
        return ExtinctionBounds(1.0, 1.0, 1.0, 1.0)
    expo = -2.0 * env.m / env.sigma**2
    s2 = env.sigma**2
    lower = (1.0 + z * s2 / gamma2) ** expo
    remark_lower = (1.0 + z * s2 / (2.0 * gamma2)) ** expo
    if math.isinf(kappa):
        return ExtinctionBounds(lower, None, remark_lower, None)
    upper = (1.0 + 0.5 * z * s2 / (gamma2 + kappa)) ** expo
    return ExtinctionBounds(lower, upper, remark_lower, upper)


# ---------------------------------------------------------------------------
# phi_eta and the regime constants
# ---------------------------------------------------------------------------

_PHI_XI_PANEL = 2.0  # xi panel width; 16 nodes a panel


def _phi_xi_rule(eta: float, v_min: float, width: float):
    # the integrand rises like xi e^xi while v cosh^2 xi < 1, then falls
    # like xi e^{-eta xi}: truncate where it is < 1e-16 of its peak
    rise = max(0.0, 0.5 * math.log(4.0 / v_min))
    ximax = rise + (40.0 + 4.0 * math.log1p(1.0 / eta)) / eta + 2.0 / eta + 2.0
    if ximax > 350.0:  # cosh^2 xi overflows beyond ~355
        raise RegimeError(f"phi_eta: eta = {eta} needs xi up to {ximax:.0f}, "
                          "beyond double precision")
    n = int(math.ceil(ximax / width))
    return gl_panels(np.linspace(0.0, n * width, n + 1), 16)


def _phi_eta_rule(v, eta: float, width: float):
    if eta <= 0:
        raise ParameterError("phi_eta requires eta > 0")
    v = np.asarray(v, float)
    a = 0.5 * (eta + 1.0)
    xi, wx = _phi_xi_rule(eta, float(v.min(initial=1.0)), width)
    wx = wx * xi * np.sinh(xi)
    c2 = np.cosh(xi) ** 2
    out = _row_sums(lambda vv: u_half(a, np.outer(vv, c2)), v, wx)
    pref = _gamma(0.5 * (eta + 2.0)) * _gamma(a) / (math.sqrt(2.0) * np.pi)
    return pref * np.exp(-v) * v ** (-a) * out


def phi_eta_grid(v, eta: float):
    """phi_eta on an array of points.

    With a = (eta+1)/2, the inner integral of the defining double integral
    is a confluent kernel by DLMF 13.4.4, which leaves

        phi_eta(v) = Gamma((eta+2)/2) Gamma(a) / (sqrt(2) pi) e^{-v} v^{-a}
                     int_0^inf xi sinh(xi) U(a, 1/2, v cosh^2 xi) dxi,

    evaluated on Gauss-Legendre panels in xi, truncated where the integrand
    has decayed to ~1e-16 of its peak.
    """
    return _phi_eta_rule(v, eta, _PHI_XI_PANEL)


def phi_eta(v: float, eta: float) -> float:
    """The weakly-regime spectral weight at a single point (positive).

    Checked against the same rule with its xi panels halved.
    """
    vals = [_phi_eta_rule([v], eta, w)[0]
            for w in (_PHI_XI_PANEL, 0.5 * _PHI_XI_PANEL)]
    if abs(vals[1] - vals[0]) > 1e-8 * max(1.0, abs(vals[1])):
        raise RegimeError(f"phi_eta quadrature unstable at v={v}, eta={eta}: {vals}")
    return float(vals[1])


def _phi_weights(eta: float):
    """Nodes v and weights w_i phi_eta(v_i) of the weakly-regime rule on
    (0, infinity): int f(v) phi_eta(v) dv ~ sum f(v_i) weights_i.

    The log-spaced panels reach down to v = 1e-30; a cut at 1e-9 alone
    leaves the constants ~1e-6 low.
    """
    v, w = gl_panels(np.geomspace(1e-30, 80.0 + 10.0 * eta, 120), 16)
    return v, w * phi_eta_grid(v, eta)


def _critical_rows(q, p: float):
    """int_0^inf g(q x^p) e^{-x} dx/x for each q of an array, g(u) = 1 - e^{-u}
    for p > 0 (critical survival) and e^{-u} for p < 0 (critical explosion).

    It is Gamma(s) E[g(q G^p) G^-s], G ~ Gamma(s), bounded in both cases, on
    `_gamma_rule`: s = 1, or for p < 0 the shape that `_peak_shape` places
    at the integrand's peak.
    """
    q = np.asarray(q, float)
    shape, power = _peak_shape(1.0, p, float(q.max(initial=0.0)))
    x, w = _gamma_rule(shape, power)
    w = w * np.exp(_gammaln(shape) - shape * np.log(x))
    g = (lambda u: -np.expm1(u)) if p > 0 else np.exp
    with np.errstate(over="ignore"):  # x**p = inf gives g = 0 or 1
        xp = -x**p
        return _row_sums(lambda qq: g(np.outer(qq, xp)), q, w)


def critical_constant_integral(q: float, beta: float) -> float:
    """int_0^inf (1 - e^{-q x^{1/beta}}) e^{-x}/x dx (canonical form).

    For beta = 1 this is log(1 + q).
    """
    if q < 0:
        raise ParameterError("q must be nonnegative")
    return float(_critical_rows([q], 1.0 / beta)[0])


@dataclass(frozen=True)
class AsymptoticConstant:
    """P(t) ~ constant / (t^rate_power * exp(rate_exp * t)) as t -> infinity."""

    regime: str
    rate_power: float
    rate_exp: float
    constant: float
    method: str

    def scale(self, t: float) -> float:
        """Multiplier M(t) with M(t) * P(t) -> constant."""
        return t**self.rate_power * math.exp(self.rate_exp * t)


@dataclass(frozen=True)
class _RegimeRow:
    """A regime's rates, and its constant as a vectorized function of z."""

    regime: str
    rate_power: float
    rate_exp: float
    method: str
    fn: Callable

    def at(self, z: float) -> AsymptoticConstant:
        return AsymptoticConstant(self.regime, self.rate_power, self.rate_exp,
                                  float(self.fn(np.array([z]))[0]), self.method)


def _states(z):
    # the states as one row of points, negative ones clipped to 0
    return np.maximum(np.asarray(z, float), 0.0).ravel()


def _gamma_limit(env: EnvParams):
    """z -> E[exp(-z k G^(1/beta))], G ~ Gamma(-eta), exactly 1 at z = 0: U_*
    for beta > 0 and m > 0, the limit of P_z(Z_t < inf) for beta < 0, m < 0."""
    return lambda z: _gamma_laplace_rows(_states(z) * env.k, -env.eta, 1.0 / env.beta)


@functools.lru_cache(maxsize=64)
def _regime_table(env: EnvParams) -> _RegimeRow:
    """The survival (beta > 0) or explosion (beta < 0) regime of env.

    An explosion constant is the survival formula with g(u) = e^{-u} in
    place of 1 - e^{-u} (g follows the sign of beta) and |beta| in the
    prefactor, so five branches serve the eight regimes: the Gamma limit L
    (supercritical survival 1 - L, subcritical explosion L), `_critical_rows`
    (both critical regimes), the phi_eta rule (weakly subcritical survival,
    supercritical explosion) and the two linear closed forms, whose rate
    -(2m + sigma^2)/2 keeps e^{rate t} c Z_t a martingale inside EPS_REGIME.
    """
    regime = classify_regime(env)
    reg = regime.survival or regime.explosion
    b, s, kk, eta, m = env.beta, env.sigma, env.k, env.eta, env.m
    if reg in (SurvivalRegime.SUPERCRITICAL, ExplosionRegime.SUBCRITICAL_EXPLOSION):
        lim = _gamma_limit(env)
        fn = (lambda z: 1.0 - lim(z)) if b > 0 else lim
        return _RegimeRow(reg.value, 0.0, 0.0, "gamma-expectation", fn)
    if reg in (SurvivalRegime.CRITICAL, ExplosionRegime.CRITICAL_EXPLOSION):
        pref = math.sqrt(2.0 / np.pi) / (abs(b) * s)
        return _RegimeRow(reg.value, 0.5, 0.0, "quadrature",
                          lambda z: pref * _critical_rows(_states(z) * kk, 1.0 / b))
    if reg in (SurvivalRegime.WEAKLY_SUBCRITICAL, ExplosionRegime.SUPERCRITICAL_EXPLOSION):
        v, weight = _phi_weights(eta)
        pref = 8.0 / (abs(b)**3 * s**3)
        sign, g = (-1.0, np.expm1) if b > 0 else (1.0, np.exp)  # 1 - e^{-u} = -expm1(-u)

        def terms(zz):  # expm1 or exp of -k (z^b v)^{1/b}
            arg = np.outer(zz**b, v)
            if b != 1.0:  # x**1.0 is x: skip the pass
                arg **= 1.0 / b
            arg *= kk
            return g(np.negative(arg, out=arg), out=arg)

        return _RegimeRow(reg.value, 1.5, m**2 / (2.0 * s**2), "quadrature",
                          lambda z: pref * (sign * _row_sums(terms, _states(z), weight)))
    if reg is SurvivalRegime.INTERMEDIATELY_SUBCRITICAL:
        c, rate_power = math.sqrt(2.0 / np.pi) * kk * _gamma(1.0 / b) / (b * s), 0.5
    else:  # strongly subcritical
        c, rate_power = kk * _gamma(eta - 1.0 / b) / _gamma(eta - 2.0 / b), 0.0
    return _RegimeRow(reg.value, rate_power, -0.5 * (2.0 * m + s**2), "closed-form",
                      lambda z: c * _states(z))


def asympt_survival_constant(z: float, env: EnvParams) -> AsymptoticConstant:
    """The five survival regimes of the stable CBBRE (beta in (0,1])."""
    if env.beta <= 0:
        raise ParameterError("survival asymptotics require beta in (0,1]")
    if z <= 0:
        raise ParameterError("z must be positive")
    return _regime_table(env).at(z)


def asympt_explosion_constant(z: float, env: EnvParams) -> AsymptoticConstant:
    """The three explosion regimes of the stable CBBRE (beta in (-1,0)).

    The constants describe P_z(Z_t < infinity): its limit in the
    subcritical-explosion regime, and its decay rate otherwise.
    """
    if not -1.0 < env.beta < 0.0:
        raise ParameterError("explosion asymptotics require beta in (-1,0)")
    if z <= 0:
        raise ParameterError("z must be positive")
    return _regime_table(env).at(z)


def survival_scaled_trend(z: float, env: EnvParams, ts) -> list[dict]:
    """Quadrature survival probabilities with the regime scaling applied."""
    const = asympt_survival_constant(z, env)
    rows = []
    for t in ts:
        p = survival_prob(z, t, env, method="quadrature")
        scaled = p.value * const.scale(t)
        rows.append({
            "t": float(t), "p": p.value, "scaled": scaled,
            "constant": const.constant,
            "rel_gap": abs(scaled - const.constant) / abs(const.constant),
        })
    return rows


# ---------------------------------------------------------------------------
# Neveu long-term behaviour
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeveuReport:
    prob_limit_zero: float  # P_z(lim Z_t e^{-K_t} = 0)
    mean_is_infinite: bool
    method: str


def neveu_longterm(z: float, sigma: float, n_hermite: int = 201) -> NeveuReport:
    """P_z(lim Z_t e^{-K_t} = 0) = E[exp(-z e^G)], G ~ N(-sigma^2/2, sigma^2/2).

    The Neveu process itself survives almost surely and has infinite mean at
    every positive time.
    """
    if z < 0:
        raise ParameterError("z must be nonnegative")
    if sigma == 0.0:
        return NeveuReport(math.exp(-z), True, "degenerate")
    x, w = np.polynomial.hermite_e.hermegauss(n_hermite)
    g = -0.5 * sigma**2 + math.sqrt(0.5) * sigma * x
    val = float(np.sum(w * np.exp(-z * np.exp(g))) / math.sqrt(2.0 * np.pi))
    return NeveuReport(val, True, "gauss-hermite")
