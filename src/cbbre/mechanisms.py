"""Branching mechanisms, environment parameters, and regime classification.

A branching mechanism is the convex function

    psi(u) = -q - a*u + gamma2*u^2 + int_(0,inf) (e^{-u x} - 1 + u x 1{x<1}) mu(dx),

specified here either through one of the named families (Neveu, Feller,
stable-with-drift) or through a tabulated jump measure.  Environment
parameters collect the volatility sigma of the Brownian environment together
with the drift alpha of the mechanism and the derived quantities

    m   = alpha - sigma^2/2          (general finite-mean: -psi'(0+) - sigma^2/2)
    eta = -2 m / (beta sigma^2)
    k   = (beta sigma^2 / (2 c))^(1/beta)

whose signs and positions relative to 0, -sigma^2 and beta*sigma^2 select
every asymptotic regime in the package.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma_fn

from .errors import ParameterError, UnsupportedMechanismError

__all__ = [
    "Neveu",
    "Feller",
    "Stable",
    "TabulatedMeasure",
    "GeneralCB",
    "Mechanism",
    "NEVEU_DRIFT",
    "eval_psi",
    "eval_psi0",
    "eval_capital_phi",
    "psi_prime_at_zero",
    "psi_largest_root",
    "is_infinite_mean",
    "mechanism_drift",
    "EnvParams",
    "derive_env",
    "SurvivalRegime",
    "ExplosionRegime",
    "ConditionedRegime",
    "Regime",
    "classify_regime",
    "EPS_REGIME",
]

#: absolute tolerance around the knife-edge regime boundaries m = 0, -sigma^2,
#: beta*sigma^2
EPS_REGIME = 1e-12

#: drift constant making u log u = NEVEU_DRIFT*u + int (e^{-ux}-1+ux 1{x<1}) x^-2 dx
NEVEU_DRIFT = 1.0 - float(np.euler_gamma)


@dataclass(frozen=True)
class Neveu:
    """psi(u) = u log u.  Infinite mean: psi'(0+) = -infinity."""


@dataclass(frozen=True)
class Feller:
    """psi(u) = -alpha*u + gamma2*u^2 (no jumps)."""

    alpha: float
    gamma2: float

    def __post_init__(self):
        if self.gamma2 < 0:
            raise ParameterError("gamma2 must be nonnegative")


@dataclass(frozen=True)
class Stable:
    """psi(u) = -alpha*u + c*u^(1+beta), beta in (-1,0) u (0,1], sign(c)=sign(beta)."""

    alpha: float
    beta: float
    c: float

    def __post_init__(self):
        b = self.beta
        if not (-1.0 < b < 0.0 or 0.0 < b <= 1.0):
            raise ParameterError("beta must lie in (-1,0) or (0,1]")
        if self.c == 0 or math.copysign(1.0, self.c) != math.copysign(1.0, b):
            raise ParameterError("c must be nonzero with the same sign as beta")

    @property
    def jump_intensity_const(self) -> float:
        """Coefficient of z^-(2+beta) dz in the jump measure (per unit mass)."""
        return float(self.c * self.beta * (self.beta + 1.0) / _gamma_fn(1.0 - self.beta))


@dataclass(frozen=True)
class TabulatedMeasure:
    """Jump measure given by a density sampled on a grid, plus an optional
    tail atom carrying the mass beyond the last grid point.

    Integrals against the measure are trapezoidal in the tabulated part;
    the tail is treated as a point mass at ``tail_location``.
    """

    x: np.ndarray
    density: np.ndarray
    tail_mass: float = 0.0
    tail_location: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, float)
        d = np.asarray(self.density, float)
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0) or x[0] <= 0:
            raise ParameterError("grid must be strictly increasing and positive")
        if d.shape != x.shape or np.any(d < 0):
            raise ParameterError("density must be nonnegative and match the grid")
        if self.tail_mass < 0:
            raise ParameterError("tail mass must be nonnegative")
        if self.tail_mass > 0 and self.tail_location < x[-1]:
            object.__setattr__(self, "tail_location", float(x[-1]))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "density", d)
        if np.trapezoid(np.minimum(1.0, x**2) * d, x) == np.inf:
            raise ParameterError("int (1 ^ x^2) mu(dx) must be finite")

    def integrate(self, f) -> float:
        """int f(x) mu(dx) over the tabulation plus tail atom."""
        val = float(np.trapezoid(f(self.x) * self.density, self.x))
        if self.tail_mass > 0:
            val += self.tail_mass * float(f(self.tail_location))
        return val


@dataclass(frozen=True)
class GeneralCB:
    """General mechanism (q, a, gamma2, mu) with tabulated jump measure."""

    q: float
    a: float
    gamma2: float
    mu: TabulatedMeasure | None = None

    def __post_init__(self):
        if self.q < 0:
            raise ParameterError("killing rate q must be nonnegative")
        if self.gamma2 < 0:
            raise ParameterError("gamma2 must be nonnegative")


Mechanism = Neveu | Feller | Stable | GeneralCB


@dataclass(frozen=True)
class StableImmigration:
    """Immigration jump measure kappa*beta/Gamma(1-beta) z^-(1+beta) dz."""

    beta: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ParameterError("immigration index beta must lie in (0,1)")
        if self.kappa <= 0:
            raise ParameterError("kappa must be positive")

    @property
    def intensity_const(self) -> float:
        return float(self.kappa * self.beta / _gamma_fn(1.0 - self.beta))


@dataclass(frozen=True)
class ImmigrationMechanism:
    """phi(u) = d*u + int (1 - e^{-u t}) nu(dt); requires int (1 ^ x) nu(dx) < inf."""

    d: float = 0.0
    nu: StableImmigration | TabulatedMeasure | None = None

    def __post_init__(self):
        if self.d < 0:
            raise ParameterError("immigration drift d must be nonnegative")

    @property
    def trivial(self) -> bool:
        return self.d == 0.0 and self.nu is None

    def eval_phi(self, u):
        """Evaluate the immigration mechanism phi(u), u >= 0 (vectorized)."""
        u = np.asarray(u, float)
        if np.any(u < 0):
            raise ParameterError("phi is defined on u >= 0 only")
        out = self.d * u
        if isinstance(self.nu, StableImmigration):
            out = out + self.nu.kappa * u**self.nu.beta
        elif isinstance(self.nu, TabulatedMeasure):
            x = self.nu.x
            uu = np.atleast_1d(u)
            val = -np.expm1(-np.outer(uu, x))
            out = out + np.trapezoid(val * self.nu.density, x, axis=-1).reshape(u.shape)
            if self.nu.tail_mass > 0:
                out = out + self.nu.tail_mass * -np.expm1(-u * self.nu.tail_location)
        return out if np.ndim(out) else float(out)


def is_infinite_mean(mech: Mechanism) -> bool:
    """True when psi'(0+) = -infinity (Neveu, or stable with beta < 0)."""
    if isinstance(mech, Neveu):
        return True
    return isinstance(mech, Stable) and mech.beta < 0


def mechanism_drift(mech: Mechanism) -> float:
    """The linear coefficient alpha such that -psi'(0+) = alpha (finite-mean)."""
    if is_infinite_mean(mech):
        raise UnsupportedMechanismError("drift undefined for infinite-mean mechanisms")
    if isinstance(mech, (Feller, Stable)):
        return mech.alpha
    return -psi_prime_at_zero(mech)


def eval_psi(mech: Mechanism, u):
    """Evaluate the branching mechanism psi(u), u >= 0 (vectorized)."""
    u = np.asarray(u, float)
    if (u < 0).any():
        raise ParameterError("psi is defined on u >= 0 only")
    if isinstance(mech, Neveu):
        out = np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)
    elif isinstance(mech, Feller):
        out = -mech.alpha * u + mech.gamma2 * u**2
    elif isinstance(mech, Stable):
        out = -mech.alpha * u + mech.c * u ** (1.0 + mech.beta)
    else:
        out = -mech.q - mech.a * u + mech.gamma2 * u**2
        if mech.mu is not None:
            x = mech.mu.x
            uu = np.atleast_1d(u)
            ex = np.exp(-np.outer(uu, x)) - 1.0 + np.outer(uu, x) * (x < 1.0)
            out = out + np.trapezoid(ex * mech.mu.density, x, axis=-1).reshape(u.shape)
            if mech.mu.tail_mass > 0:
                xt = mech.mu.tail_location
                out = out + mech.mu.tail_mass * (np.exp(-u * xt) - 1.0 + u * xt * (xt < 1.0))
    return out if out.ndim else float(out)


def psi_prime_at_zero(mech: Mechanism) -> float:
    """psi'(0+).  Raises for infinite-mean mechanisms."""
    if is_infinite_mean(mech):
        raise UnsupportedMechanismError("psi'(0+) = -infinity for this mechanism")
    if isinstance(mech, (Feller, Stable)):
        return -mech.alpha
    val = -mech.a
    if mech.mu is not None:
        # d/du at 0 of the integral term: -int_{x>=1} x mu(dx)
        val -= mech.mu.integrate(lambda x: np.where(x >= 1.0, x, 0.0))
    return float(val)


def eval_psi0(mech: Mechanism, u):
    """psi0(u) = psi(u) - psi'(0+)*u, the drift-free part of the mechanism."""
    u = np.asarray(u, float)
    if (u < 0).any():
        raise ParameterError("psi0 is defined on u >= 0 only")
    if isinstance(mech, Feller):
        out = mech.gamma2 * u**2
    elif isinstance(mech, Stable):
        if mech.beta < 0:
            raise UnsupportedMechanismError("psi0 undefined for beta < 0 (infinite mean)")
        out = mech.c * u ** (1.0 + mech.beta)
    elif isinstance(mech, Neveu):
        raise UnsupportedMechanismError("psi0 undefined for the Neveu mechanism")
    else:
        out = np.asarray(eval_psi(mech, u)) - psi_prime_at_zero(mech) * u
    return out if np.ndim(out) else float(out)


def eval_capital_phi(mech: Mechanism, u):
    """Phi(u) = psi0(u)/u, the nondecreasing conservativity functional."""
    u = np.asarray(u, float)
    if np.any(u < 0):
        raise ParameterError("Phi is defined on u >= 0 only")
    q = mech.q if isinstance(mech, GeneralCB) else 0.0
    if np.any(u == 0):
        if q > 0:
            raise ParameterError("Phi(0) = -infinity when q > 0")
        out = np.where(u > 0, _phi_pos(mech, np.where(u > 0, u, 1.0)), 0.0)
        return out if out.ndim else float(out)
    out = _phi_pos(mech, u)
    return out if np.ndim(out) else float(out)


def _phi_pos(mech, u):
    return np.asarray(eval_psi0(mech, u)) / u


def psi_largest_root(mech: Mechanism) -> float:
    """Largest root of psi on [0, infinity) for Feller / stable (beta > 0).

    This is the classical extinction exponent of the zero-environment
    process; it is unrelated to the environment quantity ``EnvParams.eta``.
    """
    if isinstance(mech, Feller):
        return mech.alpha / mech.gamma2 if mech.alpha > 0 and mech.gamma2 > 0 else 0.0
    if isinstance(mech, Stable) and mech.beta > 0:
        return (mech.alpha / mech.c) ** (1.0 / mech.beta) if mech.alpha > 0 else 0.0
    if isinstance(mech, Neveu):
        return 1.0
    raise UnsupportedMechanismError("largest root exposed for Feller/stable (beta>0) only")


# ---------------------------------------------------------------------------
# Environment parameters and regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvParams:
    """Environment volatility plus stable-mechanism parameters and deriveds."""

    sigma: float
    alpha: float
    beta: float
    c: float
    m: float = field(init=False)
    eta: float = field(init=False)
    k: float = field(init=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")
        if self.beta == 0:
            raise ParameterError("beta must be nonzero")
        if self.c == 0 or math.copysign(1.0, self.c) != math.copysign(1.0, self.beta):
            raise ParameterError("c must share the sign of beta")
        object.__setattr__(self, "m", self.alpha - 0.5 * self.sigma**2)
        object.__setattr__(self, "eta", -2.0 * self.m / (self.beta * self.sigma**2))
        base = self.beta * self.sigma**2 / (2.0 * self.c)
        object.__setattr__(self, "k", base ** (1.0 / self.beta))

    @classmethod
    def from_mechanism(cls, mech: Mechanism, sigma: float) -> "EnvParams":
        if isinstance(mech, Feller):
            return cls(sigma, mech.alpha, 1.0, mech.gamma2)
        if isinstance(mech, Stable):
            return cls(sigma, mech.alpha, mech.beta, mech.c)
        raise UnsupportedMechanismError("EnvParams require a Feller or stable mechanism")

    def mechanism(self) -> Mechanism:
        if self.beta == 1.0:
            return Feller(self.alpha, self.c)
        return Stable(self.alpha, self.beta, self.c)


def derive_env(sigma: float, alpha: float, beta: float, c: float) -> EnvParams:
    """Build EnvParams, deriving m, eta and k."""
    return EnvParams(sigma, alpha, beta, c)


class SurvivalRegime(enum.Enum):
    SUPERCRITICAL = "supercritical"
    CRITICAL = "critical"
    WEAKLY_SUBCRITICAL = "weakly_subcritical"
    INTERMEDIATELY_SUBCRITICAL = "intermediately_subcritical"
    STRONGLY_SUBCRITICAL = "strongly_subcritical"


class ExplosionRegime(enum.Enum):
    SUBCRITICAL_EXPLOSION = "subcritical_explosion"
    CRITICAL_EXPLOSION = "critical_explosion"
    SUPERCRITICAL_EXPLOSION = "supercritical_explosion"


class ConditionedRegime(enum.Enum):
    WEAKLY_SUPERCRITICAL = "weakly_supercritical"
    INTERMEDIATELY_SUPERCRITICAL = "intermediately_supercritical"
    STRONGLY_SUPERCRITICAL = "strongly_supercritical"


@dataclass(frozen=True)
class Regime:
    survival: SurvivalRegime | None
    explosion: ExplosionRegime | None
    conditioned: ConditionedRegime | None


def classify_regime(env: EnvParams, eps: float = EPS_REGIME) -> Regime:
    """Regime tags determined by (m, sigma, beta) with exact boundary handling."""
    m, s2, b = env.m, env.sigma**2, env.beta
    survival = explosion = conditioned = None
    if b > 0:
        if m > eps:
            survival = SurvivalRegime.SUPERCRITICAL
        elif abs(m) <= eps:
            survival = SurvivalRegime.CRITICAL
        elif abs(m + s2) <= eps:
            survival = SurvivalRegime.INTERMEDIATELY_SUBCRITICAL
        elif m > -s2:
            survival = SurvivalRegime.WEAKLY_SUBCRITICAL
        else:
            survival = SurvivalRegime.STRONGLY_SUBCRITICAL
        if m > eps:
            if abs(m - b * s2) <= eps:
                conditioned = ConditionedRegime.INTERMEDIATELY_SUPERCRITICAL
            elif m < b * s2:
                conditioned = ConditionedRegime.WEAKLY_SUPERCRITICAL
            else:
                conditioned = ConditionedRegime.STRONGLY_SUPERCRITICAL
    else:
        if m < -eps:
            explosion = ExplosionRegime.SUBCRITICAL_EXPLOSION
        elif m <= eps:
            explosion = ExplosionRegime.CRITICAL_EXPLOSION
        else:
            explosion = ExplosionRegime.SUPERCRITICAL_EXPLOSION
    return Regime(survival, explosion, conditioned)
