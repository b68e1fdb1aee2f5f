"""Branching mechanisms, immigration measures, environment parameters and regimes.

A branching mechanism is the convex function

    psi(u) = -q - a*u + gamma2*u^2 + int_(0,inf) (e^{-u x} - 1 + u x 1{x<1}) mu(dx),

specified here either through one of the named families (Neveu, Feller,
stable-with-drift) or through a tabulated jump measure.  Each is a subclass
of ``Mechanism`` that answers everything the package asks of a mechanism
(psi and its kin, its flags, its SDE coefficients and jump law, its closed
form, its exact transition law given the environment, its config block);
no other module tests a mechanism's type.  The immigration measures answer
phi and their jump law the same way.

Environment parameters collect the volatility sigma of the Brownian
environment together with the drift alpha of the mechanism and the derived
quantities

    m   = alpha - sigma^2/2          (general finite-mean: -psi'(0+) - sigma^2/2)
    eta = -2 m / (beta sigma^2)
    k   = (beta sigma^2 / (2 c))^(1/beta)

whose signs and positions relative to 0, -sigma^2 and beta*sigma^2 select
every asymptotic regime in the package.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .environment import integral_exp_linear, log_exp_functional
from .errors import ParameterError, UnsupportedMechanismError

__all__ = [
    "Mechanism",
    "Neveu",
    "Feller",
    "Stable",
    "TabulatedMeasure",
    "GeneralCB",
    "JumpLaw",
    "StableLaw",
    "NEVEU_DRIFT",
    "eval_psi",
    "eval_psi0",
    "eval_capital_phi",
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


#: expected jump count per path-step beyond which `JumpLaw.increment`
#: declares a path exploded
_LAM_MAX = 1e5


@dataclass(frozen=True)
class JumpLaw:
    """The jumps of size >= eps, as the simulator thins them.

    Jumps arrive at ``rate`` per unit time (per unit mass for a branching
    mechanism, per path for immigration), with sizes ``sample(rng, n)``.
    ``drift`` is the mean of the uncompensated jumps below eps less the
    compensator of the simulated ones; ``small_var`` is the variance of the
    compensated jumps below eps, simulated as a Gaussian.
    """

    rate: float
    sample: Callable
    drift: float
    small_var: float = 0.0

    def increment(self, rng, mass, dt):
        """One Euler step of these jumps carried by ``mass`` per path: a
        Poisson count per path, the summed sizes, the drift and, for
        compensated small jumps, a Gaussian of their variance.  A path whose
        expected count exceeds `_LAM_MAX` gets +inf."""
        rates = mass * self.rate * dt
        exploded = rates > _LAM_MAX
        counts = rng.poisson(np.where(exploded, 0.0, rates))
        total = int(counts.sum())
        sums = np.zeros_like(rates)
        if total > 0:
            sizes = self.sample(rng, total)  # before the owners: ~5% faster on big steps
            np.add.at(sums, np.repeat(np.arange(rates.size), counts), sizes)
        inc = sums + mass * dt * self.drift
        if self.small_var > 0:
            inc = inc + rng.normal(0.0, 1.0, mass.size) * np.sqrt(mass * dt * self.small_var)
        inc[exploded] = np.inf
        return inc


@dataclass(frozen=True)
class StableLaw:
    """Jumps whose sum over an Euler step has an exact stable law.

    With the state frozen, ``mass`` carries over dt the increment
    (mass dt)^(1/index) X, where E[e^(-lam X)] = exp(coef lam^index): index
    in (1, 2) and coef > 0 for compensated jumps, index in (0, 1) and
    coef < 0 for uncompensated ones.  One draw per path-step; nothing is
    truncated.
    """

    index: float
    coef: float

    def increment(self, rng, mass, dt):
        a = self.index
        scale = (abs(self.coef) * mass * dt) ** (1.0 / a)
        if a < 1.0:
            return scale * np.exp(_log_positive_stable(a, 1.0 - a, rng, mass.size))
        # Chambers, Mallows and Stuck (1976), totally skewed to the right,
        # without the factor |cos(pi a/2)|^(1/a) of their unit scale
        v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, mass.size)
        w = rng.standard_exponential(mass.size)
        av = a * (v + (0.5 * math.pi - math.pi / a))
        return (scale * np.sin(av) / np.cos(v) ** (1.0 / a)
                * (np.cos(v - av) / w) ** ((1.0 - a) / a))


def _first_crossing(K, log_level, dt):
    """First step j >= 1 at which the trapezoid clock int_0^(j dt) e^(-K)
    reaches e^log_level on each row of K (the last step if rounding keeps
    it just short)."""
    top = (-K).max(axis=1, keepdims=True)
    e = np.exp(-K - top)
    clock = np.cumsum(0.5 * dt * (e[:, 1:] + e[:, :-1]), axis=1)
    reached = clock >= np.exp(log_level - top[:, 0])[:, None]
    return np.where(reached.any(axis=1), reached.argmax(axis=1) + 1, K.shape[1] - 1)


def _log_positive_stable(index, one_minus_index, rng, n):
    """log S for n draws of the positive stable law E[e^(-lam S)] =
    exp(-lam^index), 0 < index < 1, by Kanter's representation
    S = (A(U)/E)^((1-index)/index), U ~ U(0, pi), E ~ Exp(1); the log form
    keeps index near 1 (short segments) free of overflow."""
    u = rng.uniform(0.0, math.pi, n)
    e = rng.standard_exponential(n)
    return (np.log(np.sin(index * u)) - np.log(np.sin(u)) / index
            + one_minus_index / index * (np.log(np.sin(one_minus_index * u)) - np.log(e)))


#: Poisson mean above which `_poisson_counts` draws a count from its normal
#: approximation: numpy's sampler refuses means above ~9.2e18, and here the
#: approximation's relative error, about mean^(-1/2), is below 3.2e-8
_POISSON_NORMAL_MEAN = 1e15


def _poisson_counts(rng, mean):
    """Poisson(mean) counts, one per entry of ``mean``.  Entries above
    `_POISSON_NORMAL_MEAN` take round(mean + sqrt(mean) N), at least 0, with
    N standard normal drawn for those entries only after the Poisson call, so
    where no mean exceeds the limit the draws are exactly ``rng.poisson(mean)``."""
    big = mean > _POISSON_NORMAL_MEAN
    if not big.any():
        return rng.poisson(mean)
    count = rng.poisson(np.where(big, 0.0, mean)).astype(float)
    mu = mean[big]
    count[big] = np.maximum(np.rint(mu + np.sqrt(mu) * rng.standard_normal(mu.size)), 0.0)
    return count


class Mechanism:
    """A branching mechanism.  Subclasses define ``_psi`` and ``_psi0`` (on
    arrays or Python floats that ``eval_psi``/``eval_psi0`` have checked),
    the SDE coefficients and the config block; the defaults suit
    psi(u) = -alpha*u + ... without jumps or closed form."""

    #: psi'(0+) = -infinity
    infinite_mean = False
    #: E[e^{-lambda Z_t}] -> 1 as lambda -> 0: no explosion, no killing
    conservative = True

    def psi_prime_at_zero(self) -> float:
        """psi'(0+).  Raises for infinite-mean mechanisms."""
        if self.infinite_mean:
            raise UnsupportedMechanismError("psi'(0+) = -infinity for this mechanism")
        return -self.alpha

    def largest_root(self) -> float:
        """Largest root of psi on [0, infinity): the classical extinction
        exponent of the zero-environment process, unrelated to the
        environment quantity ``EnvParams.eta``."""
        raise UnsupportedMechanismError("largest root exposed for Feller/stable (beta>0) only")

    def sde_coefficients(self):
        """(sde_drift, gamma2, flavor, mean_growth) of the simulated SDE;
        ``mean_growth`` = -psi'(0+) drives a K0-flavored path, and is None
        for infinite-mean mechanisms, whose recorded path is K."""
        raise NotImplementedError

    def jump_law(self, eps: float) -> JumpLaw | StableLaw | None:
        """The jumps per unit mass as an Euler step draws them: a `JumpLaw`
        thinned at eps, a `StableLaw` (which has no use for eps), or None
        without jumps."""
        return None

    #: ``exact_step(z, env, dt, rng, d=0.0)`` draws Z at the end of one
    #: interval from its transition law given the environment, or is None.
    #: ``z``: the states at the start; ``env`` yields ``(rows, K)`` blocks that
    #: together cover every path once, K[i, j] being the recorded environment
    #: (K or K0, as ``sde_coefficients`` says) after j steps of ``dt`` less its
    #: value at the start; ``rng`` draws the demographic noise, one call over
    #: all paths per variate; ``d`` is the linear immigration rate.  Returns
    #: ``(z_end, dk, hit)``: ``dk`` is K[:, -1] of every path, and ``hit`` the
    #: step at which each path was absorbed (0 if it was not), or None where
    #: the mechanism never absorbs.
    exact_step = None

    def closed_form(self, lam: float, t: float, env) -> float | None:
        """v_t(0, lambda) on the path ``env`` in closed form, or None."""
        return None

    def stable_params(self) -> tuple[float, float, float]:
        """(alpha, beta, c) of psi(u) = -alpha*u + c*u^(1+beta)."""
        raise UnsupportedMechanismError("EnvParams require a Feller or stable mechanism")

    def to_dict(self) -> dict:
        """The config document's mechanism block."""
        raise NotImplementedError


@dataclass(frozen=True)
class Neveu(Mechanism):
    """psi(u) = u log u.  Infinite mean: psi'(0+) = -infinity."""

    infinite_mean = True

    def _psi(self, u):
        if isinstance(u, float):
            return u * math.log(u) if u > 0 else 0.0
        return np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)

    def _psi0(self, u):
        raise UnsupportedMechanismError("psi0 undefined for the Neveu mechanism")

    def largest_root(self) -> float:
        return 1.0

    def sde_coefficients(self):
        # psi(u) = -a u + ... with a = -NEVEU_DRIFT: the SDE drift is a Z
        return -NEVEU_DRIFT, 0.0, "K", None

    def jump_law(self, eps):
        # mu(dx) = x^-2 dx: Pareto sizes eps/U of index 1 above eps,
        # compensation of [eps, 1) only, a Gaussian for the compensated small
        # jumps (variance eps)
        comp = math.log(1.0 / eps) if eps < 1.0 else 0.0
        return JumpLaw(1.0 / eps, lambda rng, n: eps / rng.random(n), -comp, eps)

    def closed_form(self, lam, t, env):
        from .flow import closed_form_neveu

        return closed_form_neveu(lam, t, env)

    def exact_step(self, z, env, dt, rng, d=0.0):
        # over h = steps*dt, Z_h e^(-K_h) = (z e^J)^(e^h) S with J the segment
        # exponent int_0^h e^-u K_u du of the closed form and S positive
        # stable of index e^-h: E[e^(-lam S)] = exp(-lam^(e^-h))
        from .flow import weighted_exp_decay_integral

        if d:
            raise UnsupportedMechanismError("immigration requires a finite-mean mechanism")
        J, k_end = np.empty(z.size), np.empty(z.size)
        for rows, K in env:
            steps = K.shape[1] - 1
            J[rows] = weighted_exp_decay_integral(dt * np.arange(steps + 1), K)[:, 0]
            k_end[rows] = K[:, -1]
        h = steps * dt
        log_s = _log_positive_stable(math.exp(-h), -math.expm1(-h), rng, z.size)
        with np.errstate(divide="ignore"):  # z = 0 stays 0
            return np.exp(k_end + math.exp(h) * (np.log(z) + J) + log_s), k_end, None

    def to_dict(self):
        return {"kind": "neveu"}


@dataclass(frozen=True)
class Feller(Mechanism):
    """psi(u) = -alpha*u + gamma2*u^2 (no jumps)."""

    alpha: float
    gamma2: float

    def __post_init__(self):
        if self.gamma2 < 0:
            raise ParameterError("gamma2 must be nonnegative")

    def _psi(self, u):
        return -self.alpha * u + self.gamma2 * u**2

    def _psi0(self, u):
        return self.gamma2 * u**2

    def largest_root(self) -> float:
        return self.alpha / self.gamma2 if self.alpha > 0 and self.gamma2 > 0 else 0.0

    def sde_coefficients(self):
        return self.alpha, self.gamma2, "K0", self.alpha

    def closed_form(self, lam, t, env):
        from .flow import closed_form_feller

        return closed_form_feller(lam, t, env, self.alpha, self.gamma2)

    def exact_step(self, z, env, dt, rng, d=0.0):
        # Y = Z e^(-K0) is a Feller diffusion with drift d on the clock
        # A = int e^(-K0) (trapezoid): given Y, N ~ Poisson(Y/(gamma2 A)) and
        # Y' ~ Gamma(N + d/gamma2, scale gamma2 A).  Without immigration N is
        # the count of a unit Poisson process on [0, Y/(gamma2 A)]: its first
        # point E puts absorption at the A-level Y/(gamma2 E), and a survivor
        # has N = 1 + Poisson(Y/(gamma2 A) - E)
        g2 = self.gamma2
        n = z.size
        log_a, k_end = np.empty(n), np.empty(n)
        hit = np.zeros(n, dtype=np.int64)
        absorbing = d == 0.0 and g2 > 0.0
        if absorbing:
            live = z > 0.0
            first = -np.log1p(-rng.random(n))  # -log U, U uniform on (0, 1]
            with np.errstate(divide="ignore"):
                log_level = np.where(live, np.log(z / g2) - np.log(first), np.inf)
        for rows, K in env:
            grid = dt * np.arange(K.shape[1])
            log_a[rows] = log_exp_functional(grid, K, -1.0)
            k_end[rows] = K[:, -1]
            if absorbing:
                r = np.nonzero(log_level[rows] <= log_a[rows])[0]
                if r.size:
                    hit[rows.start + r] = _first_crossing(K[r], log_level[rows][r], dt)
        a = np.exp(log_a)
        if g2 == 0.0:
            return (z + d * a) * np.exp(k_end), k_end, None
        mean = z / (g2 * a)
        if absorbing:
            alive = live & (hit == 0)
            extra = _poisson_counts(rng, np.where(alive, np.maximum(mean - first, 0.0), 0.0))
            count = np.where(alive, 1 + extra, 0)
        else:
            count = _poisson_counts(rng, mean)
        z_end = rng.gamma(count + d / g2, g2 * a) * np.exp(k_end)
        return z_end, k_end, (hit if absorbing else None)

    def stable_params(self):
        return self.alpha, 1.0, self.gamma2

    def to_dict(self):
        return {"kind": "feller", "alpha": self.alpha, "gamma2": self.gamma2}


@dataclass(frozen=True)
class Stable(Mechanism):
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
    def infinite_mean(self) -> bool:
        return self.beta < 0

    @property
    def conservative(self) -> bool:
        return self.beta > 0

    def _psi(self, u):
        return -self.alpha * u + self.c * u ** (1.0 + self.beta)

    def _psi0(self, u):
        if self.beta < 0:
            raise UnsupportedMechanismError("psi0 undefined for beta < 0 (infinite mean)")
        return self.c * u ** (1.0 + self.beta)

    def largest_root(self) -> float:
        if self.beta < 0:
            return super().largest_root()
        return (self.alpha / self.c) ** (1.0 / self.beta) if self.alpha > 0 else 0.0

    def sde_coefficients(self):
        if self.beta < 0:
            return self.alpha, 0.0, "K", None
        return self.alpha, self.c if self.beta == 1.0 else 0.0, "K0", self.alpha

    @property
    def exact_step(self):  # at beta = 1 psi is Feller's, and so is its exact law
        return Feller(self.alpha, self.c).exact_step if self.beta == 1.0 else None

    def jump_law(self, eps):
        # the jump part of psi is c u^(1+beta), compensated for beta > 0 and
        # not for beta < 0: one stable increment per path-step
        if self.beta == 1.0:
            return None
        return StableLaw(1.0 + self.beta, self.c)

    def closed_form(self, lam, t, env):
        from .flow import closed_form_stable

        return closed_form_stable(lam, t, env, self.beta, self.c, self.alpha)

    def stable_params(self):
        return self.alpha, self.beta, self.c

    def to_dict(self):
        return {"kind": "stable", "alpha": self.alpha, "beta": self.beta, "c": self.c}


@dataclass(frozen=True)
class TabulatedMeasure:
    """Jump measure given by a density sampled on a grid, plus an optional
    tail atom carrying the mass beyond the last grid point.

    The measure is discretised once, into atoms: one at each grid point,
    whose mass is the density there times the point's trapezoid weight
    (half the span of its two neighbouring cells), and the tail atom at
    ``tail_location``.  Every integral against the measure (psi, phi, the
    drifts and variances of the jump laws) is a sum over these atoms, and
    the simulator draws its jump sizes from them, so the SDE's compensator
    and its jumps describe one measure.
    """

    x: np.ndarray
    density: np.ndarray
    tail_mass: float = 0.0
    tail_location: float = 0.0
    atoms: np.ndarray = field(init=False, repr=False)
    masses: np.ndarray = field(init=False, repr=False)

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
        h = 0.5 * np.diff(x)
        masses = d * (np.append(h, 0.0) + np.insert(h, 0, 0.0))  # trapezoid node weights
        atoms = x
        if self.tail_mass > 0:
            atoms = np.append(x, self.tail_location)
            masses = np.append(masses, self.tail_mass)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        if self.integrate(lambda x: np.minimum(1.0, x**2)) == np.inf:
            raise ParameterError("int (1 ^ x^2) mu(dx) must be finite")

    def integrate(self, f):
        """int f(x) mu(dx), the sum of f over the atoms weighted by their
        masses; an ``f`` that returns rows (atoms last) is summed row by row,
        each row alike (einsum, as `numerics._row_sums`)."""
        return np.einsum("...j,j->...", f(self.atoms), self.masses)

    def phi(self, u):
        """int (1 - e^{-u x}) mu(dx), the immigration part of phi (u >= 0)."""
        return self.integrate(lambda x: -np.expm1(-np.multiply.outer(u, x)))

    def phi_path_integral(self, grid, log_u) -> float:
        """int phi(e^{log_u(s)}) ds by the trapezoid on the grid, whose
        nodes hold every kink of the piecewise-linear log_u."""
        return float(np.trapezoid(self.phi(np.exp(log_u)), grid))

    def jump_law(self, eps: float) -> JumpLaw:
        """The immigration jumps: the atoms at or above eps, drawn by their
        masses; the drift is the mean of the atoms below eps."""
        big = self.atoms >= eps
        sizes, cum = self.atoms[big], np.cumsum(self.masses[big])
        rate = float(cum[-1]) if cum.size else 0.0

        def sample(rng, n):
            i = np.searchsorted(cum, rng.random(n) * rate, side="right")
            return sizes[np.minimum(i, sizes.size - 1)]  # u * rate may round up to rate

        return JumpLaw(rate, sample, float(self.integrate(lambda x: np.where(x < eps, x, 0.0))))


@dataclass(frozen=True)
class GeneralCB(Mechanism):
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

    @property
    def conservative(self) -> bool:
        return self.q == 0

    def _psi(self, u):
        out = -self.q - self.a * u + self.gamma2 * u**2
        if self.mu is not None:
            def jumps(x):
                ux = np.multiply.outer(u, x)
                return np.expm1(-ux) + ux * (x < 1.0)

            out = out + self.mu.integrate(jumps)
        return out

    def _psi0(self, u):
        return self._psi(u) - self._slope * u

    @cached_property
    def _slope(self) -> float:
        val = -self.a
        if self.mu is not None:
            # d/du at 0 of the integral term: -int_{x>=1} x mu(dx)
            val -= self.mu.integrate(lambda x: np.where(x >= 1.0, x, 0.0))
        return float(val)

    def psi_prime_at_zero(self) -> float:
        return self._slope

    def sde_coefficients(self):
        return self.a, self.gamma2, "K0", -self._slope

    def jump_law(self, eps):
        # mu's jumps >= eps, compensated below 1: the drift removes the mean of
        # [eps, 1), and a Gaussian of their variance stands in for those below eps
        if self.mu is None:
            return None
        mid = self.mu.integrate(lambda x: np.where((x >= eps) & (x < 1.0), x, 0.0))
        small = self.mu.integrate(lambda x: np.where(x < eps, x * x, 0.0))
        return replace(self.mu.jump_law(eps), drift=-float(mid), small_var=float(small))

    def to_dict(self):
        out = {"kind": "general", "q": self.q, "a": self.a, "gamma2": self.gamma2}
        if self.mu is not None:
            out |= {"jump_x": self.mu.x.tolist(), "jump_density": self.mu.density.tolist(),
                    "tail_mass": self.mu.tail_mass, "tail_location": self.mu.tail_location}
        return out


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

    def phi(self, u):
        """kappa * u^beta, the immigration part of phi (u >= 0)."""
        return self.kappa * u**self.beta

    def phi_path_integral(self, grid, log_u) -> float:
        """int kappa e^{beta log_u(s)} ds, exact for piecewise-linear log_u."""
        return self.kappa * integral_exp_linear(grid, self.beta * log_u)

    def jump_law(self, eps: float) -> StableLaw:
        """The immigration jumps, positive stable of index beta: over dt they
        sum to (kappa dt)^(1/beta) S, E[e^(-lam S)] = exp(-lam^beta)."""
        return StableLaw(self.beta, -self.kappa)


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
        if self.nu is not None:
            out = out + self.nu.phi(u)
        return out if np.ndim(out) else float(out)


def eval_psi(mech: Mechanism, u):
    """Evaluate the branching mechanism psi(u), u >= 0 (vectorized; a
    Python float gives a float without a pass through numpy)."""
    if type(u) is float:
        if u < 0:
            raise ParameterError("psi is defined on u >= 0 only")
        return float(mech._psi(u))
    u = np.asarray(u, float)
    if (u < 0).any():
        raise ParameterError("psi is defined on u >= 0 only")
    out = mech._psi(u)
    return out if out.ndim else float(out)


def eval_psi0(mech: Mechanism, u):
    """psi0(u) = psi(u) - psi'(0+)*u, the drift-free part of the mechanism;
    a Python float gives a float, as in `eval_psi`."""
    if type(u) is float:
        if u < 0:
            raise ParameterError("psi0 is defined on u >= 0 only")
        return float(mech._psi0(u))
    u = np.asarray(u, float)
    if (u < 0).any():
        raise ParameterError("psi0 is defined on u >= 0 only")
    out = mech._psi0(u)
    return out if np.ndim(out) else float(out)


def eval_capital_phi(mech: Mechanism, u):
    """Phi(u) = psi0(u)/u, the nondecreasing conservativity functional."""
    u = np.asarray(u, float)
    if np.any(u < 0):
        raise ParameterError("Phi is defined on u >= 0 only")
    if np.any(u == 0) and eval_psi(mech, 0.0) < 0:
        raise ParameterError("Phi(0) = -infinity when q > 0")
    pos = np.where(u > 0, u, 1.0)
    out = np.where(u > 0, np.asarray(eval_psi0(mech, pos)) / pos, 0.0)
    return out if out.ndim else float(out)


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
        return cls(sigma, *mech.stable_params())

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


def classify_regime(env: EnvParams) -> Regime:
    """Regime tags determined by (m, sigma, beta); a boundary holds within EPS_REGIME."""
    m, s2, b, eps = env.m, env.sigma**2, env.beta, EPS_REGIME
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
