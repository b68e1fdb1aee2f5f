"""Brownian environments and exponential functionals.

The random environment is a drifted Brownian motion sampled exactly on a
grid: ``K_t = sigma*B_t - sigma^2 t/2`` (flavor ``"K"``) or
``K0_t = sigma*B_t + m t`` (flavor ``"K0"``).  Everything downstream is a
path functional of ``int exp(theta * K_s) ds``, which has two rules here
because it stands for two objects: ``exp_linear_suffix`` integrates each
segment exactly with the path linear between grid points (the declared path
model of the closed forms and the solver), and ``log_exp_functional`` is the
trapezoid, first-order unbiased for the Brownian functional that Monte Carlo
estimates (the README's numerical notes say why).  Both scale each path by
its largest term: supercritical parameter sets push the integrand across
hundreds of orders of magnitude.

The analytic side of the module evaluates the law of

    I_nu^(eta) = int_0^nu exp(2(eta*s + B_s)) ds

three ways: Dufresne's Gamma identity at nu = infinity, the closed-form
density ``p_{nu,eta}`` of 1/(2 I_nu^(eta)) for eta > -1, and a marginal
built from the Hartman-Watson-type kernel ``theta_r(t)`` which remains valid
for any drift: one trapezoid lattice in (log I, B_nu + eta*nu), whose summed
weights check the law's mass.  The density and the kernel integrate Yor's
oscillatory weight e^(-y^2/2t) sinh(y) sin(pi y/t) against their own kernel
in y, on one rule (`_yor_sums`) with one noise clamp and one refusal below
t = 0.3.
Monte Carlo samplers double as oracles for all of them.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng as _rng
from .errors import (
    DivergentFunctionalError,
    ParameterError,
    QuadratureInstabilityError,
)
from .numerics import _gammaln, _row_blocks, _row_sums, gl_panels, u_half_diff

__all__ = [
    "MCEstimate",
    "EnvPath",
    "sample_env_path",
    "sample_env_paths",
    "refine_env_path",
    "ExpFunctional",
    "exp_functional",
    "log_exp_functional",
    "exp_linear_suffix",
    "integral_exp_linear",
    "suffix_integral_exp_linear",
    "dufresne_law",
    "my_density",
    "my_density_grid",
    "density_expectation",
    "density_cdf",
    "hw_kernel",
    "hw_conditional_density",
    "hw_marginal_expectation",
    "mc_half_inverse_samples",
    "lemma1_moments",
    "Lemma1Report",
    "NU_MIN",
    "T_MIN",
]

#: below these the exp(pi^2/2t) prefactor and sin(pi y/t) oscillation cancel
#: catastrophically in double precision; Monte Carlo is the fallback.  The
#: density's nu is the Yor rule's t, so both name the one bound it checks
NU_MIN = 0.3
T_MIN = 0.3

#: a Yor-rule sum below this share of its cancellation scale is noise and reads 0
_YOR_CLAMP = 5e-15

#: lattice step of the Hartman-Watson route; halving it moves no value by 1e-10
_HW_STEP = 0.1
#: largest |mass - 1| at which the Hartman-Watson route returns a value; the
#: mass is within 3e-10 of 1 for nu <= 0.75 at eta = -1
_HW_MASS_TOL = 1e-6


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with standard error and a reproducibility manifest."""

    value: float
    stderr: float
    n: int
    method: str
    manifest: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n": self.n,
            "method": self.method,
            "manifest": dict(self.manifest),
        }


def _mc_estimate(samples: np.ndarray, method: str, manifest: dict) -> MCEstimate:
    n = samples.size
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(float(samples.mean()), se, n, method, manifest)


# ---------------------------------------------------------------------------
# Environment paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvPath:
    """A discretized environment realization on [0, T]."""

    grid: np.ndarray
    values: np.ndarray
    flavor: str  # "K" or "K0"
    sigma: float
    drift: float

    def __post_init__(self):
        g = np.asarray(self.grid, float)
        v = np.asarray(self.values, float)
        if g.ndim != 1 or g.size < 2 or g[0] != 0.0 or np.any(np.diff(g) <= 0):
            raise ParameterError("grid must start at 0 and increase strictly")
        if v.shape != g.shape or v[0] != 0.0:
            raise ParameterError("values must match the grid and start at 0")
        if self.flavor not in ("K", "K0"):
            raise ParameterError("flavor must be 'K' or 'K0'")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> float:
        return float(self.grid[-1])


def sample_env_paths(sigma: float, drift: float, T: float, n_steps: int,
                     seed: int, n_paths: int, stream: int = 0):
    """Matrix of environment paths, shape (n_paths, n_steps+1).

    Increments are exact Gaussians: N(drift*dt, sigma^2*dt).  sigma = 0 is
    accepted as the degenerate deterministic path.  This is the bulk twin of
    `_env_path_map`: row group g (`_GROUP_PATHS` paths each) is drawn from
    group g of the (seed, stream) key, so the first group is one
    ``rng.stream(seed, stream)`` draw.  The group size is part of the stream
    definition, like the seed; the thread count and the row budget change no
    value.
    """
    K = np.empty((n_paths, n_steps + 1))

    def fill(rows, grid, block):
        K[rows] = block

    grid = _env_path_map(fill, sigma, drift, T, n_steps, seed, n_paths, stream)
    return grid, K


#: paths per group of environment Monte Carlo.  Group g draws from Philox
#: counter g * 2^64 of the (seed, stream) key, so this size is part of the
#: stream definition, like the seed, and not a tuning knob
_GROUP_PATHS = 1024


def _mc_threads() -> int:
    """CPUs available to this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _env_path_map(fill: Callable, sigma: float, drift: float, T: float, n_steps: int,
                  seed: int, n_paths: int, stream: int = 0) -> np.ndarray:
    """Call ``fill(rows, grid, K)`` on `sample_env_paths`'s matrix, one row
    block ``K[rows]`` at a time, and return the grid.

    Paths split into groups of `_GROUP_PATHS`; group g draws its rows, row
    after row, from ``rng.group_stream(seed, stream, g)``, so the group size
    is part of the stream definition, like the seed.  The groups run on a
    thread pool sized to the CPUs available, at most one thread per group
    (one group runs inline).  The threads split the row budget of `numerics`,
    so memory in flight stays that of one sweep.  ``fill`` runs on the
    threads: it must reduce each row on its own and write only its rows.
    Then no thread count, row budget or scheduling changes a value.
    """
    if T <= 0 or n_steps < 1:
        raise ParameterError("need T > 0 and n_steps >= 1")
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    grid = np.linspace(0.0, T, n_steps + 1)
    n_groups = -(-n_paths // _GROUP_PATHS)
    threads = min(_mc_threads(), n_groups)

    def group(g):
        lo = g * _GROUP_PATHS
        for rows, K in _increment_blocks(_rng.group_stream(seed, stream, g),
                                         min(_GROUP_PATHS, n_paths - lo), n_steps,
                                         drift, sigma, T / n_steps, share=threads):
            fill(slice(lo + rows.start, lo + rows.stop), grid, K)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(group, range(n_groups)))  # re-raises a group's error
    else:
        for g in range(n_groups):
            group(g)
    return grid


def _increment_blocks(gen, n_paths: int, n_steps: int, drift: float, sigma: float,
                      dt: float, share: int = 1):
    """``(rows, K)`` blocks of paths started at 0, n_steps steps of dt each,
    within ``1/share`` of the row budget of `numerics`; the increments are
    drawn row after row from ``gen``, so no budget changes a path."""
    for rows in _row_blocks(n_paths, n_steps + 1, share):
        K = np.empty((rows.stop - rows.start, n_steps + 1))
        K[:, 0] = 0.0
        if sigma == 0.0:
            K[:, 1:] = drift * dt * np.arange(1, n_steps + 1)
        else:
            inc = gen.normal(drift * dt, sigma * math.sqrt(dt), size=(K.shape[0], n_steps))
            np.cumsum(inc, axis=1, out=K[:, 1:])
        yield rows, K


def sample_env_path(sigma: float, drift: float, T: float, n_steps: int,
                    seed: int, flavor: str = "K0", stream: int = 0) -> EnvPath:
    """One reproducible environment path."""
    grid, K = sample_env_paths(sigma, drift, T, n_steps, seed, 1, stream)
    return EnvPath(grid, K[0], flavor, sigma, drift)


def refine_env_path(path: EnvPath, seed: int, stream: int = 0) -> EnvPath:
    """Insert Brownian-bridge midpoints, halving the step.

    The refined path agrees with the original at the original grid points,
    so convergence studies are coupled pathwise.
    """
    g, v = path.grid, path.values
    gen = _rng.stream(seed, stream)
    mid_t = 0.5 * (g[:-1] + g[1:])
    mean = 0.5 * (v[:-1] + v[1:])
    # bridge variance of the Gaussian part: sigma^2 * dt/4
    sd = path.sigma * np.sqrt((g[1:] - g[:-1]) / 4.0)
    mid_v = mean + gen.normal(0.0, 1.0, size=mid_t.size) * sd
    new_g = np.empty(2 * g.size - 1)
    new_v = np.empty_like(new_g)
    new_g[0::2], new_g[1::2] = g, mid_t
    new_v[0::2], new_v[1::2] = v, mid_v
    return EnvPath(new_g, new_v, path.flavor, path.sigma, path.drift)


# ---------------------------------------------------------------------------
# Exponential functionals of a path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpFunctional:
    value: float
    log_value: float
    T: float
    rule: str = "log-trapezoid"
    saturated: bool = False


def log_exp_functional(grid, values, theta: float):
    """log int_0^T exp(theta * K_s) ds by trapezoid in log space.

    ``values`` may be a matrix of paths (one row per path).  Each row is
    scaled by its largest term, so one exp per point suffices.
    """
    g = np.asarray(grid, float)
    V = np.atleast_2d(np.asarray(values, float)) * theta
    half = 0.5 * np.diff(g)
    w = np.zeros(g.size)  # trapezoid node weights
    w[:-1] += half
    w[1:] += half
    top = V.max(axis=1)
    top = np.where(np.isfinite(top), top, 0.0)
    V -= top[:, None]
    np.exp(V, out=V)
    out = np.log(np.einsum("ij,j->i", V, w)) + top
    return out if np.ndim(values) == 2 else float(out[0])


def exp_linear_suffix(grid, w):
    """Exact int_s^T exp(w(u)) du at every grid point s, w linear between
    grid points, as ``(S, top)``: the integrals are S * e^top, ``top`` being
    the largest value of each row of ``w`` ((n,) or (paths, n)), and
    log S[..., 0] + top is the log of the whole integral.  No exp overflows.
    """
    g = np.asarray(grid, float)
    W = np.atleast_2d(np.asarray(w, float))
    top = W.max(axis=1)
    # a segment from a to b holds dt e^(max(a, b) - top) (1 - e^-|b-a|)/|b-a|
    hi = np.maximum(W[:, :-1], W[:, 1:]) - top[:, None]
    gap = np.abs(np.diff(W, axis=1))
    ratio = np.where(gap > 1e-8, -np.expm1(-gap) / np.maximum(gap, 1e-8), 1.0 - 0.5 * gap)
    seg = np.exp(hi, out=hi) * ratio * np.diff(g)
    S = np.zeros_like(W)
    S[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return (S, top) if np.ndim(w) == 2 else (S[0], float(top[0]))


def suffix_integral_exp_linear(grid, w):
    """int_s^T exp(w(u)) du at every grid point s, shaped like ``w`` (exact segments)."""
    S, top = exp_linear_suffix(grid, w)
    return S * np.exp(top)[..., None]


def integral_exp_linear(grid, w):
    """int exp(w(u)) du with w piecewise linear on the grid (exact)."""
    return float(suffix_integral_exp_linear(grid, w)[0])


def exp_functional(path: EnvPath, theta: float) -> ExpFunctional:
    """Trapezoidal int_0^T exp(theta*K_s) ds, overflow-guarded."""
    lv = log_exp_functional(path.grid, path.values, theta)
    value = float(np.exp(lv))
    return ExpFunctional(value, float(lv), path.T, saturated=not np.isfinite(value))


# ---------------------------------------------------------------------------
# Dufresne identity
# ---------------------------------------------------------------------------


def dufresne_law(eta: float) -> float:
    """Gamma shape s such that I_inf^(eta) =d 1/(2*Gamma_s); requires eta < 0."""
    if eta >= 0:
        raise DivergentFunctionalError(
            "I_infinity diverges a.s. for eta >= 0; no limiting law exists"
        )
    return -eta


# ---------------------------------------------------------------------------
# Yor's oscillatory weight, shared by the density and the HW kernel
# ---------------------------------------------------------------------------


def _yor_sums(kernel: Callable, x, t: float, ymax: float):
    """sum_j kernel(x, cosh y)[i, j] w_j e^(-y_j^2/2t) sinh(y_j) sin(pi y_j/t)
    for each point x[i], clamped to 0 where negative or within `_YOR_CLAMP` of
    its cancellation scale; refuses t < T_MIN.

    Gauss-Legendre panels at most 0.5 wide are aligned with the lobes of
    sin(pi y/t), up to the end of the lobe that reaches ymax.
    """
    if t < T_MIN:
        raise QuadratureInstabilityError(
            f"t = {t} < {T_MIN}: exp(pi^2/2t) cancellation; use Monte Carlo"
        )
    edges = [0.0]
    k = 0
    while k * t < ymax:
        lo, hi = k * t, (k + 1) * t
        nsub = int(np.ceil((hi - lo) / 0.5))
        edges.extend(np.linspace(lo, hi, nsub + 1)[1:])
        k += 1
    y, w = gl_panels(np.asarray(edges), 16)
    # past y = 710 sinh and cosh overflow; where the Gaussian has underflowed
    # the weight is below e^(y - y^2/2t), negligible, and 0 * inf must read 0
    with np.errstate(over="ignore", invalid="ignore"):
        osc = w * np.exp(-(y**2) / (2.0 * t)) * np.sinh(y) * np.sin(np.pi * y / t)
        cosh_y = np.cosh(y)
    osc[np.isnan(osc)] = 0.0
    val, noise = _row_sums(lambda xx: kernel(xx, cosh_y), x, osc, noise=True)
    return np.where(np.abs(val) > noise * _YOR_CLAMP, np.maximum(val, 0.0), 0.0)


# ---------------------------------------------------------------------------
# Density of 1/(2 I_nu^(eta)) for eta > -1
# ---------------------------------------------------------------------------


def my_density_grid(x, nu: float, eta: float):
    """p_{nu,eta} evaluated on an array of points (vectorized sweep).

    The Yor integral runs over `_yor_sums` with the kernel ``U(w) - U(0)``,
    w = x cosh^2 y, rather than ``U(w)``: the Gaussian-sinh-sine measure
    integrates every constant (and every integer power of cosh) to exactly
    zero, so the subtraction removes the dominant cancellation without
    changing the value.  The prefactor enters the exponent with the log of
    the sum, so it cannot overflow at the smallest points.
    """
    if eta <= -1.0:
        raise ParameterError("the density formula requires eta > -1")
    x = np.asarray(x, float)
    if np.any(x <= 0):
        raise ParameterError("density support is (0, infinity)")
    a = 0.5 * (eta + 1.0)
    # cut where the cancellation residue of the truncated tail is negligible
    ymax = 2.0 * nu + math.sqrt(4.0 * nu * nu + 220.0 * nu)
    J = _yor_sums(lambda xx, c: u_half_diff(a, np.outer(xx, c * c)), x, nu, ymax)
    logC = (
        -0.5 * eta * eta * nu
        + np.pi**2 / (2.0 * nu)
        + _gammaln(0.5 * (eta + 2.0))
        + _gammaln(a)
        - math.log(math.sqrt(2.0) * np.pi**2 * math.sqrt(nu))
    )
    with np.errstate(divide="ignore"):  # log 0 = -inf: the density reads 0
        return np.exp(logC - x - a * np.log(x) + np.log(J))


def my_density(nu: float, eta: float, x: float) -> float:
    """Density of 1/(2 I_nu^(eta)) at a single point."""
    return float(my_density_grid(np.array([x]), nu, eta)[0])


def _default_v_rule(nu: float, eta: float, per_lnunit: float = 2.6, order: int = 16):
    # cover the lognormal-type bulk: ln v is centered near -2*eta*nu with
    # spread ~ 2*sqrt(nu); widen generously for integrand tilts
    vlo = math.exp(-2.0 * nu * (abs(eta) + 4.0) - 16.0 * math.sqrt(nu) - 20.0)
    vlo = max(vlo, 1e-280)
    vhi = 60.0 + 10.0 * abs(eta)
    npan = max(40, min(int(per_lnunit * math.log(vhi / vlo)), 560))
    return gl_panels(np.geomspace(vlo, vhi, npan), order)


def density_expectation(func: Callable, nu: float, eta: float) -> float:
    """int func(v) p_{nu,eta}(v) dv over the full support."""
    v, w = _default_v_rule(nu, eta)
    p = my_density_grid(v, nu, eta)
    return float(np.sum(w * func(v) * p))


def density_cdf(points, nu: float, eta: float):
    """CDF of 1/(2 I_nu^(eta)) at the given (sorted) points."""
    pts = np.asarray(points, float)
    v, w = _default_v_rule(nu, eta, per_lnunit=3.2)
    p = my_density_grid(v, nu, eta)
    mass = w * p
    order = np.argsort(v)
    v, mass = v[order], np.cumsum(mass[order])
    return np.interp(pts, v, mass, left=0.0)


# ---------------------------------------------------------------------------
# Hartman-Watson-type kernel and the drift-free marginal route
# ---------------------------------------------------------------------------


def hw_kernel(r, t: float):
    """theta_r(t): the oscillatory kernel of the conditional law of I_t.

    Vectorized over r; the Yor integral runs over `_yor_sums` with the
    kernel e^(-r cosh y).  Values that fall below the cancellation noise
    floor are clamped to zero (theta_r(t) -> 0 faster than any power as
    r -> 0).

    Accuracy at small t is set by that cancellation: at t = 0.3125 and
    r = 0.6 (theta at 1.8e-6 of its peak) the sum cancels about 1.5e9-fold
    and the value is 1.1e-7 off mpmath; at t = 0.5 the same band edge is
    1.6e-9 off.
    """
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, float))
    if np.any(r <= 0):
        raise ParameterError("r must be positive")
    rmin = float(r.min())
    ymax = min(math.sqrt(2.0 * t * 745.0) + 2.0, float(np.arccosh(745.0 / min(rmin, 745.0)) + 1.0))
    val = _yor_sums(lambda rr, c: np.exp(-np.outer(rr, c)), r, t, ymax)
    pref = r / math.sqrt(2.0 * np.pi**3 * t) * math.exp(np.pi**2 / (2.0 * t))
    out = pref * val
    return float(out[0]) if scalar else out


def hw_conditional_density(u, t: float, x: float):
    """Density in u of I_t^(eta) given B_t + eta*t = x (drift-free)."""
    u = np.asarray(u, float)
    pref = math.sqrt(2.0 * np.pi * t) * math.exp(x**2 / (2.0 * t))
    return pref / u * np.exp(-(1.0 + math.exp(2.0 * x)) / (2.0 * u)) * hw_kernel(np.exp(x) / u, t)


def hw_marginal_expectation(func: Callable, nu: float, eta: float) -> float:
    """E[func(I_nu^(eta))] by quadrature over the Hartman-Watson marginal.

    Valid for every drift eta (unlike the p-density route, which needs
    eta > -1).  The joint density of (log I, B_nu + eta*nu) at (log u, x),
    e^(eta x - eta^2 nu/2 - (1 + e^(2x))/(2u)) theta_{e^x/u}(nu), is summed
    on one lattice of step `_HW_STEP` in both variables (the trapezoid rule:
    the density is negligible at the ends), where x - log u falls on a
    lattice of the same step, on which theta is evaluated once.  The summed
    weights are the law's mass; off 1 by more than `_HW_MASS_TOL` raises.
    """
    h, sp = _HW_STEP, math.sqrt(nu)
    lu_lo = math.log(nu) - 2.0 * abs(eta) * nu - 8.0 * sp - 22.0
    x_lo = eta * nu - 8.0 * sp - 8.0
    n_u = math.ceil((4.0 * abs(eta) * nu + 16.0 * sp + 44.0) / h) + 1
    n_x = math.ceil((16.0 * sp + 16.0) / h) + 1
    u = np.exp(lu_lo + h * np.arange(n_u))
    x = x_lo + h * np.arange(n_x)
    # x_i - log u_j = x_lo - lu_lo + (i - j) h: row j of the Toeplitz view
    # reads theta[n_u - 1 - j + i]
    theta = hw_kernel(np.exp(x_lo - lu_lo + h * np.arange(1 - n_u, n_x)), nu)
    toeplitz = np.lib.stride_tricks.sliding_window_view(theta, n_x)[::-1]
    e2x = 1.0 + np.exp(2.0 * x)
    weights = h * h * np.exp(eta * x - 0.5 * eta * eta * nu)
    marg = _row_sums(lambda j: np.exp(np.outer(-0.5 / u[j], e2x)) * toeplitz[j],
                     np.arange(n_u), weights)
    mass = float(np.sum(marg))
    if not abs(mass - 1.0) <= _HW_MASS_TOL:
        raise QuadratureInstabilityError(f"Hartman-Watson mass {mass!r} at nu = {nu}, "
                                         f"eta = {eta} is off 1 by more than {_HW_MASS_TOL}")
    return float(np.sum(func(u) * marg))


# ---------------------------------------------------------------------------
# Monte Carlo for I_nu^(eta)
# ---------------------------------------------------------------------------


def mc_log_exp_functionals(eta: float, t: float, n: int, n_steps: int, seed: int):
    """Samples of log I_t^(eta) = log int_0^t exp(2(eta s + B_s)) ds; B is stream 1 of seed."""
    out = np.empty(n)

    def fill(rows, grid, B):
        B += eta * grid
        out[rows] = log_exp_functional(grid, B, 2.0)

    _env_path_map(fill, 1.0, 0.0, t, n_steps, seed, n, stream=1)
    return out


def mc_half_inverse_samples(nu: float, eta: float, n: int, n_steps: int, seed: int):
    """Samples of 1/(2 I_nu^(eta))."""
    logI = mc_log_exp_functionals(eta, nu, n, n_steps, seed)
    return np.exp(-math.log(2.0) - logI)


# ---------------------------------------------------------------------------
# Moment identities (time reversal + Esscher transform)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma1Report:
    lhs: MCEstimate
    rhs: MCEstimate
    diff_stderr: float
    identity_ok: bool
    inequality_lhs: MCEstimate
    inequality_rhs: MCEstimate
    inequality_rhs_stderr: float
    inequality_ok: bool


def lemma1_moments(eta: float, p: float, t: float, n_mc: int = 100_000,
                   n_steps: int = 1000, seed: int = 0) -> Lemma1Report:
    """Check the negative-moment identity and product bound by paired MC.

    Identity: E[(I_t^(eta))^-p] = e^{(2p^2-2p eta)t} E[(I_t^(-(eta-2p)))^-p].
    Bound:    E[(I_t^(eta))^-2p] <= e^{(2p^2-2p eta)t}
              * E[(I_{t/2}^(-(eta-2p)))^-p] * E[(I_{t/2}^((eta-2p)))^-p].

    Both sides are driven by the same Brownian increments (stream 1 of
    ``seed``, in path groups), so the identity check uses the standard error
    of the per-path difference.
    """
    if p < 0 or t <= 0:
        raise ParameterError("need p >= 0 and t > 0")
    pref = math.exp((2.0 * p * p - 2.0 * p * eta) * t)
    mirror = -(eta - 2.0 * p)
    half = n_steps // 2
    # log I on [0, t] at eta and the mirror drift, on [0, t/2] at the mirror and eta - 2p
    li = np.empty((4, n_mc))
    sides = ((eta, n_steps), (mirror, n_steps), (mirror, half), (eta - 2.0 * p, half))

    def fill(rows, grid, B):
        for k, (drift, end) in enumerate(sides):
            g = grid[: end + 1]
            li[k, rows] = log_exp_functional(g, drift * g[None, :] + B[:, : end + 1], 2.0)

    _env_path_map(fill, 1.0, 0.0, t, n_steps, seed, n_mc, stream=1)
    lhs, prod_a, prod_b = np.exp(-p * li[[0, 2, 3]])
    rhs = pref * np.exp(-p * li[1])
    ineq_lhs = np.exp(-2.0 * p * li[0])
    manifest = {"seed": seed, "n_paths": n_mc, "n_steps": n_steps,
                "eta": eta, "p": p, "t": t}
    est_l = _mc_estimate(lhs, "mc-negative-moment", manifest | {"side": "lhs"})
    est_r = _mc_estimate(rhs, "mc-negative-moment", manifest | {"side": "rhs"})
    dse = float((lhs - rhs).std(ddof=1) / math.sqrt(n_mc))
    est_il = _mc_estimate(ineq_lhs, "mc-negative-moment", manifest | {"side": "ineq-lhs"})
    ea = _mc_estimate(prod_a, "mc-negative-moment", manifest)
    eb = _mc_estimate(prod_b, "mc-negative-moment", manifest)
    prod_val = pref * ea.value * eb.value
    prod_se = pref * math.hypot(ea.value * eb.stderr, eb.value * ea.stderr)
    est_ir = MCEstimate(prod_val, prod_se, n_mc, "mc-product-bound", manifest | {"side": "ineq-rhs"})
    identity_ok = abs(est_l.value - est_r.value) <= 3.0 * dse
    inequality_ok = est_il.value <= prod_val + 3.0 * math.hypot(est_il.stderr, prod_se)
    return Lemma1Report(est_l, est_r, dse, identity_ok, est_il, est_ir, prod_se, inequality_ok)
