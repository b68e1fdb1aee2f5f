"""Environment-conditioned Laplace exponents.

Given an environment path delta on [0, t], the conditional Laplace exponent
v_t(s, lambda, delta) solves the backward equation

    d/ds v = exp(delta_s) * psi(v * exp(-delta_s)),      v(t) = lambda

(with psi replaced by psi0 on K0-flavored paths).  The module provides a
vectorized Dormand-Prince 5(4) solver that carries its step count from one
environment segment to the next, and the conditional Laplace transform,
survival and explosion probabilities, from a mechanism's closed form where
it has one.  A single path, as every ``solve_backward`` call has, takes the
same steps on Python floats: there numpy's cost per call, several
microseconds per psi evaluation, would outweigh the arithmetic.  The
solvers look psi up in this module (``eval_psi``, ``eval_psi0``) once per
solve, so a wrapper installed before a solve sees every psi call it makes.

The declared path model is linear interpolation of the environment between
grid points.  The closed forms (``mechanisms.closed_form_neveu``,
``closed_form_feller``, ``closed_form_stable``, re-exported here) integrate
their path functionals exactly on that model (``environment``'s
``exp_linear_suffix`` and ``weighted_exp_decay_integral``; the latter,
``integral_exp_linear`` and ``suffix_integral_exp_linear`` are re-exported
here too), so solver and closed form approximate the *same* problem and can
be compared at solver accuracy.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .environment import (EnvPath, integral_exp_linear, suffix_integral_exp_linear,
                          weighted_exp_decay_integral)
from .errors import ParameterError, SolverError, UnsupportedMechanismError
from .mechanisms import (Feller, Mechanism, Stable, closed_form_feller, closed_form_neveu,
                         closed_form_stable, eval_psi, eval_psi0)

logger = logging.getLogger(__name__)

__all__ = [
    "FlowSolution",
    "solve_backward",
    "solve_backward_batch",
    "closed_form_neveu",
    "closed_form_feller",
    "closed_form_stable",
    "cond_laplace",
    "cond_survival",
    "cond_explosion",
    "integral_exp_linear",
    "suffix_integral_exp_linear",
    "weighted_exp_decay_integral",
    "V_FLOOR",
]

#: |v| below this is rounded to the invariant fixed point 0
V_FLOOR = 1e-14

#: solver treats v above this as blow-up
V_BLOWUP = 1e12


# ---------------------------------------------------------------------------
# Backward solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowSolution:
    t: float
    lam: float
    grid: np.ndarray
    values: np.ndarray
    env: EnvPath
    blowup_time: float | None = None

    @property
    def initial(self) -> float:
        """v_t(0, lambda, delta)."""
        return float(self.values[0])


def _rhs_factory(mech: Mechanism, flavor: str, one_path: bool = False):
    if flavor not in ("K", "K0"):
        raise ParameterError(f"flavor must be 'K' or 'K0', not {flavor!r}")
    if flavor == "K0":
        if mech.infinite_mean:
            raise UnsupportedMechanismError(
                "K0-flavored environments require a finite-mean mechanism"
            )
        psi = eval_psi0
    else:
        psi = eval_psi

    if one_path:
        def rhs(d, v):
            # d = delta_s, v a float.  Where numpy would overflow to inf or
            # divide by zero, Python raises; NaN fails the error test as
            # those values do
            try:
                ed = math.exp(d)
                return ed * psi(mech, (0.0 if v < 0.0 else v) / ed)
            except (OverflowError, ZeroDivisionError):
                return math.nan

        return rhs

    def rhs(ed, v, out):
        # ed = exp(delta_s); f is written into the stage row ``out``
        np.multiply(ed, psi(mech, np.maximum(v, 0.0) / ed), out=out)

    return rhs


# Dormand-Prince 5(4) tableau.  The last row of _DP_A holds the fifth-order
# weights, so the last stage is the next step's first ("first same as
# last"); _DP_E holds the fifth- minus fourth-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# the same tableau as tuples of floats for the one-path route; row st of
# _DP_ROWS holds the weights of the st stages before stage st
_DP_C1 = tuple(_DP_C.tolist())
_DP_ROWS = tuple(tuple(row[:st]) for st, row in enumerate(_DP_A.tolist()))
_DP_E1 = tuple(_DP_E.tolist())


def solve_backward_batch(mech: Mechanism, lam: float, t: float, grid, values,
                         flavor: str = "K", tol: float = 1e-10,
                         max_halvings: int = 12):
    """Solve the backward equation along many paths at once.

    ``values`` has shape (paths, n); the solution is returned on the same
    grid, with the time of blow-up (or None).  Each environment segment is
    crossed in ``n_sub`` equal Dormand-Prince 5(4) steps, so steps end on
    the grid and the environment is linear within each step.  A try is
    accepted when every step's embedded error estimate, max over paths of
    |y5 - y4| / max(1, |y5|), is below ``tol``; the fifth-order value is
    kept.  ``n_sub`` carries over from segment to segment: it doubles on a
    rejected try, up to ``2**max_halvings``, and halves for the next segment
    when the error is below ``tol / 64``.  A segment that still fails at
    ``2**max_halvings`` steps raises ``SolverError``, unless v has blown up
    there.

    At each segment's end one min and one max over the paths decide the
    rest: v has blown up when either is NaN or infinite or the max exceeds
    ``V_BLOWUP``; a min below ``-10 tol`` raises ``SolverError`` (negative
    excursion); and only a min below ``V_FLOOR`` sends the values through
    the floor, where |v| < ``V_FLOOR`` becomes 0 and negative v becomes 0.

    One path (``values`` of one row) takes the same steps, tries and checks
    on Python floats (`_solve_one`), free of numpy's per-call cost.
    """
    g = np.asarray(grid, float)
    V = np.atleast_2d(np.asarray(values, float))
    if lam < 0 or not np.isfinite(lam):
        raise ParameterError("terminal value lambda must be finite and >= 0")
    if abs(g[-1] - t) > 1e-12 * max(1.0, t):
        raise ParameterError("environment grid must end at the horizon t")
    max_sub = 2**max_halvings
    if V.shape[0] == 1:
        return _solve_one(_rhs_factory(mech, flavor, one_path=True), float(lam),
                          g.tolist(), V[0].tolist(), tol, max_sub)
    rhs = _rhs_factory(mech, flavor)
    dV = np.diff(V, axis=1)
    gl = g.tolist()

    out = np.empty_like(V)
    out[:, -1] = lam
    v = np.full(V.shape[0], float(lam))
    k = np.empty((_DP_C.size, V.shape[0]))  # stages; k[0] is f at the step's start
    rhs(np.exp(V[:, -1]), v, k[0])
    # for each later stage st: the stages before it, k[:st], and its row k[st]
    stages = tuple((k[:st], k[st]) for st in range(1, _DP_C.size))
    fracs = {}  # n_sub -> stage-time fractions, as _stage_fractions builds them
    n_sub = 1
    blowup = None
    for j in range(g.size - 2, -1, -1):
        s_lo = gl[j]
        k_top = k[0].copy()
        while True:
            frac = fracs.get(n_sub)
            if frac is None:
                frac = fracs[n_sub] = _stage_fractions(n_sub)
            v_new, err = _dp_span(rhs, k, stages, v, V[:, j], dV[:, j],
                                  gl[j + 1] - s_lo, frac,
                                  tol if n_sub < max_sub else math.inf)
            if err < tol or n_sub >= max_sub:
                break
            n_sub *= 2
            k[0] = k_top
        # the smallest and largest end value: a NaN makes both NaN
        lo, hi = np.minimum.reduce(v_new), np.maximum.reduce(v_new)
        if not (hi <= V_BLOWUP and lo > -math.inf):
            blowup = s_lo
            out[:, : j + 1] = np.inf
            break
        if not err < tol:
            raise SolverError(
                f"no convergence on the segment ending at s = {s_lo:.6g}: error "
                f"estimate {err:.3g} >= tol {tol:.3g} with {n_sub} steps")
        if lo < -tol * 10:
            raise SolverError(f"negative excursion at s = {s_lo:.6g}")
        v = v_new
        if lo < V_FLOOR:
            v = np.where(np.abs(v_new) < V_FLOOR, 0.0, np.maximum(v_new, 0.0))
            if not np.array_equal(v, v_new):
                rhs(np.exp(V[:, j]), v, k[0])
        out[:, j] = v
        if err < tol / 64 and n_sub > 1:
            n_sub //= 2
    return out, blowup


def _stage_fractions(n_sub):
    """Where each later stage of each of ``n_sub`` steps sits on a segment,
    as a fraction of the segment from its bottom, shaped (n_sub, 6, 1)."""
    return (1.0 - (np.arange(n_sub)[:, None] + _DP_C[1:]) / n_sub)[:, :, None]


def _dp_span(rhs, k, stages, v, d_lo, dd, length, frac, stop):
    """``len(frac)`` Dormand-Prince steps backward across one segment, along
    which delta runs linearly from ``d_lo + dd`` at its top to ``d_lo``.

    ``k[0]`` holds f at the start and, on return, f at the end; ``stages``
    holds the views (``k[:st]``, ``k[st]``) for st = 1, ..., 6.  Returns the
    end value and the largest error estimate; returns early once that
    estimate exceeds ``stop``.
    """
    h = -length / len(frac)
    hA = h * _DP_A
    rows = [hA[st, :st] for st in range(1, _DP_C.size)]
    hE = h * _DP_E
    ed = np.exp(d_lo + frac * dd)  # exp(delta) at every later stage
    err = 0.0
    for ed_i in ed:
        for row, (before, k_st), ed_st in zip(rows, stages, ed_i):
            y = v + np.dot(row, before)
            rhs(ed_st, y, k_st)
        e = float(np.maximum.reduce(np.abs(np.dot(hE, k)) / np.maximum(1.0, np.abs(y))))
        err = max(err, e) if e == e else math.inf  # a NaN estimate fails
        if err > stop:
            return y, err
        v = y
        k[0] = k[-1]
    return v, err


def _solve_one(rhs, lam, g, d, tol, max_sub):
    """`solve_backward_batch` on the one path ``d`` (a list), with the
    one-path ``rhs``: the same segments, step memory, tries, floor, blow-up
    and errors, on Python floats."""
    out = [lam] * len(g)
    v = lam
    k = rhs(d[-1], v)  # f at the start of the next step
    n_sub = 1
    blowup = None
    for j in range(len(g) - 2, -1, -1):
        s_lo = g[j]
        while True:
            v_new, err, k_end = _dp_span_one(rhs, k, v, d[j], d[j + 1] - d[j],
                                             g[j + 1] - s_lo, n_sub,
                                             tol if n_sub < max_sub else math.inf)
            if err < tol or n_sub >= max_sub:
                break
            n_sub *= 2
        if not math.isfinite(v_new) or v_new > V_BLOWUP:
            blowup = float(s_lo)
            out[: j + 1] = [math.inf] * (j + 1)
            break
        if not err < tol:
            raise SolverError(
                f"no convergence on the segment ending at s = {s_lo:.6g}: error "
                f"estimate {err:.3g} >= tol {tol:.3g} with {n_sub} steps")
        if v_new < -tol * 10:
            raise SolverError(f"negative excursion at s = {s_lo:.6g}")
        v = v_new if v_new >= V_FLOOR else 0.0
        k = k_end if v == v_new else rhs(d[j], v)
        out[j] = v
        if err < tol / 64 and n_sub > 1:
            n_sub //= 2
    return np.array([out]), blowup


def _dp_span_one(rhs, k1, v, d_lo, dd, length, n_sub, stop):
    """`_dp_span` on one path in Python floats: ``k1`` is f at the start;
    returns the end value, the largest error estimate and f at the end."""
    h = -length / n_sub
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _DP_ROWS
    e1, _, e3, e4, e5, e6, e7 = _DP_E1
    _, c2, c3, c4, c5, _, _ = _DP_C1
    err = 0.0
    for i in range(n_sub):
        d_end = d_lo + (1.0 - (i + 1.0) / n_sub) * dd  # delta at stages 6 and 7
        k2 = rhs(d_lo + (1.0 - (i + c2) / n_sub) * dd, v + h * (a21 * k1))
        k3 = rhs(d_lo + (1.0 - (i + c3) / n_sub) * dd, v + h * (a31 * k1 + a32 * k2))
        k4 = rhs(d_lo + (1.0 - (i + c4) / n_sub) * dd,
                 v + h * (a41 * k1 + a42 * k2 + a43 * k3))
        k5 = rhs(d_lo + (1.0 - (i + c5) / n_sub) * dd,
                 v + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4))
        k6 = rhs(d_end, v + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5))
        y = v + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = rhs(d_end, y)
        ay = abs(y)  # a NaN y gives a NaN estimate, as in _dp_span
        e = (abs(h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7))
             / (1.0 if ay <= 1.0 else ay))
        err = max(err, e) if e == e else math.inf  # a NaN estimate fails
        if err > stop:
            return y, err, k1
        v, k1 = y, k7
    return v, err, k1


def solve_backward(mech: Mechanism, lam: float, t: float, env: EnvPath,
                   tol: float = 1e-10) -> FlowSolution:
    """Solve the backward equation on one environment path."""
    vals, blowup = solve_backward_batch(mech, lam, t, env.grid, env.values,
                                        env.flavor, tol)
    return FlowSolution(t, lam, env.grid, vals[0], env, blowup)


# ---------------------------------------------------------------------------
# Conditional probabilities
# ---------------------------------------------------------------------------


def cond_laplace(z: float, lam: float, t: float, env: EnvPath,
                 mech: Mechanism, tol: float = 1e-10) -> float:
    """E_z[exp(-lambda Z_t e^{-K_t}) | K] = exp(-z v_t(0, lambda, K))."""
    if z < 0:
        raise ParameterError("initial mass must be nonnegative")
    if z == 0:
        return 1.0
    if lam == 0 and mech.conservative:
        return 1.0  # lim v = 0
    v0 = mech.closed_form(lam, t, env)
    if v0 is None:
        # the solver takes the lambda -> 0 limit at lambda = 1e-12
        v0 = solve_backward(mech, lam or 1e-12, t, env, tol).initial
    return float(np.exp(-z * v0))


def _cond_prob(z: float, t: float, env: EnvPath, mech: Mechanism, lam: float) -> float:
    """1 - exp(-z v_t(0, lam, K)): P_z(Z_t > 0 | K) at lam = inf and
    P_z(Z_t = infinity | K) at lam = 0, from the stable closed form."""
    if z < 0:
        raise ParameterError("initial mass must be nonnegative")
    if lam == 0.0 and mech.conservative:
        logger.info("the process is conservative: explosion probability 0")
        return 0.0
    alpha, beta, c = mech.stable_params()
    if beta < 0 < lam:
        logger.info("survival probability is identically 1 for beta < 0")
        return float(z > 0)
    return float(-np.expm1(-z * closed_form_stable(lam, t, env, beta, c, alpha)))


def cond_survival(z: float, t: float, env: EnvPath, mech: Stable | Feller) -> float:
    """P_z(Z_t > 0 | K) for the stable family.

    For beta < 0 the process never dies: the probability is 1 for z > 0.
    """
    return _cond_prob(z, t, env, mech, math.inf)


def cond_explosion(z: float, t: float, env: EnvPath, mech: Mechanism) -> float:
    """P_z(Z_t = infinity | K); positive for every t > 0 when beta < 0, and 0
    for a conservative mechanism."""
    return _cond_prob(z, t, env, mech, 0.0)
