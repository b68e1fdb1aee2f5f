"""Environment-conditioned Laplace exponents.

Given an environment path delta on [0, t], the conditional Laplace exponent
v_t(s, lambda, delta) solves the backward equation

    d/ds v = exp(delta_s) * psi(v * exp(-delta_s)),      v(t) = lambda

(with psi replaced by psi0 on K0-flavored paths).  The module provides a
vectorized Dormand-Prince 5(4) solver that carries its step count from one
environment segment to the next, the Neveu / Feller / stable closed forms,
and the conditional survival and explosion probabilities they imply.  A
single path, as every ``solve_backward`` call has, takes the same steps on
Python floats: there numpy's cost per call, several microseconds per psi
evaluation, would outweigh the arithmetic.

The declared path model is linear interpolation of the environment between
grid points.  Closed-form path functionals integrate exp(linear) segments
exactly (``environment.exp_linear_suffix``; ``integral_exp_linear`` and
``suffix_integral_exp_linear`` are re-exported here), so solver and closed
form approximate the *same* problem and can be compared at solver accuracy.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .environment import (EnvPath, exp_linear_suffix, integral_exp_linear,
                          suffix_integral_exp_linear)
from .errors import ParameterError, SolverError, UnsupportedMechanismError
from .mechanisms import Feller, Mechanism, Stable, eval_psi, eval_psi0

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
# Exact path functionals under the linear-interpolation path model
# ---------------------------------------------------------------------------


def weighted_exp_decay_integral(grid, w):
    """Arrays of int_s^T exp(-u) w(u) du for piecewise-linear w (exact)."""
    g = np.asarray(grid, float)
    W = np.atleast_2d(np.asarray(w, float))
    # int (a+b u) e^{-u} du = -(a + b + b u) e^{-u}
    b = np.diff(W, axis=1) / np.diff(g)
    a = W[:, :-1] - b * g[:-1]
    anti_lo = -(a + b + b * g[:-1]) * np.exp(-g[:-1])
    anti_hi = -(a + b + b * g[1:]) * np.exp(-g[1:])
    seg = anti_hi - anti_lo
    out = np.zeros_like(W)
    out[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return out if np.ndim(w) == 2 else out[0]


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
        return float(self.values[0] if self.values.ndim == 1 else self.values[0, 0])


def _rhs_factory(mech: Mechanism, flavor: str, one_path: bool = False):
    # psi is looked up in this module at call time, so a wrapped
    # eval_psi/eval_psi0 sees every call
    if flavor not in ("K", "K0"):
        raise ParameterError(f"flavor must be 'K' or 'K0', not {flavor!r}")
    if flavor == "K0":
        if mech.infinite_mean:
            raise UnsupportedMechanismError(
                "K0-flavored environments require a finite-mean mechanism"
            )
        psi = lambda u: eval_psi0(mech, u)
    else:
        psi = lambda u: eval_psi(mech, u)

    if one_path:
        def rhs(d, v):
            # d = delta_s, v a float.  Where numpy would overflow to inf or
            # divide by zero, Python raises; NaN fails the error test as
            # those values do
            try:
                ed = math.exp(d)
                return ed * psi((0.0 if v < 0.0 else v) / ed)
            except (OverflowError, ZeroDivisionError):
                return math.nan

        return rhs

    def rhs(ed, v):
        # ed = exp(delta_s)
        return ed * psi(np.maximum(v, 0.0) / ed)

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

    out = np.empty_like(V)
    out[:, -1] = lam
    v = np.full(V.shape[0], float(lam))
    k = np.empty((_DP_C.size, V.shape[0]))  # stages; k[0] is f at the step's start
    k[0] = rhs(np.exp(V[:, -1]), v)
    n_sub = 1
    blowup = None
    for j in range(g.size - 2, -1, -1):
        s_lo = g[j]
        k_top = k[0].copy()
        while True:
            v_new, err = _dp_span(rhs, k, v, V[:, j], dV[:, j], g[j + 1] - s_lo,
                                  n_sub, tol if n_sub < max_sub else math.inf)
            if err < tol or n_sub >= max_sub:
                break
            n_sub *= 2
            k[0] = k_top
        if not np.isfinite(v_new).all() or (v_new > V_BLOWUP).any():
            blowup = float(s_lo)
            out[:, : j + 1] = np.inf
            break
        if not err < tol:
            raise SolverError(
                f"no convergence on the segment ending at s = {s_lo:.6g}: error "
                f"estimate {err:.3g} >= tol {tol:.3g} with {n_sub} steps")
        if (v_new < -tol * 10).any():
            raise SolverError(f"negative excursion at s = {s_lo:.6g}")
        v = np.where(np.abs(v_new) < V_FLOOR, 0.0, np.maximum(v_new, 0.0))
        if not np.array_equal(v, v_new):
            k[0] = rhs(np.exp(V[:, j]), v)
        out[:, j] = v
        if err < tol / 64 and n_sub > 1:
            n_sub //= 2
    return out, blowup


def _dp_span(rhs, k, v, d_lo, dd, length, n_sub, stop):
    """``n_sub`` Dormand-Prince steps backward across one segment, along
    which delta runs linearly from ``d_lo + dd`` at its top to ``d_lo``.

    ``k[0]`` holds f at the start and, on return, f at the end.  Returns
    the end value and the largest error estimate; returns early once that
    estimate exceeds ``stop``.
    """
    h = -length / n_sub
    hA = h * _DP_A
    hE = h * _DP_E
    frac = 1.0 - (np.arange(n_sub)[:, None] + _DP_C[1:]) / n_sub
    ed = np.exp(d_lo + frac[:, :, None] * dd)  # exp(delta) at every later stage
    err = 0.0
    for i in range(n_sub):
        for st in range(1, _DP_C.size):
            y = v + hA[st, :st] @ k[:st]
            k[st] = rhs(ed[i, st - 1], y)
        e = float(np.max(np.abs(hE @ k) / np.maximum(1.0, np.abs(y))))
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
# Closed forms
# ---------------------------------------------------------------------------


def _check_flavor_grid(env: EnvPath, t: float):
    if abs(env.T - t) > 1e-12 * max(1.0, t):
        raise ParameterError("environment grid must end at the horizon t")


def closed_form_neveu(lam: float, t: float, env: EnvPath) -> float:
    """v_t(0, lambda) for the Neveu mechanism: lambda^{e^-t} exp(int e^-u K_u du)."""
    if lam <= 0:
        raise ParameterError("the Neveu closed form requires lambda > 0")
    if env.flavor != "K":
        raise ParameterError("the Neveu mechanism has infinite mean: use a K-flavored path")
    _check_flavor_grid(env, t)
    J = weighted_exp_decay_integral(env.grid, env.values)[0]
    return float(np.exp(J + math.exp(-t) * math.log(lam)))


def closed_form_feller(lam: float, t: float, env: EnvPath, alpha: float,
                       gamma2: float) -> float:
    """v_t(0, lambda) for the Feller mechanism; lam = inf is accepted.

    This is the stable form at beta = 1 with c = gamma2; gamma2 = 0 is the
    pure drift.
    """
    if lam != 0.0 and gamma2 != 0.0:
        return closed_form_stable(lam, t, env, 1.0, gamma2, alpha)
    _check_flavor_grid(env, t)
    if not lam or env.flavor != "K":
        return lam
    if alpha * t < 700.0:
        return lam * math.exp(alpha * t)
    with np.errstate(over="ignore"):  # past the largest double, v rounds to inf
        return float(np.exp(math.log(lam) + alpha * t))


def closed_form_stable(lam: float, t: float, env: EnvPath, beta: float,
                       c: float, alpha: float) -> float:
    """v_t(0, lambda) for the stable mechanism.

    Limits: lam = inf is the extinction functional (beta > 0); lam = 0 is
    the explosion functional (beta < 0).
    """
    _check_flavor_grid(env, t)
    if np.isinf(lam) and beta < 0:
        raise ParameterError("lambda = inf is not a supported limit for beta < 0")
    if lam == 0.0 and beta > 0:
        raise ParameterError("lambda = 0 gives v = 0 for beta > 0 (conservative)")
    if beta * c <= 0:
        raise ParameterError("invalid parameter combination: sign(c) must equal sign(beta)")
    # v = (lam_eff^-beta + beta c A)^(-1/beta), A = int e^{-beta D}, summed in
    # log space so that neither A nor e^{alpha t} overflows; D_u is K_u + alpha u
    # on a K-flavored path and K0_u on a K0-flavored one (the same path)
    D = env.values + alpha * env.grid if env.flavor == "K" else env.values
    S, top = exp_linear_suffix(env.grid, -beta * D)
    log_inner = math.log(beta * c * S[0]) + top
    if 0.0 < lam < math.inf:
        log_lam = math.log(lam) + (alpha * t if env.flavor == "K" else 0.0)
        log_inner = np.logaddexp(log_inner, -beta * log_lam)
    return float(np.exp(-log_inner / beta))


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
