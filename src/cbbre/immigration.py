"""Branching with immigration: conditional semigroup and long-term behaviour.

With immigration (d, nu) the conditional Laplace transform picks up the
factor exp(-int_0^t phi(v_t(r, lambda) e^{-K0_r}) dr) multiplying the pure
branching part; zero stops being absorbing and the process is conservative
and positive at every finite time in the stable case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (EnvPath, _env_path_map, _mc_estimate, integral_exp_linear,
                          log_exp_functional)
from .errors import ParameterError, UnsupportedMechanismError
from .flow import solve_backward
from .mechanisms import EnvParams, ImmigrationMechanism, Mechanism, Stable, StableImmigration
from .numerics import _gamma_rule
from .simulate import SimConfig, simulate_cbibre_batch

__all__ = [
    "ImmigrationMechanism",
    "StableImmigration",
    "cbibre_cond_laplace",
    "stable_cbibre_laplace",
    "entrance_law",
    "cbibre_longterm",
    "CbibreLongterm",
]


def cbibre_cond_laplace(z: float, lam: float, t: float, env: EnvPath,
                        mech: Mechanism, imm: ImmigrationMechanism,
                        tol: float = 1e-10) -> float:
    """E_z[exp(-lambda Z_t e^{-K0_t}) | K0] with immigration.

    The branching factor uses the drift-free backward equation (psi0); the
    immigration factor integrates phi(v e^{-K0}) along the solution: exactly
    for the drift and a stable nu under the linear path model, by the
    trapezoid on the environment grid for a tabulated nu.
    """
    if z < 0:
        raise ParameterError("initial mass must be nonnegative")
    if mech.infinite_mean:
        raise UnsupportedMechanismError(
            "the immigration semigroup is defined for finite-mean mechanisms"
        )
    if env.flavor != "K0":
        raise ParameterError("immigration formulas condition on K0-flavored paths")
    sol = solve_backward(mech, lam, t, env, tol=tol)
    branch = math.exp(-z * sol.initial) if z > 0 else 1.0
    if imm.trivial:
        return branch
    imm_integral = 0.0
    # the drift part is exp(linear) along the declared path model once log v
    # is interpolated linearly: integrate its segments exactly
    log_u = np.log(np.maximum(sol.values, 1e-300)) - env.values
    if imm.d > 0:
        imm_integral += imm.d * integral_exp_linear(env.grid, log_u)
    if imm.nu is not None:
        imm_integral += imm.nu.phi_path_integral(env.grid, log_u)
    return branch * math.exp(-imm_integral)


def stable_cbibre_laplace(z: float, lam: float, t: float, env: EnvPath,
                          beta: float, c: float, kappa: float) -> float:
    """Closed form for psi(u) = -alpha u + c u^{1+beta}, phi(u) = kappa u^beta.

    Product of the stable branching factor and the entrance-law factor
    (1 + beta c lambda^beta A_t)^(-kappa/(beta c)), A_t = int e^{-beta K0}.
    """
    if not 0.0 < beta < 1.0 or c <= 0 or kappa < 0:
        raise ParameterError("need beta in (0,1), c > 0, kappa >= 0")
    if env.flavor != "K0":
        raise ParameterError("the closed form conditions on K0-flavored paths")
    if z < 0 or lam < 0:
        raise ParameterError("z and lambda must be nonnegative")
    A = integral_exp_linear(env.grid, -beta * env.values)  # int_0^t e^{-beta K0}
    if lam == 0.0:
        return 1.0
    return float(_stable_cbi_transform(z, lam, beta * c * A, beta, c, kappa))


def entrance_law(lam: float, t: float, env: EnvPath, beta: float, c: float,
                 kappa: float) -> float:
    """The z -> 0 entrance factor of the stable CBIBRE at 0."""
    return stable_cbibre_laplace(0.0, lam, t, env, beta, c, kappa)


@dataclass(frozen=True)
class CbibreLongterm:
    verdict: str  # "converges" or "diverges"
    limit_transform: float | None  # Gamma-quadrature value of the limit (m>0)
    mc_estimates: list  # MCEstimate at increasing horizons
    medians: list  # MC medians of Z_T (divergent case)
    lam: float
    z: float


def cbibre_longterm(z: float, env: EnvParams, beta: float, c: float,
                    kappa: float, lam: float = 1.0, n_paths: int = 20000,
                    seed: int = 0) -> CbibreLongterm:
    """Long-term behaviour of the stable CBIBRE.

    m > 0: Z_t e^{-K0_t} converges in distribution; the limiting Laplace
    transform is evaluated by Gamma quadrature (via Dufresne) and by MC at
    two horizons chosen so the truncation error of A_infinity ~ A_T is
    below 1e-6.  m <= 0: divergence verdict supported by growing medians.
    """
    if not 0.0 < beta < 1.0 or c <= 0 or kappa <= 0:
        raise ParameterError("need beta in (0,1), c > 0, kappa > 0")
    if env.m > 0:
        T = 6.0 * math.log(10.0) / (beta * env.m)
        ests = []
        for mult, stream in ((1.0, 1), (2.0, 2)):
            horizon = T * mult
            n_steps = max(600, int(round(60 * horizon)))
            vals = np.empty(n_paths)

            def fill(rows, grid, K):
                A = np.exp(log_exp_functional(grid, K, -beta))
                vals[rows] = _stable_cbi_transform(z, lam, beta * c * A, beta, c, kappa)

            _env_path_map(fill, env.sigma, env.m, horizon, n_steps, seed, n_paths, stream)
            ests.append(_mc_estimate(vals, "mc", {"seed": seed, "stream": stream,
                                                  "T": horizon, "n_steps": n_steps}))
        limit = _stable_cbi_limit_transform(z, lam, env.m, env.sigma, beta, c, kappa)
        return CbibreLongterm("converges", limit, ests, [], lam, z)
    # m <= 0: medians of simulated Z_T must grow
    mech = Stable(env.alpha, beta, c)
    imm = ImmigrationMechanism(d=0.0, nu=StableImmigration(beta, kappa))
    medians = []
    for i, T in enumerate((4.0, 8.0, 16.0)):
        cfg = SimConfig(dt=0.01, seed=seed + i)
        batch = simulate_cbibre_batch(mech, imm, env.sigma, z, T, cfg,
                                      max(1500, n_paths // 10), record_times=[T])
        zT = batch.z[:, -1]
        medians.append(float(np.median(zT[np.isfinite(zT)])))
    return CbibreLongterm("diverges", None, [], medians, lam, z)


def _stable_cbi_transform(z, lam, bca, beta, c, kappa):
    # E_z[exp(-lambda Z e^{-K0})] given bca = beta*c*A
    factor = np.exp(-(kappa / (beta * c)) * np.log1p(bca * lam**beta))
    if z > 0:
        factor = factor * np.exp(-z * (lam ** (-beta) + bca) ** (-1.0 / beta))
    return factor


def _stable_cbi_limit_transform(z, lam, m, sigma, beta, c, kappa):
    # beta*c*A_inf  =d  (2c/(beta sigma^2)) / Gamma_{2m/(beta sigma^2)}
    shape = 2.0 * m / (beta * sigma**2)
    if shape <= 0:
        raise ParameterError("the limit transform requires m > 0")
    x, w = _gamma_rule(shape, 1.0 / beta)
    vals = _stable_cbi_transform(z, lam, (2.0 * c / (beta * sigma**2)) / x, beta, c, kappa)
    return float(np.sum(w * vals))
