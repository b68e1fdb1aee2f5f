"""Row sweeps: the one row budget of `numerics` bounds memory and changes no value."""
import tracemalloc

import numpy as np
import pytest

from cbbre import numerics
from cbbre.conditioned import U_star_vectorized, U_vectorized, conditioned_survival
from cbbre.environment import (
    hw_kernel,
    hw_marginal_expectation,
    lemma1_moments,
    log_exp_functional,
    mc_log_exp_functionals,
    my_density_grid,
    sample_env_paths,
)
from cbbre.immigration import cbibre_longterm
from cbbre.longterm import explosion_prob, phi_eta_grid, survival_prob
from cbbre.mechanisms import Feller, ImmigrationMechanism, Neveu, derive_env
from cbbre.simulate import SimConfig, simulate_cbbre_batch

#: a budget of a few rows for every sweep below
FEW_ROWS = 2000

SURVIVAL_ENV = derive_env(1.0, 0.5, 0.5, 1.0)
EXPLOSION_ENV = derive_env(1.0, 0.25, -0.5, -1.0)
SUPERCRITICAL_ENV = derive_env(1.0, 1.0, 0.5, 1.0)  # m = 0.5
CRITICAL_ENV = derive_env(1.0, -0.5, 0.5, 1.0)      # m = 0: critical U
WEAKLY_ENV = derive_env(1.0, -0.3, 0.5, 1.0)        # m = -0.2: weakly subcritical U
STATES = np.linspace(0.0, 5.0, 40)


def _est(e):
    return [e.value, e.stderr]


def _longterm():
    rep = cbibre_longterm(1.0, SUPERCRITICAL_ENV, 0.5, 1.0, 0.5, n_paths=60, seed=3)
    return [x for e in rep.mc_estimates for x in _est(e)]


def _lemma1():
    rep = lemma1_moments(-0.5, 0.5, 1.0, n_mc=300, n_steps=200, seed=2)
    return [*_est(rep.lhs), *_est(rep.rhs), rep.diff_stderr, *_est(rep.inequality_lhs),
            *_est(rep.inequality_rhs)]


def _exact_simulation():
    # the exact sampler: absorbing Feller, Feller with linear immigration, Neveu
    out = []
    for mech, z0, imm in ((Feller(-0.5, 2.0), 0.5, None),
                          (Feller(0.2, 1.0), 1.0, ImmigrationMechanism(1.5)), (Neveu(), 1.0, None)):
        b = simulate_cbbre_batch(mech, 1.0, z0, 1.0, SimConfig(dt=0.01, seed=4), 300,
                                 record_times=[0.3, 1.0], imm=imm, chunk=200)
        assert b.scheme == "exact"
        out += [b.z.ravel(), b.env_values.ravel(), np.nan_to_num(b.t0, nan=-1.0)]
    return np.concatenate(out)


SWEEPS = {
    "sample_env_paths": lambda: sample_env_paths(0.8, -0.3, 2.0, 300, 5, 400, stream=2)[1],
    "survival_mc": lambda: _est(survival_prob(1.0, 1.0, SURVIVAL_ENV, "mc", n_paths=300, seed=1)),
    "explosion_mc": lambda: _est(explosion_prob(1.0, 2.0, EXPLOSION_ENV, "mc", n_paths=300,
                                                seed=1)),
    "mc_log_exp_functionals": lambda: mc_log_exp_functionals(-0.5, 2.0, 300, 250, 3),
    "lemma1_moments": _lemma1,
    "cbibre_longterm": _longterm,
    "my_density_grid": lambda: my_density_grid(np.geomspace(1e-3, 20.0, 60), 1.0, 0.5),
    "phi_eta_grid": lambda: phi_eta_grid(np.geomspace(1e-3, 20.0, 60), 0.5),
    "hw_kernel": lambda: hw_kernel(np.geomspace(1e-2, 50.0, 60), 0.8),
    "hw_marginal_expectation": lambda: hw_marginal_expectation(
        lambda u: np.exp(-1.0 / u), 0.5, -1.0),
    "U_critical": lambda: U_vectorized(CRITICAL_ENV)(STATES),
    "U_weakly": lambda: U_vectorized(WEAKLY_ENV)(STATES),
    "U_star": lambda: U_star_vectorized(SUPERCRITICAL_ENV)(STATES),
    "conditioned_survival_quadrature": lambda: conditioned_survival(
        1.0, 6.0, SUPERCRITICAL_ENV, method="quadrature").value,
    "simulate_exact": _exact_simulation,
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_budget_changes_no_value(name, monkeypatch):
    want = np.asarray(SWEEPS[name]())
    monkeypatch.setattr(numerics, "_ROW_BUDGET", FEW_ROWS)
    got = np.asarray(SWEEPS[name]())
    assert np.array_equal(got, want)


def test_blocks_continue_the_bulk_draw(monkeypatch):
    # Monte Carlo in blocks of a few rows sees sample_env_paths's matrix
    monkeypatch.setattr(numerics, "_ROW_BUDGET", FEW_ROWS, raising=False)
    eta, t, n, n_steps, seed = -0.5, 2.0, 300, 250, 3
    grid, B = sample_env_paths(1.0, 0.0, t, n_steps, seed, n, stream=1)
    B += eta * grid
    assert np.array_equal(mc_log_exp_functionals(eta, t, n, n_steps, seed),
                          log_exp_functional(grid, B, 2.0))
    env = SURVIVAL_ENV
    grid, K0 = sample_env_paths(env.sigma, env.m, 1.0, 400, 1, 300)
    log_a = log_exp_functional(grid, K0, -env.beta)
    scale = (env.beta * env.c) ** (-1.0 / env.beta)
    ps = -np.expm1(-scale * np.exp(-log_a / env.beta))
    assert survival_prob(1.0, 1.0, env, "mc", n_paths=300, seed=1).value == float(ps.mean())


def test_monte_carlo_memory_is_bounded():
    tracemalloc.start()
    try:
        explosion_prob(1.0, 12.0, EXPLOSION_ENV, "mc", n_paths=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
