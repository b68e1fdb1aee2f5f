import math

import numpy as np
import pytest

from cbbre.environment import sample_env_path
from cbbre.errors import ParameterError, UnsupportedMechanismError
from cbbre.flow import cond_laplace
from cbbre.immigration import (
    ImmigrationMechanism,
    StableImmigration,
    cbibre_cond_laplace,
    cbibre_longterm,
    entrance_law,
    stable_cbibre_laplace,
)
from cbbre.mechanisms import Feller, Neveu, Stable, TabulatedMeasure, derive_env

from conftest import make_flat


@pytest.fixture
def imm():
    return ImmigrationMechanism(0.0, StableImmigration(0.5, 0.5))


@pytest.fixture
def mech():
    return Stable(0.8, 0.5, 1.0)


class TestClosedForm:
    def test_flat_path_value(self):
        env = make_flat(flavor="K0")
        got = stable_cbibre_laplace(0.0, 1.0, 1.0, env, 0.5, 1.0, 0.5)
        assert got == pytest.approx(1.0 / 1.5, rel=1e-14)

    def test_entrance_law_is_z_zero_specialization(self):
        env = sample_env_path(1.0, 0.3, 1.0, 300, seed=41, flavor="K0")
        a = entrance_law(1.3, 1.0, env, 0.5, 1.0, 0.7)
        b = stable_cbibre_laplace(0.0, 1.3, 1.0, env, 0.5, 1.0, 0.7)
        assert a == b

    def test_lambda_zero_conservative_with_immigration(self):
        env = sample_env_path(1.0, 0.3, 1.0, 300, seed=42, flavor="K0")
        assert stable_cbibre_laplace(1.0, 0.0, 1.0, env, 0.5, 1.0, 0.5) == 1.0

    def test_kappa_zero_reduces_to_branching_factor(self, mech):
        env = sample_env_path(1.0, 0.3, 1.0, 400, seed=43, flavor="K0")
        a = stable_cbibre_laplace(1.0, 1.0, 1.0, env, 0.5, 1.0, 0.0)
        b = cond_laplace(1.0, 1.0, 1.0, env, mech)
        assert a == pytest.approx(b, rel=1e-10)

    def test_entrance_short_horizon(self):
        env = make_flat(T=1e-8, n=4, flavor="K0")
        assert entrance_law(1.0, 1e-8, env, 0.5, 1.0, 0.5) == pytest.approx(1.0)


class TestOdePipeline:
    def test_matches_closed_form(self, mech, imm):
        worst = 0.0
        for s in range(5):
            env = sample_env_path(1.0, 0.3, 1.0, 1000, seed=50 + s, flavor="K0")
            ode = cbibre_cond_laplace(1.0, 1.0, 1.0, env, mech, imm)
            cf = stable_cbibre_laplace(1.0, 1.0, 1.0, env, 0.5, 1.0, 0.5)
            worst = max(worst, abs(ode - cf))
        assert worst <= 1e-6

    def test_trivial_immigration_equals_flow(self, mech):
        env = sample_env_path(1.0, 0.3, 1.0, 500, seed=44, flavor="K0")
        imm0 = ImmigrationMechanism(0.0, None)
        a = cbibre_cond_laplace(1.0, 1.0, 1.0, env, mech, imm0)
        b = cond_laplace(1.0, 1.0, 1.0, env, mech)
        assert a == pytest.approx(b, abs=1e-9)

    def test_factorization_in_initial_mass(self, mech, imm):
        env = sample_env_path(1.0, 0.3, 1.0, 500, seed=45, flavor="K0")
        full = cbibre_cond_laplace(2.0, 1.0, 1.0, env, mech, imm)
        fact = (cbibre_cond_laplace(0.0, 1.0, 1.0, env, mech, imm)
                * cond_laplace(2.0, 1.0, 1.0, env, mech))
        assert full == pytest.approx(fact, abs=1e-9)

    def test_entrance_factor_at_most_one(self, mech, imm):
        env = sample_env_path(1.0, 0.3, 1.0, 300, seed=46, flavor="K0")
        assert cbibre_cond_laplace(0.0, 1.0, 1.0, env, mech, imm) <= 1.0

    def test_infinite_mean_rejected(self, imm):
        env = sample_env_path(1.0, 0.3, 1.0, 100, seed=47, flavor="K0")
        with pytest.raises(UnsupportedMechanismError):
            cbibre_cond_laplace(1.0, 1.0, 1.0, env, Neveu(), imm)

    def test_drift_immigration_exact_segments(self):
        # pure-drift immigration phi(u) = d u also integrates segment-exactly
        env = sample_env_path(1.0, 0.3, 1.0, 800, seed=48, flavor="K0")
        mech = Stable(0.8, 1.0, 1.0)
        immd = ImmigrationMechanism(0.7, None)
        got = cbibre_cond_laplace(1.0, 1.0, 1.0, env, mech, immd)
        # oracle: Feller closed form for v plus exact integral of d*v*e^{-K}
        from cbbre.flow import solve_backward, suffix_integral_exp_linear

        sol = solve_backward(mech, 1.0, 1.0, env)
        log_u = np.log(sol.values) - env.values
        integral = suffix_integral_exp_linear(env.grid, log_u)[0]
        ref = math.exp(-sol.initial) * math.exp(-0.7 * integral)
        assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_tabulated_nu_within_trapezoid_error(self, sigma):
        # a tabulated nu: int phi(e^{L(s)}) ds by the trapezoid on the grid,
        # L = log v - K0 linear between grid points; z = 0 leaves the
        # immigration factor alone
        env = sample_env_path(sigma, 0.3, 1.0, 300, seed=49, flavor="K0")
        mech = Feller(0.3, 1.0)
        x = np.linspace(0.05, 4.0, 80)
        nu = TabulatedMeasure(x, np.exp(-x), 0.1, 5.0)
        got = -math.log(cbibre_cond_laplace(0.0, 2.0, 1.0, env, mech,
                                            ImmigrationMechanism(0.0, nu)))
        from cbbre.flow import solve_backward

        L = np.log(solve_backward(mech, 2.0, 1.0, env).values) - env.values
        g, sub = env.grid, 16
        h = np.diff(g)
        # oracle: the trapezoid on the grid refined 16 times, L interpolated
        fine = np.append(g[:-1, None] + h[:, None] * np.arange(sub) / sub, g[-1])
        ref = np.trapezoid(nu.phi(np.exp(np.interp(fine, g, L))), fine)
        # f = phi(e^L) on a cell of slope c: f'' = c^2 (u^2 phi''(u) + u phi'(u)),
        # u = e^L, bounded by M2 = c^2 (4/e^2 + 1/e) m, m the mass of nu.  The
        # kinks of f sit on the nodes, so the trapezoid errs by at most
        # M2 h^3 / 12 per cell, and the oracle by h (h/16)^2 M2 / 12
        c = np.diff(L) / h
        m = np.trapezoid(nu.density, x) + nu.tail_mass
        M2 = c**2 * (4.0 / math.e**2 + 1.0 / math.e) * m
        tol = np.sum(M2 * h**3) / 12.0 * (1.0 + 1.0 / sub**2)
        assert abs(got - ref) <= tol


class TestLambdaDerivativeConsistency:
    def test_conditional_mean_matches_simulation(self):
        # -d/d lambda at 0 of the conditional transform is E[Z_t e^{-K0_t}];
        # compare the finite-difference of the formula averaged over
        # environments with the simulated mean (independent estimates)
        from cbbre.simulate import SimConfig, simulate_cbibre_batch
        from cbbre.mechanisms import Feller

        z, t, d = 1.0, 1.0, 0.7
        immd = ImmigrationMechanism(d, None)
        mech = Feller(0.3, 1.0)
        lam = 1e-6
        vals = []
        for s in range(400):
            env = sample_env_path(1.0, 0.3 - 0.5, t, 400, seed=900 + s, flavor="K0")
            L = cbibre_cond_laplace(z, lam, t, env, mech, immd)
            vals.append((1.0 - L) / lam)
        vals = np.array(vals)
        cfg = SimConfig(dt=2e-3, seed=60)
        b = simulate_cbibre_batch(mech, immd, 1.0, z, t, cfg, 40000,
                                  record_times=[t])
        w = b.z[:, -1] * np.exp(-b.env_values[:, -1])
        se = math.hypot(vals.std(ddof=1) / math.sqrt(vals.size),
                        w.std(ddof=1) / math.sqrt(w.size))
        assert abs(vals.mean() - w.mean()) <= 3 * se


class TestCbibreLongterm:
    def test_converges_for_positive_m(self):
        env = derive_env(1.0, 1.0, 0.5, 1.0)  # m = 0.5
        rep = cbibre_longterm(1.0, env, 0.5, 1.0, 0.5, lam=1.0,
                              n_paths=8000, seed=51)
        assert rep.verdict == "converges"
        e1, e2 = rep.mc_estimates
        se = math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.value - e2.value) <= 3 * se  # Cauchy in the horizon
        assert abs(rep.limit_transform - e2.value) <= 3 * e2.stderr + 5e-3

    def test_diverges_for_nonpositive_m(self):
        env = derive_env(1.0, 0.25, 0.5, 1.0)  # m = -0.25
        rep = cbibre_longterm(1.0, env, 0.5, 1.0, 0.5, n_paths=6000, seed=52)
        assert rep.verdict == "diverges"
        assert rep.medians[0] < rep.medians[-1]

    def test_parameter_validation(self):
        env = derive_env(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(ParameterError):
            cbibre_longterm(1.0, env, 0.5, 1.0, 0.0)
