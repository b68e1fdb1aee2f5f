import math

import numpy as np
import pytest

import cbbre.flow as flow
from cbbre.environment import EnvPath, exp_linear_suffix, sample_env_path, sample_env_paths
from cbbre.errors import ParameterError, SolverError
from cbbre.flow import (
    closed_form_feller,
    closed_form_neveu,
    closed_form_stable,
    cond_explosion,
    cond_laplace,
    cond_survival,
    integral_exp_linear,
    solve_backward,
    solve_backward_batch,
    suffix_integral_exp_linear,
)
from cbbre.mechanisms import Feller, GeneralCB, Neveu, Stable, TabulatedMeasure

from conftest import make_flat


class TestPathIntegrals:
    def test_exact_on_linear_exponent(self):
        # int_0^1 e^{a+bu} du computed segment-exactly regardless of grid
        grid = np.array([0.0, 0.3, 0.55, 1.0])
        w = 0.7 + 1.9 * grid
        exact = (math.exp(0.7 + 1.9) - math.exp(0.7)) / 1.9
        assert integral_exp_linear(grid, w) == pytest.approx(exact, rel=1e-14)

    def test_suffix_shapes(self):
        grid = np.linspace(0.0, 1.0, 6)
        W = np.vstack([np.zeros(6), grid])
        out = suffix_integral_exp_linear(grid, W)
        assert out.shape == (2, 6)
        assert out[0, 0] == pytest.approx(1.0)
        assert out[1, -1] == 0.0

    def test_one_segment_spanning_800(self):
        # int_0^1 e^{-800 + 800u} du = (1 - e^-800)/800, rising or falling
        grid = np.array([0.0, 1.0])
        for w in ([-800.0, 0.0], [0.0, -800.0]):
            assert integral_exp_linear(grid, w) == pytest.approx(1.0 / 800.0, rel=1e-15)
        S, top = exp_linear_suffix(grid, np.array([[700.0, 1500.0]]))
        assert top[0] == 1500.0
        assert np.log(S[0, 0]) + top[0] == pytest.approx(1500.0 - math.log(800.0), rel=1e-15)


class TestClosedForms:
    def test_neveu_flat_unit(self):
        assert closed_form_neveu(1.0, 1.0, make_flat()) == pytest.approx(1.0)

    def test_neveu_flat_lambda_e(self):
        got = closed_form_neveu(math.e, 1.0, make_flat())
        assert got == pytest.approx(math.exp(math.exp(-1.0)), rel=1e-14)

    def test_neveu_rejects_zero_lambda(self):
        with pytest.raises(ParameterError):
            closed_form_neveu(0.0, 1.0, make_flat())

    def test_feller_flat(self):
        assert closed_form_feller(1.0, 1.0, make_flat(), 0.0, 1.0) == pytest.approx(0.5)

    def test_feller_lambda_infinity(self):
        env = make_flat(T=2.0, n=20)
        assert closed_form_feller(math.inf, 2.0, env, 0.0, 1.0) == pytest.approx(0.5)

    def test_stable_flat(self):
        env = make_flat(T=2.0, n=20)
        assert closed_form_stable(1.0, 2.0, env, 0.5, 1.0, 0.0) == pytest.approx(0.25)

    def test_stable_exponent_reaching_800(self):
        # -beta K falls linearly to -800 on a deterministic path, so
        # e^{-beta K} spans 348 decades; A = (1 - e^-800)/800 exactly
        grid = np.linspace(0.0, 1.0, 1001)
        a = -math.expm1(-800.0) / 800.0
        for beta, c, lam in ((0.5, 1.0, 2.0), (0.5, 1.0, math.inf),
                             (-0.5, -1.0, 2.0), (-0.5, -1.0, 0.0)):
            env = EnvPath(grid, 1600.0 * math.copysign(1.0, beta) * grid, "K", 1.0, 0.0)
            lam_term = 0.0 if lam in (0.0, math.inf) else lam ** (-beta)
            exact = (lam_term + beta * c * a) ** (-1.0 / beta)
            assert closed_form_stable(lam, 1.0, env, beta, c, 0.0) == pytest.approx(
                exact, rel=1e-13)

    def test_stable_large_drift_does_not_overflow(self):
        # e^{alpha t} overflows at alpha t = 800, and on `rising`
        # A = int e^{800 u} du does
        grid = np.linspace(0.0, 1.0, 1001)
        flat = EnvPath(grid, np.zeros(grid.size), "K", 1.0, 0.0)
        a = -math.expm1(-400.0) / 400.0  # int e^{-beta alpha u} du at beta = 1/2
        exact = (2.0**-0.5 * math.exp(-400.0) + 0.5 * a) ** -2.0
        assert closed_form_stable(2.0, 1.0, flat, 0.5, 1.0, 800.0) == pytest.approx(
            exact, rel=1e-13)
        rising = EnvPath(grid, -1600.0 * grid, "K", 1.0, 0.0)
        assert closed_form_stable(math.inf, 1.0, rising, 0.5, 1.0, 0.0) == 0.0

    def test_stable_beta_one_is_feller(self):
        env = sample_env_path(1.0, -0.5, 1.0, 300, seed=5, flavor="K")
        for lam in (0.3, 1.0, 7.0):
            assert closed_form_stable(lam, 1.0, env, 1.0, 1.3, 0.4) == pytest.approx(
                closed_form_feller(lam, 1.0, env, 0.4, 1.3), rel=1e-13
            )
        # alpha t = 800 on a flat path: e^{800} overflows a double, v does not
        flat = make_flat()
        assert closed_form_feller(2.0, 1.0, flat, 800.0, 1.0) == pytest.approx(
            closed_form_stable(2.0, 1.0, flat, 1.0, 1.0, 800.0), rel=1e-13)
        assert closed_form_feller(2.0, 1.0, flat, 800.0, 1.0) == pytest.approx(800.0, rel=1e-9)

    def test_pure_drift_past_the_largest_double(self):
        # gamma2 = 0: v = lam e^{alpha t}, which rounds to inf once alpha t > 709
        flat = make_flat(T=800.0)
        assert closed_form_feller(2.0, 800.0, flat, 1.0, 0.0) == math.inf
        assert closed_form_feller(1e-300, 800.0, flat, 1.0, 0.0) == pytest.approx(
            math.exp(800.0 - 300.0 * math.log(10.0)), rel=1e-12)
        assert cond_laplace(1.0, 2.0, 800.0, flat, Feller(1.0, 0.0)) == 0.0

    def test_flavors_agree_pathwise(self):
        # K0 = K + alpha*t pathwise: v(K0-form, lam) = v(K-form, lam e^{-alpha t})
        alpha, t = 0.6, 1.0
        k_path = sample_env_path(1.0, -0.5, t, 200, seed=6, flavor="K")
        k0_path = EnvPath(k_path.grid, k_path.values + alpha * k_path.grid,
                          "K0", 1.0, -0.5 + alpha)
        lam = 2.0
        a = closed_form_feller(lam, t, k0_path, alpha, 1.0)
        b = closed_form_feller(lam * math.exp(-alpha * t), t, k_path, alpha, 1.0)
        assert a == pytest.approx(b, rel=1e-12)


class TestSolver:
    def test_lambda_zero_fixed_point(self):
        env = sample_env_path(1.0, -0.5, 1.0, 200, seed=7, flavor="K")
        sol = solve_backward(Stable(0.5, 0.5, 1.0), 0.0, 1.0, env)
        assert np.all(sol.values == 0.0)

    @pytest.mark.parametrize("mech,closed", [
        (Feller(0.5, 1.0), lambda e: closed_form_feller(1.0, 1.0, e, 0.5, 1.0)),
        (Stable(0.5, 0.5, 1.0), lambda e: closed_form_stable(1.0, 1.0, e, 0.5, 1.0, 0.5)),
        (Stable(0.5, -0.5, -1.0), lambda e: closed_form_stable(1.0, 1.0, e, -0.5, -1.0, 0.5)),
        (Neveu(), lambda e: closed_form_neveu(1.0, 1.0, e)),
    ])
    def test_matches_closed_form(self, mech, closed):
        env = sample_env_path(1.0, -0.5, 1.0, 1000, seed=8, flavor="K")
        sol = solve_backward(mech, 1.0, 1.0, env)
        assert sol.initial == pytest.approx(closed(env), abs=1e-8)

    def test_terminal_condition_exact(self):
        env = sample_env_path(1.0, -0.5, 1.0, 100, seed=9, flavor="K")
        sol = solve_backward(Feller(0.2, 1.0), 3.0, 1.0, env)
        assert sol.values[-1] == 3.0

    def test_semigroup_property(self):
        env = sample_env_path(1.0, -0.5, 1.0, 400, seed=10, flavor="K")
        mech = Stable(0.3, 0.5, 1.0)
        tol = 1e-10
        sol = solve_backward(mech, 1.0, 1.0, env, tol=tol)
        i_mid = 200
        s_mid = float(env.grid[i_mid])
        sub = EnvPath(env.grid[: i_mid + 1], env.values[: i_mid + 1], "K", 1.0, -0.5)
        sol2 = solve_backward(mech, float(sol.values[i_mid]), s_mid, sub, tol=tol)
        assert sol2.initial == pytest.approx(sol.initial, abs=2 * tol)

    def test_monotone_in_lambda(self):
        env = sample_env_path(1.0, -0.5, 1.0, 300, seed=11, flavor="K")
        mech = Stable(0.4, 0.5, 1.0)
        vals = [solve_backward(mech, lam, 1.0, env).initial for lam in (0.5, 1.0, 2.0, 8.0)]
        assert np.all(np.diff(vals) > 0)

    def test_conservative_small_lambda_limit(self):
        env = sample_env_path(1.0, 0.0, 1.0, 300, seed=12, flavor="K0")
        sol = solve_backward(Feller(0.5, 1.0), 1e-8, 1.0, env)
        assert sol.initial < 1e-6

    def test_general_cb_against_feller(self):
        env = sample_env_path(1.0, 0.0, 1.0, 500, seed=13, flavor="K0")
        g = GeneralCB(0.0, 0.5, 1.0)
        f = solve_backward(Feller(0.5, 1.0), 1.0, 1.0, env).initial
        assert solve_backward(g, 1.0, 1.0, env).initial == pytest.approx(f, rel=1e-10)

    def test_batch_shape(self):
        grid = np.linspace(0.0, 1.0, 101)
        K = np.cumsum(np.random.default_rng(0).normal(0, 0.1, (5, 101)), axis=1)
        K[:, 0] = 0.0
        out, blowup = solve_backward_batch(Feller(0.2, 1.0), 1.0, 1.0, grid, K, "K")
        assert out.shape == (5, 101) and blowup is None


class TestDormandPrince:
    @pytest.mark.parametrize("mech,flavor,closed", [
        (Feller(0.5, 1.0), "K", lambda e: closed_form_feller(10.0, 1.0, e, 0.5, 1.0)),
        (Stable(0.5, 0.5, 1.0), "K",
         lambda e: closed_form_stable(10.0, 1.0, e, 0.5, 1.0, 0.5)),
        (Stable(0.5, -0.5, -1.0), "K",
         lambda e: closed_form_stable(10.0, 1.0, e, -0.5, -1.0, 0.5)),
        (Neveu(), "K", lambda e: closed_form_neveu(10.0, 1.0, e)),
        (Feller(0.5, 1.0), "K0", lambda e: closed_form_feller(10.0, 1.0, e, 0.5, 1.0)),
        (GeneralCB(0.0, 0.5, 1.0), "K0",
         lambda e: closed_form_feller(10.0, 1.0, e, 0.5, 1.0)),
    ])
    def test_batch_matches_closed_form(self, mech, flavor, closed):
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 1000, 17, 20)
        out, blowup = solve_backward_batch(mech, 10.0, 1.0, grid, K, flavor)
        want = [closed(EnvPath(grid, k, flavor, 1.0, -0.5)) for k in K]
        assert blowup is None
        np.testing.assert_allclose(out[:, 0], want, rtol=0.0, atol=1e-8)

    def test_psi_calls_per_segment(self, monkeypatch):
        # six new stages per step, one step per segment at this tolerance;
        # step doubling needed at least twelve
        calls = []
        real = flow.eval_psi
        monkeypatch.setattr(flow, "eval_psi", lambda m, u: calls.append(1) or real(m, u))
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 1000, 18, 20)
        solve_backward_batch(Stable(0.5, 0.5, 1.0), 1.0, 1.0, grid, K, "K", tol=1e-10)
        assert len(calls) <= 7 * 1000

    def test_psi_calls_where_steps_halve(self, monkeypatch):
        # 100 paths x 1,000 segments at lambda = 10, tol 1e-11: segments near
        # s = t try up to 32 steps.  One call for f at t, then six per step
        # tried, so the count pins the step controller's tries
        calls = []
        real = flow.eval_psi
        monkeypatch.setattr(flow, "eval_psi", lambda m, u: calls.append(1) or real(m, u))
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 1000, 24, 100)
        solve_backward_batch(Feller(0.5, 1.0), 10.0, 1.0, grid, K, "K", tol=1e-11)
        assert len(calls) == 8059

    @pytest.mark.parametrize("mech", [Feller(0.5, 1.0), Stable(0.5, 0.5, 1.0)])
    def test_row_permutation_permutes_the_output(self, mech):
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 1000, 24, 100)
        perm = np.random.default_rng(3).permutation(100)
        out, _ = solve_backward_batch(mech, 10.0, 1.0, grid, K, "K", tol=1e-11)
        out_p, _ = solve_backward_batch(mech, 10.0, 1.0, grid, K[perm], "K", tol=1e-11)
        np.testing.assert_array_equal(out_p, out[perm])

    def test_unknown_flavor_rejected(self):
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 10, 20, 2)
        with pytest.raises(ParameterError, match="flavor"):
            solve_backward_batch(Feller(0.5, 1.0), 1.0, 1.0, grid, K, "k0")

    def test_unmet_tolerance_raises(self):
        env = sample_env_path(1.0, -0.5, 1.0, 10, seed=19, flavor="K")
        with pytest.raises(SolverError, match=r"s = 0\.9\b.*error estimate"):
            solve_backward_batch(Feller(0.5, 1.0), 10.0, 1.0, env.grid, env.values, "K",
                                 tol=1e-20, max_halvings=0)


_TAB_MU = TabulatedMeasure(np.geomspace(0.02, 10.0, 120),
                          np.exp(-np.geomspace(0.02, 10.0, 120)), 0.1, 12.0)


def _both_routes(mech, lam, k, flavor, grid, **kw):
    """(one-path result, first row of the same path doubled into a batch):
    the batch's error estimate is the one path's, so both take the same
    steps."""
    one = solve_backward_batch(mech, lam, 1.0, grid, k[None, :], flavor, **kw)
    two = solve_backward_batch(mech, lam, 1.0, grid, np.vstack([k, k]), flavor, **kw)
    return one, (two[0][:1], two[1])


class TestOnePathRoute:
    @pytest.mark.parametrize("mech,flavor", [
        (Feller(0.5, 1.0), "K"),
        (Stable(0.5, 0.5, 1.0), "K"),
        (Stable(0.5, -0.5, -1.0), "K"),
        (Neveu(), "K"),
        (GeneralCB(0.0, 0.5, 0.6, _TAB_MU), "K0"),
    ])
    def test_matches_the_batch_route(self, mech, flavor):
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 500, 21, 2)
        for k in K:
            for lam in (0.3, 10.0):
                (one, b1), (two, b2) = _both_routes(mech, lam, k, flavor, grid, tol=1e-11)
                assert one.shape == (1, grid.size) and b1 is None and b2 is None
                np.testing.assert_allclose(one, two, rtol=1e-13, atol=0.0)

    def test_same_blowup_time(self):
        # beta < 0 and alpha t = 30: v passes V_BLOWUP = 1e12 before s = 0
        grid, K = sample_env_paths(1.0, -0.5, 1.0, 400, 22, 1)
        (one, b1), (two, b2) = _both_routes(Stable(30.0, -0.5, -1.0), 1.0, K[0], "K", grid)
        assert b1 is not None and 0.0 < b1 < 1.0 and b1 == b2
        assert np.isinf(one[0, grid <= b1]).all()
        np.testing.assert_allclose(one, two, rtol=1e-13, atol=0.0)

    def test_overflow_within_a_segment_is_a_blowup(self):
        # psi(u) = -400 u + 0 u^2 on one segment: v reaches e^400, where u^2
        # overflows (numpy gives inf, Python floats raise)
        grid = np.array([0.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            (one, b1), (two, b2) = _both_routes(GeneralCB(0.0, 400.0, 0.0), 1.0,
                                                np.zeros(2), "K", grid)
        assert b1 == b2 == 0.0
        np.testing.assert_array_equal(one, two)

    def test_same_solver_error(self):
        env = sample_env_path(1.0, -0.5, 1.0, 10, seed=19, flavor="K")
        texts = []
        for rows in (env.values[None, :], np.vstack([env.values, env.values])):
            with pytest.raises(SolverError) as info:
                solve_backward_batch(Feller(0.5, 1.0), 10.0, 1.0, env.grid, rows, "K",
                                     tol=1e-20, max_halvings=0)
            texts.append(str(info.value))
        assert texts[0] == texts[1]

    def test_every_psi_call_goes_through_the_module(self, monkeypatch):
        calls = []
        real = flow.eval_psi0
        monkeypatch.setattr(flow, "eval_psi0", lambda m, u: calls.append(u) or real(m, u))
        env = sample_env_path(1.0, 0.0, 1.0, 100, seed=23, flavor="K0")
        solve_backward(Feller(0.5, 1.0), 1.0, 1.0, env)
        assert len(calls) >= 6 * 100 and all(type(u) is float for u in calls)


class TestConditionalProbabilities:
    def test_empty_population(self, flat_path):
        assert cond_laplace(0.0, 1.0, 1.0, flat_path, Feller(0.0, 1.0)) == 1.0

    def test_lambda_zero_conservative(self, flat_path):
        assert cond_laplace(1.0, 0.0, 1.0, flat_path, Feller(0.0, 1.0)) == 1.0
        assert cond_laplace(1.0, 0.0, 1.0, flat_path, Neveu()) == 1.0

    def test_stable_flat_path_value(self, flat_path):
        got = cond_laplace(2.0, 1.0, 1.0, flat_path, Stable(0.0, 0.5, 1.0))
        v = (1.0 + 0.5 * 1.0) ** (-2.0)
        assert got == pytest.approx(math.exp(-2.0 * v), rel=1e-12)

    def test_branching_property_exact(self):
        env = sample_env_path(1.0, -0.5, 1.0, 300, seed=14, flavor="K")
        mech = Stable(0.5, 0.5, 1.0)
        for z1, z2 in [(0.5, 1.5), (2.0, 3.0)]:
            lhs = cond_laplace(z1 + z2, 1.0, 1.0, env, mech)
            rhs = cond_laplace(z1, 1.0, 1.0, env, mech) * cond_laplace(z2, 1.0, 1.0, env, mech)
            assert abs(lhs - rhs) <= 1e-12

    def test_survival_flat_value(self, flat_path):
        got = cond_survival(1.0, 1.0, flat_path, Feller(0.0, 1.0))
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_survival_short_horizon_approaches_one(self):
        env = make_flat(T=1e-6, n=4)
        assert cond_survival(1.0, 1e-6, env, Feller(0.0, 1.0)) > 1.0 - 1e-5

    def test_survival_trivial_for_negative_beta(self, flat_path):
        assert cond_survival(1.0, 1.0, flat_path, Stable(0.0, -0.5, -1.0)) == 1.0
        assert cond_survival(0.0, 1.0, flat_path, Stable(0.0, -0.5, -1.0)) == 0.0

    def test_survival_monotone_decreasing_in_t(self):
        env = sample_env_path(1.0, -0.5, 3.0, 600, seed=15, flavor="K")
        mech = Feller(0.1, 1.0)
        vals = []
        for i in (200, 400, 600):
            sub = EnvPath(env.grid[: i + 1], env.values[: i + 1], "K", 1.0, -0.5)
            vals.append(cond_survival(1.0, float(sub.T), sub, mech))
        assert vals[0] > vals[1] > vals[2]

    def test_explosion_flat_value(self, flat_path):
        got = cond_explosion(1.0, 1.0, flat_path, Stable(0.0, -0.5, -1.0))
        assert got == pytest.approx(1.0 - math.exp(-0.25), rel=1e-12)

    def test_explosion_zero_mass(self, flat_path):
        assert cond_explosion(0.0, 1.0, flat_path, Stable(0.0, -0.5, -1.0)) == 0.0

    def test_explosion_conservative_for_positive_beta(self, flat_path):
        assert cond_explosion(1.0, 1.0, flat_path, Stable(0.0, 0.5, 1.0)) == 0.0

    @pytest.mark.parametrize("mech", [Feller(0.5, 1.0), Neveu()])
    def test_explosion_zero_for_conservative_mechanisms(self, flat_path, mech):
        assert cond_explosion(1.0, 1.0, flat_path, mech) == 0.0

    def test_explosion_monotone_increasing_in_t(self):
        env = sample_env_path(1.0, -0.5, 3.0, 600, seed=16, flavor="K")
        mech = Stable(0.1, -0.5, -1.0)
        vals = []
        for i in (200, 400, 600):
            sub = EnvPath(env.grid[: i + 1], env.values[: i + 1], "K", 1.0, -0.5)
            vals.append(cond_explosion(1.0, float(sub.T), sub, mech))
        assert vals[0] < vals[1] < vals[2]
