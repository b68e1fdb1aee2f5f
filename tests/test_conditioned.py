import math

import numpy as np
import pytest

from cbbre.conditioned import (
    U,
    U_star,
    U_star_vectorized,
    U_vectorized,
    asympt_conditioned_constant,
    conditioned_survival,
    h_bounds,
    h_fn,
    qprocess_as_cbibre,
    qprocess_weights,
    theta,
)
from cbbre.errors import RegimeError
from cbbre.longterm import extinction_prob_exact_stable
from cbbre.mechanisms import Feller, derive_env
from cbbre.simulate import SimConfig, simulate_cbbre_batch, simulate_cbibre_batch


class TestU:
    def test_strongly_subcritical_linear(self):
        env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2, eta=4, k=0.5
        assert U(3.0, env) == pytest.approx(3.0, rel=1e-12)

    def test_intermediate_linear(self):
        env = derive_env(1.0, -0.5, 1.0, 1.0)  # m=-1
        assert U(1.0, env) == pytest.approx(math.sqrt(2.0) * 0.5 / math.sqrt(math.pi))

    def test_zero_at_zero_all_branches(self):
        for alpha in (0.5, 0.2, -0.5, -1.5):  # m = 0, -0.3, -1, -2
            env = derive_env(1.0, alpha, 1.0, 1.0)
            assert U(0.0, env) == 0.0

    def test_supercritical_rejected(self):
        with pytest.raises(RegimeError):
            U(1.0, derive_env(1.0, 1.5, 1.0, 1.0))

    def test_critical_is_the_survival_constant(self):
        # at m = 0, U(z) is the critical survival constant at z
        from cbbre.longterm import asympt_survival_constant

        for beta in (1.0, 0.7, 0.5, 0.3):
            env = derive_env(1.0, 0.5, beta, 1.0)  # m = 0
            for z in (0.01, 1.0, 10.0):
                assert U(z, env) == pytest.approx(asympt_survival_constant(z, env).constant,
                                                  rel=1e-13)

    def test_vectorized_matches_scalar(self):
        env = derive_env(1.0, 0.2, 1.0, 1.0)  # m = -0.3 weakly
        z = np.array([0.3, 1.0, 4.0])
        u_fn = U_vectorized(env)
        np.testing.assert_allclose(u_fn(z), [U(float(x), env) for x in z], rtol=1e-12)


class TestTheta:
    def test_branch_values(self):
        assert theta(derive_env(1.0, 0.5, 1.0, 1.0)) == 0.0  # m=0
        assert theta(derive_env(1.0, 0.0, 1.0, 1.0)) == pytest.approx(0.125)  # m=-0.5
        assert theta(derive_env(1.0, -0.5, 1.0, 1.0)) == pytest.approx(0.5)  # m=-1

    def test_continuous_at_junction(self):
        lo = theta(derive_env(1.0, -0.5 - 1e-9, 1.0, 1.0))
        hi = theta(derive_env(1.0, -0.5 + 1e-9, 1.0, 1.0))
        assert lo == pytest.approx(hi, abs=1e-8)


class TestQprocessWeights:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, -1.5])  # m = -0.5, -1, -2
    def test_martingale_mean_one(self, alpha):
        env = derive_env(1.0, alpha, 1.0, 1.0)
        cfg = SimConfig(dt=2e-3, seed=31)
        b = simulate_cbbre_batch(Feller(alpha, 1.0), 1.0, 1.0, 1.0, cfg, 30000,
                                 record_times=[1.0])
        w = qprocess_weights(b.z[:, -1], 1.0, 1.0, env)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_time_zero_weight(self):
        env = derive_env(1.0, 0.0, 1.0, 1.0)
        w = qprocess_weights(np.array([1.0]), 0.0, 1.0, env)
        assert w[0] == pytest.approx(1.0)

    def test_absorbed_paths_zero_weight(self):
        env = derive_env(1.0, -1.5, 1.0, 1.0)
        w = qprocess_weights(np.array([0.0, 2.0]), 1.0, 1.0, env)
        assert w[0] == 0.0 and w[1] > 0

    def test_longrun_conditioning_matches_reweighting(self):
        # P_z(Z_t > z0 | T0 > t+s) at large s approaches the reweighted
        # probability E[D_t 1{Z_t > z0}]/U(z0); critical case keeps enough
        # survivors for the frequency estimate
        env = derive_env(1.0, 0.5, 1.0, 1.0)  # m=0
        z0, t, s = 1.0, 1.0, 20.0
        cfg = SimConfig(dt=5e-3, seed=32)
        b = simulate_cbbre_batch(Feller(0.5, 1.0), 1.0, z0, t + s, cfg, 40000,
                                 record_times=[t, t + s])
        zt = b.z[:, 0]
        alive_end = b.z[:, -1] > 0
        cond_freq = (zt[alive_end] > z0).mean()
        n_alive = alive_end.sum()
        se_f = math.sqrt(cond_freq * (1 - cond_freq) / n_alive)
        w = qprocess_weights(zt, t, z0, env)
        rew = (w * (zt > z0)).mean()
        se_w = (w * (zt > z0)).std(ddof=1) / math.sqrt(w.size)
        assert abs(cond_freq - rew) <= 3 * math.hypot(se_f, se_w) + 0.01


class TestUStar:
    def test_one_at_zero(self):
        # absorbed paths carry U_*(0) = 1 on the vectorized route too
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        assert U_star(0.0, env) == 1.0
        assert U_star_vectorized(env)(np.array([0.0]))[0] == 1.0

    def test_feller_closed_form(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        assert U_star(2.0, env) == pytest.approx(0.25, abs=1e-12)

    def test_vectorized_matches_closed_form(self):
        # beta = 1: U_*(z) = E[exp(-z k G)] = (1 + z k)^eta, G ~ Gamma(-eta)
        for m in (1.0, 0.05, 0.15, 0.25):  # Gamma shapes 2, 0.1, 0.3, 0.5
            env = derive_env(1.0, m + 0.5, 1.0, 1.0)
            z = np.array([0.0, 0.5, 2.0, 7.0])
            np.testing.assert_allclose(U_star_vectorized(env)(z), (1.0 + z * env.k) ** env.eta,
                                       rtol=1e-14)

    def test_identity_with_extinction_on_grid(self):
        for m, z in [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0)]:
            env = derive_env(1.0, m + 0.5, 1.0, 1.0)
            assert U_star(z, env) == extinction_prob_exact_stable(z, env)

    def test_vectorized_accuracy(self):
        for m in (1.0, 0.05, 0.15, 0.25):  # Gamma shapes 2, 0.1, 0.3, 0.5
            env = derive_env(1.0, m + 0.5, 1.0, 1.0)
            fn = U_star_vectorized(env)
            z = np.array([0.0, 0.5, 2.0, 7.0])
            ref = [U_star(float(x), env) for x in z]
            np.testing.assert_allclose(fn(z), ref, rtol=1e-9)

    def test_martingale(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)  # m=1
        cfg = SimConfig(dt=2e-3, seed=33)
        b = simulate_cbbre_batch(Feller(1.5, 1.0), 1.0, 1.0, 1.0, cfg, 30000,
                                 record_times=[1.0])
        fn = U_star_vectorized(env)
        vals = fn(np.where(np.isfinite(b.z[:, -1]), b.z[:, -1], 0.0))
        vals = np.where(np.isfinite(b.z[:, -1]), vals, 0.0)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - U_star(1.0, env)) <= 3 * se

    def test_requires_supercritical(self):
        with pytest.raises(RegimeError):
            U_star(1.0, derive_env(1.0, 0.0, 1.0, 1.0))


class TestH:
    def test_zero_second_argument(self):
        assert h_fn(0.7, 0.0, 0.5, 0.5) == 0.0

    def test_bounds_hold_on_grid(self):
        k, beta, eps = 0.5, 0.5, 0.3
        xs = np.geomspace(0.05, 5.0, 12)
        ys = np.geomspace(0.05, 5.0, 12)
        X, Y = np.meshgrid(xs, ys)
        h = h_fn(X, Y, k, beta)
        lo, hi = h_bounds(X, Y, eps, k, beta)
        assert np.all(lo <= h + 1e-14)
        assert np.all(h <= hi + 1e-14)

    def test_bounds_hold_beta_one(self):
        k = 1.0
        xs = np.geomspace(0.1, 4.0, 10)
        for eps in (0.1, 1.0):
            X, Y = np.meshgrid(xs, xs)
            h = h_fn(X, Y, k, 1.0)
            lo, hi = h_bounds(X, Y, eps, k, 1.0)
            assert np.all(lo <= h + 1e-14) and np.all(h <= hi + 1e-14)


class TestConditionedSurvival:
    def test_short_horizon_is_one(self):
        env = derive_env(1.0, 1.0, 1.0, 1.0)  # m=0.5
        est = conditioned_survival(1.0, 0.01, env, n_mc=20000, seed=34)
        assert est.value == pytest.approx(1.0, abs=3 * est.stderr + 0.01)

    def test_quadrature_matches_mc(self):
        env = derive_env(1.0, 1.0, 1.0, 1.0)
        mc = conditioned_survival(1.0, 1.5, env, n_mc=40000, seed=35)
        quad = conditioned_survival(1.0, 1.5, env, method="quadrature")
        assert abs(mc.value - quad.value) <= 3 * mc.stderr


class TestConditionedConstants:
    def test_intermediate_small_z_limit(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)  # m = 1 = beta sigma^2
        target = 0.5 * math.sqrt(2.0) / math.sqrt(math.pi)  # k sqrt2 G(2)/(s sqrt pi)
        for z in (1e-3, 1e-4):
            c = asympt_conditioned_constant(z, env)
            assert c.constant * U_star(z, env) / z == pytest.approx(target, rel=5e-3)

    def test_positive_on_grid(self):
        for alpha, z in [(1.0, 0.5), (1.5, 1.0), (2.5, 2.0)]:
            env = derive_env(1.0, alpha, 1.0, 1.0)
            assert asympt_conditioned_constant(z, env).constant > 0

    def test_strongly_supercritical_duality(self):
        # for beta = 1 the conditioned constant at m equals the plain
        # survival constant at -m (h-transform duality); m = 2 pairs the
        # strongly regimes, 0.15 and 0.25 the weakly ones, whose Gamma shape
        # |eta| = 2m is below 1
        from cbbre.longterm import asympt_survival_constant

        for m in (2.0, 0.15, 0.25, 0.35, 0.45):
            a = asympt_conditioned_constant(1.0, derive_env(1.0, 0.5 + m, 1.0, 1.0))
            b = asympt_survival_constant(1.0, derive_env(1.0, 0.5 - m, 1.0, 1.0))
            assert a.constant == pytest.approx(b.constant, rel=1e-9)
            assert a.rate_exp == pytest.approx(b.rate_exp)
        # m = 0.25, z = 1: the mpmath weakly subcritical constant at eta = 0.5
        # (benchmark/reference.py, "weakly_constant" in reference.json)
        a = asympt_conditioned_constant(1.0, derive_env(1.0, 0.75, 1.0, 1.0))
        assert a.regime == "weakly_supercritical"
        assert abs(a.constant - 6.983809314054095) <= 1e-9

    @pytest.mark.parametrize("args,want", [
        ((1.0, 80.5, 1.0, 1.0), 79.0),
        ((1.0, 40.5, 0.5, 0.5), 2.580801544644362),
    ])
    def test_strongly_supercritical_within_gamma_range_unchanged(self, args, want):
        # eta = -160: Gamma(1/beta - eta - 1) and Gamma(-eta) are each finite,
        # and the values are those of the two separate Gamma calls
        a = asympt_conditioned_constant(1.0, derive_env(*args))
        assert a.regime == "strongly_supercritical"
        assert abs(a.constant / want - 1.0) <= 1e-13

    @pytest.mark.parametrize("args,want", [
        # beta = 1: -z k (eta + 2) = 0.5 * 198
        ((1.0, 100.5, 1.0, 1.0), 99.0),
        # -z k (eta + 2) / beta * I(1/beta - eta - 1) / I(-eta), with
        # I(a) = int x^(a-1) e^(-x - z k x^(1/beta)) dx by mpmath at 40 digits
        ((1.0, 50.5, 0.5, 5.0), 122.24855684368906733),
    ])
    def test_strongly_supercritical_past_gamma_range(self, args, want):
        # eta = -200: both Gammas overflow a double, their ratio does not
        env = derive_env(*args)
        assert env.eta == -200.0
        a = asympt_conditioned_constant(1.0, env)
        assert abs(a.constant / want - 1.0) <= 1e-12

    def test_underflowing_u_star_raises_regime_error(self):
        # eta = -200, k = 0.25: U_*(1) ~ e^(-10^4) is 0 in double precision
        with pytest.raises(RegimeError, match=r"strongly_supercritical.*U_\*.*underflows"):
            asympt_conditioned_constant(1.0, derive_env(1.0, 50.5, 0.5, 0.5))
        # k = 0.0025 keeps U_* in range and the constant as it was
        got = asympt_conditioned_constant(1.0, derive_env(1.0, 50.5, 0.5, 5.0)).constant
        assert got == pytest.approx(122.24855684367995, rel=1e-13)

    def test_weakly_duality_to_rounding(self):
        # h = e^{-kx}(1 - e^{-k d}) with d formed without cancellation keeps
        # the weakly pairs at rounding level as the phi_eta weights reach
        # y = 1e-30
        from cbbre.longterm import asympt_survival_constant

        for m in (0.15, 0.25, 0.35, 0.45):
            a = asympt_conditioned_constant(1.0, derive_env(1.0, 0.5 + m, 1.0, 1.0))
            b = asympt_survival_constant(1.0, derive_env(1.0, 0.5 - m, 1.0, 1.0))
            assert a.constant == pytest.approx(b.constant, rel=1e-13)

    def test_weakly_trend_extrapolates_to_constant(self):
        env = derive_env(1.0, 1.0, 1.0, 1.0)  # m = 0.5 weakly supercritical
        const = asympt_conditioned_constant(1.0, env)
        ts = np.array([20.0, 40.0, 60.0])
        scaled = np.array([
            conditioned_survival(1.0, t, env, method="quadrature").value
            * t**const.rate_power * math.exp(const.rate_exp * t)
            for t in ts
        ])
        assert np.all(np.diff(scaled) > 0)
        A = np.column_stack([np.ones(3), ts**-0.5])
        limit = np.linalg.lstsq(A, scaled, rcond=None)[0][0]
        assert abs(limit - const.constant) / const.constant < 0.15


class TestQprocessAsCbibre:
    def test_drift_and_immigration_mapping(self):
        env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2
        q = qprocess_as_cbibre(env)
        assert isinstance(q.mechanism, Feller)
        assert q.mechanism.alpha == pytest.approx(-1.5 + 1.0)
        assert q.immigration.d == pytest.approx(2.0)  # phi(u) = 2c u at beta=1

    def test_out_of_scope_regime(self):
        with pytest.raises(RegimeError):
            qprocess_as_cbibre(derive_env(1.0, 0.0, 1.0, 1.0))  # m=-0.5 > -sigma^2

    def test_dual_construction_distributional(self):
        # reweighted CBBRE vs direct CBIBRE simulation of Z_t; at 2e4 paths
        # the weighted-KS noise floor (effective sample ~ 2e3) sits safely
        # below the 0.03 sanity threshold
        env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2, sigma=1, t=1 (Feller)
        q = qprocess_as_cbibre(env)
        cfg = SimConfig(dt=2e-3, seed=36)
        plain = simulate_cbbre_batch(Feller(-1.5, 1.0), 1.0, 1.0, 1.0, cfg, 20000,
                                     record_times=[1.0])
        w = qprocess_weights(plain.z[:, -1], 1.0, 1.0, env)
        direct = simulate_cbibre_batch(q.mechanism, q.immigration, 1.0, 1.0, 1.0,
                                       SimConfig(dt=2e-3, seed=37), 20000,
                                       record_times=[1.0])
        # weighted KS between the reweighted sample and the direct sample
        zs = plain.z[:, -1]
        zd = direct.z[:, -1]
        grid = np.sort(np.concatenate([zs, zd]))[:: 20]
        wsum = w.sum()
        F_w = np.array([(w * (zs <= g)).sum() / wsum for g in grid])
        F_d = np.searchsorted(np.sort(zd), grid, side="right") / zd.size
        assert np.max(np.abs(F_w - F_d)) < 0.03
