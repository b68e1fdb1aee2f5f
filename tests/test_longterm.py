import math
import warnings

import numpy as np
import pytest
from scipy import special

from cbbre.conditioned import U, asympt_conditioned_constant
from cbbre.environment import my_density_grid
from cbbre.errors import MethodError, ParameterError, RegimeError
from cbbre.longterm import (
    asympt_explosion_constant,
    asympt_survival_constant,
    critical_constant_integral,
    explosion_prob,
    extinction_bounds,
    extinction_prob_exact_stable,
    neveu_longterm,
    phi_eta,
    phi_eta_grid,
    survival_prob,
    survival_scaled_trend,
)
from cbbre.mechanisms import derive_env
from cbbre.numerics import u_half
from test_acceptance import gauss_legendre_panels


class TestSurvivalProb:
    def test_zero_mass(self):
        env = derive_env(1.0, 0.0, 1.0, 1.0)
        assert survival_prob(0.0, 1.0, env).value == 0.0

    def test_short_horizon_near_one(self):
        env = derive_env(1.0, 0.0, 1.0, 1.0)
        est = survival_prob(1.0, 0.01, env, "mc", n_paths=4000, seed=1)
        assert est.value > 0.97

    def test_mc_vs_quadrature(self):
        env = derive_env(1.0, 0.0, 1.0, 1.0)  # Feller, m = -0.5, eta = 1
        mc = survival_prob(1.0, 2.0, env, "mc", n_paths=20000, seed=5)
        quad = survival_prob(1.0, 2.0, env, "quadrature")
        assert abs(mc.value - quad.value) <= max(3 * mc.stderr, 1e-2)

    def test_mc_first_order_unbiased(self):
        # 20 steps of 0.1: an O(dt) bias in the path integral would show at
        # 400k paths (the exact-linear rule is ~6 SE off here)
        env = derive_env(1.0, 0.0, 1.0, 1.0)
        mc = survival_prob(1.0, 2.0, env, "mc", n_paths=400_000, n_steps=20, seed=8)
        quad = survival_prob(1.0, 2.0, env, "quadrature")
        assert abs(mc.value - quad.value) <= 3 * mc.stderr

    def test_monotone_in_t_and_z(self):
        env = derive_env(1.0, 0.0, 1.0, 1.0)
        ps = [survival_prob(1.0, t, env, "quadrature").value for t in (1.5, 2.0, 3.0)]
        assert ps[0] > ps[1] > ps[2]
        pz = [survival_prob(z, 2.0, env, "quadrature").value for z in (0.5, 1.0, 2.0)]
        assert pz[0] < pz[1] < pz[2]

    def test_requires_positive_beta(self):
        with pytest.raises(ParameterError):
            survival_prob(1.0, 1.0, derive_env(1.0, 0.0, -0.5, -1.0))

    def test_hw_quadrature_matches_density_route(self):
        env = derive_env(1.0, 0.5, 1.0, 1.0)  # m = 0, eta = 0
        hw = survival_prob(1.0, 2.0, env, "quadrature-hw")
        quad = survival_prob(1.0, 2.0, env, "quadrature")
        assert hw.value == pytest.approx(quad.value, abs=2e-3)

    def test_mc_vs_hw_quadrature_below_eta_boundary(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)  # m = 1, eta = -2
        mc = survival_prob(1.0, 2.0, env, "mc", n_paths=20000, seed=5)
        quad = survival_prob(1.0, 2.0, env, "quadrature-hw")
        assert abs(mc.value - quad.value) <= 3 * mc.stderr

    @pytest.mark.parametrize("beta", [0.1, 0.05])
    @pytest.mark.parametrize("eta", [0.0, 2.0])
    def test_small_beta_matches_fine_gauss_legendre(self, beta, eta):
        # nu = 0.5 and k = 1: 1 - e^(-v^(1/beta)) turns from 0 to 1 within
        # ~beta in log v, so the density's lattice must narrow with 1/beta (a
        # fixed log-v step of 0.05 reads 5.5e-6 low at beta = 0.05); the
        # reference sums the density on Gauss-Legendre panels 0.05 wide in log v
        env = derive_env(1.0, 0.5 - 0.5 * eta * beta, beta, 0.5 * beta)
        got = survival_prob(1.0, 2.0 / beta**2, env, "quadrature").value
        lv, w = gauss_legendre_panels(np.arange(math.log(1e-30), math.log(100.0) + 1e-9, 0.05))
        v = np.exp(lv)
        ref = np.sum(w * v * my_density_grid(v, 0.5, eta) * -np.expm1(-v ** (1.0 / beta)))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestExplosionProb:
    def test_zero_mass(self):
        env = derive_env(1.0, 0.25, -0.5, -1.0)
        assert explosion_prob(0.0, 1.0, env).value == 0.0

    def test_positive_for_small_t(self):
        env = derive_env(1.0, 0.25, -0.5, -1.0)
        est = explosion_prob(1.0, 0.5, env, "mc", n_paths=4000, seed=2)
        assert 0.0 < est.value < 1.0

    def test_mc_vs_hw_quadrature_at_eta_minus_one(self):
        env = derive_env(1.0, 0.25, -0.5, -1.0)  # eta = -1 exactly
        mc = explosion_prob(1.0, 5.0, env, "mc", n_paths=20000, seed=3)
        quad = explosion_prob(1.0, 5.0, env, "quadrature-hw")
        assert abs(mc.value - quad.value) <= max(3 * mc.stderr, 1e-2)

    def test_p_quadrature_rejected_below_eta_boundary(self):
        env = derive_env(1.0, 0.25, -0.5, -1.0)
        with pytest.raises(MethodError):
            explosion_prob(1.0, 5.0, env, "quadrature")

    def test_p_quadrature_valid_above_boundary(self):
        env = derive_env(1.0, 0.75, -0.5, -1.0)  # m=0.25, eta=1
        mc = explosion_prob(1.0, 6.0, env, "mc", n_paths=20000, seed=4)
        quad = explosion_prob(1.0, 6.0, env, "quadrature")
        assert abs(mc.value - quad.value) <= max(3 * mc.stderr, 1e-2)


class TestExtinction:
    def test_subcritical_certain(self):
        assert extinction_prob_exact_stable(1.0, derive_env(1.0, 0.0, 1.0, 1.0)) == 1.0

    def test_feller_closed_form(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)  # m=1, eta=-2, k=0.5
        assert extinction_prob_exact_stable(2.0, env) == pytest.approx(0.25, abs=1e-12)

    def test_bounds_bracket_exact(self):
        for m in (0.5, 1.0, 2.0):
            env = derive_env(1.0, m + 0.5, 1.0, 1.0)
            exact = extinction_prob_exact_stable(1.0, env)
            b = extinction_bounds(1.0, env, gamma2=1.0, kappa=0.0)
            assert b.lower < exact <= b.upper + 1e-12
            assert b.remark_lower == pytest.approx(b.remark_upper)

    def test_kappa_zero_pair_coincides(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        b = extinction_bounds(1.0, env, gamma2=1.0, kappa=0.0)
        assert b.remark_lower == pytest.approx((1.5) ** (-2.0))
        assert b.remark_upper == pytest.approx((1.5) ** (-2.0))

    def test_z_zero(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        b = extinction_bounds(0.0, env, gamma2=1.0, kappa=0.0)
        assert (b.lower, b.upper) == (1.0, 1.0)

    def test_infinite_kappa(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        b = extinction_bounds(1.0, env, gamma2=1.0, kappa=math.inf)
        assert b.upper is None


class TestSurvivalConstants:
    def test_strongly_subcritical_value(self):
        env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2, eta=4, k=0.5
        c = asympt_survival_constant(1.0, env)
        assert c.constant == pytest.approx(1.0, rel=1e-12)
        assert c.rate_exp == pytest.approx(1.5)

    @pytest.mark.parametrize("alpha", [-100.0, -3.0])
    def test_strongly_subcritical_beta_one_is_k_eta_minus_two(self, alpha):
        # Gamma(eta - 1)/Gamma(eta - 2) = eta - 2; at alpha = -100 (eta = 201)
        # both Gammas overflow a double while their ratio does not
        env = derive_env(1.0, alpha, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = asympt_survival_constant(1.0, env).constant
        assert c == pytest.approx(env.k * (env.eta - 2.0), rel=1e-13)

    def test_strongly_subcritical_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        env = derive_env(1.0, -3.0, 0.5, 1.0)  # m = -3.5, eta = 14, k = 1/16
        with mpmath.workdps(30):
            ref = float(2 * env.k * mpmath.gamma(env.eta - 2) / mpmath.gamma(env.eta - 4))
        assert asympt_survival_constant(2.0, env).constant == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("const, alpha", [
        (asympt_survival_constant, -0.5),  # intermediately subcritical: Gamma(200)
        (asympt_survival_constant, -3.0),  # strongly: Gamma(1200)/Gamma(1000)
        (asympt_conditioned_constant, 0.505),  # intermediately supercritical: Gamma(201)
    ])
    def test_constants_past_double_range_raise(self, const, alpha):
        with pytest.raises(RegimeError, match="double"):
            const(1.0, derive_env(1.0, alpha, 0.005, 0.005))

    def test_intermediately_subcritical_value(self):
        env = derive_env(1.0, -0.5, 1.0, 1.0)  # m=-1
        c = asympt_survival_constant(1.0, env)
        assert c.constant == pytest.approx(math.sqrt(2.0) * 0.5 / math.sqrt(math.pi), rel=1e-12)
        assert (c.rate_power, c.rate_exp) == (0.5, 0.5)

    def test_supercritical_is_one_minus_extinction(self):
        env = derive_env(1.0, 1.5, 1.0, 1.0)
        c = asympt_survival_constant(2.0, env)
        assert c.constant == pytest.approx(0.75, abs=1e-12)
        assert abs((1.0 - c.constant) - extinction_prob_exact_stable(2.0, env)) <= 1e-10

    def test_critical_beta_one_log_form(self):
        env = derive_env(1.0, 0.5, 1.0, 1.0)  # m=0, k=0.5
        c = asympt_survival_constant(1.0, env)
        assert c.constant == pytest.approx(math.sqrt(2 / math.pi) * math.log(1.5), rel=1e-9)

    def test_critical_integral_matches_mpmath(self):
        # mpmath at 30 digits in log x
        for beta, q, ref in ((0.5, 1.0, 0.40505659567722835415),
                             (0.3, 1.0, 0.31387688836333464747),
                             (0.05, 1.0, 0.23090872127959559585)):
            assert critical_constant_integral(q, beta) == pytest.approx(ref, rel=1e-14)

    def test_critical_integral_log_identity(self):
        for q in (0.25, 1.0, 3.0):
            assert critical_constant_integral(q, 1.0) == pytest.approx(
                math.log1p(q), rel=1e-9)


# mpmath at 30 digits (DLMF 13.4.4 for phi_eta, 13.10.7 for the v-integral
# of the constants): phi_eta at eta = 0.5, and the weakly subcritical
# constant 8 int (1 - e^{-kzv}) phi_eta(v) dv at eta = 0.5, k = 1/2
PHI_ETA_HALF = {
    1e-3: 20279.071410443685, 0.05: 89.0405622940849, 0.2: 10.682695771892709,
    0.5: 2.102907275894121, 1.0: 0.4626788358949081, 3.0: 0.012346243354624385,
    10.0: 1.8712378698812705e-06,
}
WEAKLY_CONSTANT_HALF = {1.0: 6.983809314054095, 2.0: 12.73334723097938}


class TestPhiEta:
    def test_matches_mpmath_at_eta_half(self):
        v = np.array(list(PHI_ETA_HALF))
        ref = np.array(list(PHI_ETA_HALF.values()))
        np.testing.assert_allclose(phi_eta_grid(v, 0.5), ref, rtol=1e-10)

    def test_weakly_constant_matches_mpmath(self):
        env = derive_env(1.0, 0.25, 1.0, 1.0)  # m = -1/4, eta = 1/2, k = 1/2
        for z, ref in WEAKLY_CONSTANT_HALF.items():
            assert asympt_survival_constant(z, env).constant == pytest.approx(ref, rel=1e-10)
            assert U(z, env) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("beta, alpha, c", [(0.5, -0.3, 1.0), (-0.5, 1.0, -1.0)])
    def test_shared_branch_matches_phi_eta_integral(self, beta, alpha, c):
        # weakly subcritical survival (m = -0.8, eta = 3.2) and supercritical
        # explosion (m = 0.5, eta = 2) share one branch: 8/(|beta|^3 sigma^3)
        # int g(k (z^beta v)^(1/beta)) phi_eta(v) dv with g(u) = 1 - e^{-u}
        # for beta > 0 and e^{-u} for beta < 0, here on Gauss-Legendre panels
        # in log v from 1e-40 to 200
        env = derive_env(1.0, alpha, beta, c)
        t, wt = gauss_legendre_panels(np.linspace(math.log(1e-40), math.log(200.0), 121), 20)
        v = np.exp(t)
        w = wt * v * phi_eta_grid(v, env.eta)
        const = asympt_survival_constant if beta > 0 else asympt_explosion_constant
        for z in (0.5, 2.0):
            u = env.k * (z**beta * v) ** (1.0 / beta)
            g = -np.expm1(-u) if beta > 0 else np.exp(-u)
            ref = 8.0 / (abs(beta) ** 3 * env.sigma**3) * np.sum(w * g)
            assert const(z, env).constant == pytest.approx(ref, rel=1e-8)

    def test_positive(self):
        assert phi_eta(1.0, 1.0) > 0

    def test_tiny_eta_raises_instead_of_nan(self):
        # the xi tail ~ e^{-eta xi} would run past where cosh^2 xi overflows
        with pytest.raises(RegimeError):
            phi_eta_grid(np.array([1.0]), 0.05)

    def test_tensor_matches_confluent_reduction(self):
        # independent evaluation: the u-integral reduced to the confluent
        # kernel, leaving a single smooth xi-integral
        for v, eta in [(0.5, 1.0), (1.0, 1.5), (2.0, 0.7)]:
            a = 0.5 * (eta + 1.0)
            pref = (special.gamma(0.5 * (eta + 2.0)) * special.gamma(a)
                    / (math.sqrt(2.0) * np.pi) * math.exp(-v) * v ** (-a))
            xi, w = gauss_legendre_panels(np.arange(0.0, 60.0 / eta + 1.0, 0.25), 16)
            from scipy.special import hyperu

            f = xi * np.sinh(xi) * hyperu(a, 0.5, v * np.cosh(xi) ** 2)
            ref = pref * np.sum(w * f)
            assert phi_eta(v, eta) == pytest.approx(ref, rel=1e-6)

    def test_tail_decay_rate(self):
        # integrand tail ~ xi e^{-eta xi}: ratio test on the numerical tail
        eta = 1.5
        v = 1.0
        a = 0.5 * (eta + 1.0)
        xs = np.array([8.0, 10.0, 12.0])
        vals = xs * np.sinh(xs) * u_half(a, v * np.cosh(xs) ** 2)
        ratios = vals[1:] / vals[:-1]
        predicted = (xs[1:] / xs[:-1]) * np.exp(-eta * np.diff(xs))
        np.testing.assert_allclose(ratios, predicted, rtol=0.1)

    def test_weakly_constant_consistency_with_finite_t(self):
        # the weakly regime approaches its limit at rate ~ 1/sqrt(t): the
        # raw gap at t = 40 is still ~18%, so the check extrapolates the
        # scaled survival in 1/sqrt(t) over t in {20, 40, 60}
        env = derive_env(1.0, 0.0, 1.0, 1.0)  # m=-0.5 weakly subcritical
        const = asympt_survival_constant(1.0, env)
        ts = np.array([20.0, 40.0, 60.0])
        scaled = np.array([
            survival_prob(1.0, t, env, "quadrature").value * const.scale(t)
            for t in ts
        ])
        assert np.all(np.diff(scaled) > 0)  # monotone approach from below
        A = np.column_stack([np.ones(3), ts**-0.5])
        limit = np.linalg.lstsq(A, scaled, rcond=None)[0][0]
        assert abs(limit - const.constant) / const.constant < 0.10


class TestExplosionConstants:
    def test_limit_vs_mc_over_gamma(self):
        env = derive_env(1.0, 0.25, -0.5, -1.0)  # m=-0.25, eta=-1
        c = asympt_explosion_constant(1.0, env)
        rng = np.random.default_rng(0)
        g = rng.exponential(size=2_000_000)
        smp = np.exp(-env.k * g ** (1.0 / env.beta))
        se = smp.std(ddof=1) / math.sqrt(g.size)
        assert abs(c.constant - smp.mean()) <= 3 * se

    def test_z_to_zero_limit_is_one(self):
        # G ~ Exp(1) and p = -2 here, so 1 - E[e^{-zk/G^2}] ~ sqrt(pi z k):
        # 7.09e-6 at z = 1e-12 (mpmath 0.999992910393610699), 7.1e-8 at 1e-16
        env = derive_env(1.0, 0.25, -0.5, -1.0)
        assert abs(asympt_explosion_constant(1e-12, env).constant
                   - 0.999992910393610699) < 1e-14
        assert asympt_explosion_constant(1e-16, env).constant == pytest.approx(1.0, abs=1e-6)

    def test_subcritical_limit_at_shape_below_one(self):
        # m = -0.01: Gamma(1/45) at the power -10/9, a quarter of whose mass
        # lies below 1e-12; mpmath reads 0.0515011204354 and 4M Monte Carlo
        # draws 0.05135 +- 0.0001
        env = derive_env(1.0, 0.49, -0.9, -1.0)
        assert abs(asympt_explosion_constant(0.01, env).constant - 0.0515011204354) < 1e-10

    def test_critical_constant_matches_mpmath(self):
        # int e^{-q x^{1/beta}} e^{-x} dx/x, mpmath at 30 digits in log x; the
        # last two put the integrand's peak at x = 28 and 82.
        # sqrt(2/pi)/(|beta| sigma) times it is the constant at z = q/k
        for beta, q, ref in ((-0.5, 1.0, 0.18692873226152801862),
                             (-0.05, 1.0, 0.20967392295029650583),
                             (-0.9, 1e-10, 19.626556082274024834),
                             (-0.9, 1e3, 4.4107314743923421473e-24),
                             (-0.9, 1e4, 1.61915468755287458e-69)):
            env = derive_env(1.0, 0.5, beta, -1.0)  # m = 0
            c = asympt_explosion_constant(q / env.k, env)
            assert c.regime == "critical_explosion"
            want = math.sqrt(2 / math.pi) / -beta * ref
            assert c.constant == pytest.approx(want, rel=1e-13, abs=0)

    def test_critical_integrand_vanishes_at_origin(self):
        # e^{-zk x^{1/beta}} kills the 1/x singularity for 1/beta < 0
        env = derive_env(1.0, 0.5, -0.5, -1.0)
        x = np.array([1e-8, 1e-6, 1e-4])
        vals = np.exp(-env.k * x ** (1.0 / env.beta) - x) / x
        assert np.all(vals == 0.0) or np.all(np.diff(vals) >= 0)

    def test_supercritical_explosion_positive(self):
        env = derive_env(1.0, 1.0, -0.5, -1.0)
        c = asympt_explosion_constant(1.0, env)
        assert c.constant > 0
        assert c.rate_power == 1.5


class TestScaledTrends:
    def test_strongly_subcritical_trend(self):
        env = derive_env(1.0, -1.5, 1.0, 1.0)
        rows = survival_scaled_trend(1.0, env, [10.0, 20.0])
        assert rows[-1]["rel_gap"] < 0.01
        assert rows[0]["scaled"] > rows[1]["scaled"]

    def test_intermediately_subcritical_trend_at_long_horizons(self):
        # nu = 30..50, eta = 2: the density prefactor at the smallest v nodes
        # lies past the largest double, where the clamped sum is 0
        env = derive_env(1.0, -0.5, 1.0, 1.0)
        gaps = [r["rel_gap"] for r in survival_scaled_trend(1.0, env, [120.0, 160.0, 200.0])]
        assert all(np.isfinite(gaps)) and gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.02


class TestNeveuLongterm:
    def test_zero_mass(self):
        assert neveu_longterm(0.0, 1.0).prob_limit_zero == 1.0

    def test_sigma_zero_limit(self):
        assert neveu_longterm(2.0, 0.0).prob_limit_zero == pytest.approx(math.exp(-2.0))

    def test_quadrature_matches_mc(self):
        rep = neveu_longterm(1.0, 1.0)
        rng = np.random.default_rng(1)
        g = rng.normal(-0.5, math.sqrt(0.5), size=1_000_000)
        smp = np.exp(-np.exp(g))
        se = smp.std(ddof=1) / math.sqrt(g.size)
        assert abs(rep.prob_limit_zero - smp.mean()) <= 3 * se
        assert rep.mean_is_infinite
