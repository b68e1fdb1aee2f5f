import math

import numpy as np
import pytest

from cbbre.environment import (
    EnvPath,
    NU_MIN,
    T_MIN,
    density_cdf,
    density_expectation,
    dufresne_law,
    exp_functional,
    hw_conditional_density,
    hw_kernel,
    hw_marginal_expectation,
    lemma1_moments,
    log_exp_functional,
    mc_half_inverse_samples,
    my_density,
    my_density_grid,
    refine_env_path,
    sample_env_path,
    sample_env_paths,
)
from cbbre.errors import (
    DivergentFunctionalError,
    ParameterError,
    QuadratureInstabilityError,
)


class TestPaths:
    def test_degenerate_sigma_zero(self):
        p = sample_env_path(0.0, 2.0, 1.0, 4, seed=1)
        np.testing.assert_allclose(p.values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_determinism(self):
        a = sample_env_path(1.0, -0.5, 1.0, 200, seed=9)
        b = sample_env_path(1.0, -0.5, 1.0, 200, seed=9)
        assert np.array_equal(a.values, b.values)
        c = sample_env_path(1.0, -0.5, 1.0, 200, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_terminal_variance(self):
        # Var K_T = sigma^2 T, checked over many paths within 3 SE
        sigma, T, n = 1.3, 2.0, 100_000
        _, K = sample_env_paths(sigma, 0.4, T, 8, seed=3, n_paths=n)
        kT = K[:, -1]
        var = kT.var(ddof=1)
        # SE of the sample variance of a Gaussian: sigma^2 T sqrt(2/(n-1))
        se = sigma**2 * T * math.sqrt(2.0 / (n - 1))
        assert abs(var - sigma**2 * T) <= 3 * se
        assert abs(kT.mean() - 0.4 * T) <= 3 * sigma * math.sqrt(T / n)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            sample_env_path(1.0, 0.0, -1.0, 10, seed=0)
        with pytest.raises(ParameterError):
            sample_env_path(1.0, 0.0, 1.0, 0, seed=0)

    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            EnvPath(np.array([0.0, 1.0]), np.array([1.0, 0.0]), "K", 1.0, 0.0)
        with pytest.raises(ParameterError):
            EnvPath(np.array([0.5, 1.0]), np.array([0.0, 0.0]), "K", 1.0, 0.0)

    def test_bridge_refinement_keeps_coarse_points(self):
        p = sample_env_path(1.0, -0.5, 1.0, 50, seed=4)
        r = refine_env_path(p, seed=5)
        assert r.grid.size == 2 * p.grid.size - 1
        np.testing.assert_array_equal(r.values[::2], p.values)


class TestExpFunctional:
    def test_flat_path_gives_horizon(self, flat_path):
        assert exp_functional(flat_path, 3.7).value == pytest.approx(1.0)

    def test_theta_zero_gives_horizon(self):
        p = sample_env_path(1.0, -0.5, 2.0, 300, seed=6)
        assert exp_functional(p, 0.0).value == pytest.approx(2.0, rel=1e-12)

    def test_monotone_in_horizon(self):
        p = sample_env_path(1.0, -0.5, 2.0, 400, seed=7)
        half = EnvPath(p.grid[:201], p.values[:201], "K", 1.0, -0.5)
        assert exp_functional(p, 1.0).value > exp_functional(half, 1.0).value

    def test_log_space_handles_huge_exponents(self):
        grid = np.linspace(0.0, 1.0, 11)
        vals = np.linspace(0.0, 800.0, 11)  # exp(800) overflows in linear space
        lv = log_exp_functional(grid, vals, 1.0)
        assert np.isfinite(lv) and lv > 700

    def test_refinement_order(self):
        # halving the step changes the integral at first order in dt:
        # regression of log|I_k - I_finest| on log dt has slope >= 0.8
        rng_seed = 11
        errs = {0: [], 1: [], 2: []}
        for s in range(40):
            p = sample_env_path(1.0, -0.5, 1.0, 32, seed=rng_seed + s)
            paths = [p]
            for lev in range(4):
                paths.append(refine_env_path(paths[-1], seed=1000 + 17 * s + lev))
            vals = [exp_functional(q, 2.0).value for q in paths]
            for lev in range(3):
                errs[lev].append(abs(vals[lev] - vals[-1]))
        dts = np.array([1 / 32, 1 / 64, 1 / 128])
        mean_err = np.array([np.mean(errs[k]) for k in range(3)])
        slope = np.polyfit(np.log(dts), np.log(mean_err), 1)[0]
        assert slope >= 0.8


class TestDufresne:
    def test_shape_parameter(self):
        assert dufresne_law(-1.0) == 1.0
        assert dufresne_law(-2.5) == 2.5

    def test_divergent_for_nonnegative_drift(self):
        with pytest.raises(DivergentFunctionalError):
            dufresne_law(0.0)

    def test_moments_match_gamma(self):
        # 1/(2 I_T) -> Gamma(-eta): first two moments within 3 SE
        s = mc_half_inverse_samples(30.0, -2.0, 20000, 3000, seed=21)
        for emp, target in [(s, 2.0), (s**2, 6.0)]:
            se = emp.std(ddof=1) / math.sqrt(emp.size)
            assert abs(emp.mean() - target) <= 3 * se


class TestMyDensity:
    def test_normalization(self):
        from cbbre.numerics import gl_panels

        v, w = gl_panels(np.geomspace(1e-10, 80.0, 240), 16)
        total = np.sum(w * my_density_grid(v, 1.0, 0.0))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_mean_matches_mc(self):
        mean = density_expectation(lambda v: v, 1.0, 1.0)
        s = mc_half_inverse_samples(1.0, 1.0, 20000, 1500, seed=2)
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(mean - s.mean()) <= 3 * se

    def test_cdf_vs_empirical(self):
        s = np.sort(mc_half_inverse_samples(2.0, 0.0, 20000, 2000, seed=8))
        pts = s[:: s.size // 200]
        cdf = density_cdf(pts, 2.0, 0.0)
        emp = np.searchsorted(s, pts, side="right") / s.size
        assert np.max(np.abs(cdf - emp)) < 0.02

    def test_refuses_small_nu(self):
        with pytest.raises(QuadratureInstabilityError):
            my_density(NU_MIN / 2, 0.0, 1.0)

    def test_eta_boundary(self):
        with pytest.raises(ParameterError):
            my_density(1.0, -1.0, 1.0)

    def test_positive_scalar(self):
        assert my_density(1.0, 0.0, 0.5) > 0

    def test_mass_at_eta_four(self):
        # the large-eta sums cancel deepest; the noise clamp keeps the mass
        mass = density_expectation(np.ones_like, 2.5, 4.0)
        assert abs(mass - 1.0) <= 1e-6


# theta_r(t) by mpmath at 40 digits, lobe by lobe of sin(pi y/t), at r
# spanning theta >= 1e-6 of its peak for each t
HW_KERNEL_MPMATH = {
    0.3125: {0.6: 6.522545898990893e-05, 0.946: 0.008181159438416656,
             1.49: 0.3854366346582666, 2.36: 6.476019016649145, 3.71: 31.238055121397206,
             5.86: 36.163646102462025, 9.24: 6.757090207496913, 14.6: 0.1064596014657248,
             23.0: 5.316992543329557e-05},
    0.5: {0.2: 9.928217030709524e-06, 0.353: 0.0010188515449596263,
          0.624: 0.04354603146109093, 1.1: 0.7007343769572566, 1.95: 3.8600916463466235,
          3.44: 5.613834787836998, 6.09: 1.432511043112318, 10.8: 0.028613243004319257,
          19.0: 1.192468950862695e-05},
    1.0: {0.025: 9.120205565012081e-07, 0.0561: 8.677606475169558e-05,
          0.126: 0.003645693968371957, 0.282: 0.06309404185269778, 0.632: 0.4167749351690647,
          1.42: 0.8560930442187442, 3.18: 0.34682353909520985, 7.13: 0.009481407278741203,
          16.0: 1.3380043526915343e-06},
    5.0: {1.2e-05: 7.548291094632286e-08, 6.82e-05: 4.58109650224272e-06,
          0.000387: 0.0001406825495363533, 0.0022: 0.0021537449790349043,
          0.0125: 0.01575565430732931, 0.0709: 0.05072396073526085,
          0.403: 0.055926782806796055, 2.29: 0.006427143161462137,
          13.0: 7.185364123956664e-08},
}


class TestHartmanWatson:
    @pytest.mark.parametrize("t", sorted(HW_KERNEL_MPMATH))
    def test_kernel_matches_mpmath(self, t):
        r = np.array(list(HW_KERNEL_MPMATH[t]))
        ref = np.array(list(HW_KERNEL_MPMATH[t].values()))
        rtol = np.full(r.size, 1e-8)
        if t == 0.3125:
            # at r = 0.6 the sum cancels 1.5e9-fold in double precision
            # (the value is 1.8e-6 of the peak): 1.1e-7 here, 8.1e-8 with
            # the uniform panels of width t/2
            rtol[0] = 2e-7
        assert np.all(np.abs(hw_kernel(r, t) / ref - 1.0) <= rtol)

    def test_positive_at_unit_arguments(self):
        assert hw_kernel(1.0, 1.0) > 0

    def test_integrand_zero_at_origin_respected(self):
        # theta_r(t) stays finite and positive for tiny r ... the quadrature
        # must not lose the sinh(0)=0 endpoint
        assert hw_kernel(np.array([1e-3, 1.0]), 1.0).shape == (2,)

    def test_tiny_r_leaves_other_points_alone(self):
        # r = 1e-300 takes the rule past y = 710, where sinh overflows
        pair = hw_kernel(np.array([1e-300, 1.0]), 250.0)
        assert pair[1] > 0 and pair[1] == pytest.approx(hw_kernel(1.0, 250.0), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_past_y_710_is_silent(self):
        # sinh and cosh overflow there by design; the rule zeroes those terms
        pair = hw_kernel(np.array([1e-300, 1.0]), 250.0)
        assert pair[0] == 0.0 and np.isfinite(pair[1])

    def test_refuses_small_t(self):
        with pytest.raises(QuadratureInstabilityError):
            hw_kernel(1.0, T_MIN / 2)

    def test_conditional_density_normalizes(self):
        from scipy.integrate import quad

        val, _ = quad(lambda u: hw_conditional_density(u, 1.0, 0.0), 1e-4, 200.0,
                      limit=300)
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_marginal_expectation_matches_density_route(self):
        # E[g(1/(2I))] via HW marginal vs p-density quadrature (eta > -1)
        kfun = lambda u: np.exp(-0.8 * (2.0 * u) ** (-1.0))
        via_hw = hw_marginal_expectation(kfun, 0.75, 1.0)
        via_p = density_expectation(lambda v: np.exp(-0.8 * v), 0.75, 1.0)
        assert via_hw == pytest.approx(via_p, abs=2e-3)


class TestHartmanWatsonLattice:
    """The HW route's trapezoid lattice against the law's mass, its closed-form
    mean and the density route."""

    @pytest.mark.parametrize("nu", [0.3125, 0.5, 0.75])
    def test_mass_at_criterion_seven(self, nu):
        assert abs(hw_marginal_expectation(np.ones_like, nu, -1.0) - 1.0) <= 1e-9

    @pytest.mark.parametrize("nu,eta", [(0.3125, -1.0), (1.0, -2.0), (0.5, 0.0), (0.75, 1.0)])
    def test_mean_matches_closed_form(self, nu, eta):
        # E[I_nu^(eta)] = int_0^nu e^(2(eta+1)s) ds
        want = nu if eta == -1.0 else math.expm1(2.0 * (eta + 1.0) * nu) / (2.0 * (eta + 1.0))
        got = hw_marginal_expectation(lambda u: u, nu, eta)
        assert abs(got / want - 1.0) <= 1e-8

    @pytest.mark.parametrize("nu,eta", [(0.5, 0.0), (2.5, 1.0), (20.0, 0.0)])
    def test_matches_density_route(self, nu, eta):
        # E[1 - e^(-1/(4I))] two ways: v = 1/(2I) is the density's variable
        via_hw = hw_marginal_expectation(lambda u: -np.expm1(-0.25 / u), nu, eta)
        via_p = density_expectation(lambda v: -np.expm1(-0.5 * v), nu, eta)
        assert abs(via_hw - via_p) <= 1e-10

    def test_criterion_seven_cell(self):
        from cbbre.longterm import explosion_prob
        from cbbre.mechanisms import derive_env

        env = derive_env(1.0, 0.25, -0.5, -1.0)
        got = explosion_prob(0.5, 5.0, env, "quadrature-hw").value
        assert abs(got - 0.76878476) <= 1e-8

    def test_lost_mass_raises(self):
        # at nu = 40, eta = -2 the lattice loses about 3.7e-2 of the mass
        with pytest.raises(QuadratureInstabilityError, match="nu = 40"):
            hw_marginal_expectation(np.ones_like, 40.0, -2.0)


class TestLemma1:
    def test_p_zero_trivial(self):
        rep = lemma1_moments(1.0, 0.0, 1.0, n_mc=2000, n_steps=100, seed=0)
        assert rep.lhs.value == 1.0 and rep.rhs.value == 1.0
        assert rep.identity_ok and rep.inequality_ok

    def test_identity_and_bound_nontrivial(self):
        rep = lemma1_moments(0.0, 0.5, 2.0, n_mc=20000, n_steps=800, seed=3)
        assert rep.identity_ok
        assert rep.inequality_ok

    def test_time_reversal_law(self):
        # int_0^t e^{2(eta s+B_s)} ds  =d  e^{2(eta t+B_t)} int e^{-2(eta s+B_s)} ds
        from cbbre import rng as _rng

        eta, t, n, steps = 0.7, 1.0, 20000, 500
        gen = _rng.stream(14, 0)
        dt = t / steps
        inc = gen.normal(0.0, math.sqrt(dt), size=(n, steps))
        B = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
        grid = np.linspace(0.0, t, steps + 1)
        lhs = np.exp(log_exp_functional(grid, eta * grid + B, 2.0))
        rhs = np.exp(2 * (eta * t + B[:, -1])) * np.exp(
            log_exp_functional(grid, -(eta * grid + B), 2.0))
        for f in (lambda x: x, lambda x: x**2):
            a, b = f(lhs), f(rhs)
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 3 * se
