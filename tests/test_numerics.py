import math
import re

import numpy as np
import pytest
from scipy import special

from cbbre import numerics
from cbbre.errors import ParameterError
from cbbre.numerics import (
    _gamma_lattice,
    _gamma_rule,
    gamma_power_expectation,
    gamma_power_laplace,
    gamma_power_series,
    has_fast_kernel,
    u_half,
    u_half_diff,
)


class TestConfluentKernel:
    # scipy's hyperu is only ~1e-9 accurate in places; it brackets the fast
    # kernel loosely, and mpmath pins a few points tightly
    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_matches_hyperu(self, a):
        w = np.geomspace(1e-6, 1e5, 60)
        ref = special.hyperu(a, 0.5, w)
        np.testing.assert_allclose(u_half(a, w), ref, rtol=1e-7)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.75, 1.0, 1.35, 2.2, 2.5, 3.0, 3.7, 4.0,
                                   4.5, 7.5, 20.0, 50.0, 100.0])
    def test_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        w = np.geomspace(1e-6, 1e6, 25)
        ref = np.array([float(mpmath.hyperu(a, 0.5, x)) for x in w])
        np.testing.assert_allclose(u_half(a, w), ref, rtol=1e-12)

    def test_value_at_small_w_limit(self):
        # U(a, 1/2, w) -> sqrt(pi)/Gamma(a + 1/2) + O(sqrt(w))
        for a in (0.5, 1.0, 2.5):
            lim = np.sqrt(np.pi) / special.gamma(a + 0.5)
            assert u_half(a, np.array([1e-14]))[0] == pytest.approx(lim, rel=1e-6)

    def test_fallback_for_generic_a(self):
        # beyond a = 4 the same kernel serves, its zones following a
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        w = np.array([0.7, 3.0])
        ref = np.array([float(mpmath.hyperu(4.5, 0.5, x)) for x in w])
        np.testing.assert_allclose(u_half(4.5, w), ref, rtol=1e-12)

    def test_fast_kernel_flag(self):
        assert has_fast_kernel(2.5)
        assert has_fast_kernel(0.8)
        assert has_fast_kernel(4.0)
        assert has_fast_kernel(4.5)
        assert has_fast_kernel(100.0)
        assert not has_fast_kernel(0.0)
        assert not has_fast_kernel(100.5)

    @pytest.mark.parametrize("func", [u_half, u_half_diff])
    @pytest.mark.parametrize("a", [0.0, -1.0, 100.5])
    def test_rejects_a_outside_its_range(self, func, a):
        with pytest.raises(ParameterError, match=re.escape(f"a = {a!r}")):
            func(a, np.array([0.5, 2.0]))


class TestKernelDifference:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_relative_accuracy_at_tiny_w(self, a):
        # direct subtraction loses everything below w ~ 1e-16; the series
        # form must keep full relative accuracy
        w = np.geomspace(1e-30, 0.4, 40)
        got = u_half_diff(a, w)
        # reference: leading terms of the connection formula
        ref = (np.sqrt(np.pi) * (a / 0.5) * w / special.gamma(a + 0.5)
               - 2 * np.sqrt(np.pi) * np.sqrt(w) / special.gamma(a))
        mask = w < 1e-6
        np.testing.assert_allclose(got[mask], ref[mask], rtol=1e-5)

    @pytest.mark.parametrize("a", [0.3, 2.2, 4.0, 20.0, 100.0])
    def test_matches_mpmath(self, a):
        # the Kummer connection formula at 50 digits, where the subtraction
        # U - U(0) is still exact enough
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        am = mpmath.mpf(a)
        u0 = mpmath.sqrt(mpmath.pi) / mpmath.gamma(am + 0.5)
        b = 2 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(am)
        w = np.geomspace(1e-30, 0.44, 40)
        ref = np.array([float(u0 * (mpmath.hyp1f1(am, 0.5, x) - 1)
                              - b * mpmath.sqrt(x) * mpmath.hyp1f1(am + 0.5, 1.5, x))
                        for x in w])
        np.testing.assert_allclose(u_half_diff(a, w), ref, rtol=1e-13)

    def test_series_agrees_with_subtraction_near_switch(self):
        # both evaluation routes at the same points, either side of 0.45
        u0 = lambda a: np.sqrt(np.pi) / special.gamma(a + 0.5)
        for a in (0.5, 1.5, 2.5):
            for w in (0.4, 0.44):
                series = u_half_diff(a, np.array([w]))[0]
                direct = u_half(a, np.array([w]))[0] - u0(a)
                assert series == pytest.approx(direct, rel=3e-13)


def _mp_u(a, w):
    """U(a, 1/2, w) and U(a, 1/2, w) - U(a, 1/2, 0) at 50 digits; below 0.45
    the difference is the Kummer connection formula, free of cancellation."""
    import mpmath

    with mpmath.workdps(50):
        am, x = mpmath.mpf(a), mpmath.mpf(w)
        u0 = mpmath.sqrt(mpmath.pi) / mpmath.gamma(am + 0.5)
        u = mpmath.hyperu(am, 0.5, x)
        if w < 0.45:
            diff = (u0 * (mpmath.hyp1f1(am, 0.5, x) - 1)
                    - 2 * mpmath.sqrt(mpmath.pi) / mpmath.gamma(am) * mpmath.sqrt(x)
                    * mpmath.hyp1f1(am + 0.5, 1.5, x))
        else:
            diff = u - u0
        return float(u), float(diff)


class TestKernelBandEdges:
    """The last point before and the first after every cut at which a series
    gains or drops a term, and both zone switches."""

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 4.0, 4.5, 7.5, 20.0, 50.0, 100.0])
    def test_matches_mpmath_either_side_of_every_cut(self, a):
        # the Kummer zone ends at min(0.45, 1.8/a)
        pytest.importorskip("mpmath")
        k = numerics._kernel(a)
        assert k.series_max == min(0.45, 1.8 / a)
        kummer = k.kummer_cuts[k.kummer_cuts < k.series_max]
        asym = -k.asym_cuts
        asym = asym[asym > numerics._wlim(a)]
        edges = np.unique(np.concatenate([kummer, asym, [k.series_max, numerics._wlim(a)]]))
        w = np.concatenate([np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        ref = np.array([_mp_u(a, x) for x in w])
        np.testing.assert_allclose(u_half(a, w), ref[:, 0], rtol=1e-12)
        np.testing.assert_allclose(u_half_diff(a, w), ref[:, 1], rtol=1e-13)

    def test_values_do_not_depend_on_layout(self):
        # each point sums its own terms: permuted or chunked input gives the
        # same values bit for bit
        rng = np.random.default_rng(18)
        w = np.concatenate([[0.0, 1e-320, np.inf], np.geomspace(1e-40, 1e20, 4000)])
        for a in (0.3, 2.5):
            whole = u_half_diff(a, w)
            perm = rng.permutation(w.size)
            assert np.array_equal(u_half_diff(a, w[perm]), whole[perm])
            chunks = [u_half_diff(a, part) for part in np.array_split(w, 7)]
            assert np.array_equal(np.concatenate(chunks), whole)
            assert np.array_equal(u_half_diff(a, w.reshape(4003, 1))[:, 0], whole)


class TestKernelArgument:
    @pytest.mark.parametrize("func, a", [(u_half, 2.5), (u_half_diff, 2.5), (u_half, 4.5),
                                         (u_half_diff, 4.5)])
    @pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf, -1e-320])
    def test_rejects_negative_and_nan(self, func, a, bad):
        w = np.array([0.5, 2.0, bad, -3.0, 7.0])
        with pytest.raises(ParameterError, match=re.escape(f"w = {bad!r}")):
            func(a, w)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 4.0, 4.5, 50.0])
    def test_values_at_zero_tiny_and_infinity(self, a):
        u0 = np.sqrt(np.pi) / math.gamma(a + 0.5)
        u1 = 2.0 * np.sqrt(np.pi) / math.gamma(a)
        w = np.array([0.0, 1e-320, np.inf])
        assert np.array_equal(u_half(a, w), [u0, u0, 0.0])
        assert np.array_equal(u_half_diff(a, w), [0.0, -u1 * np.sqrt(1e-320), -u0])
        assert u_half(a, np.empty(0)).size == 0
        assert u_half_diff(a, np.empty((0, 3))).shape == (0, 3)


class TestGammaPowerLaplace:
    def test_power_one_closed_form(self):
        # E[e^{-theta G}] = (1+theta)^(-shape)
        for theta, shape in [(0.5, 2.0), (1.0, 3.5), (3.0, 0.7)]:
            assert gamma_power_laplace(theta, shape, 1.0) == pytest.approx(
                (1.0 + theta) ** (-shape), rel=1e-12
            )

    def test_theta_zero(self):
        assert gamma_power_laplace(0.0, 2.0, 0.5) == 1.0

    def test_negative_power_vs_mc(self):
        # E[e^{-theta G^{-2}}], G ~ Exp(1)
        rng = np.random.default_rng(0)
        g = rng.exponential(size=400000)
        smp = np.exp(-0.7 * g**-2.0)
        se = smp.std(ddof=1) / np.sqrt(g.size)
        assert abs(gamma_power_laplace(0.7, 1.0, -2.0) - smp.mean()) < 3 * se

    def test_fractional_power_vs_quad(self):
        from scipy.integrate import quad

        shape, power, theta = 1.5, 2.0, 0.8
        ref, _ = quad(lambda x: np.exp(-theta * x**power) * x**(shape - 1)
                      * np.exp(-x) / special.gamma(shape), 0, np.inf)
        assert gamma_power_laplace(theta, shape, power) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("shape", [0.05, 0.3, 1.0, 4.0, 12.0])
    def test_power_minus_one_bessel_form(self, shape):
        # E[e^{-theta/G}] = 2 theta^{s/2} K_s(2 sqrt(theta)) / Gamma(s)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for theta in (1e-3, 1.0, 1e3):
                ref = (2 * mpmath.mpf(theta) ** (shape / 2)
                       * mpmath.besselk(shape, 2 * mpmath.sqrt(theta)) / mpmath.gamma(shape))
                assert abs(gamma_power_laplace(theta, shape, -1.0) - float(ref)) < 1e-14

    def test_rejects_nonpositive_shape(self):
        for shape in (0.0, -1.0):
            with pytest.raises(ValueError):
                gamma_power_expectation(np.exp, shape)

    def test_series_diagnostic_small_argument(self):
        # for power=1 the series is convergent and matches the closed form
        val, _ = gamma_power_series(0.1, 2.0, 1.0, n_terms=30)
        assert val == pytest.approx(1.1**-2.0, rel=1e-8)

    def test_series_at_a_pole_or_past_double_range_raises(self):
        # the term n = 2 needs Gamma(0); theta^19 = 1e380 overflows
        for theta, power in ((0.1, -0.5), (1e20, 1.0)):
            with pytest.raises(ParameterError, match="pole of Gamma or leaves double range"):
                gamma_power_series(theta, 1.0, power)


class TestGammaRule:
    @pytest.mark.parametrize("shape", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_matches_mpmath(self, shape):
        # E[exp(-theta G^p)], G ~ Gamma(shape); mpmath integrates in
        # u = x^shape, where the Gamma weight is smooth at the origin
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(25):
            s = mpmath.mpf(shape)
            breaks = [mpmath.mpf(10) ** -k for k in range(12, 0, -3)] + [0.3, 1, 3, 10, 30, 100]
            pts = [0] + [b**s for b in breaks] + [mpmath.inf]
            for p in (1.0, 2.0):
                x, w = _gamma_rule(shape, p)
                for theta in (0.01, 1.0, 30.0, 1000.0):
                    ref = mpmath.quad(lambda u: mpmath.exp(-theta * u ** (p / s) - u ** (1 / s)),
                                      pts) / mpmath.gamma(s + 1)
                    assert abs(np.sum(w * np.exp(-theta * x**p)) - float(ref)) < 1e-15

    @pytest.mark.parametrize("shape", [0.05, 1.0, 30.0, 100.0])
    def test_lattice_sum_matches_mpmath(self, shape):
        # the raw lattice sum, before the rule divides by it, is the integral
        # of e^(s tau - s expm1(tau)), Gamma(s) e^s s^-s: no weight is off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            s = mpmath.mpf(shape)
            ref = float(mpmath.gamma(s) * mpmath.exp(s) * s**-s)
        _, w = _gamma_lattice(shape)
        assert w.sum() == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("shape", [0.05, 0.1, 0.3, 1.0, 2.0, 30.0])
    def test_keeps_the_mass_near_zero(self, shape):
        x, w = _gamma_rule(shape)
        assert abs(w.sum() - 1.0) < 1e-15
        # E[e^{-G}] = 2^-shape, the laplace transform at theta = 1
        assert np.sum(w * np.exp(-x)) == pytest.approx(2.0**-shape, abs=1e-15)

    @pytest.mark.parametrize("shape", [0.05, 1.0])
    @pytest.mark.parametrize("p", [-10.0, -5.0, 5.0, 10.0])
    def test_high_powers_match_mpmath(self, shape, p):
        # the panels scale with |p|, so negative powers get them too; mpmath
        # integrates in u = x^shape, with breaks around the step of
        # exp(-theta x^p) at x = theta^(-1/p)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(18):
            s = mpmath.mpf(shape)
            for theta in (1e-3, 1.0, 1e3):
                step = theta ** (-1.0 / p)
                xs = sorted({1e-9, 1e-3, 0.3, 3.0, 30.0, step / 2, step, 2 * step})
                pts = [0] + [mpmath.mpf(b) ** s for b in xs] + [mpmath.inf]
                ref = mpmath.quad(lambda u: mpmath.exp(-theta * u ** (p / s) - u ** (1 / s)),
                                  pts) / mpmath.gamma(s + 1)
                assert abs(gamma_power_laplace(theta, shape, p) - float(ref)) < 1e-14


class TestPeakPlacement:
    @pytest.mark.parametrize("shape", [0.05, 1.0, 12.0])
    @pytest.mark.parametrize("theta", [1e3, 1e4, 1e5])
    def test_negative_power_large_theta_matches_mpmath(self, shape, theta):
        # E[exp(-theta G^p)], p = -10/9: the integrand peaks far beyond the
        # reach of the shape's own rule; mpmath integrates in t = log x,
        # centred on the peak of s t - e^t - theta e^(p t)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            s, p, th = mpmath.mpf(shape), mpmath.mpf(-10) / 9, mpmath.mpf(theta)
            phi = lambda t: s * t - mpmath.exp(t) - th * mpmath.exp(p * t)
            t0 = mpmath.findroot(lambda t: s - mpmath.exp(t) - p * th * mpmath.exp(p * t),
                                 mpmath.log((-p * th) ** (1 / (1 - p)) + s))
            sd = 1 / mpmath.sqrt(mpmath.exp(t0) + p * p * th * mpmath.exp(p * t0))
            top = phi(t0)
            body = mpmath.quad(lambda t: mpmath.exp(phi(t) - top),
                               [t0 + k * sd for k in range(-60, 61, 4)])
            ref = float(mpmath.exp(top - mpmath.loggamma(s)) * body)
        assert gamma_power_laplace(theta, shape, -10.0 / 9.0) == pytest.approx(ref, rel=1e-12)
