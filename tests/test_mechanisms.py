import math

import numpy as np
import pytest

from cbbre.errors import ParameterError, UnsupportedMechanismError
from cbbre.mechanisms import (
    EPS_REGIME,
    ConditionedRegime,
    EnvParams,
    ExplosionRegime,
    Feller,
    GeneralCB,
    ImmigrationMechanism,
    Neveu,
    Stable,
    StableImmigration,
    SurvivalRegime,
    TabulatedMeasure,
    classify_regime,
    derive_env,
    eval_capital_phi,
    eval_psi,
    eval_psi0,
)


class TestEvalPsi:
    def test_stable_direct_substitution(self):
        assert eval_psi(Stable(1.0, 0.5, 2.0), 1.0) == pytest.approx(1.0)

    def test_neveu_at_one(self):
        assert eval_psi(Neveu(), 1.0) == 0.0

    def test_neveu_at_zero(self):
        assert eval_psi(Neveu(), 0.0) == 0.0

    def test_feller_largest_root_is_zero_of_psi(self):
        mech = Feller(0.7, 2.0)
        root = mech.largest_root()
        assert root == pytest.approx(0.35)
        assert eval_psi(mech, root) == pytest.approx(0.0, abs=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(ParameterError):
            eval_psi(Feller(0.0, 1.0), -0.5)

    def test_general_killing_rate(self):
        mech = GeneralCB(q=0.3, a=0.0, gamma2=0.0)
        assert eval_psi(mech, 0.0) == pytest.approx(-0.3)

    def test_general_matches_feller_without_jumps(self):
        g = GeneralCB(q=0.0, a=0.2, gamma2=1.5)
        f = Feller(0.2, 1.5)
        u = np.linspace(0.0, 5.0, 21)
        np.testing.assert_allclose(eval_psi(g, u), eval_psi(f, u), rtol=0, atol=1e-14)


_TABULATED = TabulatedMeasure(np.geomspace(0.01, 20.0, 200),
                              np.exp(-np.geomspace(0.01, 20.0, 200)), 0.2, 30.0)
_FLOAT_MECHS = [Neveu(), Feller(0.3, 1.2), Stable(0.4, 0.5, 1.0), Stable(0.4, -0.5, -1.0),
                GeneralCB(0.1, 0.4, 0.8), GeneralCB(0.0, 0.4, 0.8, _TABULATED)]


class TestFloatRoute:
    """A Python float skips numpy: the value is a float, within 2 ulp of
    the one-element array's (numpy's pow may round the other way)."""

    @pytest.mark.parametrize("mech,which", [
        (m, f) for m in _FLOAT_MECHS for f in (eval_psi, eval_psi0)
        if f is eval_psi or not m.infinite_mean])
    def test_float_matches_one_element_array(self, mech, which):
        for u in (0.0, 1e-300, 3e-9, 0.37, 1.0, 2.5, 1e6):
            got = which(mech, u)
            want = which(mech, np.array([u]))[0]
            assert type(got) is float
            assert abs(got - want) <= 2 * math.ulp(want), (u, got, want)

    @pytest.mark.parametrize("mech", _FLOAT_MECHS)
    def test_negative_float_rejected(self, mech):
        with pytest.raises(ParameterError, match="u >= 0"):
            eval_psi(mech, -1e-300)
        if not mech.infinite_mean:
            with pytest.raises(ParameterError, match="u >= 0"):
                eval_psi0(mech, -0.5)


class TestPsi0:
    def test_feller(self):
        assert eval_psi0(Feller(0.3, 1.0), 2.0) == pytest.approx(4.0)

    def test_stable(self):
        assert eval_psi0(Stable(0.7, 0.5, 1.0), 1.0) == pytest.approx(1.0)

    def test_zero_at_zero_when_no_killing(self):
        assert eval_psi0(Feller(1.0, 2.0), 0.0) == 0.0

    def test_infinite_mean_rejected(self):
        with pytest.raises(UnsupportedMechanismError):
            eval_psi0(Neveu(), 1.0)
        with pytest.raises(UnsupportedMechanismError):
            eval_psi0(Stable(0.0, -0.5, -1.0), 1.0)

    def test_general_shift_identity(self):
        # psi0(u) = psi(u) - psi'(0+) u for the tabulated mechanism
        x = np.geomspace(0.01, 20.0, 400)
        mu = TabulatedMeasure(x, np.exp(-x))
        mech = GeneralCB(0.0, 0.4, 0.8, mu)
        u = np.linspace(0.1, 4.0, 9)
        lhs = eval_psi0(mech, u)
        rhs = eval_psi(mech, u) - mech.psi_prime_at_zero() * u
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestCapitalPhi:
    def test_feller_linear(self):
        assert eval_capital_phi(Feller(0.0, 1.0), 3.0) == pytest.approx(3.0)

    def test_stable_power(self):
        assert eval_capital_phi(Stable(0.0, 0.5, 1.0), 4.0) == pytest.approx(2.0)

    def test_limit_zero_when_no_killing(self):
        assert eval_capital_phi(Stable(0.0, 0.5, 1.0), 0.0) == 0.0

    def test_nondecreasing_on_grid(self):
        x = np.geomspace(0.01, 30.0, 300)
        mu = TabulatedMeasure(x, 1.0 / (1.0 + x) ** 4)
        mech = GeneralCB(0.0, 0.0, 0.3, mu)
        u = np.linspace(0.05, 10.0, 60)
        phi = eval_capital_phi(mech, u)
        assert np.all(np.diff(phi) >= -1e-13)

    def test_killing_rejects_zero(self):
        with pytest.raises(ParameterError):
            eval_capital_phi(GeneralCB(0.5, 0.0, 1.0), 0.0)


class TestStableFellerEmbedding:
    def test_psi_agrees_on_grid(self):
        u = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(
            eval_psi(Stable(0.4, 1.0, 2.0), u), eval_psi(Feller(0.4, 2.0), u),
            rtol=0, atol=1e-14,
        )

    def test_infinite_mean_flags(self):
        assert Neveu().infinite_mean
        assert Stable(0.0, -0.5, -1.0).infinite_mean
        assert not Stable(0.0, 0.5, 1.0).infinite_mean
        assert not Feller(0.0, 1.0).infinite_mean


class TestMechanismAnswers:
    def test_conservative_flags(self):
        assert Neveu().conservative and Feller(0.3, 1.0).conservative
        assert Stable(0.0, 0.5, 1.0).conservative
        assert not Stable(0.0, -0.5, -1.0).conservative
        assert GeneralCB(0.0, 0.2, 1.0).conservative
        assert not GeneralCB(0.1, 0.2, 1.0).conservative

    def test_stable_params(self):
        assert Feller(0.3, 2.0).stable_params() == (0.3, 1.0, 2.0)
        assert Stable(0.3, -0.5, -2.0).stable_params() == (0.3, -0.5, -2.0)
        for mech in (Neveu(), GeneralCB(0.0, 0.2, 1.0)):
            with pytest.raises(UnsupportedMechanismError):
                mech.stable_params()

    def test_sde_coefficients(self):
        assert Feller(0.3, 2.0).sde_coefficients() == (0.3, 2.0, "K0", 0.3)
        assert Stable(0.3, 1.0, 2.0).sde_coefficients() == (0.3, 2.0, "K0", 0.3)
        assert Stable(0.3, -0.5, -2.0).sde_coefficients() == (0.3, 0.0, "K", None)
        assert Neveu().sde_coefficients()[2:] == ("K", None)

    def test_general_mean_growth_counts_large_jumps(self):
        x = np.linspace(0.5, 2.0, 301)
        mech = GeneralCB(0.0, 0.2, 1.0, TabulatedMeasure(x, np.ones_like(x)))
        growth = mech.sde_coefficients()[3]
        # a + int_1^2 x dx, and h/2 = 0.0025 more: the grid point x = 1 is an
        # atom with its full node weight h, half of it from the cell below 1
        assert growth == pytest.approx(0.2 + 1.5, abs=0.005)
        assert growth == -mech.psi_prime_at_zero()

    def test_jump_laws(self):
        assert Feller(0.3, 1.0).jump_law(1e-3) is None
        assert Stable(0.3, 1.0, 1.0).jump_law(1e-3) is None
        assert GeneralCB(0.0, 0.2, 1.0).jump_law(1e-3) is None
        law = Neveu().jump_law(0.01)
        assert law.rate == pytest.approx(100.0) and law.small_var == 0.01
        assert law.drift == pytest.approx(-np.log(100.0))


class TestMechanismValidation:
    def test_stable_sign_mismatch(self):
        with pytest.raises(ParameterError):
            Stable(0.0, 0.5, -1.0)
        with pytest.raises(ParameterError):
            Stable(0.0, -0.5, 1.0)

    def test_stable_beta_range(self):
        with pytest.raises(ParameterError):
            Stable(0.0, 1.5, 1.0)

    def test_tabulated_grid_checks(self):
        with pytest.raises(ParameterError):
            TabulatedMeasure(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ParameterError):
            TabulatedMeasure(np.array([0.5, 1.0]), np.array([1.0, -1.0]))

    def test_immigration_phi_stable(self):
        imm = ImmigrationMechanism(0.5, StableImmigration(0.5, 2.0))
        assert imm.eval_phi(4.0) == pytest.approx(0.5 * 4.0 + 2.0 * 2.0)


class TestDeriveEnv:
    @pytest.mark.parametrize(
        "sigma,alpha,beta,c,m,eta,k",
        [
            (1.0, 1.0, 0.5, 0.25, 0.5, -2.0, 1.0),
            (1.0, 0.5, 1.0, 1.0, 0.0, 0.0, 0.5),
            (1.0, -1.0, 1.0, 1.0, -1.5, 3.0, 0.5),
        ],
    )
    def test_direct_substitution(self, sigma, alpha, beta, c, m, eta, k):
        env = derive_env(sigma, alpha, beta, c)
        assert env.m == pytest.approx(m)
        assert env.eta == pytest.approx(eta)
        assert env.k == pytest.approx(k)

    def test_k_positive_for_negative_beta(self):
        env = derive_env(1.0, 0.0, -0.5, -2.0)
        assert env.k > 0

    def test_invalid_sigma(self):
        with pytest.raises(ParameterError):
            derive_env(0.0, 1.0, 0.5, 1.0)

    def test_from_mechanism(self):
        env = EnvParams.from_mechanism(Feller(0.3, 2.0), 1.5)
        assert (env.alpha, env.beta, env.c) == (0.3, 1.0, 2.0)
        assert env.m == pytest.approx(0.3 - 1.125)


class TestClassifyRegime:
    def test_strongly_subcritical(self):
        reg = classify_regime(derive_env(1.0, -1.0, 1.0, 1.0))  # m = -1.5
        assert reg.survival is SurvivalRegime.STRONGLY_SUBCRITICAL

    def test_critical(self):
        reg = classify_regime(derive_env(1.0, 0.5, 1.0, 1.0))  # m = 0
        assert reg.survival is SurvivalRegime.CRITICAL

    def test_intermediately_supercritical_boundary(self):
        # m = beta*sigma^2 exactly
        reg = classify_regime(derive_env(1.0, 1.0, 0.5, 0.25))  # m = 0.5 = 0.5*1
        assert reg.conditioned is ConditionedRegime.INTERMEDIATELY_SUPERCRITICAL

    def test_explosion_tags(self):
        assert classify_regime(derive_env(1.0, 0.25, -0.5, -1.0)).explosion \
            is ExplosionRegime.SUBCRITICAL_EXPLOSION
        assert classify_regime(derive_env(1.0, 0.5, -0.5, -1.0)).explosion \
            is ExplosionRegime.CRITICAL_EXPLOSION
        assert classify_regime(derive_env(1.0, 1.0, -0.5, -1.0)).explosion \
            is ExplosionRegime.SUPERCRITICAL_EXPLOSION

    def test_boundaries_hit_exactly(self):
        # knife-edge values map to boundary tags with no tolerance window
        assert classify_regime(derive_env(2.0, 2.0, 1.0, 1.0)).survival \
            is SurvivalRegime.CRITICAL  # m = 2 - 2 = 0
        assert classify_regime(derive_env(1.0, -0.5, 1.0, 1.0)).survival \
            is SurvivalRegime.INTERMEDIATELY_SUBCRITICAL  # m = -1 = -sigma^2

    def test_scaling_invariance_through_m_and_beta_sigma2(self):
        # two parameterizations with identical (m, sigma^2, beta) share tags
        a = classify_regime(derive_env(1.0, 0.25, 0.5, 0.125))
        b = classify_regime(EnvParams(1.0, 0.25, 0.5, 0.125))
        assert a == b
        # changing alpha and sigma jointly so m and beta*sigma^2 move -> tags move
        c = classify_regime(derive_env(1.0, 0.75, 0.5, 0.125))
        assert c.conditioned is not a.conditioned

    def test_epsilon_window(self):
        env = derive_env(1.0, 0.5 + 0.5 * EPS_REGIME, 1.0, 1.0)
        assert classify_regime(env).survival is SurvivalRegime.CRITICAL
