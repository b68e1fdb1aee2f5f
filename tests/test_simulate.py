import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cbbre import rng as _rng
from cbbre.environment import integral_exp_linear, sample_env_path
from cbbre.errors import ParameterError
from cbbre.flow import closed_form_feller, closed_form_neveu, suffix_integral_exp_linear
from cbbre.mechanisms import (
    Feller,
    GeneralCB,
    ImmigrationMechanism,
    Neveu,
    Stable,
    StableImmigration,
    TabulatedMeasure,
    _poisson_counts,
)
from cbbre.numerics import _row_blocks
from cbbre.simulate import (
    EULER,
    SimConfig,
    martingale_diagnostics,
    simulate_cbbre_batch,
    simulate_cbibre_batch,
)


#: both schemes: "auto" runs the exact sampler on the Feller cases below
SCHEMES_RUN = ("auto", EULER)


class TestBasics:
    def test_zero_start_is_absorbed(self):
        cfg = SimConfig(dt=0.01, seed=1)
        b = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 0.0, 1.0, cfg, 50,
                                 record_times=[0.5, 1.0])
        assert np.all(b.z == 0.0)
        assert np.all(b.t0 == 0.0)

    def test_reproducible(self):
        cfg = SimConfig(dt=0.01, seed=3)
        a = simulate_cbbre_batch(Stable(0.3, 0.5, 1.0), 1.0, 1.0, 1.0, cfg, 4000,
                                 record_times=[1.0])
        b = simulate_cbbre_batch(Stable(0.3, 0.5, 1.0), 1.0, 1.0, 1.0, cfg, 4000,
                                 record_times=[1.0])
        assert np.array_equal(a.z, b.z, equal_nan=True)

    def test_workers_do_not_change_results(self):
        cfg = SimConfig(dt=0.01, seed=3)
        a = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, cfg, 30000,
                                 record_times=[1.0], chunk=10000, workers=1)
        b = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, cfg, 30000,
                                 record_times=[1.0], chunk=10000, workers=4)
        assert a.scheme == b.scheme == "exact"
        assert np.array_equal(a.z, b.z)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParameterError):
            SimConfig(scheme="no-such-scheme")

    def test_record_times_within_slack_of_the_grid(self):
        cfg = SimConfig(dt=0.1, seed=2)
        b = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, cfg, 10,
                                 record_times=[1.0, 3 * 0.1])
        assert np.array_equal(b.times, [0.30000000000000004, 1.0])

    @pytest.mark.parametrize("times, match", [
        ([0.5, 0.50004, 1.0], "multiples of the step"),
        ([0.5, 0.5, 1.0], "distinct"),
        ([-0.3, 1.0], r"in \[0, 1\]"),
        ([0.5, 2.0], r"in \[0, 1\]"),
    ])
    def test_record_times_off_grid_rejected(self, times, match):
        cfg = SimConfig(dt=1e-3, seed=2)
        with pytest.raises(ParameterError, match=match):
            simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, cfg, 10,
                                 record_times=times)

    def test_nonnegative_everywhere(self):
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=0.005, seed=4, scheme=scheme)
            b = simulate_cbbre_batch(Feller(-1.0, 2.0), 1.0, 0.5, 1.0, cfg, 500)
            assert np.nanmin(b.z) >= 0.0

    def test_absorption_permanence(self):
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=0.005, seed=5, scheme=scheme)
            b = simulate_cbbre_batch(Feller(-1.5, 1.0), 1.0, 0.3, 2.0, cfg, 400)
            absorbed = np.isfinite(b.t0)
            assert absorbed.any()
            for i in np.nonzero(absorbed)[0][:50]:
                j = np.searchsorted(b.times, b.t0[i])
                assert np.all(b.z[i, j:] == 0.0)


class TestMeanGrowth:
    def test_stable_mean(self):
        # E[Z_T] = z0 e^{alpha T} (tower property over the environment)
        cfg = SimConfig(dt=2e-3, seed=42)
        b = simulate_cbbre_batch(Stable(0.3, 0.5, 1.0), 1.0, 1.0, 1.0, cfg, 20000,
                                 record_times=[1.0])
        zT = b.z[:, -1]
        fin = np.isfinite(zT)
        se = zT[fin].std(ddof=1) / math.sqrt(fin.sum())
        assert abs(zT[fin].mean() - math.exp(0.3)) <= 3 * se

    def test_feller_survival_matches_conditional_formula(self):
        # oracle: E[1 - exp(-z/(gamma2 A))] over independent environments
        from cbbre.environment import sample_env_paths

        grid, K = sample_env_paths(1.0, 0.2 - 0.5, 1.0, 500, 99, 20000)
        A = suffix_integral_exp_linear(grid, -K)[:, 0]
        ps = -np.expm1(-1.0 / A)
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=2e-3, seed=7, scheme=scheme)
            b = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, cfg, 20000,
                                     record_times=[1.0])
            freq = (b.z[:, -1] > 0).mean()
            se_f = math.sqrt(freq * (1 - freq) / b.n_paths)
            se = math.hypot(se_f, ps.std(ddof=1) / math.sqrt(ps.size))
            assert abs(freq - ps.mean()) <= 3 * se, scheme

    def test_weak_convergence_order(self):
        # coupled refinements: the same Brownian increments aggregated per
        # level, differenced against the finest level so demographic noise
        # cancels pathwise and the dt-bias is visible
        z0, T, n = 1.0, 1.0, 60000
        steps_fine = 400
        gen = _rng.stream(123, 0)
        dB = gen.normal(0.0, math.sqrt(T / steps_fine), (n, steps_fine))
        dBe = gen.normal(0.0, math.sqrt(T / steps_fine), (n, steps_fine))
        mech = Feller(0.2, 1.0)

        def survival(coarsen):
            steps = steps_fine // coarsen
            db = dB.reshape(n, steps, coarsen).sum(axis=2)
            dbe = dBe.reshape(n, steps, coarsen).sum(axis=2)
            cfg = SimConfig(dt=T / steps, seed=1)
            b = simulate_cbbre_batch(mech, 1.0, z0, T, cfg, n,
                                     record_times=[T], driving=(db, dbe))
            return (b.z[:, -1] > 0).mean()

        ref = survival(1)
        dts = np.array([16, 8, 4], float) * (T / steps_fine)
        errs = np.array([abs(survival(c) - ref) for c in (16, 8, 4)])
        slope = np.polyfit(np.log(dts), np.log(np.maximum(errs, 1e-12)), 1)[0]
        assert slope >= 0.5

    def test_conditional_branching_coupling(self):
        # z1- and z2-simulations sharing the environment, summed, vs one shot
        n, T = 20000, 1.0
        steps = 250
        gen = _rng.stream(77, 0)
        dBe = gen.normal(0.0, math.sqrt(T / steps), (n, steps))
        mech = Feller(0.2, 1.0)
        parts = []
        for z, stream in ((0.6, 1), (1.4, 2)):
            gen_b = _rng.stream(77, stream)
            dB = gen_b.normal(0.0, math.sqrt(T / steps), (n, steps))
            cfg = SimConfig(dt=T / steps, seed=1)
            b = simulate_cbbre_batch(mech, 1.0, z, T, cfg, n,
                                     record_times=[T], driving=(dB, dBe))
            parts.append(b.z[:, -1])
        summed = parts[0] + parts[1]
        gen_c = _rng.stream(77, 3)
        dB = gen_c.normal(0.0, math.sqrt(T / steps), (n, steps))
        cfg = SimConfig(dt=T / steps, seed=1)
        one = simulate_cbbre_batch(mech, 1.0, 2.0, T, cfg, n,
                                   record_times=[T], driving=(dB, dBe)).z[:, -1]
        stat = ks_2samp(summed, one).statistic
        assert stat < 0.03


class TestStableJumps:
    def test_zero_state_no_jumps(self):
        gen = _rng.stream(0, 0)
        inc = Stable(0.0, 0.5, 1.0).jump_law(0.1).increment(gen, np.zeros(100), 0.01)
        assert np.all(inc == 0.0)

    @pytest.mark.parametrize("law,z,index,coef,seed", [
        pytest.param(Stable(0.0, 0.5, 1.0).jump_law(1e-3), 2.0, 1.5, 1.0, 4,
                     id="compensated"),
        pytest.param(Stable(0.0, -0.5, -1.0).jump_law(1e-3), 1.5, 0.5, -1.0, 5,
                     id="uncompensated"),
        pytest.param(Stable(0.0, 0.3, 0.7).jump_law(1e-3), 2.0, 1.3, 0.7, 3,
                     id="compensated-0.3"),
        pytest.param(StableImmigration(0.5, 1.0).jump_law(1e-3), 1.0, 0.5, -1.0, 7,
                     id="immigration")])
    def test_increment_laplace_oracle(self, law, z, index, coef, seed):
        # one Euler step's jumps carried by the frozen mass z are exactly
        # stable, whatever eps: the jump part of psi is c u^(1+beta), that of
        # phi is kappa u^beta, so E[e^(-lam inc)] = exp(z dt coef lam^index)
        # with (index, coef) = (1 + beta, c) or (beta, -kappa)
        dt, n = 0.01, 400000
        inc = law.increment(_rng.stream(seed, 0), np.full(n, z), dt)
        for lam in (0.5, 2.0, 8.0):
            w = np.exp(-lam * inc)
            se = w.std(ddof=1) / math.sqrt(n)
            assert abs(w.mean() - math.exp(z * dt * coef * lam**index)) <= 4 * se, lam

    def test_eps_jump_plays_no_part(self):
        # branching and immigration jumps are exact stable increments
        mech = Stable(0.3, 0.5, 1.0)
        imm = ImmigrationMechanism(0.0, StableImmigration(0.5, 1.0))
        a, b = (simulate_cbibre_batch(mech, imm, 1.0, 1.0, 1.0,
                                      SimConfig(dt=0.01, eps_jump=eps, seed=9), 500,
                                      record_times=[0.5, 1.0])
                for eps in (1e-3, 0.05))
        assert a.scheme == b.scheme == EULER
        assert np.array_equal(a.z, b.z)

    def test_conservative_runs_never_explode(self):
        cfg = SimConfig(dt=5e-3, seed=6, m_expl=1e6)
        b = simulate_cbbre_batch(Stable(0.5, 0.5, 1.0), 1.0, 1.0, 1.0, cfg, 10000,
                                 record_times=[1.0])
        assert not np.isfinite(b.t_inf).any()

    def test_negative_beta_explodes_with_positive_probability(self):
        cfg = SimConfig(dt=2e-3, seed=8, m_expl=1e7)
        b = simulate_cbbre_batch(Stable(0.0, -0.5, -1.0), 1.0, 1.0, 1.0, cfg, 4000,
                                 record_times=[1.0])
        assert np.isfinite(b.t_inf).mean() > 0.05


class TestImmigration:
    def test_zero_not_absorbing(self):
        cfg = SimConfig(dt=2e-3, seed=12)
        imm = ImmigrationMechanism(0.0, StableImmigration(0.5, 1.0))
        b = simulate_cbibre_batch(Stable(0.0, 0.5, 1.0), imm, 1.0, 0.0, 1.0,
                                  cfg, 2000, record_times=[1.0])
        assert (b.z[:, -1] > 0).mean() >= 0.999
        assert not np.isfinite(b.t0).any()

    def test_trivial_immigration_reduces_to_cbbre(self):
        imm0 = ImmigrationMechanism(0.0, None)
        for scheme in SCHEMES_RUN:
            a = simulate_cbibre_batch(Feller(0.1, 1.0), imm0, 1.0, 1.0, 1.0,
                                      SimConfig(dt=5e-3, seed=13, scheme=scheme),
                                      20000, record_times=[1.0])
            b = simulate_cbbre_batch(Feller(0.1, 1.0), 1.0, 1.0, 1.0,
                                     SimConfig(dt=5e-3, seed=14, scheme=scheme), 20000,
                                     record_times=[1.0])
            stat = ks_2samp(a.z[:, -1], b.z[:, -1]).statistic
            assert stat < 0.03, scheme

    def test_subcritical_cbbre_extinction_unchanged_by_off_switch(self):
        cfg = SimConfig(dt=5e-3, seed=15)
        imm0 = ImmigrationMechanism(0.0, None)
        a = simulate_cbibre_batch(Feller(-1.0, 1.0), imm0, 1.0, 1.0, 4.0, cfg,
                                  5000, record_times=[4.0])
        b = simulate_cbbre_batch(Feller(-1.0, 1.0), 1.0, 1.0, 4.0, cfg, 5000,
                                 record_times=[4.0])
        assert np.array_equal(a.z, b.z)


def _tabulated(scale, tail_mass, tail_location):
    # density scale*e^-x on [0.01, 3], with 1 a grid point, plus a tail atom
    x = np.concatenate([np.linspace(0.01, 1.0, 100), np.linspace(1.0, 3.0, 101)[1:]])
    return TabulatedMeasure(x, scale * np.exp(-x), tail_mass, tail_location)


class _Midpoints:
    """A stand-in rng whose ``random(n)`` is the stratified sample (i + 1/2)/n."""

    def random(self, n):
        return (np.arange(n) + 0.5) / n


class TestTabulatedJumps:
    @pytest.mark.parametrize("eps", [1e-3, 0.05])
    def test_jumps_and_drift_describe_one_measure(self, eps):
        # the simulated jumps plus the law's drift grow the mass at the rate
        # that psi'(0+) (branching) and phi'(0) = int x nu(dx) (immigration)
        # state; 2e6 stratified draws resolve the mean size to ~1e-7
        n = 2_000_000
        mech = GeneralCB(0.0, 0.3, 0.5, _tabulated(0.5, 0.1, 4.0))
        nu = _tabulated(1.0, 0.2, 3.5)
        for measure, law, target, base in [
                (mech.mu, mech.jump_law(eps), -mech.psi_prime_at_zero(), mech.a),
                (nu, nu.jump_law(eps), nu.integrate(lambda x: x), 0.0)]:
            sizes = law.sample(_Midpoints(), n)
            growth = base + law.drift + law.rate * sizes.mean()
            assert growth == pytest.approx(target, rel=1e-6, abs=0.0)
            support = np.append(measure.x[measure.x >= eps], measure.tail_location)
            assert np.isin(sizes, support).all()

    def test_general_mechanism_mean_is_martingale(self):
        # E[Z_T e^{-K0_T}] = z0: the thinned jumps, the compensating drift of
        # [eps, 1) and the K0 drift -psi'(0+) must agree
        mech = GeneralCB(0.0, 0.3, 0.5, _tabulated(0.5, 0.1, 4.0))
        cfg = SimConfig(dt=2e-3, seed=21)
        b = simulate_cbbre_batch(mech, 1.0, 1.0, 1.0, cfg, 20000,
                                 record_times=[1.0])
        rep = martingale_diagnostics(b, 1.0)
        assert abs(rep.mean_ratio - 1.0) <= 3 * rep.stderr

    def test_tabulated_immigration_mean(self):
        # E[Z_T e^{-K0_T}] = z0 + m_imm E[int_0^T e^{-K0_s} ds], with
        # m_imm = d + int x nu(dx)
        nu = _tabulated(1.0, 0.2, 3.5)
        imm = ImmigrationMechanism(0.3, nu)
        m_imm = imm.d + nu.integrate(lambda x: x)
        cfg = SimConfig(dt=2e-3, seed=22)
        b = simulate_cbibre_batch(Feller(0.5, 1.0), imm, 1.0, 1.0, 1.0, cfg, 4000)
        assert b.env_flavor == "K0"
        A = suffix_integral_exp_linear(b.times, -b.env_values)[:, 0]
        resid = b.z[:, -1] * np.exp(-b.env_values[:, -1]) - 1.0 - m_imm * A
        se = resid.std(ddof=1) / math.sqrt(resid.size)
        assert abs(resid.mean()) <= 3 * se


    def test_tail_atom_alone_above_threshold(self):
        # no tabulated mass at or above eps: every jump is the tail atom
        nu = TabulatedMeasure(np.array([1e-4, 5e-4]), np.array([1.0, 1.0]), 0.5, 2.0)
        law = nu.jump_law(1e-3)
        assert law.rate == 0.5
        assert np.all(law.sample(_rng.stream(23, 0), 1000) == 2.0)


class TestNeveuSimulation:
    def test_poisson_presence_oracle(self):
        # with the Gaussian stand-in for the small jumps switched off, the
        # deterministic drift isolates the thinned jumps, whose presence
        # frequency must match 1 - exp(-Z dt int_eps^inf mu)
        eps, z, dt = 0.1, 2.0, 0.05
        law = replace(Neveu().jump_law(eps), small_var=0.0)
        small_drift = z * dt * law.drift
        n = 300000
        inc = law.increment(_rng.stream(2, 0), np.full(n, z), dt)
        freq = float((inc > small_drift + 1e-12).mean())
        target = -math.expm1(-z * dt / eps)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(freq - target) <= 3 * se

    def test_no_absorption_short_horizon(self):
        cfg = SimConfig(dt=1e-3, seed=16)
        b = simulate_cbbre_batch(Neveu(), 1.0, 1.0, 1.0, cfg, 2000,
                                 record_times=[1.0])
        assert not np.isfinite(b.t0).any()
        assert b.env_flavor == "K"


class TestMartingaleDiagnostics:
    def test_time_zero_equality(self):
        cfg = SimConfig(dt=0.01, seed=17)
        b = simulate_cbbre_batch(Feller(0.5, 1.0), 1.0, 2.0, 0.01, cfg, 500,
                                 record_times=[0.0])
        rep = martingale_diagnostics(b, 2.0)
        assert rep.mean_ratio == pytest.approx(1.0)

    def test_supermartingale_and_regression(self):
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=2e-3, seed=18, scheme=scheme)
            b = simulate_cbbre_batch(Feller(0.7, 1.0), 1.0, 1.0, 1.0, cfg, 30000,
                                     record_times=[1.0])
            rep = martingale_diagnostics(b, 1.0)
            assert rep.supermartingale_ok
            assert rep.regression_r2 > 0.99

    def test_subcritical_w_is_zero(self):
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=5e-3, seed=19, scheme=scheme)
            b = simulate_cbbre_batch(Feller(-1.0, 1.0), 1.0, 1.0, 30.0, cfg, 2000,
                                     record_times=[30.0])
            rep = martingale_diagnostics(b, 1.0)
            assert rep.p_w_zero >= 0.99

    def test_supercritical_w_zero_matches_exact_extinction(self):
        # P(W=0) = P(lim Z = 0), known in closed form for Feller; the
        # horizon and explosion cap are chosen so no path is capped
        from cbbre.longterm import extinction_prob_exact_stable
        from cbbre.mechanisms import derive_env

        env = derive_env(1.0, 1.5, 1.0, 1.0)  # m = 1
        target = extinction_prob_exact_stable(1.0, env)
        for scheme in SCHEMES_RUN:
            cfg = SimConfig(dt=5e-3, seed=20, m_expl=1e14, scheme=scheme)
            b = simulate_cbbre_batch(Feller(1.5, 1.0), 1.0, 1.0, 14.0, cfg, 20000,
                                     record_times=[14.0])
            rep = martingale_diagnostics(b, 1.0)
            assert rep.n_exploded == 0
            se = math.sqrt(target * (1 - target) / b.n_paths)
            assert abs(rep.p_w_zero - target) <= 3 * se, scheme


def _exact_on_path(mech, z0, env, cuts, n, seed, d=0.0):
    """(Z_T, T0) of n paths drawn by ``mech.exact_step`` on the one
    environment path ``env``, record interval by record interval between
    the grid indices ``cuts``."""
    rng = _rng.stream(seed, 0)
    dt = env.grid[1]
    z, t0 = np.full(n, float(z0)), np.full(n, np.nan)
    for a, b in zip(cuts[:-1], cuts[1:]):
        K = env.values[a:b + 1] - env.values[a]
        blocks = ((rows, np.broadcast_to(K, (rows.stop - rows.start, K.size)))
                  for rows in _row_blocks(n, K.size))
        z, _, hit = mech.exact_step(z, blocks, dt, rng, d)
        if hit is not None:
            t0[hit > 0] = env.grid[a + hit[hit > 0]]
    return z, t0


def _assert_laplace(x, target, lam):
    # E[exp(-lam X)] within 4 standard errors
    f = np.exp(-lam * x)
    se = f.std(ddof=1) / math.sqrt(f.size)
    assert abs(f.mean() - target) <= 4 * se, (lam, f.mean(), target, se)


N_LAW = 100_000
CUTS = [0, 100, 200, 300, 400]  # four record segments of 0.25 on a 400-step grid


class TestExactLaw:
    """The exact sampler on one fixed environment path against the closed forms."""

    def test_feller(self):
        mech, z0 = Feller(0.3, 1.0), 1.0
        env = sample_env_path(1.0, 0.3 - 0.5, 1.0, 400, 41, flavor="K0")
        z, _ = _exact_on_path(mech, z0, env, CUTS, N_LAW, 1)
        x = z * math.exp(-env.values[-1])
        for lam in (0.5, 2.0):
            target = math.exp(-z0 * closed_form_feller(lam, 1.0, env, 0.3, 1.0))
            _assert_laplace(x, target, lam)

    def test_feller_linear_immigration(self):
        mech, z0, d = Feller(-0.5, 1.0), 1.0, 2.0
        env = sample_env_path(1.0, -0.5 - 0.5, 1.0, 400, 42, flavor="K0")
        z, t0 = _exact_on_path(mech, z0, env, CUTS, N_LAW, 2, d)
        assert (z > 0).all() and np.isnan(t0).all()
        x = z * math.exp(-env.values[-1])
        A = integral_exp_linear(env.grid, -env.values)
        for lam in (0.5, 2.0):
            target = (math.exp(-z0 * closed_form_feller(lam, 1.0, env, -0.5, 1.0))
                      * (1.0 + lam * A) ** (-d))
            _assert_laplace(x, target, lam)

    def test_feller_absorption_time(self):
        # P(T0 <= t | K) = exp(-z / (gamma2 A_t)), inside segments as well
        # as at their ends
        mech, z0, g2 = Feller(-0.5, 2.0), 0.5, 2.0
        env = sample_env_path(1.0, -0.5 - 0.5, 1.0, 400, 43, flavor="K0")
        z, t0 = _exact_on_path(mech, z0, env, CUTS, N_LAW, 3)
        assert np.array_equal(np.isfinite(t0), z == 0.0)
        for j in (30, 100, 170, 260, 400):
            A = integral_exp_linear(env.grid[:j + 1], -env.values[:j + 1])
            p = math.exp(-z0 / (g2 * A))
            freq = float((t0 <= env.grid[j]).mean())
            assert abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / N_LAW), (j, freq, p)

    def test_neveu(self):
        z0 = 1.0
        env = sample_env_path(1.0, -0.5, 1.0, 400, 44, flavor="K")
        z, t0 = _exact_on_path(Neveu(), z0, env, CUTS, N_LAW, 4)
        assert np.isnan(t0).all() and np.isfinite(z).all()
        x = z * math.exp(-env.values[-1])
        for lam in (0.5, 2.0):
            _assert_laplace(x, math.exp(-z0 * closed_form_neveu(lam, 1.0, env)), lam)


def _ks_crit(n, m):
    # two-sample Kolmogorov-Smirnov critical value at level 1e-3
    return math.sqrt(-0.5 * math.log(0.5e-3)) * math.sqrt((n + m) / (n * m))


class TestSchemes:
    @pytest.mark.parametrize("imm", [None, ImmigrationMechanism(2.0)],
                             ids=["feller", "feller_d"])
    def test_euler_matches_exact(self, imm):
        # independent runs of both schemes: means within 4 combined SE, KS
        # below its 1e-3 critical value, at both record times
        n = 20000
        runs = [simulate_cbbre_batch(Feller(-0.5, 1.0), 1.0, 1.0, 1.0,
                                     SimConfig(dt=2e-3, seed=31 + i, scheme=scheme), n,
                                     record_times=[0.5, 1.0], imm=imm)
                for i, scheme in enumerate(("auto", EULER))]
        assert [r.scheme for r in runs] == ["exact", EULER]
        for j in range(2):
            a, b = runs[0].z[:, j], runs[1].z[:, j]
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 4 * se
            assert ks_2samp(a, b).statistic < _ks_crit(n, n)

    def test_neveu_euler_matches_exact(self):
        n = 2000
        runs = [simulate_cbbre_batch(Neveu(), 1.0, 1.0, 0.5,
                                     SimConfig(dt=1e-3, seed=33 + i, scheme=scheme), n,
                                     record_times=[0.5])
                for i, scheme in enumerate(("auto", EULER))]
        assert [r.scheme for r in runs] == ["exact", EULER]
        assert ks_2samp(runs[0].z[:, -1], runs[1].z[:, -1]).statistic < _ks_crit(n, n)

    def test_auto_picks_by_law(self):
        cfg = SimConfig(dt=0.01, seed=1)

        def run(mech, **kw):
            return simulate_cbbre_batch(mech, 1.0, 1.0, 0.1, cfg, 20, record_times=[0.1],
                                        **kw).scheme

        assert cfg.scheme == "auto"
        assert run(Feller(0.2, 1.0)) == run(Neveu()) == "exact"
        assert run(Feller(0.2, 1.0), imm=ImmigrationMechanism(0.5)) == "exact"
        assert run(Stable(0.2, 0.5, 1.0)) == EULER
        assert run(Feller(0.2, 1.0), imm=ImmigrationMechanism(0.0, StableImmigration(0.5, 1.0))) \
            == EULER
        noise = np.zeros((20, 10))
        assert run(Feller(0.2, 1.0), driving=(noise, noise)) == EULER

    @pytest.mark.parametrize("mech", [
        Feller(0.3, 1.0), Stable(0.4, 0.5, 1.0),
        GeneralCB(0.0, 0.3, 0.5, _tabulated(0.5, 0.1, 4.0))],
        ids=["feller", "stable", "general"])
    def test_finite_mean_records_k0_with_drift_minus_psi_prime(self, mech):
        # sigma = 0: K0_t = -psi'(0+) t on every path
        b = simulate_cbbre_batch(mech, 0.0, 1.0, 1.0, SimConfig(dt=0.01, seed=3), 20,
                                 record_times=[0.5, 1.0])
        assert b.env_flavor == "K0"
        np.testing.assert_allclose(b.env_values, np.tile(-mech.psi_prime_at_zero() * b.times,
                                                         (20, 1)), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mech", [Neveu(), Stable(0.4, -0.5, -1.0)],
                             ids=["neveu", "stable-negative"])
    def test_infinite_mean_records_k(self, mech):
        # sigma = 0: K has no drift, whatever the mechanism's
        b = simulate_cbbre_batch(mech, 0.0, 1.0, 1.0, SimConfig(dt=0.01, seed=3), 20,
                                 record_times=[0.5, 1.0])
        assert b.env_flavor == "K"
        assert (b.env_values == 0.0).all()

    def test_feller_without_noise_is_its_mean(self):
        # gamma2 = 0: the exact sampler's Z_t is z0 e^(K0_t) on every path
        b = simulate_cbbre_batch(Feller(0.3, 0.0), 1.0, 2.0, 1.0, SimConfig(dt=0.01, seed=4),
                                 200, record_times=[0.25, 0.5, 1.0])
        assert b.scheme == "exact"
        assert np.isnan(b.t0).all()
        np.testing.assert_allclose(b.z, 2.0 * np.exp(b.env_values), rtol=1e-12, atol=0.0)

    def test_stable_at_beta_one_runs_fellers_exact_step(self):
        # Stable(alpha, 1, c) is Feller(alpha, c): the same sampler, the same paths
        runs = [simulate_cbbre_batch(mech, 1.0, 1.0, 1.0, SimConfig(dt=0.01, seed=1), 2000)
                for mech in (Stable(0.3, 1.0, 1.0), Feller(0.3, 1.0))]
        assert [r.scheme for r in runs] == ["exact", "exact"]
        assert np.array_equal(runs[0].z, runs[1].z)
        assert np.array_equal(runs[0].t0, runs[1].t0, equal_nan=True)

    def test_environment_does_not_depend_on_the_demography(self):
        # the demographic variates have their own stream: one seed draws one
        # environment, with or without immigration and whatever the absorptions
        cfg = SimConfig(dt=0.01, seed=8)
        a, b = (simulate_cbbre_batch(Feller(-0.5, 2.0), 1.0, 0.5, 1.0, cfg, 300,
                                     record_times=[0.3, 1.0], imm=imm)
                for imm in (None, ImmigrationMechanism(1.5)))
        assert np.isfinite(a.t0).any() and not np.isfinite(b.t0).any()
        assert np.array_equal(a.env_values, b.env_values)

    def test_neveu_never_explodes(self):
        # the exact law has no thinning cap: no path is declared exploded,
        # and a state above m_expl is a value
        cfg = SimConfig(dt=1e-3, seed=1, m_expl=10.0)
        b = simulate_cbbre_batch(Neveu(), 1.0, 1.0, 1.0, cfg, 1000, record_times=[0.5, 1.0])
        assert np.isnan(b.t_inf).all() and np.isnan(b.t0).all()
        assert np.isfinite(b.z).all() and (b.z > 10.0).any()

    def test_feller_means_beyond_numpy_poisson(self):
        # supercritical paths reach Poisson means past numpy's limit (~9.2e18)
        # by T = 30; the counts above 1e15 come from the normal approximation
        for imm in (None, ImmigrationMechanism(0.5)):  # both Poisson draws
            b = simulate_cbbre_batch(Feller(2.0, 1.0), 0.1, 1.0, 30.0,
                                     SimConfig(dt=1e-2, seed=1), 200,
                                     record_times=list(range(1, 31)), imm=imm)
            assert b.scheme == "exact" and np.isfinite(b.z).all()
            assert b.z[:, -1].max() > 1e15

    def test_normal_counts_match_poisson_moments(self):
        mu, n = 1e16, 100_000
        dev = _poisson_counts(np.random.default_rng(3), np.full(n, mu)) - mu
        assert abs(dev.mean()) <= 4.0 * math.sqrt(mu / n)
        assert abs(dev.var(ddof=1) - mu) <= 4.0 * mu * math.sqrt(2.0 / (n - 1))

    def test_counts_below_the_limit_are_numpy_poisson(self):
        # no mean above the limit: the same draws as rng.poisson, none extra
        mean = np.array([0.0, 3.0, 1e9, 1e15])
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(_poisson_counts(a, mean), b.poisson(mean))
        assert a.random() == b.random()

    def test_exact_memory_is_bounded(self):
        # 20,000 x 1,000 path-steps: the noise matrix alone would be 160 MB
        tracemalloc.start()
        try:
            b = simulate_cbbre_batch(Feller(0.2, 1.0), 1.0, 1.0, 1.0, SimConfig(seed=5),
                                     20000, record_times=[1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b.scheme == "exact"
        assert peak < 16 * 2**20
