"""Acceptance suite.

Every numbered criterion below runs at its stated size and tolerance and
prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them
live).  Criterion 18 re-executes every other criterion with the same seed
and requires byte-identical JSON summaries.
"""
import json
import math

import numpy as np
import pytest

import cbbre.conditioned as cond
import cbbre.longterm as lt
from cbbre import rng as _rng
from cbbre.environment import (
    density_cdf,
    lemma1_moments,
    mc_half_inverse_samples,
    my_density_grid,
    sample_env_path,
    sample_env_paths,
)
from cbbre.flow import (
    cond_laplace,
    solve_backward_batch,
    suffix_integral_exp_linear,
    weighted_exp_decay_integral,
)
from cbbre.immigration import (
    ImmigrationMechanism,
    StableImmigration,
    cbibre_cond_laplace,
    stable_cbibre_laplace,
)
from cbbre.mechanisms import Feller, Neveu, Stable, derive_env
from cbbre.simulate import SimConfig, simulate_cbbre_batch, simulate_cbibre_batch

SEED = 20260808


def gauss_legendre_panels(edges, order: int = 16):
    """Composite Gauss-Legendre nodes and weights on consecutive panels: the
    tests' reference rule, independent of the package's lattices."""
    edges = np.asarray(edges, float)
    xg, wg = np.polynomial.legendre.leggauss(order)
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# Criterion implementations (pure functions of the seed)
# ---------------------------------------------------------------------------


def _closed_curve_feller(env, lam, alpha, gamma2):
    # v(s) on the whole grid
    D = env.values + alpha * env.grid
    A = suffix_integral_exp_linear(env.grid, -D)
    lam_inv = 0.0 if math.isinf(lam) else 1.0 / (lam * math.exp(alpha * env.T))
    return np.exp(-alpha * env.grid) / (lam_inv + gamma2 * A)


def _closed_curve_stable(env, lam, alpha, beta, c):
    D = env.values + alpha * env.grid
    A = suffix_integral_exp_linear(env.grid, -beta * D)
    lam_term = 0.0 if math.isinf(lam) else (lam * math.exp(alpha * env.T)) ** (-beta)
    return np.exp(-alpha * env.grid) * (lam_term + beta * c * A) ** (-1.0 / beta)


def _closed_curve_neveu(env, lam):
    J = weighted_exp_decay_integral(env.grid, env.values)
    return np.exp(np.exp(env.grid) * (J + math.exp(-env.T) * math.log(lam)))


def criterion_01(seed):
    """Closed form vs ODE for Neveu/Feller/stable on 100 paths."""
    n_paths, t, n_steps = 100, 1.0, 1000
    grid, K = sample_env_paths(1.0, -0.5, t, n_steps, seed, n_paths)
    worst = {}
    cases = [
        ("feller", Feller(0.5, 1.0),
         lambda e, lam: _closed_curve_feller(e, lam, 0.5, 1.0)),
        ("stable+0.5", Stable(0.5, 0.5, 1.0),
         lambda e, lam: _closed_curve_stable(e, lam, 0.5, 0.5, 1.0)),
        ("stable-0.5", Stable(0.5, -0.5, -1.0),
         lambda e, lam: _closed_curve_stable(e, lam, 0.5, -0.5, -1.0)),
        ("neveu", Neveu(), lambda e, lam: _closed_curve_neveu(e, lam)),
    ]
    from cbbre.environment import EnvPath

    for name, mech, curve in cases:
        gap = 0.0
        for lam in (0.1, 1.0, 10.0):
            sol, _ = solve_backward_batch(mech, lam, t, grid, K, "K", tol=1e-11)
            ref = np.vstack([
                curve(EnvPath(grid, K[i], "K", 1.0, -0.5), lam)
                for i in range(n_paths)
            ])
            gap = max(gap, float(np.max(np.abs(sol - ref))))
        worst[name] = gap
    ok = all(g <= 1e-6 for g in worst.values())
    return {"pass": ok, "worst_gaps": worst, "tol": 1e-6}


def criterion_02(seed):
    """Conditional branching property to 1e-12 pathwise on 100 paths."""
    mech = Stable(0.5, 0.5, 1.0)
    worst = 0.0
    for s in range(100):
        env = sample_env_path(1.0, -0.5, 1.0, 200, seed + s, flavor="K")
        lhs = cond_laplace(3.0, 1.0, 1.0, env, mech)
        rhs = cond_laplace(1.0, 1.0, 1.0, env, mech) * cond_laplace(2.0, 1.0, 1.0, env, mech)
        worst = max(worst, abs(lhs - rhs))
    return {"pass": worst <= 1e-12, "worst_gap": worst, "tol": 1e-12}


def criterion_03(seed):
    """Dufresne identity: moments of 1/(2 I_50^(-2)) vs Gamma(2)."""
    s = mc_half_inverse_samples(50.0, -2.0, 100_000, 5000, seed)
    checks = []
    for emp, target in ((s, 2.0), (s**2, 6.0)):
        se = float(emp.std(ddof=1) / math.sqrt(emp.size))
        checks.append({"value": float(emp.mean()), "target": target, "stderr": se,
                       "pass": abs(emp.mean() - target) <= 3 * se})
    return {"pass": all(c["pass"] for c in checks), "moments": checks}


def criterion_04(seed):
    """Negative-moment identity and product bound on the stated grid."""
    rows = []
    for i, (eta, p, t) in enumerate([(1.0, 1.0, 1.0), (0.0, 0.5, 2.0), (-1.0, 2.0, 0.5)]):
        n_steps = {1.0: 1000, 2.0: 1600, 0.5: 1000}[t]
        rep = lemma1_moments(eta, p, t, n_mc=100_000, n_steps=n_steps, seed=seed + i)
        rows.append({
            "eta": eta, "p": p, "t": t,
            "lhs": rep.lhs.value, "rhs": rep.rhs.value,
            "diff_stderr": rep.diff_stderr,
            "identity_pass": rep.identity_ok,
            "ineq_lhs": rep.inequality_lhs.value,
            "ineq_rhs": rep.inequality_rhs.value,
            "inequality_pass": rep.inequality_ok,
        })
    ok = all(r["identity_pass"] and r["inequality_pass"] for r in rows)
    return {"pass": ok, "grid": rows}


def criterion_05(seed):
    """Density of 1/(2 I_nu^(eta)): normalization and KS against MC."""
    out = []
    for i, (nu, eta) in enumerate([(1.0, 0.0), (2.0, 1.0)]):
        v, w = gauss_legendre_panels(np.geomspace(1e-10, 80.0, 260), 16)
        norm = float(np.sum(w * my_density_grid(v, nu, eta)))
        s = np.sort(mc_half_inverse_samples(nu, eta, 100_000, 2000, seed + i))
        pts = s[:: s.size // 400]
        ks = float(np.max(np.abs(density_cdf(pts, nu, eta)
                                 - np.searchsorted(s, pts, side="right") / s.size)))
        out.append({"nu": nu, "eta": eta, "norm": norm, "ks": ks,
                    "pass": abs(norm - 1.0) <= 1e-3 and ks < 0.02})
    return {"pass": all(o["pass"] for o in out), "cases": out}


def criterion_06(seed):
    """Survival dual-method agreement on a 3x3 (z, t) grid (Feller m=-0.5)."""
    env = derive_env(1.0, 0.0, 1.0, 1.0)
    rows = []
    for i, t in enumerate((1.5, 2.0, 3.0)):
        for j, z in enumerate((0.5, 1.0, 2.0)):
            mc = lt.survival_prob(z, t, env, "mc", n_paths=30000, seed=seed + 10 * i + j)
            quad = lt.survival_prob(z, t, env, "quadrature")
            gap = abs(mc.value - quad.value)
            tol = max(3 * mc.stderr, 1e-2)
            rows.append({"z": z, "t": t, "mc": mc.value, "quad": quad.value,
                         "gap": gap, "tol": tol, "pass": gap <= tol})
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_07(seed):
    """Explosion dual-method agreement (beta=-0.5, m=-0.25) and positivity.

    eta = -1 exactly here, the boundary of the density formula's validity:
    the quadrature side uses the Hartman-Watson marginal, valid at any
    drift.
    """
    env = derive_env(1.0, 0.25, -0.5, -1.0)
    rows = []
    for i, t in enumerate((5.0, 8.0, 12.0)):
        quad = lt.explosion_prob(1.0, t, env, "quadrature-hw")
        for j, z in enumerate((0.5, 1.0, 2.0)):
            mc = lt.explosion_prob(z, t, env, "mc", n_paths=30000, seed=seed + 10 * i + j)
            qz = lt.explosion_prob(z, t, env, "quadrature-hw")
            gap = abs(mc.value - qz.value)
            tol = max(3 * mc.stderr, 1e-2)
            rows.append({"z": z, "t": t, "mc": mc.value, "quad": qz.value,
                         "gap": gap, "tol": tol,
                         "pass": gap <= tol and mc.value > 0 and qz.value > 0})
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_08(seed):
    """Strongly subcritical scaled survival -> 1.0 (quadrature trend)."""
    env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2, gamma=1, k=0.5
    rows = lt.survival_scaled_trend(1.0, env, [10.0, 20.0, 30.0, 40.0])
    scaled = [r["scaled"] for r in rows]
    ok = (rows[-1]["rel_gap"] < 0.10 and all(np.diff(scaled) < 0)
          and abs(rows[0]["constant"] - 1.0) < 1e-10)
    return {"pass": ok, "trend": rows}


def criterion_09(seed):
    """Intermediately subcritical trend vs sqrt(2) z k Gamma(1/beta)/(sqrt(pi) beta sigma)."""
    env = derive_env(1.0, -0.5, 1.0, 1.0)  # m = -sigma^2
    target = math.sqrt(2.0) * 0.5 / math.sqrt(math.pi)
    rows = lt.survival_scaled_trend(1.0, env, [10.0, 20.0, 30.0, 40.0])
    scaled = [r["scaled"] for r in rows]
    ok = (rows[-1]["rel_gap"] < 0.10 and all(np.diff(scaled) < 0)
          and abs(rows[0]["constant"] - target) < 1e-12)
    return {"pass": ok, "trend": rows, "target": target}


def criterion_10(seed):
    """Supercritical limit / U_* / exact extinction identity on a grid."""
    rows = []
    for m in (0.5, 1.0, 2.0):
        env = derive_env(1.0, m + 0.5, 1.0, 1.0)
        for z in (0.5, 1.0, 2.0):
            surv = lt.asympt_survival_constant(z, env).constant
            ustar = cond.U_star(z, env)
            ext = lt.extinction_prob_exact_stable(z, env)
            closed = (1.0 + z * env.k) ** env.eta
            rows.append({
                "z": z, "m": m,
                "gap_identity": max(abs((1.0 - surv) - ustar), abs(ustar - ext)),
                "gap_closed_form": abs(ext - closed),
                "pass": max(abs((1.0 - surv) - ustar), abs(ustar - ext)) <= 1e-10
                and abs(ext - closed) <= 1e-12,
            })
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_11(seed):
    """Extinction bounds bracket the exact value, strictly for m > 0."""
    rows = []
    for m in (0.5, 1.0, 2.0):
        env = derive_env(1.0, m + 0.5, 1.0, 1.0)
        for z in (0.5, 1.0, 2.0):
            exact = lt.extinction_prob_exact_stable(z, env)
            b = lt.extinction_bounds(z, env, gamma2=1.0, kappa=0.0)
            rows.append({
                "z": z, "m": m, "lower": b.lower, "exact": exact, "upper": b.upper,
                "pass": b.lower < exact <= b.upper + 1e-12 and b.lower < b.upper + 1e-12,
            })
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_12(seed):
    """Q-process martingale: E[e^{theta t} U(Z_t)] = U(z0) within 3 SE."""
    rows = []
    for i, alpha in enumerate((0.0, -0.5, -1.5)):  # m = -0.5, -1, -2
        env = derive_env(1.0, alpha, 1.0, 1.0)
        cfg = SimConfig(dt=2e-3, seed=seed + i)
        batch = simulate_cbbre_batch(Feller(alpha, 1.0), 1.0, 1.0, 2.0, cfg,
                                     100_000, record_times=[0.5, 1.0, 2.0])
        for j, t in enumerate(batch.times):
            w = cond.qprocess_weights(batch.z[:, j], float(t), 1.0, env)
            se = float(w.std(ddof=1) / math.sqrt(w.size))
            dev = abs(float(w.mean()) - 1.0)
            rows.append({"m": env.m, "t": float(t), "mean": float(w.mean()),
                         "stderr": se, "pass": dev <= 3 * se})
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_13(seed):
    """U_* martingale for m = 1, same protocol."""
    env = derive_env(1.0, 1.5, 1.0, 1.0)
    cfg = SimConfig(dt=2e-3, seed=seed)
    batch = simulate_cbbre_batch(Feller(1.5, 1.0), 1.0, 1.0, 2.0, cfg,
                                 100_000, record_times=[0.5, 1.0, 2.0])
    fn = cond.U_star_vectorized(env)
    target = cond.U_star(1.0, env)
    rows = []
    for j, t in enumerate(batch.times):
        z = batch.z[:, j]
        vals = np.where(np.isfinite(z), fn(np.where(np.isfinite(z), z, 0.0)), 0.0)
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        rows.append({"t": float(t), "mean": float(vals.mean()), "target": target,
                     "stderr": se, "pass": abs(vals.mean() - target) <= 3 * se})
    return {"pass": all(r["pass"] for r in rows), "grid": rows}


def criterion_14(seed):
    """Conditioned survival: formula MC vs simulator conditional frequency."""
    env = derive_env(1.0, 1.0, 1.0, 1.0)  # Feller m = 0.5
    est = cond.conditioned_survival(1.0, 1.0, env, n_mc=100_000, seed=seed)
    t_long = 30.0
    cfg = SimConfig(dt=5e-3, seed=seed + 1)
    batch = simulate_cbbre_batch(Feller(1.0, 1.0), 1.0, 1.0, t_long, cfg,
                                 100_000, record_times=[1.0, t_long])
    extinct = batch.z[:, -1] == 0.0
    n_ext = int(extinct.sum())
    freq = float((batch.z[extinct, 0] > 0).mean())
    se_f = math.sqrt(freq * (1 - freq) / n_ext)
    gap = abs(est.value - freq)
    tol = 3 * math.hypot(est.stderr, se_f)
    return {"pass": gap <= tol, "formula_mc": est.value, "formula_se": est.stderr,
            "simulator_freq": freq, "simulator_se": se_f, "n_extinct": n_ext,
            "gap": gap, "tol": tol}


def criterion_15(seed):
    """Q-process dual construction: reweighted CBBRE vs direct CBIBRE (KS)."""
    env = derive_env(1.0, -1.5, 1.0, 1.0)  # m=-2, sigma=1, Feller
    q = cond.qprocess_as_cbibre(env)
    plain = simulate_cbbre_batch(Feller(-1.5, 1.0), 1.0, 1.0, 1.0,
                                 SimConfig(dt=2e-3, seed=seed), 10_000,
                                 record_times=[1.0])
    direct = simulate_cbibre_batch(q.mechanism, q.immigration, 1.0, 1.0, 1.0,
                                   SimConfig(dt=2e-3, seed=seed + 1), 10_000,
                                   record_times=[1.0])
    zs, zd = plain.z[:, -1], direct.z[:, -1]
    w = cond.qprocess_weights(zs, 1.0, 1.0, env)
    grid = np.sort(np.concatenate([zs, zd]))[::10]
    F_w = np.cumsum(w[np.argsort(zs)])
    F_w_at = np.interp(grid, np.sort(zs), F_w / w.sum())
    F_d = np.searchsorted(np.sort(zd), grid, side="right") / zd.size
    ks = float(np.max(np.abs(F_w_at - F_d)))
    return {"pass": ks < 0.03, "ks": ks, "tol": 0.03,
            "alpha_mapped": q.mechanism.alpha, "imm_drift": q.immigration.d}


def criterion_16(seed):
    """Stable CBIBRE: ODE pipeline vs closed form on 100 paths."""
    mech = Stable(0.8, 0.5, 1.0)
    imm = ImmigrationMechanism(0.0, StableImmigration(0.5, 0.5))
    worst = 0.0
    for s in range(100):
        env = sample_env_path(1.0, 0.3, 1.0, 1000, seed + s, flavor="K0")
        ode = cbibre_cond_laplace(1.0, 1.0, 1.0, env, mech, imm)
        cf = stable_cbibre_laplace(1.0, 1.0, 1.0, env, 0.5, 1.0, 0.5)
        worst = max(worst, abs(ode - cf))
    env = sample_env_path(1.0, 0.3, 1.0, 400, seed, flavor="K0")
    from cbbre.immigration import entrance_law

    entrance_exact = (entrance_law(1.0, 1.0, env, 0.5, 1.0, 0.5)
                      == stable_cbibre_laplace(0.0, 1.0, 1.0, env, 0.5, 1.0, 0.5))
    return {"pass": worst <= 1e-6 and entrance_exact, "worst_gap": worst,
            "tol": 1e-6, "entrance_exact": entrance_exact}


def criterion_17(seed):
    """Neveu: no absorption in 1e4 simulated paths; quadrature vs MC limit law."""
    cfg = SimConfig(dt=1e-3, seed=seed)
    batch = simulate_cbbre_batch(Neveu(), 1.0, 1.0, 1.0, cfg, 10_000,
                                 record_times=[1.0])
    n_absorbed = int(np.isfinite(batch.t0).sum())
    rep = lt.neveu_longterm(1.0, 1.0)
    gen = _rng.stream(seed, 12)
    g = gen.normal(-0.5, math.sqrt(0.5), size=1_000_000)
    smp = np.exp(-np.exp(g))
    se = float(smp.std(ddof=1) / math.sqrt(g.size))
    mc_ok = abs(rep.prob_limit_zero - smp.mean()) <= 3 * se
    return {"pass": n_absorbed == 0 and mc_ok, "n_absorbed": n_absorbed,
            "quadrature": rep.prob_limit_zero, "mc": float(smp.mean()),
            "stderr": se}


CRITERIA = {
    1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
    5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
    9: criterion_09, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14, 15: criterion_15, 16: criterion_16,
    17: criterion_17,
}

_FIRST_RUN: dict = {}


def _canonical(obj) -> str:
    # criteria return numpy scalars (np.bool_, np.float64); encode them as
    # the Python scalars they hold
    return json.dumps(obj, sort_keys=True, default=lambda o: o.item())


def _run_once(num: int) -> dict:
    if num not in _FIRST_RUN:
        _FIRST_RUN[num] = CRITERIA[num](SEED)
    return _FIRST_RUN[num]


@pytest.mark.parametrize("num", sorted(CRITERIA))
def test_criterion(num):
    summary = _run_once(num)
    status = "PASS" if summary["pass"] else "FAIL"
    print(f"[{status}] criterion {num:02d}: {CRITERIA[num].__doc__.splitlines()[0]}")
    assert summary["pass"], _canonical(summary)


def test_criterion_18_reproducibility():
    """Criterion 18: same seed => byte-identical JSON summaries."""
    mismatches = []
    for num in sorted(CRITERIA):
        first = _canonical(_run_once(num))
        second = _canonical(CRITERIA[num](SEED))
        if first.encode() != second.encode():
            mismatches.append(num)
    status = "PASS" if not mismatches else "FAIL"
    print(f"[{status}] criterion 18: byte-identical reruns "
          f"({len(CRITERIA)} summaries)")
    assert not mismatches, f"non-reproducible criteria: {mismatches}"
