"""The benchmark's workloads: inputs made from a seed, timed operations and
the checks on their outputs.

Each workload is a list of operations run one after another (a closed
loop with one client).  ``run`` is what is timed; ``check`` runs after it,
untimed, and returns the list of checks that did not hold.  Checks compare
against computations made here with numpy alone, against
``reference.json`` (mpmath, see ``reference.py``), or against properties
the method must have; never against recorded program output.  Monte Carlo
checks allow five standard errors, so a correct change to the random
draws passes them.

All calls into the package go through module attributes
(``simulate.simulate_cbbre_batch``, not a name imported from it), so the
tracer's wrappers see them.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cbbre import (cli, conditioned, config, environment, flow, immigration,
                   longterm, mechanisms, numerics, simulate)

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

# statistical checks: |estimate - target| <= N_SE standard errors
N_SE = 5.0

# Operations that fail every time because of a fault in the program.  They
# stay in their workload and count as failed, not as incorrect.
KNOWN_FAULTS = {
    "simulate/neveu": "simulate._thinned_jumps declares every path whose "
                      "expected jump count per step exceeds _LAM_MAX = 1e5 "
                      "exploded, so a conservative Neveu batch reports "
                      "explosions",
}


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], dict]
    ops: tuple


def _sub_seed(seed: int, i: int) -> int:
    """Seed of the i-th random input of a run; distinct runs never share one."""
    return seed * 64 + i


def _oracle_rng(seed: int, stream: int) -> np.random.Generator:
    # numpy's own generator, apart from the package's Philox streams
    return np.random.default_rng([seed, stream])


def _within(value, target, se, what):
    gap = abs(value - target)
    if not gap <= N_SE * se:
        return [f"{what}: {value!r} vs {target!r}, gap {gap:.3g} > {N_SE} x se {se:.3g}"]
    return []


def _rel(value, target, tol, what):
    err = abs(value / target - 1.0)
    if not err <= tol:
        return [f"{what}: {value!r} vs {target!r}, relative error {err:.3g} > {tol:g}"]
    return []


def _run_cli(doc: dict) -> tuple[int, Path]:
    cfg = config.load_config(doc)
    return cli.run(cfg), Path(cfg.out)


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())["summary"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _by_method(path: Path) -> dict:
    return {r["method"]: (float(r["estimate"]), float(r["stderr"]))
            for r in _csv_rows(path)}


# ---------------------------------------------------------------------------
# Environment paths and exact path integrals (numpy only)
# ---------------------------------------------------------------------------


def env_paths(rng, sigma, drift, T, n_steps, n_paths):
    """Brownian environment sigma*B_t + drift*t on a uniform grid."""
    dt = T / n_steps
    K = np.zeros((n_paths, n_steps + 1))
    K[:, 1:] = np.cumsum(rng.normal(drift * dt, sigma * math.sqrt(dt),
                                    (n_paths, n_steps)), axis=1)
    return np.linspace(0.0, T, n_steps + 1), K


def suffix_exp_integral(grid, W):
    """int_s^T exp(W(u)) du at every grid point s, W linear between points."""
    dw = np.diff(W, axis=-1)
    tiny = np.abs(dw) < 1e-8
    ratio = np.where(tiny, 1.0 + 0.5 * dw, np.expm1(dw) / np.where(tiny, 1.0, dw))
    seg = np.diff(grid) * np.exp(W[..., :-1]) * ratio
    out = np.zeros_like(W)
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def suffix_exp_decay_integral(grid, W):
    """int_s^T e^(-u) W(u) du at every grid point s, W linear between points."""
    b = np.diff(W, axis=-1) / np.diff(grid)
    a = W[..., :-1] - b * grid[:-1]
    seg = (-(a + b + b * grid[1:]) * np.exp(-grid[1:])
           + (a + b + b * grid[:-1]) * np.exp(-grid[:-1]))
    out = np.zeros_like(W)
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


def feller_curve(grid, K, lam, alpha, gamma2):
    """v(s) of psi(u) = -alpha u + gamma2 u^2 on K-flavoured paths."""
    A = suffix_exp_integral(grid, -(K + alpha * grid))
    return np.exp(-alpha * grid) / (1.0 / (lam * math.exp(alpha * grid[-1])) + gamma2 * A)


def stable_curve(grid, K, lam, alpha, beta, c):
    """v(s) of psi(u) = -alpha u + c u^(1+beta) on K-flavoured paths."""
    A = suffix_exp_integral(grid, -beta * (K + alpha * grid))
    lam_term = (lam * math.exp(alpha * grid[-1])) ** (-beta)
    return np.exp(-alpha * grid) * (lam_term + beta * c * A) ** (-1.0 / beta)


def neveu_curve(grid, K, lam):
    """v(s) of psi(u) = u log u on K-flavoured paths."""
    J = suffix_exp_decay_integral(grid, K)
    return np.exp(np.exp(grid) * (J + math.exp(-grid[-1]) * math.log(lam)))


# ---------------------------------------------------------------------------
# simulate: pathwise Monte Carlo
# ---------------------------------------------------------------------------

SIM_T = 1.0
QPROCESS_PATHS = 10_000
USTAR_PATHS = 5_000
STABLE_PATHS = 2_000
STABLE_ORACLE_PATHS = 20_000
CBIBRE_PATHS = 5_000
W2_PATHS, W2_CHUNK = 20_000, 10_000  # 2 chunks; at 5 000 the GIL eats the gain
# The Neveu operation is the known fault: fixed inputs, so it fails the
# same way on every run whatever the seed.
NEVEU_PATHS, NEVEU_SEED = 200, 1


def _sim_inputs(seed, out):
    feller = {"kind": "feller", "gamma2": 1.0}
    numerics_block = {"dt": 1e-3}
    return {
        "seed": seed,
        "qprocess_doc": {
            "mechanism": feller | {"alpha": -0.5},  # m = -1
            "environment": {"sigma": 1.0}, "numerics": numerics_block,
            "experiment": {"kind": "qprocess", "z0": 1.0, "t_grid": [0.5, 1.0],
                           "n_paths": QPROCESS_PATHS},
            "seed": _sub_seed(seed, 0), "out": str(out / "qprocess")},
        "stable_doc": {
            "mechanism": {"kind": "stable", "alpha": 0.5, "beta": 0.5, "c": 1.0},
            "environment": {"sigma": 1.0}, "numerics": numerics_block,
            "experiment": {"kind": "simulate", "z0": 1.0, "T": SIM_T,
                           "n_paths": STABLE_PATHS},
            "seed": _sub_seed(seed, 1), "out": str(out / "stable")},
        "neveu_doc": {
            "mechanism": {"kind": "neveu"},
            "environment": {"sigma": 1.0}, "numerics": numerics_block,
            "experiment": {"kind": "simulate", "z0": 1.0, "T": SIM_T,
                           "n_paths": NEVEU_PATHS},
            "seed": NEVEU_SEED, "out": str(out / "neveu")},
        "ustar_cfg": simulate.SimConfig(dt=1e-3, seed=_sub_seed(seed, 2)),
        "cbibre_cfg": simulate.SimConfig(dt=1e-3, seed=_sub_seed(seed, 3)),
        "w2_cfg": simulate.SimConfig(dt=1e-3, seed=_sub_seed(seed, 4)),
        "oracle": {},
    }


def _qprocess_check(res, inp):
    rc, out = res
    fails = [] if rc in (0, 1) else [f"cli.run returned {rc}"]
    for row in _summary(out)["martingale_check"]:
        fails += _within(row["mean_weight"], 1.0, row["stderr"],
                         f"Q-process weight mean at t={row['t']}")
    return fails


def _ustar_run(inp):
    env = mechanisms.derive_env(1.0, 1.5, 1.0, 1.0)  # m = 1
    batch = simulate.simulate_cbbre_batch(mechanisms.Feller(1.5, 1.0), 1.0, 1.0, SIM_T,
                                          inp["ustar_cfg"], USTAR_PATHS,
                                          record_times=[0.5, 1.0])
    fn = conditioned.U_star_vectorized(env)
    rows = []
    for j, t in enumerate(batch.times):
        z = batch.z[:, j]
        vals = np.where(np.isfinite(z), fn(np.where(np.isfinite(z), z, 0.0)), 0.0)
        rows.append((float(t), float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))))
    return conditioned.U_star(1.0, env), rows


def _ustar_check(res, inp):
    u0, rows = res
    exact = (1.0 + 1.0 * 0.5) ** -2.0  # (1 + z k)^eta, k = 1/2, eta = -2
    fails = _rel(u0, exact, 1e-10, "U_*(z0)")
    for t, mean, se in rows:
        fails += _within(mean, exact, se, f"U_* martingale at t={t}")
    return fails


def _stable_oracle(inp):
    """Environment average of P(Z_T > 0 | K0) = 1 - exp(-z (beta c A_T)^(-1/beta))."""
    if "stable" not in inp["oracle"]:
        beta, c, z0, m = 0.5, 1.0, 1.0, 0.0  # m = alpha - sigma^2/2
        rng = _oracle_rng(inp["seed"], 1)
        p = []
        for _ in range(STABLE_ORACLE_PATHS // 2000):
            grid, K0 = env_paths(rng, 1.0, m, SIM_T, 1000, 2000)
            A = suffix_exp_integral(grid, -beta * K0)[:, 0]
            p.append(-np.expm1(-z0 * (beta * c * A) ** (-1.0 / beta)))
        p = np.concatenate(p)
        inp["oracle"]["stable"] = (float(p.mean()), float(p.var(ddof=1)))
    return inp["oracle"]["stable"]


def _stable_check(res, inp):
    rc, out = res
    s = _summary(out)
    target, var_p = _stable_oracle(inp)
    f = s["survival_freq"]
    se = math.sqrt(f * (1.0 - f) / STABLE_PATHS + var_p / STABLE_ORACLE_PATHS)
    fails = [] if rc == 0 else [f"cli.run returned {rc}"]
    fails += _within(f, target, se, "stable beta=0.5 survival frequency")
    if s["explosion_freq"] != 0.0:
        fails.append(f"stable beta=0.5 is conservative, explosion_freq = {s['explosion_freq']}")
    return fails


def _cbibre_run(inp):
    q = conditioned.qprocess_as_cbibre(mechanisms.derive_env(1.0, -1.5, 1.0, 1.0))
    batch = simulate.simulate_cbibre_batch(q.mechanism, q.immigration, 1.0, 1.0, SIM_T,
                                           inp["cbibre_cfg"], CBIBRE_PATHS,
                                           record_times=[0.5, 1.0])
    return q, batch


def _cbibre_check(res, inp):
    q, batch = res
    # the Q-process of Feller(alpha=-1.5, c=1), sigma=1: alpha + sigma^2, d = 2c
    alpha, d, z0 = -0.5, 2.0, 1.0
    fails = []
    if (q.mechanism.alpha, q.immigration.d) != (alpha, d):
        fails.append(f"Q-process generator {q.mechanism}, {q.immigration}")
    for j, t in enumerate(batch.times):
        z = batch.z[:, j]
        exact = z0 * math.exp(alpha * t) + d * math.expm1(alpha * t) / alpha
        fails += _within(float(z.mean()), exact, float(z.std(ddof=1) / math.sqrt(z.size)),
                         f"CBIBRE mean at t={t}")
    return fails


def _w2_run(inp):
    return simulate.simulate_cbbre_batch(mechanisms.Feller(0.5, 1.0), 1.0, 1.0, SIM_T,
                                         inp["w2_cfg"], W2_PATHS, record_times=[SIM_T],
                                         chunk=W2_CHUNK, workers=2)


def _w2_check(batch, inp):
    z, k = batch.z[:, -1], batch.env_values[:, -1]
    if not np.all(np.isfinite(z)):
        return [f"Feller paths exploded: {int((~np.isfinite(z)).sum())}"]
    w = z * np.exp(-k)
    return _within(float(w.mean()), 1.0, float(w.std(ddof=1) / math.sqrt(w.size)),
                   "Feller mean E[Z_T exp(-K0_T)] = z0")


def _neveu_check(res, inp):
    rc, out = res
    s = _summary(out)
    fails = [] if rc == 0 else [f"cli.run returned {rc}"]
    if s["absorbed_freq"] != 0.0 or s["explosion_freq"] != 0.0:
        fails.append(f"Neveu absorbed_freq {s['absorbed_freq']}, "
                     f"explosion_freq {s['explosion_freq']}; both must be 0")
    return fails


SIMULATE = Workload("simulate", _sim_inputs, (
    Op("qprocess", lambda inp: _run_cli(inp["qprocess_doc"]), _qprocess_check),
    Op("ustar", _ustar_run, _ustar_check),
    Op("stable", lambda inp: _run_cli(inp["stable_doc"]), _stable_check),
    Op("cbibre", _cbibre_run, _cbibre_check),
    Op("feller_w2", _w2_run, _w2_check),
    Op("neveu", lambda inp: _run_cli(inp["neveu_doc"]), _neveu_check),
))


# ---------------------------------------------------------------------------
# probabilities: unconditional probabilities and regime constants
# ---------------------------------------------------------------------------

PROB_MC_PATHS = 10_000  # every Monte Carlo twin of a quadrature


def _gl_log_rule(lo, hi, n_panels, order=16):
    """Gauss-Legendre panels in log v; returns nodes and weights for dv."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.log(lo), math.log(hi), n_panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u = (mid[:, None] + half[:, None] * x).ravel()
    return np.exp(u), (half[:, None] * w).ravel() * np.exp(u)


def _prob_inputs(seed, out):
    def doc(mech, exp, name, i):
        return {"mechanism": mech, "environment": {"sigma": 1.0}, "experiment": exp,
                "seed": _sub_seed(seed, i), "out": str(out / name)}

    feller = {"kind": "feller", "gamma2": 1.0}
    v, w = _gl_log_rule(1e-12, 200.0, 300)
    return {
        "survival_doc": doc(feller | {"alpha": 0.0},  # eta = 1
                            {"kind": "survival", "z": 1.0, "t_grid": [2.0],
                             "method": "both", "n_paths": PROB_MC_PATHS}, "survival", 0),
        "moment_rule": (v, w),
        "kernel": [(a, np.array([r["w"] for r in REFERENCE["kernel"] if r["a"] == a]),
                    np.array([r["u"] for r in REFERENCE["kernel"] if r["a"] == a]))
                   for a in sorted({r["a"] for r in REFERENCE["kernel"]})],
        "density_x": np.array(REFERENCE["density"]["x"]),
        "trend_doc": doc(feller | {"alpha": -1.5},  # m = -2, eta = 4
                         {"kind": "asymptotics", "z": 1.0, "trend_ts": [5.0, 10.0, 20.0]},
                         "trend", 1),
        "twin_seed": _sub_seed(seed, 2),
        "weakly_doc": doc(feller | {"alpha": 0.25},  # m = -1/4, eta = 1/2
                          {"kind": "asymptotics", "z": 1.0}, "weakly", 3),
        "phi_v": np.array(REFERENCE["phi_eta"]["v"]),
        "explosion_doc": doc({"kind": "stable", "alpha": 0.25, "beta": -0.5, "c": -1.0},
                             {"kind": "explosion", "z": 1.0, "t_grid": [5.0],
                              "method": "both", "n_paths": PROB_MC_PATHS}, "explosion", 4),
        "conditioned_doc": doc(feller | {"alpha": 1.0},  # m = 1/2
                               {"kind": "conditioned", "z": 1.0, "t": 2.0,
                                "n_paths": PROB_MC_PATHS}, "conditioned", 5),
    }


def _dual_check(path, quad_method, what):
    est = _by_method(path)
    (mc, se), (quad, _) = est["mc"], est[quad_method]
    return _within(mc, quad, se, f"{what}: Monte Carlo vs {quad_method}")


def _survival_check(res, inp):
    rc, out = res
    fails = [] if rc in (0, 1) else [f"cli.run returned {rc}"]
    return fails + _dual_check(out / "survival.csv", "quadrature", "survival at eta=1")


def _moments_run(inp):
    v, _ = inp["moment_rule"]
    return environment.my_density_grid(v, 1.0, 1.0)


def _moments_check(p, inp):
    v, w = inp["moment_rule"]
    nu, eta = 1.0, 1.0
    # E[I_nu] = int_0^nu e^(2(1+eta)s) ds, and 1/(2V) = I for V = 1/(2I)
    moment = math.expm1(2.0 * (1.0 + eta) * nu) / (2.0 * (1.0 + eta))
    return (_rel(float(np.sum(w * p)), 1.0, 1e-9, "density normalisation")
            + _rel(float(np.sum(w * p / (2.0 * v))), moment, 1e-7, "density moment E[I_nu]"))


def _generic_run(inp):
    kernel = [numerics.u_half(a, w) for a, w, _ in inp["kernel"]]
    ref = REFERENCE["density"]
    return kernel, environment.my_density_grid(inp["density_x"], ref["nu"], ref["eta"])


def _generic_check(res, inp):
    kernel, p = res
    fails = []
    # scipy's hyperu, the fallback for these a, is good to about 1e-7
    for (a, w, ref), u in zip(inp["kernel"], kernel):
        err = np.abs(u / ref - 1.0)
        if not np.all(err <= 1e-6):
            fails.append(f"U({a}, 1/2, w) worst relative error {err.max():.3g} > 1e-6")
    err = np.abs(p / np.array(REFERENCE["density"]["p"]) - 1.0)
    if not np.all(err <= 1e-6):
        fails.append(f"density at eta=0.5 worst relative error {err.max():.3g} > 1e-6")
    return fails


def _trend_run(inp):
    res = _run_cli(inp["trend_doc"])
    env = mechanisms.derive_env(1.0, -1.5, 1.0, 1.0)
    twin = longterm.survival_prob(1.0, 5.0, env, "mc", n_paths=PROB_MC_PATHS,
                                  seed=inp["twin_seed"])
    return res, twin


def _trend_check(res, inp):
    (rc, out), twin = res
    s = _summary(out)
    # z k Gamma(eta - 1/beta) / Gamma(eta - 2/beta) with k = 1/2, eta = 4
    exact = 0.5 * math.gamma(3.0) / math.gamma(2.0)
    fails = [] if rc == 0 else [f"cli.run returned {rc}"]
    if s["regime"] != "strongly_subcritical":
        fails.append(f"regime {s['regime']}")
    fails += _rel(s["constant"], exact, 1e-12, "strongly subcritical constant")
    gaps = [r["rel_gap"] for r in s["finite_t_trend"]]
    if not (all(np.diff(gaps) < 0) and gaps[-1] < 1e-2):
        fails.append(f"scaled survival does not approach the constant: gaps {gaps}")
    p5 = s["finite_t_trend"][0]["p"]
    return fails + _within(twin.value, p5, twin.stderr, "survival at t=5: MC vs quadrature")


def _weakly_run(inp):
    res = _run_cli(inp["weakly_doc"])
    env = mechanisms.derive_env(1.0, 0.25, 1.0, 1.0)
    return res, conditioned.U(2.0, env), longterm.phi_eta_grid(inp["phi_v"], 0.5)


# phi_eta_grid is good to 1e-8 only for v >= 0.2 (see the FOUND note in
# CHANGES.md); the regime constant and U integrate that error down to ~1.5e-4
PHI_V_MIN, PHI_TOL, CONSTANT_TOL = 0.2, 1e-8, 1e-3


def _weakly_check(res, inp):
    (rc, out), u2, phi = res
    s = _summary(out)
    ref = REFERENCE["weakly_constant"]
    c1, c2 = (ref["constant"][ref["z"].index(z)] for z in (1.0, 2.0))
    fails = [] if rc == 0 else [f"cli.run returned {rc}"]
    if (s["regime"], s["rate"]["power"], s["rate"]["exp"]) != ("weakly_subcritical", 1.5,
                                                              0.25**2 / 2.0):
        fails.append(f"regime {s['regime']}, rate {s['rate']}")
    fails += _rel(s["constant"], c1, CONSTANT_TOL, "weakly subcritical constant, z=1")
    fails += _rel(u2, c2, CONSTANT_TOL, "weakly subcritical U(2)")
    for v, got, want in zip(inp["phi_v"], phi, REFERENCE["phi_eta"]["phi"]):
        if v >= PHI_V_MIN:
            fails += _rel(float(got), want, PHI_TOL, f"phi_eta({v})")
    return fails


def _explosion_check(res, inp):
    rc, out = res
    fails = [] if rc in (0, 1) else [f"cli.run returned {rc}"]
    est = _by_method(out / "explosion.csv")
    if not all(0.0 < v < 1.0 for v, _ in est.values()):
        fails.append(f"explosion probabilities outside (0, 1): {est}")
    return fails + _dual_check(out / "explosion.csv", "quadrature-hw", "explosion at eta=-1")


def _conditioned_run(inp):
    res = _run_cli(inp["conditioned_doc"])
    env = mechanisms.derive_env(1.0, 1.0, 1.0, 1.0)
    return res, conditioned.conditioned_survival(1.0, 2.0, env, method="quadrature")


def _conditioned_check(res, inp):
    (rc, out), quad = res
    s = _summary(out)
    fails = [] if rc == 0 else [f"cli.run returned {rc}"]
    # U_*(z) = (1 + z k)^eta with k = 1/2, eta = -1
    fails += _rel(s["u_star"], 1.0 / 1.5, 1e-10, "U_*(1)")
    mc = s["survival"]
    return fails + _within(mc["value"], quad.value, mc["stderr"],
                           "conditioned survival: formula-mc vs quadrature")


PROBABILITIES = Workload("probabilities", _prob_inputs, (
    Op("survival", lambda inp: _run_cli(inp["survival_doc"]), _survival_check),
    Op("density_moments", _moments_run, _moments_check),
    Op("density_generic", _generic_run, _generic_check),
    Op("strong_trend", _trend_run, _trend_check),
    Op("weakly_constant", _weakly_run, _weakly_check),
    Op("explosion_hw", lambda inp: _run_cli(inp["explosion_doc"]), _explosion_check),
    Op("conditioned_survival", _conditioned_run, _conditioned_check),
))


# ---------------------------------------------------------------------------
# conditional: environment-conditioned Laplace exponents
# ---------------------------------------------------------------------------

FLOW_TOL = 1e-11
FLOW_LAMS = (10.0,)  # the terminal value that needs the most step halving


def _cond_inputs(seed, out):
    rng = _oracle_rng(seed, 2)
    grid, K = env_paths(rng, 1.0, -0.5, 1.0, 1000, 100)
    g200, k200 = env_paths(rng, 1.0, -0.5, 1.0, 200, 3)
    g1000, k0 = env_paths(rng, 1.0, 0.3, 1.0, 1000, 3)
    return {
        "grid": grid, "K": K,
        "branching_envs": [environment.EnvPath(g200, k, "K", 1.0, -0.5) for k in k200],
        "cbibre_envs": [environment.EnvPath(g1000, k, "K0", 1.0, 0.3) for k in k0],
    }


def _batch_op(name, mech, curve):
    def run(inp):
        return [flow.solve_backward_batch(mech, lam, 1.0, inp["grid"], inp["K"], "K",
                                          tol=FLOW_TOL) for lam in FLOW_LAMS]

    def check(sols, inp):
        fails = []
        for lam, (sol, blowup) in zip(FLOW_LAMS, sols):
            gap = float(np.max(np.abs(sol - curve(inp["grid"], inp["K"], lam))))
            if blowup is not None or not gap <= 1e-6:
                fails.append(f"{name} lam={lam}: gap to closed form {gap:.3g} > 1e-6"
                             f" (blow-up at {blowup})")
        return fails

    return Op(f"batch_{name}", run, check)


BRANCHING_MECH = dict(q=0.0, a=0.5, gamma2=1.0)  # psi equals Feller(0.5, 1)'s


def _branching_run(inp):
    mech = mechanisms.GeneralCB(**BRANCHING_MECH)
    return [tuple(flow.cond_laplace(z, 1.0, 1.0, env, mech) for z in (1.0, 2.0, 3.0))
            for env in inp["branching_envs"]]


def _branching_check(res, inp):
    fails = []
    for env, (l1, l2, l3) in zip(inp["branching_envs"], res):
        if not abs(l3 - l1 * l2) <= 1e-12:
            fails.append(f"branching property gap {abs(l3 - l1 * l2):.3g} > 1e-12")
        v0 = feller_curve(env.grid, env.values, 1.0, BRANCHING_MECH["a"],
                          BRANCHING_MECH["gamma2"])[0]
        if not abs(-math.log(l1) - v0) <= 1e-6:
            fails.append(f"v_t(0) {-math.log(l1)!r} vs closed form {v0!r}")
    return fails


CBIBRE_PARAMS = dict(alpha=0.8, beta=0.5, c=1.0, kappa=0.5)


def _cbibre_cond_run(inp):
    p = CBIBRE_PARAMS
    mech = mechanisms.Stable(p["alpha"], p["beta"], p["c"])
    imm = mechanisms.ImmigrationMechanism(
        0.0, mechanisms.StableImmigration(p["beta"], p["kappa"]))
    return [immigration.cbibre_cond_laplace(1.0, 1.0, 1.0, env, mech, imm)
            for env in inp["cbibre_envs"]]


def _cbibre_cond_check(res, inp):
    p = CBIBRE_PARAMS
    b, c, kappa, z, lam = p["beta"], p["c"], p["kappa"], 1.0, 1.0
    fails = []
    for env, got in zip(inp["cbibre_envs"], res):
        A = suffix_exp_integral(env.grid, -b * env.values)[0]
        v0 = (lam ** -b + b * c * A) ** (-1.0 / b)
        exact = math.exp(-z * v0) * (1.0 + b * c * lam**b * A) ** (-kappa / (b * c))
        if not abs(got - exact) <= 1e-6:
            fails.append(f"stable CBIBRE Laplace {got!r} vs closed form {exact!r}")
    return fails


CONDITIONAL = Workload("conditional", _cond_inputs, (
    _batch_op("feller", mechanisms.Feller(0.5, 1.0),
              lambda g, K, lam: feller_curve(g, K, lam, 0.5, 1.0)),
    _batch_op("stable_pos", mechanisms.Stable(0.5, 0.5, 1.0),
              lambda g, K, lam: stable_curve(g, K, lam, 0.5, 0.5, 1.0)),
    _batch_op("stable_neg", mechanisms.Stable(0.5, -0.5, -1.0),
              lambda g, K, lam: stable_curve(g, K, lam, 0.5, -0.5, -1.0)),
    _batch_op("neveu", mechanisms.Neveu(), neveu_curve),
    _batch_op("general", mechanisms.GeneralCB(**BRANCHING_MECH),
              lambda g, K, lam: feller_curve(g, K, lam, 0.5, 1.0)),
    Op("branching_single", _branching_run, _branching_check),
    Op("cbibre_single", _cbibre_cond_run, _cbibre_cond_check),
))


WORKLOADS = {w.name: w for w in (SIMULATE, PROBABILITIES, CONDITIONAL)}
