"""Command-line front end.

One JSON config document drives every subcommand; the subcommand selects the
experiment kind.  Exit codes: 0 all requested checks passed, 1 a numerical
check failed, 2 usage or schema error.

    cbbre survival --config cfg.json --out results/
    cbbre verify --suite closed-forms --seed 1
"""
from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENT_KINDS, ExperimentConfig, load_config
from .environment import MCEstimate, sample_env_path
from .errors import CBBREError, ConfigError, MethodError, UnsupportedMechanismError
from .mechanisms import (EnvParams, Feller, ImmigrationMechanism, Neveu, Stable,
                         StableImmigration)
from .simulate import SimConfig, simulate_cbbre_batch

DEFAULT_CONFIG_ENV = "CBBRE_CONFIG_DIR"


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _dump_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def emit_plot_data(rows: list[dict], path: Path, columns: list[str]) -> None:
    """Tidy CSV: one observation per row, fields in the order of ``columns``."""
    if not rows:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in r.items()})


def _est_row(t, quantity, est: MCEstimate):
    return {"t": t, "quantity": quantity, "estimate": est.value,
            "stderr": est.stderr, "method": est.method}


def _sim_config(cfg: ExperimentConfig) -> SimConfig:
    n = cfg.numerics
    return SimConfig(dt=n["dt"], eps_jump=n["eps_jump"], eps_abs=n["eps_abs"],
                     m_expl=n["m_expl"], seed=cfg.seed)


# ---------------------------------------------------------------------------
# Experiment runners (each returns (ok, summary, rows))
# ---------------------------------------------------------------------------


def _grid_times(ts, T, dt):
    """Default record times: the grid points of [0, T] at step ~dt nearest ts."""
    h = T / int(round(T / dt))
    return list(np.unique(np.rint(np.asarray(ts, float) / h)) * h)


def _run_simulate(cfg: ExperimentConfig, out: Path):
    exp = cfg.experiment
    z0 = float(exp.get("z0", 1.0))
    T = float(exp.get("T", 1.0))
    n_paths = int(exp.get("n_paths", 1000))
    sim = _sim_config(cfg)
    record = exp.get("record_times") or _grid_times(np.linspace(0.0, T, 26), T, sim.dt)
    batch = simulate_cbbre_batch(cfg.mechanism, cfg.sigma, z0, T, sim, n_paths,
                                 record_times=record, imm=cfg.immigration,
                                 workers=cfg.workers)
    zT = batch.z[:, -1]
    fin = np.isfinite(zT)
    summary = {
        "z0": z0, "T": T, "n_paths": n_paths,
        "mean_zT": float(zT[fin].mean()) if fin.any() else None,
        "survival_freq": float((zT[fin] > 0).mean()) if fin.any() else 0.0,
        "absorbed_freq": float(np.isfinite(batch.t0).mean()),
        "explosion_freq": float(np.isfinite(batch.t_inf).mean()),
        "env_flavor": batch.env_flavor,
        "scheme": batch.scheme,
    }
    rows = [{"t": float(t), "quantity": "Z", "estimate": float(z),
             "stderr": 0.0, "method": "path0"}
            for t, z in zip(batch.times, batch.z[0])]
    emit_plot_data(rows, out / "path0.csv",
                   ["t", "quantity", "estimate", "stderr", "method"])
    np.savetxt(out / "path0_env.csv",
               np.column_stack([batch.times, batch.z[0], batch.env_values[0]]),
               delimiter=",", header="t,Z,K", comments="")
    return True, summary, rows


def _survival_env(cfg: ExperimentConfig) -> EnvParams:
    return EnvParams.from_mechanism(cfg.mechanism, cfg.sigma)


def _run_dual(cfg: ExperimentConfig, out: Path, prob, quantity: str, default_t: float):
    """``prob`` (survival_prob or explosion_prob) on the t grid by Monte Carlo,
    by quadrature (the density route for eta > -1, the Hartman-Watson route
    otherwise) or both, checked against each other."""
    exp = cfg.experiment
    env = _survival_env(cfg)
    quad_method = "quadrature" if env.eta > -1.0 else "quadrature-hw"
    z = float(exp.get("z", 1.0))
    ts = [float(t) for t in exp.get("t_grid", [default_t])]
    method = exp.get("method", "both")
    n_paths = int(exp.get("n_paths", 30000))
    rows, ok, gaps = [], True, []
    for t in ts:
        ests = []
        if method in ("mc", "both"):
            ests.append(prob(z, t, env, "mc", n_paths=n_paths, seed=cfg.seed))
        if method != "mc":
            ests.append(prob(z, t, env, quad_method if method == "both" else method))
        rows.extend(_est_row(t, quantity, e) for e in ests)
        if len(ests) == 2:
            gap = abs(ests[0].value - ests[1].value)
            tol = max(3.0 * ests[0].stderr, 1e-2)
            gaps.append({"t": t, "gap": gap, "tol": tol, "pass": gap <= tol})
            ok &= gap <= tol
    emit_plot_data(rows, out / f"{quantity}.csv",
                   ["t", "quantity", "estimate", "stderr", "method"])
    return ok, {"z": z, "method": method, "dual_checks": gaps}, rows


def _run_survival(cfg: ExperimentConfig, out: Path):
    from .longterm import survival_prob

    return _run_dual(cfg, out, survival_prob, "survival", 1.0)


def _run_explosion(cfg: ExperimentConfig, out: Path):
    from .longterm import explosion_prob

    ok, summary, rows = _run_dual(cfg, out, explosion_prob, "explosion", 5.0)
    return ok and all(r["estimate"] > 0 for r in rows), summary, rows


def _run_asymptotics(cfg: ExperimentConfig, out: Path):
    from .longterm import (asympt_explosion_constant, asympt_survival_constant,
                           survival_scaled_trend)

    exp = cfg.experiment
    env = _survival_env(cfg)
    z = float(exp.get("z", 1.0))
    if env.beta > 0:
        const = asympt_survival_constant(z, env)
    else:
        const = asympt_explosion_constant(z, env)
    trend = []
    if exp.get("trend_ts") and env.beta > 0:
        trend = survival_scaled_trend(z, env, [float(t) for t in exp["trend_ts"]])
        emit_plot_data(
            [{"t": r["t"], "scaled_P": r["scaled"], "constant": r["constant"],
              "rel_gap": r["rel_gap"]} for r in trend],
            out / "asymptotics_trend.csv", ["t", "scaled_P", "constant", "rel_gap"])
    summary = {
        "z": z, "regime": const.regime,
        "rate": {"power": const.rate_power, "exp": const.rate_exp},
        "constant": const.constant, "method": const.method,
        "finite_t_trend": trend,
    }
    return True, summary, []


def _run_qprocess(cfg: ExperimentConfig, out: Path):
    from .conditioned import U, qprocess_weights, theta

    exp = cfg.experiment
    env = _survival_env(cfg)
    z0 = float(exp.get("z0", 1.0))
    sim = _sim_config(cfg)
    ts = [float(t) for t in
          exp.get("t_grid") or _grid_times([0.5, 1.0, 2.0], 2.0, sim.dt)]
    n_paths = int(exp.get("n_paths", 20000))
    batch = simulate_cbbre_batch(cfg.mechanism, cfg.sigma, z0, max(ts),
                                 sim, n_paths, record_times=ts,
                                 workers=cfg.workers)
    checks, rows, ok = [], [], True
    for j, t in enumerate(batch.times):
        w = qprocess_weights(batch.z[:, j], float(t), z0, env)
        se = float(w.std(ddof=1) / math.sqrt(w.size))
        dev = abs(float(w.mean()) - 1.0)
        passed = dev <= 3.0 * se
        ok &= passed
        checks.append({"t": float(t), "mean_weight": float(w.mean()),
                       "stderr": se, "pass": passed})
        rows.append({"t": float(t), "quantity": "martingale_weight",
                     "estimate": float(w.mean()), "stderr": se, "method": "mc"})
    emit_plot_data(rows, out / "qprocess.csv",
                   ["t", "quantity", "estimate", "stderr", "method"])
    summary = {"z0": z0, "U": U(z0, env), "theta": theta(env),
               "martingale_check": checks, "scheme": batch.scheme}
    return ok, summary, rows


def _run_conditioned(cfg: ExperimentConfig, out: Path):
    from .conditioned import U_star, asympt_conditioned_constant, conditioned_survival

    exp = cfg.experiment
    env = _survival_env(cfg)
    z = float(exp.get("z", 1.0))
    t = float(exp.get("t", 1.0))
    n_mc = int(exp.get("n_paths", 50000))
    est = conditioned_survival(z, t, env, n_mc=n_mc, seed=cfg.seed)
    const = asympt_conditioned_constant(z, env)
    summary = {
        "z": z, "t": t, "u_star": U_star(z, env),
        "survival": est.as_dict(),
        "constants": {"regime": const.regime, "constant": const.constant,
                      "rate": {"power": const.rate_power, "exp": const.rate_exp}},
    }
    rows = [_est_row(t, "conditioned_survival", est)]
    emit_plot_data(rows, out / "conditioned.csv",
                   ["t", "quantity", "estimate", "stderr", "method"])
    return True, summary, rows


def _run_immigration(cfg: ExperimentConfig, out: Path):
    from .immigration import cbibre_cond_laplace, cbibre_longterm, stable_cbibre_laplace

    exp = cfg.experiment
    try:
        env = _survival_env(cfg)
    except UnsupportedMechanismError:
        env = None
    if env is None or not 0.0 < env.beta < 1.0:
        raise ConfigError("immigration experiments need a stable mechanism with "
                          "beta in (0, 1)", "mechanism")
    beta, c = env.beta, env.c
    z = float(exp.get("z", 1.0))
    lam = float(exp.get("lam", 1.0))
    t = float(exp.get("t", 1.0))
    kappa = float(exp.get("kappa", 0.5))
    n_steps = int(exp.get("n_steps", 1000))
    path = sample_env_path(cfg.sigma, env.m, t, n_steps, cfg.seed, flavor="K0")
    cf = stable_cbibre_laplace(z, lam, t, path, beta, c, kappa)
    summary = {"z": z, "lam": lam, "t": t, "closed_form": cf}
    ok = True
    if exp.get("check_ode", True):
        imm = ImmigrationMechanism(0.0, StableImmigration(beta, kappa))
        ode = cbibre_cond_laplace(z, lam, t, path, cfg.mechanism, imm,
                                  tol=cfg.numerics["ode_tol"])
        summary["ode_pipeline"] = ode
        summary["ode_gap"] = abs(ode - cf)
        ok = summary["ode_gap"] <= 1e-6
    if exp.get("longterm", False):
        rep = cbibre_longterm(z, env, beta, c, kappa, lam=lam,
                              n_paths=int(exp.get("n_paths", 20000)), seed=cfg.seed)
        summary["longterm"] = {
            "verdict": rep.verdict, "limit_transform": rep.limit_transform,
            "mc": [e.as_dict() for e in rep.mc_estimates], "medians": rep.medians,
        }
    return ok, summary, []


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_closed_forms(seed: int):
    from .flow import solve_backward

    checks = []
    for name, mech in [("feller", Feller(0.5, 1.0)), ("stable+", Stable(0.5, 0.5, 1.0)),
                       ("stable-", Stable(0.5, -0.5, -1.0)), ("neveu", Neveu())]:
        worst = 0.0
        for s in range(5):
            env = sample_env_path(1.0, -0.5, 1.0, 1000, seed + s, flavor="K")
            sol = solve_backward(mech, 1.0, 1.0, env)
            worst = max(worst, abs(sol.initial - mech.closed_form(1.0, 1.0, env)))
        checks.append({"check": f"ode-vs-closed-form/{name}", "worst_gap": worst,
                       "tol": 1e-6, "pass": worst <= 1e-6})
    return checks


def _suite_dufresne(seed: int):
    from .environment import mc_half_inverse_samples

    s = mc_half_inverse_samples(30.0, -2.0, 20000, 3000, seed)
    checks = []
    for name, emp, target in [("mean", s, 2.0), ("second", s**2, 6.0)]:
        val = float(np.mean(emp))
        se = float(np.std(emp, ddof=1) / math.sqrt(s.size))
        checks.append({"check": f"dufresne/{name}", "value": val, "target": target,
                       "stderr": se, "pass": abs(val - target) <= 3 * se})
    return checks


def _suite_branching(seed: int):
    from .flow import cond_laplace

    env = sample_env_path(1.0, -0.5, 1.0, 500, seed, flavor="K")
    mech = Stable(0.5, 0.5, 1.0)
    worst = 0.0
    for z1, z2 in [(0.3, 0.9), (1.0, 2.0)]:
        lhs = cond_laplace(z1 + z2, 1.0, 1.0, env, mech)
        rhs = cond_laplace(z1, 1.0, 1.0, env, mech) * cond_laplace(z2, 1.0, 1.0, env, mech)
        worst = max(worst, abs(lhs - rhs))
    return [{"check": "branching-property", "worst_gap": worst, "tol": 1e-12,
             "pass": worst <= 1e-12}]


def _suite_dual_methods(seed: int):
    from .longterm import survival_prob

    env = EnvParams(1.0, 0.0, 1.0, 1.0)  # Feller, m = -0.5
    mc = survival_prob(1.0, 2.0, env, "mc", n_paths=20000, seed=seed)
    quad = survival_prob(1.0, 2.0, env, "quadrature")
    gap = abs(mc.value - quad.value)
    tol = max(3 * mc.stderr, 1e-2)
    return [{"check": "survival-dual", "gap": gap, "tol": tol, "pass": gap <= tol}]


def _suite_identities(seed: int):
    from .conditioned import U_star, theta

    checks = []
    env = EnvParams(1.0, 1.5, 1.0, 1.0)  # Feller, m = 1: eta = -2, k = 1/2
    # at beta = 1, U_*(z) = E[exp(-z k Gamma_{-eta})] = (1 + z k)^eta, here 0.25
    gap = abs(U_star(2.0, env) - (1.0 + 2.0 * env.k) ** env.eta)
    checks.append({"check": "ustar-identity", "gap": gap, "tol": 1e-10, "pass": gap <= 1e-10})
    th1 = theta(EnvParams(1.0, -0.5 + 1e-13, 1.0, 1.0))
    th2 = theta(EnvParams(1.0, -0.5 - 1e-13, 1.0, 1.0))
    checks.append({"check": "theta-continuity", "gap": abs(th1 - th2),
                   "tol": 1e-9, "pass": abs(th1 - th2) <= 1e-9})
    return checks


VERIFY_SUITES = {
    "closed-forms": _suite_closed_forms,
    "dufresne": _suite_dufresne,
    "branching": _suite_branching,
    "dual-methods": _suite_dual_methods,
    "identities": _suite_identities,
}


def _run_verify(cfg: ExperimentConfig, out: Path):
    suite = cfg.experiment.get("suite", "closed-forms")
    if suite == "all":
        names = list(VERIFY_SUITES)
    elif suite in VERIFY_SUITES:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}; choices: "
                          f"{sorted(VERIFY_SUITES)} or 'all'", "experiment.suite")
    checks = []
    for name in names:
        checks.extend(VERIFY_SUITES[name](cfg.seed))
    ok = all(c["pass"] for c in checks)
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['check']}")
    return ok, {"suite": suite, "checks": checks}, []


_RUNNERS = {
    "simulate": _run_simulate,
    "survival": _run_survival,
    "explosion": _run_explosion,
    "asymptotics": _run_asymptotics,
    "qprocess": _run_qprocess,
    "conditioned": _run_conditioned,
    "immigration": _run_immigration,
    "verify": _run_verify,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; write summary.json and CSV tables."""
    out = Path(cfg.out)
    ok, summary, _rows = _RUNNERS[cfg.kind](cfg, out)
    doc = {
        "experiment": cfg.kind,
        "mechanism": cfg.mechanism.to_dict(),
        "sigma": cfg.sigma,
        "seed": cfg.seed,
        "numerics": cfg.numerics,
        "summary": summary,
        "version": __version__,
    }
    _dump_json(doc, out / "summary.json")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cbbre",
        description="Branching processes in a Brownian random environment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None,
                       help="JSON config path (env CBBRE_CONFIG_DIR sets the default dir)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
        if kind == "verify":
            p.add_argument("--suite", default="closed-forms")
    return parser


_MINIMAL_VERIFY = {
    "mechanism": {"kind": "feller", "alpha": 0.5, "gamma2": 1.0},
    "environment": {"sigma": 1.0},
    "experiment": {"kind": "verify"},
    "seed": 20240101,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            if args.command != "verify":
                print("error: --config is required", file=sys.stderr)
                return 2
            doc = copy.deepcopy(_MINIMAL_VERIFY)
        else:
            cfg_path = Path(args.config)
            if not cfg_path.exists() and os.environ.get(DEFAULT_CONFIG_ENV):
                cfg_path = Path(os.environ[DEFAULT_CONFIG_ENV]) / args.config
            doc = json.loads(Path(cfg_path).read_text())
        if not isinstance(doc, dict):
            raise ConfigError("top level must be an object", "document")
        doc.setdefault("experiment", {})["kind"] = args.command
        if args.command == "verify" and getattr(args, "suite", None):
            doc["experiment"]["suite"] = args.suite
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.workers is not None:
            doc["workers"] = args.workers
        if args.out is not None:
            doc["out"] = args.out
        cfg = load_config(doc)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ConfigError, MethodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CBBREError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
