"""JSON configuration: the single source of truth for all CLI commands.

Schema (see README for the full field list)::

    {
      "mechanism":   {"kind": "feller"|"stable"|"neveu"|"general", ...},
      "immigration": {"d": 0.0, "nu": {"kind": "stable", "beta": b, "kappa": k}},
      "environment": {"sigma": 1.0},
      "experiment":  {"kind": "simulate"|"survival"|..., ...},
      "numerics":    {"dt": 1e-3, "eps_jump": 1e-3, "eps_abs": 1e-10,
                      "m_expl": 1e9, "ode_tol": 1e-10},
      "seed": 12345, "workers": 1, "out": "results"
    }
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .mechanisms import (
    Feller,
    GeneralCB,
    ImmigrationMechanism,
    Mechanism,
    Neveu,
    Stable,
    StableImmigration,
    TabulatedMeasure,
)

__all__ = ["ExperimentConfig", "load_config", "mechanism_from_dict", "immigration_from_dict"]

#: the keys each experiment kind reads besides ``kind``
_EXPERIMENT_KEYS = {
    "simulate": ("z0", "T", "n_paths", "record_times"),
    "survival": ("z", "t_grid", "method", "n_paths"),
    "explosion": ("z", "t_grid", "method", "n_paths"),
    "asymptotics": ("z", "trend_ts"),
    "qprocess": ("z0", "t_grid", "n_paths"),
    "conditioned": ("z", "t", "n_paths"),
    "immigration": ("z", "lam", "t", "kappa", "n_steps", "check_ode", "longterm", "n_paths"),
    "verify": ("suite",),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENT_KEYS)


def mechanism_from_dict(d: dict) -> Mechanism:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("mechanism block must be an object with a 'kind'", "mechanism")
    kind = d["kind"]
    try:
        if kind == "neveu":
            return Neveu()
        if kind == "feller":
            return Feller(float(d["alpha"]), float(d["gamma2"]))
        if kind == "stable":
            return Stable(float(d["alpha"]), float(d["beta"]), float(d["c"]))
        if kind == "general":
            mu = None if d.get("jump_x") is None else _tabulated(d, "jump_x", "jump_density")
            return GeneralCB(float(d.get("q", 0.0)), float(d["a"]),
                             float(d["gamma2"]), mu)
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}", f"mechanism.{kind}") from None
    except ParameterError as exc:
        raise ConfigError(str(exc), f"mechanism.{kind}") from None
    raise ConfigError(f"unknown mechanism kind {kind!r}", "mechanism.kind")


def _tabulated(d: dict, x_key: str, density_key: str) -> TabulatedMeasure:
    return TabulatedMeasure(np.asarray(d[x_key], float), np.asarray(d[density_key], float),
                            float(d.get("tail_mass", 0.0)), float(d.get("tail_location", 0.0)))


def immigration_from_dict(d: dict | None) -> ImmigrationMechanism | None:
    if d is None:
        return None
    nu = None
    nd = d.get("nu")
    if nd is not None:
        if nd.get("kind") == "stable":
            try:
                nu = StableImmigration(float(nd["beta"]), float(nd["kappa"]))
            except (KeyError, ParameterError) as exc:
                raise ConfigError(str(exc), "immigration.nu") from None
        elif nd.get("kind") == "tabulated":
            nu = _tabulated(nd, "x", "density")
        else:
            raise ConfigError("nu.kind must be 'stable' or 'tabulated'", "immigration.nu")
    try:
        return ImmigrationMechanism(float(d.get("d", 0.0)), nu)
    except ParameterError as exc:
        raise ConfigError(str(exc), "immigration") from None


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: Mechanism
    sigma: float
    experiment: dict
    numerics: dict
    seed: int
    workers: int
    out: str
    immigration: ImmigrationMechanism | None = None

    @property
    def kind(self) -> str:
        return self.experiment["kind"]


_NUMERIC_DEFAULTS = {"dt": 1e-3, "eps_jump": 1e-3, "eps_abs": 1e-10,
                     "m_expl": 1e9, "ode_tol": 1e-10}


def load_config(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document, already read into a dict."""
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object", "document")
    for key in ("mechanism", "environment", "experiment"):
        if key not in doc:
            raise ConfigError("required block missing", key)
    mech = mechanism_from_dict(doc["mechanism"])
    env_block = doc["environment"]
    if "sigma" not in env_block:
        raise ConfigError("environment.sigma is required", "environment.sigma")
    sigma = float(env_block["sigma"])
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative", "environment.sigma")
    exp = dict(doc["experiment"])
    if exp.get("kind") not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment.kind must be one of {EXPERIMENT_KINDS}",
                          "experiment.kind")
    known = _EXPERIMENT_KEYS[exp["kind"]]
    for key in exp:
        if exp["kind"] == "immigration" and key in ("beta", "c"):
            raise ConfigError("beta and c come from the mechanism block", "experiment")
        if key != "kind" and key not in known:
            raise ConfigError(f"unknown key; known keys are {sorted(known)}",
                              f"experiment.{key}")
    numerics = _NUMERIC_DEFAULTS | dict(doc.get("numerics", {}))
    for key, val in numerics.items():
        if key not in _NUMERIC_DEFAULTS:
            raise ConfigError(f"unknown key; known keys are {sorted(_NUMERIC_DEFAULTS)}",
                              f"numerics.{key}")
        if not (isinstance(val, (int, float)) and val > 0):
            raise ConfigError("must be a positive number", f"numerics.{key}")
    if "seed" not in doc:
        raise ConfigError("a seed is required (no entropy-derived defaults)", "seed")
    seed = int(doc["seed"])
    workers = int(doc.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1", "workers")
    imm = immigration_from_dict(doc.get("immigration"))
    return ExperimentConfig(mech, sigma, exp, numerics, seed, workers,
                            str(doc.get("out", "results")), imm)

