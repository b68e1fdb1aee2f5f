"""What a fresh interpreter loads: numpy, and never scipy."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path

import numpy as np

import cbbre


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


report = {}
for info in pkgutil.iter_modules(cbbre.__path__):
    importlib.import_module("cbbre." + info.name)
report["import"] = scipy_modules()

from cbbre import cli, flow, numerics
from cbbre.conditioned import conditioned_survival
from cbbre.config import load_config
from cbbre.environment import my_density_grid, sample_env_paths
from cbbre.longterm import asympt_survival_constant
from cbbre.mechanisms import Feller, derive_env

with tempfile.TemporaryDirectory() as out:
    cfg = load_config({
        "mechanism": {"kind": "feller", "alpha": 0.5, "gamma2": 1.0},
        "environment": {"sigma": 1.0},
        "experiment": {"kind": "simulate", "z0": 1.0, "T": 1.0, "n_paths": 200},
        "seed": 3, "out": out})
    report["exit"] = cli.run(cfg)
report["simulate"] = scipy_modules()
grid, K = sample_env_paths(1.0, -0.5, 1.0, 50, 5, 100)
flow.solve_backward_batch(Feller(0.5, 1.0), 1.0, 1.0, grid, K, "K0")
report["flow"] = scipy_modules()
numerics.u_half(4.5, [0.0, 0.01, 0.3, 2.0, 50.0, 400.0])
report["u_half"] = scipy_modules()
asympt_survival_constant(1.0, derive_env(1.0, -1.5, 1.0, 1.0))
report["constant"] = scipy_modules()
my_density_grid(np.geomspace(1e-3, 10.0, 50), 1.0, 0.5)
report["density"] = scipy_modules()
conditioned_survival(1.0, 1.5, derive_env(1.0, 1.0, 1.0, 1.0), method="quadrature")
report["conditioned"] = scipy_modules()
print(json.dumps(report))
"""


def test_scipy_never_loads():
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True)
    report = json.loads(proc.stdout)
    assert report.pop("exit") == 0
    assert report == {step: [] for step in ("import", "simulate", "flow", "u_half",
                                            "constant", "density", "conditioned")}
