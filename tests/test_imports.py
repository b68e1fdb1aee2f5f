"""What a fresh interpreter loads: numpy only until a call needs scipy."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cbbre.numerics import u_half

SRC = Path(__file__).resolve().parents[1] / "src"
W = [0.0, 0.01, 0.3, 2.0, 50.0, 400.0]

CHILD = f"""
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path

import cbbre


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


for info in pkgutil.iter_modules(cbbre.__path__):
    importlib.import_module("cbbre." + info.name)
report = {{"import": scipy_modules()}}

from cbbre import cli, flow, numerics
from cbbre.config import load_config
from cbbre.environment import sample_env_paths
from cbbre.mechanisms import Feller

with tempfile.TemporaryDirectory() as out:
    cfg = load_config({{
        "mechanism": {{"kind": "feller", "alpha": 0.5, "gamma2": 1.0}},
        "environment": {{"sigma": 1.0}},
        "experiment": {{"kind": "simulate", "z0": 1.0, "T": 1.0, "n_paths": 200}},
        "seed": 3, "out": out}})
    report["exit"] = cli.run(cfg)
    report["scheme"] = json.loads(Path(out, "summary.json").read_text())["summary"]["scheme"]
grid, K = sample_env_paths(1.0, -0.5, 1.0, 50, 5, 100)
flow.solve_backward_batch(Feller(0.5, 1.0), 1.0, 1.0, grid, K, "K0")
report["run"] = scipy_modules()

report["u"] = numerics.u_half(4.5, {W!r}).tolist()
report["after_u"] = "scipy.special" in sys.modules
print(json.dumps(report))
"""


def test_scipy_loads_only_on_first_use():
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert (report["exit"], report["scheme"]) == (0, "exact")
    assert report["run"] == []
    # a = 4.5 takes the hyperu fallback: scipy.special loads, and the values
    # are this process's bit for bit
    assert report["after_u"]
    assert np.array_equal(report["u"], u_half(4.5, W))
