"""Run every acceptance criterion of one checkout once and write the sha256 of each summary.

    python3 tools/criteria_digest.py ../parent parent.json
    python3 tools/criteria_digest.py . change.json

Each criterion runs in a fresh child interpreter, one after another, with
the suite's seed: the child puts the checkout's ``src/`` first on
``sys.path``, imports its ``tests/test_acceptance.py`` and runs the one
criterion.  Each summary is encoded with the suite's own ``_canonical``, the
byte string that criterion 18 compares, and written to OUT.json with its
sha256, its wall time and the child's peak resident memory (``peak_mb``,
from ``ru_maxrss``).  Two checkouts whose files hold the same digests give
byte-identical acceptance summaries.

One more child writes the ``kernels`` record: the sha256 of the bytes of
`u_half`, `u_half_diff`, `my_density_grid` and `phi_eta_grid` on the fixed
grids of `kernel_summary`, which cross every zone of the confluent kernel
and every term count of both its series, at a = 0.3, 1, 2.5, 4, 4.5, 7.5,
20, 50 and 100; of `hw_kernel` on a fixed r grid at t = 0.8; of
`density_cdf` on a fixed grid at criterion 5's (nu, eta) = (1, 0) and
(2, 1); of
the Hartman-Watson mass (`hw_marginal_expectation` of 1) at criterion 7's
nu = 0.3125, 0.5 and 0.75 (eta = -1); and of the outer rules: the Gamma
rule (`gamma_power_laplace` at shapes 0.05, 1 and 30, powers -10/9, 1, 2 and
10 and five theta), the density route (`survival_prob(..., "quadrature")`
at criterion 6's nine (z, t) cells) and the phi_eta rule (the weakly
subcritical constant at eta = 0.5, z = 0.5, 1 and 2).  Equal records mean
bit-identical kernel values.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path


def load_suite(root: Path):
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location(
        "criteria_suite", root / "tests" / "test_acceptance.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def run_criterion(root: Path, num: int) -> tuple[str, float, float]:
    """(canonical summary, wall seconds, peak MB) of one criterion, in this process."""
    suite = load_suite(root)
    start = time.perf_counter()
    text = suite._canonical(suite.CRITERIA[num](suite.SEED))
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return text, wall, peak_mb


#: the kernel's drifts a: both sides of a = 4, where its zones start to
#: follow a, up to the end of its range at 100
_KERNEL_A = (0.3, 1.0, 2.5, 4.0, 4.5, 7.5, 20.0, 50.0, 100.0)


def kernel_summary() -> dict:
    """{function: sha256 of its values on fixed grids}."""
    import numpy as np
    from cbbre import environment, longterm, numerics
    from cbbre.mechanisms import derive_env

    w = np.concatenate([[0.0, 1e-320, np.inf], np.geomspace(1e-40, 1e20, 12001)])
    x = np.geomspace(1e-8, 60.0, 300)
    v = np.geomspace(1e-4, 30.0, 300)
    values = {
        "u_half": [numerics.u_half(a, w) for a in _KERNEL_A],
        "u_half_diff": [numerics.u_half_diff(a, w) for a in _KERNEL_A],
        "my_density_grid": [environment.my_density_grid(x, nu, eta) for nu, eta in
                            ((0.5, 0.0), (2.5, 1.0), (5.0, 4.0), (10.0, -0.5))]
        + [environment.my_density_grid(x[::3], 3.0, 7.5)],
        "phi_eta_grid": [longterm.phi_eta_grid(v, eta) for eta in (0.5, 1.0, 4.0)],
        "density_cdf": [environment.density_cdf(v[::3], nu, eta)
                        for nu, eta in ((1.0, 0.0), (2.0, 1.0))],
        "hw_kernel": [environment.hw_kernel(np.geomspace(1e-3, 60.0, 300), 0.8)],
        "hw_marginal_expectation": [
            environment.hw_marginal_expectation(np.ones_like, nu, -1.0)
            for nu in (0.3125, 0.5, 0.75)],
        "gamma_power_laplace": [
            [numerics.gamma_power_laplace(theta, shape, power)
             for theta in (1e-3, 0.1, 1.0, 10.0, 1e3)]
            for shape in (0.05, 1.0, 30.0) for power in (-10.0 / 9.0, 1.0, 2.0, 10.0)],
        "survival_quadrature": [
            [longterm.survival_prob(z, t, derive_env(1.0, 0.0, 1.0, 1.0), "quadrature").value
             for z in (0.5, 1.0, 2.0)] for t in (1.5, 2.0, 3.0)],
        "weakly_constant": [
            [longterm.asympt_survival_constant(z, derive_env(1.0, 0.25, 1.0, 1.0)).constant
             for z in (0.5, 1.0, 2.0)]],
    }
    return {name: hashlib.sha256(b"".join(np.ascontiguousarray(a, float).tobytes()
                                          for a in arrays)).hexdigest()
            for name, arrays in values.items()}


def run_kernels(root: Path) -> tuple[str, float, float]:
    """(kernel summary as JSON, wall seconds, peak MB), in this process."""
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    text = json.dumps(kernel_summary(), sort_keys=True)
    wall = time.perf_counter() - start
    return text, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_fresh_process(fn, *args):
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(fn, *args).result()


def record(text: str, wall: float, peak_mb: float) -> dict:
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "wall_s": round(wall, 2), "peak_mb": round(peak_mb, 1),
            "summary": json.loads(text)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to run")
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    suite = load_suite(root)
    criteria = {}
    for num in sorted(suite.CRITERIA):
        text, wall, peak_mb = in_fresh_process(run_criterion, root, num)
        criteria[str(num)] = record(text, wall, peak_mb)
        print(f"criterion {num:02d}: {criteria[str(num)]['sha256'][:16]} "
              f"({wall:.1f} s, {peak_mb:.0f} MB)", file=sys.stderr, flush=True)
    text, wall, peak_mb = in_fresh_process(run_kernels, root)
    kernels = record(text, wall, peak_mb)
    print(f"kernels: {kernels['sha256'][:16]} ({wall:.1f} s, {peak_mb:.0f} MB)",
          file=sys.stderr, flush=True)
    doc = {"checkout": str(root), "seed": suite.SEED, "criteria": criteria,
           "kernels": kernels}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
