"""Self-checks of the benchmark harness.

    python3 benchmark/selfcheck.py

1. The tracer wraps a function of every layer, including the copies other
   modules imported by name, records spans also when the call raises, and
   afterwards leaves every module of the package exactly as it found it.
2. The per-layer figures have exactly the names ``BENCHMARK.json`` lists.
3. The command, run on the ``conditional`` workload with and without
   tracing, prints every metric ``BENCHMARK.json`` names, with its unit,
   and the result line has the required keys.  (``run.py`` also refuses to
   print a result whose metric names differ, on every workload.)

Exits 0 when every check holds; takes about a minute.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import cbbre  # noqa: E402
from cbbre import environment, flow, numerics  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def check_tracer_restores() -> list[str]:
    tracer = Tracer(cbbre)
    before = _snapshot(tracer.modules)
    fails = []
    with tracer:
        patched_layers = {m.__name__.rsplit(".", 1)[1] for m, _, _ in tracer._patches}
        if not set(LAYERS) <= patched_layers:
            fails.append(f"layers left unwrapped: {sorted(set(LAYERS) - patched_layers)}")
        if environment.u_half_diff is before[("cbbre.environment", "u_half_diff")]:
            fails.append("a function imported into another module was not wrapped")
        grid, K = environment.sample_env_paths(1.0, -0.5, 1.0, 20, 1, 3)
        flow.solve_backward_batch(cbbre.mechanisms.Feller(0.5, 1.0), 1.0, 1.0, grid, K)
        numerics.u_half(0.75, np.array([0.5, 2.0]))
        try:
            numerics.gamma_power_expectation(np.exp, -1.0)
        except ValueError:
            pass
        else:
            fails.append("a negative Gamma shape did not raise")
    names = {s.name for s in tracer.spans}
    for want in ("environment.sample_env_paths", "flow.solve_backward_batch",
                 "numerics.u_half", "numerics.gamma_power_expectation"):
        if want not in names:
            fails.append(f"no span recorded for {want}")
    if any(s.end < s.start for s in tracer.spans):
        fails.append("a span was left open")
    if tracer.psi_evals == 0:
        fails.append("psi evaluations from flow were not counted")
    after = _snapshot(tracer.modules)
    changed = sorted(f"{m}.{k}" for (m, k), v in before.items() if after.get((m, k)) is not v)
    if changed or set(after) != set(before) or not tracer.restored():
        fails.append(f"tracer did not restore: {changed or 'module attributes added'}")
    return fails


def check_layer_names() -> list[str]:
    got = set(layer_metrics(Tracer(cbbre))) | {"trace.overhead_s"}
    want = {m["name"] for m in SPEC["per_layer"]}
    return [f"per-layer names differ from BENCHMARK.json: {sorted(got ^ want)}"] if got != want else []


def check_command_prints_metrics() -> list[str]:
    fails = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = SPEC["command"] + ["--workload", "conditional", "--seed", "0",
                                 "--seconds", "0", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            fails.append(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fails.append(f"result keys {sorted(result)}")
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fails.append(f"--trace {trace}: printed {got}, BENCHMARK.json names {want}")
    return fails


def main() -> int:
    fails = []
    for check in (check_tracer_restores, check_layer_names, check_command_prints_metrics):
        problems = check()
        print(f"[{'FAIL' if problems else 'PASS'}] {check.__name__}")
        for p in problems:
            print(f"    {p}")
        fails += problems
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
