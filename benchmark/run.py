"""Run one benchmark workload for a fixed time and print its metrics.

    python3 benchmark/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there.  The workload's operations run in whole rounds, one after another,
until ``--seconds`` have passed (at least one round).  The lazy caches of
the package are emptied before every round, so each round pays for them
as a fresh ``cbbre`` process does.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half traced, reports the
per-layer metrics and writes the spans to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: the workloads are single-process and use at most the
# two worker threads that the feller_w2 operation asks for.  Set before
# numpy is imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 4  # fresh-process set-up timings besides the run's own


def load(workload: str, seed: int):
    """Import the package and make the workload's inputs; returns
    (seconds taken, workload, inputs)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "cbbre" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import cbbre

    if Path(cbbre.__file__).resolve().parent != (src / "cbbre").resolve():
        raise SystemExit(f"imported {cbbre.__file__}, not the checkout's package")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choices: {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed, OUT_DIR / workload)
    return time.perf_counter() - t0, wl, inputs


def clear_caches(package):
    """Empty the package's module-level caches: dicts named ``*_CACHE`` and
    ``functools`` caches."""
    from tracer import package_modules

    for mod in package_modules(package):
        for name, val in vars(mod).items():
            if name.endswith("_CACHE") and isinstance(val, dict):
                val.clear()
            elif callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    incorrect: list = field(default_factory=list)  # failed checks outside KNOWN_FAULTS
    times: dict = field(default_factory=dict)  # operation -> seconds per round
    round_s: list = field(default_factory=list)  # timed seconds per round


def run_rounds(wl, inputs, until: float, tally: Tally, package):
    """Whole rounds of the workload's operations until ``until`` (a
    perf_counter value) has passed; at least one round."""
    from workloads import KNOWN_FAULTS

    while True:
        clear_caches(package)
        round_s = 0.0
        for op in wl.ops:
            key = f"{wl.name}/{op.name}"
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run(inputs)
            except Exception as exc:  # an operation that raises has failed
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                round_s += dt
                tally.times.setdefault(op.name, []).append(dt)
                problems = op.check(result, inputs)
            if problems:
                tally.failed += 1
                if key not in KNOWN_FAULTS:
                    tally.incorrect += [f"{key}: {p}" for p in problems]
                print(f"[{'FAULT' if key in KNOWN_FAULTS else 'FAIL'}] {key}: "
                      + "; ".join(problems), file=sys.stderr)
        tally.round_s.append(round_s)
        if time.perf_counter() >= until:
            return


def setup_probe_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print the seconds")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    units = expected_metrics(bool(args.trace))
    setup_s, wl, inputs = load(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    start = time.perf_counter()
    import cbbre
    from tracer import Tracer, layer_metrics, spans_as_records

    tally = Tally()
    if not args.trace:
        run_rounds(wl, inputs, start + args.seconds, tally, cbbre)
        setup = [setup_s] + setup_probe_times(args.workload, args.seed)
        values = {
            "wall_s": sum(statistics.median(t) for t in tally.times.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        run_rounds(wl, inputs, start + args.seconds / 2, tally, cbbre)
        untraced = list(tally.round_s)
        tracer = Tracer(cbbre)
        with tracer:
            run_rounds(wl, inputs, start + args.seconds, tally, cbbre)
        if not tracer.restored():
            raise SystemExit("tracer left wrapped functions in place")
        traced = tally.round_s[len(untraced):]
        values = layer_metrics(tracer)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "spans": spans_as_records(tracer)}) + "\n")

    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    for name, t in tally.times.items():
        print(f"{args.workload}/{name}: median {statistics.median(t):.3f} s over "
              f"{len(t)} round(s)", file=sys.stderr)
    for msg in tally.incorrect:
        print(f"incorrect: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
