"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seed 601 --out BENCH_6.json

For every workload of ``BENCHMARK.json``, pair i runs ``benchmark/run.py``
once in each checkout with seed ``--seed + i``; the parent runs first in
even pairs and the change runs first in odd ones, so a drift in machine
speed falls on both sides alike.  Each run uses its own checkout's
benchmark and package.  The file records, per workload and end-to-end
metric, every run's value, the median and quartiles of each side and the
number of pairs the change won, together with the machine, the numpy and
scipy versions, both git commits and the Python lines under ``src/`` and
``tests/``.  Under ``operations`` it records the same for each operation's
median seconds per round, parsed from the ``<workload>/<op>: median <s> s``
lines that ``run.py`` writes to standard error, so that a gain can be
traced to the operations that made it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path


OP_LINE = re.compile(r"^(?P<workload>[\w-]+)/(?P<op>[\w-]+): median (?P<s>\S+) s\b", re.M)


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """run.py's result line, plus ``ops``: {operation: median seconds per round}."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed in {root}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["ops"] = {m["op"]: float(m["s"]) for m in OP_LINE.finditer(proc.stderr)
                  if m["workload"] == workload}
    return out


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def python_lines(root: Path, sub: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / sub).rglob("*.py"))


def checkout_info(root: Path) -> dict:
    """The commit, whether src/ or tests/ differ from it, a digest of the
    Python files there, and their line counts."""
    digest = hashlib.sha256()
    for p in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        digest.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git(root, "rev-parse", "HEAD"),
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no",
                          "--", "src", "tests")),
        "py_sha256": digest.hexdigest(),
        "src_lines": python_lines(root, "src"),
        "test_lines": python_lines(root, "tests"),
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], lower: bool) -> dict:
    """Both sides' runs, medians and quartiles, the relative change of the
    median and the number of pairs the change won."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    med = {"parent": summary(parent), "change": summary(change)}
    return {
        "parent": med["parent"] | {"runs": parent},
        "change": med["change"] | {"runs": change},
        "relative_change": med["change"]["median"] / med["parent"]["median"] - 1.0,
        "change_wins": wins,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=601, help="seed of the first pair")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    results = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_benchmark(sides[side], wl, args.seed + i, spec["run_seconds"])
                runs[side].append(out)
                print(f"{wl} pair {i} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)
        row = {"seeds": [args.seed + i for i in range(args.pairs)], "metrics": {}}
        for m in metrics:
            name = m["name"]
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            row["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                    "bound": m["bound"]} | compare(
                vals["parent"], vals["change"], m["better"] == "lower")
        # an operation that raised in every round of a run has no median
        # line there; compare only those timed in every run of both sides
        ops = [op for op in runs["parent"][0]["ops"]
               if all(op in r["ops"] for side in runs.values() for r in side)]
        row["operations"] = {op: {"unit": "s", "better": "lower"} | compare(
            [r["ops"][op] for r in runs["parent"]],
            [r["ops"][op] for r in runs["change"]], True) for op in ops}
        for side in runs:
            row[f"{side}_failed"] = sum(r["failed"] for r in runs[side])
            row[f"{side}_attempted"] = sum(r["attempted"] for r in runs[side])
            row[f"{side}_correct"] = all(r["correct"] for r in runs[side])
        results[wl] = row

    import numpy
    import scipy

    info = {s: checkout_info(p) for s, p in sides.items()}
    doc = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "platform": platform.platform(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        "run_seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "checkouts": info,
        "net_lines": {k: info["change"][k] - info["parent"][k]
                      for k in ("src_lines", "test_lines")},
        "workloads": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
