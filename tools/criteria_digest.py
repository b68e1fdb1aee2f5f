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


def in_fresh_process(root: Path, num: int):
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=ctx) as pool:
        return pool.submit(run_criterion, root, num).result()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to run")
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    suite = load_suite(root)
    criteria = {}
    for num in sorted(suite.CRITERIA):
        text, wall, peak_mb = in_fresh_process(root, num)
        criteria[str(num)] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                              "wall_s": round(wall, 2), "peak_mb": round(peak_mb, 1),
                              "summary": json.loads(text)}
        print(f"criterion {num:02d}: {criteria[str(num)]['sha256'][:16]} "
              f"({wall:.1f} s, {peak_mb:.0f} MB)", file=sys.stderr, flush=True)
    doc = {"checkout": str(root), "seed": suite.SEED, "criteria": criteria}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
