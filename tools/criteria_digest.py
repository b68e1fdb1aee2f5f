"""Run every acceptance criterion of one checkout once and write the sha256 of each summary.

    python3 tools/criteria_digest.py ../parent parent.json
    python3 tools/criteria_digest.py . change.json

The checkout's ``src/`` is put first on ``sys.path`` and its
``tests/test_acceptance.py`` is imported; each criterion then runs once,
one after another, with the suite's seed.  Each summary is encoded with the
suite's own ``_canonical``, the byte string that criterion 18 compares, and
written to OUT.json with its sha256 and wall time.  Two checkouts whose
files hold the same digests give byte-identical acceptance summaries.

The criteria run in one process and never two at once: the largest one
peaks at about 2 GB.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path


def load_suite(root: Path):
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location(
        "criteria_suite", root / "tests" / "test_acceptance.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to run")
    ap.add_argument("out", type=Path, help="JSON file to write")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    suite = load_suite(root)
    criteria = {}
    for num in sorted(suite.CRITERIA):
        start = time.perf_counter()
        text = suite._canonical(suite.CRITERIA[num](suite.SEED))
        wall = time.perf_counter() - start
        criteria[str(num)] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                              "wall_s": round(wall, 2), "summary": json.loads(text)}
        print(f"criterion {num:02d}: {criteria[str(num)]['sha256'][:16]} "
              f"({wall:.1f} s)", file=sys.stderr, flush=True)
    doc = {"checkout": str(root), "seed": suite.SEED, "criteria": criteria}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
