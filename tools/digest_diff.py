"""Compare two criterion digest files written by ``tools/criteria_digest.py``.

    python3 tools/digest_diff.py parent.json change.json

Prints the records whose digests are byte-identical on one line, then, for
every other record, each leaf of its summary that moved as
``path: old -> new`` (a leaf present on one side only reads ``<absent>`` on
the other).  The records are the criteria, by number, and ``kernels``, the
digests of the confluent-kernel sweeps.  Exits 0 either way.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ABSENT = "<absent>"


def leaves(node, path: str = ""):
    """{path: value} for every scalar below node; lists index as [i]."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    out = {}
    for sub, value in items:
        out.update(leaves(value, sub))
    return out


def moved_leaves(old: dict, new: dict) -> list[tuple[str, object, object]]:
    """(path, old, new) for each leaf that differs between two summaries."""
    a, b = leaves(old), leaves(new)
    return [(p, a.get(p, ABSENT), b.get(p, ABSENT))
            for p in sorted(a.keys() | b.keys()) if a.get(p, ABSENT) != b.get(p, ABSENT)]


def records(path: Path) -> dict:
    """{criterion number or "kernels": record} of one digest file."""
    doc = json.loads(path.read_text())
    return {**doc["criteria"], **({"kernels": doc["kernels"]} if "kernels" in doc else {})}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="digest file of the parent")
    ap.add_argument("new", type=Path, help="digest file of the change")
    args = ap.parse_args(argv)
    old, new = records(args.old), records(args.new)
    nums = sorted(old.keys() | new.keys(), key=lambda n: (not n.isdigit(), n.zfill(3)))
    same = [n for n in nums if n in old and n in new and old[n]["sha256"] == new[n]["sha256"]]
    print(f"byte-identical: {', '.join(same) or 'none'} ({len(same)} of {len(nums)})")
    for n in nums:
        if n in same:
            continue
        print(f"criterion {n}:" if n.isdigit() else f"{n}:")
        if n not in old or n not in new:
            print(f"  only in {'new' if n in new else 'old'}")
            continue
        for path, a, b in moved_leaves(old[n]["summary"], new[n]["summary"]):
            print(f"  {path}: {a!r} -> {b!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
