#!/usr/bin/env python3
"""Compare two report trees written by ``run_full_suite.py --json-dir``.

Rows are matched by file and position.  A file is keyed by its name
without the leading ``NN-`` schedule index that ``run_full_suite.py``
gives it, that is by geometry and suite, so a schedule entry added before
it does not unmatch it.  The script prints how many rows it compared,
every row mismatch with what differs (``tol 1e-07 -> 1e-09``, or the
tree that lacks the row), every status change, every moved residual, and
how many residuals moved and by how much at most.  It exits 1 on any
status change or on trees whose reports do not match (a file, a row id,
a tolerance or a residual present on one side only, two files of one
tree with one key, a report header field of ``HEADER`` that differs, or
no rows at all); with ``--exact`` also when any residual moved, and with
``--max-delta D`` when any residual moved by more than ``D``; else it
exits 0.

Usage:
    python scripts/compare_reports.py A B [--exact] [--max-delta D]
"""

import argparse
import json
import re
import sys
from pathlib import Path


# the report header fields that name what was verified and how; the tool
# version is left out, so that a version bump alone is no mismatch
HEADER = ("geometry", "geometry_hash", "dim", "jet_order", "seed", "points")


def _reports(tree: Path, mismatches: list[str]) -> dict[str, dict]:
    """The reports of ``tree`` by geometry and suite: each file's name
    without its schedule index.  A key two files share is a mismatch."""
    names, out = {}, {}
    for path in sorted(tree.glob("*.json")):
        key = re.sub(r"^\d+-", "", path.name)
        if key in names:
            mismatches.append(f"{tree}: {names[key]} and {path.name} "
                              f"are both {key}")
        names[key] = path.name
        out[key] = json.loads(path.read_text())
    return out


def _rows(reports: dict[str, dict]) -> dict[tuple[str, int], dict]:
    return {(name, k): row for name, doc in reports.items()
            for k, row in enumerate(doc["rows"])}


def _change(field: str, x: dict, y: dict) -> str:
    return f"{field} {x[field]!r} -> {y[field]!r}"


def compare(a: Path, b: Path) -> dict:
    """Rows compared, mismatches, status changes and moved residuals
    (as ``(where, before, after)``) of tree ``b`` against tree ``a``."""
    out = {"compared": 0, "with_residual": 0, "mismatches": [],
           "status_changes": [], "moved": []}
    da, db = _reports(a, out["mismatches"]), _reports(b, out["mismatches"])
    ra, rb = _rows(da), _rows(db)
    for name in sorted(da.keys() & db.keys()):
        for key in HEADER:
            if da[name][key] != db[name][key]:
                out["mismatches"].append(
                    f"{name}:{key} {da[name][key]!r} -> {db[name][key]!r}")
    for key in sorted(ra.keys() | rb.keys()):
        x, y = ra.get(key), rb.get(key)
        where = f"{key[0]}:{(x or y)['id']}"
        if x is None or y is None:
            out["mismatches"].append(f"{where} not in {a if x is None else b}")
            continue
        differ = [_change(field, x, y) for field in ("id", "tol")
                  if x[field] != y[field]]
        if differ:
            out["mismatches"].append(f"{where} {', '.join(differ)}")
            continue
        out["compared"] += 1
        if x["status"] != y["status"]:
            out["status_changes"].append(
                f"{where}: {x['status']} -> {y['status']}")
        if x["max_residual"] is None and y["max_residual"] is None:
            continue
        if x["max_residual"] is None or y["max_residual"] is None:
            out["mismatches"].append(
                f"{where} {_change('max_residual', x, y)}")
            continue
        out["with_residual"] += 1
        if abs(y["max_residual"] - x["max_residual"]):
            out["moved"].append((where, x["max_residual"], y["max_residual"]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--exact", action="store_true",
                    help="also fail when any residual moved")
    ap.add_argument("--max-delta", type=float, default=None, metavar="D",
                    help="also fail when any residual moved by more than D")
    args = ap.parse_args(argv)
    res = compare(args.a, args.b)
    for where in res["mismatches"]:
        print(f"MISMATCH {where}")
    for change in res["status_changes"]:
        print(f"STATUS {change}")
    for where, x, y in res["moved"]:
        print(f"MOVED {where}: {x:.6e} -> {y:.6e}")
    moved = [abs(y - x) for _, x, y in res["moved"]]
    print(f"rows compared: {res['compared']} "
          f"({res['with_residual']} with residuals)")
    print(f"status changes: {len(res['status_changes'])}")
    print(f"residuals moved: {len(moved)}; "
          f"max |delta|: {max(moved, default=0.0):.3e}")
    over = []
    if args.max_delta is not None:
        over = [d for d in moved if not d <= args.max_delta]
        print(f"residuals moved by more than {args.max_delta:.3e}: "
              f"{len(over)}")
    bad = (not res["compared"] or res["mismatches"] or res["status_changes"]
           or (args.exact and res["moved"]) or over)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
