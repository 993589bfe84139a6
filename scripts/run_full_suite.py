#!/usr/bin/env python3
"""Run every identity family on every applicable catalog entry, plus the
full transformation-law suite, and print a compact summary table.

This is the long-form laboratory run; the pytest acceptance module covers
the same ground.  Both use the records' own tolerances, pinned per family
in ``identities._FAMILY``.  Exit code 0 iff nothing failed.

With ``--json-dir DIR`` each entry's report is also written to
``DIR/NN-<geometry>-<suite>.json`` (``VerificationReport.to_json()``), so
two trees can be compared byte for byte with ``diff -r``.

Usage:
    python scripts/run_full_suite.py [--points N] [--seed N] [--json-dir DIR]
"""

import argparse
import re
import sys
import time
from pathlib import Path

from ctlab import catalog, conformal, identities
from ctlab.report import VerificationReport

SCHEDULE = [
    # entry, kwargs, identity families
    ("euclidean", {"dim": 3}, ["COMM", "SOL"]),
    ("euclidean", {"dim": 4}, ["SOL", "HIGH"]),
    ("sphere", {"dim": 3}, ["COMM", "CE"]),
    ("sphere", {"dim": 4, "radius": 2.0}, ["CE"]),
    ("sphere_killing", {"dim": 3}, ["SOL", "GRS"]),
    ("hyperbolic", {"dim": 3}, ["CE"]),
    ("s2xs2", {}, ["COMM"]),
    ("conformal_s2xs2", {"seed": 0}, ["CE"]),
    ("cigar_x_line", {}, ["SOL", "GRS"]),
    ("cigar_x_flat", {"dim": 4}, ["SOL", "GRS", "HIGH"]),
    ("conformal_gaussian", {"dim": 4}, ["CGRS"]),
    ("gaussian_plus_killing", {"dim": 3}, ["SOL", "GRS"]),
    ("conformal_gaussian_plus_killing", {"dim": 3}, ["CGERS", "CGRS"]),
    ("random", {"dim": 3, "seed": 1}, ["COMM"]),
    ("random", {"dim": 4, "seed": 2}, ["COMM"]),
    ("random", {"dim": 5, "seed": 3}, ["COMM"]),
]

LAW_SCHEDULE = [
    ("conformal_gaussian", {"dim": 4}),
    ("conformal_gaussian_plus_killing", {"dim": 3}),
    ("random", {"dim": 4, "seed": 5}),
]


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def summarise(args, k, geometry, suite, rows) -> int:
    """Print entry ``k``'s summary line and its failures, write its report
    if ``--json-dir`` is given, and return how many rows failed."""
    worst = max((r.max_residual for r in rows
                 if r.max_residual is not None), default=0.0)
    npass = sum(r.status == "pass" for r in rows)
    nskip = sum(r.status.startswith("skipped") for r in rows)
    nfail = sum(r.status == "fail" for r in rows)
    if args.json_dir:
        report = VerificationReport.for_geometry(geometry, args.seed,
                                                 args.points, rows)
        slug = re.sub(r"[^A-Za-z0-9]+", "_", geometry.name).strip("_")
        path = Path(args.json_dir) / f"{k:02d}-{slug}-{suite}.json"
        path.write_text(report.to_json() + "\n")
    print(f"{geometry.name:46} {suite:6} {npass:>4} {nskip:>4} "
          f"{nfail:>4} {worst:>14.3e}")
    for r in rows:
        if r.status == "fail":
            print(f"    FAIL {r.id}: {r.max_residual:.3e} > {r.tol:.1e}")
    return nfail


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--points", type=positive, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-dir", help="also write each entry's report JSON "
                                       "to a file in this directory")
    args = ap.parse_args()
    if args.json_dir:
        Path(args.json_dir).mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    failures = 0
    print(f"{'geometry':46} {'suite':6} {'pass':>4} {'skip':>4} "
          f"{'fail':>4} {'worst residual':>14}")
    for k, (name, kw, fams) in enumerate(SCHEDULE):
        g = catalog.load(name, **kw).geometry
        rows = identities.verify(g, identities.select_records(fams),
                                 g.sample_points(args.points, args.seed))
        failures += summarise(args, k, g, "+".join(fams), rows)

    for k, (name, kw) in enumerate(LAW_SCHEDULE, start=len(SCHEDULE)):
        pair = conformal.rescale(catalog.load(name, **kw).geometry)
        rows = conformal.verify_transform(
            pair, conformal.select_laws(),
            pair.base.sample_points(args.points, args.seed))
        failures += summarise(args, k, pair.base, "LAW", rows)

    print(f"\ntotal time {time.time() - t0:.1f}s; "
          f"{'ALL PASS' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
