#!/usr/bin/env python3
"""Time a chart's tape over a block of points against point by point.

This is the microbenchmark behind ``geometry.BLOCK_TRIPLES``.  For each
chart and jet order it evaluates the rescaled chart's tape at 8 points one
by one, then over blocks of 2 to 32 points and of the size ``point_blocks``
uses (marked ``*``).  It prints the time per point of each block as a
speed-up over the point-by-point time, next to the block's size in
(point, convolution triple) pairs: a block pays while its jet products
fit in cache.  Each time is the best of ``--repeat`` runs.

Usage:
    PYTHONPATH=src python scripts/tape_block_bench.py [--repeat N]
"""

import argparse
import time

from ctlab import catalog, conformal
from ctlab.geometry import block_size
from ctlab.jets import table

CHARTS = [
    ("conformal_gaussian", {"dim": 4}),
    ("random", {"dim": 3, "seed": 1}),
    ("random", {"dim": 4, "seed": 5}),
    ("random", {"dim": 5, "seed": 3}),
]
BLOCKS = (2, 4, 8, 16, 32)


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    for name, params in CHARTS:
        base = catalog.load(name, certify=False, **params).geometry
        tape = conformal.rescale(base).tilde.spec.tape
        for order in range(2, 7):
            triples = len(table(base.dim, order).mul_i)
            chosen = block_size(base.dim, order)
            points = base.sample_points(max(max(BLOCKS), chosen), 0)
            alone = best(lambda: [tape.evaluate(p, order) for p in points[:8]],
                         args.repeat) / 8
            cells = []
            for size in sorted(set(BLOCKS) | {chosen}):
                per = best(lambda: tape.evaluate(points[:size], order),
                           args.repeat) / size
                mark = "*" if size == chosen else " "
                cells.append(f"{size:2d}:{alone / per:5.2f}x "
                             f"({size * triples:6d}){mark}")
            print(f"{name:18} dim {base.dim} order {order} "
                  f"triples {triples:5d}  alone {1e3 * alone:6.2f} ms/pt  "
                  + "  ".join(cells), flush=True)


if __name__ == "__main__":
    main()
