#!/usr/bin/env python3
"""Time each COMM record's evaluator per point, on warm values.

This is the identity-evaluation layer on its own: no jets are built while
it is timed.  For each ``random`` chart of the full-suite schedule (dims
3, 4 and 5) it evaluates the COMM records once at one point, to learn
which frame values they read and how many points a block holds
(``identities.BLOCK_BYTES`` over the bytes of those values, as the
verification driver sizes it).  It then reads those values for a chunk
of that many points (``geometry.Chunk``), as one block, and times every
record's evaluator on the block.  It
prints each record's time per point in ms, the best of ``--repeat``
runs, one column per dim, and the sum of each column.

Usage:
    PYTHONPATH=src python scripts/evaluator_bench.py [--repeat N]
"""

import argparse
import time

from ctlab import catalog, identities
from ctlab.geometry import Chunk
from ctlab.identities import EvalContext, select_records

CHARTS = [(3, 1), (4, 2), (5, 3)]   # (dim, entry seed) of ``random``


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def per_point_ms(dim: int, seed: int, repeat: int) -> tuple[int, dict]:
    """The block size and each runnable COMM record's ms per point."""
    g = catalog.load("random", dim=dim, seed=seed, certify=False).geometry
    have = identities._available(g)
    records = [r for r in select_records(["COMM"])
               if identities._skip_reason(g, r, have) is None]
    g = g.at_order(max(r.min_order for r in records))
    first = EvalContext(g, g.sample_points(1, 0)[0])
    for r in records:
        r.evaluate(first)
    keys = list(first.values)
    nbytes = sum(v.nbytes for v in first.values.values())
    size = max(1, identities.BLOCK_BYTES // nbytes)
    block = EvalContext.of(Chunk([g], g.sample_points(size, 1)))
    for r in records:
        r.evaluate(block)  # reads the chunk's values, warm from now on
    assert list(block.values) == keys
    return size, {r.id: 1e3 * best(lambda: r.evaluate(block), repeat) / size
                  for r in records}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    sizes, columns = zip(*(per_point_ms(dim, seed, args.repeat)
                           for dim, seed in CHARTS))
    print(f"{'ms per point':30}" + "".join(f"{f'dim {d}':>10}"
                                           for d, _ in CHARTS))
    print(f"{'points a block':30}" + "".join(f"{n:>10d}" for n in sizes))
    for rid in (r.id for r in select_records(["COMM"])):
        print(f"{rid:30}" + "".join(
            f"{col[rid]:>10.3f}" if rid in col else f"{'-':>10}"
            for col in columns))
    print(f"{'total':30}" + "".join(f"{sum(col.values()):>10.3f}"
                                    for col in columns))


if __name__ == "__main__":
    main()
