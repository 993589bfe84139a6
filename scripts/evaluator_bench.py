#!/usr/bin/env python3
"""Time each record's evaluator per point, on warm values.

This is the identity-evaluation layer on its own: no jets are built while
it is timed.  It times the COMM records on each ``random`` chart of the
full-suite schedule (dims 3, 4 and 5), and the 27 transformation laws on
each conformal pair of ctbench's ``laws-many-points`` workload.  For each
chart it evaluates the records that run there once at one point, to learn
which frame values they read and how many points a block holds
(``identities.BLOCK_BYTES`` over the bytes of those values, as the
verification driver sizes it).  It then reads those values for a chunk
of that many points (``geometry.Chunk``), as one block, and times every
record's evaluator on the block.  It prints two tables, COMM and the
laws, with each record's time per point in ms, the best of ``--repeat``
runs, one column per chart, and the sum of each column.

Usage:
    PYTHONPATH=src python scripts/evaluator_bench.py [--repeat N]
"""

import argparse
import time

from ctlab import catalog, conformal, identities
from ctlab.geometry import Chunk
from ctlab.identities import EvalContext, select_records

CHARTS = [(3, 1), (4, 2), (5, 3)]   # (dim, entry seed) of ``random``
LAW_PAIRS = [("conformal_gaussian", dict(dim=4)),
             ("conformal_gaussian_plus_killing", dict(dim=3)),
             ("random", dict(dim=4, seed=5))]


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def per_point_ms(g, tilde, records, repeat: int) -> tuple[int, dict]:
    """The block size and each of ``records``' ms per point on geometry
    ``g``, with ``tilde`` as the rescaled geometry if it is not None."""
    g = g.at_order(max(r.min_order for r in records))
    geometries = [g]
    if tilde is not None:
        tilde = tilde.at_order(g.config.order)
        geometries.append(tilde)
    first = EvalContext(g, g.sample_points(1, 0)[0], tilde)
    for r in records:
        r.evaluate(first)
    keys = list(first.values)
    nbytes = sum(v.nbytes for v in first.values.values())
    size = max(1, identities.BLOCK_BYTES // nbytes)
    block = EvalContext.of(Chunk(geometries, g.sample_points(size, 1)))
    for r in records:
        r.evaluate(block)  # reads the chunk's values, warm from now on
    assert list(block.values) == keys
    return size, {r.id: 1e3 * best(lambda: r.evaluate(block), repeat) / size
                  for r in records}


def comm_column(dim: int, seed: int, repeat: int) -> tuple[int, dict]:
    """The COMM records that run on ``random(dim, seed)``."""
    g = catalog.load("random", dim=dim, seed=seed, certify=False).geometry
    have = identities._available(g)
    records = [r for r in select_records(["COMM"])
               if identities._skip_reason(g, r, have) is None]
    return per_point_ms(g, None, records, repeat)


def law_column(name: str, params: dict, repeat: int) -> tuple[int, dict]:
    """The laws that run on the conformal pair of entry ``name``: those
    a one-point verification of the pair does not skip."""
    pair = conformal.rescale(catalog.load(name, **params).geometry)
    laws = conformal.select_laws()
    rows = conformal.verify_transform(pair, laws,
                                      pair.base.sample_points(1, 0))
    records = [r for r, row in zip(laws, rows)
               if not row.status.startswith("skipped")]
    return per_point_ms(pair.base, pair.tilde, records, repeat)


def table(title: str, heads: list[str], ids: list[str], results) -> None:
    sizes, columns = zip(*results)
    print(f"{title:30}" + "".join(f"{h:>10}" for h in heads))
    print(f"{'points a block':30}" + "".join(f"{n:>10d}" for n in sizes))
    for rid in ids:
        print(f"{rid:30}" + "".join(
            f"{col[rid]:>10.3f}" if rid in col else f"{'-':>10}"
            for col in columns))
    print(f"{'total':30}" + "".join(f"{sum(col.values()):>10.3f}"
                                    for col in columns))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    table("COMM, ms per point", [f"dim {d}" for d, _ in CHARTS],
          [r.id for r in select_records(["COMM"])],
          [comm_column(dim, seed, args.repeat) for dim, seed in CHARTS])
    print()
    heads = [f"pair {n}" for n in range(1, len(LAW_PAIRS) + 1)]
    for head, (name, params) in zip(heads, LAW_PAIRS):
        given = ", ".join(f"{k}={v}" for k, v in params.items())
        print(f"{head}: {name}({given})")
    table("laws, ms per point", heads,
          [r.id for r in conformal.select_laws()],
          [law_column(name, params, args.repeat)
           for name, params in LAW_PAIRS])


if __name__ == "__main__":
    main()
