#!/usr/bin/env python3
"""Time point states and curvature bundles built a chunk of points at a time.

This is the microbenchmark behind ``geometry.BLOCK_BYTES`` for chunks.  For
each pass it reads, at one point, the frame values its records read, to
learn which quantities those are and how many points the walker puts in a
chunk (``BLOCK_BYTES`` over the bytes of that point's state and bundle,
marked ``*``).  It then builds, from the tape's root jets, the point state
and the bundle of chunks of 1 to 32 points (``geometry.Chunk``) and every
one of those values for all their points, as ``geometry.point_blocks``
does.  It prints the time per point of a chunk of one and each larger
chunk's speed-up over it.  A chunk whose arrays would exceed ``MAX_BYTES`` is not built (``-``).  Each
time is the best of ``--repeat`` runs.  The passes are the 27 laws on a
conformal pair (both sides) at dims 3 and 4, and COMM on ``random`` at dims
3, 4 and 5.

Usage:
    PYTHONPATH=src python scripts/bundle_block_bench.py [--repeat N]
"""

import argparse
import time

from ctlab import catalog, conformal, identities
from ctlab.geometry import BLOCK_BYTES, Chunk, held_bytes
from ctlab.identities import EvalContext, select_records

PASSES = [
    ("LAW", "conformal_gaussian_plus_killing", {"dim": 3}),
    ("LAW", "conformal_gaussian", {"dim": 4}),
    ("COMM", "random", {"dim": 3, "seed": 1}),
    ("COMM", "random", {"dim": 4, "seed": 2}),
    ("COMM", "random", {"dim": 5, "seed": 3}),
]
CHUNKS = (1, 2, 4, 8, 16, 32)
MAX_BYTES = 32 << 20  # largest chunk this script builds, per geometry


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def setup(suite: str, name: str, params: dict):
    """The pass's geometries at its working order, and for each the
    quantities (name, d) its records read at the first point."""
    g = catalog.load(name, certify=False, **params).geometry
    have = identities._available(g)
    if suite == "LAW":
        records = conformal.select_laws()
    else:
        records = select_records([suite])
    records = [r for r in records
               if identities._skip_reason(g, r, have) is None]
    g = g.at_order(max(r.min_order for r in records))
    tilde = conformal.rescale(g).tilde if suite == "LAW" else None
    c = EvalContext(g, g.sample_points(1, 0)[0], tilde)
    for r in records:
        r.evaluate(c)
    reads = {"b": [], "t": []}
    for side, quantity, d in c.values:
        if quantity is not None:
            reads[side].append((quantity, d))
    sides = [(g, reads["b"])] + ([(tilde, reads["t"])] if tilde else [])
    nbytes = [held_bytes(b.state, b) for b in
              [c.b.bundle] + ([c.t.bundle] if tilde else [])]
    return sides, nbytes


def build(g, block, size: int, values, reads) -> None:
    """Every read value of a chunk of ``size`` points, from its roots."""
    roots = [values[r].coeffs[:, :size].T for r in g.spec.tape.roots]
    b = Chunk([g], block[:size], [roots]).bundle()
    for quantity, d in reads:
        b.frames(quantity, d)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    for suite, name, params in PASSES:
        sides, nbytes = setup(suite, name, params)
        for (g, reads), per_point in zip(sides, nbytes):
            chosen = max(1, BLOCK_BYTES // per_point)
            sizes = sorted(set(CHUNKS) | {chosen})
            block = g.sample_points(max(sizes), 1)
            values = g.spec.tape.evaluate(block, g.config.order)
            per = {}
            for size in sizes:
                if size * per_point <= MAX_BYTES:
                    per[size] = best(lambda: build(g, block, size, values,
                                                   reads), args.repeat) / size
            alone = per[1]
            cells = [f"{size:2d}:{alone / per[size]:5.2f}x"
                     + ("*" if size == chosen else " ") if size in per
                     else f"{size:2d}:    - " for size in sizes[1:]]
            print(f"{suite:4} {g.name:32} order {g.config.order} "
                  f"{per_point / 1024:7.1f} KiB/pt  1 point "
                  f"{1e3 * alone:6.2f} ms/pt  " + "  ".join(cells),
                  flush=True)


if __name__ == "__main__":
    main()
