#!/usr/bin/env python3
"""Time ctlab layer by layer on the charts of the full-suite schedule.

It prints seven tables, each time the best of ``--repeat`` runs:

- Expression-to-jet, behind ``geometry.BLOCK_TRIPLES``: each chart's
  tape, the base one (the tape COMM walks) and the rescaled one, at 8
  points one by one, then over blocks of 2 to 32 points and of the size
  ``block_size(dim, order)`` gives (marked ``*``).  Each block's time per
  point is a speed-up over one by one, next to the floats of one jet of
  the block: its coefficients times the points.  A block pays while those
  fit in cache.
- Point states and curvature bundles, behind ``geometry.BLOCK_BYTES`` for
  chunks: for each pass, on each of its geometries, the walker's first
  chunk (``geometry.first_chunk`` points) and the KiB its state and bundle
  hold once the pass's records have read it, then the point state, the
  bundle and every value those records read, built from the tape's root
  jets for chunks (``geometry.Chunk``) of 1 to 32 points and of the size
  the walker takes after the first chunk (marked ``*``), as
  ``point_blocks`` does.  Each chunk's time per point is a speed-up over a
  chunk of one.  A chunk whose arrays would exceed ``MAX_BYTES`` is not
  built (``-``).
- The curvature tower of each COMM chart at its working order, in ms per
  chunk of one point and of the walker's chunk: the Christoffel symbols
  (``PointState.christoffel``), then the bundle's Riemann build, its
  Ricci, scalar and Schouten builds, and its Weyl build, each timed on its
  own in that order.
- One covariant derivative (``PointState._cov_deriv_once``) of a one-point
  tensor jet, in ms per call by dim, rank and jet order, with every slot
  stored in full and, for ranks 4 to 6, with the two leading antisymmetric
  pairs packed as Riemann-type jets are; and the Christoffel lift that the
  packed calls of a chunk share (``PointState.pair_lift``).  Each shape
  gets one untimed call first, and the state's Christoffel symbols are
  built before the first cell, so no cell pays a one-off cost.
- Each COMM record's evaluator, and each law's, in ms per point on warm
  values (``identities.EvalContext``), over a block of the size the
  verification driver uses: no jets are built while it is timed.  Next
  to it, its ``curvature.einsum`` calls on a block by the path each
  takes: a GEMM, a product with the Kronecker delta written on its
  diagonal, or ``np.einsum``.
- Certification: each hypothesis of each conditional pass,
  ``identities.structure_residuals`` in ms per point on a chunk of the
  size the walker takes after its first, with the chunk's point states
  built untimed and the quantities the hypothesis reads built in the
  timing, as the walk builds them.

The charts are those of ``run_full_suite.py``: its ``random`` COMM entries
(dims 3, 4 and 5) and its conformal pairs (``LAW_SCHEDULE``), and for the
certification table each entry with a conditional family.  Each pass is
set up once, as ``identities.verify`` runs it (:func:`setup`), its
geometries planned for what its records and hypotheses read.

Usage:
    PYTHONPATH=src python scripts/layer_bench.py [--repeat N]
"""

import argparse
import time
from dataclasses import dataclass

import numpy as np

from ctlab import catalog, conformal, curvature, identities
from ctlab.curvature import CurvatureBundle
from ctlab.geometry import (BLOCK_BYTES, Chunk, PointState, TensorJet,
                            block_size, first_chunk, held_bytes)
from ctlab.identities import EvalContext
from ctlab.jets import table
from run_full_suite import LAW_SCHEDULE, SCHEDULE, positive

COMM = [(name, kw) for name, kw, fams in SCHEDULE
        if name == "random" and "COMM" in fams]
PASSES = ([(name, kw, "COMM") for name, kw in COMM]
          + [(name, kw, "LAW") for name, kw in LAW_SCHEDULE])
BLOCKS = (2, 4, 8, 16, 32)
CHUNKS = (1, 2, 4, 8, 16, 32)
CONDITIONAL = [(name, kw, "+".join(fams)) for name, kw, fams in SCHEDULE
               if set(fams) - {"COMM"}]
COV_ORDERS = (1, 2, 3)
MAX_BYTES = 32 << 20  # largest chunk the chunk table builds, per geometry


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@dataclass
class Pass:
    """A verification pass as the driver runs it, learned at its first
    chunk: its suite, the records it runs, its geometries at the working
    order, planned (the base and, if a record reads it, the rescaled one),
    the (side, quantity, d) values its records read, the points of the
    walker's first chunk, the bytes each geometry's state and bundle then
    hold, and how many points the walker puts in a chunk and
    ``identities.verify`` in a block of records after that chunk."""
    suite: str
    records: list
    geometries: list
    reads: list
    first: int
    held: list
    chunk: int
    block: int


def setup(name: str, params: dict, suite: str) -> Pass:
    """The ``suite`` pass (``"LAW"``, or families joined by ``+``) on
    catalog entry ``name``: its records are those that a one-point
    verification does not skip."""
    g = catalog.load(name, certify=False, **params).geometry
    records = (conformal.select_laws() if suite == "LAW"
               else identities.select_records(suite.split("+")))
    have = identities._available(g)
    runnable = [r for r in records
                if identities._skip_reason(g, r, have) is None]
    rows = identities.verify(g, records, g.sample_points(1, 0))
    records = [r for r, row in zip(records, rows)
               if not row.status.startswith("skipped")]
    # identities.verify plans for every record it may run, certified or not
    g = g.at_order(max(r.min_order for r in runnable))
    geometries = identities.planned(
        [g] + ([g.rescaled] if any(r.reads_tilde for r in runnable) else []),
        runnable)
    n = first_chunk(*geometries)
    first = Chunk(geometries, g.sample_points(n, 0))
    c = EvalContext.of(first)
    for r in records:
        r.evaluate(c)
    read = sum(v.nbytes for v in c.values.values())
    return Pass(suite, records, geometries,
                [key for key in c.values if key[1] is not None], n,
                [held_bytes(b) for b in first.bundles], first.fit(),
                max(1, BLOCK_BYTES * n // max(1, read)))


def tape_roots(g, points) -> list:
    """The root jets of ``g``'s tape at ``points``, as a chunk takes them."""
    values = g.spec.tape.evaluate(points, g.config.order)
    return [values[r].coeffs.T for r in g.spec.tape.roots]


def tape_table(repeat: int) -> None:
    """Tape blocks against point by point, on the first conformal pair's
    chart and the COMM charts, each base and rescaled."""
    for name, params in LAW_SCHEDULE[:1] + COMM:
        base = catalog.load(name, certify=False, **params).geometry
        tapes = {"base": base.spec.tape,
                 "rescaled": base.spec.rescaled.tape}
        for order in range(2, 7):
            for label, tape in tapes.items():
                floats = table(base.dim, order).size
                chosen = block_size(base.dim, order)
                points = base.sample_points(max(max(BLOCKS), chosen), 0)
                alone = best(lambda: [tape.evaluate(p, order)
                                      for p in points[:8]], repeat) / 8
                cells = []
                for size in sorted(set(BLOCKS) | {chosen}):
                    per = best(lambda: tape.evaluate(points[:size], order),
                               repeat) / size
                    mark = "*" if size == chosen else " "
                    cells.append(f"{size:2d}:{alone / per:5.2f}x "
                                 f"({size * floats:6d}){mark}")
                print(f"{name:18} {label:8} dim {base.dim} order {order} "
                      f"floats {floats:5d}  alone {1e3 * alone:6.2f} "
                      f"ms/pt  " + "  ".join(cells), flush=True)


def build(g, points, values, reads) -> None:
    """Every read value of a chunk of ``points``, from the tape's root
    jets ``values`` over at least those points."""
    roots = [values[r].coeffs[:, :len(points)].T for r in g.spec.tape.roots]
    b = Chunk([g], points, [roots]).bundle()
    for quantity, d in reads:
        b.frames(quantity, d)


def chunk_table(passes: list, repeat: int) -> None:
    for p in passes:
        for g, side, held in zip(p.geometries, "bt", p.held):
            per_point = held / p.first
            reads = [(quantity, d) for s, quantity, d in p.reads if s == side]
            sizes = sorted(set(CHUNKS) | {p.chunk})
            points = g.sample_points(max(sizes), 1)
            values = g.spec.tape.evaluate(points, g.config.order)
            per = {size: best(lambda: build(g, points[:size], values, reads),
                              repeat) / size
                   for size in sizes if size * per_point <= MAX_BYTES}
            alone = per[1]
            cells = [f"{size:2d}:{alone / per[size]:5.2f}x"
                     + ("*" if size == p.chunk else " ") if size in per
                     else f"{size:2d}:    - " for size in sizes[1:]]
            print(f"{p.suite:4} {g.name:32} order {g.config.order} first "
                  f"{p.first:2d} pts {held / 1024:7.1f} KiB "
                  f"{per_point / 1024:7.1f} KiB/pt  1 point "
                  f"{1e3 * alone:6.2f} ms/pt  " + "  ".join(cells),
                  flush=True)


TOWER = ("christoffel", "riemann", "ricci+scalar+schouten", "weyl")


def tower_rows(passes: list, repeat: int):
    """``(dim, order, points, ms)`` for each pass's base geometry at one
    point and at the walker's chunk: ``ms`` the best time of each build of
    ``TOWER`` on a fresh point state and bundle of that chunk."""
    for p in passes:
        g = p.geometries[0]
        for size in sorted({1, p.chunk}):
            points = g.sample_points(size, 1)
            roots = tape_roots(g, points)

            def builds():
                state = PointState(g, points, roots)
                b = CurvatureBundle(state)
                times = []
                for step in (lambda: state.christoffel,
                             lambda: b.coord("riemann"),
                             lambda: [b.coord(q) for q in
                                      ("ricci", "scalar", "schouten")],
                             lambda: b.coord("weyl")):
                    t0 = time.perf_counter()
                    step()
                    times.append(time.perf_counter() - t0)
                return times

            ms = 1e3 * np.min([builds() for _ in range(repeat)], axis=0)
            yield g.dim, g.config.order, size, ms


def tower_table(passes: list, repeat: int) -> None:
    print("tower ms per chunk: dim order points  "
          + "  ".join(TOWER))
    for dim, order, size, ms in tower_rows(passes, repeat):
        print(f"  {dim}  {order}  {size:2d}  " + "  ".join(
            f"{t:{len(name)}.3f}" for name, t in zip(TOWER, ms)), flush=True)


def cov_deriv_table(repeat: int) -> None:
    """ms per covariant derivative of one point's jet by (dim, rank,
    order), unpacked and, for ranks 4-6, with two packed pairs."""
    print("cov_deriv ms per call, one point: dim rank order  unpacked  "
          "packed  speed-up")
    for name, params in COMM:
        g = catalog.load(name, certify=False, **params
                         ).geometry.at_order(max(COV_ORDERS) + 1)
        dim = g.dim
        point = g.sample_points(1, 1)
        rng = np.random.default_rng(dim)

        def lift():
            state = PointState(g, point)
            state.christoffel  # noqa: B018  (timed apart)
            t0 = time.perf_counter()
            state.pair_lift(max(COV_ORDERS) - 1)
            return time.perf_counter() - t0

        print(f"dim {dim}: Christoffel lift at order {max(COV_ORDERS) - 1} "
              f"{1e3 * min(lift() for _ in range(repeat)):7.3f} ms per chunk")
        state = PointState(g, point)
        state.christoffel  # noqa: B018  (not timed in the first cell)
        for rank in range(7):
            for order in COV_ORDERS:
                shape = (1, table(dim, order).size) + (dim,) * rank
                full = TensorJet(rng.standard_normal(shape), dim, order)
                operands = [full]
                if rank >= 4:
                    a = full.coeffs - full.coeffs.swapaxes(2, 3)
                    operands.append(TensorJet(a - a.swapaxes(4, 5), dim,
                                              order).packed())
                cells = []
                for t in operands:
                    # one-off costs of the shape, and the lift if packed
                    state._cov_deriv_once(t)
                    cells.append(best(lambda: state._cov_deriv_once(t),
                                      repeat))
                print(f"  {dim}  {rank}  {order}  "
                      + "  ".join(f"{1e3 * t:8.3f}" for t in cells)
                      + (f"  {cells[0] / cells[1]:5.2f}x" if len(cells) > 1
                         else ""), flush=True)


PATHS = {curvature._gemm: "GEMM", curvature._delta_product: "delta",
         curvature._numpy: "numpy"}


def einsum_paths(evaluate, c) -> dict:
    """``evaluate(c)``'s calls of ``curvature.einsum`` (evaluators call it
    by the name each module imports), counted by the path each takes:
    GEMM, delta or numpy."""
    counts = dict.fromkeys(PATHS.values(), 0)
    real = curvature.einsum

    def spy(spec, *operands):
        counts[PATHS[curvature._plan(spec, operands)[0]]] += 1
        return real(spec, *operands)

    modules = (curvature, identities, conformal)
    for module in modules:
        module.einsum = spy
    try:
        evaluate(c)
    finally:
        for module in modules:
            module.einsum = real
    return counts


def record_table(title: str, heads: list, ids: list, passes: list,
                 repeat: int) -> None:
    """Each record's ms per point on a block of each pass, one column per
    pass, and each column's sum; then its ``curvature.einsum`` calls on a
    block by path (:func:`einsum_paths`), GEMM/delta/numpy, on each pass
    that runs it if they differ, else once."""
    columns, paths = [], {}
    for p in passes:
        g = p.geometries[0]
        block = EvalContext.of(Chunk(p.geometries,
                                     g.sample_points(p.block, 1)))
        for r in p.records:
            # reads the chunk's values, warm from now on
            counts = "/".join(map(str, einsum_paths(r.evaluate,
                                                    block).values()))
            if counts not in paths.setdefault(r.id, []):
                paths[r.id].append(counts)
        columns.append({r.id: 1e3 * best(lambda: r.evaluate(block), repeat)
                        / p.block for r in p.records})
    print(f"{title:30}" + "".join(f"{h:>10}" for h in heads)
          + "  einsum GEMM/delta/numpy")
    print(f"{'points a block':30}" + "".join(f"{p.block:>10d}"
                                             for p in passes))
    for rid in ids:
        print(f"{rid:30}" + "".join(
            f"{col[rid]:>10.3f}" if rid in col else f"{'-':>10}"
            for col in columns) + "  " + ", ".join(paths.get(rid, ["-"])))
    print(f"{'total':30}" + "".join(f"{sum(col.values()):>10.3f}"
                                    for col in columns))


def cert_rows(passes: list, repeat: int):
    """``(pass, kind, ms)`` for each hypothesis ``kind`` of each pass:
    the best time per point of ``structure_residuals`` on a fresh chunk of
    the walker's size, its point states built before the clock starts."""
    for p in passes:
        g = p.geometries[0]
        points = g.sample_points(p.chunk, 1)
        roots = [tape_roots(geo, points) for geo in p.geometries]
        for kind in dict.fromkeys(r.structure for r in p.records
                                  if r.structure):
            def once():
                c = EvalContext.of(Chunk(p.geometries, points, roots))
                t0 = time.perf_counter()
                identities.structure_residuals(c, kind, g.spec.lam)
                return time.perf_counter() - t0

            yield p, kind, 1e3 * min(once() for _ in range(repeat)) / p.chunk


def cert_table(passes: list, repeat: int) -> None:
    print("certification ms per point: chart, suite, hypothesis, points a "
          "chunk")
    for p, kind, ms in cert_rows(passes, repeat):
        print(f"  {p.geometries[0].name:46} {p.suite:13} {kind:27} "
              f"{p.chunk:3d}  {ms:7.3f}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=positive, default=3)
    args = ap.parse_args()
    tape_table(args.repeat)
    passes = [setup(*p) for p in PASSES]
    chunk_table(passes, args.repeat)
    comm, laws = passes[:len(COMM)], passes[len(COMM):]
    tower_table(comm, args.repeat)
    cov_deriv_table(args.repeat)
    record_table("COMM, ms per point",
                 [f"dim {p.geometries[0].dim}" for p in comm],
                 [r.id for r in identities.select_records(["COMM"])], comm,
                 args.repeat)
    print()
    heads = [f"pair {n}" for n in range(1, len(laws) + 1)]
    for head, (name, params) in zip(heads, LAW_SCHEDULE):
        given = ", ".join(f"{k}={v}" for k, v in params.items())
        print(f"{head}: {name}({given})")
    record_table("laws, ms per point", heads,
                 [r.id for r in conformal.select_laws()], laws, args.repeat)
    print()
    cert_table([setup(*p) for p in CONDITIONAL] + laws, args.repeat)


if __name__ == "__main__":
    main()
