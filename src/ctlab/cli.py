"""Command-line harness: verify identity families / transformation laws,
evaluate quantities at points, list or export the catalog.

Exit codes: 0 all pass, 1 an identity failed its tolerance (a non-finite
residual fails), 2 bad configuration (an unknown catalog entry, or a
parameter the entry does not take), parse error or arithmetic overflow,
3 a structural certification failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import catalog, conformal, curvature, identities
from .catalog import CatalogError
from .exprlang import GeometrySpec, ParseError
from .geometry import GeometryInstance, MetricError
from .jets import JetConfig, JetError
from .report import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3


def _jet_order(args) -> int:
    if args.jet_order is not None:
        return args.jet_order
    env = os.environ.get("CTL_JET_ORDER")
    try:
        return int(env) if env else 6
    except ValueError:
        raise ValueError(f"CTL_JET_ORDER={env!r} is not an integer") from None


def _entry_params(name: str, args) -> dict:
    """The parameters of catalog entry ``name`` given on the command line.
    ``--dim`` and ``--radius`` go to the entry as given, so one it does not
    take is an error; ``--seed`` goes only to an entry that takes a seed,
    and is otherwise just the sampling seed."""
    params = {k: getattr(args, k) for k in ("dim", "radius")
              if getattr(args, k, None) is not None}
    if getattr(args, "seed", None) is not None \
            and "seed" in catalog.parameters(name):
        params["seed"] = args.seed
    return params


def _load_geometry(args) -> GeometryInstance:
    order = _jet_order(args)
    if args.spec:
        given = [f"--{k}" for k in ("dim", "radius")
                 if getattr(args, k) is not None]
        if given:
            raise ValueError(f"a --spec file fixes its own chart; "
                             f"{' and '.join(given)} cannot be given with it")
        with open(args.spec) as fh:
            spec = GeometrySpec.from_json(fh.read())
        return GeometryInstance(spec, JetConfig(order))
    entry = catalog.load(args.catalog, jet_order=order,
                         **_entry_params(args.catalog, args))
    return entry.geometry


def _tol_overrides(text: str | None) -> dict[str, float]:
    """Class tolerances from ``A=1e-8,B=1e-6``.  Each must be positive and
    finite: a tolerance of 0, below 0 or NaN fails every row, and one of
    inf passes every row, so no check could go the other way."""
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key not in identities.TOL_CLASS or not val:
            raise ValueError(f"bad tolerance override {part!r}")
        try:
            tol = float(val)
        except ValueError:
            raise ValueError(f"bad tolerance override {part!r}") from None
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tolerance override {part!r} must be a positive "
                             f"finite number")
        out[key] = tol
    return out


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_verify(args) -> int:
    if args.points < 1:
        raise ValueError(f"--points {args.points}: verification needs at "
                         f"least one point")
    geometry = _load_geometry(args)
    overrides = _tol_overrides(args.tol_class)
    suites = args.suite.split(",") if args.suite else []
    ids = args.id.split(",") if args.id else []
    law_ids = args.law.split(",") if args.law else []
    records, laws = [], []
    if suites or ids or not law_ids:
        records = identities.select_records(suites or None, ids or None)
    if law_ids:
        laws = conformal.select_laws(None if law_ids == ["all"] else law_ids)
    try:
        points = geometry.sample_points(args.points, args.seed)
    except MemoryError as err:
        raise ValueError(f"--points {args.points}: "
                         f"{err or 'not enough memory'}") from None
    if laws and geometry.spec.u is None:
        # the laws need a u field: they run on a copy carrying a random one
        pair = conformal.rescale(
            geometry, catalog.random_u(geometry.spec.coords, args.seed + 99))
        rows = (identities.verify(geometry, records, points, overrides)
                + conformal.verify_transform(pair, laws, points, overrides))
    else:
        # one pass, so each point's states serve identities and laws alike
        rows = identities.verify(geometry, records + laws, points, overrides)
    report = VerificationReport.for_geometry(geometry, args.seed,
                                             args.points, rows)
    _emit(args, report.to_json() if args.format == "json" else report.table())
    return EXIT_PASS if report.overall == "pass" else EXIT_FAIL


def _reader(name: str):
    """How ``ctlab eval`` reads ``name``: from the point's curvature bundle,
    except the Christoffel symbols, which are not a tensor."""
    if name == "christoffel":
        return lambda g, p: g.christoffel(p).components
    return lambda g, p: curvature.bundle(g, p).on(name)


# each quantity with the metric derivative depth it reads, so that
# ``ctlab eval`` builds its point at no more jet order than it needs
_QUANTITIES = {name: (depth, _reader(name)) for name, depth in {
    "riemann": 2, "ricci": 2, "scalar": 2, "schouten": 2, "weyl": 2,
    "einstein": 2, "cotton": 3, "cotton_weyl_div": 3, "bach": 4,
    "bach_weyl_div": 4, "d_tensor": 2, "dx_tensor": 2, "duf_tensor": 2,
    "dux_tensor": 2, "christoffel": 1, "lie_metric": 1,
}.items()}


def _fmt(v: float) -> str:
    if v == 0.0 or 1e-4 <= abs(v) < 1e16:
        return f"{v:.12f}"
    return f"{v:.12e}"


def cmd_eval(args) -> int:
    geometry = _load_geometry(args)
    if args.quantity not in _QUANTITIES:
        raise ValueError(
            f"unknown quantity {args.quantity!r}; known: "
            f"{', '.join(sorted(_QUANTITIES))}")
    try:
        point = np.array([float(x) for x in args.point.split(",")])
    except ValueError:
        raise ValueError(f"bad --point {args.point!r}") from None
    if len(point) != geometry.dim:
        raise ValueError(
            f"point has {len(point)} components, chart has {geometry.dim}")
    depth, quantity = _QUANTITIES[args.quantity]
    value = quantity(geometry.at_depth(depth), point)
    lines = [f"# {args.quantity} on {geometry.name} at "
             f"({', '.join(_fmt(x) for x in point)})"]
    arr = np.asarray(value)
    if arr.ndim == 0:
        lines.append(_fmt(float(arr)))
    else:
        for idx, v in np.ndenumerate(arr):
            lines.append(" ".join(str(i + 1) for i in idx) + "  " + _fmt(v))
    _emit(args, "\n".join(lines))
    return EXIT_PASS


def cmd_catalog(args) -> int:
    if args.export:
        entry = catalog.load(args.export, **_entry_params(args.export, args))
        _emit(args, entry.spec.to_json())
        return EXIT_PASS
    if args.list_identities:
        import json
        fam = args.list_identities
        records = (conformal.select_laws() if fam == "LAW" else
                   identities.select_records(None if fam == "all" else [fam]))
        _emit(args, json.dumps(identities.list_identities(records), indent=2))
        return EXIT_PASS
    lines = []
    rows = []
    for name in catalog.names():
        entry = catalog.load(name, certify=False)
        claims = ", ".join(c.kind for c in entry.claims) or "-"
        rows.append({"name": name, "claims": [c.kind for c in entry.claims],
                     "note": entry.note})
        lines.append(f"{name:34} {claims}")
    if args.format == "json":
        import json
        _emit(args, json.dumps(rows, indent=2))
    else:
        _emit(args, "\n".join(lines))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ctlab",
        description="jet-exact verification of curvature and soliton identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--catalog", help="catalog entry name")
        p.add_argument("--spec", help="path to a geometry JSON file")
        p.add_argument("--dim", type=int, help="dimension for catalog entries")
        p.add_argument("--radius", type=float, help="radius for sphere-type entries")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampling and random entries")
        p.add_argument("--jet-order", type=int, default=None,
                       help="truncation order (default 6, env CTL_JET_ORDER)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", help="write output to a file")

    v = sub.add_parser("verify", help="run identity families or law suites")
    common(v)
    v.add_argument("--suite", help="comma-separated families "
                                   f"({','.join(identities.FAMILIES)})")
    v.add_argument("--id", help="comma-separated identity ids")
    v.add_argument("--law", help="comma-separated law ids, or 'all'")
    v.add_argument("--points", type=int, default=8)
    v.add_argument("--tol-class", help="override class tolerances, e.g. A=1e-8,B=1e-6")
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eval", help="print a quantity's orthonormal components")
    common(e)
    e.add_argument("--quantity", required=True)
    e.add_argument("--point", required=True, help="comma-separated coordinates")
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("catalog", help="list entries and claims")
    c.add_argument("--format", choices=("table", "json"), default="table")
    c.add_argument("--export", help="dump one entry as a GeometrySpec JSON")
    c.add_argument("--dim", type=int)
    c.add_argument("--list-identities", metavar="FAMILY",
                   help="dump the identity registry (a family name, 'all', "
                        "or LAW for the transformation laws)")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command in ("verify", "eval"):
        if bool(args.catalog) == bool(args.spec):
            ap.error("provide exactly one of --catalog or --spec")
    try:
        return args.fn(args)
    except identities.CertificationError as err:
        print(f"certification error: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (CatalogError, ParseError, JetError, MetricError, KeyError,
            OSError, ValueError, ArithmeticError) as err:
        msg = err.args[0] if isinstance(err, KeyError) else err
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
