"""Command-line harness: verify identity families / transformation laws,
evaluate quantities at points, list or export the catalog.

Exit codes: 0 all pass, 1 an identity failed its tolerance (a non-finite
residual fails), 2 bad configuration, parse error or arithmetic overflow,
3 a structural certification failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import catalog, conformal, curvature, identities
from .catalog import CatalogError
from .exprlang import GeometrySpec, ParseError
from .geometry import GeometryInstance, MetricError
from .jets import JetConfig, JetError
from .report import VerificationReport, geometry_hash, TOOL_VERSION

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3


def _jet_order(args) -> int:
    if args.jet_order is not None:
        return args.jet_order
    env = os.environ.get("CTL_JET_ORDER")
    return int(env) if env else 6


def _load_geometry(args) -> GeometryInstance:
    order = _jet_order(args)
    if args.spec:
        with open(args.spec) as fh:
            spec = GeometrySpec.from_json(fh.read())
        return GeometryInstance(spec, JetConfig(order))
    params = {}
    if args.dim is not None:
        params["dim"] = args.dim
    if args.radius is not None:
        params["radius"] = args.radius
    if getattr(args, "seed", None) is not None:
        params["seed"] = args.seed
    entry = catalog.load(args.catalog, jet_order=order, **params)
    return entry.geometry


def _tol_overrides(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key not in ("A", "B", "C") or not val:
            raise ParseError(f"bad tolerance override {part!r}", 0)
        out[key] = float(val)
    return out


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _random_u(geometry: GeometryInstance, seed: int) -> str:
    rng = np.random.default_rng(seed + 99)
    return catalog._poly_text(rng, geometry.spec.coords, degree=2, scale=0.3)


def cmd_verify(args) -> int:
    geometry = _load_geometry(args)
    overrides = _tol_overrides(args.tol_class)
    rows = []
    suites = args.suite.split(",") if args.suite else []
    ids = args.id.split(",") if args.id else []
    law_ids = args.law.split(",") if args.law else []
    run_identities = bool(suites or ids) or not law_ids
    points = geometry.sample_points(args.points, args.seed)
    if run_identities:
        records = identities.select_records(suites or None, ids or None)
        rows += identities.verify(geometry, records, points, overrides)
    if law_ids:
        laws = conformal.select_laws(None if law_ids == ["all"] else law_ids)
        u_text = geometry.spec.u or _random_u(geometry, args.seed)
        pair = conformal.rescale(geometry, u_text)
        rows += conformal.verify_transform(pair, laws, points, overrides)
    report = VerificationReport(
        tool_version=TOOL_VERSION,
        geometry=geometry.name,
        geometry_hash=geometry_hash(geometry.spec.to_json()),
        dim=geometry.dim,
        jet_order=geometry.config.order,
        seed=args.seed,
        points=args.points,
        rows=rows,
    )
    _emit(args, report.to_json() if args.format == "json" else report.table())
    return EXIT_PASS if report.overall == "pass" else EXIT_FAIL


_QUANTITIES = {
    "riemann": lambda g, p: curvature.riemann(g, p).components,
    "ricci": lambda g, p: curvature.ricci(g, p).components,
    "scalar": lambda g, p: curvature.scalar(g, p),
    "schouten": lambda g, p: curvature.schouten(g, p).components,
    "weyl": lambda g, p: curvature.weyl(g, p).components,
    "einstein": lambda g, p: curvature.einstein(g, p).components,
    "cotton": lambda g, p: curvature.cotton(g, p).components,
    "cotton_weyl_div": lambda g, p: curvature.cotton(g, p, "weyl_div").components,
    "bach": lambda g, p: curvature.bach(g, p).components,
    "bach_weyl_div": lambda g, p: curvature.bach(g, p, "weyl_div").components,
    "d_tensor": lambda g, p: curvature.d_tensor(g, p).components,
    "dx_tensor": lambda g, p: curvature.dx_tensor(g, p).components,
    "duf_tensor": lambda g, p: curvature.duf_tensor(g, p).components,
    "dux_tensor": lambda g, p: curvature.dux_tensor(g, p).components,
    "christoffel": lambda g, p: g.christoffel(p).components,
    "lie_metric": lambda g, p: curvature.bundle(g, p).on("lie_metric"),
}


def _fmt(v: float) -> str:
    if v == 0.0 or 1e-4 <= abs(v) < 1e16:
        return f"{v:.12f}"
    return f"{v:.12e}"


def cmd_eval(args) -> int:
    geometry = _load_geometry(args)
    if args.quantity not in _QUANTITIES:
        raise ParseError(
            f"unknown quantity {args.quantity!r}; known: "
            f"{', '.join(sorted(_QUANTITIES))}", 0)
    point = np.array([float(x) for x in args.point.split(",")])
    if len(point) != geometry.dim:
        raise ParseError(
            f"point has {len(point)} components, chart has {geometry.dim}", 0)
    value = _QUANTITIES[args.quantity](geometry, point)
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
        entry = catalog.load(args.export, dim=args.dim) if args.dim \
            else catalog.load(args.export)
        _emit(args, entry.spec.to_json())
        return EXIT_PASS
    if args.list_identities:
        import json
        fam = None if args.list_identities == "all" else args.list_identities
        _emit(args, json.dumps(identities.list_identities(fam), indent=2))
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
                                   "(COMM,SOL,CE,CGRS,GRS,CGERS,HIGH)")
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
                   help="dump the identity registry (a family name or 'all')")
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
    except (CatalogError, identities.CertificationError) as err:
        print(f"certification error: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (ParseError, JetError, MetricError, KeyError, OSError,
            ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
