"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs on its stated geometries and asserts its stated
residual bound.  The records' tolerances are not set here: the structure
families pin theirs in ``identities._FAMILY`` (criteria 3-7 state the same
bounds), and the other records use their class tolerance.
"""

import time

import numpy as np

from ctlab import catalog, conformal, curvature, identities
from ctlab.conformal import rescale, verify_transform
from ctlab.identities import EvalContext, select_records, verify


def _report(num, label, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {label} {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def _worst(rows):
    vals = [r.max_residual for r in rows if r.max_residual is not None]
    return max(vals) if vals else 0.0


def test_criterion_1_comm_on_twenty_random_metrics():
    """COMM family on 20 seeded random metrics in dims 3, 4, 5 at class
    tolerances, 8 points each, within five minutes."""
    start = time.time()
    records = select_records(["COMM"])
    fails = []
    worst = 0.0
    for seed in range(20):
        dim = (3, 4, 5)[seed % 3]
        entry = catalog.load("random", dim=dim, seed=seed, certify=False)
        rows = verify(entry.geometry, records,
                      entry.geometry.sample_points(8, seed + 100))
        fails += [(dim, seed, r.id, r.max_residual)
                  for r in rows if r.status == "fail"]
        worst = max(worst, _worst(rows))
    elapsed = time.time() - start
    _report(1, "COMM on 20 random metrics (dims 3/4/5, 8 pts)",
            not fails and elapsed < 300.0,
            f"worst={worst:.2e} elapsed={elapsed:.1f}s fails={fails}")


def test_criterion_2_transformation_laws():
    """Every transformation law, predicted vs recomputed, at class
    tolerances: on the conformal Gaussian entry and on random (g, u)
    pairs; the 4th/5th-order laws must be included."""
    deep = {"nabla2_ricci", "nabla2_schouten", "nabla_d"}
    seen_deep = set()
    fails = []
    worst = 0.0

    def run(pair, n, seed):
        nonlocal worst
        rows = verify_transform(pair, conformal.select_laws(),
                                pair.base.sample_points(n, seed))
        for r in rows:
            if r.status == "fail":
                fails.append((pair.base.name, r.id, r.max_residual))
            if r.status == "pass" and r.id in deep:
                seen_deep.add(r.id)
        worst = max(worst, _worst(rows))

    run(rescale(catalog.load("conformal_gaussian", dim=4).geometry), 3, 5)
    run(rescale(catalog.load("conformal_gaussian_plus_killing",
                             dim=3).geometry), 3, 6)
    for seed in (0, 1):
        g = catalog.load("random", dim=4, seed=seed, certify=False).geometry
        run(rescale(g), 2, seed)  # random (g, u) pair from the entry's u
    _report(2, "transformation laws (incl. 2nd-derivative and D laws)",
            not fails and seen_deep == deep,
            f"worst={worst:.2e} deep={sorted(seen_deep)} fails={fails}")


def test_criterion_3_sol_family():
    """Gradient-soliton relations and both integrability conditions on the
    flat Gaussian and on the cigar entries, residuals below 1e-8."""
    must = {"sol.defining_gradient", "sol.trace_gradient",
            "sol.scalar_gradient", "sol.ricci_skew_gradient", "sol.hamilton",
            "sol.scalar_evolution_gradient", "sol.cao_chen_first",
            "sol.cao_chen_second"}
    fails, worst = [], 0.0
    for name, kw in (("euclidean", {"dim": 3}), ("cigar_x_line", {})):
        entry = catalog.load(name, **kw)
        rows = verify(entry.geometry, select_records(["SOL"]),
                      entry.geometry.sample_points(8, 3))
        got = {r.id: r for r in rows}
        for rid in must:
            r = got[rid]
            if r.status != "pass" or not r.max_residual < 1e-8:
                fails.append((name, rid, r.status, r.max_residual))
        worst = max(worst, _worst(rows))
    _report(3, "SOL family on Gaussian and cigar at 1e-8", not fails,
            f"worst={worst:.2e} fails={fails}")


def test_criterion_4_ce_family():
    """Conformally-Einstein conditions on three random deformations of the
    product of two spheres, residuals below 1e-7."""
    must = {"ce.first_gn", "ce.second_gn", "ce.lap_scalar"}
    fails, worst = [], 0.0
    for seed in (0, 1, 2):
        entry = catalog.load("conformal_s2xs2", seed=seed)
        rows = verify(entry.geometry, select_records(["CE"]),
                      entry.geometry.sample_points(8, seed + 40))
        got = {r.id: r for r in rows}
        for rid in must:
            r = got[rid]
            if r.status != "pass" or not r.max_residual < 1e-7:
                fails.append((seed, rid, r.status, r.max_residual))
        worst = max(worst, _worst(rows))
    _report(4, "CE family on 3 deformed sphere-products at 1e-7", not fails,
            f"worst={worst:.2e} fails={fails}")


def test_criterion_5_cgrs_family():
    """Conformal gradient soliton conditions on the conformal Gaussian,
    residuals below 1e-7."""
    must = {"cgrs.first", "cgrs.second", "cgrs.second_equivalent",
            "cgrs.duf_vs_tilde", "cgrs.fttk", "cgrs.uttk"}
    fails, worst = [], 0.0
    for seed in (0, 1):
        entry = catalog.load("conformal_gaussian", dim=4, seed=seed)
        rows = verify(entry.geometry, select_records(["CGRS"]),
                      entry.geometry.sample_points(8, seed + 50))
        got = {r.id: r for r in rows}
        for rid in must:
            r = got[rid]
            if r.status != "pass" or not r.max_residual < 1e-7:
                fails.append((seed, rid, r.status, r.max_residual))
        worst = max(worst, _worst(rows))
    _report(5, "CGRS family on conformal Gaussian at 1e-7", not fails,
            f"worst={worst:.2e} fails={fails}")


def test_criterion_6_grs_cgers_families():
    """Vector-field conditions on Gaussian-plus-rotation (plain and
    conformal) below 1e-7, and the gradient-field degeneration below
    1e-10."""
    fails, worst = [], 0.0
    entry = catalog.load("gaussian_plus_killing", dim=3)
    rows = verify(entry.geometry, select_records(["GRS"]),
                  entry.geometry.sample_points(8, 7))
    got = {r.id: r for r in rows}
    for rid in ("grs.first", "grs.second"):
        r = got[rid]
        if r.status != "pass" or not r.max_residual < 1e-7:
            fails.append((rid, r.status, r.max_residual))
    worst = max(worst, _worst(rows))

    entry = catalog.load("conformal_gaussian_plus_killing", dim=3)
    rows = verify(entry.geometry, select_records(["CGERS"]),
                  entry.geometry.sample_points(8, 8))
    got = {r.id: r for r in rows}
    for rid in ("cgers.first", "cgers.second"):
        r = got[rid]
        if r.status != "pass" or not r.max_residual < 1e-7:
            fails.append((rid, r.status, r.max_residual))
    worst = max(worst, _worst(rows))

    # degeneration: X := grad f reproduces the gradient conditions
    cig = catalog.load("cigar_x_flat", dim=4)
    degen_worst = 0.0
    for p in cig.geometry.sample_points(8, 9):
        c = EvalContext(cig.geometry, p)
        lg, rg = identities.grs_first(c)
        ls, rs = identities.sol_cao_chen_first(c)
        degen_worst = max(degen_worst, float(np.abs((lg - rg) - (ls - rs)).max()))
        lg2, rg2 = identities.grs_second(c)
        ls2, rs2 = identities.sol_cao_chen_second(c)
        degen_worst = max(degen_worst, float(np.abs((lg2 - rg2) - (ls2 - rs2)).max()))
    if not degen_worst < 1e-10:
        fails.append(("gradient-field degeneration", degen_worst))
    _report(6, "GRS/CGERS on Gaussian-plus-rotation at 1e-7 (+X=grad f at 1e-10)",
            not fails, f"worst={worst:.2e} degen={degen_worst:.2e} fails={fails}")


def test_criterion_7_high_family():
    """Third and fourth integrability conditions on gradient-soliton
    entries of dimension four, residuals below 1e-6."""
    fails, worst = [], 0.0
    for name in ("cigar_x_flat", "euclidean"):
        entry = catalog.load(name, dim=4)
        rows = verify(entry.geometry, select_records(["HIGH"]),
                      entry.geometry.sample_points(8, 11))
        for r in rows:
            if r.status != "pass" or not r.max_residual < 1e-6:
                fails.append((name, r.id, r.status, r.max_residual))
        worst = max(worst, _worst(rows))
    _report(7, "HIGH family on dim-4 gradient solitons at 1e-6", not fails,
            f"worst={worst:.2e} fails={fails}")


def test_criterion_8_degeneration_lattice():
    """u=0 collapses the conformal families onto the plain ones; constant f
    and zero X collapse them onto the conformally-Einstein conditions; all
    residual differences below 1e-9."""
    from ctlab.exprlang import GeometrySpec
    from ctlab.geometry import GeometryInstance

    def with_fields(spec, **kw):
        args = dict(name=spec.name + "#degen", dim=spec.dim,
                    coords=list(spec.coords), domain=list(spec.domain),
                    metric=[list(r) for r in spec.metric], u=spec.u,
                    f=spec.f, x_components=spec.x_components, lam=spec.lam)
        args.update(kw)
        return GeometryInstance(GeometrySpec(**args))

    worst = 0.0

    def track(val):
        nonlocal worst
        worst = max(worst, float(val))

    # u = 0: CGRS -> SOL on a curved gradient soliton
    g = with_fields(catalog.load("cigar_x_flat", dim=4).spec, u="0")
    for p in g.sample_points(4, 1):
        c = EvalContext(g, p)
        l1, r1 = identities.cgrs_first(c)
        s1, sr1 = identities.sol_cao_chen_first(c)
        track(np.abs((l1 - r1) - (s1 - sr1)).max())
        l2, r2 = identities.cgrs_second(c)
        s2, sr2 = identities.sol_cao_chen_second(c)
        track(np.abs((l2 - r2) - (s2 - sr2)).max())
    # u = 0: CGERS -> GRS
    g = with_fields(catalog.load("gaussian_plus_killing", dim=3).spec, u="0")
    for p in g.sample_points(4, 2):
        c = EvalContext(g, p)
        l1, r1 = identities.cgers_first(c)
        s1, sr1 = identities.grs_first(c)
        track(np.abs((l1 - r1) - (s1 - sr1)).max())
        l2, r2 = identities.cgers_second(c)
        s2, sr2 = identities.grs_second(c)
        track(np.abs((l2 - r2) - (s2 - sr2)).max())
    # f constant: CGRS -> CE; X = 0: CGERS -> CE
    ce_spec = catalog.load("conformal_s2xs2", seed=0).spec
    gf = with_fields(ce_spec, f="1.5")
    gx = with_fields(ce_spec, x_components=["0"] * 4)
    for p in gf.sample_points(4, 3):
        cf = EvalContext(gf, p)
        l1, r1 = identities.cgrs_first(cf)
        ce1, _ = identities.ce_first_gn(cf)
        track(np.abs((l1 - r1) - ce1).max())
        l2, r2 = identities.cgrs_second(cf)
        ce2, _ = identities.ce_second_gn(cf)
        track(np.abs((l2 - r2) - ce2).max())
        cx = EvalContext(gx, p)
        l1, r1 = identities.cgers_first(cx)
        ce1, _ = identities.ce_first_gn(cx)
        track(np.abs((l1 - r1) - ce1).max())
        l2, r2 = identities.cgers_second(cx)
        ce2, _ = identities.ce_second_gn(cx)
        track(np.abs((l2 - r2) - ce2).max())
    _report(8, "degeneration lattice at 1e-9", worst < 1e-9,
            f"worst={worst:.2e}")


def test_criterion_9_known_values():
    """Closed-form anchors: sphere scalar curvature, vanishing Weyl in
    dimension three, and a fully flat curvature stack."""
    ok = True
    detail = []
    for dim, radius in ((3, 1.0), (4, 2.0)):
        g = catalog.load("sphere", dim=dim, radius=radius).geometry
        expect = dim * (dim - 1) / radius**2
        rel = max(abs(curvature.bundle(g, p).on("scalar") / expect - 1)
                  for p in g.sample_points(8, 13))
        detail.append(f"S({dim},{radius})rel={rel:.1e}")
        ok &= rel < 1e-9
    g3 = catalog.load("random", dim=3, seed=5, certify=False).geometry
    wmax = max(np.abs(curvature.bundle(g3, p).on("weyl")).max()
               for p in g3.sample_points(8, 14))
    detail.append(f"weyl3={wmax:.1e}")
    ok &= wmax < 1e-10
    flat = catalog.load("euclidean", dim=4).geometry
    fmax = 0.0
    for p in flat.sample_points(8, 15):
        for q in ("riemann", "ricci", "schouten", "weyl", "cotton", "bach",
                  "einstein"):
            arr = np.asarray(curvature.bundle(flat, p).on(q))
            fmax = max(fmax, float(np.abs(arr).max()))
        fmax = max(fmax, abs(curvature.bundle(flat, p).on("scalar")))
    detail.append(f"flat={fmax:.1e}")
    ok &= fmax < 1e-12
    _report(9, "known values (sphere S, Weyl=0 in 3d, flat stack)", ok,
            " ".join(detail))


def test_criterion_10_deterministic_reports():
    """Identical configuration gives byte-identical JSON reports."""
    from ctlab.cli import main
    import tempfile, os
    outputs = []
    with tempfile.TemporaryDirectory() as d:
        for tag in ("a", "b"):
            path = os.path.join(d, tag + ".json")
            code = main(["verify", "--catalog", "random", "--dim", "3",
                         "--suite", "COMM", "--seed", "9", "--points", "3",
                         "--format", "json", "--out", path])
            assert code == 0
            outputs.append(open(path, "rb").read())
    _report(10, "byte-identical reports for identical config",
            outputs[0] == outputs[1])
