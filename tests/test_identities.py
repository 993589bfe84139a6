"""The identity registry: families on their certified geometries, the
degeneration lattice, and the verification driver's bookkeeping."""

import numpy as np
import pytest

from ctlab import catalog, identities
from ctlab.identities import (
    CertificationError,
    EvalContext,
    SolitonData,
    list_identities,
    residual,
    select_records,
    soliton_residual,
    structure_residual,
    verify,
    verify_report,
)


def run_family(entry_name, families, n=2, seed=4, **kw):
    e = catalog.load(entry_name, **kw)
    rows = verify(e.geometry, select_records(families),
                  e.geometry.sample_points(n, seed))
    return {r.id: r for r in rows}


def assert_all_pass(rows, allow_skip=True):
    for r in rows.values():
        assert r.status != "fail", (r.id, r.max_residual)
        if not allow_skip:
            assert r.status == "pass", r.id


# ---------------------------------------------------------------------------
# families on their home geometries
# ---------------------------------------------------------------------------

def test_comm_on_flat():
    rows = run_family("euclidean", ["COMM"], dim=3)
    assert_all_pass(rows)


@pytest.mark.parametrize("dim", [3, 4])
def test_comm_on_random(dim):
    rows = run_family("random", ["COMM"], dim=dim, seed=dim + 1)
    assert_all_pass(rows)
    assert rows["comm.bianchi1"].status == "pass"
    if dim >= 4:
        assert rows["comm.bach_divergence"].status == "pass"


def test_sol_on_gaussian_and_cigar():
    for name, kw in (("euclidean", {"dim": 3}), ("cigar_x_line", {})):
        rows = run_family(name, ["SOL"], **kw)
        assert_all_pass(rows)
        assert rows["sol.cao_chen_first"].status == "pass"
        assert rows["sol.cao_chen_second"].status == "pass"
        assert rows["sol.hamilton"].status == "pass"


def test_ce_on_conformal_s2xs2():
    rows = run_family("conformal_s2xs2", ["CE"], seed=0)
    assert_all_pass(rows, allow_skip=False)


def test_cgrs_on_conformal_gaussian():
    rows = run_family("conformal_gaussian", ["CGRS"], dim=4)
    assert_all_pass(rows, allow_skip=False)


def test_grs_on_killing_entries():
    # the rotational Killing field on the sphere is the adopted sign
    # falsifier for the vector-field integrability conditions
    for name, kw in (("gaussian_plus_killing", {"dim": 3}),
                     ("sphere_killing", {"dim": 3}),
                     ("cigar_x_line", {})):
        rows = run_family(name, ["GRS"], **kw)
        assert_all_pass(rows, allow_skip=False)


def test_cgers_on_conformal_killing():
    rows = run_family("conformal_gaussian_plus_killing", ["CGERS"], dim=3)
    assert_all_pass(rows, allow_skip=False)


def test_high_on_gradient_solitons():
    rows = run_family("cigar_x_flat", ["HIGH"], dim=4)
    assert_all_pass(rows, allow_skip=False)
    rows = run_family("euclidean", ["HIGH"], dim=4)
    assert_all_pass(rows, allow_skip=False)


def test_high_internal_consistency():
    # the second form follows from the first plus the Bach divergence rule;
    # check their mutual difference directly
    e = catalog.load("cigar_x_flat", dim=4)
    for p in e.geometry.sample_points(2, 3):
        c = EvalContext(e.geometry, p)
        m = c.m
        l1, r1 = identities.high_third_1(c)
        l2, r2 = identities.high_third_2(c)
        # (m-2) * third_2 - (m-4)/(m-2) * third_1 should vanish identically
        diff = ((m - 2) * (l2 - r2) - (m - 4) / (m - 2) * (l1 - r1))
        assert np.abs(diff).max() < 1e-8


# ---------------------------------------------------------------------------
# degeneration lattice
# ---------------------------------------------------------------------------

def _with_fields(spec, **kw):
    from ctlab.exprlang import GeometrySpec
    from ctlab.geometry import GeometryInstance
    args = dict(name=spec.name + "#degen", dim=spec.dim,
                coords=list(spec.coords), domain=list(spec.domain),
                metric=[list(r) for r in spec.metric], u=spec.u, f=spec.f,
                x_components=spec.x_components, lam=spec.lam)
    args.update(kw)
    return GeometryInstance(GeometrySpec(**args))


def test_degeneration_u_zero_cgrs_to_sol():
    # on a plain gradient soliton with u = 0, each conformal-gradient
    # identity's two sides coincide with the soliton counterpart's
    base = catalog.load("cigar_x_flat", dim=4).spec
    g = _with_fields(base, u="0")
    for p in g.sample_points(2, 5):
        c = EvalContext(g, p)
        l_cgrs, r_cgrs = identities.cgrs_first(c)
        l_sol, r_sol = identities.sol_cao_chen_first(c)
        assert np.abs((l_cgrs - r_cgrs) - (l_sol - r_sol)).max() < 1e-9
        l2, r2 = identities.cgrs_second(c)
        l2s, r2s = identities.sol_cao_chen_second(c)
        assert np.abs((l2 - r2) - (l2s - r2s)).max() < 1e-9
        assert residual(c.on("duf_tensor"), c.on("d_tensor")) < 1e-9


def test_degeneration_u_zero_cgers_to_grs():
    base = catalog.load("gaussian_plus_killing", dim=3).spec
    g = _with_fields(base, u="0")
    for p in g.sample_points(2, 6):
        c = EvalContext(g, p)
        l1, r1 = identities.cgers_first(c)
        g1, gr1 = identities.grs_first(c)
        assert np.abs((l1 - r1) - (g1 - gr1)).max() < 1e-9
        l2, r2 = identities.cgers_second(c)
        g2, gr2 = identities.grs_second(c)
        assert np.abs((l2 - r2) - (g2 - gr2)).max() < 1e-9
        assert residual(c.on("dux_tensor"), c.on("dx_tensor")) < 1e-9


def test_degeneration_f_const_cgrs_to_ce():
    base = catalog.load("conformal_s2xs2", seed=0).spec
    g = _with_fields(base, f="1.5")
    for p in g.sample_points(2, 7):
        c = EvalContext(g, p)
        l1, r1 = identities.cgrs_first(c)
        ce1, _ = identities.ce_first_gn(c)
        assert np.abs((l1 - r1) - ce1).max() < 1e-9
        # the second conditions coincide after substituting the (certified)
        # first condition into the Cotton contraction
        l2, r2 = identities.cgrs_second(c)
        ce2, _ = identities.ce_second_gn(c)
        assert np.abs((l2 - r2) - ce2).max() < 1e-9


def test_degeneration_x_zero_cgers_to_ce():
    base = catalog.load("conformal_s2xs2", seed=0).spec
    g = _with_fields(base, x_components=["0"] * 4)
    for p in g.sample_points(2, 8):
        c = EvalContext(g, p)
        l1, r1 = identities.cgers_first(c)
        ce1, _ = identities.ce_first_gn(c)
        assert np.abs((l1 - r1) - ce1).max() < 1e-9
        l2, r2 = identities.cgers_second(c)
        ce2, _ = identities.ce_second_gn(c)
        assert np.abs((l2 - r2) - ce2).max() < 1e-9


def test_degeneration_grs_gradient_field_matches_sol():
    # with X := grad f the vector-field conditions reproduce the gradient
    # ones (the cigar entry carries both presentations of the same soliton)
    e = catalog.load("cigar_x_flat", dim=4)
    for p in e.geometry.sample_points(2, 9):
        c = EvalContext(e.geometry, p)
        lg, rg = identities.grs_first(c)
        ls, rs = identities.sol_cao_chen_first(c)
        assert np.abs((lg - rg) - (ls - rs)).max() < 1e-10
        lg2, rg2 = identities.grs_second(c)
        ls2, rs2 = identities.sol_cao_chen_second(c)
        assert np.abs((lg2 - rg2) - (ls2 - rs2)).max() < 1e-10
        assert residual(c.on("dx_tensor"), c.on("d_tensor")) < 1e-10


# ---------------------------------------------------------------------------
# structure residuals / soliton data
# ---------------------------------------------------------------------------

def test_soliton_residual_gaussian():
    e = catalog.load("euclidean", dim=3)
    sol = SolitonData(lam=0.5, flavor="gradient")
    for p in e.geometry.sample_points(2, 1):
        r = soliton_residual(e.geometry, sol, p)
        assert np.abs(r.components).max() < 1e-13


def test_soliton_residual_trivial_einstein():
    # sphere with constant potential: trivial soliton iff lam matches
    base = catalog.load("sphere", dim=3).spec
    g = _with_fields(base, f="0")
    sol = SolitonData(lam=2.0, flavor="gradient")
    for p in g.sample_points(2, 2):
        assert np.abs(soliton_residual(g, sol, p).components).max() < 1e-9


def test_soliton_residual_cigar():
    e = catalog.load("cigar_x_line")
    sol = SolitonData(lam=0.0, flavor="gradient")
    for p in e.geometry.sample_points(3, 3):
        assert np.abs(soliton_residual(e.geometry, sol, p).components).max() < 1e-9


def test_structure_residual_detects_non_soliton():
    g = catalog.load("random", dim=3, seed=1, certify=False).geometry
    p = g.sample_points(1, 1)[0]
    assert structure_residual(g, "gradient_soliton", p, 0.5) > 1e-3


def test_conformal_structure_residuals():
    e = catalog.load("conformal_gaussian", dim=3, seed=5)
    for p in e.geometry.sample_points(2, 2):
        assert structure_residual(e.geometry, "conformal_gradient_soliton",
                                  p, 0.5) < 1e-12
    k = catalog.load("conformal_gaussian_plus_killing", dim=3, seed=5)
    for p in k.geometry.sample_points(2, 2):
        assert structure_residual(k.geometry, "conformal_generic_soliton",
                                  p, 0.5) < 1e-12


# ---------------------------------------------------------------------------
# driver bookkeeping
# ---------------------------------------------------------------------------

def test_skip_reasons_never_silent():
    # no f on the sphere: gradient rows skipped with the reason recorded
    rows = run_family("sphere", ["SOL"], dim=3)
    assert rows["sol.defining_gradient"].status == "skipped(no f)"
    assert rows["sol.defining_generic"].status == "skipped(no X)"


def test_jet_order_guard_reported():
    e = catalog.load("random", dim=3, seed=2, certify=False,
                     jet_order=3)
    rows = {r.id: r for r in verify(
        e.geometry, select_records(["COMM"]),
        e.geometry.sample_points(1, 1))}
    assert rows["comm.hess_sym"].status == "pass"
    assert "jet order" in rows["comm.riem_third"].status


def test_certification_failure_raises():
    # f present but not a soliton potential: conditional family is a hard
    # certification error, never a silent pass
    base = catalog.load("random", dim=3, seed=3, certify=False).spec
    g = _with_fields(base, lam=0.5)
    with pytest.raises(CertificationError):
        verify(g, select_records(["SOL"]), g.sample_points(1, 1))
    rows = verify(g, select_records(["SOL"]), g.sample_points(1, 1),
                  strict_certification=False)
    assert all(r.status.startswith("skipped") for r in rows)
    assert sum("not certified" in r.status for r in rows) >= 15


def test_certification_failure_raises_at_first_point(monkeypatch):
    # a hypothesis that fails at the first point stops the strict driver
    # there, before any other point is evaluated
    base = catalog.load("random", dim=3, seed=3, certify=False).spec
    g = _with_fields(base, lam=0.5)
    real = identities.structure_residual
    seen = set()

    def structure_residual(geometry, kind, point, lam):
        seen.add(tuple(point))
        return real(geometry, kind, point, lam)

    monkeypatch.setattr(identities, "structure_residual", structure_residual)
    with pytest.raises(CertificationError, match="required by sol."):
        verify(g, select_records(["SOL"]), g.sample_points(4, 1))
    assert len(seen) == 1


def test_list_identities_registry():
    assert len(list_identities("HIGH")) == 4
    comm = list_identities("COMM")
    assert len(comm) == 36
    need_f = list_identities(requires="f")
    assert all("f" in r["requires"] for r in need_f)
    assert not any(r["family"] == "CE" for r in need_f)
    everything = list_identities()
    assert [r["id"] for r in everything] == [r.id for r in identities.REGISTRY]
    assert len({r["id"] for r in everything}) == len(everything)


def test_verify_report_round_trip():
    e = catalog.load("euclidean", dim=3)
    rep = verify_report(e.geometry, select_records(["SOL"]), 2, 11)
    assert rep.overall == "pass"
    from ctlab.report import VerificationReport
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()


def test_unknown_selection_errors():
    with pytest.raises(KeyError):
        select_records(["NOPE"])
    with pytest.raises(KeyError):
        select_records(None, ["sol.not_here"])


@pytest.mark.parametrize("bad", [0, -1])
def test_nan_certification_residual_fails(monkeypatch, bad):
    # a NaN hypothesis residual at the first or at the last point fails
    # the certification, in the driver and in the catalog
    e = catalog.load("euclidean", dim=3)
    g = e.geometry
    real = identities.structure_residual

    def poison(points):
        nan_at = tuple(points[bad])

        def structure_residual(geometry, kind, point, lam):
            if tuple(point) == nan_at:
                return float("nan")
            return real(geometry, kind, point, lam)
        return structure_residual

    points = g.sample_points(3, 5)
    monkeypatch.setattr(identities, "structure_residual", poison(points))
    with pytest.raises(CertificationError, match="residual nan"):
        verify(g, select_records(["SOL"]), points)
    rows = verify(g, select_records(["SOL"]), points,
                  strict_certification=False)
    assert all("not certified (residual nan)" in r.status for r in rows
               if r.id.endswith("_gradient"))

    cert_points = g.sample_points(catalog.CERTIFICATION_POINTS,
                                  catalog.CERTIFICATION_SEED)
    monkeypatch.setattr(catalog, "structure_residual", poison(cert_points))
    with pytest.raises(catalog.CatalogError, match="residual nan"):
        catalog.certify_entry(e)


@pytest.mark.parametrize("bad", [0, -1])
def test_nan_residual_fails_and_round_trips(bad):
    from dataclasses import replace
    from ctlab.geometry import point_key
    from ctlab.report import VerificationReport
    g = catalog.load("euclidean", dim=3).geometry
    rec = identities.BY_ID["comm.hess_sym"]
    nan_at = point_key(g.sample_points(3, 5)[bad])

    def evaluate(c):
        lhs, rhs = rec.evaluate(c)
        return (lhs * np.nan if c.point == nan_at else lhs), rhs

    rep = verify_report(g, [replace(rec, evaluate=evaluate)], 3, 5)
    (row,) = rep.rows
    assert row.status == "fail" and np.isnan(row.max_residual)
    back = VerificationReport.from_json(rep.to_json())
    assert back.overall == "fail"
    assert back.to_json() == rep.to_json()
