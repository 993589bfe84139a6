"""The identity registry: families on their certified geometries, the
degeneration lattice, and the verification driver's bookkeeping."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, conformal, curvature, geometry, identities
from ctlab.conformal import select_laws
from ctlab.exprlang import EvalDomainError, GeometrySpec
from ctlab.geometry import (Chunk, GeometryInstance, MetricError, PointState,
                            point_key)
from ctlab.jets import JetConfig
from ctlab.identities import (
    CertificationError,
    EvalContext,
    IdentityRecord,
    list_identities,
    residual,
    select_records,
    structure_residual,
    verify,
)
from ctlab.report import ReportRow, VerificationReport


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

def _gradient_soliton_defect(g, p, lam):
    """max|L - R| of the registry's defining gradient-soliton equation at
    ``p``, taken with the constant ``lam``."""
    c = EvalContext(g, p)
    c.lam = lam
    lhs, rhs = identities.sol_defining_gradient(c)
    return np.abs(lhs - rhs).max()


def test_soliton_residual_gaussian():
    e = catalog.load("euclidean", dim=3)
    for p in e.geometry.sample_points(2, 1):
        assert _gradient_soliton_defect(e.geometry, p, 0.5) < 1e-13


def test_soliton_residual_trivial_einstein():
    # sphere with constant potential: trivial soliton iff lam matches
    base = catalog.load("sphere", dim=3).spec
    g = _with_fields(base, f="0")
    for p in g.sample_points(2, 2):
        assert _gradient_soliton_defect(g, p, 2.0) < 1e-9


def test_soliton_residual_cigar():
    e = catalog.load("cigar_x_line")
    for p in e.geometry.sample_points(3, 3):
        assert _gradient_soliton_defect(e.geometry, p, 0.0) < 1e-9


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
    # certification error, never a silent pass, also when laws whose own
    # hypotheses fail ride in the same call
    base = catalog.load("random", dim=3, seed=3, certify=False).spec
    g = _with_fields(base, lam=0.5)
    with pytest.raises(CertificationError):
        verify(g, select_records(["SOL"]), g.sample_points(1, 1))
    gu = _with_fields(base, lam=0.5, u="0.1*x1*x2")
    with pytest.raises(CertificationError, match="required by sol."):
        verify(gu, select_laws() + select_records(["SOL"]),
               gu.sample_points(1, 1))
    rows = {r.id: r.status for r in verify(gu, select_laws(),
                                           gu.sample_points(1, 1))}
    for law in ("d_tensor", "d_reverse", "nabla_d"):
        assert rows[law].startswith("skipped(hypothesis ")
        assert "not certified (residual " in rows[law]
    assert rows["cotton"] == "pass"


def test_certification_failure_raises_at_first_point(monkeypatch):
    # a hypothesis that fails at the first point stops the strict driver
    # there: the walk's first chunk, all four points, is certified in one
    # call per hypothesis, and no record runs on any point
    base = catalog.load("random", dim=3, seed=3, certify=False).spec
    g = _with_fields(base, lam=0.5)
    points = g.sample_points(4, 1)
    real = identities.structure_residuals
    certified = []

    def structure_residuals(c, kind, lam):
        certified.append(c.points)
        return real(c, kind, lam)

    monkeypatch.setattr(identities, "structure_residuals", structure_residuals)
    spy, seen = _spy(lambda c: c.points)
    with pytest.raises(CertificationError, match="required by sol."):
        verify(g, [spy] + select_records(["SOL"]), points)
    assert certified
    assert all(c == [point_key(p) for p in points] for c in certified)
    assert seen == []


def test_certification_error_mid_walk_leaves_no_entries(monkeypatch):
    # the pass stops at its second point, having walked the points in
    # order; the geometry is already at the working order of SOL, so the
    # walk runs on the caller's chart and configuration, planned
    g = catalog.load("euclidean", dim=3, jet_order=4).geometry
    points = g.sample_points(3, 1)
    real = identities.structure_residuals
    walked = []

    def structure_residuals(c, kind, lam):
        assert c.geometry.spec is g.spec and c.geometry.config is g.config
        walked.extend(c.points)
        bad = np.array([p == point_key(points[1]) for p in c.points])
        return np.where(bad, 1.0, real(c, kind, lam))

    monkeypatch.setattr(identities, "structure_residuals", structure_residuals)
    with pytest.raises(CertificationError, match="required by sol."):
        verify(g, select_records(["SOL"]), points)
    # in walk order, each point once however many hypotheses it has
    assert list(dict.fromkeys(walked))[:2] == [point_key(p)
                                               for p in points[:2]]


def test_list_identities_registry():
    assert len(list_identities(select_records(["HIGH"]))) == 4
    comm = list_identities(select_records(["COMM"]))
    assert len(comm) == 36
    need_f = list_identities([r for r in identities.REGISTRY
                              if "f" in r.requires])
    assert all("f" in r["requires"] for r in need_f)
    assert not any(r["family"] == "CE" for r in need_f)
    everything = list_identities(identities.REGISTRY)
    assert [r["id"] for r in everything] == [r.id for r in identities.REGISTRY]
    assert len({r["id"] for r in everything}) == len(everything)
    # one record of each family and two laws, as declared before records
    # took their defaults from the family: a wrong default fails here
    # (id, requires, structure, min_dim, min_order, tol, reads_tilde)
    want = [
        ("comm.bianchi2", [], None, 2, 3, 1e-7, False),
        ("sol.scalar_gradient", ["f", "lam"], "gradient_soliton", 2, 3,
         1e-8, False),
        ("ce.first_gn", ["lam", "u"], "conformally_einstein", 3, 3, 1e-7,
         False),
        ("cgrs.first", ["f", "lam", "u"], "conformal_gradient_soliton", 3, 3,
         1e-7, False),
        ("grs.second", ["X", "lam"], "generic_soliton", 3, 4, 1e-7, False),
        ("cgers.second", ["X", "lam", "u"], "conformal_generic_soliton", 3,
         4, 1e-7, False),
        ("high.third_1", ["f", "lam"], "gradient_soliton", 4, 4, 1e-6,
         False),
    ]
    dumped = {r["id"]: r for r in everything}
    for id_, requires, structure, min_dim, min_order, tol, tilde in want:
        r = dumped[id_]
        assert (r["requires"], r["structure"], r["min_dim"],
                r["min_jet_order"], r["tol"]) == (
            requires, structure, min_dim, min_order, tol), id_
        assert identities.BY_ID[id_].reads_tilde is tilde, id_
    assert {r.family for r in identities.REGISTRY} == set(identities.FAMILIES)
    for id_, requires, structure, min_dim, min_order, tol in (
            ("d_tensor", ["f", "lam"], "tilde_gradient_soliton", 3, 2, 1e-9),
            ("nabla2_X", ["X"], None, 3, 2, 1e-7)):
        law = conformal.LAWS[id_]
        assert (sorted(law.requires), law.structure, law.min_dim,
                law.min_order, law.tolerance(), law.family,
                law.reads_tilde) == (requires, structure, min_dim, min_order,
                                     tol, "LAW", True), id_


def test_verify_report_round_trip():
    g = catalog.load("euclidean", dim=3).geometry
    rows = verify(g, select_records(["SOL"]), g.sample_points(2, 11))
    rep = VerificationReport.for_geometry(g, 11, 2, rows)
    assert rep.overall == "pass"
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_json() == rep.to_json()


def test_report_rows_serialise_as_dataclasses_asdict(monkeypatch):
    # a row with a float, a NaN, no residual and a skip status: the report's
    # JSON is byte for byte the one the deep copy of dataclasses.asdict gave
    rows = [ReportRow("a", "COMM", "eq_a", 1.25e-15, 1e-9, "pass"),
            ReportRow("b", "SOL", "eq_b", float("nan"), 1e-7, "fail"),
            ReportRow("c", "LAW", "eq_c", None, 1e-5, "skipped(no u)")]
    rep = VerificationReport("0.1.0", "chart", "h", 3, 4, 0, 2, rows)
    text = rep.to_json()
    monkeypatch.setattr(ReportRow, "as_dict", dataclasses.asdict)
    assert rep.to_json() == text


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
    real = identities.structure_residuals

    def poison(points):
        nan_at = point_key(points[bad])

        def structure_residuals(c, kind, lam):
            at = np.array([p == nan_at for p in c.points])
            return np.where(at, np.nan, real(c, kind, lam))
        return structure_residuals

    points = g.sample_points(3, 5)
    monkeypatch.setattr(identities, "structure_residuals", poison(points))
    with pytest.raises(CertificationError, match="residual nan"):
        verify(g, select_records(["SOL"]), points)
    # a LAW record is skipped instead: laws need a u and a soliton potential
    gc = catalog.load("conformal_gaussian", dim=3).geometry
    points = gc.sample_points(3, 5)
    monkeypatch.setattr(identities, "structure_residuals", poison(points))
    rows = {r.id: r.status for r in verify(gc, select_laws(), points)}
    for law, kind in (("d_tensor", "tilde_gradient_soliton"),
                      ("d_reverse", "base_gradient_soliton"),
                      ("nabla_d", "tilde_gradient_soliton")):
        assert rows[law] == (f"skipped(hypothesis {kind} not certified "
                             f"(residual nan))")
    assert rows["cotton"] == "pass"

    cert_points = g.sample_points(catalog.CERTIFICATION_POINTS,
                                  catalog.CERTIFICATION_SEED)
    monkeypatch.setattr(catalog, "structure_residuals", poison(cert_points))
    with pytest.raises(CertificationError, match="residual nan"):
        catalog.certify_entry(e)


@pytest.mark.parametrize("bad", [0, -1])
def test_nan_residual_fails_and_round_trips(bad):
    from dataclasses import replace
    g = catalog.load("euclidean", dim=3).geometry
    rec = identities.BY_ID["comm.hess_sym"]
    nan_at = point_key(g.sample_points(3, 5)[bad])

    def evaluate(c):
        lhs, rhs = rec.evaluate(c)
        at = np.array([p == nan_at for p in c.points])
        return np.where(at, lhs * np.nan, lhs), rhs

    rows = verify(g, [replace(rec, evaluate=evaluate)], g.sample_points(3, 5))
    rep = VerificationReport.for_geometry(g, 5, 3, rows)
    (row,) = rep.rows
    assert row.status == "fail" and np.isnan(row.max_residual)
    back = VerificationReport.from_json(rep.to_json())
    assert back.overall == "fail"
    assert back.to_json() == rep.to_json()


@pytest.mark.parametrize("dim, seed", [(3, 1), (4, 2), (5, 3)])
def test_riemann_split_rebuilds_riemann(dim, seed):
    # W + (Ric o g)/(m-2) - s (g o g)/(2(m-1)(m-2)), the operand of the
    # expanded Weyl commutation rules, is Riemann itself
    g = catalog.load("random", dim=dim, seed=seed, certify=False).geometry
    for p in g.sample_points(2, 0):
        c = EvalContext(g, p)
        riem = c.on("riemann")
        q = identities._riemann_split(c)
        assert q.shape == riem.shape
        assert np.abs(q - riem).max() <= 1e-12 * np.abs(riem).max()


def test_expanded_weyl_rules_fail_without_the_split(monkeypatch):
    # with W alone as the operand, the dropped Ricci and scalar terms are
    # not small on random dim 5, so both expanded rules must fail there
    g = catalog.load("random", dim=5, seed=3, certify=False).geometry
    ids = ("comm.weyl_second_expanded", "comm.weyl_third_expanded")
    records = [identities.BY_ID[i] for i in ids]
    points = g.sample_points(2, 0)
    c = EvalContext(g.at_order(4), points[0])
    assert np.abs(identities._riemann_split(c) - c.on("weyl")).max() > 1e-3
    assert [r.status for r in verify(g, records, points)] == ["pass", "pass"]
    monkeypatch.setattr(identities, "_riemann_split", lambda c: c.on("weyl"))
    assert [r.status for r in verify(g, records, points)] == ["fail", "fail"]


# ---------------------------------------------------------------------------
# blocks of points: errors and warnings at their own point
# ---------------------------------------------------------------------------

def _spy(note, read=("ricci", 0)):
    """A record that runs everywhere, reads ``read`` (nothing if None), so
    that it runs at that value's jet order (Ricci's, 2, by default), and
    records ``note(context)``, one entry per point of the block it is
    called on."""
    seen = []

    def evaluate(c):
        if read is not None:
            c.on(*read)
        seen.extend(note(c))
        return np.zeros(1), np.zeros(1)
    return IdentityRecord(id="spy", family="COMM", eq="spy",
                          requires=frozenset(), structure=None, min_dim=2,
                          tol_class="A", tol=None, evaluate=evaluate), seen


def _chart(metric=(("1",), ("0", "1")), **fields):
    """A flat-by-default chart at the spy's working order, 2."""
    return GeometryInstance(GeometrySpec(
        name="chart", dim=2, coords=["x1", "x2"],
        domain=[(-2.0, 2.0), (-2.0, 2.0)],
        metric=[list(row) for row in metric], **fields), JetConfig(2))


@pytest.mark.parametrize("fields, points, error, message", [
    # the block evaluates; the third point's state fails Cholesky
    (dict(metric=(("x1",), ("0", "1"))),
     [[1.0, 0.0], [0.5, 0.1], [-1.0, 0.0], [1.0, 1.0]], MetricError,
     "metric of 'chart' not positive definite at"),
    # the block raises, so each point evaluates alone
    (dict(f="log(x1)"), [[1.0, 0.0], [-0.5, 0.0], [1.0, 1.0]],
     EvalDomainError, "log of non-positive value -0.5"),
    (dict(u="exp(1000*x1)"), [[0.5, 0.0], [1.0, 0.0], [0.2, 1.0]],
     OverflowError, "math range error"),
])
def test_block_error_comes_at_its_point(fields, points, error, message):
    alone = [_error(lambda p=p: PointState(_chart(**fields), p))
             for p in points]
    bad = next(k for k, e in enumerate(alone) if e is not None)
    assert alone[bad][0] is error and message in alone[bad][1]
    assert not any("np.float64" in e[1] for e in alone if e is not None)
    spy, seen = _spy(lambda c: c.points)
    assert _error(lambda: verify(_chart(**fields), [spy],
                                 np.array(points))) == alone[bad]
    assert seen == [tuple(p) for p in points[:bad]]


def _error(fn):
    """The type and message ``fn`` raises, or None."""
    try:
        fn()
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)
    return None


def test_block_warnings_come_at_their_point():
    # exp(700)^2 overflows in the jet product at x1 = 1 only
    fields = dict(f="exp(700*x1)*exp(700*x1)")
    points = np.array([[0.1, 0.0], [1.0, 0.0], [0.2, 1.0]])
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        PointState(_chart(**fields), points[1])
    assert alone and all(w.category is RuntimeWarning for w in alone)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spy, seen = _spy(lambda c: [len(caught)] * len(c.points))
        verify(_chart(**fields), [spy], points)
    assert seen == [0, len(alone), len(alone)]
    assert [str(w.message) for w in caught] == [str(w.message) for w in alone]


def test_first_chunk_warning_comes_at_its_point():
    # e^{2u} overflows at the third point of a first chunk of five, in the
    # chunk's bundle, not in its tape: the warning comes at that point,
    # once, after the records ran on the points before it
    g = _chart(u="400*x1")
    points = np.array([[0.1, 0.0], [0.2, 0.1], [0.95, 0.0], [0.3, 0.3],
                       [0.4, 0.4]])
    assert geometry.first_chunk(g) >= len(points)
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        curvature.bundle(g, points[2]).scalar_exp(2)
    assert [w.category for w in alone] == [RuntimeWarning]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        def note(c):
            c.e(2)
            return [len(caught)] * len(c.points)

        spy, seen = _spy(note)
        rows = verify(_chart(u="400*x1"), [spy], points)
    assert seen == [0, 0, 1, 1, 1]
    assert [str(w.message) for w in caught] == [str(w.message) for w in alone]
    assert rows[0].status == "pass"


def test_rescaled_spec_compiled_only_when_a_record_reads_it(monkeypatch):
    g = catalog.load("random", dim=4, seed=2, certify=False).geometry
    assert g.spec.u is not None
    compiled = []
    init = GeometrySpec.__post_init__
    monkeypatch.setattr(GeometrySpec, "__post_init__",
                        lambda self: compiled.append(self.name) or init(self))
    points = g.sample_points(1, 0)
    verify(g, select_records(["COMM"]), points)
    assert compiled == []
    pair = conformal.rescale(g)
    assert compiled == [pair.tilde.name]
    rows = conformal.verify_transform(pair, select_laws(["ricci"]), points)
    assert compiled == [pair.tilde.name]
    assert rows[0].status == "pass"
    # a *_vs_tilde condition compiles its chart's rescaling on its first
    # pass, and every later pass on that chart reuses it
    g = catalog.load("conformal_gaussian", dim=4, certify=False).geometry
    compiled.clear()
    records = select_records(ids=["cgrs.duf_vs_tilde"])
    for _ in range(2):
        rows = verify(g, records, points)
        assert compiled == [g.name + "~"]
        assert rows[0].status == "pass"


def test_catalog_and_identities_do_not_import_conformal():
    # the rescaled chart is the spec's own, so neither module needs
    # the law registry's module
    code = ("import sys, ctlab.catalog, ctlab.identities; "
            "print('ctlab.conformal' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "False\n"


# ---------------------------------------------------------------------------
# blocks of points: the same sides, the same semantics, the block sizes
# ---------------------------------------------------------------------------

# one chart per family, with the records it runs and whether they read the
# rescaled geometry
BLOCK_CHARTS = [
    ("random", dict(dim=4, seed=5), ["COMM"]),
    ("cigar_x_flat", dict(dim=4), ["SOL", "GRS", "HIGH"]),
    ("conformal_s2xs2", dict(seed=0), ["CE"]),
    ("conformal_gaussian", dict(dim=4), ["CGRS"]),
    ("conformal_gaussian_plus_killing", dict(dim=3), ["CGERS", "LAW"]),
]


@pytest.mark.parametrize("name, params, families", BLOCK_CHARTS)
def test_block_sides_match_blocks_of_one(name, params, families):
    # every point of a block of 5, its values handed over by two chunks,
    # gets the two sides that 5 blocks of one give it, bit for bit
    g = catalog.load(name, **params).geometry
    records = [r for r in select_laws() if "LAW" in families]
    records += select_records([f for f in families if f != "LAW"])
    records = [r for r in records if identities._skip_reason(
        g, r, identities._available(g)) is None]
    g = g.at_order(max(r.min_order for r in records))
    points = g.sample_points(5, 3)
    ones = [EvalContext(g, p) for p in points]
    alone = [[r.evaluate(c) for r in records] for c in ones]
    keys = list(ones[0].values)
    geometries = [g, g.rescaled] if g.spec.u else [g]
    chunks = [Chunk(geometries, points[:2]), Chunk(geometries, points[2:])]
    block = EvalContext.stacked(g, [point_key(p) for p in points], {
        key: identities._as_block([
            identities._value(c.bundle(1 if key[0] == "t" else 0), key)
            for c in chunks]) for key in keys})
    compared = 0
    for r, sides in zip(records, zip(*alone)):
        for got, want in zip(r.evaluate(block), zip(*sides)):
            for j, w in enumerate(want):
                # a side may be a constant, the same at every point
                w = np.asarray(w)[..., 0] if np.ndim(w) else w
                full = np.broadcast_to(got, np.shape(w) + (5,))
                assert np.array_equal(full[..., j], w), (r.id, j)
                compared += 1
    assert compared == 10 * len(records)


def _failing_at_third_point(monkeypatch, points):
    """Hypothesis residuals that fail at the third of ``points``; returns
    the list of the points certified, in the order they were."""
    found = dict(zip((point_key(p) for p in points),
                     (1e-12, 2e-10, 5e-9, 1.0, 3e-10)))
    certified = []

    def structure_residuals(c, kind, lam):
        certified.extend(c.points)
        return np.array([found[p] for p in c.points])

    monkeypatch.setattr(identities, "structure_residuals", structure_residuals)
    return certified


def test_certification_error_names_the_running_worst(monkeypatch):
    # the hypothesis fails at the third point of the walk's first chunk,
    # which holds all five: the error names the worst up to it, not the
    # chunk's, each point is certified once, and the record runs once, on
    # the two points before it
    g = catalog.load("euclidean", dim=3).geometry
    points = g.sample_points(5, 2)
    certified = _failing_at_third_point(monkeypatch, points)
    spy, seen = _spy(lambda c: c.points)
    spy = dataclasses.replace(spy, family="SOL", structure="gradient_soliton")
    with pytest.raises(CertificationError,
                       match=r"residual 5\.000e-09\); required by spy"):
        verify(g, [spy], points)
    keys = [point_key(p) for p in points]
    assert certified == keys
    assert seen == keys[:2]


def test_record_raising_past_a_failed_hypothesis_does_not_preempt_it(
        monkeypatch):
    # the record would raise at the fourth point of the first chunk, past
    # the hypothesis failing at the third: the certification error comes
    # first, at its point, after the record ran on a block of no points
    # (its reads, found before the walk) and on the two points before it
    g = catalog.load("euclidean", dim=3).geometry
    points = g.sample_points(5, 2)
    keys = [point_key(p) for p in points]
    certified = _failing_at_third_point(monkeypatch, points)
    seen = []

    def evaluate(c):
        seen.append(list(c.points))
        if set(keys[3:]) & set(c.points):
            raise ZeroDivisionError("past the failed hypothesis")
        return np.zeros(1), np.zeros(1)

    rec = IdentityRecord(id="late", family="SOL", eq="late",
                         requires=frozenset(), structure="gradient_soliton",
                         min_dim=2, tol_class="A", tol=None,
                         evaluate=evaluate)
    with pytest.raises(CertificationError,
                       match=r"residual 5\.000e-09\); required by late"):
        verify(g, [rec], points)
    assert seen == [[], keys[:2]]
    assert certified == keys


def test_law_hypothesis_failing_in_the_first_chunk(monkeypatch):
    # with f moved by 2e-9 x1^4, the tilde_gradient_soliton hypothesis
    # fails partway through the walk's first chunk: the walk reads that
    # chunk once, and its rows are those of the same walk read a point at
    # a time, residual for residual
    s = catalog.load("conformal_gaussian_plus_killing", dim=3).spec
    g = _with_fields(s, f=f"{s.f} + 2e-9*x1^4")
    points = g.sample_points(32, 0)
    built = []
    init = PointState.__init__

    def spy_init(self, geometry, points, roots=None):
        built.append(len(points))
        init(self, geometry, points, roots)

    with monkeypatch.context() as m:
        m.setattr(PointState, "__init__", spy_init)
        rows = verify(g, select_laws(), points)
    assert built == [22, 22, 10, 10]
    monkeypatch.setattr(geometry, "first_chunk", lambda *gs: 1)
    monkeypatch.setattr(Chunk, "fit", lambda self: 1)
    assert rows == verify(g, select_laws(), points)
    skipped = {r.id: r.status for r in rows if r.status != "pass"}
    assert set(skipped) == {"d_tensor", "d_reverse", "nabla_d"}
    assert "tilde_gradient_soliton not certified" in skipped["d_tensor"]


def test_dropped_law_hands_its_values_over_no_more(monkeypatch):
    # the walk of the test above at 80 points: once d_tensor and nabla_d
    # drop, at its second point, the points after it hand over only what
    # the laws still certified read, 9456 bytes a point against 10320;
    # the rows are those of the walk read a point at a time
    s = catalog.load("conformal_gaussian_plus_killing", dim=3).spec
    g = _with_fields(s, f=f"{s.f} + 2e-9*x1^4")
    points = g.sample_points(80, 0)
    blocks = []
    stacked = EvalContext.stacked.__func__

    def spy(cls, geometry, points, values):
        blocks.append((len(points), sum(v.nbytes for v in values.values())
                       // len(points)))
        return stacked(cls, geometry, points, values)

    with monkeypatch.context() as m:
        m.setattr(EvalContext, "stacked", classmethod(spy))
        rows = verify(g, select_laws(), points)
    assert blocks == [(1, 10320), (79, 9456)]
    assert {r.id for r in rows if r.status != "pass"} == {
        "d_tensor", "d_reverse", "nabla_d"}
    monkeypatch.setattr(geometry, "first_chunk", lambda *gs: 1)
    monkeypatch.setattr(Chunk, "fit", lambda self: 1)
    assert rows == verify(g, select_laws(), points)


def test_later_points_build_their_bundles_when_nothing_is_read(monkeypatch):
    # a record that reads nothing runs at working order 0, where in dim 3
    # the first chunk holds BLOCK_TRIPLES // 3 ** 2 = 1820 points, then one
    # chunk holds the other three: each builds its bundle, and so its
    # point state, though no record reads a value
    built = []
    init = curvature.CurvatureBundle.__init__

    def spy_init(self, state):
        built.append(len(state.g.coeffs))
        init(self, state)

    monkeypatch.setattr(curvature.CurvatureBundle, "__init__", spy_init)
    spy, seen = _spy(lambda c: c.points, read=None)
    g = _chart3(order=4)
    points = g.sample_points(1823, 0)
    verify(g, [spy], points)
    assert seen == [point_key(p) for p in points]
    assert built == [1820, 3]


def test_value_the_first_point_never_read_is_an_internal_error():
    # a record that reads a value only at the points past the walk's first
    # chunk, so not on the block of no points its reads are found on: no
    # point hands that value over.  It reads Riemann's second derivative
    # everywhere, so it runs at working order 4, where in dim 3 the first
    # chunk holds BLOCK_TRIPLES // 3 ** 6 = 22 points
    g = _chart3(order=4)
    points = g.sample_points(25, 0)
    late = {point_key(p) for p in points[22:]}

    def evaluate(c):
        c.on("riemann", 2)
        if late & set(c.points):
            c.on("ricci")
        return np.zeros(1), np.zeros(1)

    rec = IdentityRecord(id="late", family="COMM", eq="late",
                         requires=frozenset(), structure=None, min_dim=2,
                         tol_class="A", tol=None, evaluate=evaluate)
    assert rec.min_order == 4
    assert geometry.first_chunk(g) == 22
    with pytest.raises(RuntimeError, match=r"internal error: c\.b\.on\("
                       r"'ricci', 0\) was not read when the pass was planned"):
        verify(g, [rec], points)


def test_block_of_one_is_a_view():
    g = _chart(f="x1*x2")
    p = (0.3, 0.4)
    c = EvalContext(g, p)
    b = c.b.bundle
    assert np.shares_memory(c.on("f", 2), b.on("f", 2))
    assert c.on("f", 2).shape == (2, 2, 1) and c.on("scalar").shape == (1,)
    # values handed over by one chunk alone are a view of its frames too
    frames = Chunk([g], np.array([p, (0.1, 0.2)])).bundle().frames("f", 2)
    one = identities._as_block([frames[:1]])
    assert np.shares_memory(one, frames) and one.shape == (2, 2, 1)
    assert not identities._as_block([frames[:1], frames[1:]]).flags.writeable


def test_block_sizes(monkeypatch):
    # a dim-3 law pair at working order 4: the first chunk,
    # BLOCK_TRIPLES // 3 ** 6 = 22 points, and the next, 10, hand their
    # values over to one block, where the records run once
    e = catalog.load("conformal_gaussian_plus_killing", dim=3)
    pair = conformal.rescale(e.geometry)
    spy, seen = _spy(lambda c: [len(c.points)] if c.points else [])
    rows = conformal.verify_transform(pair, select_laws() + [spy],
                                      pair.base.sample_points(32, 1))
    assert seen == [32]
    assert [r.id for r in rows if r.status != "pass"] == ["d_reverse"]
    # COMM at dim 5: one point's values exceed BLOCK_BYTES, so every point
    # is a chunk and a block of one, a view of the values its chunk read
    g = catalog.load("random", dim=5, seed=3, certify=False).geometry
    read = []
    frames = curvature.CurvatureBundle.frames

    def spy_frames(self, name, d=0):
        out = frames(self, name, d)
        if (name, d) == ("riemann", 3):
            read.append(out)
        return out

    monkeypatch.setattr(curvature.CurvatureBundle, "frames", spy_frames)
    def note(c):
        if not c.points:
            return []
        return [len(c.points) == len(read[-1]) == 1
                and np.shares_memory(c.on("riemann", 3), read[-1])]

    spy, seen = _spy(note, read=("riemann", 3))
    rows = verify(g, select_records(["COMM"]) + [spy], g.sample_points(3, 1))
    assert seen == [True, True, True]
    assert all(r.status == "pass" for r in rows)


# ---------------------------------------------------------------------------
# chunks of points: a build that fails at one point of a chunk
# ---------------------------------------------------------------------------

def _chart3(metric=(("1",), ("0", "1"), ("0", "0", "1")), order=2,
            **fields):
    """A flat-by-default dim-3 chart at jet order ``order``."""
    return GeometryInstance(GeometrySpec(
        name="chart", dim=3, coords=["x1", "x2", "x3"],
        domain=[(-2.0, 2.0)] * 3, metric=[list(row) for row in metric],
        **fields), JetConfig(order))


@pytest.mark.parametrize("fields, read, error", [
    # the fifth point's metric is not positive definite, so the chunk's
    # point state cannot be built
    (dict(metric=[["x1"], ["0", "1"], ["0", "0", "1"]]), "ricci",
     MetricError),
    # the chunk's point state builds, but e^{2u} of dux_tensor overflows
    # at the fifth point, in the chunk's bundle
    (dict(u="400*x1", x_components=["1", "0", "0"]), "dux_tensor",
     OverflowError),
])
def test_chunk_error_comes_at_its_point(monkeypatch, fields, read, error):
    points = np.array([[0.1, 0.0, 0.0], [0.2, 0.1, 0.0], [0.3, 0.2, 0.1],
                       [0.4, 0.3, 0.2], [-0.5, 0.0, 0.0], [0.5, 0.5, 0.5],
                       [0.6, 0.6, 0.6]])
    if error is OverflowError:
        points[4, 0] = 0.95
    alone = [_error(lambda p=p: curvature.bundle(_chart3(**fields), p).on(read))
             for p in points]
    assert [e is None for e in alone] == [True] * 4 + [False, True, True]
    assert alone[4][0] is error
    built = []
    init = geometry.PointState.__init__

    def spy_init(self, g, point, *args):
        built.append(np.shape(point))
        init(self, g, point, *args)

    monkeypatch.setattr(geometry.PointState, "__init__", spy_init)
    seen = []

    def evaluate(c):
        c.on(read)
        seen.extend(c.points)
        return np.zeros(1), np.zeros(1)

    rec = IdentityRecord(id="reads", family="COMM", eq="reads",
                         requires=frozenset(), structure=None, min_dim=2,
                         tol_class="A", tol=None, evaluate=evaluate)
    assert _error(lambda: verify(_chart3(**fields), [rec], points)) == alone[4]
    assert seen == [point_key(p) for p in points[:4]]
    # the walk's first chunk holds all seven points, and its build fails;
    # its points then build their own states
    assert built[0] == (7, 3)
    assert set(built[1:]) == {(1, 3)}
