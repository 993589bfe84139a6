"""Rescaling plus every transformation law, predicted vs recomputed."""

import gc
import tracemalloc

import numpy as np
import pytest

from ctlab import catalog, conformal, curvature
from ctlab.conformal import LAW_REGISTRY, LAWS, rescale, verify_transform
from ctlab.curvature import einsum
from ctlab.geometry import PointState
from ctlab.identities import EvalContext, residual, select_records, verify


def pair_for(name, u_text=None, **kw):
    e = catalog.load(name, certify=False, **kw)
    return rescale(e.geometry, u_text)


def test_rescale_u_zero_is_identity():
    pair = pair_for("random", u_text="0", dim=3, seed=1)
    p = pair.base.sample_points(1, 1)[0]
    g0 = PointState(pair.base, p).g.value()[0]
    g1 = PointState(pair.tilde, p).g.value()[0]
    assert np.abs(g0 - g1).max() < 1e-15


def test_rescale_constant_scalar_law():
    pair = pair_for("sphere", u_text="0.3", dim=3)
    for p in pair.base.sample_points(2, 2):
        s_tilde = curvature.bundle(pair.tilde, p).on("scalar")
        assert abs(s_tilde - np.exp(-0.6) * 6.0) < 1e-9


def test_stereographic_rescale_gives_sphere():
    # flat chart stretched by log(2/(1+|x|^2)) becomes the unit round sphere
    pair = pair_for("euclidean", u_text="log(2/(1+x1^2+x2^2+x3^2))", dim=3)
    for p in pair.base.sample_points(2, 3):
        assert abs(curvature.bundle(pair.tilde, p).on("scalar") - 6.0) < 1e-9


def test_rescale_requires_u():
    g = catalog.load("s2xs2", certify=False).geometry
    with pytest.raises(ValueError, match="no u field"):
        rescale(g)


def _run_all(pair, n=2, seed=5):
    pts = pair.base.sample_points(n, seed)
    return verify_transform(pair, list(LAW_REGISTRY), pts)


def test_all_laws_on_conformal_gaussian():
    rows = _run_all(pair_for("conformal_gaussian", dim=4, seed=0))
    status = {r.id: r.status for r in rows}
    assert not any(s == "fail" for s in status.values())
    for law in ("riemann04", "ricci", "scalar", "nabla_ricci", "nabla2_ricci",
                "nabla_scalar", "hess_scalar", "lap_scalar", "hessian_f",
                "laplacian_f", "third_f", "third_f_traced", "schouten",
                "nabla_schouten", "nabla2_schouten", "weyl13", "cotton",
                "bach", "d_tensor", "nabla_d"):
        assert status[law] == "pass", law


def test_all_laws_with_vector_field():
    rows = _run_all(pair_for("conformal_gaussian_plus_killing", dim=3, seed=0))
    status = {r.id: r.status for r in rows}
    for law in ("lie_metric", "nabla_X", "sym_nabla_X", "div_X", "nabla2_X",
                "nabla2_X_traced"):
        assert status[law] == "pass", law


def test_laws_on_random_pair():
    # generic (g, u) pair with all fields, no structural hypotheses
    rows = _run_all(pair_for("random", dim=4, seed=9), n=2, seed=1)
    for r in rows:
        if r.id in ("d_tensor", "d_reverse", "nabla_d"):
            assert r.status.startswith("skipped")  # no soliton structure
        else:
            assert r.status == "pass", (r.id, r.max_residual)


def test_d_reverse_on_base_soliton():
    rows = _run_all(pair_for("euclidean",
                             u_text="0.2*x1 - 0.1*x2*x3 + 0.05*x1^2", dim=4))
    status = {r.id: r.status for r in rows}
    assert status["d_reverse"] == "pass"
    assert status["d_tensor"].startswith("skipped")


def test_weyl13_invariance_random_m4():
    pair = pair_for("random", dim=4, seed=4)
    for p in pair.base.sample_points(2, 7):
        c = EvalContext(pair.base, p)
        lhs, rhs = conformal.law_weyl13(c)
        assert residual(lhs, rhs) < 1e-9


def test_hessian_f_constant_u():
    pair = pair_for("euclidean", u_text="0.7", dim=3)
    p = pair.base.sample_points(1, 1)[0]
    c = EvalContext(pair.base, p)
    lhs, rhs = conformal.law_hessian_f(c)
    assert residual(lhs, rhs) < 1e-12
    # derivative terms vanish: prediction equals the base Hessian
    assert residual(rhs, c.b.on("f", 2)) < 1e-12


def test_composition_of_rescalings():
    base = catalog.load("random", dim=3, seed=2, certify=False).geometry
    u = "0.2*x1 + 0.1*x2^2"
    v = "-0.15*x3 + 0.1*x1*x2"
    both = f"({u}) + ({v})"
    once = rescale(rescale(base, u).tilde, v).tilde
    direct = rescale(base, both).tilde
    for p in base.sample_points(2, 3):
        s1 = curvature.bundle(once, p).on("scalar")
        s2 = curvature.bundle(direct, p).on("scalar")
        assert abs(s1 - s2) / (1 + abs(s2)) < 1e-8
        r1 = curvature.bundle(once, tuple(p)).on("ricci")
        r2 = curvature.bundle(direct, tuple(p)).on("ricci")
        assert residual(r1, r2) < 1e-8
        w1 = curvature.bundle(once, tuple(p)).on("weyl")
        w2 = curvature.bundle(direct, tuple(p)).on("weyl")
        assert residual(w1, w2) < 1e-8


def test_traced_laws_equal_traces_of_untraced():
    pair = pair_for("conformal_gaussian_plus_killing", dim=4, seed=1)
    for p in pair.base.sample_points(2, 4):
        c = EvalContext(pair.base, p)
        _, hess = conformal.law_hess_scalar(c)
        _, lap = conformal.law_lap_scalar(c)
        assert abs(np.trace(hess) - lap) / (1 + abs(lap)) < 1e-8
        _, third = conformal.law_third_f(c)
        _, third_tr = conformal.law_third_f_traced(c)
        assert residual(einsum("ttk->k", third), third_tr) < 1e-8
        _, nx2 = conformal.law_nabla2_x(c)
        _, nx2_tr = conformal.law_nabla2_x_traced(c)
        assert residual(einsum("ttk->k", nx2), nx2_tr) < 1e-8


def test_predict_matches_direct():
    # a law's evaluator returns (direct, predicted): the rescaled quantity
    # recomputed in the rescaled metric, and its closed form in base data
    def sides(pair, law_id, p):
        return LAWS[law_id].evaluate(EvalContext(pair.base, p))

    pair = pair_for("conformal_gaussian", dim=3, seed=2)
    p = pair.base.sample_points(1, 1)[0]
    direct, predicted = sides(pair, "ricci", p)
    assert residual(predicted, direct) < 1e-12
    # constant rescaling of the unit sphere: predicted scalar curvature
    sp = pair_for("sphere", u_text="0.4", dim=3)
    q = sp.base.sample_points(1, 2)[0]
    direct, predicted = sides(sp, "scalar", q)
    assert abs(predicted - 6.0) < 1e-9
    assert abs(direct - 6.0) < 1e-9


def test_nan_frame_value_fails_the_laws_through_delta_products(
        monkeypatch):
    # a NaN in the base's du reaches the right sides of the laws through
    # their products with the delta (curvature.einsum's diagonal writes),
    # and every law that reads it fails with a NaN residual
    pair = pair_for("conformal_gaussian", dim=4, seed=0)
    real = curvature.CurvatureBundle.frames

    def frames(self, name, d=0):
        out = real(self, name, d)
        return out * np.nan if (name, d) == ("u", 1) else out

    monkeypatch.setattr(curvature.CurvatureBundle, "frames", frames)
    rows = {r.id: r for r in _run_all(pair, n=3)}
    for law in ("riemann04", "ricci", "nabla_ricci", "nabla2_ricci",
                "schouten", "nabla2_schouten"):
        assert rows[law].status == "fail", law
        assert np.isnan(rows[law].max_residual), law


def test_law_registry_complete():
    ids = {law.id for law in LAW_REGISTRY}
    assert len(ids) == len(LAW_REGISTRY) == 27
    with pytest.raises(KeyError):
        conformal.select_laws(["not_a_law"])


def test_reads_leave_no_point_state_alive():
    # once a verification or a lone read returns, no point state of the
    # chart or of its rescaling is left for a later read to find: a
    # geometry, or a spec with its cached rescaling, that kept a state per
    # point would still hold one here
    g = catalog.load("conformal_gaussian", dim=3).geometry
    pair = rescale(g)
    points = g.sample_points(8, 3)
    rows = verify(g, select_records(["CGRS"]), points)
    rows += verify_transform(pair, list(LAW_REGISTRY), points)
    assert all(r.status != "fail" for r in rows)
    for p in points[:2]:
        g.christoffel(p)
        curvature.ricci(pair.tilde, p)
        EvalContext(g, p).t.on("ricci")
    gc.collect()
    specs = (g.spec, g.spec.rescaled)
    assert not [x for x in gc.get_objects() if isinstance(x, PointState)
                and any(x.geometry.spec is s for s in specs)]


def test_memory_stays_bounded_as_points_grow():
    # all 27 laws on a dim-3 pair: past the first full blocks of records
    # the peak of traced allocations hardly grows with the number of
    # points (it levels off by 512 points); a walker that kept each point's
    # values, let alone its states and bundles, would add 10 KiB or more a
    # point
    pair = rescale(catalog.load("conformal_gaussian_plus_killing",
                                dim=3).geometry)

    def peak(n):
        points = pair.base.sample_points(n, 1)
        tracemalloc.start()
        try:
            rows = verify_transform(pair, list(LAW_REGISTRY), points)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.status != "fail" for r in rows)
        return top

    peak(128)  # fills the module-level caches (jet tables, kernel plans)
    small, large = peak(512), peak(2048)
    assert large < 1.2 * small, (small, large)
