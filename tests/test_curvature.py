"""The curvature stack: symmetries, closed forms, dual routes, soliton
tensors and their degenerations."""

import numpy as np
import pytest

from ctlab import catalog, conformal, curvature
from ctlab.curvature import DimensionError, bundle
from ctlab.geometry import Chunk, GeometryInstance, MetricError
from ctlab.jets import JetOrderError
from ctlab.identities import residual
from oracles import d_tensor_form, duf_tensor_alt, kulkarni_nomizu


def entry(name, **kw):
    return catalog.load(name, certify=False, **kw)


def pts(g, n=2, seed=5):
    return g.sample_points(n, seed)


# ---------------------------------------------------------------------------
# Riemann
# ---------------------------------------------------------------------------

def test_riemann_flat_zero():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(bundle(g, [0.1, 0.2, 0.3]).on("riemann")).max() == 0.0


@pytest.mark.parametrize("dim,seed", [(3, 0), (4, 1), (5, 2)])
def test_riemann_symmetries_and_first_bianchi(dim, seed):
    g = entry("random", dim=dim, seed=seed).geometry
    for p in pts(g, 2, seed):
        r = bundle(g, p).on("riemann")
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() < 1e-10


def test_sphere_scalar_closed_form():
    for dim, radius in ((3, 1.0), (4, 2.0)):
        g = entry("sphere", dim=dim, radius=radius).geometry
        expect = dim * (dim - 1) / radius**2
        for p in pts(g, 3, 1):
            assert abs(bundle(g, p).on("scalar") / expect - 1) < 1e-9


def test_hyperbolic_scalar():
    g = entry("hyperbolic", dim=3).geometry
    for p in pts(g, 2, 1):
        assert abs(bundle(g, p).on("scalar") + 6.0) < 1e-9


def test_sphere_ricci_einstein():
    g = entry("sphere", dim=4).geometry
    p = pts(g, 1, 2)[0]
    ric = bundle(g, p).on("ricci")
    assert np.abs(ric - 3.0 * np.eye(4)).max() < 1e-9


def test_schur_identity_random():
    g = entry("random", dim=4, seed=6).geometry
    for p in pts(g, 2, 3):
        b = bundle(g, p)
        s1 = b.on("scalar", 1)
        div_ric = np.einsum("ikk->i", b.on("ricci", 1))
        assert residual(s1, 2 * div_ric) < 1e-8


# ---------------------------------------------------------------------------
# Schouten, Weyl, Kulkarni-Nomizu
# ---------------------------------------------------------------------------

def test_schouten_sphere_value():
    # Ric = 2 delta, S = 6 on the unit 3-sphere: A = Ric - S/4 g = delta/2
    g = entry("sphere", dim=3).geometry
    p = pts(g, 1, 1)[0]
    a = bundle(g, p).on("schouten")
    assert np.abs(a - 0.5 * np.eye(3)).max() < 1e-9


def test_schouten_flat_zero_and_trace():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(bundle(g, [0.1, 0.0, 0.2]).on("schouten")).max() == 0.0
    rg = entry("random", dim=5, seed=7).geometry
    for p in pts(rg, 2, 2):
        m = 5
        b = bundle(rg, p)
        tr = np.trace(b.on("schouten"))
        s = b.on("scalar")
        assert abs(tr - (m - 2) * s / (2 * (m - 1))) < 1e-10


def test_schouten_needs_dim_3():
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    two = GeometrySpec(name="flat2", dim=2, coords=["x1", "x2"],
                       domain=[(-1, 1), (-1, 1)], metric=[["1"], ["0", "1"]])
    with pytest.raises(DimensionError):
        bundle(GeometryInstance(two), [0.0, 0.0]).on("schouten")


def test_weyl_vanishes_dim3():
    g = entry("random", dim=3, seed=4).geometry
    for p in pts(g, 2, 9):
        assert np.abs(bundle(g, p).on("weyl")).max() < 1e-10


def test_weyl_conformally_flat_dim4():
    g = entry("conformal_gaussian", dim=4, seed=1).geometry
    for p in pts(g, 2, 9):
        assert np.abs(bundle(g, p).on("weyl")).max() < 1e-10


def test_weyl_s2xs2_nonzero_tracefree():
    g = entry("s2xs2").geometry
    p = pts(g, 1, 3)[0]
    w = bundle(g, p).on("weyl")
    assert np.abs(w).max() > 1e-2
    assert np.abs(np.einsum("ijik->jk", w)).max() < 1e-10
    assert np.abs(np.einsum("ijkj->ik", w)).max() < 1e-10


def test_weyl_both_routes_agree():
    # decomposition via Ricci/scalar vs Kulkarni-Nomizu with Schouten
    g = entry("random", dim=4, seed=8).geometry
    p = pts(g, 1, 4)[0]
    m = 4
    b = bundle(g, p)
    r = b.on("riemann")
    a = b.on("schouten")
    w_direct = b.on("weyl")
    w_kn = r - kulkarni_nomizu(a, np.eye(m)) / (m - 2)
    assert np.abs(w_direct - w_kn).max() < 1e-11
    # decomposition closure
    assert residual(r, w_direct + kulkarni_nomizu(a, np.eye(m)) / (m - 2)) < 1e-9


def test_kulkarni_nomizu_delta_delta():
    eye = np.eye(4)
    kn = kulkarni_nomizu(eye, eye)
    expect = 2 * (np.einsum("ik,jt->ijkt", eye, eye)
                  - np.einsum("it,jk->ijkt", eye, eye))
    assert np.abs(kn - expect).max() == 0.0


def test_kulkarni_nomizu_symmetries():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    k = rng.standard_normal((4, 4))
    k = k + k.T
    t = kulkarni_nomizu(h, k)
    assert np.abs(t + t.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(t + t.transpose(0, 1, 3, 2)).max() < 1e-12
    with pytest.raises(ValueError):
        kulkarni_nomizu(h, np.eye(3))


# ---------------------------------------------------------------------------
# Cotton and Bach
# ---------------------------------------------------------------------------

def test_cotton_einstein_zero():
    g = entry("sphere", dim=3).geometry
    assert np.abs(bundle(g, [0.1, 0.2, 0.0]).on("cotton")).max() < 1e-11


def test_cotton_skew_tracefree_dim3():
    g = entry("random", dim=3, seed=10).geometry
    p = pts(g, 1, 7)[0]
    c = bundle(g, p).on("cotton")
    assert np.abs(c).max() > 1e-8  # generally nonzero
    assert np.abs(c + c.transpose(0, 2, 1)).max() < 1e-9
    for spec in ("iik", "iki", "kii"):
        assert np.abs(np.einsum(f"{spec}->k", c)).max() < 1e-9


def test_cotton_two_routes_dim4():
    g = entry("random", dim=4, seed=11).geometry
    for p in pts(g, 2, 8):
        b = bundle(g, p)
        assert residual(b.on("cotton"), b.on("cotton_weyl_div")) < 1e-8
    with pytest.raises(DimensionError):
        bundle(entry("random", dim=3, seed=1).geometry,
               [0.1, 0.0, 0.0]).on("cotton_weyl_div")


def test_bach_einstein_and_flat_zero():
    s = entry("sphere", dim=4).geometry
    assert np.abs(bundle(s, [0.1, -0.2, 0.0, 0.1]).on("bach")).max() < 1e-10
    f = entry("euclidean", dim=4).geometry
    assert np.abs(bundle(f, [0.1, -0.2, 0.0, 0.1]).on("bach")).max() == 0.0


def test_bach_symmetric_tracefree_divergence():
    for m, seed in ((4, 12), (5, 3)):
        g = entry("random", dim=m, seed=seed).geometry
        bb = bundle(g, pts(g, 1, 9)[0])
        b = bb.on("bach")
        assert np.abs(b - b.T).max() / (1 + np.abs(b).max()) < 1e-8
        assert abs(np.trace(b)) / (1 + np.abs(b).max()) < 1e-9
        # divergence identity as oracle: div B = (m-4)/(m-2)^2 R^kt C_kti
        div_b = np.einsum("ijj->i", bb.on("bach", 1))
        rc = np.einsum("kt,kti->i", bb.on("ricci"), bb.on("cotton"))
        assert residual(div_b, (m - 4) / (m - 2) ** 2 * rc) < 1e-7
    # at dim 5 the coefficient is not zero and |div B| is about 6e-4, so the
    # identity without it fails
    assert residual(div_b, 0.0 * rc) > 1e-5


# ---------------------------------------------------------------------------
# soliton tensors
# ---------------------------------------------------------------------------

def test_d_tensor_constant_potential_vanishes():
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    flat = GeometrySpec(name="flat_cf", dim=3, coords=spec.coords,
                        domain=spec.domain, metric=spec.metric, f="2", lam=0.0)
    g = GeometryInstance(flat)
    assert np.abs(bundle(g, [0.1, 0.2, 0.3]).on("d_tensor")).max() == 0.0


def test_d_tensor_gaussian_zero():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(bundle(g, [0.3, -0.2, 0.5]).on("d_tensor")).max() == 0.0


def test_d_tensor_four_forms_agree_on_soliton():
    g = entry("cigar_x_flat", dim=4).geometry
    for p in pts(g, 2, 6):
        b = bundle(g, p)
        forms = [b.on("d_tensor")] + [d_tensor_form(b, k) for k in (2, 3, 4)]
        for other in forms[1:]:
            assert residual(forms[0], other) < 1e-8
        d = forms[0]
        assert np.abs(d + d.transpose(0, 2, 1)).max() < 1e-11
        for spec in ("iik", "iki", "kii"):
            assert np.abs(np.einsum(f"{spec}->k", d)).max() < 1e-10


def test_dx_zero_field():
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    flat = GeometrySpec(name="flat_x0", dim=3, coords=spec.coords,
                        domain=spec.domain, metric=spec.metric,
                        x_components=["0", "0", "0"], lam=0.0)
    g = GeometryInstance(flat)
    assert np.abs(bundle(g, [0.1, 0.2, 0.3]).on("dx_tensor")).max() == 0.0


def test_dx_equals_d_for_gradient_field():
    # the cigar catalog entry carries X = grad f in closed form
    g = entry("cigar_x_flat", dim=3).geometry
    for p in pts(g, 2, 4):
        b = bundle(g, p)
        assert residual(b.on("dx_tensor"), b.on("d_tensor")) < 1e-9


def test_dx_rotation_field_independent_evaluation():
    # flat metric, rotation Killing field: term-by-term reference evaluation
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    flat = GeometrySpec(name="flat_rot", dim=3, coords=spec.coords,
                        domain=spec.domain, metric=spec.metric,
                        x_components=["-x2", "x1", "0"], lam=0.0)
    g = GeometryInstance(flat)
    p = np.array([0.3, -0.1, 0.2])
    b = bundle(g, p)
    dx = b.on("dx_tensor")
    x2 = b.on("X", 2)  # second covariant derivatives vanish for linear X
    assert np.abs(x2).max() < 1e-13
    assert np.abs(dx).max() < 1e-9  # every term dies on flat + linear field


def test_duf_degenerations():
    m = 4
    base = catalog.load("conformal_gaussian", dim=m, seed=2, certify=False)
    from ctlab.exprlang import GeometrySpec
    # u = 0: the tensor reduces to the gradient-soliton one
    spec0 = GeometrySpec(name="u0", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain,
                         metric=[["1" if i == j else "0" for j in range(i + 1)]
                                 for i in range(m)],
                         u="0", f=base.spec.f, lam=base.spec.lam)
    g0 = GeometryInstance(spec0)
    p = g0.sample_points(1, 3)[0]
    b0 = bundle(g0, p)
    assert residual(b0.on("duf_tensor"), b0.on("d_tensor")) < 1e-9
    # f constant: vanishes identically
    specc = GeometrySpec(name="fc", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain, metric=base.spec.metric,
                         u=base.spec.u, f="3", lam=base.spec.lam)
    gc = GeometryInstance(specc)
    assert np.abs(bundle(gc, p).on("duf_tensor")).max() < 1e-9


def test_duf_alt_form_on_structure():
    g = entry("conformal_gaussian", dim=4, seed=0).geometry
    for p in pts(g, 2, 5):
        b = bundle(g, p)
        assert residual(b.on("duf_tensor"), duf_tensor_alt(b)) < 1e-9


def test_duf_rescaled_metric_oracle():
    # the tensor equals e^{3u} times its plain counterpart in the rescaled
    # metric
    from ctlab import conformal
    e = entry("conformal_gaussian", dim=4, seed=3)
    pair = conformal.rescale(e.geometry)
    for p in pts(e.geometry, 2, 7):
        duf = bundle(e.geometry, p).on("duf_tensor")
        u_val = e.geometry.state(p).u.value()[0]
        d_tilde = bundle(pair.tilde, tuple(p)).on("d_tensor")
        assert residual(duf, np.exp(3 * u_val) * d_tilde) < 1e-7


def test_dux_degenerations():
    m = 3
    base = catalog.load("conformal_gaussian_plus_killing", dim=m, seed=1,
                        certify=False)
    from ctlab.exprlang import GeometrySpec
    p = np.array([0.2, -0.4, 0.1])
    # u = 0 reduces to the plain vector-field tensor
    spec0 = GeometrySpec(name="u0x", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain,
                         metric=[["1" if i == j else "0" for j in range(i + 1)]
                                 for i in range(m)],
                         u="0", x_components=base.spec.x_components,
                         lam=base.spec.lam)
    g0 = GeometryInstance(spec0)
    b0 = bundle(g0, p)
    assert residual(b0.on("dux_tensor"), b0.on("dx_tensor")) < 1e-9
    # X = 0 kills it
    specz = GeometrySpec(name="x0", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain, metric=base.spec.metric,
                         u=base.spec.u, x_components=["0"] * m,
                         lam=base.spec.lam)
    gz = GeometryInstance(specz)
    assert np.abs(bundle(gz, p).on("dux_tensor")).max() < 1e-9


def test_dux_rescaled_metric_oracle():
    from ctlab import conformal
    e = entry("conformal_gaussian_plus_killing", dim=3, seed=0)
    pair = conformal.rescale(e.geometry)
    for p in pts(e.geometry, 2, 2):
        dux = bundle(e.geometry, p).on("dux_tensor")
        u_val = e.geometry.state(p).u.value()[0]
        dx_tilde = bundle(pair.tilde, tuple(p)).on("dx_tensor")
        assert residual(dux, np.exp(3 * u_val) * dx_tilde) < 1e-9


def test_missing_ingredient_errors():
    from ctlab.geometry import MetricError
    g = entry("s2xs2").geometry
    with pytest.raises(MetricError):
        bundle(g, [0.1, 0.0, 0.0, 0.0]).on("d_tensor")
    with pytest.raises(MetricError):
        bundle(g, [0.1, 0.0, 0.0, 0.0]).on("dx_tensor")


def test_bundle_cache_reproducible():
    g = entry("random", dim=4, seed=14).geometry
    p = pts(g, 1, 5)[0]
    a = bundle(g, p).on("cotton", 1)
    assert bundle(g, p).frames("cotton", 1) is bundle(g, p).frames(
        "cotton", 1)  # cached
    assert np.shares_memory(a, bundle(g, p).frames("cotton", 1))
    g2 = catalog.load("random", dim=4, seed=14, certify=False).geometry
    c = bundle(g2, p).on("cotton", 1)
    assert np.array_equal(a, c)  # bit-for-bit reproducible


def test_point_wrappers_are_bundle_reads():
    # ctbench's independent checks read these wrappers; a bundle of a
    # second instance of the geometry must give them the same bits
    g = entry("random", dim=4, seed=2).geometry
    g2 = entry("random", dim=4, seed=2).geometry
    for p in pts(g, 2, 3):
        b = bundle(g2, p)
        for name in ("riemann", "ricci", "weyl", "cotton", "bach"):
            got = getattr(curvature, name)(g, p).components
            assert np.array_equal(got, b.on(name)), name
        assert curvature.scalar(g, p) == b.on("scalar")


# ---------------------------------------------------------------------------
# chunks of points
# ---------------------------------------------------------------------------

QUANTITIES = [name[len("_build_"):] for name in vars(curvature.CurvatureBundle)
              if name.startswith("_build_")]


def _chunk_charts():
    """random at dims 3, 4 and 5, and both sides of a conformal pair."""
    for dim, seed, order in ((3, 1, 5), (4, 2, 4), (5, 3, 4)):
        yield entry("random", dim=dim, seed=seed, jet_order=order).geometry
    pair = conformal.rescale(entry("conformal_gaussian_plus_killing",
                                   dim=3, jet_order=5).geometry)
    yield pair.base
    yield pair.tilde


@pytest.mark.parametrize("g", list(_chunk_charts()), ids=lambda g: g.name)
def test_chunks_equal_chunks_of_one_bit_for_bit(g):
    # every quantity at every derivative count the order allows: each
    # point of a chunk of 1, 2 or 7 reads what a lone point's bundle of
    # its own gives it
    points = g.sample_points(7, 11)
    compared = 0
    for size in (1, 2, 7):
        fresh = GeometryInstance(g.spec, g.config)
        chunk = Chunk([g], points[:size])
        b = chunk.bundle()
        assert b.state.g.coeffs.shape[0] == size
        errors = []
        for name in QUANTITIES:
            for d in range(g.config.order + 1):
                try:
                    want = [bundle(fresh, p).on(name, d) for p in points[:size]]
                except (DimensionError, MetricError, JetOrderError) as err:
                    errors.append((name, d, type(err)))
                    break
                got = b.frames(name, d)
                assert len(got) == size
                for j, w in enumerate(want):
                    assert np.array_equal(got[j], w), (name, d, size)
                    compared += 1
        for name, d, error in errors:
            with pytest.raises(error):
                b.frames(name, d)
        assert np.array_equal(b.scalar_exp(-2.0), [
            bundle(fresh, p).scalar_exp(-2.0)[0] for p in points[:size]])
    assert compared > 100
