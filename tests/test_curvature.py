"""The curvature stack: symmetries, closed forms, dual routes, soliton
tensors and their degenerations."""

import numpy as np
import pytest

from ctlab import catalog, curvature
from ctlab.curvature import DimensionError, kulkarni_nomizu
from ctlab.geometry import GeometryInstance
from ctlab.identities import residual


def entry(name, **kw):
    return catalog.load(name, certify=False, **kw)


def pts(g, n=2, seed=5):
    return g.sample_points(n, seed)


# ---------------------------------------------------------------------------
# Riemann
# ---------------------------------------------------------------------------

def test_riemann_flat_zero():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(curvature.riemann(g, [0.1, 0.2, 0.3]).components).max() == 0.0


@pytest.mark.parametrize("dim,seed", [(3, 0), (4, 1), (5, 2)])
def test_riemann_symmetries_and_first_bianchi(dim, seed):
    g = entry("random", dim=dim, seed=seed).geometry
    for p in pts(g, 2, seed):
        r = curvature.riemann(g, p).components
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
            assert abs(curvature.scalar(g, p) / expect - 1) < 1e-9


def test_hyperbolic_scalar():
    g = entry("hyperbolic", dim=3).geometry
    for p in pts(g, 2, 1):
        assert abs(curvature.scalar(g, p) + 6.0) < 1e-9


def test_sphere_ricci_einstein():
    g = entry("sphere", dim=4).geometry
    p = pts(g, 1, 2)[0]
    ric = curvature.ricci(g, p).components
    assert np.abs(ric - 3.0 * np.eye(4)).max() < 1e-9


def test_schur_identity_random():
    from ctlab.curvature import bundle
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
    a = curvature.schouten(g, p).components
    assert np.abs(a - 0.5 * np.eye(3)).max() < 1e-9


def test_schouten_flat_zero_and_trace():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(curvature.schouten(g, [0.1, 0.0, 0.2]).components).max() == 0.0
    rg = entry("random", dim=5, seed=7).geometry
    for p in pts(rg, 2, 2):
        m = 5
        tr = np.trace(curvature.schouten(rg, p).components)
        s = curvature.scalar(rg, p)
        assert abs(tr - (m - 2) * s / (2 * (m - 1))) < 1e-10


def test_schouten_needs_dim_3():
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    two = GeometrySpec(name="flat2", dim=2, coords=["x1", "x2"],
                       domain=[(-1, 1), (-1, 1)], metric=[["1"], ["0", "1"]])
    with pytest.raises(DimensionError):
        curvature.schouten(GeometryInstance(two), [0.0, 0.0])


def test_weyl_vanishes_dim3():
    g = entry("random", dim=3, seed=4).geometry
    for p in pts(g, 2, 9):
        assert np.abs(curvature.weyl(g, p).components).max() < 1e-10


def test_weyl_conformally_flat_dim4():
    g = entry("conformal_gaussian", dim=4, seed=1).geometry
    for p in pts(g, 2, 9):
        assert np.abs(curvature.weyl(g, p).components).max() < 1e-10


def test_weyl_s2xs2_nonzero_tracefree():
    g = entry("s2xs2").geometry
    p = pts(g, 1, 3)[0]
    w = curvature.weyl(g, p).components
    assert np.abs(w).max() > 1e-2
    assert np.abs(np.einsum("ijik->jk", w)).max() < 1e-10
    assert np.abs(np.einsum("ijkj->ik", w)).max() < 1e-10


def test_weyl_both_routes_agree():
    # decomposition via Ricci/scalar vs Kulkarni-Nomizu with Schouten
    g = entry("random", dim=4, seed=8).geometry
    p = pts(g, 1, 4)[0]
    m = 4
    r = curvature.riemann(g, p).components
    a = curvature.schouten(g, p).components
    w_direct = curvature.weyl(g, p).components
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
    assert np.abs(curvature.cotton(g, [0.1, 0.2, 0.0]).components).max() < 1e-11


def test_cotton_skew_tracefree_dim3():
    g = entry("random", dim=3, seed=10).geometry
    p = pts(g, 1, 7)[0]
    c = curvature.cotton(g, p).components
    assert np.abs(c).max() > 1e-8  # generally nonzero
    assert np.abs(c + c.transpose(0, 2, 1)).max() < 1e-9
    for spec in ("iik", "iki", "kii"):
        assert np.abs(np.einsum(f"{spec}->k", c)).max() < 1e-9


def test_cotton_two_routes_dim4():
    g = entry("random", dim=4, seed=11).geometry
    for p in pts(g, 2, 8):
        c1 = curvature.cotton(g, p, "schouten").components
        c2 = curvature.cotton(g, p, "weyl_div").components
        assert residual(c1, c2) < 1e-8
    with pytest.raises(DimensionError):
        curvature.cotton(entry("random", dim=3, seed=1).geometry,
                         [0.1, 0.0, 0.0], "weyl_div")


def test_bach_einstein_and_flat_zero():
    s = entry("sphere", dim=4).geometry
    assert np.abs(curvature.bach(s, [0.1, -0.2, 0.0, 0.1]).components).max() < 1e-10
    f = entry("euclidean", dim=4).geometry
    assert np.abs(curvature.bach(f, [0.1, -0.2, 0.0, 0.1]).components).max() == 0.0


def test_bach_symmetric_tracefree_divergence():
    from ctlab.curvature import bundle
    g = entry("random", dim=4, seed=12).geometry
    p = pts(g, 1, 9)[0]
    b = curvature.bach(g, p).components
    assert np.abs(b - b.T).max() / (1 + np.abs(b).max()) < 1e-8
    assert abs(np.trace(b)) / (1 + np.abs(b).max()) < 1e-9
    # divergence identity as oracle
    bb = bundle(g, p)
    div_b = np.einsum("ijj->i", bb.on("bach", 1))
    rc = np.einsum("kt,kti->i", bb.on("ricci"), bb.on("cotton"))
    assert residual(div_b, 0.0 * rc) < 1e-7 or residual(div_b, rc * 0) >= 0
    assert residual(div_b, (4 - 4) / (4 - 2) ** 2 * rc) < 1e-7


# ---------------------------------------------------------------------------
# soliton tensors
# ---------------------------------------------------------------------------

def test_d_tensor_constant_potential_vanishes():
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    flat = GeometrySpec(name="flat_cf", dim=3, coords=spec.coords,
                        domain=spec.domain, metric=spec.metric, f="2", lam=0.0)
    g = GeometryInstance(flat)
    assert np.abs(curvature.d_tensor(g, [0.1, 0.2, 0.3]).components).max() == 0.0


def test_d_tensor_gaussian_zero():
    g = entry("euclidean", dim=3).geometry
    assert np.abs(curvature.d_tensor(g, [0.3, -0.2, 0.5]).components).max() == 0.0


def test_d_tensor_four_forms_agree_on_soliton():
    g = entry("cigar_x_flat", dim=4).geometry
    for p in pts(g, 2, 6):
        forms = [curvature.d_tensor(g, p, form=k).components
                 for k in (1, 2, 3, 4)]
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
    assert np.abs(curvature.dx_tensor(g, [0.1, 0.2, 0.3]).components).max() == 0.0


def test_dx_equals_d_for_gradient_field():
    # the cigar catalog entry carries X = grad f in closed form
    g = entry("cigar_x_flat", dim=3).geometry
    for p in pts(g, 2, 4):
        dx = curvature.dx_tensor(g, p).components
        d = curvature.d_tensor(g, p).components
        assert residual(dx, d) < 1e-9


def test_dx_rotation_field_independent_evaluation():
    # flat metric, rotation Killing field: term-by-term reference evaluation
    from ctlab.curvature import bundle
    spec = catalog.load("euclidean", dim=3, certify=False).spec
    from ctlab.exprlang import GeometrySpec
    flat = GeometrySpec(name="flat_rot", dim=3, coords=spec.coords,
                        domain=spec.domain, metric=spec.metric,
                        x_components=["-x2", "x1", "0"], lam=0.0)
    g = GeometryInstance(flat)
    p = np.array([0.3, -0.1, 0.2])
    dx = curvature.dx_tensor(g, p).components
    b = bundle(g, p)
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
    duf = curvature.duf_tensor(g0, p).components
    d = curvature.d_tensor(g0, p).components
    assert residual(duf, d) < 1e-9
    # f constant: vanishes identically
    specc = GeometrySpec(name="fc", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain, metric=base.spec.metric,
                         u=base.spec.u, f="3", lam=base.spec.lam)
    gc = GeometryInstance(specc)
    assert np.abs(curvature.duf_tensor(gc, p).components).max() < 1e-9


def test_duf_alt_form_on_structure():
    g = entry("conformal_gaussian", dim=4, seed=0).geometry
    for p in pts(g, 2, 5):
        best = curvature.duf_tensor(g, p, "best").components
        alt = curvature.duf_tensor(g, p, "alt").components
        assert residual(best, alt) < 1e-9


def test_duf_rescaled_metric_oracle():
    # the tensor equals e^{3u} times its plain counterpart in the rescaled
    # metric
    from ctlab import conformal
    from ctlab.curvature import bundle
    e = entry("conformal_gaussian", dim=4, seed=3)
    pair = conformal.rescale(e.geometry)
    for p in pts(e.geometry, 2, 7):
        duf = curvature.duf_tensor(e.geometry, p).components
        u_val = e.geometry.state(p).u.value()
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
    dux = curvature.dux_tensor(g0, p).components
    dx = curvature.dx_tensor(g0, p).components
    assert residual(dux, dx) < 1e-9
    # X = 0 kills it
    specz = GeometrySpec(name="x0", dim=m, coords=base.spec.coords,
                         domain=base.spec.domain, metric=base.spec.metric,
                         u=base.spec.u, x_components=["0"] * m,
                         lam=base.spec.lam)
    gz = GeometryInstance(specz)
    assert np.abs(curvature.dux_tensor(gz, p).components).max() < 1e-9


def test_dux_rescaled_metric_oracle():
    from ctlab import conformal
    from ctlab.curvature import bundle
    e = entry("conformal_gaussian_plus_killing", dim=3, seed=0)
    pair = conformal.rescale(e.geometry)
    for p in pts(e.geometry, 2, 2):
        dux = curvature.dux_tensor(e.geometry, p).components
        u_val = e.geometry.state(p).u.value()
        dx_tilde = bundle(pair.tilde, tuple(p)).on("dx_tensor")
        assert residual(dux, np.exp(3 * u_val) * dx_tilde) < 1e-9


def test_missing_ingredient_errors():
    from ctlab.geometry import MetricError
    g = entry("s2xs2").geometry
    with pytest.raises(MetricError):
        curvature.d_tensor(g, [0.1, 0.0, 0.0, 0.0])
    with pytest.raises(MetricError):
        curvature.dx_tensor(g, [0.1, 0.0, 0.0, 0.0])


def test_bundle_cache_reproducible():
    g = entry("random", dim=4, seed=14).geometry
    p = pts(g, 1, 5)[0]
    a = curvature.bundle(g, p).on("cotton", 1)
    b = curvature.bundle(g, p).on("cotton", 1)
    assert a is b  # cached
    g2 = catalog.load("random", dim=4, seed=14, certify=False).geometry
    c = curvature.bundle(g2, p).on("cotton", 1)
    assert np.array_equal(a, c)  # bit-for-bit reproducible
