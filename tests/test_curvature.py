"""The curvature stack: symmetries, closed forms, dual routes, soliton
tensors and their degenerations."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ctlab import catalog, conformal, curvature, identities
from ctlab.curvature import DimensionError, bundle
from ctlab.geometry import (Chunk, GeometryInstance, MetricError, tj_combine,
                            tj_einsum, tj_transpose)
from ctlab.jets import JetOrderError
from ctlab.identities import EvalContext, residual, select_records
from oracles import (bundle_with_full_inverse, d_tensor_form,
                     duf_tensor_alt, kulkarni_nomizu, ricci_by_gradient,
                     tower_reference)
from test_identities import BLOCK_CHARTS


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
        b = bundle(g, p)
        # the bundle writes Riemann with its pairs packed, antisymmetric by
        # construction, so the antisymmetries are checked on the unpacked
        # route's lowered jet, at every coefficient, and the bundle's
        # packed jet against it
        ref = tower_reference(b)
        low = tj_einsum("is,sjkl->ijkl", b.state.g,
                        ref["riemann13"]).coeffs[0]
        assert np.abs(low + low.transpose(0, 2, 1, 3, 4)).max() < 1e-10
        assert np.abs(low + low.transpose(0, 1, 2, 4, 3)).max() < 1e-10
        assert np.abs(b.coord("riemann").coeffs
                      - ref["riemann"].coeffs).max() < 1e-13
        r = b.on("riemann")
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() < 1e-10


def test_riemann_type_jets_are_packed_and_refuse_products():
    g = entry("random", dim=4, seed=1).geometry
    b = bundle(g, pts(g, 1, 4)[0])
    full = tj_einsum("is,sjkl->ijkl", b.state.g,
                     tower_reference(b)["riemann13"])
    r = b.coord("riemann")
    assert (r.pairs, r.rank, r.coeffs.shape[2:]) == (2, 4, (6, 6))
    assert np.abs(r.coeffs - full.packed().coeffs).max() < 1e-13
    assert np.array_equal(r.value(), r.unpacked().value())
    for name in ("riemann", "weyl"):
        for d in range(3):
            t = b.coord(name, d)
            assert (t.pairs, t.rank, t.coeffs.shape[2:4]) == (2, 4 + d, (6, 6))
    for refused in (lambda: tj_einsum("ijkl,ijkl->", r, full),
                    lambda: tj_einsum("ijkl,ijkl->", full, r),
                    lambda: tj_transpose(r, (1, 0, 2, 3)),
                    lambda: r.packed(),
                    lambda: tj_combine((1.0, r), (1.0, full))):
        with pytest.raises(ValueError, match="packed"):
            refused()


def _tower_charts():
    """random at dims 3-5 and jet orders 2-6, and a conformal pair's
    rescaled chart."""
    for dim in (3, 4, 5):
        for order in range(2, 7):
            yield entry("random", dim=dim, seed=dim, jet_order=order).geometry
    yield conformal.rescale(entry("conformal_gaussian", dim=4,
                                  jet_order=5).geometry).tilde


@pytest.mark.parametrize("g", list(_tower_charts()),
                         ids=lambda g: f"{g.name}-{g.dim}-{g.config.order}")
def test_tower_matches_the_unpacked_routes(g):
    # Riemann and Weyl written into their 2-form slots and Ricci from its
    # own Christoffel terms agree with the full mixed Riemann tensor
    # lowered, traced and decomposed, at every jet coefficient
    for p in pts(g, 2, 7):
        b = bundle(g, p)
        ref = tower_reference(b)
        for name in ("riemann", "ricci", "scalar", "weyl"):
            got, want = b.coord(name), ref[name]
            assert (got.order, got.pairs, got.coeffs.shape) == (
                want.order, want.pairs, want.coeffs.shape), name
            assert np.abs(got.coeffs - want.coeffs).max() < 1e-13, name


@pytest.mark.parametrize("g", list(_tower_charts()),
                         ids=lambda g: f"{g.name}-{g.dim}-{g.config.order}")
def test_ricci_sums_the_partials_its_trace_reads(g):
    # d_i Gamma^i_lj from the m partials the trace reads gives the bits of
    # the gradient of every Christoffel component traced, signs of zeros
    # too, on a lone point and on a chunk
    points = pts(g, 3, 7)
    for got in [bundle(g, p) for p in points[:2]] + [Chunk([g], points)
                                                     .bundle()]:
        want = ricci_by_gradient(got).coeffs
        got = got.coord("ricci").coeffs
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


QUANTITIES = [n[len("_build_"):] for n in vars(curvature.CurvatureBundle)
              if n.startswith("_build_")]


@pytest.mark.parametrize("name, params, families", BLOCK_CHARTS)
def test_metric_inverse_to_order_k_minus_1(name, params, families):
    # the point state inverts the metric jet to order K - 1, the most any
    # reader takes: every bundle quantity and its first covariant
    # derivative, jets and frames, keep the bits the order-K inverse gave
    for order in (2, 4, 6):
        g = entry(name, **params).geometry.at_order(order)
        points = pts(g, 3, 1)
        got = Chunk([g], points).bundle()
        want = bundle_with_full_inverse(g, points)
        assert got.state.ginv.order == order - 1
        assert want.state.ginv.order == order
        for q in QUANTITIES:
            for d in (0, 1):
                try:
                    w = want.coord(q, d).coeffs
                except (ValueError, JetOrderError) as err:
                    with pytest.raises(type(err)):
                        got.coord(q, d)
                    continue
                c = got.coord(q, d).coeffs
                assert c.shape == w.shape, (q, d)
                assert np.array_equal(c, w), (q, d)
                assert np.array_equal(np.signbit(c), np.signbit(w)), (q, d)
                assert np.array_equal(got.frames(q, d), want.frames(q, d))


def test_lone_point_tower_memory():
    # a lone point's Riemann, Ricci, scalar and Weyl at dim 5 and order 6,
    # once the kernels' plans are cached by a first point: no unpacked
    # rank-4 jet is cached or built whole in the tower's sums
    g = entry("random", dim=5, jet_order=6).geometry
    first, p = pts(g, 2, 0)
    names = ("riemann", "ricci", "scalar", "weyl")
    for name in names:
        bundle(g, first).on(name)
    g.state(p).christoffel  # noqa: B018  (the point state's, not the tower's)
    tracemalloc.start()
    try:
        b = bundle(g, p)
        for name in names:
            b.on(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak / 2**20
    assert all(t.pairs == 2 for t in b._coord.values() if t.rank == 4)


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
    # Kulkarni-Nomizu with Schouten (the bundle's) vs the decomposition via
    # Ricci and scalar (the oracle's), and vs Kulkarni-Nomizu on frame values
    g = entry("random", dim=4, seed=8).geometry
    p = pts(g, 1, 4)[0]
    m = 4
    b = bundle(g, p)
    r = b.on("riemann")
    a = b.on("schouten")
    w_direct = b.on("weyl")
    w_decomposed = b.state.to_orthonormal(tower_reference(b)["weyl"].value())
    assert np.abs(w_direct - w_decomposed[0]).max() < 1e-11
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


# ---------------------------------------------------------------------------
# curvature.einsum's GEMM path and the coframe change
# ---------------------------------------------------------------------------

def _block(rng, shape, points):
    """A random block value of tensor ``shape`` over ``points`` points,
    point-major with the point axis last, as evaluators get them; None
    points is a one-point array."""
    if points is None:
        return rng.standard_normal(shape)
    return np.moveaxis(rng.standard_normal((points,) + shape), 0, -1)


def _reference(spec, *operands):
    lhs, out = spec.split("->")
    return np.einsum(",".join(s + "..." for s in lhs.split(",")) + "->"
                     + out + "...", *operands)


def _evaluator_specs(monkeypatch):
    """Every (spec, positions of the delta, tensor shapes) that the record
    evaluators of all families contract on the block-test charts, at one
    point."""
    seen = set()
    real = curvature.einsum

    def spy(spec, *operands):
        lhs = spec.split("->")[0].split(",")
        seen.add((spec, tuple(n for n, o in enumerate(operands)
                              if id(o) in curvature._DELTAS),
                  *(np.shape(o)[:len(s)] for s, o in zip(lhs, operands))))
        return real(spec, *operands)

    for module in (curvature, identities, conformal):
        monkeypatch.setattr(module, "einsum", spy)
    for name, params, families in BLOCK_CHARTS:
        g = catalog.load(name, **params).geometry
        records = conformal.select_laws() if "LAW" in families else []
        records += select_records([f for f in families if f != "LAW"])
        records = [r for r in records if identities._skip_reason(
            g, r, identities._available(g)) is None]
        g = g.at_order(max(r.min_order for r in records))
        tilde = conformal.rescale(g).tilde if g.spec.u else None
        c = EvalContext(g, g.sample_points(1, 3)[0], tilde)
        for r in records:
            r.evaluate(c)
    monkeypatch.undo()
    return sorted(seen)


def test_gemm_path_agrees_with_numpy_on_every_evaluator_spec(monkeypatch):
    # at P = 1 and 5, with a delta-shaped operand (point axis of length
    # 1) on either side, and on one-point arrays; each point of a block
    # gets the bits of its block of one, and each GEMM product is stored
    # point-major, C-ordered behind its point axis
    rng = np.random.default_rng(0)
    specs = sorted({(spec, *shapes) for spec, _, *shapes
                    in _evaluator_specs(monkeypatch) if len(shapes) == 2})
    planned = [spec for spec, *shapes in specs
               if curvature._gemm_plan(spec, *(s + (5,) for s in shapes))]
    assert "vjktl,virs->ijktlrs" in planned and "ab,bc->ac" in planned
    assert len(planned) > 40
    for spec, sa, sb in specs:
        for pa, pb in ((1, 1), (5, 5), (5, 1), (1, 5), (None, None)):
            a, b = _block(rng, sa, pa), _block(rng, sb, pb)
            got, want = curvature.einsum(spec, a, b), _reference(spec, a, b)
            assert got.shape == want.shape, spec
            scale = np.max(np.abs(want), initial=1e-300)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale, (
                spec, pa, pb)
            if pa == pb == 5 and np.ndim(got) > 0:
                if spec in planned:
                    assert np.moveaxis(got, -1, 0).flags.c_contiguous, spec
                for j in range(5):
                    one = [np.moveaxis(np.moveaxis(x, -1, 0)[j:j + 1].copy(),
                                       0, -1) for x in (a, b)]
                    assert np.array_equal(got[..., j:j + 1],
                                          curvature.einsum(spec, *one)), spec


def _delta_operands(rng, spec, deltas, shapes, points):
    """The delta at positions ``deltas`` and random block values of the
    other ``shapes``, their points from the cycle ``points``."""
    points = iter(points * len(shapes))
    return [curvature.delta(shape[0]) if n in deltas
            else _block(rng, shape, next(points))
            for n, shape in enumerate(shapes)]


def test_delta_products_match_numpy_on_every_evaluator_spec(monkeypatch):
    # every spec an evaluator contracts with the delta, on blocks of 1 and
    # 5 points, mixed, and on one-point arrays: numpy's bits, the product
    # stored point-major, and each point of a block with the bits of its
    # block of one
    rng = np.random.default_rng(4)
    specs = [(spec, deltas, shapes) for spec, deltas, *shapes
             in _evaluator_specs(monkeypatch) if deltas]
    on_diagonal = {spec for spec, deltas, shapes in specs
                   if curvature._plan(spec, _delta_operands(
                       rng, spec, deltas, shapes, [5]))[0]
                   is curvature._delta_product}
    assert {"i,t,jk->ijkt", "jt,ik->ijkt", "ik,jt->ijkt", "l,ijl,kt->ijkt",
            "s,it,k,sj->ijkt", ",vr,xs->vxrs"} <= on_diagonal
    assert len(on_diagonal) > 40
    for spec, deltas, shapes in specs:
        for points in ([1], [5], [5, 1], [1, 5], [None], [None, 5]):
            ops = _delta_operands(rng, spec, deltas, shapes, points)
            got, want = curvature.einsum(spec, *ops), _reference(spec, *ops)
            assert got.shape == want.shape and np.array_equal(got, want), (
                spec, points)
            if got.shape[-1] != 5:
                continue
            if spec in on_diagonal:
                assert np.moveaxis(got, -1, 0).flags.c_contiguous, spec
            for j in range(5):
                one = [x if x.shape[-1] == 1 or x.ndim == len(sub) else
                       np.moveaxis(np.moveaxis(x, -1, 0)[j:j + 1].copy(),
                                   0, -1)
                       for x, sub in zip(ops, spec.split("->")[0]
                                         .split(","))]
                assert np.array_equal(got[..., j:j + 1],
                                      curvature.einsum(spec, *one)), spec


@pytest.mark.parametrize("spec, ranks", [
    ("ikk->i", (3,)), ("ab,a,b->", (2, 1, 1)), ("i,j->ij", (1, 1))])
def test_specs_the_planner_refuses_give_numpy_bits(spec, ranks):
    rng = np.random.default_rng(1)
    assert curvature._gemm_plan(spec, (3,) * ranks[0], (3,) * ranks[-1]) \
        is None
    for points in (1, 5, None):
        operands = [_block(rng, (3,) * r, points) for r in ranks]
        assert np.array_equal(curvature.einsum(spec, *operands),
                              _reference(spec, *operands))


@pytest.mark.parametrize("spec, ranks, delta", [
    ("ij,jk->ik", (2, 2), lambda i: i),  # the delta sums an index
    ("ii->", (2,), lambda i: i),
    ("jk,it->ijkt", (2, 2), lambda i: 2.0 * i),  # lam * I
    ("jk,it->ijkt", (2, 2), np.copy)])
def test_deltas_the_planner_refuses_give_numpy_bits(spec, ranks, delta):
    rng = np.random.default_rng(2)
    for points in (1, 5, None):
        operands = [_block(rng, (3,) * r, points) for r in ranks[:-1]]
        operands.append(delta(curvature.delta(3)))
        assert curvature._plan(spec, operands)[0] \
            is not curvature._delta_product
        assert np.array_equal(curvature.einsum(spec, *operands),
                              _reference(spec, *operands))


def _fp_outcome(errors: str, fn):
    """What ``fn()`` raises and warns under ``np.errstate(all=errors)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with np.errstate(all=errors):
                fn()
            raised = None
        except FloatingPointError as err:
            raised = str(err)
    return raised, [str(w.message) for w in caught]


@pytest.mark.parametrize("spec, at", [
    ("i,t,jk->ijkt", 2), ("jt,ik->ijkt", 1), ("k,ij->ijk", 1),
    ("ik,jt->ijkt", 0), ("l,ijl,kt->ijkt", 2), ("s,it,k,sj->ijkt", 1)])
def test_delta_products_keep_non_finite_values_and_numpy_flags(spec, at):
    # inf, NaN, 0 and values whose products overflow: on the delta's
    # diagonal numpy's values, non-finite ones included, and 0 off it; and
    # under any errstate, the errors and warnings of np.einsum, which
    # checks no floating-point flag
    rng = np.random.default_rng(3)
    subs = spec.split("->")[0].split(",")
    for points in (5, None):
        ops = [_block(rng, (3,) * len(s), points) for s in subs]
        for x in ops:
            k = min(4, x.size)
            x[np.unravel_index(rng.choice(x.size, k, replace=False),
                               x.shape)] = [np.inf, np.nan, 0.0, 1e300][:k]
        ops[at] = curvature.delta(3)
        ones = [x if n == at else np.ones_like(x) for n, x in enumerate(ops)]
        diagonal = _reference(spec, *ones) != 0
        got, want = curvature.einsum(spec, *ops), _reference(spec, *ops)
        assert curvature._plan(spec, ops)[0] is curvature._delta_product
        assert not np.isfinite(want[diagonal]).all()
        assert np.array_equal(got[diagonal], want[diagonal], equal_nan=True)
        assert (got[~diagonal] == 0).all()
        for errors in ("raise", "warn"):
            assert _fp_outcome(errors, lambda: curvature.einsum(spec, *ops)) \
                == _fp_outcome(errors, lambda: _reference(spec, *ops)), errors


def test_to_orthonormal_matches_slot_by_slot_contraction():
    # every slot of a rank 0-7 value contracted with each point's inverse
    # vielbein, against one tensordot per slot and point
    g = entry("random", dim=3, seed=1).geometry
    state = Chunk([g], g.sample_points(3, 2)).bundle().state
    rng = np.random.default_rng(2)
    for rank in range(8):
        x = rng.standard_normal((3,) + (3,) * rank)
        got = state.to_orthonormal(x)
        for j, v in enumerate(state.vielbein_inv):
            want = x[j]
            for k in range(rank):
                want = np.moveaxis(np.tensordot(v, want, axes=(1, k)), 0, k)
            assert np.max(np.abs(got[j] - want), initial=0.0) <= 1e-14 * max(
                1.0, np.max(np.abs(want))), rank
