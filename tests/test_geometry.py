"""Chart-level operators against hand values and FD/flow oracles."""

import numpy as np
import pytest

from ctlab import catalog, jets
from ctlab.exprlang import GeometrySpec
from ctlab.curvature import bundle
from ctlab.geometry import GeometryInstance, MetricError, point_key, point_scope
from ctlab.jets import JetConfig, JetOrderError

from oracles import christoffel_fd, hessian_fd, laplacian_fd, lie_metric_fd


def euclidean(dim=3):
    return catalog.load("euclidean", dim=dim, certify=False).geometry


def test_christoffel_flat_vanishes():
    g = euclidean()
    gam = g.christoffel([0.2, -0.1, 0.5]).components
    assert np.abs(gam).max() == 0.0


def test_christoffel_polar_hand_values():
    spec = GeometrySpec(name="polar", dim=2, coords=["x1", "x2"],
                        domain=[(0.5, 3.0), (-3.0, 3.0)],
                        metric=[["1"], ["0", "x1^2"]])
    g = GeometryInstance(spec)
    gam = g.christoffel([2.0, 0.3]).components
    assert abs(gam[0, 1, 1] + 2.0) < 1e-14
    assert abs(gam[1, 0, 1] - 0.5) < 1e-14


def test_christoffel_sphere_vs_fd_oracle():
    g = catalog.load("sphere", dim=3, certify=False).geometry
    p = np.array([0.2, -0.3, 0.1])
    exact = g.christoffel(p).components
    oracle = christoffel_fd(g, p)
    assert np.abs(exact - oracle).max() < 1e-7


def test_metric_compatibility():
    # covariant derivative of the metric itself vanishes
    for name, kw in (("sphere", {"dim": 3}), ("random", {"dim": 4, "seed": 2}),
                     ("random", {"dim": 5, "seed": 3})):
        g = catalog.load(name, certify=False, **kw).geometry
        for p in g.sample_points(2, 8):
            dg = g.covariant_derivative("metric", p).components
            assert np.abs(dg).max() < 1e-11


def test_hessian_flat_cases():
    g = euclidean()
    h = g.hessian("x1", [0.3, 0.1, 0.2])
    assert np.abs(h.components).max() == 0.0
    assert g.laplacian("x1", [0.3, 0.1, 0.2]) == 0.0
    h2 = g.hessian("x1^2/2 + x2^2/2 + x3^2/2", [0.3, 0.1, 0.2])
    assert np.abs(h2.components - np.eye(3)).max() < 1e-14
    assert abs(g.laplacian("x1^2+x2^2+x3^2", [0.5, -0.2, 0.4]) - 6.0) < 1e-13


def test_laplacian_log_bowl():
    g = euclidean()
    text = "log(1+x1^2+x2^2+x3^2)"
    assert abs(g.laplacian(text, [0.0, 0.0, 0.0]) - 6.0) < 1e-13
    p = np.array([0.6, 0.0, 0.0])  # interior point of the chart box
    assert abs(g.laplacian(text, p) - laplacian_fd(g, p, text)) < 1e-8


def test_hessian_sphere_vs_fd_oracle():
    g = catalog.load("sphere", dim=3, certify=False).geometry
    p = np.array([0.15, 0.25, -0.1])
    text = "x1*x2 + sin(x3)"
    exact = g.hessian(text, p).components
    assert np.abs(exact - hessian_fd(g, p, text)).max() < 1e-7
    assert np.abs(exact - exact.T).max() < 1e-11  # torsion-free


def test_hessian_symmetry_random_metric():
    g = catalog.load("random", dim=4, seed=5, certify=False).geometry
    for p in g.sample_points(2, 3):
        h = g.hessian("f", p).components
        assert np.abs(h - h.T).max() < 1e-11


def test_lie_derivative_gradient_field():
    g = euclidean()
    lie = g.lie_derivative_metric([0.2, 0.4, -0.3],
                                  x_exprs=["x1", "x2", "x3"])
    assert np.abs(lie.components - 2 * np.eye(3)).max() < 1e-13


def test_lie_derivative_rotation_is_killing():
    g = euclidean()
    lie = g.lie_derivative_metric([0.2, 0.4, -0.3],
                                  x_exprs=["-x2", "x1", "0"])
    assert np.abs(lie.components).max() < 1e-13


def test_lie_derivative_vs_flow_oracle():
    g = catalog.load("random", dim=3, seed=11, certify=False).geometry
    p = np.array([0.2, -0.3, 0.4])
    exact = g.lie_derivative_metric(p).components
    from ctlab.exprlang import eval_expr
    x_fn = lambda y: np.array([eval_expr(e, y) for e in g.spec.x_exprs])
    oracle = lie_metric_fd(g, p, x_fn)
    assert np.abs(exact - oracle).max() < 1e-6


def test_divergence_is_trace_of_nabla_x():
    # independent route: div X = (1/sqrt(det g)) d_i (sqrt(det g) X^i),
    # evaluated with scalar jets
    from ctlab.exprlang import eval_expr_jet
    g = catalog.load("random", dim=3, seed=4, certify=False).geometry
    p = g.sample_points(1, 2)[0]
    st = g.state(p)
    dx = st.cov_deriv(st.x_lower).value()
    div_trace = float(np.einsum("ab,ab->", st.ginv.value(), dx))

    order = 2
    entries = [[eval_expr_jet(g.spec.metric_exprs[i][j], p, order)
                for j in range(3)] for i in range(3)]
    det = (entries[0][0] * (entries[1][1] * entries[2][2] - entries[1][2] * entries[2][1])
           - entries[0][1] * (entries[1][0] * entries[2][2] - entries[1][2] * entries[2][0])
           + entries[0][2] * (entries[1][0] * entries[2][1] - entries[1][1] * entries[2][0]))
    root = jets.sqrt(det)
    acc = 0.0
    for i in range(3):
        xi = eval_expr_jet(g.spec.x_exprs[i], p, order)
        prod = root * xi
        acc += prod.derivative(tuple(1 if v == i else 0 for v in range(3)))
    assert abs(acc / root.value - div_trace) < 1e-12


def test_orthonormal_euclidean_is_identity():
    g = euclidean()
    st = g.state([0.1, 0.2, 0.3])
    arr = np.arange(27.0).reshape(3, 3, 3)
    assert np.abs(st.to_orthonormal(arr) - arr).max() < 1e-14


def test_orthonormal_metric_is_delta():
    g = catalog.load("random", dim=4, seed=9, certify=False).geometry
    st = g.state(g.sample_points(1, 1)[0])
    assert np.abs(st.to_orthonormal(st.g.value()) - np.eye(4)).max() < 1e-13


def test_orthonormal_preserves_invariants():
    from ctlab import curvature
    g = catalog.load("random", dim=4, seed=9, certify=False).geometry
    p = g.sample_points(1, 6)[0]
    b = curvature.bundle(g, p)
    ric_coord = b.coord("ricci").value()
    ginv = g.state(p).ginv.value()
    inv_coord = np.einsum("ij,kl,ik,jl->", ric_coord, ric_coord, ginv, ginv)
    ric_on = b.on("ricci")
    assert abs(inv_coord - np.sum(ric_on ** 2)) < 1e-10


def test_vielbein_inverse_relation():
    g = catalog.load("random", dim=5, seed=1, certify=False).geometry
    st = g.state(g.sample_points(1, 3)[0])
    e = st.cholesky.T  # coframe rows
    ginv = st.ginv.value()
    assert np.abs(e @ ginv @ e.T - np.eye(5)).max() < 1e-12


def test_frame_conversion_involutive():
    g = catalog.load("random", dim=3, seed=13, certify=False).geometry
    st = g.state(g.sample_points(1, 4)[0])
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 3))
    on = st.to_orthonormal(arr)
    back = on
    for s in range(2):
        back = np.moveaxis(np.tensordot(st.cholesky.T, back, axes=(0, s)), 0, s)
    assert np.abs(back - arr).max() < 1e-11


def test_positive_definiteness_enforced():
    spec = GeometrySpec(name="bad", dim=2, coords=["x1", "x2"],
                        domain=[(-2.0, 2.0), (-2.0, 2.0)],
                        metric=[["x1"], ["0", "1"]])
    g = GeometryInstance(spec)
    with pytest.raises(MetricError, match="positive definite"):
        g.state([-1.0, 0.0])


def test_point_outside_domain():
    g = euclidean()
    with pytest.raises(MetricError, match="outside"):
        g.state([5.0, 0.0, 0.0])


def test_jet_order_exhaustion_fails_fast():
    g = GeometryInstance(catalog.load("sphere", dim=3, certify=False).spec,
                         JetConfig(2))
    with pytest.raises(JetOrderError, match="exhausted"):
        g.covariant_derivative("metric", [0.1, 0.0, 0.0], times=3)


def test_missing_field_errors():
    g = catalog.load("s2xs2", certify=False).geometry
    with pytest.raises(MetricError, match="no field"):
        g.covariant_derivative("f", [0.1, 0.0, 0.0, 0.0])
    with pytest.raises(MetricError, match="no vector field"):
        g.lie_derivative_metric([0.1, 0.0, 0.0, 0.0])


def test_point_scope_keeps_earlier_entries():
    g = euclidean()
    held, fresh = g.sample_points(2, 0)
    g.state(held)
    with point_scope(held, g), point_scope(fresh, g):
        assert bundle(g, held).state is g.state(held)
        bundle(g, fresh).on("ricci")
        assert point_key(fresh) in g._points
    assert point_key(held) in g._points
    assert point_key(fresh) not in g._points
