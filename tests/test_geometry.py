"""Chart-level operators against hand values and FD/flow oracles."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, conformal, geometry, identities, jets
from ctlab.exprlang import EvalDomainError, GeometrySpec, Tape
from ctlab.curvature import bundle
from ctlab.geometry import (
    BLOCK_BYTES,
    Chunk,
    GeometryInstance,
    MetricError,
    block_size,
    held_bytes,
    point_blocks,
    point_key,
)
from ctlab.jets import JetConfig, JetOrderError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from run_full_suite import LAW_SCHEDULE, SCHEDULE  # noqa: E402

from oracles import (
    christoffel_fd,
    eval_expr_jet_reference,
    hessian_fd,
    laplacian_fd,
    lie_metric_fd,
)


def euclidean(dim=3):
    return catalog.load("euclidean", dim=dim, certify=False).geometry


def with_fields(geometry, **fields):
    """``geometry``'s chart with ``fields`` (``f``, ``x_components``) in
    place of its own."""
    return GeometryInstance(dataclasses.replace(geometry.spec, **fields),
                            geometry.config)


def hessian(geometry, p):
    return bundle(geometry, p).coord("f", 2).value()[0]


def laplacian(geometry, p):
    return float(np.einsum("ab,ab->", geometry.state(p).ginv.value()[0],
                           hessian(geometry, p)))


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
            st = g.state(p)
            dg = st.cov_deriv(st.g).value()[0]
            assert np.abs(dg).max() < 1e-11


def test_hessian_flat_cases():
    g = with_fields(euclidean(), f="x1")
    h = hessian(g, [0.3, 0.1, 0.2])
    assert np.abs(h).max() == 0.0
    assert laplacian(g, [0.3, 0.1, 0.2]) == 0.0
    g = with_fields(euclidean(), f="x1^2/2 + x2^2/2 + x3^2/2")
    h2 = hessian(g, [0.3, 0.1, 0.2])
    assert np.abs(h2 - np.eye(3)).max() < 1e-14
    g = with_fields(euclidean(), f="x1^2+x2^2+x3^2")
    assert abs(laplacian(g, [0.5, -0.2, 0.4]) - 6.0) < 1e-13


def test_laplacian_log_bowl():
    text = "log(1+x1^2+x2^2+x3^2)"
    g = with_fields(euclidean(), f=text)
    assert abs(laplacian(g, [0.0, 0.0, 0.0]) - 6.0) < 1e-13
    p = np.array([0.6, 0.0, 0.0])  # interior point of the chart box
    assert abs(laplacian(g, p) - laplacian_fd(g, p, text)) < 1e-8


def test_hessian_sphere_vs_fd_oracle():
    text = "x1*x2 + sin(x3)"
    g = with_fields(catalog.load("sphere", dim=3, certify=False).geometry,
                    f=text)
    p = np.array([0.15, 0.25, -0.1])
    exact = hessian(g, p)
    assert np.abs(exact - hessian_fd(g, p, text)).max() < 1e-7
    assert np.abs(exact - exact.T).max() < 1e-11  # torsion-free


def test_hessian_symmetry_random_metric():
    g = catalog.load("random", dim=4, seed=5, certify=False).geometry
    for p in g.sample_points(2, 3):
        h = hessian(g, p)
        assert np.abs(h - h.T).max() < 1e-11


def test_lie_derivative_gradient_field():
    g = with_fields(euclidean(), x_components=["x1", "x2", "x3"])
    lie = bundle(g, [0.2, 0.4, -0.3]).coord("lie_metric").value()[0]
    assert np.abs(lie - 2 * np.eye(3)).max() < 1e-13


def test_lie_derivative_rotation_is_killing():
    g = with_fields(euclidean(), x_components=["-x2", "x1", "0"])
    lie = bundle(g, [0.2, 0.4, -0.3]).coord("lie_metric").value()[0]
    assert np.abs(lie).max() < 1e-13


def test_lie_derivative_vs_flow_oracle():
    g = catalog.load("random", dim=3, seed=11, certify=False).geometry
    p = np.array([0.2, -0.3, 0.4])
    exact = bundle(g, p).coord("lie_metric").value()[0]
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
    dx = st.cov_deriv(st.x_lower).value()[0]
    div_trace = float(np.einsum("ab,ab->", st.ginv.value()[0], dx))

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
    assert np.abs(st.to_orthonormal(arr[None])[0] - arr).max() < 1e-14


def test_orthonormal_metric_is_delta():
    g = catalog.load("random", dim=4, seed=9, certify=False).geometry
    st = g.state(g.sample_points(1, 1)[0])
    assert np.abs(st.to_orthonormal(st.g.value())[0] - np.eye(4)).max() < 1e-13


def test_orthonormal_preserves_invariants():
    from ctlab import curvature
    g = catalog.load("random", dim=4, seed=9, certify=False).geometry
    p = g.sample_points(1, 6)[0]
    b = curvature.bundle(g, p)
    ric_coord = b.coord("ricci").value()[0]
    ginv = g.state(p).ginv.value()[0]
    inv_coord = np.einsum("ij,kl,ik,jl->", ric_coord, ric_coord, ginv, ginv)
    ric_on = b.on("ricci")
    assert abs(inv_coord - np.sum(ric_on ** 2)) < 1e-10


def test_vielbein_inverse_relation():
    g = catalog.load("random", dim=5, seed=1, certify=False).geometry
    st = g.state(g.sample_points(1, 3)[0])
    e = st.cholesky[0].T  # coframe rows
    ginv = st.ginv.value()[0]
    assert np.abs(e @ ginv @ e.T - np.eye(5)).max() < 1e-12


def test_frame_conversion_involutive():
    g = catalog.load("random", dim=3, seed=13, certify=False).geometry
    st = g.state(g.sample_points(1, 4)[0])
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 3))
    on = st.to_orthonormal(arr[None])[0]
    back = on
    for s in range(2):
        back = np.moveaxis(np.tensordot(st.cholesky[0].T, back, axes=(0, s)), 0, s)
    assert np.abs(back - arr).max() < 1e-11


def test_orthonormal_matches_per_slot_contraction():
    # reference: contract one slot at a time with the inverse Cholesky factor
    g = catalog.load("random", dim=4, seed=9, certify=False).geometry
    st = g.state(g.sample_points(1, 2)[0])
    rng = np.random.default_rng(5)
    for rank in range(7):
        arr = rng.standard_normal((4,) * rank)
        want = arr
        for s in range(rank):
            want = np.moveaxis(
                np.tensordot(st.vielbein_inv[0], want, axes=(1, s)), 0, s)
        got = st.to_orthonormal(arr[None])[0]
        assert got.shape == arr.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_positive_definiteness_enforced():
    spec = GeometrySpec(name="bad", dim=2, coords=["x1", "x2"],
                        domain=[(-2.0, 2.0), (-2.0, 2.0)],
                        metric=[["x1"], ["0", "1"]])
    g = GeometryInstance(spec)
    with pytest.raises(MetricError, match="positive definite"):
        g.state([-1.0, 0.0])


def test_point_outside_domain():
    g = euclidean()
    with pytest.raises(MetricError, match=r"point \(5\.0, 0\.0, 0\.0\) outside"):
        g.state([5.0, 0.0, 0.0])


def test_jet_order_exhaustion_fails_fast():
    g = GeometryInstance(catalog.load("sphere", dim=3, certify=False).spec,
                         JetConfig(2))
    st = g.state([0.1, 0.0, 0.0])
    with pytest.raises(JetOrderError, match="exhausted"):
        st.cov_deriv(st.g, 3)


def test_missing_field_errors():
    g = catalog.load("s2xs2", certify=False).geometry
    b = bundle(g, [0.1, 0.0, 0.0, 0.0])
    with pytest.raises(MetricError, match="no field f"):
        b.coord("f", 1)
    with pytest.raises(MetricError, match="no field X"):
        b.coord("lie_metric")


def test_tape_blocks_are_sized_by_the_bounded_products(monkeypatch):
    # random at dim 5, order 5: the widest product of the tape gathers 441
    # pairs where the dense list has 3003, so 8 points are one tape block;
    # a conformal pair takes the least of its two tapes' blocks, here the
    # rescaled one's, whose products are dense
    sizes = []
    evaluate = Tape.evaluate

    def spy(self, points, *args, **kwargs):
        sizes.append(len(points))
        return evaluate(self, points, *args, **kwargs)

    monkeypatch.setattr(Tape, "evaluate", spy)
    g = catalog.load("random", dim=5, seed=3, jet_order=5,
                     certify=False).geometry
    assert g.spec.tape.most_pairs(5, 5) == 441 < len(jets.table(5, 5).mul_i)
    sizes.clear()
    assert sum(len(c) for c in point_blocks(g.sample_points(8, 1), g)) == 8
    assert sizes == [8]
    pair = conformal.rescale(catalog.load("random", dim=4, seed=5,
                                          jet_order=4).geometry)
    blocks = [block_size(x.spec.tape, 4, 4) for x in (pair.base, pair.tilde)]
    assert blocks == [72, 33]
    sizes.clear()
    assert sum(len(c) for c in point_blocks(pair.base.sample_points(40, 1),
                                            pair.base, pair.tilde)) == 40
    assert sizes == [33, 33, 7, 7]


def test_point_blocks_keep_earlier_entries():
    # the walk neither reads nor changes the per-point cache: an entry held
    # before stays as it was, and the walked points gain none
    g = euclidean()
    held, fresh = g.sample_points(2, 0)
    state = g.state(held)
    for chunk in point_blocks([held, fresh], g):
        chunk.bundle().frames("ricci")
        assert chunk.bundle().state is not state
        assert g._points == {point_key(held): {"state": state}}
    assert g._points == {point_key(held): {"state": state}}


def test_point_blocks_give_each_geometry_a_chunk_state():
    # every geometry of the walk gets its own state for each chunk, built
    # when first read, whatever the cache holds; the first point is a chunk
    # of its own
    held, fresh = euclidean(), euclidean()
    p = held.sample_points(1, 0)[0]
    state = held.state(p)
    for chunk in point_blocks([p], held, fresh):
        assert chunk.geometries == [held, fresh]
        assert chunk.bundles == [None, None]
        assert len(chunk) == 1 and chunk.points.tolist() == [list(p)]
        assert chunk.bundle(1).state.geometry is fresh
        assert chunk.bundles[0] is None
        assert chunk.bundle(0).state is not state
    assert held._points == {point_key(p): {"state": state}}
    assert fresh._points == {}


# ---------------------------------------------------------------------------
# the chart's tape: shared nodes, shared tapes, error order
# ---------------------------------------------------------------------------

def test_point_state_evaluates_each_exp_once(monkeypatch):
    # the rescaled conformal_gaussian entries are exp(2*(u))*(exp(-2*(u))*(1))
    # on the diagonal: 2 distinct exp nodes, 8 exp calls when each entry's
    # tree is walked on its own
    base = catalog.load("conformal_gaussian", dim=4, certify=False).geometry
    spec = conformal.rescale(base).tilde.spec
    p = base.sample_points(1, 0)[0]
    calls = []
    exp = jets.FUNCTIONS["exp"]
    monkeypatch.setitem(jets.FUNCTIONS, "exp",
                        lambda a: calls.append(1) or exp(a))
    for i in range(4):
        for j in range(i + 1):
            eval_expr_jet_reference(spec.metric_exprs[i][j], p, 4)
    assert len(calls) == 8
    calls.clear()
    GeometryInstance(spec, JetConfig(4)).state(p)
    assert len(calls) == 2
    assert sum(op[0] == "exp" for op in spec.tape.ops) == 2


def test_point_state_matches_reference_walker():
    base = catalog.load("random", dim=4, seed=5, certify=False).geometry
    g = conformal.rescale(base).base
    p = g.sample_points(1, 0)[0]
    st = g.state(p)
    k = g.config.order
    spec = g.spec

    def ref(e):
        return eval_expr_jet_reference(e, p, k).coeffs.tobytes()

    for i in range(4):
        for j in range(4):
            assert st.g.coeffs[0, :, i, j].tobytes() == ref(spec.metric_exprs[i][j])
    assert st.u.coeffs[0].tobytes() == ref(spec.u_expr)
    assert st.f.coeffs[0].tobytes() == ref(spec.f_expr)
    for i, e in enumerate(spec.x_exprs):
        assert st.x_contra.coeffs[0, :, i].tobytes() == ref(e)


def test_at_order_shares_the_spec_tape():
    g = catalog.load("random", dim=3, seed=1, certify=False).geometry
    assert g.at_order(4).spec.tape is g.spec.tape
    copy = dataclasses.replace(g.spec)
    assert copy.tape is not g.spec.tape
    assert copy.tape.ops == g.spec.tape.ops
    assert copy == g.spec
    rescaled = dataclasses.replace(g.spec, metric=[["2"], ["0", "1"],
                                                   ["0", "0", "x1+2"]])
    assert len(rescaled.tape.ops) < len(g.spec.tape.ops)


def test_at_depth_orders():
    spec = catalog.load("random", dim=3, seed=1, certify=False).spec
    for configured, depth, want in [(6, 1, 4), (6, 3, 4), (6, 4, 5), (7, 4, 5),
                                    (5, 4, 5), (4, 4, 4), (6, 6, 6), (6, 7, 6),
                                    (8, 2, 4), (8, 5, 6), (3, 1, 3), (2, 4, 2),
                                    (0, 2, 0)]:
        g = GeometryInstance(spec, JetConfig(configured))
        assert g.at_depth(depth).config.order == want


def _flat_with(metric, **fields):
    return GeometryInstance(GeometrySpec(
        name="chart", dim=2, coords=["x1", "x2"],
        domain=[(-2.0, 2.0), (-2.0, 2.0)], metric=metric, **fields))


def test_metric_error_precedes_field_domain_errors():
    # at x1 = -1 the metric is not positive definite and every field raises
    # a domain error; the metric is checked first
    g = _flat_with([["x1"], ["0", "1"]], u="log(x1)", f="sqrt(x1)",
                   x_components=["x1^0.5", "1"])
    with pytest.raises(MetricError, match="not positive definite"):
        g.state([-1.0, 0.0])
    # with a positive metric the fields raise in the order u, f, X
    for fields, message in [
        (dict(u="log(x1)", f="sqrt(x1)"), "log of non-positive"),
        (dict(f="sqrt(x1)", x_components=["log(x1)", "1"]),
         "sqrt of non-positive"),
        (dict(x_components=["1", "x1^0.5"]), "fractional power"),
    ]:
        g = _flat_with([["1"], ["0", "1"]], **fields)
        with pytest.raises(EvalDomainError, match=message):
            g.state([-1.0, 0.0])


# ---------------------------------------------------------------------------
# blocks of points
# ---------------------------------------------------------------------------

# every chart of the full suite once, each with its rescaling if it has u
_CHARTS = list({(name, tuple(sorted(params.items()))): (name, params)
                for name, params, *_ in SCHEDULE + LAW_SCHEDULE}.values())


@pytest.mark.parametrize("name, params", _CHARTS,
                         ids=[f"{n}-{p}" for n, p in _CHARTS])
def test_block_roots_match_each_point(name, params):
    base = catalog.load(name, certify=False, **params).geometry
    specs = [base.spec]
    if base.spec.u is not None:
        specs.append(conformal.rescale(base).tilde.spec)
    points = base.sample_points(32, 0)
    for spec in specs:
        tape = spec.tape
        for order in range(2, 7):
            alone = [[v[r].coeffs.tobytes() for r in tape.roots]
                     for v in (tape.evaluate(p, order) for p in points)]
            for size in (1, 2, 7, 32):
                values = tape.evaluate(points[:size], order)
                for j in range(size):
                    assert [values[r].coeffs[:, j].tobytes()
                            for r in tape.roots] == alone[j]


def test_point_states_in_blocks_match_states_alone():
    base = catalog.load("random", dim=4, seed=5, certify=False).geometry
    g = conformal.rescale(base).base
    points = g.sample_points(9, 1)
    alone = GeometryInstance(g.spec, JetConfig(4))
    blocked = GeometryInstance(g.spec, JetConfig(4))
    seen, sizes = [], []
    for chunk in point_blocks(points, blocked):
        b = chunk.bundle().state
        for j, p in enumerate(chunk.points):
            a = alone.state(p)
            for name in ("g", "ginv", "u", "f", "x_contra", "x_lower",
                         "christoffel"):
                assert getattr(a, name).coeffs[0].tobytes() == \
                    getattr(b, name).coeffs[j].tobytes(), name
            assert a.vielbein_inv[0].tobytes() == b.vielbein_inv[j].tobytes()
            seen.append(point_key(p))
        sizes.append(len(chunk))
    assert seen == [point_key(p) for p in points]
    # the first chunk by its rule, BLOCK_TRIPLES // 4 ** 6 points, then one
    # chunk of the rest
    assert sizes == [4, 5]
    assert blocked._points == {}


def test_chunk_read_alone_fits_as_its_points_did():
    # a chunk whose points the walk read alone, as after an error or a
    # warning, fits as many points as the largest of them allows; its own
    # bundle, never built or left half built, does not count
    g = catalog.load("random", dim=4, seed=2, certify=False).geometry
    chunk = Chunk([g], g.sample_points(3, 1))
    fits = []
    for n, one in enumerate(chunk.alone()):
        for name in ("riemann", "weyl", "cotton")[:n + 1]:
            one.bundle().frames(name, 1)
        fits.append(one.fit())
    assert chunk.bundles == [None]
    assert fits[0] > fits[2] and chunk.fit() == min(fits)
    whole = Chunk([g], chunk.points)
    whole.bundle().frames("riemann", 1)
    assert whole.fit() == BLOCK_BYTES * 3 // held_bytes(whole.bundles[0])


def test_chunks_hold_at_most_block_bytes(monkeypatch):
    # each chunk holds no more than BLOCK_BYTES of state and bundle arrays
    # on any geometry, unless it is one point that alone holds more
    chunks = []
    init = Chunk.__init__

    def spy(self, *args):
        init(self, *args)
        chunks.append(self)

    monkeypatch.setattr(Chunk, "__init__", spy)
    laws = conformal.select_laws()
    pair = conformal.rescale(catalog.load("conformal_gaussian", dim=4).geometry)
    rows = conformal.verify_transform(pair, laws,
                                      pair.base.sample_points(32, 1))
    comm = catalog.load("random", dim=5, seed=3, certify=False).geometry
    rows += identities.verify(comm, identities.select_records(["COMM"]),
                              comm.sample_points(3, 1))
    assert all(r.status != "fail" for r in rows)
    held = [(b.geometry.name, len(c), held_bytes(b)) for c in chunks
            for b in c.bundles if b is not None]
    sizes = {(name, n) for name, n, _ in held}
    # the laws pair walks chunks of several points on both sides
    assert max(n for name, n in sizes if name == pair.base.name) > 1
    assert max(n for name, n in sizes if name == pair.tilde.name) > 1
    # a COMM point at dim 5 holds more than BLOCK_BYTES, so it is alone
    assert {n for name, n in sizes if name == comm.name} == {1}
    for name, n, nbytes in held:
        assert n == 1 or nbytes <= BLOCK_BYTES, (name, n, nbytes)


# The walk's first chunk on every pass of the full-suite schedule, of the
# two passes the benchmark's catalog-structures workload adds (SOL alone
# on euclidean dim 3, CE alone on sphere dim 3) and of the law pairs,
# which the benchmark's laws-many-points workload runs too: its points and
# the bytes its state and bundle hold on each geometry when the walk leaves
# it.  The benchmark's passes of 4 and 8 points take as many of them.
FIRST_CHUNKS = [
    ("euclidean", {"dim": 3}, ["COMM", "SOL"], 7, [1053304]),
    ("euclidean", {"dim": 4}, ["SOL", "HIGH"], 1, [789576]),
    ("sphere", {"dim": 3}, ["COMM", "CE"], 7, [852880]),
    ("sphere", {"dim": 4, "radius": 2.0}, ["CE"], 4, [263360]),
    ("sphere_killing", {"dim": 3}, ["SOL", "GRS"], 22, [618640]),
    ("hyperbolic", {"dim": 3}, ["CE"], 22, [420992]),
    ("s2xs2", {}, ["COMM"], 1, [671072]),
    ("conformal_s2xs2", {"seed": 0}, ["CE"], 4, [263360]),
    ("cigar_x_line", {}, ["SOL", "GRS"], 22, [791120]),
    ("cigar_x_flat", {"dim": 4}, ["SOL", "GRS", "HIGH"], 1, [899656]),
    ("conformal_gaussian", {"dim": 4}, ["CGRS"], 4, [386432, 174624]),
    ("gaussian_plus_killing", {"dim": 3}, ["SOL", "GRS"], 22, [791120]),
    ("conformal_gaussian_plus_killing", {"dim": 3}, ["CGERS", "CGRS"], 22,
     [914496, 441936]),
    ("random", {"dim": 3, "seed": 1}, ["COMM"], 7, [972272]),
    ("random", {"dim": 4, "seed": 2}, ["COMM"], 1, [768832]),
    ("random", {"dim": 5, "seed": 3}, ["COMM"], 1, [3133648]),
    ("euclidean", {"dim": 3}, ["SOL"], 22, [667568]),
    ("sphere", {"dim": 3}, ["CE"], 22, [420992]),
    ("conformal_gaussian", {"dim": 4}, "LAW", 4, [346496, 384576]),
    ("conformal_gaussian_plus_killing", {"dim": 3}, "LAW", 22,
     [737088, 772640]),
    ("random", {"dim": 4, "seed": 5}, "LAW", 4, [434176, 390208]),
]


@pytest.mark.parametrize("name, params, suite, points, held", FIRST_CHUNKS,
                         ids=[f"{n}-{p}-{s}" for n, p, s, *_ in FIRST_CHUNKS])
def test_first_chunk_of_every_pass(monkeypatch, name, params, suite, points,
                                   held):
    e = catalog.load(name, **params)  # certified before the spy is in
    walk, got = geometry.point_blocks, []

    def first_only(pts, *geometries):
        # the walk's first chunk, measured as the walk leaves it, and the
        # rule's size; the pass then ends there
        for chunk in walk(pts, *geometries):
            yield chunk
            got.append((len(chunk), geometry.first_chunk(*geometries),
                        [held_bytes(b) for b in chunk.bundles]))
            return

    monkeypatch.setattr(geometry, "point_blocks", first_only)
    g = e.geometry
    if suite == "LAW":
        rows = conformal.verify_transform(conformal.rescale(g),
                                          conformal.select_laws(),
                                          g.sample_points(64, 0))
    else:
        rows = identities.verify(g, identities.select_records(suite),
                                 g.sample_points(64, 0))
    assert all(r.status != "fail" for r in rows)
    assert got == [(points, points, held)]
    # within BLOCK_BYTES unless one point holds more, but for one pass
    assert (points == 1 or max(held) <= BLOCK_BYTES
            or (name, params, suite) == FIRST_CHUNKS[0][:3])
