"""Point-local tensor calculus on a coordinate chart.

A :class:`GeometryInstance` turns a parsed :class:`~ctlab.exprlang.GeometrySpec`
into evaluable data: at each requested point it builds jets of the metric
entries and of the optional scalar/vector fields, inverts the metric in the
jet ring, forms Christoffel symbols, and exposes covariant differentiation
of tensor jets (:meth:`PointState.cov_deriv`).  The fields are the chart's
own; read their derivatives as ``curvature.bundle(g, p).coord("f", k)``.

Tensor fields at a point are held as :class:`TensorJet` values whose leading
axis enumerates multi-index coefficients (see :mod:`ctlab.jets`), so one
covariant derivative is one call of :func:`~ctlab.jets.jet_cov_deriv`: all
partials in one gather, then one batched GEMM per slot against a
Christoffel operand gathered once.  Every covariant derivative consumes
one jet order; derived objects therefore carry exactly ``config.order -
(metric derivative depth)`` orders, and requests past that depth raise
:class:`~ctlab.jets.JetOrderError` instead of silently truncating.

A verification pass works on :meth:`GeometryInstance.at_order` of the
chart, at the lowest order its records need, so ``config.order`` there is
the working order; the configured order is the cap.  It walks its points
with :func:`point_blocks`, which scopes each point's cache entries.

Orthonormal-frame components are produced by contracting value arrays with
the inverse Cholesky factor of the metric at the point (the vielbein); this
happens only after all covariant derivatives are taken, which is legitimate
because the converted objects are tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import GeometrySpec
from .jets import (
    JetConfig,
    JetOrderError,
    jet_cov_deriv,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    table,
    truncate_coeffs,
)


class MetricError(ValueError):
    """The metric failed a pointwise validity check (not positive definite)."""


@dataclass
class TensorValue:
    """Dense point-local components; the comma convention puts derivative
    indices last, outermost last."""

    components: np.ndarray


@dataclass
class TensorJet:
    """A tensor field's jet coefficients at a point: (ncoeff, m, ..., m)."""

    coeffs: np.ndarray
    dim: int
    order: int

    @property
    def rank(self) -> int:
        return self.coeffs.ndim - 1

    def value(self) -> np.ndarray:
        return np.array(self.coeffs[0])


def tj_combine(*pairs: tuple[float, TensorJet]) -> TensorJet:
    """Linear combination of tensor jets, truncated to the lowest order."""
    q = min(t.order for _, t in pairs)
    dim = pairs[0][1].dim
    out = None
    for c, t in pairs:
        arr = truncate_coeffs(t.coeffs, dim, q) * c
        out = arr if out is None else out + arr
    return TensorJet(out, dim, q)


def tj_einsum(spec: str, a: TensorJet, b: TensorJet) -> TensorJet:
    q = min(a.order, b.order)
    out = jet_einsum(spec, a.coeffs[: table(a.dim, q).size],
                     b.coeffs[: table(b.dim, q).size], a.dim, q, q)
    return TensorJet(out, a.dim, q)


def tj_transpose(a: TensorJet, perm: tuple[int, ...]) -> TensorJet:
    """Permute trailing tensor axes (perm indexes trailing axes only)."""
    full = (0,) + tuple(p + 1 for p in perm)
    return TensorJet(np.transpose(a.coeffs, full), a.dim, a.order)


def tj_skew_pair(a: TensorJet, b: TensorJet) -> TensorJet:
    """``out[i,j,k] = a_k b_ij - a_j b_ik`` -- the recurring skew pattern of
    the soliton tensors."""
    t = tj_einsum("k,ij->ijk", a, b)
    return tj_combine((1.0, t), (-1.0, tj_transpose(t, (0, 2, 1))))


class PointState:
    """All metric-level jet data of one geometry at one point.

    The jets of the chart's expressions come from its tape: from one
    evaluation over a block of points when :func:`point_blocks` left them
    in the point's cache entry, else from the tape evaluated here alone.
    Either way they are the same bit for bit, and the Cholesky check, the
    jet-ring inverse and the Christoffel symbols are per point.
    """

    def __init__(self, geometry: "GeometryInstance", point: np.ndarray):
        spec = geometry.spec
        self.geometry = geometry
        self.point = np.asarray(point, float)
        self.m = spec.dim
        self.order = geometry.config.order
        if not spec.contains(self.point):
            raise MetricError(
                f"point {point_key(self.point)} outside the domain box of "
                f"{spec.name!r}"
            )

        m, k = self.m, self.order
        roots = _root_coeffs(geometry, self.point)
        g = np.zeros((table(m, k).size, m, m))
        for i in range(m):
            for j in range(i + 1):
                c = next(roots)
                g[:, i, j] = c
                g[:, j, i] = c
        self.g = TensorJet(g, m, k)

        g0 = g[0]
        try:
            chol = np.linalg.cholesky(g0)
        except np.linalg.LinAlgError as err:
            raise MetricError(
                f"metric of {spec.name!r} not positive definite at "
                f"{point_key(self.point)}"
            ) from err
        self.cholesky = chol
        self.vielbein_inv = np.linalg.inv(chol)

        self.ginv = TensorJet(jet_inverse(g, m, k), m, k)
        self._christoffel: TensorJet | None = None

        self.u, self.f = [
            None if e is None else TensorJet(next(roots), m, k)
            for e in (spec.u_expr, spec.f_expr)
        ]
        if spec.x_exprs is not None:
            self.x_contra = TensorJet(
                np.stack([next(roots) for _ in range(m)], axis=-1), m, k)
            self.x_lower = tj_einsum("ab,b->a", self.g, self.x_contra)
        else:
            self.x_contra = None
            self.x_lower = None

    # -- connection ----------------------------------------------------------

    @property
    def christoffel(self) -> TensorJet:
        """Gamma^l_{jk} as a jet field of order K-1 (axes [l, j, k])."""
        if self._christoffel is None:
            m, k = self.m, self.order
            dg = jet_gradient(self.g.coeffs, m, k)  # [a, b, v] = d_v g_ab
            # d_j g_rk + d_k g_rj - d_r g_jk  as [r, j, k]
            b = dg.transpose(0, 1, 3, 2) + dg - dg.transpose(0, 3, 1, 2)
            self._christoffel = tj_combine(
                (0.5, tj_einsum("lr,rjk->ljk", self.ginv, TensorJet(b, m, k - 1)))
            )
        return self._christoffel

    # -- covariant differentiation -------------------------------------------

    def cov_deriv(self, t: TensorJet, times: int = 1) -> TensorJet:
        """Append ``times`` trailing covariant-derivative slots (all slots of
        ``t`` are treated as covariant)."""
        for _ in range(times):
            t = self._cov_deriv_once(t)
        return t

    def _cov_deriv_once(self, t: TensorJet) -> TensorJet:
        if t.order < 1:
            raise JetOrderError(
                "jet order exhausted: raise the configured jet order for this "
                "derivative depth"
            )
        out = jet_cov_deriv(t.coeffs, self.christoffel.coeffs, self.m, t.order)
        return TensorJet(out, self.m, t.order - 1)

    # -- frames ---------------------------------------------------------------

    def to_orthonormal(self, arr: np.ndarray) -> np.ndarray:
        """Contract every slot with the inverse Cholesky factor, turning
        coordinate components into orthonormal-coframe components.  Each
        step contracts the leading slot in one GEMM and rotates it to the
        back, so after one step per slot the slots are back in order."""
        x = np.asarray(arr, float)
        shape = x.shape
        for _ in range(x.ndim):
            x = (self.vielbein_inv @ x.reshape(self.m, -1)).T.reshape(self.m, -1)
        return x.reshape(shape)


def _root_coeffs(geometry: "GeometryInstance", point: np.ndarray):
    """The coefficient arrays of the chart's tape roots at ``point``, the
    metric's lower triangle first.  They are the ``"roots"`` of the point's
    cache entry when :func:`point_blocks` left them there; else the tape is
    evaluated here, and the ops of u, f and X only once a root of theirs is
    asked for, so that a caller checks the metric before any of them can
    raise."""
    roots = geometry._points.get(point_key(point), {}).pop("roots", None)
    if roots is not None:
        yield from roots
        return
    tape = geometry.spec.tape
    m = geometry.dim
    metric = m * (m + 1) // 2
    values = tape.evaluate(point, geometry.config.order, upto=metric)
    for r in tape.roots[:metric]:
        yield values[r].coeffs
    tape.evaluate(point, geometry.config.order, values)
    for r in tape.roots[metric:]:
        yield values[r].coeffs


def point_key(point) -> tuple[float, ...]:
    """The hashable form of a point, used as the per-point cache key."""
    return tuple(float(x) for x in np.asarray(point, float))


class GeometryInstance:
    """A validated chart plus jet configuration; immutable after parse."""

    def __init__(self, spec: GeometrySpec, config: JetConfig | None = None):
        self.spec = spec
        self.config = config or JetConfig()
        # The one per-point cache: point key -> {"state": PointState,
        # "bundle": CurvatureBundle}, and, from point_blocks until the
        # point's PointState takes them, "roots": the coefficient arrays of
        # the tape's roots there.  A point's entries live and die together.
        self._points: dict[tuple[float, ...], dict[str, object]] = {}

    def at_order(self, order: int) -> "GeometryInstance":
        """This chart at jet order ``order``: ``self`` at the configured
        order, else a fresh instance on the same spec (and so the same
        tape) with its own empty cache.  Truncation is a prefix of the
        graded enumeration, so every quantity the lower order still carries
        has the same jet coefficients up to the last bits; see
        :meth:`at_depth` for when they agree bit for bit."""
        if order == self.config.order:
            return self
        return GeometryInstance(self.spec, JetConfig(order))

    def at_depth(self, depth: int) -> "GeometryInstance":
        """This chart at the lowest order that reads a quantity of metric
        derivative depth ``depth`` bit for bit as the configured order
        does: ``max(depth + 1, 4)``, capped at the configured order.  The
        jet-ring inverse is truncation-exact, but a jet product's padded
        GEMM is as wide as its order's largest pair count, and a narrower
        one can sum the same terms in another order: a quantity read at its
        own top order moves in its last bits, and so can one built at order
        3 (``duf_tensor``, which vanishes identically on some charts).  A
        depth past the configured order still raises as it did."""
        return self.at_order(min(self.config.order, max(depth + 1, 4)))

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def name(self) -> str:
        return self.spec.name

    def cached(self, point, kind: str, build):
        """The ``kind`` entry of ``point`` in the per-point cache, made by
        ``build(self, key)`` on first use."""
        key = point_key(point)
        value = self._points.get(key, {}).get(kind)
        if value is None:
            value = build(self, key)
            self._points.setdefault(key, {})[kind] = value
        return value

    def state(self, point) -> PointState:
        return self.cached(point, "state", PointState)

    # -- public chart operations ----------------------------------------------

    def christoffel(self, point) -> TensorValue:
        st = self.state(point)
        return TensorValue(st.christoffel.value())

    # -- sampling --------------------------------------------------------------

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform draws from the domain box shrunk 10% away from the
        boundary (chart-edge conditioning guard)."""
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.spec.domain])
        hi = np.array([b for _, b in self.spec.domain])
        width = hi - lo
        return lo + width * (0.05 + 0.9 * rng.random((count, self.dim)))


# Largest number of (point, convolution triple) pairs in one block: a jet
# product over a block gathers and multiplies arrays of this many floats,
# which stay in cache up to about 16k (128 kB); scripts/tape_block_bench.py
# measures block sizes on both sides of it against point by point.
BLOCK_TRIPLES = 16384


def block_size(dim: int, order: int) -> int:
    """Points per block of :func:`point_blocks` for jets of ``(dim,
    order)``: as many as keep a block's jet products within
    ``BLOCK_TRIPLES``, at least one."""
    return max(1, BLOCK_TRIPLES // len(table(dim, order).mul_i))


def strict_errstate():
    """``np.errstate`` under which every floating-point error that would
    warn (or worse) raises, and those set to be ignored stay ignored."""
    return np.errstate(**{k: "ignore" if v == "ignore" else "raise"
                          for k, v in np.geterr().items()})


def _evaluate_block(geometry: GeometryInstance,
                    points: np.ndarray) -> list[list[np.ndarray]] | None:
    """The coefficient arrays of the tape's roots at each of ``points``, in
    point order, from one evaluation of the tape over them; ``None`` if
    that evaluation raises or would warn, so that every point then
    evaluates its own tape and raises or warns at its own turn."""
    tape = geometry.spec.tape
    try:
        with strict_errstate():
            values = tape.evaluate(points, geometry.config.order)
    except Exception:  # whatever it is, its point raises it again alone
        return None
    # one copy per op, so that roots sharing an op share an array, as the
    # tape evaluated at one point gives them
    ops = set(tape.roots)
    out = []
    for j in range(len(points)):
        cols = {r: values[r].coeffs[:, j].copy() for r in ops}
        out.append([cols[r] for r in tape.roots])
    return out


def point_blocks(points, *geometries: GeometryInstance):
    """Yield ``points`` in order, each in its own scope: the cache entries
    a point gains on any of ``geometries`` are dropped when the walk moves
    on or stops, and entries held before stay.  The points are taken a
    block at a time: on entering a block, each geometry's tape is
    evaluated over the block's points at once, and a geometry that holds
    no entry for a point yet gets one whose ``"roots"`` are the point's
    root jets, which its :class:`PointState` takes instead of evaluating
    the tape alone; Cholesky, the jet-ring inverse and Christoffel stay
    per point.  The jets are the same bit for bit.  If the block's
    evaluation raises or would warn, each point evaluates its own tape, so
    errors and warnings come at the same point and in the same order.  The
    block size comes from the first geometry's jet table
    (:func:`block_size`)."""
    size = block_size(geometries[0].dim, geometries[0].config.order)
    for start in range(0, len(points), size):
        block = points[start:start + size]
        rows = [_evaluate_block(g, np.asarray(block, float))
                for g in geometries]
        for p in block:
            key = point_key(p)
            # taken off the block, so that it holds no root of a walked point
            roots = [r.pop(0) if r else None for r in rows]
            fresh = [(g, r) for g, r in zip(geometries, roots)
                     if key not in g._points]
            for g, r in fresh:
                g._points[key] = {} if r is None else {"roots": r}
            try:
                yield p
            finally:
                for g, _ in fresh:
                    g._points.pop(key, None)
