"""Point-local tensor calculus on a coordinate chart.

A :class:`GeometryInstance` turns a parsed :class:`~ctlab.exprlang.GeometrySpec`
into evaluable data: at each requested point it builds jets of the metric
entries and of the optional scalar/vector fields, inverts the metric in the
jet ring, forms Christoffel symbols, and exposes covariant differentiation
of arbitrary fully-covariant tensor fields.

Tensor fields at a point are held as :class:`TensorJet` values whose leading
axis enumerates multi-index coefficients (see :mod:`ctlab.jets`), so one
covariant derivative is a handful of vectorised einsums.  Every covariant
derivative consumes one jet order; derived objects therefore carry exactly
``config.order - (metric derivative depth)`` orders, and requests past that
depth raise :class:`~ctlab.jets.JetOrderError` instead of silently
truncating.

Orthonormal-frame components are produced by contracting value arrays with
the inverse Cholesky factor of the metric at the point (the vielbein); this
happens only after all covariant derivatives are taken, which is legitimate
because the converted objects are tensors.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, GeometrySpec, eval_expr_jet, parse_expr
from .jets import (
    JetConfig,
    JetOrderError,
    jet_einsum,
    jet_partial,
    table,
    truncate_coeffs,
)

_LETTERS = "abcdefgh"


class MetricError(ValueError):
    """The metric failed a pointwise validity check (not positive definite)."""


@dataclass
class TensorValue:
    """Dense point-local components with bookkeeping.

    ``base_rank`` counts the tensor's own (covariant) slots, ``deriv_rank``
    the trailing covariant-derivative slots appended by differentiation;
    the comma convention puts derivative indices last, outermost last.
    """

    components: np.ndarray
    point: tuple[float, ...]
    frame: str  # "coordinate" | "orthonormal"
    base_rank: int
    deriv_rank: int = 0

    @property
    def rank(self) -> int:
        return self.base_rank + self.deriv_rank


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

    def trunc(self, order: int) -> "TensorJet":
        if order > self.order:
            raise JetOrderError(
                f"cannot extend tensor jet of order {self.order} to {order}"
            )
        if order == self.order:
            return self
        return TensorJet(truncate_coeffs(self.coeffs, self.dim, order),
                         self.dim, order)


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
    """All metric-level jet data of one geometry at one point."""

    def __init__(self, geometry: "GeometryInstance", point: np.ndarray):
        spec = geometry.spec
        self.geometry = geometry
        self.point = np.asarray(point, float)
        self.m = spec.dim
        self.order = geometry.config.order
        if not spec.contains(self.point):
            raise MetricError(
                f"point {tuple(self.point)} outside the domain box of {spec.name!r}"
            )

        m, k = self.m, self.order
        g = np.zeros((table(m, k).size, m, m))
        for i in range(m):
            for j in range(i + 1):
                jet = eval_expr_jet(spec.metric_exprs[i][j], self.point, k)
                g[:, i, j] = jet.coeffs
                g[:, j, i] = jet.coeffs
        self.g = TensorJet(g, m, k)

        g0 = g[0]
        try:
            chol = np.linalg.cholesky(g0)
        except np.linalg.LinAlgError as err:
            raise MetricError(
                f"metric of {spec.name!r} not positive definite at "
                f"{tuple(self.point)}"
            ) from err
        self.cholesky = chol
        self.vielbein_inv = np.linalg.inv(chol)

        self.ginv = self._invert(self.g)
        self._christoffel: TensorJet | None = None

        self.u = self._scalar(spec.u_expr)
        self.f = self._scalar(spec.f_expr)
        if spec.x_exprs is not None:
            xc = np.zeros((table(m, k).size, m))
            for i, e in enumerate(spec.x_exprs):
                xc[:, i] = eval_expr_jet(e, self.point, k).coeffs
            self.x_contra = TensorJet(xc, m, k)
            self.x_lower = tj_einsum("ab,b->a", self.g, self.x_contra)
        else:
            self.x_contra = None
            self.x_lower = None

    def _scalar(self, expr: Expr | None) -> TensorJet | None:
        if expr is None:
            return None
        jet = eval_expr_jet(expr, self.point, self.order)
        return TensorJet(jet.coeffs, self.m, self.order)

    def _invert(self, g: TensorJet) -> TensorJet:
        """Jet-ring inverse by Newton iteration; exact after ceil(log2(K+1))
        doubling steps because the residual has no constant term."""
        m, k = self.m, self.order
        y = np.zeros_like(g.coeffs)
        y[0] = np.linalg.inv(g.coeffs[0])
        yj = TensorJet(y, m, k)
        steps = 0
        while (1 << steps) < k + 1:
            steps += 1
        for _ in range(steps):
            gy = tj_einsum("ab,bc->ac", g, yj)
            t = -gy.coeffs
            t[0] += 2.0 * np.eye(m)
            yj = tj_einsum("ab,bc->ac", yj, TensorJet(t, m, k))
        return yj

    # -- connection ----------------------------------------------------------

    @property
    def christoffel(self) -> TensorJet:
        """Gamma^l_{jk} as a jet field of order K-1 (axes [l, j, k])."""
        if self._christoffel is None:
            m, k = self.m, self.order
            dg = np.stack(
                [jet_partial(self.g.coeffs, v, m, k) for v in range(m)], axis=-1
            )  # [a, b, v] = d_v g_ab
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
        m = self.m
        q = t.order - 1
        out = np.stack(
            [jet_partial(t.coeffs, v, m, t.order) for v in range(m)], axis=-1
        )
        rank = t.rank
        sub = _LETTERS[:rank]
        tq = t.trunc(q)
        gam = self.christoffel.trunc(q)
        for s in range(rank):
            tsub = sub[:s] + "y" + sub[s + 1:]
            corr = tj_einsum(f"y{sub[s]}z,{tsub}->{sub}z", gam, tq)
            out -= corr.coeffs
        return TensorJet(out, m, q)

    # -- frames ---------------------------------------------------------------

    def to_orthonormal(self, arr: np.ndarray) -> np.ndarray:
        """Contract every slot with the inverse Cholesky factor, turning
        coordinate components into orthonormal-coframe components."""
        out = np.asarray(arr, float)
        for s in range(out.ndim):
            out = np.moveaxis(
                np.tensordot(self.vielbein_inv, out, axes=(1, s)), 0, s
            )
        return out


def point_key(point) -> tuple[float, ...]:
    """The hashable form of a point, used as the per-point cache key."""
    return tuple(float(x) for x in np.asarray(point, float))


class GeometryInstance:
    """A validated chart plus jet configuration; immutable after parse."""

    def __init__(self, spec: GeometrySpec, config: JetConfig | None = None):
        self.spec = spec
        self.config = config or JetConfig()
        # The one per-point cache: point key -> {"state": PointState,
        # "bundle": CurvatureBundle}.  A point's entries live and die together.
        self._points: dict[tuple[float, ...], dict[str, object]] = {}

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
        return TensorValue(st.christoffel.value(), tuple(st.point),
                           "coordinate", 3)

    def _field_jet(self, st: PointState, which) -> TensorJet:
        if isinstance(which, str):
            named = {
                "metric": st.g,
                "u": st.u,
                "f": st.f,
                "X": st.x_lower,
            }
            if which in named:
                t = named[which]
                if t is None:
                    raise MetricError(
                        f"geometry {self.name!r} has no field {which!r}")
                return t
            which = parse_expr(which, self.spec.coords)
        if isinstance(which, Expr):
            jet = eval_expr_jet(which, st.point, st.order)
            return TensorJet(jet.coeffs, st.m, st.order)
        # nested lists of expression strings: a fully covariant tensor field
        arr = np.asarray(which, dtype=object)
        first = eval_expr_jet(parse_expr(arr.flat[0], self.spec.coords),
                              st.point, st.order)
        coeffs = np.zeros((len(first.coeffs),) + arr.shape)
        for idx in np.ndindex(arr.shape):
            e = parse_expr(arr[idx], self.spec.coords)
            coeffs[(slice(None),) + idx] = eval_expr_jet(
                e, st.point, st.order
            ).coeffs
        return TensorJet(coeffs, st.m, st.order)

    def covariant_derivative(self, which, point, times: int = 1) -> TensorValue:
        """Covariant derivative of a named field ("metric", "u", "f", "X"),
        an expression, or a nested list of component expressions."""
        st = self.state(point)
        t = self._field_jet(st, which)
        base = t.rank
        out = st.cov_deriv(t, times)
        return TensorValue(out.value(), tuple(st.point), "coordinate",
                           base, times)

    def hessian(self, which, point) -> TensorValue:
        return self.covariant_derivative(which, point, times=2)

    def laplacian(self, which, point) -> float:
        st = self.state(point)
        h = st.cov_deriv(self._field_jet(st, which), 2)
        return float(np.einsum("ab,ab->", st.ginv.value(), h.value()))

    def lie_derivative_metric(self, point, x_exprs: list[str] | None = None) -> TensorValue:
        """(L_X g)_ij = X_{i,j} + X_{j,i} with the index lowered."""
        st = self.state(point)
        if x_exprs is None:
            if st.x_lower is None:
                raise MetricError(f"geometry {self.name!r} has no vector field X")
            xl = st.x_lower
        else:
            exprs = [parse_expr(t, self.spec.coords) for t in x_exprs]
            k = st.order
            xc = np.zeros((table(st.m, k).size, st.m))
            for i, e in enumerate(exprs):
                xc[:, i] = eval_expr_jet(e, st.point, k).coeffs
            xl = tj_einsum("ab,b->a", st.g, TensorJet(xc, st.m, k))
        dx = st.cov_deriv(xl).value()
        return TensorValue(dx + dx.T, tuple(st.point), "coordinate", 2)

    def to_orthonormal(self, tv: TensorValue) -> TensorValue:
        if tv.frame == "orthonormal":
            return tv
        st = self.state(tv.point)
        return TensorValue(st.to_orthonormal(tv.components), tv.point,
                           "orthonormal", tv.base_rank, tv.deriv_rank)

    # -- sampling --------------------------------------------------------------

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform draws from the domain box shrunk 10% away from the
        boundary (chart-edge conditioning guard)."""
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.spec.domain])
        hi = np.array([b for _, b in self.spec.domain])
        width = hi - lo
        return lo + width * (0.05 + 0.9 * rng.random((count, self.dim)))


@contextmanager
def point_scope(point, *geometries: GeometryInstance):
    """Inside the block, cache entries that ``point`` gains on any of
    ``geometries`` are dropped on exit; entries held before stay."""
    key = point_key(point)
    fresh = [g for g in geometries if key not in g._points]
    try:
        yield
    finally:
        for g in fresh:
            g._points.pop(key, None)
