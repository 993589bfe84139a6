"""The curvature stack and the soliton tensors.

:class:`CurvatureBundle` caches, per (geometry, chunk of points), jet fields
for the whole tower Riemann -> Ricci -> scalar -> Schouten -> Weyl -> Cotton
-> Bach plus the skew trace-free 3-tensors attached to soliton structures
(D, the vector-field variant, and their conformal interpolations), every
array with the point axis first.  A walk of
:func:`~ctlab.geometry.point_blocks` builds one per chunk and geometry, so
each quantity is built once for all the chunk's points, and
:meth:`CurvatureBundle.frames` reads a quantity's orthonormal-frame values
at all of them.  ``bundle(g, p)`` is a lone point's, a chunk of one built
by the same constructor, memoised in the geometry's per-point cache next
to the point's ``PointState``; ``bundle(g, p).on(name)`` reads its values.
Identity evaluators get frame values from their evaluation context
(:mod:`ctlab.identities`), stacked over a block of points with the point
axis last, where :func:`einsum` contractions against ``delta`` reproduce
moving-frame component formulas verbatim.  The point wrappers at the
module's end serve ctbench's checks only.

Every quantity is built in coordinates at its canonical jet order
(``K - metric derivative depth``) so that any covariant derivative a caller
can still afford is available, and each product in the tower at the order
its result keeps; conversion to the orthonormal coframe happens only on
extracted values.  ``K`` is the order of the bundle's geometry: in a
verification pass the working order, the largest ``min_order`` of the
records that run (order 2 for catalog certification), never more than the
configured order.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .geometry import (
    GeometryInstance,
    MetricError,
    PointState,
    TensorJet,
    TensorValue,
    tj_combine,
    tj_einsum,
    tj_skew_pair,
    tj_transpose,
)
from .jets import Jet


class DimensionError(ValueError):
    """The requested quantity needs a higher chart dimension."""


def _need_dim(m: int, least: int, what: str):
    if m < least:
        raise DimensionError(f"{what} requires dim >= {least}, got {m}")


class CurvatureBundle:
    """Cache of curvature and soliton tensors as jet fields at the points
    of a :class:`~ctlab.geometry.PointState`, a chunk of points, every
    array with the point axis first: :func:`bundle` for a lone point,
    :meth:`~ctlab.geometry.Chunk.bundle` for a walk's chunk."""

    def __init__(self, state: PointState):
        self.geometry = state.geometry
        self.state = state
        self.m = self.geometry.dim
        self._coord: dict[tuple[str, int], TensorJet] = {}
        self._frames: dict[tuple[str, int], np.ndarray] = {}

    def arrays(self):
        """Every array this bundle and its state hold, for
        :func:`~ctlab.geometry.held_bytes`."""
        yield from (t.coeffs for t in self._coord.values())
        yield from self._frames.values()
        yield from self.state.arrays()

    # -- access ----------------------------------------------------------------

    def coord(self, name: str, d: int = 0) -> TensorJet:
        key = (name, d)
        t = self._coord.get(key)
        if t is None:
            if d > 0:
                t = self.state.cov_deriv(self.coord(name, d - 1))
            else:
                t = getattr(self, f"_build_{name}")()
            self._coord[key] = t
        return t

    def frames(self, name: str, d: int = 0) -> np.ndarray:
        """Orthonormal-coframe components at every point of the bundle,
        the point axis first, read-only."""
        key = (name, d)
        out = self._frames.get(key)
        if out is None:
            t = self.coord(name, d)
            out = t.value()
            if t.rank:
                out = self.state.to_orthonormal(out)
            out.setflags(write=False)
            self._frames[key] = out
        return out

    def on(self, name: str, d: int = 0):
        """Orthonormal-coframe components at the bundle's first point, its
        only one for a lone point's (a float for rank 0), a read-only view.
        Record evaluators do not call this: their context
        (:class:`~ctlab.identities.EvalContext`) hands them :meth:`frames`
        for a block of points, each with a trailing point axis, so they
        contract them with :func:`einsum`, :func:`dot` and :func:`tp`,
        never with ``@``, ``.T`` or ``float``."""
        out = self.frames(name, d)[0]
        return float(out) if out.ndim == 0 else out

    def scalar_exp(self, k: float) -> np.ndarray:
        """e^{k u} at every point of the bundle, ``(P,)`` (1 when the
        geometry has no u field)."""
        u = self.state.u
        if u is None:
            return np.ones(len(self.state.g.coeffs))
        return np.exp(k * u.coeffs[:, 0])

    # -- metric level ------------------------------------------------------------

    def _build_u(self) -> TensorJet:
        if self.state.u is None:
            raise MetricError(f"geometry {self.geometry.name!r} has no field u")
        return self.state.u

    def _build_f(self) -> TensorJet:
        if self.state.f is None:
            raise MetricError(f"geometry {self.geometry.name!r} has no field f")
        return self.state.f

    def _build_X(self) -> TensorJet:
        if self.state.x_lower is None:
            raise MetricError(f"geometry {self.geometry.name!r} has no field X")
        return self.state.x_lower

    def _build_lie_metric(self) -> TensorJet:
        dx = self.state.cov_deriv(self.coord("X"))
        return tj_combine((1.0, dx), (1.0, tj_transpose(dx, (1, 0))))

    # -- curvature tower -----------------------------------------------------------

    def _build_riemann13(self) -> TensorJet:
        st = self.state
        m = self.m
        gam = st.christoffel
        dgam = TensorJet(jets.jet_gradient(gam.coeffs, m, gam.order), m,
                         gam.order - 1)  # [u, l1, l2, v] = d_v Gamma^u_{l1 l2}
        d1 = tj_transpose(dgam, (0, 2, 3, 1))  # [i,j,k,l] = d_k Gamma^i_{lj}
        d2 = tj_transpose(dgam, (0, 2, 1, 3))  # [i,j,k,l] = d_l Gamma^i_{kj}
        gam = gam.truncate(dgam.order)  # the order the sum keeps
        p1 = tj_einsum("iks,slj->ijkl", gam, gam)
        p2 = tj_einsum("ils,skj->ijkl", gam, gam)
        return tj_combine((1.0, d1), (-1.0, d2), (1.0, p1), (-1.0, p2))

    def _build_riemann(self) -> TensorJet:
        r13 = self.coord("riemann13")
        return tj_einsum("is,sjkl->ijkl", self.state.g, r13)

    def _build_ricci(self) -> TensorJet:
        r13 = self.coord("riemann13")
        return TensorJet(
            np.einsum("zpijil->zpjl", r13.coeffs), self.m, r13.order
        )

    def _build_scalar(self) -> TensorJet:
        return tj_einsum("jl,jl->", self.state.ginv, self.coord("ricci"))

    def _build_schouten(self) -> TensorJet:
        _need_dim(self.m, 3, "the Schouten tensor")
        sg = tj_einsum(",ab->ab", self.coord("scalar"), self.state.g)
        return tj_combine(
            (1.0, self.coord("ricci")), (-1.0 / (2 * (self.m - 1)), sg)
        )

    def _build_weyl(self) -> TensorJet:
        _need_dim(self.m, 3, "the Weyl tensor")
        m = self.m
        g = self.state.g
        ric, s, r4 = self.coord("ricci"), self.coord("scalar"), self.coord("riemann")
        t1 = tj_einsum("ik,jt->ijkt", ric, g)
        t2 = tj_einsum("it,jk->ijkt", ric, g)
        ric_part = tj_combine(
            (1.0, t1), (-1.0, t2),
            (1.0, tj_transpose(t1, (1, 0, 3, 2))),
            (-1.0, tj_transpose(t2, (1, 0, 3, 2))),
        )
        g = g.truncate(s.order)  # the order the sum keeps
        gg = tj_einsum("ik,jt->ijkt", g, g)
        g_part = tj_combine((1.0, gg), (-1.0, tj_transpose(gg, (0, 1, 3, 2))))
        s_part = tj_einsum(",ijkt->ijkt", s, g_part)
        return tj_combine(
            (1.0, r4),
            (-1.0 / (m - 2), ric_part),
            (1.0 / ((m - 1) * (m - 2)), s_part),
        )

    def _build_einstein(self) -> TensorJet:
        sg = tj_einsum(",ab->ab", self.coord("scalar"), self.state.g)
        return tj_combine((1.0, self.coord("ricci")), (-0.5, sg))

    def _build_cotton(self) -> TensorJet:
        """C_ijk = A_ij,k - A_ik,j (obstruction to Schouten being Codazzi)."""
        _need_dim(self.m, 3, "the Cotton tensor")
        da = self.state.cov_deriv(self.coord("schouten"))
        return tj_combine((1.0, da), (-1.0, tj_transpose(da, (0, 2, 1))))

    def _build_cotton_weyl_div(self) -> TensorJet:
        """Divergence-of-Weyl construction, defined for dim >= 4."""
        _need_dim(self.m, 4, "the Weyl-divergence form of the Cotton tensor")
        dw = self.state.cov_deriv(self.coord("weyl"))
        c = tj_einsum("tv,tikjv->ijk", self.state.ginv, dw)
        return tj_combine(((self.m - 2) / (self.m - 3), c))

    def _build_bach(self) -> TensorJet:
        """Cotton form of Bach (valid for every dim >= 3)."""
        _need_dim(self.m, 3, "the Bach tensor")
        m = self.m
        dc = self.state.cov_deriv(self.coord("cotton"))
        div_c = tj_einsum("kt,jikt->ij", self.state.ginv, dc)
        return tj_combine((1.0 / (m - 2), div_c),
                          (1.0 / (m - 2), self._ricci_weyl(div_c.order)))

    def _build_bach_weyl_div(self) -> TensorJet:
        """Weyl-divergence form, the dim >= 4 cross-check route."""
        _need_dim(self.m, 4, "the Weyl-divergence form of the Bach tensor")
        m = self.m
        d2w = self.state.cov_deriv(self.coord("weyl"), 2)
        t1 = tj_einsum("la,ikjlab->ikjb", self.state.ginv, d2w)
        t2 = tj_einsum("kb,ikjb->ij", self.state.ginv, t1)
        return tj_combine((1.0 / (m - 3), t2),
                          (1.0 / (m - 2), self._ricci_weyl(t2.order)))

    def _ricci_weyl(self, order: int) -> TensorJet:
        """R^kl W_ikjl, the curvature term shared by both Bach routes, at
        jet order ``order`` (the order of the route's divergence term)."""
        ric_up = tj_einsum(
            "ka,ab->kb", self.state.ginv,
            tj_einsum("lb,ab->al", self.state.ginv,
                      self.coord("ricci").truncate(order)),
        )
        return tj_einsum("kl,ikjl->ij", ric_up,
                         self.coord("weyl").truncate(order))

    # -- soliton tensors -------------------------------------------------------------

    def _grad(self, name: str) -> TensorJet:
        return self.state.cov_deriv(self.coord(name))

    def _raise1(self, t: TensorJet) -> TensorJet:
        return tj_einsum("ab,b->a", self.state.ginv, t)

    def _build_d_tensor(self) -> TensorJet:
        """Skew trace-free gradient-soliton 3-tensor, built from Ricci,
        scalar curvature and the potential's gradient."""
        m = self.m
        g = self.state.g
        ric, s = self.coord("ricci"), self.coord("scalar")
        f1 = self._grad("f")
        fr = tj_einsum("t,tk->k", self._raise1(f1), ric)
        sf = tj_einsum(",k->k", s, f1)
        return tj_combine(
            (1.0 / (m - 2), tj_skew_pair(f1, ric)),
            (1.0 / ((m - 1) * (m - 2)), tj_skew_pair(fr, g)),
            (-1.0 / ((m - 1) * (m - 2)), tj_skew_pair(sf, g)),
        )

    def _build_dx_tensor(self) -> TensorJet:
        """The vector-field soliton 3-tensor before any conformal factor."""
        m = self.m
        g = self.state.g
        ric, s = self.coord("ricci"), self.coord("scalar")
        xl = self.coord("X")
        x2 = self.state.cov_deriv(xl, 2)  # [base, d1, d2]
        xr = tj_einsum("t,tk->k", self.state.x_contra, ric)
        sx = tj_einsum(",k->k", s, xl)
        # X_{kji} - X_{jki} as [i,j,k]
        skew2 = tj_combine(
            (1.0, tj_transpose(x2, (2, 1, 0))),
            (-1.0, tj_transpose(x2, (2, 0, 1))),
        )
        u1 = tj_einsum("ta,tka->k", self.state.ginv, x2)  # X_{tkt}
        u2 = tj_einsum("ta,kta->k", self.state.ginv, x2)  # X_{ktt}
        return tj_combine(
            (1.0 / (m - 2), tj_skew_pair(xl, ric)),
            (1.0 / ((m - 1) * (m - 2)), tj_skew_pair(xr, g)),
            (-1.0 / ((m - 1) * (m - 2)), tj_skew_pair(sx, g)),
            (0.5, skew2),
            (1.0 / (2 * (m - 1)),
             tj_skew_pair(tj_combine((1.0, u1), (-1.0, u2)), g)),
        )

    def _build_duf_tensor(self) -> TensorJet:
        """Conformal-gradient interpolation tensor (the jet-level form)."""
        m = self.m
        g = self.state.g
        f1, u1 = self._grad("f"), self._grad("u")
        u2 = self.state.cov_deriv(self.coord("u"), 2)
        lap_u = tj_einsum("ab,ab->", self.state.ginv, u2)
        fu = tj_einsum("t,t->", self._raise1(f1), u1)
        gu2 = tj_einsum("t,t->", self._raise1(u1), u1)
        fu2 = tj_einsum("t,tk->k", self._raise1(f1), u2)
        # u_i (f_k u_j - f_j u_k)
        w = tj_einsum("k,j->jk", f1, u1)
        inner = tj_combine((1.0, w), (-1.0, tj_transpose(w, (1, 0))))
        cross = tj_einsum("i,jk->ijk", u1, inner)
        return tj_combine(
            (1.0, self.coord("d_tensor")),
            (1.0 / (m - 1), tj_skew_pair(tj_einsum(",k->k", lap_u, f1), g)),
            (-1.0, tj_skew_pair(f1, u2)),
            (1.0, cross),
            (-1.0 / (m - 1), tj_skew_pair(fu2, g)),
            (1.0 / (m - 1), tj_skew_pair(tj_einsum(",k->k", fu, u1), g)),
            (-1.0 / (m - 1), tj_skew_pair(tj_einsum(",k->k", gu2, f1), g)),
        )

    def _build_dux_tensor(self) -> TensorJet:
        """Conformal-generic interpolation tensor e^{2u} * {...}."""
        m = self.m
        g = self.state.g
        u1 = self._grad("u")
        xl = self.coord("X")
        x1 = self.state.cov_deriv(xl)
        sym = tj_combine((1.0, x1), (1.0, tj_transpose(x1, (1, 0))))
        ux = tj_einsum("t,tk->k", self._raise1(u1), sym)
        div_x = tj_einsum("ab,ab->", self.state.ginv, x1)
        inner = tj_combine(
            (1.0, self.coord("dx_tensor")),
            (-0.5, tj_skew_pair(u1, sym)),
            (-1.0 / (2 * (m - 1)), tj_skew_pair(ux, g)),
            (1.0 / (m - 1), tj_skew_pair(tj_einsum(",k->k", div_x, u1), g)),
        )
        # a block of scalar jets holds one column per point
        uj = Jet(self.m, self.state.order, self.coord("u").coeffs.T)
        e2u = TensorJet(jets.exp(uj * 2.0).coeffs.T, self.m, self.state.order)
        return tj_einsum(",ijk->ijk", e2u, inner)


def bundle(geometry: GeometryInstance, point) -> CurvatureBundle:
    """The lone point's CurvatureBundle, a chunk of one, memoised in the
    geometry's per-point cache."""
    return geometry.cached(point, "bundle",
                           lambda g, key: CurvatureBundle(g.state(key)))


# ---------------------------------------------------------------------------
# frame values of a block of points
# ---------------------------------------------------------------------------

# Record evaluators take the frame values of a block of points at once:
# :meth:`CurvatureBundle.frames` gives a chunk's, and the evaluation context
# of :mod:`ctlab.identities` stacks them with the point axis last, a
# rank-r tensor as ``(m,) * r + (P,)`` and a scalar as ``(P,)``.  The
# helpers below contract and permute tensor axes only, so an evaluator
# keeps the index strings of its formulas and the point axis rides along.
# ``einsum`` and ``tp`` also act on plain one-point arrays, as their numpy
# namesakes; ``dot`` takes block values only.

_SPECS: dict[str, tuple[str, int]] = {}
_DOTS: dict[tuple[int, int], str] = {}


def einsum(spec: str, *operands) -> np.ndarray:
    """``np.einsum(spec, *operands)`` with ``...`` appended to every
    operand and to the output, so that trailing axes broadcast along.  A
    result over several points is stored point-major, as its operands
    are: numpy lays out the product of a block value and a constant (the
    delta's point axis has length 1) in an order of its own, and sums of
    arrays in different orders run several times slower."""
    plan = _SPECS.get(spec)
    if plan is None:
        lhs, out = spec.split("->")
        plan = _SPECS[spec] = (
            ",".join(s + "..." for s in lhs.split(",")) + "->" + out + "...",
            len(out))
    full, rank = plan
    out = np.einsum(full, *operands)
    if out.ndim > rank and out.shape[-1] > 1 and out.strides[-1] < max(
            out.strides):
        out = np.moveaxis(np.ascontiguousarray(np.moveaxis(out, -1, 0)), 0, -1)
    return out


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on block values: the last tensor axis of ``a`` contracted
    with the first of ``b``, point by point."""
    ranks = (np.ndim(a) - 1, np.ndim(b) - 1)
    spec = _DOTS.get(ranks)
    if spec is None:
        ra, rb = ranks
        ia, ib = "abcdefgh"[:ra], "abcdefgh"[ra - 1:ra + rb - 1]
        spec = _DOTS[ranks] = f"{ia},{ib}->{ia[:-1]}{ib[1:]}"
    return einsum(spec, a, b)


def tp(x: np.ndarray, *perm: int) -> np.ndarray:
    """``x.transpose(*perm)`` on the leading ``len(perm)`` axes; the axes
    after them (a block's point axis) stay where they are."""
    return x.transpose(*perm, *range(len(perm), x.ndim))


def skew_on(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i,j,k] = a_k b_ij - a_j b_ik on frame values of one point or of
    a block of points."""
    t = einsum("k,ij->ijk", a, b)
    return t - tp(t, 0, 2, 1)


# ---------------------------------------------------------------------------
# point wrappers for ctbench's independent checks only (ROADMAP item 3)
# ---------------------------------------------------------------------------

def riemann(g: GeometryInstance, p) -> TensorValue:
    return TensorValue(bundle(g, p).on("riemann"))


def ricci(g: GeometryInstance, p) -> TensorValue:
    return TensorValue(bundle(g, p).on("ricci"))


def scalar(g: GeometryInstance, p) -> float:
    return bundle(g, p).on("scalar")


def weyl(g: GeometryInstance, p) -> TensorValue:
    return TensorValue(bundle(g, p).on("weyl"))


def cotton(g: GeometryInstance, p) -> TensorValue:
    return TensorValue(bundle(g, p).on("cotton"))


def bach(g: GeometryInstance, p) -> TensorValue:
    return TensorValue(bundle(g, p).on("bach"))
