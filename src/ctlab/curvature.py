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
afresh by the same constructor on a new ``PointState``, and freed with
the caller's reference; ``bundle(g, p).on(name)`` reads its values.
Identity evaluators get frame values from their evaluation context
(:mod:`ctlab.identities`), stacked over a block of points with the point
axis last, where :func:`einsum` contractions against :func:`delta`
reproduce moving-frame component formulas verbatim.  :func:`einsum`
writes a product with the delta on its diagonal, runs a product of two
such values as batched GEMMs, each straight into the output's
point-major layout, so sums of its results run in memory order.  The
point wrappers at the module's end serve ctbench's checks only.

Every quantity is built in coordinates, at its canonical jet order
(``K - metric derivative depth``) so that any covariant derivative a caller
can still afford is available, or at the lower order its geometry's plan
gives it (:meth:`~ctlab.geometry.GeometryInstance.planned`): a
verification pass knows the frame values its records read before it
walks, and :func:`plan` closes them over the jets each ``_build_*``
method reads (:data:`QUANTITIES`).  A quantity planned ``s`` orders below its
canonical order is built as at a working order ``s`` lower, each product
of the tower at the order its result keeps; a lone point's bundle keeps
the canonical orders.  Conversion to the orthonormal coframe happens only
on extracted values.  Riemann and Weyl, and every covariant derivative of
them, are stored with their pairs (ab)(cd) packed as a < b (see
:class:`~ctlab.geometry.TensorJet`): :meth:`CurvatureBundle.frames`
unpacks their values, and the Weyl-divergence builders unpack the jets
they contract.  The tower writes them packed from the start, one jet
product each: Riemann from the Christoffel symbols of both kinds (the
derivatives of the first kind's, one product, four packing gathers of
transposed views), Ricci from its own Christoffel terms (two rank-2
products), and Weyl as Riemann less the Kulkarni-Nomizu product of the
Schouten tensor with the metric, packed from one outer product, so no
unpacked rank-4 jet is kept.  ``K`` is the order of the bundle's
geometry: in a verification pass the working order, the least at which
its plan can be built (:func:`~ctlab.identities.jet_order`; order 2 for
catalog certification), never more than the configured order.  The point
state's metric, inverse and Christoffel symbols stay at orders ``K``,
``K - 1`` and ``K - 1`` whatever the plan.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import jets
from .geometry import (
    GeometryInstance,
    MetricError,
    PointState,
    TensorJet,
    TensorValue,
    christoffel_sum,
    tj_combine,
    tj_einsum,
    tj_skew_pair,
    tj_transpose,
)
from .jets import Jet


class DimensionError(ValueError):
    """The requested quantity needs a higher chart dimension."""


class Quantity(NamedTuple):
    """A quantity of the bundle: its tensor rank, its metric derivative
    depth (its canonical jet order is ``K - depth``) and the jets its
    ``_build_*`` method reads through :meth:`CurvatureBundle.coord`, as pairs
    (quantity, covariant derivative count).  Riemann and Ricci read the
    point state's metric and Christoffel symbols alone, and the fields
    are the point state's own jets.  ``min_dim`` is its dimension floor."""

    rank: int
    depth: int
    reads: tuple = ()
    min_dim: int = 0
    title: str = ""


def _need_dim(m: int, q: Quantity):
    if m < q.min_dim:
        raise DimensionError(
            f"the {q.title} tensor requires dim >= {q.min_dim}, got {m}")


QUANTITIES = {
    "u": Quantity(0, 0),
    "f": Quantity(0, 0),
    "X": Quantity(1, 0),
    "lie_metric": Quantity(2, 1, (("X", 1),)),
    "riemann": Quantity(4, 2),
    "ricci": Quantity(2, 2),
    "scalar": Quantity(0, 2, (("ricci", 0),)),
    "schouten": Quantity(2, 2, (("scalar", 0), ("ricci", 0)), 3, "Schouten"),
    "weyl": Quantity(4, 2, (("schouten", 0), ("riemann", 0)), 3, "Weyl"),
    "einstein": Quantity(2, 2, (("scalar", 0), ("ricci", 0))),
    "cotton": Quantity(3, 3, (("schouten", 1),), 3, "Cotton"),
    "cotton_weyl_div": Quantity(3, 3, (("weyl", 1),), 4,
                                "Weyl-divergence form of the Cotton"),
    "bach": Quantity(2, 4, (("cotton", 1), ("ricci", 0), ("weyl", 0)), 3,
                     "Bach"),
    "bach_weyl_div": Quantity(2, 4, (("weyl", 2), ("ricci", 0), ("weyl", 0)),
                              4, "Weyl-divergence form of the Bach"),
    "d_tensor": Quantity(3, 2, (("ricci", 0), ("scalar", 0), ("f", 1)), 3,
                         "D"),
    "dx_tensor": Quantity(3, 2, (("ricci", 0), ("scalar", 0), ("X", 0),
                                 ("X", 2)), 3, "D^X"),
    "duf_tensor": Quantity(3, 2, (("f", 1), ("u", 1), ("u", 2),
                                  ("d_tensor", 0)), 3, "D^{u,f}"),
    "dux_tensor": Quantity(3, 2, (("u", 1), ("X", 1), ("dx_tensor", 0),
                                  ("u", 0)), 3, "D^{u,X}"),
}
FIELDS = ("u", "f", "X")


def plan(reads) -> dict[str, int]:
    """The jet order each quantity must be built to for the frame values
    ``reads``, pairs (quantity, covariant derivative count), to be read:
    a value of ``d`` derivatives needs its quantity to order ``d``, and a
    quantity built to order ``q`` needs each jet its build reads to order
    ``q`` (:data:`QUANTITIES`).  Quantities no value needs are
    absent."""
    need: dict[str, int] = {}

    def visit(name: str, order: int):
        if need.get(name, -1) < order:
            need[name] = order
            for dep, d in QUANTITIES[name].reads:
                visit(dep, order + d)

    for name, d in reads:
        visit(name, d)
    return need


class CurvatureBundle:
    """Cache of curvature and soliton tensors as jet fields at the points
    of a :class:`~ctlab.geometry.PointState`, a chunk of points, every
    array with the point axis first: :func:`bundle` for a lone point,
    :meth:`~ctlab.geometry.Chunk.bundle` for a walk's chunk."""

    def __init__(self, state: PointState):
        self.geometry = state.geometry
        self.state = state
        self.m = self.geometry.dim
        planned = self.geometry.orders or {}
        self._canonical = {name: state.order - q.depth
                           for name, q in QUANTITIES.items()}
        self.orders = {name: min(planned.get(name, k), k)
                       for name, k in self._canonical.items()}
        self._coord: dict[tuple[str, int], TensorJet] = {}
        self._frames: dict[tuple[str, int], np.ndarray] = {}
        self._shift: int | None = None  # of the build under way

    def arrays(self):
        """Every array this bundle and its state hold, for
        :func:`~ctlab.geometry.held_bytes`, each with the bytes it counts
        for: a jet the bundle built, at its canonical order, as if it had
        no plan, so that a plan changes no walk's chunk sizes; any other
        array (a field's jet is its state's) as its base array is."""
        for (name, d), t in self._coord.items():
            n = None
            if name not in FIELDS or d:
                x = t.coeffs
                n = (x.nbytes // x.shape[1]
                     * jets.table(self.m, self._canonical[name] - d).size)
            yield t.coeffs, n
        for x in self._frames.values():
            yield x, None
        yield from self.state.arrays()

    # -- access ----------------------------------------------------------------

    def coord(self, name: str, d: int = 0) -> TensorJet:
        """The jet of ``name``'s ``d``-th covariant derivative at the
        bundle's points, at order ``orders[name] - d``, built on first use.

        A quantity planned ``s`` orders below its canonical order is built
        as at a working order ``s`` lower: its build reads every jet
        (through this method, or the point state's metric and connection
        where it reads them alone) truncated ``s`` orders below the jet's
        canonical order, all the build needs of it, since a jet
        coefficient needs only the coefficients of its factors up to its
        own degree.  So every product of a build runs at the order its
        canonical build runs at, less ``s``; unplanned, at the same."""
        key = (name, d)
        t = self._coord.get(key)
        if t is None:
            outer, self._shift = self._shift, None
            try:
                if d > 0:
                    t = self.state.cov_deriv(self.coord(name, d - 1))
                else:
                    _need_dim(self.m, QUANTITIES[name])
                    self._shift = self._canonical[name] - self.orders[name]
                    t = getattr(self, f"_build_{name}")().truncate(
                        self.orders[name])
            finally:
                self._shift = outer
            self._coord[key] = t
        if self._shift is None:
            return t
        return t.truncate(self._canonical[name] - d - self._shift)

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
        dx = self.coord("X", 1)
        return tj_combine((1.0, dx), (1.0, tj_transpose(dx, (1, 0))))

    # -- curvature tower -----------------------------------------------------------

    def _build_riemann(self) -> TensorJet:
        """R_ijkl = d_k Gamma_{i,lj} - d_l Gamma_{i,kj} + Gamma^s_kj
        Gamma_{s,il} - Gamma^s_lj Gamma_{s,ik}, written packed."""
        m = self.m
        gam = self.state.christoffel  # first: it refuses a non-finite one
        g = self.state.g.truncate(self.state.order - self._shift)
        low = tj_combine((0.5, christoffel_sum(g)))  # Gamma_{s,il}
        dlow = TensorJet(jets.jet_gradient(low.coeffs, m, low.order), m,
                         low.order - 1)  # [s, i, l, v] = d_v Gamma_{s,il}
        # [i,j,k,l] = Gamma^s_kj Gamma_{s,il}, at the order the sum keeps
        q = tj_einsum("skj,sil->ijkl", gam, low.truncate(dlow.order))
        return tj_combine(
            (1.0, tj_transpose(dlow, (0, 2, 3, 1)).packed()),  # d_k G_{i,lj}
            (-1.0, tj_transpose(dlow, (0, 2, 1, 3)).packed()),  # d_l G_{i,kj}
            (1.0, q.packed()),
            (-1.0, tj_transpose(q, (0, 1, 3, 2)).packed()),
        )

    def _build_ricci(self) -> TensorJet:
        """Ric_jl = d_i Gamma^i_lj - d_l Gamma^i_ij + Gamma^i_is Gamma^s_lj
        - Gamma^i_ls Gamma^s_ij."""
        m = self.m
        gam = self.state.christoffel.truncate(self.state.order - 1
                                              - self._shift)
        q = gam.order - 1
        tr = TensorJet(np.einsum("zpiij->zpj", gam.coeffs), m, gam.order)
        dtr = jets.jet_gradient(tr.coeffs, m, tr.order)  # [j, l] = d_l tr_j
        t = jets.table(m, gam.order)
        # [i, l, j] = d_i of Gamma^i_lj, the only partials the trace reads,
        # summed in order from +0 as np.einsum sums a trace
        part = gam.coeffs[:, t.dsrc, np.arange(m)] * t.dmul[:, :, None, None]
        div = np.add.reduce(part, axis=2, initial=0.0).transpose(0, 1, 3, 2)
        gam = gam.truncate(q)  # the order the sum keeps
        return tj_combine(
            (1.0, TensorJet(div, m, q)), (-1.0, TensorJet(dtr, m, q)),
            (1.0, tj_einsum("s,slj->jl", tr, gam)),
            (-1.0, tj_einsum("ils,sij->jl", gam, gam)),
        )

    def _build_scalar(self) -> TensorJet:
        return tj_einsum("jl,jl->", self.state.ginv, self.coord("ricci"))

    def _build_schouten(self) -> TensorJet:
        sg = tj_einsum(",ab->ab", self.coord("scalar"), self.state.g)
        return tj_combine(
            (1.0, self.coord("ricci")), (-1.0 / (2 * (self.m - 1)), sg)
        )

    def _build_weyl(self) -> TensorJet:
        """W = Rm - (A o g)/(m-2), with A the Schouten tensor and o the
        Kulkarni-Nomizu product, written packed: (A o g)_ijkl = P_ijkl +
        P_jilk - P_ijlk - P_jikl with P_ijkl = A_ik g_jl."""
        c = 1.0 / (self.m - 2)
        p = tj_einsum("ik,jl->ijkl", self.coord("schouten"), self.state.g)
        return tj_combine(
            (1.0, self.coord("riemann")),
            (-c, p.packed()), (-c, tj_transpose(p, (1, 0, 3, 2)).packed()),
            (c, tj_transpose(p, (0, 1, 3, 2)).packed()),
            (c, tj_transpose(p, (1, 0, 2, 3)).packed()),
        )

    def _build_einstein(self) -> TensorJet:
        sg = tj_einsum(",ab->ab", self.coord("scalar"), self.state.g)
        return tj_combine((1.0, self.coord("ricci")), (-0.5, sg))

    def _build_cotton(self) -> TensorJet:
        """C_ijk = A_ij,k - A_ik,j (obstruction to Schouten being Codazzi)."""
        da = self.coord("schouten", 1)
        return tj_combine((1.0, da), (-1.0, tj_transpose(da, (0, 2, 1))))

    def _build_cotton_weyl_div(self) -> TensorJet:
        """Divergence-of-Weyl construction, defined for dim >= 4."""
        dw = self.coord("weyl", 1).unpacked()
        c = tj_einsum("tv,tikjv->ijk", self.state.ginv, dw)
        return tj_combine(((self.m - 2) / (self.m - 3), c))

    def _build_bach(self) -> TensorJet:
        """Cotton form of Bach (valid for every dim >= 3)."""
        m = self.m
        dc = self.coord("cotton", 1)
        div_c = tj_einsum("kt,jikt->ij", self.state.ginv, dc)
        return tj_combine((1.0 / (m - 2), div_c),
                          (1.0 / (m - 2), self._ricci_weyl(div_c.order)))

    def _build_bach_weyl_div(self) -> TensorJet:
        """Weyl-divergence form, the dim >= 4 cross-check route."""
        m = self.m
        d2w = self.coord("weyl", 2).unpacked()
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
                         self.coord("weyl").truncate(order).unpacked())

    # -- soliton tensors -------------------------------------------------------------

    def _raise1(self, t: TensorJet) -> TensorJet:
        return tj_einsum("ab,b->a", self.state.ginv, t)

    def _build_d_tensor(self) -> TensorJet:
        """Skew trace-free gradient-soliton 3-tensor, built from Ricci,
        scalar curvature and the potential's gradient."""
        m = self.m
        g = self.state.g
        ric, s = self.coord("ricci"), self.coord("scalar")
        f1 = self.coord("f", 1)
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
        x2 = self.coord("X", 2)  # [base, d1, d2]
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
        f1 = self.coord("f", 1)
        u1, u2 = self.coord("u", 1), self.coord("u", 2)
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
        u1, x1 = self.coord("u", 1), self.coord("X", 1)
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
        u = self.coord("u")
        e2u = TensorJet(jets.exp(Jet(m, u.order, u.coeffs.T) * 2.0).coeffs.T,
                        m, u.order)
        return tj_einsum(",ijk->ijk", e2u, inner)


def bundle(geometry: GeometryInstance, point) -> CurvatureBundle:
    """The lone point's CurvatureBundle, a chunk of one, built afresh."""
    return CurvatureBundle(PointState(geometry, point))


# ---------------------------------------------------------------------------
# frame values of a block of points
# ---------------------------------------------------------------------------

# Record evaluators take the frame values of a block of points at once:
# :meth:`CurvatureBundle.frames` gives a chunk's, and the evaluation context
# of :mod:`ctlab.identities` stacks them with the point axis last, a
# rank-r tensor as ``(m,) * r + (P,)`` and a scalar as ``(P,)``.  The
# helpers below contract and permute tensor axes only, so an evaluator
# keeps the index strings of its formulas and the point axis rides along;
# their results are point-major, as the values are.
# ``einsum`` and ``tp`` also act on plain one-point arrays, as their numpy
# namesakes; ``dot`` takes block values only.  ``einsum`` knows the
# Kronecker delta by identity: the shared value :func:`delta` returns,
# which is an evaluation context's ``I``.

_PLANS: dict[tuple, tuple] = {}
_DOTS: dict[tuple[int, int], str] = {}
_DELTAS: set[int] = set()  # ids of delta()'s values, which are never freed


@functools.lru_cache(maxsize=None)
def delta(m: int) -> np.ndarray:
    """The Kronecker delta of dimension ``m`` as a block value, a trailing
    point axis of length 1; read-only, as every evaluation context of
    dimension ``m`` shares it, and :func:`einsum` knows it by identity."""
    out = np.eye(m)[..., None]
    out.flags.writeable = False
    _DELTAS.add(id(out))
    return out


def _lengths(subs: list, shapes) -> tuple | None:
    """Each operand's count of trailing point axes and each index's
    length, for operands with subscripts ``subs`` and these shapes; None
    if an operand has two trailing axes or an index two lengths."""
    points = [len(shape) - len(s) for s, shape in zip(subs, shapes)]
    if not set(points) <= {0, 1}:
        return None
    size = {}
    for s, shape in zip(subs, shapes):
        for c, n in zip(s, shape):
            if size.setdefault(c, n) != n:
                return None
    return points, size


def _point_axis(points: list, shapes) -> int:
    """The length of the point axis that operands with ``points`` trailing
    point axes (0 or 1 each) and these shapes broadcast to: an axis of
    length 1 gives way to any other, so a block of no points stays one."""
    lengths = {shape[-1] for p, shape in zip(points, shapes) if p} - {1}
    return lengths.pop() if lengths else 1


def _gemm_plan(spec: str, shape_a: tuple, shape_b: tuple) -> tuple | None:
    """How :func:`einsum` runs the two-operand ``spec`` on operands of
    these shapes as one batched GEMM, or None to leave it to ``np.einsum``.

    The output must read as a batch prefix, then a run of indices of one
    operand X alone (the GEMM's rows), then a run of the other operand Y's
    alone (its columns), with at least one index summed, none repeated
    within an operand and none summed within one; the prefix is the
    shortest that does.  X is laid out ``[point, batch, rows, summed]``
    and Y ``[point, batch, summed, columns]``, a batch axis of length 1
    where the operand lacks its index, with the point axis moved to the
    front: a view on point-major memory.  The plan is X's position, X's
    and Y's axis orders and layouts, the product's shape (point axis
    first) and the transpose that moves its point axis last (None without
    one)."""
    subs, out = spec.split("->")
    subs, shapes = subs.split(","), (shape_a, shape_b)
    if len(subs) != 2:
        return None
    sa, sb = subs
    summed = "".join(c for c in sa if c in sb and c not in out)
    if (not summed or any(len(set(s)) < len(s) for s in (sa, sb, out))
            or not set(sa) <= set(sb + out) or not set(sb) <= set(sa + out)
            or not set(out) <= set(sa + sb)):
        return None
    lengths = _lengths(subs, shapes)
    if lengths is None:
        return None
    points, size = lengths
    for x, y in ((0, 1), (1, 0)):
        alone_x = [c in subs[x] and c not in subs[y] for c in out]
        alone_y = [c in subs[y] and c not in subs[x] for c in out]
        cols = len(out)
        while cols and alone_y[cols - 1]:
            cols -= 1
        rows = cols
        while rows and alone_x[rows - 1]:
            rows -= 1
        if rows < cols < len(out):
            break
    else:
        return None
    batch = out[:rows]

    def lay(n, parts):
        s, shape = subs[n], shapes[n]
        return ((len(s),) * points[n] + tuple(
                    s.index(c) for c in batch + "".join(parts) if c in s),
                (shape[-1] if points[n] else 1,
                 *(size[c] if c in s else 1 for c in batch),
                 *(int(np.prod([size[c] for c in part])) for part in parts)))

    shape, axes = tuple(size[c] for c in out), None
    if any(points):  # the product's point axis, moved last at the end
        shape = (_point_axis(points, shapes), *shape)
        axes = (*range(1, len(out) + 1), 0)
    return (x, *lay(x, (out[rows:cols], summed)),
            *lay(y, (summed, out[cols:])), shape, axes)


def _gemm(plan: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of :func:`_gemm_plan`'s ``plan``: one ``np.matmul`` of
    the two laid-out operands, viewed with the point axis last."""
    first, order_x, layout_x, order_y, layout_y, shape, axes = plan
    x, y = (a, b) if first == 0 else (b, a)
    out = np.matmul(x.transpose(order_x).reshape(layout_x),
                    y.transpose(order_y).reshape(layout_y)).reshape(shape)
    return out if axes is None else out.transpose(axes)


def _delta_plan(spec: str, shapes: tuple, deltas: list) -> tuple | None:
    """How :func:`einsum` runs ``spec`` on operands of these shapes, those
    at positions ``deltas`` being :func:`delta`'s values, as a product
    written on a diagonal of a zeroed output; None to leave it to the
    other paths.

    A delta both of whose indices are output indices factors out: the
    output is zero off the diagonal where the two coincide, and on it the
    product of the other operands with one index renamed as the other.
    That product is written into a strided view of a point-major output.
    When the other operands sum no index, the view is laid out as
    ``[point, indices they lack, indices they read]`` and the product is
    a broadcast multiply of them, each laid out against it.  When they
    do, it is one ``np.einsum`` of every operand as it is, each factored
    delta on its diagonal of ones, so that its kernel and its order of
    sums are those of ``np.einsum`` on the whole spec, and the view is
    laid out as its result, the point axis last.  Either product is made
    compact, then copied (written into the strided view, it runs slower).
    The plan is the output's shape (point axis first), the transpose that
    moves its point axis last, the view's shape and byte strides, and
    either the ``np.einsum`` spec or, for the multiply, each other
    operand's position, transpose and shape."""
    subs, out = spec.split("->")
    subs = subs.split(",")
    if ("." in spec or len(subs) != len(shapes) or len(set(out)) < len(out)
            or not set(out) <= set("".join(subs))):
        return None  # np.einsum says what is wrong
    lengths = _lengths(subs, shapes)
    if lengths is None:
        return None
    points, size = lengths
    name = {c: c for c in out}  # each output index's name on the diagonal
    rest = []
    for n, s in enumerate(subs):
        if (n in deltas and len(s) == 2 and s[0] != s[1]
                and set(s) <= set(out)):
            a, b = name[s[0]], name[s[1]]
            name = {c: a if k == b else k for c, k in name.items()}
        else:
            rest.append(n)
    if len(rest) == len(subs):
        return None
    renamed = ["".join(name.get(c, c) for c in s) for s in subs]
    diag = list(dict.fromkeys(name[c] for c in out))
    sizes = [size[c] for c in out]
    steps = [int(np.prod(sizes[k + 1:])) for k in range(len(out))]
    step = {d: 8 * sum(st for c, st in zip(out, steps) if name[c] == d)
            for d in diag}  # in bytes
    shape = (_point_axis(points, shapes), *sizes)
    plan = (shape, (*range(1, len(shape)), 0))
    point = 8 * int(np.prod(sizes))
    if any(len(set(renamed[n])) < len(renamed[n])
           or not set(renamed[n]) <= set(diag) for n in rest):
        return (*plan, (*(size[d] for d in diag), shape[0]),
                (*(step[d] for d in diag), point),
                ",".join(s + "..." for s in renamed) + "->" + "".join(diag)
                + "...")
    read = [d for d in diag if any(d in renamed[n] for n in rest)]
    lack = [d for d in diag if d not in read]
    lays = []
    for n in rest:
        s = renamed[n]
        own = sorted(range(len(s)), key=lambda k: read.index(s[k]))
        lays.append((n, (len(s),) * points[n] + tuple(own), (
            shapes[n][-1] if points[n] else 1, *(1,) * len(lack),
            *(size[d] if d in s else 1 for d in read))))
    return (*plan, (shape[0], *(size[d] for d in lack + read)),
            (point, *(step[d] for d in lack + read)), lays)


def _delta_product(plan: tuple, *operands) -> np.ndarray:
    """The product of :func:`_delta_plan`'s ``plan``: a zeroed point-major
    output with the product copied onto its diagonal, viewed with the
    point axis last."""
    shape, axes, view, strides, how = plan
    if isinstance(how, str):  # the other operands sum an index
        prod = np.einsum(how, *operands)
    else:
        xs = [operands[n].transpose(order).reshape(lay)
              for n, order, lay in how]
        prod = xs[0] if xs else 1.0
        if len(xs) > 1:
            with np.errstate(all="ignore"):  # as np.einsum, which checks none
                for x in xs[1:]:
                    prod = prod * x
    out = np.zeros(shape)
    np.copyto(np.ndarray(view, float, out, 0, strides), prod)
    return out.transpose(axes)


def _numpy(plan: tuple, *operands) -> np.ndarray:
    """``np.einsum`` of the ``spec, rank`` of ``plan``: ``spec`` with
    ``...`` appended and the output's ``rank``.  numpy lays out the
    product of a block value and a constant (a point axis of length 1) in
    an order of its own, so such a result over several points is copied
    back point-major, as sums of arrays in different orders run several
    times slower."""
    spec, rank = plan
    out = np.einsum(spec, *operands)
    if out.ndim > rank and out.shape[-1] > 1 and out.strides[-1] < max(
            out.strides):
        out = np.moveaxis(np.ascontiguousarray(np.moveaxis(out, -1, 0)), 0, -1)
    return out


def _plan(spec: str, operands: tuple) -> tuple:
    """How :func:`einsum` runs ``spec`` on ``operands``: the function that
    does and its plan, cached per spec, operand shapes and positions of
    :func:`delta`'s values among the operands (per spec alone for a spec
    that only ``np.einsum`` can run: not of two operands, and without the
    delta)."""
    if len(operands) != 2 and _DELTAS.isdisjoint(map(id, operands)):
        key = spec  # np.einsum's, whatever the shapes
    else:
        key = (spec, *[(x.shape, id(x) in _DELTAS) for x in operands])
    got = _PLANS.get(key)
    if got is None:
        shapes = [x.shape for x in operands]
        deltas = [n for n, x in enumerate(operands) if id(x) in _DELTAS]
        plan = _delta_plan(spec, shapes, deltas) if deltas else None
        if plan is not None:
            got = (_delta_product, plan)
        elif len(shapes) == 2 and (plan := _gemm_plan(spec, *shapes)):
            got = (_gemm, plan)
        else:
            lhs, out = spec.split("->")
            got = (_numpy, (",".join(s + "..." for s in lhs.split(","))
                            + "->" + out + "...", len(out)))
        _PLANS[key] = got
    return got


def einsum(spec: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, *operands)`` with ``...`` appended to every
    operand and to the output, so that trailing axes broadcast along, the
    result stored point-major, as its operands are (arrays, each a block
    value or a one-point array).

    A product with :func:`delta`'s value (the value itself, shared: not
    ``lam * I`` nor a copy) on two output indices is written on its
    diagonal (:func:`_delta_plan`): no product by 0 or 1 is taken.  A
    two-operand product that :func:`_gemm_plan` can lay out runs as one
    ``np.matmul``, a GEMM per point and batch index, written straight into
    the output's order (contraction without transposition: Matthews,
    SIAM J. Sci. Comput. 2018).  Every other spec runs through
    ``np.einsum`` (:func:`_numpy`)."""
    run, plan = _plan(spec, operands)
    return run(plan, *operands)


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
