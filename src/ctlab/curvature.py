"""The curvature stack and the soliton tensors.

:class:`CurvatureBundle` caches, per (geometry, point), jet fields for the
whole tower Riemann -> Ricci -> scalar -> Schouten -> Weyl -> Cotton -> Bach
plus the skew trace-free 3-tensors attached to soliton structures (D, the
vector-field variant, and their conformal interpolations).  Identity
evaluators pull orthonormal-frame value arrays out of it with
:meth:`CurvatureBundle.on`, where plain ``np.einsum`` contractions against
``delta`` reproduce moving-frame component formulas verbatim.  A bundle
lives in its geometry's per-point cache, next to the point's ``PointState``.

Every quantity is built in coordinates at its canonical jet order
(``K - metric derivative depth``) so that any covariant derivative a caller
can still afford is available; conversion to the orthonormal coframe happens
only on extracted values.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .geometry import (
    GeometryInstance,
    MetricError,
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
    """Per-point cache of curvature and soliton tensors as jet fields."""

    def __init__(self, geometry: GeometryInstance, point):
        self.geometry = geometry
        self.state = geometry.state(point)
        self.m = geometry.dim
        self._coord: dict[tuple[str, int], TensorJet] = {}
        self._on: dict[tuple[str, int], np.ndarray | float] = {}

    # -- access ----------------------------------------------------------------

    def coord(self, name: str, d: int = 0) -> TensorJet:
        key = (name, d)
        if key not in self._coord:
            if d > 0:
                self._coord[key] = self.state.cov_deriv(self.coord(name, d - 1))
            else:
                self._coord[key] = getattr(self, f"_build_{name}")()
        return self._coord[key]

    def on(self, name: str, d: int = 0):
        """Orthonormal-coframe components (floats for rank 0).  Cached
        arrays are frozen; callers must copy before mutating."""
        key = (name, d)
        if key not in self._on:
            t = self.coord(name, d)
            v = t.value()
            if t.rank == 0:
                self._on[key] = float(v)
            else:
                arr = self.state.to_orthonormal(v)
                arr.setflags(write=False)
                self._on[key] = arr
        return self._on[key]

    def scalar_exp(self, k: float) -> float:
        """e^{k u} at the point (u = 0 when the geometry has no u field)."""
        st = self.state
        if st.u is None:
            return 1.0
        return float(np.exp(k * st.u.value()))

    # -- metric level ------------------------------------------------------------

    def _build_metric(self) -> TensorJet:
        return self.state.g

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
        dgam = TensorJet(
            np.stack(
                [jets.jet_partial(gam.coeffs, v, m, gam.order) for v in range(m)],
                axis=-1,
            ),
            m,
            gam.order - 1,
        )  # [u, l1, l2, v] = d_v Gamma^u_{l1 l2}
        d1 = tj_transpose(dgam, (0, 2, 3, 1))  # [i,j,k,l] = d_k Gamma^i_{lj}
        d2 = tj_transpose(dgam, (0, 2, 1, 3))  # [i,j,k,l] = d_l Gamma^i_{kj}
        p1 = tj_einsum("iks,slj->ijkl", gam, gam)
        p2 = tj_einsum("ils,skj->ijkl", gam, gam)
        return tj_combine((1.0, d1), (-1.0, d2), (1.0, p1), (-1.0, p2))

    def _build_riemann(self) -> TensorJet:
        r13 = self.coord("riemann13")
        return tj_einsum("is,sjkl->ijkl", self.state.g, r13)

    def _build_ricci(self) -> TensorJet:
        r13 = self.coord("riemann13")
        return TensorJet(
            np.einsum("pijil->pjl", r13.coeffs), self.m, r13.order
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
        ric_up = tj_einsum(
            "ka,ab->kb", self.state.ginv,
            tj_einsum("lb,ab->al", self.state.ginv, self.coord("ricci")),
        )
        rw = tj_einsum("kl,ikjl->ij", ric_up, self.coord("weyl"))
        return tj_combine((1.0 / (m - 2), div_c), (1.0 / (m - 2), rw))

    def _build_bach_weyl_div(self) -> TensorJet:
        """Weyl-divergence form, the dim >= 4 cross-check route."""
        _need_dim(self.m, 4, "the Weyl-divergence form of the Bach tensor")
        m = self.m
        d2w = self.state.cov_deriv(self.coord("weyl"), 2)
        t1 = tj_einsum("la,ikjlab->ikjb", self.state.ginv, d2w)
        t2 = tj_einsum("kb,ikjb->ij", self.state.ginv, t1)
        ric_up = tj_einsum(
            "ka,ab->kb", self.state.ginv,
            tj_einsum("lb,ab->al", self.state.ginv, self.coord("ricci")),
        )
        rw = tj_einsum("kl,ikjl->ij", ric_up, self.coord("weyl"))
        return tj_combine((1.0 / (m - 3), t2), (1.0 / (m - 2), rw))

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

    def _dx_core(self) -> TensorJet:
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

    def _build_dx_tensor(self) -> TensorJet:
        return self._dx_core()

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
            (1.0, self._dx_core()),
            (-0.5, tj_skew_pair(u1, sym)),
            (-1.0 / (2 * (m - 1)), tj_skew_pair(ux, g)),
            (1.0 / (m - 1), tj_skew_pair(tj_einsum(",k->k", div_x, u1), g)),
        )
        uj = Jet(self.m, self.state.order, self.coord("u").coeffs)
        e2u = TensorJet(jets.exp(uj * 2.0).coeffs, self.m, self.state.order)
        return tj_einsum(",ijk->ijk", e2u, inner)


def bundle(geometry: GeometryInstance, point) -> CurvatureBundle:
    """The point's CurvatureBundle, memoised in the geometry's cache."""
    return geometry.cached(point, "bundle", CurvatureBundle)


# ---------------------------------------------------------------------------
# public point operations (orthonormal components, ready for checks)
# ---------------------------------------------------------------------------

def _tv(b: CurvatureBundle, name: str, base_rank: int, d: int = 0) -> TensorValue:
    return TensorValue(np.asarray(b.on(name, d)), tuple(b.state.point),
                       "orthonormal", base_rank, d)


def riemann(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "riemann", 4)


def ricci(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "ricci", 2)


def scalar(g: GeometryInstance, p) -> float:
    return bundle(g, p).on("scalar")


def schouten(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "schouten", 2)


def weyl(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "weyl", 4)


def einstein(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "einstein", 2)


def cotton(g: GeometryInstance, p, route: str = "schouten") -> TensorValue:
    b = bundle(g, p)
    name = {"schouten": "cotton", "weyl_div": "cotton_weyl_div"}[route]
    return _tv(b, name, 3)


def bach(g: GeometryInstance, p, route: str = "cotton") -> TensorValue:
    b = bundle(g, p)
    name = {"cotton": "bach", "weyl_div": "bach_weyl_div"}[route]
    return _tv(b, name, 2)


def kulkarni_nomizu(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(h ^ k)_ijkt = h_ik k_jt - h_it k_jk + h_jt k_ik - h_jk k_it."""
    h = np.asarray(h, float)
    k = np.asarray(k, float)
    if h.shape != k.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Kulkarni-Nomizu factors must be square matrices of equal size")
    return (
        np.einsum("ik,jt->ijkt", h, k)
        - np.einsum("it,jk->ijkt", h, k)
        + np.einsum("jt,ik->ijkt", h, k)
        - np.einsum("jk,it->ijkt", h, k)
    )


def skew_on(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i,j,k] = a_k b_ij - a_j b_ik on plain value arrays."""
    t = np.einsum("k,ij->ijk", a, b)
    return t - t.transpose(0, 2, 1)


def d_tensor(g: GeometryInstance, p, form: int = 1) -> TensorValue:
    """The gradient-soliton 3-tensor in one of its four presentations.

    Form 1 is definitional; forms 2-4 use the gradient-soliton relations
    and agree with form 1 only on an actual soliton structure.
    """
    b = bundle(g, p)
    m = b.m
    if form == 1:
        return _tv(b, "d_tensor", 3)
    eye = np.eye(m)
    f1 = b.on("f", 1)
    ric = b.on("ricci")
    s = b.on("scalar")
    if form == 2:
        s1 = b.on("scalar", 1)
        comp = (
            skew_on(f1, ric) / (m - 2)
            + skew_on(s1, eye) / (2 * (m - 1) * (m - 2))
            - s * skew_on(f1, eye) / ((m - 1) * (m - 2))
        )
    elif form == 3:
        a = b.on("schouten")
        e = b.on("einstein")
        ef = np.einsum("t,tk->k", f1, e)
        comp = skew_on(f1, a) / (m - 2) + skew_on(ef, eye) / ((m - 1) * (m - 2))
    elif form == 4:
        f2 = b.on("f", 2)
        ff = np.einsum("t,tk->k", f1, f2)
        lap_f = np.trace(f2)
        comp = (
            -skew_on(f1, f2) / (m - 2)
            - skew_on(ff, eye) / ((m - 1) * (m - 2))
            + lap_f * skew_on(f1, eye) / ((m - 1) * (m - 2))
        )
    else:
        raise ValueError(f"unknown form {form}")
    return TensorValue(comp, tuple(b.state.point), "orthonormal", 3)


def dx_tensor(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "dx_tensor", 3)


def duf_tensor(g: GeometryInstance, p, form: str = "best") -> TensorValue:
    """Conformal-gradient tensor; ``alt`` is the presentation valid only
    under the conformal-gradient structure equation."""
    b = bundle(g, p)
    m = b.m
    if form == "best":
        return _tv(b, "duf_tensor", 3)
    if form != "alt":
        raise ValueError(f"unknown form {form!r}")
    eye = np.eye(m)
    f1, u1 = b.on("f", 1), b.on("u", 1)
    f2 = b.on("f", 2)
    ff = np.einsum("t,tk->k", f1, f2)
    grad_f2 = float(f1 @ f1)
    fu = float(f1 @ u1)
    lap_f = np.trace(f2)
    comp = (
        (-skew_on(ff, eye) + grad_f2 * skew_on(u1, eye) - fu * skew_on(f1, eye))
        / ((m - 1) * (m - 2))
        - skew_on(f1, f2) / (m - 2)
        - (np.einsum("i,k,j->ijk", f1, u1, f1)
           - np.einsum("i,j,k->ijk", f1, u1, f1)) / (m - 2)
        + lap_f * skew_on(f1, eye) / ((m - 1) * (m - 2))
    )
    return TensorValue(comp, tuple(b.state.point), "orthonormal", 3)


def dux_tensor(g: GeometryInstance, p) -> TensorValue:
    return _tv(bundle(g, p), "dux_tensor", 3)
