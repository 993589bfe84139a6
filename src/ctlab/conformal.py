"""Conformal rescaling and the closed-form transformation laws.

``rescale`` builds the pointwise-rescaled geometry directly at the
expression level (metric entries multiplied by ``exp(2u)``), giving a
*direct* route: any curvature quantity can simply be recomputed in the new
metric.  The law registry below implements the *predicted* route: each
quantity of the rescaled metric written in closed form purely in terms of
base-metric data.  Agreement of the two routes at sample points is the
entire reason this module exists; because jets differentiate exactly, any
transcription or derivation error shows up as a fat residual, not as noise.

Conventions: both routes are compared in orthonormal-coframe components
(the rescaled frame is ``e^u`` times the base one, which the Cholesky
vielbein reproduces exactly), and each law carries the power ``k`` in
``e^{k u} * (rescaled quantity) = formula(base quantities)``.

Each law is an :class:`~ctlab.identities.IdentityRecord` of family ``LAW``;
``verify_transform`` runs them through the one driver,
:func:`ctlab.identities.verify`, against the pair's rescaled geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .curvature import skew_on
from .exprlang import GeometrySpec
from .geometry import GeometryInstance
from .identities import EvalContext, IdentityRecord, verify


@dataclass
class ConformalPair:
    """A base geometry, the rescaling exponent u, and the rescaled geometry."""

    base: GeometryInstance
    u_text: str
    tilde: GeometryInstance


def _rescaled_spec(spec: GeometrySpec, u_text: str) -> GeometrySpec:
    entries = [
        [f"exp(2*({u_text}))*({e})" if e != "0" else "0" for e in row]
        for row in spec.metric
    ]
    return replace(spec, name=spec.name + "~", metric=entries, u=None)


def rescale(geometry: GeometryInstance, u_text: str | None = None) -> ConformalPair:
    """Build the conformal pair for ``u_text`` (defaults to the geometry's
    own u field).  The base side always carries u as its u field so that
    predictions can differentiate it."""
    spec = geometry.spec
    if u_text is None:
        u_text = spec.u
    if u_text is None:
        raise ValueError(f"geometry {geometry.name!r} has no u field to rescale by")
    if spec.u == u_text:
        base = geometry
    else:
        base = GeometryInstance(replace(spec, u=u_text), geometry.config)
    tilde = GeometryInstance(_rescaled_spec(base.spec, u_text), geometry.config)
    return ConformalPair(base, u_text, tilde)


def _d_form1(f1, ric, s, m):
    eye = np.eye(len(f1))
    fr = np.einsum("t,tk->k", f1, ric)
    return (skew_on(f1, ric) / (m - 2) + skew_on(fr, eye) / ((m - 1) * (m - 2))
            - s * skew_on(f1, eye) / ((m - 1) * (m - 2)))


def _duf_correction(c: EvalContext):
    """The u-correction added to the plain gradient-soliton 3-tensor in the
    transformation law of D (and shared by its reverse form)."""
    m, I = c.m, c.I
    e = np.einsum
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    f1 = c.b.on("f", 1)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    fu = float(f1 @ u1)
    fu2 = f1 @ u2
    out = e("i,k,j->ijk", u1, f1, u1) - e("i,j,k->ijk", u1, f1, u1)
    out += e("j,ik->ijk", f1, u2) - e("k,ij->ijk", f1, u2)
    sk_f, sk_u, sk_fu2 = skew_on(f1, I), skew_on(u1, I), skew_on(fu2, I)
    out += (lap_u * sk_f - sk_fu2 + fu * sk_u - gu2 * sk_f) / (m - 1)
    return out


# ---------------------------------------------------------------------------
# law evaluators (law_<id>): return (e^{ku} * rescaled, base formula)
# ---------------------------------------------------------------------------

def law_riemann04(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    p = u2 - np.outer(u1, u1)
    gu2 = float(u1 @ u1)
    rhs = c.b.on("riemann")
    rhs = rhs + e("jk,it->ijkt", p, I) - e("jt,ik->ijkt", p, I)
    rhs = rhs - e("ik,jt->ijkt", p, I) + e("it,jk->ijkt", p, I)
    rhs = rhs - gu2 * (e("ik,jt->ijkt", I, I) - e("it,jk->ijkt", I, I))
    return c.e(2) * c.t.on("riemann"), rhs


def law_ricci(c: EvalContext):
    m, I = c.m, c.I
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    gu2 = float(u1 @ u1)
    rhs = (c.b.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
           - np.trace(u2) * I - (m - 2) * gu2 * I)
    return c.e(2) * c.t.on("ricci"), rhs


def law_scalar(c: EvalContext):
    m = c.m
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    rhs = (c.b.on("scalar") - 2 * (m - 1) * np.trace(u2)
           - (m - 1) * (m - 2) * float(u1 @ u1))
    return c.e(2) * c.t.on("scalar"), rhs


def law_nabla_ricci(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    ric, r1 = c.b.on("ricci"), c.b.on("ricci", 1)
    u1, u2, u3 = c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    uttk = e("ttk->k", u3)
    rhs = r1 - (m - 2) * u3 - e("k,ij->ijk", uttk - 2 * lap_u * u1, I)
    rhs -= (2 * e("ij,k->ijk", ric, u1) + e("i,jk->ijk", u1, ric)
            + e("j,ik->ijk", u1, ric))
    ur = u1 @ ric
    rhs += e("i,jk->ijk", ur, I) + e("j,ik->ijk", ur, I)
    rhs += 2 * (m - 2) * (e("i,jk->ijk", u1, u2) + e("j,ik->ijk", u1, u2)
                          + e("k,ij->ijk", u1, u2))
    uu2 = u1 @ u2
    rhs -= (m - 2) * (e("i,jk->ijk", uu2, I) + e("j,ik->ijk", uu2, I)
                      + 2 * e("k,ij->ijk", uu2, I))
    rhs -= 4 * (m - 2) * e("i,j,k->ijk", u1, u1, u1)
    rhs += (m - 2) * gu2 * (e("i,jk->ijk", u1, I) + e("j,ik->ijk", u1, I)
                            + 2 * e("k,ij->ijk", u1, I))
    return c.e(3) * c.t.on("ricci", 1), rhs


def law_nabla2_ricci(c: EvalContext):
    """Second covariant derivative of the Ricci tensor, transcribed line by
    line from its closed form."""
    m, I = c.m, c.I
    e = np.einsum
    ric, r1, r2 = c.b.on("ricci"), c.b.on("ricci", 1), c.b.on("ricci", 2)
    u1, u2, u3, u4 = (c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3),
                      c.b.on("u", 4))
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    grad_lap = e("ssk->k", u3)          # (d of trace Hess u)_k
    uu2 = u1 @ u2                        # u_l u_lt
    uu3 = e("l,lkt->kt", u1, u3)         # u_l u_lkt
    u2u2 = u2 @ u2                       # u_kl u_lt
    ric_uu = float(e("ab,a,b->", ric, u1, u1))
    hess_uu = float(e("ab,a,b->", u2, u1, u1))

    rhs = r2 - (m - 2) * u4
    rhs -= e("kt,ij->ijkt", e("sskt->kt", u4), I)
    rhs += 3 * (e("t,k,ij->ijkt", u1, grad_lap, I)
                + e("k,t,ij->ijkt", u1, grad_lap, I))
    rhs -= float(u1 @ grad_lap) * e("ij,kt->ijkt", I, I)
    rhs += 2 * lap_u * e("kt,ij->ijkt", u2 - 4 * np.outer(u1, u1) + gu2 * I, I)
    ur1 = e("l,lit->it", u1, r1)         # u_l R_li,t
    rhs += (e("it,jk->ijkt", ur1, I) + e("jt,ik->ijkt", ur1, I)
            + e("ik,jt->ijkt", ur1, I) + e("jk,it->ijkt", ur1, I))
    rhs += e("l,ijl,kt->ijkt", u1, r1, I)
    ru2 = ric @ u2                       # R_il u_lt
    rhs += e("it,jk->ijkt", ru2, I) + e("jt,ik->ijkt", ru2, I)
    rhs -= (e("i,jkt->ijkt", u1, r1) + e("j,ikt->ijkt", u1, r1)
            + e("i,jtk->ijkt", u1, r1) + e("j,itk->ijkt", u1, r1)
            + 3 * e("k,ijt->ijkt", u1, r1) + 3 * e("t,ijk->ijkt", u1, r1))
    rhs -= (e("it,jk->ijkt", u2, ric) + e("jt,ik->ijkt", u2, ric)
            + 2 * e("kt,ij->ijkt", u2, ric))
    rhs += (m - 2) * (2 * e("i,jkt->ijkt", u1, u3) + e("i,jtk->ijkt", u1, u3)
                      + 2 * e("j,ikt->ijkt", u1, u3) + e("j,itk->ijkt", u1, u3)
                      + 3 * e("k,ijt->ijkt", u1, u3) + 3 * e("t,ijk->ijkt", u1, u3))
    rhs += 2 * (m - 2) * (e("ij,kt->ijkt", u2, u2) + e("ik,jt->ijkt", u2, u2)
                          + e("jk,it->ijkt", u2, u2))
    rhs -= (m - 2) * (2 * e("kt,ij->ijkt", uu3, I) + e("jt,ik->ijkt", uu3, I)
                      + e("it,jk->ijkt", uu3, I))
    rhs -= (m - 2) * (2 * e("kt,ij->ijkt", u2u2, I) + e("jt,ik->ijkt", u2u2, I)
                      + e("it,jk->ijkt", u2u2, I))
    ru = ric @ u1                        # R_tl u_l
    rhs -= (e("t,i,jk->ijkt", ru, u1, I) + e("t,j,ik->ijkt", ru, u1, I)
            + 3 * e("i,t,jk->ijkt", ru, u1, I) + 3 * e("j,t,ik->ijkt", ru, u1, I))
    rhs += ric_uu * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I))
    rhs += 4 * (e("i,t,jk->ijkt", u1, u1, ric) + e("j,t,ik->ijkt", u1, u1, ric)
                + 2 * e("k,t,ij->ijkt", u1, u1, ric))
    rhs += (2 * e("i,j,kt->ijkt", u1, u1, ric) + 3 * e("i,k,jt->ijkt", u1, u1, ric)
            + 3 * e("j,k,it->ijkt", u1, u1, ric))
    rhs -= 8 * (m - 2) * (
        e("i,j,tk->ijkt", u1, u1, u2) + e("i,k,jt->ijkt", u1, u1, u2)
        + e("j,k,it->ijkt", u1, u1, u2) + e("i,t,jk->ijkt", u1, u1, u2)
        + e("j,t,ik->ijkt", u1, u1, u2) + e("k,t,ij->ijkt", u1, u1, u2))
    rhs -= (m - 2) * (e("jk,it->ijkt", uu3, I) + e("ik,jt->ijkt", uu3, I)
                      + e("l,ijl,kt->ijkt", u1, u3, I))
    rhs -= gu2 * (e("jk,it->ijkt", ric, I) + e("ik,jt->ijkt", ric, I)
                  + 2 * e("ij,kt->ijkt", ric, I))
    rhs -= (e("j,k,it->ijkt", u1, ru, I) + e("i,k,jt->ijkt", u1, ru, I)
            + e("i,j,kt->ijkt", u1, ru, I) + e("j,i,kt->ijkt", u1, ru, I)
            + 2 * e("k,j,it->ijkt", u1, ru, I) + 2 * e("k,i,jt->ijkt", u1, ru, I))
    # the printed source duplicates the first triple here; consistency with
    # the Schouten analogue and the trace relation forces the second triple
    # to be the mirrored family u_l u_t u_l{i,j,k} (verified numerically)
    rhs += 3 * (m - 2) * (
        e("i,t,jk->ijkt", u1, uu2, I) + e("j,t,ik->ijkt", u1, uu2, I)
        + 2 * e("k,t,ij->ijkt", u1, uu2, I) + e("i,t,jk->ijkt", uu2, u1, I)
        + e("j,t,ik->ijkt", uu2, u1, I) + 2 * e("k,t,ij->ijkt", uu2, u1, I))
    rhs += 2 * (m - 2) * (
        e("i,k,jt->ijkt", u1, uu2, I) + e("j,k,it->ijkt", u1, uu2, I)
        + e("i,j,kt->ijkt", u1, uu2, I) + e("j,i,kt->ijkt", u1, uu2, I)
        + e("k,i,jt->ijkt", u1, uu2, I) + e("k,j,it->ijkt", u1, uu2, I))
    rhs += (m - 2) * gu2 * (
        e("it,jk->ijkt", u2, I) + e("jt,ik->ijkt", u2, I)
        + 2 * e("kt,ij->ijkt", u2, I) + 2 * e("ij,kt->ijkt", u2, I)
        + 2 * e("ik,jt->ijkt", u2, I) + 2 * e("jk,it->ijkt", u2, I))
    rhs -= (m - 2) * hess_uu * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I)
                                + 2 * e("ij,kt->ijkt", I, I))
    rhs += 24 * (m - 2) * e("i,j,k,t->ijkt", u1, u1, u1, u1)
    rhs -= 4 * (m - 2) * gu2 * (
        e("j,k,it->ijkt", u1, u1, I) + e("i,k,jt->ijkt", u1, u1, I)
        + e("i,j,kt->ijkt", u1, u1, I) + e("i,t,jk->ijkt", u1, u1, I)
        + e("j,t,ik->ijkt", u1, u1, I) + 2 * e("k,t,ij->ijkt", u1, u1, I))
    rhs += (m - 2) * gu2 * gu2 * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I)
                                  + 2 * e("ij,kt->ijkt", I, I))
    return c.e(4) * c.t.on("ricci", 2), rhs


def law_nabla_scalar(c: EvalContext):
    m = c.m
    e = np.einsum
    u1, u2, u3 = c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3)
    s, s1 = c.b.on("scalar"), c.b.on("scalar", 1)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    rhs = (s1 - 2 * (m - 1) * e("ttk->k", u3) - 2 * (m - 1) * (m - 2) * (u1 @ u2)
           - 2 * (s - 2 * (m - 1) * lap_u - (m - 1) * (m - 2) * gu2) * u1)
    return c.e(3) * c.t.on("scalar", 1), rhs


def law_hess_scalar(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    u1, u2, u3, u4 = (c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3),
                      c.b.on("u", 4))
    s, s1, s2 = c.b.on("scalar"), c.b.on("scalar", 1), c.b.on("scalar", 2)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    grad_lap = e("ssk->k", u3)
    uu2 = u1 @ u2
    rhs = s2 - 2 * (m - 1) * e("sskt->kt", u4) - 2 * (m - 1) * (m - 2) * (u2 @ u2)
    rhs -= 2 * (m - 1) * (m - 2) * e("s,skt->kt", u1, u3)
    rhs += 6 * (m - 1) * (np.outer(grad_lap, u1).T + np.outer(grad_lap, u1))
    rhs += 6 * (m - 1) * (m - 2) * (np.outer(uu2, u1) + np.outer(u1, uu2))
    rhs -= 3 * (np.outer(u1, s1) + np.outer(s1, u1))
    rhs -= (2 * (s - 2 * (m - 1) * lap_u - (m - 1) * (m - 2) * gu2)
            * (u2 - 4 * np.outer(u1, u1) + gu2 * I))
    rhs += (float(s1 @ u1) - 2 * (m - 1) * float(u1 @ grad_lap)
            - 2 * (m - 1) * (m - 2) * float(e("ab,a,b->", u2, u1, u1))) * I
    return c.e(4) * c.t.on("scalar", 2), rhs


def law_lap_scalar(c: EvalContext):
    m = c.m
    e = np.einsum
    u1, u2, u3, u4 = (c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3),
                      c.b.on("u", 4))
    s, s1, s2 = c.b.on("scalar"), c.b.on("scalar", 1), c.b.on("scalar", 2)
    ric = c.b.on("ricci")
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    rhs = (float(np.trace(s2)) - 2 * (m - 1) * float(e("sskk->", u4))
           - 2 * (m - 1) * (m - 2) * float(e("ab,ab->", u2, u2))
           - 2 * (m - 1) * (m - 2) * float(e("ab,a,b->", ric, u1, u1))
           - 4 * (m - 1) * (m - 4) * float(u1 @ e("ssk->k", u3))
           - 2 * (m - 1) * (m - 2) * (m - 6) * float(e("ab,a,b->", u2, u1, u1))
           + (m - 6) * float(s1 @ u1) - 2 * s * lap_u + 4 * (m - 1) * lap_u ** 2
           + 2 * (m - 1) * (3 * m - 10) * gu2 * lap_u
           + 2 * (m - 1) * (m - 2) * (m - 4) * gu2 ** 2 - 2 * (m - 4) * s * gu2)
    return c.e(4) * float(np.trace(c.t.on("scalar", 2))), rhs


def law_hessian_f(c: EvalContext):
    u1, f1, f2 = c.b.on("u", 1), c.b.on("f", 1), c.b.on("f", 2)
    rhs = f2 - (np.outer(f1, u1) + np.outer(u1, f1)) + float(f1 @ u1) * c.I
    return c.e(2) * c.t.on("f", 2), rhs


def law_laplacian_f(c: EvalContext):
    m = c.m
    u1, f1, f2 = c.b.on("u", 1), c.b.on("f", 1), c.b.on("f", 2)
    rhs = float(np.trace(f2)) + (m - 2) * float(f1 @ u1)
    return c.e(2) * float(np.trace(c.t.on("f", 2))), rhs


def law_third_f(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    f1, f2, f3 = c.b.on("f", 1), c.b.on("f", 2), c.b.on("f", 3)
    gu2 = float(u1 @ u1)
    fu = float(f1 @ u1)
    rhs = f3 - 2 * (e("ij,k->ijk", f2, u1) + e("ik,j->ijk", f2, u1)
                    + e("jk,i->ijk", f2, u1))
    rhs -= e("i,jk->ijk", f1, u2) + e("j,ik->ijk", f1, u2)
    rhs += 3 * (e("i,j,k->ijk", f1, u1, u1) + e("j,i,k->ijk", f1, u1, u1))
    rhs += 2 * e("i,j,k->ijk", u1, u1, f1)
    uf2 = u1 @ f2
    rhs += (e("k,ij->ijk", uf2, I) + e("j,ik->ijk", uf2, I)
            + e("i,jk->ijk", uf2, I))
    rhs += e("k,ij->ijk", f1 @ u2, I)
    rhs -= fu * (e("i,jk->ijk", u1, I) + e("j,ik->ijk", u1, I)
                 + 2 * e("k,ij->ijk", u1, I))
    rhs -= gu2 * (e("i,jk->ijk", f1, I) + e("j,ik->ijk", f1, I))
    return c.e(3) * c.t.on("f", 3), rhs


def law_third_f_traced(c: EvalContext):
    m = c.m
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    f1, f2, f3 = c.b.on("f", 1), c.b.on("f", 2), c.b.on("f", 3)
    rhs = (np.einsum("ttk->k", f3) - 2 * np.trace(f2) * u1
           + (m - 2) * (f1 @ u2 + u1 @ f2 - 2 * float(f1 @ u1) * u1))
    return c.e(3) * np.einsum("ttk->k", c.t.on("f", 3)), rhs


def law_schouten(c: EvalContext):
    m, I = c.m, c.I
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    rhs = (c.b.on("schouten") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
           - 0.5 * (m - 2) * float(u1 @ u1) * I)
    return c.e(2) * c.t.on("schouten"), rhs


def law_nabla_schouten(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    a, a1 = c.b.on("schouten"), c.b.on("schouten", 1)
    u1, u2, u3 = c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3)
    gu2 = float(u1 @ u1)
    ua = u1 @ a
    rhs = a1 - (m - 2) * u3
    rhs += e("i,jk->ijk", ua, I) + e("j,ik->ijk", ua, I)
    rhs -= (e("i,jk->ijk", u1, a) + e("j,ik->ijk", u1, a)
            + 2 * e("k,ij->ijk", u1, a))
    rhs += 2 * (m - 2) * (e("i,jk->ijk", u1, u2) + e("j,ik->ijk", u1, u2)
                          + e("k,ij->ijk", u1, u2))
    uu2 = u1 @ u2
    rhs -= (m - 2) * (e("k,ij->ijk", uu2, I) + e("j,ik->ijk", uu2, I)
                      + e("i,jk->ijk", uu2, I))
    rhs -= 4 * (m - 2) * e("i,j,k->ijk", u1, u1, u1)
    rhs += (m - 2) * gu2 * (e("i,jk->ijk", u1, I) + e("j,ik->ijk", u1, I)
                            + e("k,ij->ijk", u1, I))
    return c.e(3) * c.t.on("schouten", 1), rhs


def law_nabla2_schouten(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    a, a1, a2 = (c.b.on("schouten"), c.b.on("schouten", 1),
                 c.b.on("schouten", 2))
    u1, u2, u3, u4 = (c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3),
                      c.b.on("u", 4))
    gu2 = float(u1 @ u1)
    uu2 = u1 @ u2
    uu3 = e("l,lkt->kt", u1, u3)
    u2u2 = u2 @ u2
    a_uu = float(e("ab,a,b->", a, u1, u1))
    hess_uu = float(e("ab,a,b->", u2, u1, u1))

    rhs = a2 - (m - 2) * u4
    ua1 = e("l,lit->it", u1, a1)
    rhs += (e("it,jk->ijkt", ua1, I) + e("jt,ik->ijkt", ua1, I)
            + e("ik,jt->ijkt", ua1, I) + e("jk,it->ijkt", ua1, I))
    rhs += e("l,ijl,kt->ijkt", u1, a1, I)
    au2 = a @ u2
    rhs += e("it,jk->ijkt", au2, I) + e("jt,ik->ijkt", au2, I)
    rhs -= (e("i,jkt->ijkt", u1, a1) + e("j,ikt->ijkt", u1, a1)
            + e("i,jtk->ijkt", u1, a1) + e("j,itk->ijkt", u1, a1)
            + 3 * e("k,ijt->ijkt", u1, a1) + 3 * e("t,ijk->ijkt", u1, a1))
    rhs -= (e("it,jk->ijkt", u2, a) + e("jt,ik->ijkt", u2, a)
            + 2 * e("kt,ij->ijkt", u2, a))
    rhs += (m - 2) * (2 * e("i,jkt->ijkt", u1, u3) + e("i,jtk->ijkt", u1, u3)
                      + 2 * e("j,ikt->ijkt", u1, u3) + e("j,itk->ijkt", u1, u3)
                      + 3 * e("k,ijt->ijkt", u1, u3) + 3 * e("t,ijk->ijkt", u1, u3))
    rhs += 2 * (m - 2) * (e("ij,kt->ijkt", u2, u2) + e("ik,jt->ijkt", u2, u2)
                          + e("jk,it->ijkt", u2, u2))
    rhs -= (m - 2) * (e("kt,ij->ijkt", uu3, I) + e("jt,ik->ijkt", uu3, I)
                      + e("it,jk->ijkt", uu3, I))
    rhs -= (m - 2) * (e("kt,ij->ijkt", u2u2, I) + e("jt,ik->ijkt", u2u2, I)
                      + e("it,jk->ijkt", u2u2, I))
    au = a @ u1
    rhs -= (e("t,i,jk->ijkt", au, u1, I) + e("t,j,ik->ijkt", au, u1, I)
            + 3 * e("i,t,jk->ijkt", au, u1, I) + 3 * e("j,t,ik->ijkt", au, u1, I))
    rhs += a_uu * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I))
    rhs += 4 * (e("i,t,jk->ijkt", u1, u1, a) + e("j,t,ik->ijkt", u1, u1, a)
                + 2 * e("k,t,ij->ijkt", u1, u1, a))
    rhs += (2 * e("i,j,kt->ijkt", u1, u1, a) + 3 * e("i,k,jt->ijkt", u1, u1, a)
            + 3 * e("j,k,it->ijkt", u1, u1, a))
    rhs -= 8 * (m - 2) * (
        e("i,j,tk->ijkt", u1, u1, u2) + e("i,k,jt->ijkt", u1, u1, u2)
        + e("j,k,it->ijkt", u1, u1, u2) + e("i,t,jk->ijkt", u1, u1, u2)
        + e("j,t,ik->ijkt", u1, u1, u2) + e("k,t,ij->ijkt", u1, u1, u2))
    rhs -= (m - 2) * (e("jk,it->ijkt", uu3, I) + e("ik,jt->ijkt", uu3, I)
                      + e("l,ijl,kt->ijkt", u1, u3, I))
    rhs -= gu2 * (e("jk,it->ijkt", a, I) + e("ik,jt->ijkt", a, I)
                  + 2 * e("ij,kt->ijkt", a, I))
    rhs -= (e("j,k,it->ijkt", u1, au, I) + e("i,k,jt->ijkt", u1, au, I)
            + e("i,j,kt->ijkt", u1, au, I) + e("j,i,kt->ijkt", u1, au, I)
            + 2 * e("k,j,it->ijkt", u1, au, I) + 2 * e("k,i,jt->ijkt", u1, au, I))
    rhs += (m - 2) * (
        3 * e("i,t,jk->ijkt", u1, uu2, I) + 3 * e("j,t,ik->ijkt", u1, uu2, I)
        + 3 * e("k,t,ij->ijkt", u1, uu2, I) + 2 * e("i,k,jt->ijkt", u1, uu2, I)
        + 2 * e("i,j,kt->ijkt", u1, uu2, I) + 2 * e("j,k,it->ijkt", u1, uu2, I)
        + 2 * e("k,j,it->ijkt", u1, uu2, I) + 2 * e("j,i,kt->ijkt", u1, uu2, I)
        + 2 * e("k,i,jt->ijkt", u1, uu2, I) + 3 * e("k,t,ij->ijkt", uu2, u1, I)
        + 3 * e("j,t,ik->ijkt", uu2, u1, I) + 3 * e("i,t,jk->ijkt", uu2, u1, I))
    rhs += (m - 2) * gu2 * (
        e("it,jk->ijkt", u2, I) + e("jt,ik->ijkt", u2, I) + e("kt,ij->ijkt", u2, I)
        + 2 * e("ij,kt->ijkt", u2, I) + 2 * e("ik,jt->ijkt", u2, I)
        + 2 * e("jk,it->ijkt", u2, I))
    rhs -= (m - 2) * hess_uu * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I)
                                + e("ij,kt->ijkt", I, I))
    rhs += 24 * (m - 2) * e("i,j,k,t->ijkt", u1, u1, u1, u1)
    rhs -= 4 * (m - 2) * gu2 * (
        e("j,k,it->ijkt", u1, u1, I) + e("i,k,jt->ijkt", u1, u1, I)
        + e("i,j,kt->ijkt", u1, u1, I) + e("i,t,jk->ijkt", u1, u1, I)
        + e("j,t,ik->ijkt", u1, u1, I) + e("k,t,ij->ijkt", u1, u1, I))
    rhs += (m - 2) * gu2 * gu2 * (e("jk,it->ijkt", I, I) + e("ik,jt->ijkt", I, I)
                                  + e("ij,kt->ijkt", I, I))
    return c.e(4) * c.t.on("schouten", 2), rhs


def law_weyl13(c: EvalContext):
    return c.e(2) * c.t.on("weyl"), c.b.on("weyl")


def law_cotton(c: EvalContext):
    m = c.m
    rhs = c.b.on("cotton") - (m - 2) * np.einsum(
        "t,tijk->ijk", c.b.on("u", 1), c.b.on("weyl"))
    return c.e(3) * c.t.on("cotton"), rhs


def law_bach(c: EvalContext):
    m = c.m
    e = np.einsum
    u1 = c.b.on("u", 1)
    w, ct = c.b.on("weyl"), c.b.on("cotton")
    rhs = c.b.on("bach") + (m - 4) * (
        e("t,k,tikj->ij", u1, u1, w)
        + (e("ijt,t->ij", ct, u1) + e("jit,t->ij", ct, u1)) / (m - 2))
    return c.e(4) * c.t.on("bach"), rhs


def law_d_tensor(c: EvalContext):
    m = c.m
    rhs = _d_form1(c.b.on("f", 1), c.b.on("ricci"), c.b.on("scalar"), m)
    rhs = rhs + _duf_correction(c)
    return c.e(3) * c.t.on("d_tensor"), rhs


def law_d_reverse(c: EvalContext):
    """The reverse direction: the gradient-soliton 3-tensor pattern built
    from rescaled ingredients, against base-side data (valid when the BASE
    carries the soliton structure).  Implemented exactly as printed: the
    left side mixes rescaled curvature with the rescaled potential slots."""
    m = c.m
    lhs = c.e(3) * _d_form1(c.t.on("f", 1), c.t.on("ricci"),
                            c.t.on("scalar"), m)
    rhs = c.b.on("d_tensor") + _duf_correction(c)
    return lhs, rhs


def law_nabla_d(c: EvalContext):
    """Covariant derivative of the gradient-soliton 3-tensor, the longest
    law in the registry; output slots [i,j,k,t]."""
    m, I = c.m, c.I
    e = np.einsum
    ric, r1 = c.b.on("ricci"), c.b.on("ricci", 1)
    s, s1 = c.b.on("scalar"), c.b.on("scalar", 1)
    u1, u2, u3 = c.b.on("u", 1), c.b.on("u", 2), c.b.on("u", 3)
    f1, f2 = c.b.on("f", 1), c.b.on("f", 2)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    fu = float(f1 @ u1)
    lam_du = lap_u - gu2

    rhs = (e("kt,ij->ijkt", f2, ric) - e("jt,ik->ijkt", f2, ric)) / (m - 2)
    rhs += (e("k,ijt->ijkt", f1, r1) - e("j,ikt->ijkt", f1, r1)) / (m - 2)
    fr2 = f2.T @ ric                       # f_st R_sk -> [t,k]
    rhs += (e("tk,ij->ijkt", fr2, I) - e("tj,ik->ijkt", fr2, I)) / ((m - 1) * (m - 2))
    fr1 = e("s,skt->kt", f1, r1)           # f_s R_sk,t
    rhs += (e("kt,ij->ijkt", fr1, I) - e("jt,ik->ijkt", fr1, I)) / ((m - 1) * (m - 2))
    rhs -= (e("t,k,ij->ijkt", s1, f1, I) - e("t,j,ik->ijkt", s1, f1, I)) / ((m - 1) * (m - 2))
    rhs -= s * (e("kt,ij->ijkt", f2, I) - e("jt,ik->ijkt", f2, I)) / ((m - 1) * (m - 2))
    rhs += e("ik,jt->ijkt", u2, f2) - e("ij,kt->ijkt", u2, f2)
    rhs += e("ikt,j->ijkt", u3, f1) - e("ijt,k->ijkt", u3, f1)
    rhs += e("i,j,kt->ijkt", u1, u1, f2) - e("i,k,jt->ijkt", u1, u1, f2)
    grad_lap = e("sst->t", u3)
    rhs += (e("t,k,ij->ijkt", grad_lap, f1, I)
            - e("t,j,ik->ijkt", grad_lap, f1, I)) / (m - 1)
    rhs -= 3 * e("ijk,t->ijkt", skew_on(f1, ric), u1) / (m - 2)
    fu3 = e("s,skt->kt", f1, u3)           # f_s u_skt
    rhs -= (e("kt,ij->ijkt", fu3, I) - e("jt,ik->ijkt", fu3, I)) / (m - 1)
    rhs -= e("ijk,t->ijkt", skew_on(u1, ric), f1) / (m - 2)
    rhs += fu * (e("ij,kt->ijkt", ric, I) - e("ik,jt->ijkt", ric, I)) / (m - 2)
    ru = ric @ u1
    rhs += (e("i,k,jt->ijkt", ru, f1, I) - e("i,j,kt->ijkt", ru, f1, I)) / (m - 2)
    rhs += (e("s,it,k,sj->ijkt", u1, I, f1, ric)
            - e("s,it,j,sk->ijkt", u1, I, f1, ric)) / (m - 2)
    rhs += 3 * e("ijk,t->ijkt", skew_on(f1, u2), u1)
    rhs += e("ijk,t->ijkt", skew_on(u1, u2), f1)
    rhs -= fu * (e("ij,kt->ijkt", u2, I) - e("ik,jt->ijkt", u2, I))
    rhs += fu * (e("i,j,kt->ijkt", u1, u1, I) - e("i,k,jt->ijkt", u1, u1, I))
    rhs += lam_du * (e("kt,ij->ijkt", f2, I) - e("jt,ik->ijkt", f2, I)) / (m - 1)
    rhs -= 5 * (e("i,t,j,k->ijkt", u1, u1, u1, f1)
                - e("i,t,k,j->ijkt", u1, u1, u1, f1))
    rhs -= 3 * lam_du * (e("t,k,ij->ijkt", u1, f1, I)
                         - e("t,j,ik->ijkt", u1, f1, I)) / (m - 1)
    rhs -= lam_du * (e("t,k,ij->ijkt", f1, u1, I)
                     - e("t,j,ik->ijkt", f1, u1, I)) / (m - 1)
    rhs += fu * lap_u * (e("ij,kt->ijkt", I, I) - e("ik,jt->ijkt", I, I)) / (m - 1)
    rhs += gu2 * (e("i,k,jt->ijkt", u1, f1, I) - e("i,j,kt->ijkt", u1, f1, I))
    rhs += gu2 * (e("it,j,k->ijkt", I, u1, f1) - e("it,k,j->ijkt", I, u1, f1))
    rhs -= (e("i,k,jt->ijkt", u1, f1, ric) - e("i,j,kt->ijkt", u1, f1, ric)) / (m - 2)
    rhs -= (e("it,j,k->ijkt", ric, u1, f1) - e("it,k,j->ijkt", ric, u1, f1)) / (m - 2)
    rhs += 2 * (e("i,k,jt->ijkt", u1, f1, u2) - e("i,j,kt->ijkt", u1, f1, u2))
    rhs += 2 * (e("it,j,k->ijkt", u2, u1, f1) - e("it,k,j->ijkt", u2, u1, f1))
    uu2 = u1 @ u2
    rhs -= e("i,k,jt->ijkt", uu2, f1, I) - e("i,j,kt->ijkt", uu2, f1, I)
    rhs -= (e("s,it,k,sj->ijkt", u1, I, f1, u2)
            - e("s,it,j,sk->ijkt", u1, I, f1, u2))
    rhs -= 2 * (e("t,k,ij->ijkt", uu2, f1, I)
                - e("t,j,ik->ijkt", uu2, f1, I)) / (m - 1)
    uf2 = f2 @ u2                          # [t,k] = f_ts u_sk = u_ks f_st
    rhs -= (e("tk,ij->ijkt", uf2, I) - e("tj,ik->ijkt", uf2, I)) / (m - 1)
    ufs = u1 @ f2                          # u_s f_st
    rhs += (e("t,k,ij->ijkt", ufs, u1, I) - e("t,j,ik->ijkt", ufs, u1, I)) / (m - 1)
    fr = ric @ f1
    rhs -= 3 * (e("t,k,ij->ijkt", u1, fr, I)
                - e("t,j,ik->ijkt", u1, fr, I)) / ((m - 1) * (m - 2))
    rhs -= (e("t,k,ij->ijkt", fr, u1, I)
            - e("t,j,ik->ijkt", fr, u1, I)) / ((m - 1) * (m - 2))
    fu2 = f1 @ u2                          # f_s u_sk
    rhs += 3 * (e("k,t,ij->ijkt", fu2, u1, I)
                - e("j,t,ik->ijkt", fu2, u1, I)) / (m - 1)
    rhs -= 4 * fu * (e("t,k,ij->ijkt", u1, u1, I)
                     - e("t,j,ik->ijkt", u1, u1, I)) / (m - 1)
    rhs += fu * (e("kt,ij->ijkt", u2, I) - e("jt,ik->ijkt", u2, I)) / (m - 1)
    rhs += 2 * (e("t,k,ij->ijkt", fu2, u1, I)
                - e("t,j,ik->ijkt", fu2, u1, I)) / (m - 1)
    # this Ricci contraction must be linear in the potential (the whole
    # tensor is); the (grad f, grad f) slot pairing in the source fails
    # numerically, (grad u, grad f) closes the law exactly
    ric_uf = float(e("ab,a,b->", ric, u1, f1))
    rhs += ric_uf * (e("kt,ij->ijkt", I, I)
                     - e("jt,ik->ijkt", I, I)) / ((m - 1) * (m - 2))
    hess_uf = float(e("ab,a,b->", u2, u1, f1))
    rhs -= hess_uf * (e("kt,ij->ijkt", I, I) - e("jt,ik->ijkt", I, I)) / (m - 1)
    rhs += 3 * s * (e("t,k,ij->ijkt", u1, f1, I)
                    - e("t,j,ik->ijkt", u1, f1, I)) / ((m - 1) * (m - 2))
    rhs += s * (e("t,k,ij->ijkt", f1, u1, I)
                - e("t,j,ik->ijkt", f1, u1, I)) / ((m - 1) * (m - 2))
    rhs -= fu * s * (e("kt,ij->ijkt", I, I)
                     - e("jt,ik->ijkt", I, I)) / ((m - 1) * (m - 2))
    return c.e(4) * c.t.on("d_tensor", 1), rhs


def law_lie_metric(c: EvalContext):
    xu = float(c.b.on("X") @ c.b.on("u", 1))
    rhs = c.b.on("lie_metric") + 2 * xu * c.I
    return c.t.on("lie_metric"), rhs


def law_nabla_x(c: EvalContext):
    x, x1, u1 = c.b.on("X"), c.b.on("X", 1), c.b.on("u", 1)
    rhs = x1 + np.outer(x, u1) + float(x @ u1) * c.I - np.outer(u1, x)
    return c.t.on("X", 1), rhs


def law_sym_nabla_x(c: EvalContext):
    x, x1, u1 = c.b.on("X"), c.b.on("X", 1), c.b.on("u", 1)
    tx1 = c.t.on("X", 1)
    rhs = x1 + x1.T + 2 * float(x @ u1) * c.I
    return tx1 + tx1.T, rhs


def law_div_x(c: EvalContext):
    rhs = float(np.trace(c.b.on("X", 1))) + c.m * float(
        c.b.on("X") @ c.b.on("u", 1))
    return float(np.trace(c.t.on("X", 1))), rhs


def law_nabla2_x(c: EvalContext):
    m, I = c.m, c.I
    e = np.einsum
    x, x1, x2 = c.b.on("X"), c.b.on("X", 1), c.b.on("X", 2)
    u1, u2 = c.b.on("u", 1), c.b.on("u", 2)
    gu2 = float(u1 @ u1)
    xu = float(x @ u1)
    rhs = x2 + e("i,jk->ijk", x, u2) - e("j,ik->ijk", x, u2)
    rhs -= e("jk,i->ijk", x1 + x1.T, u1)
    rhs -= e("i,j,k->ijk", x, u1, u1) - e("j,i,k->ijk", x, u1, u1)
    rhs += e("k,ij->ijk", x @ u2 + u1 @ x1, I)
    rhs += e("i,jk->ijk", x1 @ u1, I) + e("j,ik->ijk", u1 @ x1, I)
    rhs += xu * (e("j,ik->ijk", u1, I) - e("i,jk->ijk", u1, I))
    rhs += gu2 * (e("i,jk->ijk", x, I) - e("j,ik->ijk", x, I))
    return c.e(1) * c.t.on("X", 2), rhs


def law_nabla2_x_traced(c: EvalContext):
    m = c.m
    x2 = c.b.on("X", 2)
    rhs = np.einsum("ttk->k", x2) + m * (
        c.b.on("X") @ c.b.on("u", 2) + c.b.on("u", 1) @ c.b.on("X", 1))
    return c.e(1) * np.einsum("ttk->k", c.t.on("X", 2)), rhs


def _law(id_, eq, fn, tol_class, requires=(), structure=None, min_dim=3,
         min_order=2):
    return IdentityRecord(id_, "LAW", eq, frozenset(requires), structure,
                          min_dim, min_order, tol_class, None, fn)


LAW_REGISTRY: tuple[IdentityRecord, ...] = (
    _law("riemann04", "Riemannexp", law_riemann04, "A"),
    _law("ricci", "RicciexpComponents", law_ricci, "A"),
    _law("scalar", "scalarExp", law_scalar, "A"),
    _law("nabla_ricci", "NablaRicciexpComponents", law_nabla_ricci, "B",
         min_order=3),
    _law("nabla2_ricci", "ExpochangenablasquaredRicci", law_nabla2_ricci, "B",
         min_order=4),
    _law("nabla_scalar", "NablascalarExp", law_nabla_scalar, "B", min_order=3),
    _law("hess_scalar", "HessianscalarExp", law_hess_scalar, "B", min_order=4),
    _law("lap_scalar", "LaplacianscalarExp", law_lap_scalar, "B", min_order=4),
    _law("hessian_f", "HessianExpComp", law_hessian_f, "A", requires=("f",)),
    _law("laplacian_f", "LaplacianExpComp", law_laplacian_f, "A",
         requires=("f",)),
    _law("third_f", "thirdDerivFunctExpComp", law_third_f, "B",
         requires=("f",), min_order=3),
    _law("third_f_traced", "thirdDerivFunctExpCompTraced", law_third_f_traced,
         "B", requires=("f",), min_order=3),
    _law("schouten", "SchoutenexpComponents", law_schouten, "A"),
    _law("nabla_schouten", "ExpochangenablaSchouten", law_nabla_schouten, "B",
         min_order=3),
    _law("nabla2_schouten", "ExpochangenablasquaredSchouten",
         law_nabla2_schouten, "B", min_order=4),
    _law("weyl13", "Weylexp", law_weyl13, "A"),
    _law("cotton", "Cottonlexp", law_cotton, "B", min_order=3),
    _law("bach", "BachExpComp", law_bach, "B", min_order=4),
    _law("d_tensor", "DExpComp", law_d_tensor, "A", requires=("f", "lam"),
         structure="tilde_gradient_soliton"),
    _law("d_reverse", "DExpCompStartingFrom", law_d_reverse, "A",
         requires=("f", "lam"), structure="base_gradient_soliton"),
    _law("nabla_d", "CovDerivDExpComp", law_nabla_d, "B",
         requires=("f", "lam"), structure="tilde_gradient_soliton",
         min_order=4),
    _law("lie_metric", "eq_conformalchangeLieDeriv", law_lie_metric, "A",
         requires=("X",)),
    _law("nabla_X", "tildeXik", law_nabla_x, "A", requires=("X",)),
    _law("sym_nabla_X", "tildeXiktildeXki", law_sym_nabla_x, "A",
         requires=("X",)),
    _law("div_X", "divergenzatilde", law_div_x, "A", requires=("X",)),
    _law("nabla2_X", "secondCovDerivVFExp", law_nabla2_x, "B",
         requires=("X",), min_order=3),
    _law("nabla2_X_traced", "secondCovDerivVFExpTraced", law_nabla2_x_traced,
         "B", requires=("X",), min_order=3),
)

LAWS = {law.id: law for law in LAW_REGISTRY}


def predict(pair: ConformalPair, law_id: str, point):
    """The law's base-side formula: the rescaled quantity (times its
    prefactor) assembled purely from base-metric data at ``point``."""
    _, rhs = LAWS[law_id].evaluate(EvalContext(pair.base, point, pair.tilde))
    return rhs


def direct(pair: ConformalPair, law_id: str, point):
    """The same quantity by direct recomputation in the rescaled metric,
    multiplied by the law's prefactor; ``predict`` must match this."""
    lhs, _ = LAWS[law_id].evaluate(EvalContext(pair.base, point, pair.tilde))
    return lhs


def select_laws(ids: list[str] | None = None) -> list[IdentityRecord]:
    if not ids:
        return list(LAW_REGISTRY)
    missing = [i for i in ids if i not in LAWS]
    if missing:
        raise KeyError(f"unknown law ids: {missing}")
    return [LAWS[i] for i in ids]


def verify_transform(pair: ConformalPair, laws: list[IdentityRecord],
                     points, tol_overrides: dict[str, float] | None = None):
    """Evaluate predicted-vs-direct agreement for each law at each point;
    one report row per law.  Laws whose structural hypothesis does not hold
    on this pair are reported as skipped."""
    return verify(pair.base, laws, points, tol_overrides,
                  strict_certification=False)
