"""Declarative registry of verifiable tensor identities.

Each :class:`IdentityRecord` names one identity -- a commutation rule, a
Bianchi-type identity, a soliton structure equation, or an integrability
condition -- and carries evaluators that produce its two sides as
orthonormal-frame arrays from a :class:`CurvatureBundle`.  The registry is
data: families can be listed, filtered and dumped, and the verification
driver treats every record uniformly (at each sampled point in turn,
certify the structural hypothesis and evaluate; report the worst
normalised residual, where a NaN residual fails).

Families:

* COMM  -- unconditional commutation rules; hold on any smooth metric.
* SOL   -- gradient/generic soliton relations and integrability conditions.
* CE    -- conformally-Einstein structure equations and conditions.
* CGRS  -- conformal gradient soliton interpolation and conditions.
* GRS   -- generic-soliton (vector field) integrability conditions.
* CGERS -- conformal generic soliton conditions.
* HIGH  -- third and fourth order integrability conditions (dim >= 4).
* LAW   -- the conformal transformation laws, registered in
  :mod:`ctlab.conformal`; they compare the base geometry with its rescaling.

Residuals are scale-normalised: ``max|L-R| / (1 + max(|L|, |R|))``, so an
identity among huge and among tiny tensors is judged by the same yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import CurvatureBundle, bundle
from .geometry import (
    GeometryInstance,
    MetricError,
    TensorValue,
    point_key,
    point_scope,
)
from .report import ReportRow, VerificationReport, geometry_hash, TOOL_VERSION

TOL_CLASS = {"A": 1e-9, "B": 1e-7, "C": 1e-5}
CERTIFICATION_TOL = 1e-9


class CertificationError(ValueError):
    """A requested structural hypothesis failed its defining residual."""


def residual(lhs, rhs) -> float:
    l = np.asarray(lhs, float)
    r = np.asarray(rhs, float)
    num = float(np.max(np.abs(l - r))) if l.size else 0.0
    den = 1.0 + max(float(np.max(np.abs(l))) if l.size else 0.0,
                    float(np.max(np.abs(r))) if r.size else 0.0)
    return num / den


def worst_of(a: float, b: float) -> float:
    """The larger residual, NaN if either is NaN.  Python's ``max`` keeps
    its first argument when a comparison with NaN is false, so it would
    drop a NaN that comes second and let a broken point pass."""
    return float(np.maximum(a, b))


# ---------------------------------------------------------------------------
# evaluation context
# ---------------------------------------------------------------------------

class EvalContext:
    """Point-local view handed to record evaluators: the bundle ``b`` of
    the geometry, the structure constant, and the bundle ``t`` of the
    rescaled geometry ``tilde`` when one is given."""

    def __init__(self, geometry: GeometryInstance, point,
                 tilde: GeometryInstance | None = None):
        self.geometry = geometry
        self.tilde = tilde
        self.b: CurvatureBundle = bundle(geometry, point)
        self.point = point_key(point)
        self.m = geometry.dim
        self.I = np.eye(self.m)
        self.I.setflags(write=False)  # one context serves every record at a point
        self.lam = geometry.spec.lam

    def on(self, name: str, d: int = 0):
        return self.b.on(name, d)

    def e(self, k: float) -> float:
        return self.b.scalar_exp(k)

    @property
    def t(self) -> CurvatureBundle:
        if self.tilde is None:
            raise MetricError(
                f"no rescaled geometry given for {self.geometry.name!r}")
        return bundle(self.tilde, self.point)


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    family: str
    eq: str
    requires: frozenset[str]       # subset of {"f", "X", "u", "lam"}
    structure: str | None          # certified hypothesis, if conditional
    min_dim: int
    min_order: int
    tol_class: str
    tol: float | None              # explicit override of the class default
    evaluate: Callable[[EvalContext], tuple]

    def tolerance(self, overrides: dict[str, float] | None = None) -> float:
        if self.tol is not None:
            return self.tol
        if overrides and self.tol_class in overrides:
            return overrides[self.tol_class]
        return TOL_CLASS[self.tol_class]


def _cyc_last3(t4: np.ndarray) -> np.ndarray:
    """T_ijk,t + T_ikt,j + T_itj,k for a [i,j,k,deriv] array: the summed
    cyclic permutation over the last three slots."""
    return t4 + t4.transpose(0, 3, 1, 2) + t4.transpose(0, 2, 3, 1)


# ---------------------------------------------------------------------------
# structure (hypothesis) residuals
# ---------------------------------------------------------------------------

def _einstein_res(c: EvalContext, lam: float):
    return residual(c.on("ricci"), lam * c.I)


def _gradient_res(c: EvalContext, lam: float):
    return residual(c.on("ricci") + c.on("f", 2), lam * c.I)


def _generic_res(c: EvalContext, lam: float):
    x1 = c.on("X", 1)
    return residual(c.on("ricci") + 0.5 * (x1 + x1.T), lam * c.I)


def _ce_res(c: EvalContext, lam: float):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    s = c.on("scalar")
    gu2, lap_u = float(u1 @ u1), float(np.trace(u2))
    lhs = c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
    rhs = (s - (m - 2) * lap_u + (m - 2) * gu2) / m * I
    traced = s - 2 * (m - 1) * lap_u - (m - 1) * (m - 2) * gu2
    return worst_of(residual(lhs, rhs), residual(traced, lam * m * c.e(2)))


def _cgrs_res(c: EvalContext, lam: float):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    s = c.on("scalar")
    gu2, lap_u = float(u1 @ u1), float(np.trace(u2))
    lap_f, fu = float(np.trace(f2)), float(f1 @ u1)
    lhs = (c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1) + f2
           - (np.outer(f1, u1) + np.outer(u1, f1)))
    rhs = (s - (m - 2) * (lap_u - gu2) + lap_f - 2 * fu) / m * I
    traced = (s - 2 * (m - 1) * lap_u - (m - 1) * (m - 2) * gu2 + lap_f
              + (m - 2) * fu)
    return worst_of(residual(lhs, rhs), residual(traced, lam * m * c.e(2)))


def _cgers_res(c: EvalContext, lam: float):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    x1 = c.on("X", 1)
    s = c.on("scalar")
    e2u = c.e(2)
    gu2, lap_u = float(u1 @ u1), float(np.trace(u2))
    div_x = float(np.trace(x1))
    xu = float(c.on("X") @ u1)
    lhs = (c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
           + 0.5 * e2u * (x1 + x1.T))
    rhs = (s - (m - 2) * (lap_u - gu2) + e2u * div_x) / m * I
    traced = (s - 2 * (m - 1) * lap_u - (m - 1) * (m - 2) * gu2
              + e2u * (div_x + m * xu))
    return worst_of(residual(lhs, rhs), residual(traced, lam * m * e2u))


_STRUCTURES = {
    "einstein": (_einstein_res, ()),
    "gradient_soliton": (_gradient_res, ("f",)),
    "generic_soliton": (_generic_res, ("X",)),
    "conformally_einstein": (_ce_res, ("u",)),
    "conformal_gradient_soliton": (_cgrs_res, ("u", "f")),
    "conformal_generic_soliton": (_cgers_res, ("u", "X")),
    # aliases used by the transformation-law registry
    "base_gradient_soliton": (_gradient_res, ("f",)),
    "tilde_gradient_soliton": (_cgrs_res, ("u", "f")),
}


def structure_residual(geometry: GeometryInstance, kind: str, point,
                       lam: float) -> float:
    """Normalised residual of the defining equation of ``kind`` at a point."""
    if kind not in _STRUCTURES:
        raise KeyError(f"unknown structure kind {kind!r}")
    fn, _needs = _STRUCTURES[kind]
    return fn(EvalContext(geometry, point), lam)


@dataclass(frozen=True)
class SolitonData:
    """A soliton structure: the constant, exactly one generating field, and
    an optional conformal exponent."""

    lam: float
    flavor: str                   # "gradient" | "generic"
    conformal: bool = False

    def kind(self) -> str:
        if self.flavor not in ("gradient", "generic"):
            raise ValueError(f"unknown soliton flavor {self.flavor!r}")
        return ("conformal_" if self.conformal else "") + {
            "gradient": "gradient_soliton", "generic": "generic_soliton"
        }[self.flavor]


def soliton_residual(geometry: GeometryInstance, soliton: SolitonData,
                     point) -> TensorValue:
    """LHS - RHS of the defining soliton equation as an orthonormal (0,2)
    tensor; the scalar certification uses its max together with the traced
    constraint."""
    c = EvalContext(geometry, point)
    m, I = c.m, c.I
    lam = soliton.lam
    if not soliton.conformal:
        if soliton.flavor == "gradient":
            comp = c.on("ricci") + c.on("f", 2) - lam * I
        else:
            x1 = c.on("X", 1)
            comp = c.on("ricci") + 0.5 * (x1 + x1.T) - lam * I
    else:
        u1, u2 = c.on("u", 1), c.on("u", 2)
        s = c.on("scalar")
        gu2, lap_u = float(u1 @ u1), float(np.trace(u2))
        base = c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
        if soliton.flavor == "gradient":
            f1, f2 = c.on("f", 1), c.on("f", 2)
            lhs = base + f2 - (np.outer(f1, u1) + np.outer(u1, f1))
            tr = (s - (m - 2) * (lap_u - gu2) + float(np.trace(f2))
                  - 2 * float(f1 @ u1))
        else:
            x1 = c.on("X", 1)
            lhs = base + 0.5 * c.e(2) * (x1 + x1.T)
            tr = (s - (m - 2) * (lap_u - gu2) + c.e(2) * float(np.trace(x1)))
        comp = lhs - tr / m * I
    return TensorValue(comp, c.point, "orthonormal", 2)


# ---------------------------------------------------------------------------
# COMM family
# ---------------------------------------------------------------------------

def comm_hess_sym(c):
    f2 = c.on("f", 2)
    return f2, f2.T


def comm_third_first_pair(c):
    f3 = c.on("f", 3)
    return f3, f3.transpose(1, 0, 2)


def comm_third_riemann(c):
    f3 = c.on("f", 3)
    rhs = f3.transpose(0, 2, 1) + np.einsum("t,tijk->ijk", c.on("f", 1),
                                            c.on("riemann"))
    return f3, rhs


def comm_third_weyl(c):
    m, I = c.m, c.I
    e = np.einsum
    f1, f3 = c.on("f", 1), c.on("f", 3)
    ric, s, w = c.on("ricci"), c.on("scalar"), c.on("weyl")
    fr = f1 @ ric
    rhs = f3.transpose(0, 2, 1) + e("t,tijk->ijk", f1, w)
    rhs += (e("j,ik->ijk", fr, I) - e("k,ij->ijk", fr, I)
            + e("j,ik->ijk", f1, ric) - e("k,ij->ijk", f1, ric)) / (m - 2)
    rhs -= s * (e("j,ik->ijk", f1, I) - e("k,ij->ijk", f1, I)) / ((m - 1) * (m - 2))
    return f3, rhs


def comm_third_weyl_schouten(c):
    m, I = c.m, c.I
    e = np.einsum
    f1, f3 = c.on("f", 1), c.on("f", 3)
    a, w = c.on("schouten"), c.on("weyl")
    fa = f1 @ a
    rhs = f3.transpose(0, 2, 1) + e("t,tijk->ijk", f1, w)
    rhs += (e("j,ik->ijk", fa, I) - e("k,ij->ijk", fa, I)
            + e("j,ik->ijk", f1, a) - e("k,ij->ijk", f1, a)) / (m - 2)
    return f3, rhs


def comm_fourth_last_pair(c):
    e = np.einsum
    f2, f4 = c.on("f", 2), c.on("f", 4)
    r4 = c.on("riemann")
    rhs = (f4.transpose(0, 1, 3, 2) + e("il,ljkt->ijkt", f2, r4)
           + e("jl,likt->ijkt", f2, r4))
    return f4, rhs


def comm_fourth_23(c):
    e = np.einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    rhs = (f4.transpose(0, 2, 1, 3) + e("st,sijk->ijkt", f2, c.on("riemann"))
           + e("s,sijkt->ijkt", f1, c.on("riemann", 1)))
    return f4, rhs


def comm_fourth_12_34(c):
    e = np.einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    r4, r41 = c.on("riemann"), c.on("riemann", 1)
    rhs = f4.transpose(2, 3, 0, 1).copy()
    rhs += (e("is,skjt->ijkt", f2, r4) + e("js,skit->ijkt", f2, r4)
            + e("ks,sijt->ijkt", f2, r4) + e("ts,sijk->ijkt", f2, r4))
    rhs += e("s,sijkt->ijkt", f1, r41) - e("s,sktij->ijkt", f1, r41)
    return f4, rhs


def comm_traced_third(c):
    f1, f3 = c.on("f", 1), c.on("f", 3)
    lhs = np.einsum("itt->i", f3)
    rhs = np.einsum("tti->i", f3) + f1 @ c.on("ricci")
    return lhs, rhs


def comm_traced_fourth(c):
    e = np.einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    ric, r1, r4 = c.on("ricci"), c.on("ricci", 1), c.on("riemann")
    lhs = e("ijtt->ij", f4)
    rhs = e("ttij->ij", f4) + f2 @ ric + (f2 @ ric).T
    rhs -= 2 * e("st,isjt->ij", f2, r4)
    rhs += e("t,tji->ij", f1, r1) + e("t,tij->ij", f1, r1)
    rhs -= e("t,ijt->ij", f1, r1)
    return lhs, rhs


def comm_traced_fourth_v2(c):
    e = np.einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    ric, r1 = c.on("ricci"), c.on("ricci", 1)
    r4, r41 = c.on("riemann"), c.on("riemann", 1)
    lhs = e("ijtt->ij", f4)
    rhs = e("ttij->ij", f4) + f2 @ ric + (f2 @ ric).T
    rhs -= 2 * e("st,isjt->ij", f2, r4)
    rhs += e("t,ijt->ij", f1, r1)
    rhs -= e("t,sitjs->ij", f1, r41) + e("t,sjtis->ij", f1, r41)
    return lhs, rhs


def comm_vec_third(c):
    x2 = c.on("X", 2)
    rhs = x2.transpose(0, 2, 1) + np.einsum("t,tijk->ijk", c.on("X"),
                                            c.on("riemann"))
    return x2, rhs


def comm_vec_fourth_23(c):
    e = np.einsum
    x1, x3 = c.on("X", 1), c.on("X", 3)
    lhs = x3 - x3.transpose(0, 2, 1, 3)
    rhs = (e("tijk,tl->ijkl", c.on("riemann"), x1)
           + e("tijkl,t->ijkl", c.on("riemann", 1), c.on("X")))
    return lhs, rhs


def comm_vec_fourth_34(c):
    e = np.einsum
    x1, x3 = c.on("X", 1), c.on("X", 3)
    r4 = c.on("riemann")
    lhs = x3 - x3.transpose(0, 1, 3, 2)
    rhs = e("tikl,tj->ijkl", r4, x1) + e("tjkl,it->ijkl", r4, x1)
    return lhs, rhs


def comm_bianchi1(c):
    r4 = c.on("riemann")
    return r4 + r4.transpose(0, 2, 3, 1) + r4.transpose(0, 3, 1, 2), 0.0 * r4


def comm_bianchi2(c):
    r1 = c.on("riemann", 1)
    lhs = r1 + r1.transpose(0, 1, 3, 4, 2) + r1.transpose(0, 1, 4, 2, 3)
    return lhs, 0.0 * lhs


def comm_riem_second(c):
    e = np.einsum
    r4, r2 = c.on("riemann"), c.on("riemann", 2)
    lhs = r2 - r2.transpose(0, 1, 2, 3, 5, 4)
    rhs = (e("sjkt,silr->ijktlr", r4, r4) + e("iskt,sjlr->ijktlr", r4, r4)
           + e("ijst,sklr->ijktlr", r4, r4) + e("ijks,stlr->ijktlr", r4, r4))
    return lhs, rhs


def comm_riem_third(c):
    e = np.einsum
    r4, r1, r3 = c.on("riemann"), c.on("riemann", 1), c.on("riemann", 3)
    lhs = r3 - r3.transpose(0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjktl,virs->ijktlrs", r1, r4) + e("ivktl,vjrs->ijktlrs", r1, r4)
           + e("ijvtl,vkrs->ijktlrs", r1, r4) + e("ijkvl,vtrs->ijktlrs", r1, r4)
           + e("ijktv,vlrs->ijktlrs", r1, r4))
    return lhs, rhs


def comm_ricci_first(c):
    r1 = c.on("ricci", 1)
    lhs = r1 - r1.transpose(0, 2, 1)
    rhs = -np.einsum("tijkt->ijk", c.on("riemann", 1))
    return lhs, rhs


def comm_ricci_second(c):
    e = np.einsum
    ric, r4 = c.on("ricci"), c.on("riemann")
    r2 = c.on("ricci", 2)
    lhs = r2 - r2.transpose(0, 1, 3, 2)
    rhs = e("likt,lj->ijkt", r4, ric) + e("ljkt,li->ijkt", r4, ric)
    return lhs, rhs


def comm_ricci_third(c):
    e = np.einsum
    r1, r4 = c.on("ricci", 1), c.on("riemann")
    r3 = c.on("ricci", 3)
    lhs = r3 - r3.transpose(0, 1, 2, 4, 3)
    rhs = (e("sjk,sitl->ijktl", r1, r4) + e("isk,sjtl->ijktl", r1, r4)
           + e("ijs,sktl->ijktl", r1, r4))
    return lhs, rhs


def comm_schur(c):
    """Contracted second Bianchi: the divergence of Ricci is half the
    scalar gradient."""
    return c.on("scalar", 1), 2 * np.einsum("ikk->i", c.on("ricci", 1))


def comm_schouten_codazzi(c):
    a1 = c.on("schouten", 1)
    return a1 - a1.transpose(0, 2, 1), c.on("cotton")


def comm_schouten_second(c):
    e = np.einsum
    a, r4 = c.on("schouten"), c.on("riemann")
    a2 = c.on("schouten", 2)
    lhs = a2 - a2.transpose(0, 1, 3, 2)
    rhs = e("likt,lj->ijkt", r4, a) + e("ljkt,li->ijkt", r4, a)
    return lhs, rhs


def comm_schouten_third(c):
    e = np.einsum
    a1, r4 = c.on("schouten", 1), c.on("riemann")
    a3 = c.on("schouten", 3)
    lhs = a3 - a3.transpose(0, 1, 2, 4, 3)
    rhs = (e("sjk,sitl->ijktl", a1, r4) + e("isk,sjtl->ijktl", a1, r4)
           + e("ijs,sktl->ijktl", a1, r4))
    return lhs, rhs


def comm_weyl_deriv_cyclic(c):
    m, I = c.m, c.I
    e = np.einsum
    w1, ct = c.on("weyl", 1), c.on("cotton")
    lhs = w1 + w1.transpose(0, 1, 3, 4, 2) + w1.transpose(0, 1, 4, 2, 3)
    rhs = (e("itl,jk->ijktl", ct, I) + e("ilk,jt->ijktl", ct, I)
           + e("ikt,jl->ijktl", ct, I) - e("jtl,ik->ijktl", ct, I)
           - e("jlk,it->ijktl", ct, I) - e("jkt,il->ijktl", ct, I)) / (m - 2)
    return lhs, rhs


def comm_weyl_second(c):
    e = np.einsum
    w, r4 = c.on("weyl"), c.on("riemann")
    w2 = c.on("weyl", 2)
    lhs = w2 - w2.transpose(0, 1, 2, 3, 5, 4)
    rhs = (e("rjkl,rist->ijklst", w, r4) + e("irkl,rjst->ijklst", w, r4)
           + e("ijrl,rkst->ijklst", w, r4) + e("ijkr,rlst->ijklst", w, r4))
    return lhs, rhs


def comm_weyl_second_expanded(c):
    m, I = c.m, c.I
    e = np.einsum
    w, ric, s = c.on("weyl"), c.on("ricci"), c.on("scalar")
    w2 = c.on("weyl", 2)
    lhs = w2 - w2.transpose(0, 1, 2, 3, 5, 4)
    rhs = (e("rjkl,rist->ijklst", w, w) + e("irkl,rjst->ijklst", w, w)
           + e("ijrl,rkst->ijklst", w, w) + e("ijkr,rlst->ijklst", w, w))
    # four Ricci blocks, one per Weyl slot
    rhs += (e("rjkl,rs,it->ijklst", w, ric, I) - e("rjkl,rt,is->ijklst", w, ric, I)
            + e("rjkl,it,rs->ijklst", w, ric, I) - e("rjkl,is,rt->ijklst", w, ric, I)
            + e("irkl,rs,jt->ijklst", w, ric, I) - e("irkl,rt,js->ijklst", w, ric, I)
            + e("irkl,jt,rs->ijklst", w, ric, I) - e("irkl,js,rt->ijklst", w, ric, I)
            + e("ijrl,rs,kt->ijklst", w, ric, I) - e("ijrl,rt,ks->ijklst", w, ric, I)
            + e("ijrl,kt,rs->ijklst", w, ric, I) - e("ijrl,ks,rt->ijklst", w, ric, I)
            + e("ijkr,rs,lt->ijklst", w, ric, I) - e("ijkr,rt,ls->ijklst", w, ric, I)
            + e("ijkr,lt,rs->ijklst", w, ric, I) - e("ijkr,ls,rt->ijklst", w, ric, I)
            ) / (m - 2)
    rhs -= s * (
        e("sjkl,it->ijklst", w, I) - e("tjkl,is->ijklst", w, I)
        + e("iskl,jt->ijklst", w, I) - e("itkl,js->ijklst", w, I)
        + e("ijsl,kt->ijklst", w, I) - e("ijtl,ks->ijklst", w, I)
        + e("ijks,lt->ijklst", w, I) - e("ijkt,ls->ijklst", w, I)
    ) / ((m - 1) * (m - 2))
    return lhs, rhs


def comm_weyl_second_traced(c):
    m = c.m
    e = np.einsum
    w, ric = c.on("weyl"), c.on("ricci")
    w2 = c.on("weyl", 2)
    lhs = e("tjklst->jkls", w2) - e("tjklts->jkls", w2)
    rhs = e("st,tjkl->jkls", ric, w)
    rhs += (e("trkl,rjst->jkls", w, w) + e("tjrl,rkst->jkls", w, w)
            + e("tjkr,rlst->jkls", w, w))
    rhs += (e("tr,tjrk,ls->jkls", ric, w, c.I)
            - e("tr,tjrl,ks->jkls", ric, w, c.I)) / (m - 2)
    rhs += (e("tk,tjsl->jkls", ric, w) + e("tl,tjks->jkls", ric, w)
            + e("tj,tskl->jkls", ric, w)) / (m - 2)
    return lhs, rhs


def comm_weyl_third(c):
    e = np.einsum
    w1, r4 = c.on("weyl", 1), c.on("riemann")
    w3 = c.on("weyl", 3)
    lhs = w3 - w3.transpose(0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjklt,virs->ijkltrs", w1, r4) + e("ivklt,vjrs->ijkltrs", w1, r4)
           + e("ijvlt,vkrs->ijkltrs", w1, r4) + e("ijkvt,vlrs->ijkltrs", w1, r4)
           + e("ijklv,vtrs->ijkltrs", w1, r4))
    return lhs, rhs


def comm_weyl_third_expanded(c):
    m, I = c.m, c.I
    e = np.einsum
    w, w1 = c.on("weyl"), c.on("weyl", 1)
    ric, s = c.on("ricci"), c.on("scalar")
    w3 = c.on("weyl", 3)
    lhs = w3 - w3.transpose(0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjklt,virs->ijkltrs", w1, w) + e("ivklt,vjrs->ijkltrs", w1, w)
           + e("ijvlt,vkrs->ijkltrs", w1, w) + e("ijkvt,vlrs->ijkltrs", w1, w)
           + e("ijklv,vtrs->ijkltrs", w1, w))
    blocks = (
        ("vjklt", "i"), ("ivklt", "j"), ("ijvlt", "k"), ("ijkvt", "l"),
        ("ijklv", "t"),
    )
    for sub, x in blocks:
        rhs += (e(f"{sub},vr,{x}s->ijkltrs", w1, ric, I)
                - e(f"{sub},vs,{x}r->ijkltrs", w1, ric, I)
                + e(f"{sub},{x}s,vr->ijkltrs", w1, ric, I)
                - e(f"{sub},{x}r,vs->ijkltrs", w1, ric, I)) / (m - 2)
        rhs -= s * (e(f"{sub},vr,{x}s->ijkltrs", w1, I, I)
                    - e(f"{sub},vs,{x}r->ijkltrs", w1, I, I)) / ((m - 1) * (m - 2))
    return lhs, rhs


def comm_cotton_cyclic(c):
    ct = c.on("cotton")
    lhs = ct + ct.transpose(2, 0, 1) + ct.transpose(1, 2, 0)
    return lhs, 0.0 * lhs


def comm_cotton_divergence(c):
    m, I = c.m, c.I
    e = np.einsum
    ric, r2 = c.on("ricci"), c.on("ricci", 2)
    s2 = c.on("scalar", 2)
    lhs = e("ijkk->ij", c.on("cotton", 1))
    rhs = e("ijkk->ij", r2) - (m - 2) / (2 * (m - 1)) * s2
    rhs += e("tk,itjk->ij", ric, c.on("riemann")) - ric @ ric
    rhs -= np.trace(s2) / (2 * (m - 1)) * I
    return lhs, rhs


def comm_cotton_div_symmetric(c):
    div = np.einsum("ijkk->ij", c.on("cotton", 1))
    return div, div.T


def comm_cotton_null_div(c):
    lhs = np.einsum("kijk->ij", c.on("cotton", 1))
    return lhs, 0.0 * lhs


def comm_bach_divergence(c):
    m = c.m
    lhs = np.einsum("ijj->i", c.on("bach", 1))
    rhs = (m - 4) / (m - 2) ** 2 * np.einsum("kt,kti->i", c.on("ricci"),
                                             c.on("cotton"))
    return lhs, rhs


# ---------------------------------------------------------------------------
# SOL family
# ---------------------------------------------------------------------------

def sol_defining_gradient(c):
    return c.on("ricci") + c.on("f", 2), c.lam * c.I


def sol_trace_gradient(c):
    return c.on("scalar") + np.trace(c.on("f", 2)), c.m * c.lam


def sol_scalar_gradient(c):
    return c.on("scalar", 1), 2 * (c.on("f", 1) @ c.on("ricci"))


def sol_ricci_skew_gradient(c):
    # gradient specialisation of the vector-field skew rule; the printed
    # form pairs this right side with the R_ij,k - R_kj,i pattern, which
    # does not close (checked numerically), so the Codazzi-type pattern
    # matching the right side is used
    r1 = c.on("ricci", 1)
    lhs = r1 - r1.transpose(0, 2, 1)
    rhs = -np.einsum("t,tijk->ijk", c.on("f", 1), c.on("riemann"))
    return lhs, rhs


def sol_hamilton(c):
    # gradient form of the conserved quantity: its gradient vanishes
    lhs = (c.on("scalar", 1) + 2 * (c.on("f", 1) @ c.on("f", 2))
           - 2 * c.lam * c.on("f", 1))
    return lhs, 0.0 * lhs


def sol_scalar_evolution_gradient(c):
    ric = c.on("ricci")
    lhs = 0.5 * np.trace(c.on("scalar", 2))
    rhs = (0.5 * float(c.on("f", 1) @ c.on("scalar", 1)) + c.lam * c.on("scalar")
           - float(np.einsum("ij,ij->", ric, ric)))
    return lhs, rhs


def sol_defining_generic(c):
    x1 = c.on("X", 1)
    return c.on("ricci") + 0.5 * (x1 + x1.T), c.lam * c.I


def sol_trace_generic(c):
    return c.on("scalar") + np.trace(c.on("X", 1)), c.m * c.lam


def sol_div_nabla_x(c):
    return c.on("scalar", 1), -np.einsum("iik->k", c.on("X", 2))


def sol_ric_x(c):
    lhs = c.on("X") @ c.on("ricci")
    rhs = -np.einsum("ktt->k", c.on("X", 2))
    return lhs, rhs


def sol_ricci_skew_x1(c):
    r1 = c.on("ricci", 1)
    x2 = c.on("X", 2)
    lhs = r1 - r1.transpose(0, 2, 1)
    rhs = (-0.5 * np.einsum("lijk,l->ijk", c.on("riemann"), c.on("X"))
           + 0.5 * (x2.transpose(1, 2, 0) - x2.transpose(1, 0, 2)))
    return lhs, rhs


def sol_ricci_skew_x2(c):
    r1 = c.on("ricci", 1)
    x2 = c.on("X", 2)
    lhs = r1 - r1.transpose(2, 1, 0)
    rhs = (0.5 * np.einsum("ljki,l->ijk", c.on("riemann"), c.on("X"))
           + 0.5 * (x2.transpose(2, 1, 0) - x2))
    return lhs, rhs


def sol_scalar_evolution_generic(c):
    ric = c.on("ricci")
    lhs = 0.5 * np.trace(c.on("scalar", 2))
    rhs = (0.5 * float(c.on("X") @ c.on("scalar", 1)) + c.lam * c.on("scalar")
           - float(np.einsum("ij,ij->", ric, ric)))
    return lhs, rhs


def sol_cao_chen_first(c):
    lhs = c.on("cotton") + np.einsum("t,tijk->ijk", c.on("f", 1), c.on("weyl"))
    return lhs, c.on("d_tensor")


def sol_cao_chen_second(c):
    m = c.m
    rhs = (np.einsum("ijkk->ij", c.on("d_tensor", 1))
           + (m - 3) / (m - 2) * np.einsum("t,jit->ij", c.on("f", 1),
                                           c.on("cotton"))) / (m - 2)
    return c.on("bach"), rhs


def sol_fc_equals_fd(c):
    f1 = c.on("f", 1)
    lhs = np.einsum("t,tij->ij", f1, c.on("cotton"))
    rhs = np.einsum("t,tij->ij", f1, c.on("d_tensor"))
    return lhs, rhs


def sol_d_cyclic(c):
    d = c.on("d_tensor")
    lhs = d + d.transpose(2, 0, 1) + d.transpose(1, 2, 0)
    return lhs, 0.0 * lhs


def sol_d_deriv_cyclic_cotton(c):
    m, I = c.m, c.I
    e = np.einsum
    f1, ct = c.on("f", 1), c.on("cotton")
    lhs = _cyc_last3(c.on("d_tensor", 1))
    rhs = (e("l,lkt,ij->ijkt", f1, ct, I) + e("l,ltj,ik->ijkt", f1, ct, I)
           + e("l,ljk,it->ijkt", f1, ct, I)
           - (e("j,ikt->ijkt", f1, ct) + e("k,itj->ijkt", f1, ct)
              + e("t,ijk->ijkt", f1, ct))) / (m - 2)
    return lhs, rhs


def sol_d_deriv_cyclic_d(c):
    m, I = c.m, c.I
    e = np.einsum
    f1, d, w = c.on("f", 1), c.on("d_tensor"), c.on("weyl")
    lhs = _cyc_last3(c.on("d_tensor", 1))
    rhs = (e("l,lkt,ij->ijkt", f1, d, I) + e("l,ltj,ik->ijkt", f1, d, I)
           + e("l,ljk,it->ijkt", f1, d, I)
           - e("j,ikt->ijkt", f1, d - e("s,sikt->ikt", f1, w))
           - e("k,itj->ijkt", f1, d - e("s,sitj->itj", f1, w))
           - e("t,ijk->ijkt", f1, d - e("s,sijk->ijk", f1, w))) / (m - 2)
    return lhs, rhs


def sol_cotton_deriv_cyclic(c):
    e = np.einsum
    ric, w = c.on("ricci"), c.on("weyl")
    lhs = _cyc_last3(c.on("cotton", 1))
    rhs = (e("sj,sikt->ijkt", ric, w) + e("sk,sitj->ijkt", ric, w)
           + e("st,sijk->ijkt", ric, w))
    return lhs, rhs


def sol_d_deriv_cyclic_mixed(c):
    m = c.m
    e = np.einsum
    ric, w = c.on("ricci"), c.on("weyl")
    lhs = _cyc_last3(c.on("d_tensor", 1))
    cyc_c = _cyc_last3(c.on("cotton", 1))
    rw = (e("sj,sikt->ijkt", ric, w) + e("sk,sitj->ijkt", ric, w)
          + e("st,sijk->ijkt", ric, w))
    _, cotton_rhs = sol_d_deriv_cyclic_cotton(c)
    rhs = (m - 6) / (2 * (m - 3)) * (rw - cyc_c) + cotton_rhs
    return lhs, rhs


# ---------------------------------------------------------------------------
# CE family
# ---------------------------------------------------------------------------

def ce_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
    rhs = (c.on("scalar") - (m - 2) * np.trace(u2)
           + (m - 2) * float(u1 @ u1)) / m * I
    return lhs, rhs


def ce_traced_lambda(c):
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = (c.on("scalar") - 2 * (m - 1) * np.trace(u2)
           - (m - 1) * (m - 2) * float(u1 @ u1))
    return lhs, c.lam * m * c.e(2)


def ce_single_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
    rhs = (np.trace(u2) + (m - 2) * float(u1 @ u1) + c.lam * c.e(2)) * I
    return lhs, rhs


def ce_first_gn(c):
    m = c.m
    lhs = c.on("cotton") - (m - 2) * np.einsum("t,tijk->ijk", c.on("u", 1),
                                               c.on("weyl"))
    return lhs, 0.0 * lhs


def ce_second_gn(c):
    m = c.m
    u1 = c.on("u", 1)
    lhs = c.on("bach") - (m - 4) * np.einsum("t,k,itjk->ij", u1, u1,
                                             c.on("weyl"))
    return lhs, 0.0 * lhs


def ce_nabla_delta_u(c):
    m = c.m
    u1, u3 = c.on("u", 1), c.on("u", 3)
    s = c.on("scalar")
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(c.on("u", 2)))
    lhs = np.einsum("ttk->k", u3)
    rhs = (c.on("scalar", 1) / (2 * (m - 1)) - u1 @ c.on("ricci")
           - s * u1 / (m * (m - 1)) + (m + 2) / m * lap_u * u1
           + (m - 2) / m * gu2 * u1)
    return lhs, rhs


def ce_grad_u_grad_lap_u(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    s = c.on("scalar")
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    lhs = float(u1 @ np.einsum("ttk->k", u3))
    rhs = (float(c.on("scalar", 1) @ u1) / (2 * (m - 1))
           - float(np.einsum("ab,a,b->", c.on("ricci"), u1, u1))
           - s * gu2 / (m * (m - 1)) + (m + 2) / m * lap_u * gu2
           + (m - 2) / m * gu2 ** 2)
    return lhs, rhs


def ce_lap_scalar(c):
    m = c.m
    e = np.einsum
    u1, u2, u4 = c.on("u", 1), c.on("u", 2), c.on("u", 4)
    s, s1, s2 = c.on("scalar"), c.on("scalar", 1), c.on("scalar", 2)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    lhs = 0.5 * (np.trace(s2) - (m - 2) * float(s1 @ u1))
    rhs = ((m - 1) * float(e("sskk->", u4))
           + (m - 1) * (m - 2) * float(e("ab,ab->", u2, u2))
           + s * lap_u - 2 * (m - 1) * lap_u ** 2
           + (m + 2) / m * gu2 * (s - 2 * (m - 1) * lap_u
                                  - (m - 1) * (m - 2) * gu2))
    return lhs, rhs


def ce_lap_scalar_lambda(c):
    m = c.m
    e = np.einsum
    u1, u2, u4 = c.on("u", 1), c.on("u", 2), c.on("u", 4)
    s, s1, s2 = c.on("scalar"), c.on("scalar", 1), c.on("scalar", 2)
    gu2 = float(u1 @ u1)
    lap_u = float(np.trace(u2))
    lhs = 0.5 * (np.trace(s2) - (m - 2) * float(s1 @ u1))
    rhs = (s * lap_u - 2 * (m - 1) * lap_u ** 2
           + (m - 1) * float(e("sskk->", u4))
           + (m - 1) * (m - 2) * float(e("ab,ab->", u2, u2))
           + (m + 2) * c.lam * c.e(2) * gu2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# CGRS family
# ---------------------------------------------------------------------------

def cgrs_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    lhs = (c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1) + f2
           - (np.outer(f1, u1) + np.outer(u1, f1)))
    rhs = (c.on("scalar") - (m - 2) * (np.trace(u2) - float(u1 @ u1))
           + np.trace(f2) - 2 * float(f1 @ u1)) / m * I
    return lhs, rhs


def cgrs_schouten_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    lhs = (c.on("schouten") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1) + f2
           - (np.outer(f1, u1) + np.outer(u1, f1)))
    rhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar")
           - (m - 2) * (np.trace(u2) - float(u1 @ u1))
           + np.trace(f2) - 2 * float(f1 @ u1)) / m * I
    return lhs, rhs


def cgrs_duf_vs_tilde(c):
    return c.on("duf_tensor"), c.e(3) * c.t.on("d_tensor")


def cgrs_first(c):
    m = c.m
    v = (m - 2) * c.on("u", 1) - c.on("f", 1)
    lhs = c.on("cotton") - np.einsum("t,tijk->ijk", v, c.on("weyl"))
    return lhs, c.on("duf_tensor")


def cgrs_second(c):
    m = c.m
    e = np.einsum
    u1, f1 = c.on("u", 1), c.on("f", 1)
    v = (m - 2) * u1 - f1
    mat = (np.outer(f1, u1) + np.outer(u1, f1)
           - (m - 2) * np.outer(u1, u1))
    rhs = (e("ijkk->ij", c.on("duf_tensor", 1))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, c.on("cotton"))
           + e("tk,itjk->ij", mat, c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


def cgrs_second_equivalent(c):
    m = c.m
    e = np.einsum
    u1, f1 = c.on("u", 1), c.on("f", 1)
    duf = c.on("duf_tensor")
    v = (m - 2) * u1 - f1
    mat = ((m - 2) * (m - 4) * np.outer(u1, u1)
           - (m - 4) * (np.outer(f1, u1) + np.outer(u1, f1))
           + (m - 3) / (m - 2) * np.outer(f1, f1))
    rhs = (e("tk,itjk->ij", mat, c.on("weyl"))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, duf)
           + e("ijtt->ij", c.on("duf_tensor", 1))) / (m - 2)
    return c.on("bach"), rhs


def cgrs_sk_uttk_fttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    f1, f2, f3 = c.on("f", 1), c.on("f", 2), c.on("f", 3)
    ric = c.on("ricci")
    lap_u, lap_f = float(np.trace(u2)), float(np.trace(f2))
    lhs = (c.on("scalar", 1) / (2 * (m - 1)) - np.einsum("ttk->k", u3)
           + np.einsum("ttk->k", f3) / (m - 2))
    rhs = (m / (m - 1) * (u1 @ ric - (f1 @ ric) / (m - 2))
           - (m - 2) / (m - 1) * (u1 @ u2)
           + (u1 @ f2 + f1 @ u2) / (m - 1)
           - m / (m - 1) * lap_u * u1
           + m / ((m - 1) * (m - 2)) * (lap_f * u1 + lap_u * f1))
    return lhs, rhs


def cgrs_fttk(c):
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2, f3 = c.on("f", 1), c.on("f", 2), c.on("f", 3)
    ric, s = c.on("ricci"), c.on("scalar")
    gu2 = float(u1 @ u1)
    gf2 = float(f1 @ f1)
    fu = float(f1 @ u1)
    lap_u, lap_f = float(np.trace(u2)), float(np.trace(f2))
    lhs = np.einsum("ttk->k", f3)
    rhs = (f1 @ f2 - f1 @ ric - (m - 2) * (u1 @ f2)
           + (m - 2) * (2 * m - 1) / m * gu2 * f1
           + 2 * lap_f * u1 + (3 * m - 2) / m * lap_u * f1
           + (m - 2) * fu * u1 - gf2 * u1 - (s + lap_f) / m * f1
           - (m - 2) / m * fu * f1)
    return lhs, rhs


def cgrs_uttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    ric, s = c.on("ricci"), c.on("scalar")
    gu2 = float(u1 @ u1)
    gf2 = float(f1 @ f1)
    fu = float(f1 @ u1)
    lap_u, lap_f = float(np.trace(u2)), float(np.trace(f2))
    lhs = np.einsum("ttk->k", u3)
    rhs = (c.on("scalar", 1) / (2 * (m - 1)) - u1 @ ric - u1 @ f2
           + (f1 @ f2) / (m - 1)
           + (m - 2) / m * gu2 * u1 + (m - 2) / m * fu * u1
           - s * (u1 + f1) / (m * (m - 1)) + (m + 2) / m * lap_u * u1
           - gf2 * u1 / (m - 1) + lap_f * u1 / m
           + 2 * (m - 1) / m * gu2 * f1 - (m - 2) / (m * (m - 1)) * fu * f1
           + 2 / m * lap_u * f1 - lap_f * f1 / (m * (m - 1)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# GRS family
# ---------------------------------------------------------------------------

def grs_first(c):
    lhs = c.on("cotton") + np.einsum("t,tijk->ijk", c.on("X"), c.on("weyl"))
    return lhs, c.on("dx_tensor")


def grs_second(c):
    m = c.m
    e = np.einsum
    x1 = c.on("X", 1)
    rhs = (e("ijkk->ij", c.on("dx_tensor", 1))
           + (m - 3) / (m - 2) * e("t,jit->ij", c.on("X"), c.on("cotton"))
           + 0.5 * e("tk,itjk->ij", x1 - x1.T, c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


def grs_xc_equals_xd(c):
    x = c.on("X")
    lhs = np.einsum("t,tij->ij", x, c.on("cotton"))
    rhs = np.einsum("t,tij->ij", x, c.on("dx_tensor"))
    return lhs, rhs


# ---------------------------------------------------------------------------
# CGERS family
# ---------------------------------------------------------------------------

def cgers_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    x1 = c.on("X", 1)
    e2u = c.e(2)
    lhs = (c.on("ricci") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
           + 0.5 * e2u * (x1 + x1.T))
    rhs = (c.on("scalar") - (m - 2) * (np.trace(u2) - float(u1 @ u1))
           + e2u * np.trace(x1)) / m * I
    return lhs, rhs


def cgers_schouten_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    x1 = c.on("X", 1)
    e2u = c.e(2)
    lhs = (c.on("schouten") - (m - 2) * u2 + (m - 2) * np.outer(u1, u1)
           + 0.5 * e2u * (x1 + x1.T))
    rhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar")
           - (m - 2) * (np.trace(u2) - float(u1 @ u1))
           + e2u * np.trace(x1)) / m * I
    return lhs, rhs


def cgers_dux_vs_tilde(c):
    return c.on("dux_tensor"), c.e(3) * c.t.on("dx_tensor")


def cgers_first(c):
    m = c.m
    v = (m - 2) * c.on("u", 1) - c.e(2) * c.on("X")
    lhs = c.on("cotton") - np.einsum("t,tijk->ijk", v, c.on("weyl"))
    return lhs, c.on("dux_tensor")


def cgers_second(c):
    m = c.m
    e = np.einsum
    u1, x = c.on("u", 1), c.on("X")
    x1 = c.on("X", 1)
    e2u = c.e(2)
    v = (m - 2) * u1 - e2u * x
    mat = (0.5 * e2u * (x1 - x1.T) + 2 * e2u * np.outer(x, u1)
           - (m - 2) * np.outer(u1, u1))
    rhs = (e("ijkk->ij", c.on("dux_tensor", 1))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, c.on("cotton"))
           + e("tk,itjk->ij", mat, c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


def cgers_sk_uttk_xttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    x, x1, x2 = c.on("X"), c.on("X", 1), c.on("X", 2)
    ric = c.on("ricci")
    e2u = c.e(2)
    lap_u = float(np.trace(u2))
    div_x = float(np.trace(x1))
    lhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar", 1)
           - (m - 2) * np.einsum("ttk->k", u3)
           + e2u * np.einsum("ttk->k", x2))
    sym = x1 + x1.T
    rhs = (m / (m - 1) * (((m - 2) * u1 - e2u * x) @ ric)
           - (m - 2) ** 2 / (m - 1) * (u1 @ u2)
           + 2 / (m - 1) * e2u * div_x * u1
           - m * (m - 2) / (m - 1) * lap_u * u1
           - m / (m - 1) * e2u * (u1 @ sym)
           + m / (2 * (m - 1)) * e2u
           * (np.einsum("tkt->k", x2) - np.einsum("ktt->k", x2)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# HIGH family
# ---------------------------------------------------------------------------

def high_third_1(c):
    m = c.m
    lhs = np.einsum("kt,kti->i", c.on("ricci"), c.on("cotton"))
    rhs = (m - 2) * np.einsum("itktk->i", c.on("d_tensor", 2))
    return lhs, rhs


def high_third_2(c):
    m = c.m
    lhs = np.einsum("ikk->i", c.on("bach", 1))
    rhs = (m - 4) / (m - 2) * np.einsum("itktk->i", c.on("d_tensor", 2))
    return lhs, rhs


def high_fourth_1(c):
    m = c.m
    e = np.einsum
    ct, ric = c.on("cotton"), c.on("ricci")
    lhs = (0.5 * float(e("ijk,ijk->", ct, ct))
           + (m - 2) * float(e("ij,ij->", ric, c.on("bach")))
           - float(e("ij,kt,ikjt->", ric, ric, c.on("weyl"))))
    rhs = (m - 2) * float(e("itktki->", c.on("d_tensor", 3)))
    return lhs, rhs


def high_fourth_2(c):
    m = c.m
    lhs = float(np.einsum("ikki->", c.on("bach", 2)))
    rhs = (m - 4) / (m - 2) * float(np.einsum("itktki->",
                                              c.on("d_tensor", 3)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _rec(id_, family, eq, fn, tol_class, requires=(), structure=None,
         min_dim=2, min_order=2, tol=None):
    return IdentityRecord(id_, family, eq, frozenset(requires), structure,
                          min_dim, min_order, tol_class, tol, fn)


REGISTRY: tuple[IdentityRecord, ...] = (
    # ---- COMM: scalar commutation rules -----------------------------------
    _rec("comm.hess_sym", "COMM", "SecondDerivFunction", comm_hess_sym, "A",
         requires=("f",)),
    _rec("comm.third_first_pair", "COMM", "CovDerivSecondDerivFct",
         comm_third_first_pair, "B", requires=("f",), min_order=3),
    _rec("comm.third_riemann", "COMM", "ThirdDerivFunctionRiem",
         comm_third_riemann, "B", requires=("f",), min_order=3),
    _rec("comm.third_weyl", "COMM", "ThirdDerivFunctionWeyl", comm_third_weyl,
         "B", requires=("f",), min_dim=3, min_order=3),
    _rec("comm.third_weyl_schouten", "COMM",
         "commutatioThirdDerFunctWeilSchouten", comm_third_weyl_schouten, "B",
         requires=("f",), min_dim=3, min_order=3),
    _rec("comm.fourth_last_pair", "COMM", "FourthDerivFunctionRiem",
         comm_fourth_last_pair, "B", requires=("f",), min_order=4),
    _rec("comm.fourth_23", "COMM", "ThirdDerivinfourth", comm_fourth_23, "B",
         requires=("f",), min_order=4),
    _rec("comm.fourth_12_34", "COMM", "Function12with34", comm_fourth_12_34,
         "B", requires=("f",), min_order=4),
    _rec("comm.traced_third", "COMM", "TracedThirdDerivFunctionRicci",
         comm_traced_third, "B", requires=("f",), min_order=3),
    _rec("comm.traced_fourth", "COMM", "TracedFourthDerivFct",
         comm_traced_fourth, "B", requires=("f",), min_order=4),
    _rec("comm.traced_fourth_v2", "COMM", "TracedFourthDerivFctSecondVersion",
         comm_traced_fourth_v2, "B", requires=("f",), min_order=4),
    # ---- COMM: vector-field commutation rules ------------------------------
    _rec("comm.vec_third", "COMM", "VectorFieldThirdComm", comm_vec_third,
         "B", requires=("X",), min_order=3),
    _rec("comm.vec_fourth_23", "COMM", "VectorFieldFourthComm23",
         comm_vec_fourth_23, "B", requires=("X",), min_order=4),
    _rec("comm.vec_fourth_34", "COMM", "VectorFieldFourthComm34",
         comm_vec_fourth_34, "B", requires=("X",), min_order=4),
    # ---- COMM: curvature commutation rules ---------------------------------
    _rec("comm.bianchi1", "COMM", "FirstBianchiRiem", comm_bianchi1, "A"),
    _rec("comm.bianchi2", "COMM", "SecondBianchiRiem", comm_bianchi2, "B",
         min_order=3),
    _rec("comm.riem_second", "COMM", "SecondDerivRiem", comm_riem_second, "B",
         min_order=4),
    _rec("comm.riem_third", "COMM", "ThirdDerivRiem", comm_riem_third, "C",
         min_order=5),
    _rec("comm.ricci_first", "COMM", "RicciFirstComm", comm_ricci_first, "B",
         min_order=3),
    _rec("comm.ricci_second", "COMM", "RicciSecondComm", comm_ricci_second,
         "B", min_order=4),
    _rec("comm.ricci_third", "COMM", "RicciThirdComm", comm_ricci_third, "C",
         min_order=5),
    _rec("comm.schur", "COMM", "SchurIdentity", comm_schur, "B", min_order=3),
    _rec("comm.schouten_codazzi", "COMM", "SchoutenCodazziCotton",
         comm_schouten_codazzi, "B", min_dim=3, min_order=3),
    _rec("comm.schouten_second", "COMM", "SchoutenSecondComm",
         comm_schouten_second, "B", min_dim=3, min_order=4),
    _rec("comm.schouten_third", "COMM", "SchoutenThirdComm",
         comm_schouten_third, "C", min_dim=3, min_order=5),
    _rec("comm.weyl_deriv_cyclic", "COMM", "fake2ndBianchiWeyl",
         comm_weyl_deriv_cyclic, "B", min_dim=3, min_order=3),
    _rec("comm.weyl_second", "COMM", "SecondDerivWeylusingRiem",
         comm_weyl_second, "B", min_dim=3, min_order=4),
    _rec("comm.weyl_second_expanded", "COMM", "SecondDerivWeylExpanded",
         comm_weyl_second_expanded, "B", min_dim=3, min_order=4),
    _rec("comm.weyl_second_traced", "COMM", "SecondDerivWeylTraced",
         comm_weyl_second_traced, "B", min_dim=3, min_order=4),
    _rec("comm.weyl_third", "COMM", "ThirdDerivWeylusingRiem",
         comm_weyl_third, "C", min_dim=3, min_order=5),
    _rec("comm.weyl_third_expanded", "COMM", "ThirdDerivWeylExpanded",
         comm_weyl_third_expanded, "C", min_dim=3, min_order=5),
    _rec("comm.cotton_cyclic", "COMM", "PermutCiclCotton", comm_cotton_cyclic,
         "B", min_dim=3, min_order=3),
    _rec("comm.cotton_divergence", "COMM", "DiverCotton",
         comm_cotton_divergence, "B", min_dim=3, min_order=4),
    _rec("comm.cotton_div_symmetric", "COMM", "SymmDivCotton",
         comm_cotton_div_symmetric, "B", min_dim=3, min_order=4),
    _rec("comm.cotton_null_div", "COMM", "NullDiverCotton",
         comm_cotton_null_div, "B", min_dim=3, min_order=4),
    _rec("comm.bach_divergence", "COMM", "diverBach", comm_bach_divergence,
         "C", min_dim=4, min_order=5),
    # ---- SOL ----------------------------------------------------------------
    _rec("sol.defining_gradient", "SOL", "eq1g", sol_defining_gradient, "A",
         requires=("f", "lam"), structure="gradient_soliton", tol=1e-8),
    _rec("sol.trace_gradient", "SOL", "eq2g", sol_trace_gradient, "A",
         requires=("f", "lam"), structure="gradient_soliton", tol=1e-8),
    _rec("sol.scalar_gradient", "SOL", "eq3g", sol_scalar_gradient, "B",
         requires=("f", "lam"), structure="gradient_soliton", min_order=3,
         tol=1e-8),
    _rec("sol.ricci_skew_gradient", "SOL", "eq6g", sol_ricci_skew_gradient,
         "B", requires=("f", "lam"), structure="gradient_soliton",
         min_order=3, tol=1e-8),
    _rec("sol.hamilton", "SOL", "HamiltonId", sol_hamilton, "B",
         requires=("f", "lam"), structure="gradient_soliton", min_order=3,
         tol=1e-8),
    _rec("sol.scalar_evolution_gradient", "SOL", "scalGrad",
         sol_scalar_evolution_gradient, "B", requires=("f", "lam"),
         structure="gradient_soliton", min_order=4, tol=1e-8),
    _rec("sol.defining_generic", "SOL", "eq1", sol_defining_generic, "A",
         requires=("X", "lam"), structure="generic_soliton", tol=1e-8),
    _rec("sol.trace_generic", "SOL", "eq2", sol_trace_generic, "A",
         requires=("X", "lam"), structure="generic_soliton", tol=1e-8),
    _rec("sol.div_nabla_x", "SOL", "eq3", sol_div_nabla_x, "B",
         requires=("X", "lam"), structure="generic_soliton", min_order=3,
         tol=1e-8),
    _rec("sol.ric_x", "SOL", "eq4", sol_ric_x, "B", requires=("X", "lam"),
         structure="generic_soliton", min_order=3, tol=1e-8),
    _rec("sol.ricci_skew_x1", "SOL", "eq5", sol_ricci_skew_x1, "B",
         requires=("X", "lam"), structure="generic_soliton", min_order=3,
         tol=1e-8),
    _rec("sol.ricci_skew_x2", "SOL", "eq6", sol_ricci_skew_x2, "B",
         requires=("X", "lam"), structure="generic_soliton", min_order=3,
         tol=1e-8),
    _rec("sol.scalar_evolution_generic", "SOL", "scalGen",
         sol_scalar_evolution_generic, "B", requires=("X", "lam"),
         structure="generic_soliton", min_order=4, tol=1e-8),
    _rec("sol.cao_chen_first", "SOL", "firstCaoChen", sol_cao_chen_first, "B",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=3,
         min_order=3, tol=1e-8),
    _rec("sol.cao_chen_second", "SOL", "secondCaoChen", sol_cao_chen_second,
         "B", requires=("f", "lam"), structure="gradient_soliton", min_dim=3,
         min_order=4, tol=1e-8),
    _rec("sol.fc_equals_fd", "SOL", "fCfD_remark", sol_fc_equals_fd, "B",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=3,
         min_order=3, tol=1e-8),
    _rec("sol.d_cyclic", "SOL", "D_lemma_cyclic", sol_d_cyclic, "A",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=3,
         tol=1e-8),
    _rec("sol.d_deriv_cyclic_cotton", "SOL", "D_lemma_div_cyclic_C",
         sol_d_deriv_cyclic_cotton, "B", requires=("f", "lam"),
         structure="gradient_soliton", min_dim=3, min_order=3, tol=1e-8),
    _rec("sol.d_deriv_cyclic_d", "SOL", "D_lemma_div_cyclic_D",
         sol_d_deriv_cyclic_d, "B", requires=("f", "lam"),
         structure="gradient_soliton", min_dim=3, min_order=3, tol=1e-8),
    _rec("sol.cotton_deriv_cyclic", "SOL", "C_div_cyclic_RW",
         sol_cotton_deriv_cyclic, "B", requires=("f", "lam"),
         structure="gradient_soliton", min_dim=3, min_order=4, tol=1e-8),
    _rec("sol.d_deriv_cyclic_mixed", "SOL", "D_lemma_div_cyclic_mixed",
         sol_d_deriv_cyclic_mixed, "B", requires=("f", "lam"),
         structure="gradient_soliton", min_dim=4, min_order=4, tol=1e-8),
    # ---- CE -----------------------------------------------------------------
    _rec("ce.ricci_eq", "CE", "CE_comp_Riccii", ce_ricci_eq, "A",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         tol=1e-7),
    _rec("ce.traced_lambda", "CE", "CE_tracedlambda", ce_traced_lambda, "A",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         tol=1e-7),
    _rec("ce.single_eq", "CE", "CE_singleEq", ce_single_eq, "A",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         tol=1e-7),
    _rec("ce.first_gn", "CE", "FirstCond_GN", ce_first_gn, "B",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         min_order=3, tol=1e-7),
    _rec("ce.second_gn", "CE", "SecondCond_GN", ce_second_gn, "B",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         min_order=4, tol=1e-7),
    _rec("ce.nabla_delta_u", "CE", "CE_nablaDeltau", ce_nabla_delta_u, "B",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         min_order=3, tol=1e-7),
    _rec("ce.grad_u_grad_lap_u", "CE", "CE_gnablaunabladeltau",
         ce_grad_u_grad_lap_u, "B", requires=("u", "lam"),
         structure="conformally_einstein", min_dim=3, min_order=3, tol=1e-7),
    _rec("ce.lap_scalar", "CE", "CE_LaplacianScalarEq", ce_lap_scalar, "B",
         requires=("u", "lam"), structure="conformally_einstein", min_dim=3,
         min_order=4, tol=1e-7),
    _rec("ce.lap_scalar_lambda", "CE", "CE_LaplacianScalarEqwithLambda",
         ce_lap_scalar_lambda, "B", requires=("u", "lam"),
         structure="conformally_einstein", min_dim=3, min_order=4, tol=1e-7),
    # ---- CGRS ---------------------------------------------------------------
    _rec("cgrs.ricci_eq", "CGRS", "CGRS_comp_Ricci", cgrs_ricci_eq, "A",
         requires=("u", "f", "lam"), structure="conformal_gradient_soliton",
         min_dim=3, tol=1e-7),
    _rec("cgrs.schouten_eq", "CGRS", "CGRS_comp_Schouten", cgrs_schouten_eq,
         "A", requires=("u", "f", "lam"),
         structure="conformal_gradient_soliton", min_dim=3, tol=1e-7),
    _rec("cgrs.duf_vs_tilde", "CGRS", "CGRS_D_ufvsTildeD", cgrs_duf_vs_tilde,
         "A", requires=("u", "f", "lam"),
         structure="conformal_gradient_soliton", min_dim=3, tol=1e-7),
    _rec("cgrs.first", "CGRS", "Eq_FirstCondition_CGRSCompNewD", cgrs_first,
         "B", requires=("u", "f", "lam"),
         structure="conformal_gradient_soliton", min_dim=3, min_order=3,
         tol=1e-7),
    _rec("cgrs.second", "CGRS", "Eq_SecondConditionBach", cgrs_second, "B",
         requires=("u", "f", "lam"), structure="conformal_gradient_soliton",
         min_dim=3, min_order=4, tol=1e-7),
    _rec("cgrs.second_equivalent", "CGRS", "Eq_SecondConditionBach_equivalent",
         cgrs_second_equivalent, "B", requires=("u", "f", "lam"),
         structure="conformal_gradient_soliton", min_dim=3, min_order=4,
         tol=1e-7),
    _rec("cgrs.sk_uttk_fttk", "CGRS", "CGRS_SkUttkFttk", cgrs_sk_uttk_fttk,
         "B", requires=("u", "f", "lam"),
         structure="conformal_gradient_soliton", min_dim=3, min_order=3,
         tol=1e-7),
    _rec("cgrs.fttk", "CGRS", "CGRS_Fttk", cgrs_fttk, "B",
         requires=("u", "f", "lam"), structure="conformal_gradient_soliton",
         min_dim=3, min_order=3, tol=1e-7),
    _rec("cgrs.uttk", "CGRS", "CGRS_Uttk", cgrs_uttk, "B",
         requires=("u", "f", "lam"), structure="conformal_gradient_soliton",
         min_dim=3, min_order=3, tol=1e-7),
    # ---- GRS ----------------------------------------------------------------
    _rec("grs.first", "GRS", "firstGenericRSIntCondition", grs_first, "B",
         requires=("X", "lam"), structure="generic_soliton", min_dim=3,
         min_order=3, tol=1e-7),
    _rec("grs.second", "GRS", "secondGenericRSIntCondition", grs_second, "B",
         requires=("X", "lam"), structure="generic_soliton", min_dim=3,
         min_order=4, tol=1e-7),
    _rec("grs.xc_equals_xd", "GRS", "XCXD_remark", grs_xc_equals_xd, "B",
         requires=("X", "lam"), structure="generic_soliton", min_dim=3,
         min_order=3, tol=1e-7),
    # ---- CGERS --------------------------------------------------------------
    _rec("cgers.ricci_eq", "CGERS", "CGenericRS_comp_Ricci", cgers_ricci_eq,
         "A", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, tol=1e-7),
    _rec("cgers.schouten_eq", "CGERS", "CGenericRS_comp_Schouten",
         cgers_schouten_eq, "A", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, tol=1e-7),
    _rec("cgers.dux_vs_tilde", "CGERS", "CGeRS_EqDuXe3uDX",
         cgers_dux_vs_tilde, "A", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, tol=1e-7),
    _rec("cgers.first", "CGERS", "Eq_FirstCondition_CGenericRSComponents",
         cgers_first, "B", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, min_order=3,
         tol=1e-7),
    _rec("cgers.second", "CGERS", "Eq_SecondConditionBach_GENERIC",
         cgers_second, "B", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, min_order=4,
         tol=1e-7),
    _rec("cgers.sk_uttk_xttk", "CGERS", "CGeRS_SkUttkXttk",
         cgers_sk_uttk_xttk, "B", requires=("u", "X", "lam"),
         structure="conformal_generic_soliton", min_dim=3, min_order=3,
         tol=1e-7),
    # ---- HIGH ---------------------------------------------------------------
    _rec("high.third_1", "HIGH", "thirdCond1", high_third_1, "C",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=4,
         min_order=4, tol=1e-6),
    _rec("high.third_2", "HIGH", "thirdCond2", high_third_2, "C",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=4,
         min_order=5, tol=1e-6),
    _rec("high.fourth_1", "HIGH", "fourthCond1", high_fourth_1, "C",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=4,
         min_order=5, tol=1e-6),
    _rec("high.fourth_2", "HIGH", "fourthCond2", high_fourth_2, "C",
         requires=("f", "lam"), structure="gradient_soliton", min_dim=4,
         min_order=6, tol=1e-6),
)

FAMILIES = ("COMM", "SOL", "CE", "CGRS", "GRS", "CGERS", "HIGH")
BY_ID = {r.id: r for r in REGISTRY}


def list_identities(family: str | None = None,
                    requires: str | None = None) -> list[dict]:
    """Stable-ordered registry dump (the coverage ledger)."""
    out = []
    for r in REGISTRY:
        if family and r.family != family:
            continue
        if requires and requires not in r.requires:
            continue
        out.append({
            "id": r.id,
            "family": r.family,
            "eq": r.eq,
            "requires": sorted(r.requires),
            "structure": r.structure,
            "min_dim": r.min_dim,
            "min_jet_order": r.min_order,
            "tol_class": r.tol_class,
            "tol": r.tolerance(),
        })
    return out


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

def select_records(families: list[str] | None = None,
                   ids: list[str] | None = None) -> list[IdentityRecord]:
    if ids:
        missing = [i for i in ids if i not in BY_ID]
        if missing:
            raise KeyError(f"unknown identity ids: {missing}")
        return [BY_ID[i] for i in ids]
    if families:
        bad = [f for f in families if f not in FAMILIES]
        if bad:
            raise KeyError(f"unknown families: {bad}")
        return [r for r in REGISTRY if r.family in families]
    return list(REGISTRY)


def _available(geometry: GeometryInstance) -> set[str]:
    spec = geometry.spec
    have = set()
    if spec.u is not None:
        have.add("u")
    if spec.f is not None:
        have.add("f")
    if spec.x_exprs is not None:
        have.add("X")
    if spec.lam is not None:
        have.add("lam")
    return have


def _skip_reason(geometry: GeometryInstance, rec: IdentityRecord,
                 have: set[str]) -> str | None:
    if geometry.dim < rec.min_dim:
        return f"needs dim >= {rec.min_dim}"
    missing = sorted(rec.requires - have)
    if missing:
        return f"no {', '.join(missing)}"
    if geometry.config.order < rec.min_order:
        return f"needs jet order >= {rec.min_order}"
    return None


def _uncertified(rec: IdentityRecord, cert: dict[str, float]) -> str | None:
    """Why ``rec`` may not run, if its hypothesis is not certified."""
    kind = rec.structure
    if kind is None or cert[kind] < CERTIFICATION_TOL:
        return None
    return f"hypothesis {kind} not certified (residual {cert[kind]:.3e})"


def verify(geometry: GeometryInstance, records: list[IdentityRecord],
           points: np.ndarray, tol_overrides: dict[str, float] | None = None,
           strict_certification: bool = True) -> list[ReportRow]:
    """Evaluate records at the given points; returns one row per record.

    Conditional records count only after their structural hypothesis is
    certified at the same points (never a silent pass); with
    ``strict_certification`` a failed certification is a hard error,
    raised at the first point where the hypothesis fails; otherwise those
    records are reported as skipped.  LAW records and the
    ``*_vs_tilde`` conditions compare against the geometry rescaled by its
    own u field; no point state of it is built unless a record reads it.

    Evaluation is point-major: at each point every hypothesis is certified
    and every runnable record evaluated, then the cache entries the point
    gained are released, so memory does not grow with the number of points.
    A NaN residual at any point makes the record fail.
    """
    have = _available(geometry)
    skips = [_skip_reason(geometry, rec, have) for rec in records]
    runnable = [i for i, why in enumerate(skips) if why is None]
    tilde = None
    if geometry.spec.u is not None:
        from .conformal import rescale  # late: conformal imports this module
        tilde = rescale(geometry).tilde
    cert = {records[i].structure: 0.0 for i in runnable
            if records[i].structure is not None}
    if cert and not len(points):
        raise ValueError("certifying a hypothesis needs at least one point")
    worst = dict.fromkeys(runnable, 0.0)
    geometries = [g for g in (geometry, tilde) if g is not None]
    for p in points if runnable else ():  # build no point state needlessly
        with point_scope(p, *geometries):
            for kind in cert:
                cert[kind] = worst_of(cert[kind], structure_residual(
                    geometry, kind, p, geometry.spec.lam))
            c = EvalContext(geometry, p, tilde)
            for i in runnable:
                why = _uncertified(records[i], cert)
                if why is None:
                    lhs, rhs = records[i].evaluate(c)
                    worst[i] = worst_of(worst[i], residual(lhs, rhs))
                elif strict_certification:
                    raise CertificationError(
                        f"{geometry.name}: {why}; required by {records[i].id}")
    rows = []
    for i, rec in enumerate(records):
        tol = rec.tolerance(tol_overrides)
        why = skips[i] or _uncertified(rec, cert)
        if why is not None:
            rows.append(ReportRow(rec.id, rec.family, rec.eq, None, tol,
                                  f"skipped({why})"))
            continue
        status = "pass" if worst[i] < tol else "fail"
        rows.append(ReportRow(rec.id, rec.family, rec.eq, worst[i], tol, status))
    return rows


def verify_report(geometry: GeometryInstance, records, count: int, seed: int,
                  tol_overrides=None,
                  strict_certification: bool = True) -> VerificationReport:
    points = geometry.sample_points(count, seed)
    rows = verify(geometry, records, points, tol_overrides,
                  strict_certification)
    return VerificationReport(
        tool_version=TOOL_VERSION,
        geometry=geometry.name,
        geometry_hash=geometry_hash(geometry.spec.to_json()),
        dim=geometry.dim,
        jet_order=geometry.config.order,
        seed=seed,
        points=count,
        rows=rows,
    )
