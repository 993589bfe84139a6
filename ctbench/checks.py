"""Independent checks on ctlab's curvature output, with no use of the jet engine.

Three kinds of check compare a value ctlab computed with jets against a
second opinion:

* finite differences: Christoffel symbols, the Riemann tensor and the
  scalar curvature from 4th-order central differences of the metric
  entries, evaluated as plain floats (``exprlang.eval_expr``);
* closed forms: constant-curvature charts and the product of two unit
  2-spheres;
* properties the method must have whatever the metric: the pair
  symmetries and first Bianchi identity of Riemann, trace-free Weyl and
  Cotton, and a symmetric, trace-free Bach tensor in dim 4.

Every comparison uses ctlab's own yardstick,
``max|a - b| / (1 + max(|a|, |b|))``.  Every check also runs its
self-test: the same comparison with one component of ctlab's value
perturbed far beyond the tolerance must fail, or the check is reported as
broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ctlab.exprlang import eval_expr

# Finite-difference error is about 1e-9 on these charts; jets are exact.
TOL_FD = 1e-6
TOL_EXACT = 1e-10
FD_STEP = 1e-3
_STENCIL = ((-2, 1.0 / 12), (-1, -8.0 / 12), (1, 8.0 / 12), (2, -1.0 / 12))
_PERTURB = 1e3  # perturbation in multiples of the tolerance


def residual(a, b) -> float:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    num = float(np.max(np.abs(a - b)))
    return num / (1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b)))))


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float
    detects_perturbation: bool

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.residual)) and self.residual < self.tol \
            and self.detects_perturbation


def compare(name: str, got, want, tol: float, at: int = 0) -> CheckResult:
    """``got`` (from ctlab) against ``want``; the self-test perturbs the
    ``at``-th component of ``got`` by a thousand tolerances."""
    got = np.array(got, float)
    bad = got.copy()
    bad.flat[at] += _PERTURB * tol * (1.0 + float(np.max(np.abs(got))))
    return CheckResult(name, residual(got, want), tol,
                       residual(bad, want) >= tol)


def vanishes(name: str, fn, value, tol: float = TOL_EXACT,
             at: int = 0) -> CheckResult:
    """``fn(value)`` must be zero on ctlab's ``value``; the self-test
    perturbs its ``at``-th component.  Zero is judged on the scale of
    ``value`` itself."""
    value = np.array(value, float)
    bad = value.copy()
    bad.flat[at] += _PERTURB * tol * (1.0 + float(np.max(np.abs(value))))

    def res(v):
        return float(np.max(np.abs(fn(v)))) / (1.0 + float(np.max(np.abs(v))))

    return CheckResult(name, res(value), tol, res(bad) >= tol)


# ---------------------------------------------------------------------------
# finite differences of plainly evaluated metric entries
# ---------------------------------------------------------------------------

def metric_function(spec):
    """x -> g(x) as a float matrix, from the chart's parsed entries."""
    exprs = spec.metric_exprs
    m = spec.dim

    def g(x):
        out = np.empty((m, m))
        for i in range(m):
            for j in range(i + 1):
                out[i, j] = out[j, i] = eval_expr(exprs[i][j], x)
        return out

    return g


def fd_curvature(g, x, h: float = FD_STEP):
    """Christoffel symbols Gamma^l_{jk} (axes [l, j, k]), the Riemann tensor
    R_ijkl (coordinate frame) and the scalar curvature at ``x``."""
    x = np.asarray(x, float)
    m = len(x)
    eye = np.eye(m)
    g0 = g(x)
    gi = np.linalg.inv(g0)
    dg = np.zeros((m, m, m))  # [a, b, v] = d_v g_ab
    for v in range(m):
        for a, c in _STENCIL:
            dg[:, :, v] += c * g(x + a * h * eye[v])
    dg /= h
    ddg = np.zeros((m, m, m, m))  # [a, b, v, w] = d_v d_w g_ab
    for v in range(m):
        for w in range(v, m):
            acc = np.zeros((m, m))
            for (a, ca), (b, cb) in product(_STENCIL, _STENCIL):
                acc += ca * cb * g(x + a * h * eye[v] + b * h * eye[w])
            ddg[:, :, v, w] = ddg[:, :, w, v] = acc / h**2
    # first kind: G[r, j, k] = (d_j g_rk + d_k g_rj - d_r g_jk) / 2
    first = 0.5 * (dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1))
    gam = np.einsum("lr,rjk->ljk", gi, first)
    # d_v of the first kind and of the inverse metric
    dfirst = 0.5 * (ddg.transpose(0, 2, 1, 3) + ddg - ddg.transpose(2, 0, 1, 3))
    dgi = -np.einsum("la,abv,br->lrv", gi, dg, gi)
    dgam = (np.einsum("lrv,rjk->ljkv", dgi, first)
            + np.einsum("lr,rjkv->ljkv", gi, dfirst))  # [l, j, k, v]
    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}
    r13 = (np.einsum("iljk->ijkl", dgam) - np.einsum("ikjl->ijkl", dgam)
           + np.einsum("iks,slj->ijkl", gam, gam)
           - np.einsum("ils,skj->ijkl", gam, gam))
    riem = np.einsum("is,sjkl->ijkl", g0, r13)
    ricci = np.einsum("ijil->jl", r13)
    return gam, riem, float(np.einsum("jl,jl->", gi, ricci))


def to_orthonormal(g0, arr):
    """Contract every slot with the inverse Cholesky factor of ``g0``."""
    vinv = np.linalg.inv(np.linalg.cholesky(g0))
    out = np.asarray(arr, float)
    for s in range(out.ndim):
        out = np.moveaxis(np.tensordot(vinv, out, axes=(1, s)), 0, s)
    return out


def fd_checks(spec, x, christoffel, riemann, scalar) -> list[CheckResult]:
    """ctlab's coordinate Christoffel symbols and orthonormal Riemann and
    scalar curvature at ``x`` against finite differences."""
    g = metric_function(spec)
    gam, riem, s = fd_curvature(g, x)
    return [
        compare("fd.christoffel", christoffel, gam, TOL_FD),
        compare("fd.riemann", riemann, to_orthonormal(g(np.asarray(x)), riem),
                TOL_FD, at=1),
        compare("fd.scalar", scalar, s, TOL_FD),
    ]


# ---------------------------------------------------------------------------
# closed forms (orthonormal frame)
# ---------------------------------------------------------------------------

def _space_form(m: int, k: float) -> np.ndarray:
    eye = np.eye(m)
    return k * (np.einsum("ik,jl->ijkl", eye, eye)
                - np.einsum("il,jk->ijkl", eye, eye))


def closed_form_riemann(entry: str, m: int, params: dict) -> np.ndarray | None:
    """Orthonormal Riemann tensor of the catalog charts whose curvature is
    known in closed form, or None for the others."""
    if entry in ("sphere", "sphere_killing"):
        return _space_form(m, 1.0 / params.get("radius", 1.0) ** 2)
    if entry == "hyperbolic":
        return _space_form(m, -1.0)
    if entry in ("euclidean", "gaussian_plus_killing"):
        return np.zeros((m,) * 4)
    if entry == "s2xs2":
        out = np.zeros((4,) * 4)
        out[:2, :2, :2, :2] = _space_form(2, 1.0)
        out[2:, 2:, 2:, 2:] = _space_form(2, 1.0)
        return out
    return None


def closed_form_checks(entry: str, params: dict, riemann, ricci,
                       scalar) -> list[CheckResult]:
    m = np.asarray(ricci).shape[0]
    want = closed_form_riemann(entry, m, params)
    if want is None:
        return []
    want_ricci = np.einsum("ijil->jl", want)
    return [
        compare("closed.riemann", riemann, want, TOL_EXACT, at=1),
        compare("closed.ricci", ricci, want_ricci, TOL_EXACT),
        compare("closed.scalar", scalar, np.trace(want_ricci), TOL_EXACT),
    ]


# ---------------------------------------------------------------------------
# properties of the method (orthonormal frame, so traces use the identity)
# ---------------------------------------------------------------------------

def property_checks(riemann, weyl, cotton, bach=None) -> list[CheckResult]:
    out = [
        vanishes("prop.riemann_skew_12",
                 lambda r: r + r.transpose(1, 0, 2, 3), riemann, at=1),
        vanishes("prop.riemann_skew_34",
                 lambda r: r + r.transpose(0, 1, 3, 2), riemann, at=1),
        vanishes("prop.riemann_pair",
                 lambda r: r - r.transpose(2, 3, 0, 1), riemann, at=1),
        vanishes("prop.riemann_bianchi1",
                 lambda r: (r + r.transpose(0, 2, 3, 1)
                            + r.transpose(0, 3, 1, 2)), riemann, at=1),
        vanishes("prop.weyl_tracefree",
                 lambda w: np.einsum("ijil->jl", w), weyl),
        vanishes("prop.cotton_tracefree",
                 lambda c: np.einsum("iik->k", c), cotton),
    ]
    if bach is not None:
        out += [
            vanishes("prop.bach_symmetric", lambda b: b - b.T, bach, at=1),
            vanishes("prop.bach_tracefree", lambda b: np.trace(b), bach),
        ]
    return out
