"""Declarative registry of verifiable tensor identities.

Each :class:`IdentityRecord` names one identity -- a commutation rule, a
Bianchi-type identity, a soliton structure equation, or an integrability
condition -- and carries an evaluator that produces its two sides as
orthonormal-frame arrays from an :class:`EvalContext`.  Each record is declared
once, by a decorator on its evaluator (``@_rec(id, eq)``); the id's prefix
names the family, which supplies the hypothesis, dimension floor and any
pinned tolerance; what it reads (:func:`reads`) gives its fields, its
quantities' floors and its jet order, and the order its tolerance class
(:data:`TOL_CLASS`).  The registry is data: families can be listed,
filtered and dumped, and the verification driver treats every record uniformly
(certify the structural hypothesis at every sampled point, evaluate a block of
points at a time, and report the worst normalised residual, where a NaN
residual fails).

Evaluators work on a block of points at once.  Every frame value of the
context (``c.on``, ``c.b.on``, ``c.t.on``) carries the point axis last: a
rank-r tensor is ``(m,) * r + (P,)``, a scalar and ``c.e(k)`` are
``(P,)``, and ``c.I`` is the Kronecker delta with a trailing axis of
length 1, which :func:`~ctlab.curvature.einsum` knows by identity.  A
formula keeps the index strings of its moving-frame components:
:func:`~ctlab.curvature.einsum` appends ``...`` to every operand and to
the output, :func:`~ctlab.curvature.dot` stands for ``@``
and :func:`~ctlab.curvature.tp` for ``.T`` and ``.transpose``, all on the
tensor axes only; ``float`` is never taken of a frame value.  To add a
record, decorate such an evaluator with ``@_rec`` and return its two
sides, of one shape up to broadcasting: :func:`residuals` reduces them
over the tensor axes, one residual per point.  The driver,
:func:`verify`, walks the points in chunks, each with one curvature
bundle per geometry, so each quantity is built once per chunk.

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

import copy
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .curvature import (FIELDS, QUANTITIES, CurvatureBundle, delta, dot,
                        einsum, plan, tp)
from .geometry import (
    BLOCK_BYTES,
    Chunk,
    GeometryInstance,
    MetricError,
    point_key,
    walk_chunks,
)
from .report import ReportRow

# a record's class is that of its jet order: A up to 2, B up to 4, C above
TOL_CLASS = {"A": 1e-9, "B": 1e-7, "C": 1e-5}
CERTIFICATION_TOL = 1e-9

class CertificationError(ValueError):
    """A requested structural hypothesis failed its defining residual."""


def _top(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the last."""
    return np.abs(x).max(axis=tuple(range(x.ndim - 1)), initial=0.0)


def residuals(lhs, rhs) -> np.ndarray:
    """``max|L-R| / (1 + max(|L|, |R|))`` at each point of a block: the
    maxima run over the tensor axes only, so the point axis (the last)
    stays.  A side without a point axis, or with one of length 1, is the
    same at every point."""
    l, r = np.asarray(lhs, float), np.asarray(rhs, float)
    return _top(l - r) / (1.0 + np.maximum(_top(l), _top(r)))


def residual(lhs, rhs) -> float:
    """The normalised residual of two arrays taken whole: one number,
    whatever their axes are."""
    return float(residuals(np.asarray(lhs, float)[..., None],
                           np.asarray(rhs, float)[..., None])[0])


def worst_of(a: float, b: float) -> float:
    """The larger residual, NaN if either is NaN.  Python's ``max`` keeps
    its first argument when a comparison with NaN is false, so it would
    drop a NaN that comes second and let a broken point pass."""
    return float(np.maximum(a, b))


# ---------------------------------------------------------------------------
# evaluation context
# ---------------------------------------------------------------------------

def _as_block(pieces: list) -> np.ndarray:
    """Values of consecutive points, point-major pieces joined and viewed
    with the point axis last, read-only; one piece is a view of it."""
    out = np.moveaxis(pieces[0] if len(pieces) == 1
                      else np.concatenate(pieces), 0, -1)
    out.flags.writeable = False
    return out


# A frame value's key is (side, name, d): ``frames(name, d)`` of the
# geometry's bundle (side "b") or of the rescaled one's (side "t"), and
# ``scalar_exp(d)`` when ``name`` is None.

def _value(b: CurvatureBundle, key: tuple) -> np.ndarray:
    """The value of ``key`` at every point of bundle ``b``, point-major."""
    _, name, d = key
    return b.scalar_exp(d) if name is None else b.frames(name, d)


class _Frames:
    """One side's frame values over a block of points, from ``values``
    (key -> block value, shared by a context's sides).  With a live
    ``bundle`` (over the block's points) a value is read from it when
    first asked for, so ``values`` then holds what the evaluators read, in
    order."""

    def __init__(self, side: str, values: dict, b: CurvatureBundle = None):
        self.side, self.values, self.bundle = side, values, b

    def on(self, name: str, d: int = 0) -> np.ndarray:
        return self._get((self.side, name, d))

    def e(self, k: float) -> np.ndarray:
        """e^{k u} (1 when the geometry has no u field)."""
        return self._get((self.side, None, k))

    def _get(self, key: tuple) -> np.ndarray:
        out = self.values.get(key)
        if out is None:
            out = self.values[key] = self._read(key)
        return out

    def _read(self, key: tuple) -> np.ndarray:
        if self.bundle is None:
            side, name, d = key
            what = (f"c.{side}.e({d!r})" if name is None
                    else f"c.{side}.on({name!r}, {d})")
            raise RuntimeError(
                f"internal error: {what} was not read when the pass was "
                f"planned, so no point handed it over")
        return _as_block([_value(self.bundle, key)])


class _Stand(_Frames):
    """One side's stand-in values over a block of no points: for each key
    an array of its value's rank in dimension ``m``, so an evaluator runs
    on them and ``values`` holds what it read."""

    # the least dimension at which every family's floor holds and nothing
    # divides by m - 1, m - 2 or m - 3
    m = 4

    def _read(self, key: tuple) -> np.ndarray:
        _, name, d = key
        rank = 0 if name is None else QUANTITIES[name].rank + d
        return np.zeros((self.m,) * rank + (0,))


# evaluator -> the keys of the frame values it reads, in order
_READS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reads(evaluate: Callable) -> tuple:
    """The keys of the frame values that ``evaluate``, a record evaluator
    or a structure's equation, reads: found by running it once on
    stand-ins (:class:`_Stand`) with no chart and a float ``lam``, and
    kept per evaluator.  No evaluator chooses what to read by a value, by
    the dimension or by the chart, so what it reads on stand-ins it reads
    at every point of every chart."""
    got = _READS.get(evaluate)
    if got is None:
        c = EvalContext._new([], {}, _Stand.m, 0.0)
        c.b, c._t = (_Stand(side, c.values) for side in "bt")
        evaluate(c)
        got = _READS[evaluate] = tuple(c.values)
    return got


def _plan(keys, side: str) -> dict[str, int]:
    """The jet order each quantity must be built to on ``side`` for the
    frame values ``keys`` read there (:func:`~ctlab.curvature.plan`)."""
    return plan((name, d) for s, name, d in keys
                if s == side and name is not None)


def jet_order(keys: tuple) -> int:
    """The least working order ``K`` at which the frame values ``keys``
    can be read: a quantity of metric derivative depth ``depth`` is built
    to order ``K - depth`` at most, so one planned to order ``q`` on
    either side needs ``K >= q + depth``, and nothing else raises ``K``."""
    return max((q + QUANTITIES[name].depth for side in "bt"
                for name, q in _plan(keys, side).items()), default=0)


class EvalContext:
    """The view handed to record evaluators: over a block of points, the
    frame values of the geometry (``b``, with ``on`` and ``e`` as its
    shorthands) and of its rescaling by its own u field (``t``), each with
    the point axis last; with the dimension ``m``, the Kronecker delta
    ``I`` (a trailing axis of length 1) and the structure constant
    ``lam``.  ``points`` are the block's point keys.  ``I`` is
    :func:`~ctlab.curvature.delta`'s value, shared by identity, so that
    :func:`~ctlab.curvature.einsum` writes a product with it on its
    diagonal; arithmetic on it (``lam * I``) or a copy makes an ordinary
    operand, multiplied out in full.

    :meth:`of` is a walk's chunk, and ``EvalContext(geometry, point)`` a
    lone point, a chunk of one, on ``geometry.rescaled`` too if the chart
    has u: both read its live bundles, and ``values`` then holds what the
    evaluators read.  :meth:`stacked` is a block of points whose values
    were read before."""

    def __init__(self, geometry: GeometryInstance, point):
        geometries = [geometry] + ([geometry.rescaled]
                                   if geometry.spec.u is not None else [])
        self.__dict__.update(vars(self.of(Chunk(geometries, [point]))))

    @classmethod
    def of(cls, chunk: Chunk) -> "EvalContext":
        """The points of ``chunk`` on the first geometry of its walk, with
        the second, if there is one, as the rescaled geometry."""
        g = chunk.geometries[0]
        c = cls._new([point_key(p) for p in chunk.points], {}, g.dim,
                     g.spec.lam, g)
        c.b = _Frames("b", c.values, chunk.bundle(0))  # built, read or not
        c._t, c._chunk = None, chunk
        return c

    @classmethod
    def stacked(cls, geometry: GeometryInstance, points: list,
                values: dict) -> "EvalContext":
        """The block of ``points`` with ``values``, key -> block value."""
        c = cls._new(points, values, geometry.dim, geometry.spec.lam, geometry)
        c.b, c._t = _Frames("b", values), _Frames("t", values)
        return c

    @classmethod
    def _new(cls, points, values, m: int, lam, geometry=None) -> "EvalContext":
        c = cls.__new__(cls)
        c.geometry, c.points, c.values = geometry, points, values
        c.m, c.lam, c.I = m, lam, delta(m)
        return c

    def on(self, name: str, d: int = 0) -> np.ndarray:
        return self.b.on(name, d)

    def e(self, k: float) -> np.ndarray:
        """e^{k u} (1 when the geometry has no u field)."""
        return self.b.e(k)

    @property
    def t(self) -> _Frames:
        if self._t is None:
            if len(self._chunk.geometries) < 2:
                raise MetricError(f"no rescaled geometry for {self.geometry.name!r}")
            self._t = _Frames("t", self.values, self._chunk.bundle(1))
        return self._t


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    family: str
    eq: str
    structure: str | None          # certified hypothesis, if conditional
    evaluate: Callable[[EvalContext], tuple]
    dim_floor: int = 2             # declared: its family's, or its own

    @cached_property
    def keys(self) -> tuple:
        """The keys of the frame values that the record and its
        hypothesis's equations read (:func:`reads`)."""
        eqs = _STRUCTURES[self.structure] if self.structure else ()
        return tuple(dict.fromkeys(key for fn in (self.evaluate, *eqs)
                                   for key in reads(fn)))

    @cached_property
    def _built(self) -> set[str]:
        """The quantities built, on either side, for what it reads."""
        return {name for side in "bt" for name in _plan(self.keys, side)}

    @cached_property
    def requires(self) -> frozenset[str]:
        """Its reads' fields, u if it reads ``c.t``, ``lam`` if conditional."""
        return frozenset(self._built & set(FIELDS)
                         | ({"u"} if self.reads_tilde else set())
                         | ({"lam"} if self.structure else set()))

    @cached_property
    def min_dim(self) -> int:
        """The highest of its declared floor and its quantities' floors."""
        return max([self.dim_floor,
                    *(QUANTITIES[name].min_dim for name in self._built)])

    @cached_property
    def min_order(self) -> int:
        """The least jet order of what it reads (:func:`jet_order`)."""
        return jet_order(self.keys)

    @property
    def reads_tilde(self) -> bool:
        """Whether the record reads the rescaled geometry (``c.t``)."""
        return any(side == "t" for side, *_ in self.keys)

    @property
    def tol_class(self) -> str:
        """The class of its jet order (:data:`TOL_CLASS`)."""
        order = self.min_order
        return "A" if order <= 2 else "B" if order <= 4 else "C"

    def tolerance(self, overrides: dict[str, float] | None = None) -> float:
        """A class override first, then the family's pin, then the class."""
        if overrides and self.tol_class in overrides:
            return overrides[self.tol_class]
        pin = next((pin for family, *_, pin in _FAMILY.values()
                    if family == self.family), None)
        return TOL_CLASS[self.tol_class] if pin is None else pin


def _cyc_last3(t4: np.ndarray) -> np.ndarray:
    """T_ijk,t + T_ikt,j + T_itj,k for a [i,j,k,deriv] array: the summed
    cyclic permutation over the last three slots."""
    return t4 + tp(t4, 0, 3, 1, 2) + tp(t4, 0, 2, 3, 1)


# ---------------------------------------------------------------------------
# declaring records
# ---------------------------------------------------------------------------

# id prefix -> (family, default hypothesis, dimension floor, pinned tolerance)
_FAMILY = {
    "comm": ("COMM", None, 2, None),
    "sol": ("SOL", "gradient_soliton", 2, 1e-8),
    "ce": ("CE", "conformally_einstein", 3, 1e-7),
    "cgrs": ("CGRS", "conformal_gradient_soliton", 3, 1e-7),
    "grs": ("GRS", "generic_soliton", 3, 1e-7),
    "cgers": ("CGERS", "conformal_generic_soliton", 3, 1e-7),
    "high": ("HIGH", "gradient_soliton", 4, 1e-6),
}
FAMILIES = tuple(family for family, *_ in _FAMILY.values())


def declare(into: list, id_: str, family: str, eq: str, *, min_dim: int,
            structure: str | None = None):
    """Decorator that appends the evaluator's :class:`IdentityRecord` to
    ``into``, with ``min_dim`` its declared dimension floor.  What the
    record and its hypothesis read gives the rest: its fields, its
    quantities' floors, its jet order and so its tolerance class."""
    def register(fn):
        into.append(IdentityRecord(id_, family, eq, structure, fn, min_dim))
        return fn
    return register


_DECLARED: list[IdentityRecord] = []


def _rec(id_: str, eq: str, **meta):
    """Declare the decorated evaluator as identity ``id_`` of formula
    ``eq``.  The id's prefix names its family, which supplies the
    hypothesis, dimension floor (``meta`` overrides them) and any pin."""
    family, structure, min_dim, _ = _FAMILY[id_.split(".")[0]]
    return declare(_DECLARED, id_, family, eq, **{
        "structure": structure, "min_dim": min_dim, **meta})


# ---------------------------------------------------------------------------
# COMM family
# ---------------------------------------------------------------------------

def _riemann_split(c):
    """Riemann as the paper splits it, W + (Ric o g)/(m-2)
    - s (g o g)/(2(m-1)(m-2)) with o the Kulkarni-Nomizu product: the
    block value Q_vxrs below.  The expanded Weyl commutation rules
    contract the derivatives of W with it once per slot."""
    m, I = c.m, c.I
    e = einsum
    w, ric, s = c.on("weyl"), c.on("ricci"), c.on("scalar")
    kn_ric = (e("vr,xs->vxrs", ric, I) - e("vs,xr->vxrs", ric, I)
              + e("xs,vr->vxrs", ric, I) - e("xr,vs->vxrs", ric, I))
    s_gg = e(",vr,xs->vxrs", s, I, I) - e(",vs,xr->vxrs", s, I, I)
    return w + kn_ric / (m - 2) - s_gg / ((m - 1) * (m - 2))


@_rec("comm.hess_sym", "SecondDerivFunction")
def comm_hess_sym(c):
    f2 = c.on("f", 2)
    return f2, tp(f2, 1, 0)


@_rec("comm.third_first_pair", "CovDerivSecondDerivFct")
def comm_third_first_pair(c):
    f3 = c.on("f", 3)
    return f3, tp(f3, 1, 0, 2)


@_rec("comm.third_riemann", "ThirdDerivFunctionRiem")
def comm_third_riemann(c):
    f3 = c.on("f", 3)
    rhs = tp(f3, 0, 2, 1) + einsum("t,tijk->ijk", c.on("f", 1),
                                            c.on("riemann"))
    return f3, rhs


@_rec("comm.third_weyl", "ThirdDerivFunctionWeyl")
def comm_third_weyl(c):
    m, I = c.m, c.I
    e = einsum
    f1, f3 = c.on("f", 1), c.on("f", 3)
    ric, s, w = c.on("ricci"), c.on("scalar"), c.on("weyl")
    fr = dot(f1, ric)
    rhs = tp(f3, 0, 2, 1) + e("t,tijk->ijk", f1, w)
    rhs += (e("j,ik->ijk", fr, I) - e("k,ij->ijk", fr, I)
            + e("j,ik->ijk", f1, ric) - e("k,ij->ijk", f1, ric)) / (m - 2)
    rhs -= s * (e("j,ik->ijk", f1, I) - e("k,ij->ijk", f1, I)) / ((m - 1) * (m - 2))
    return f3, rhs


@_rec("comm.third_weyl_schouten", "commutatioThirdDerFunctWeilSchouten")
def comm_third_weyl_schouten(c):
    m, I = c.m, c.I
    e = einsum
    f1, f3 = c.on("f", 1), c.on("f", 3)
    a, w = c.on("schouten"), c.on("weyl")
    fa = dot(f1, a)
    rhs = tp(f3, 0, 2, 1) + e("t,tijk->ijk", f1, w)
    rhs += (e("j,ik->ijk", fa, I) - e("k,ij->ijk", fa, I)
            + e("j,ik->ijk", f1, a) - e("k,ij->ijk", f1, a)) / (m - 2)
    return f3, rhs


@_rec("comm.fourth_last_pair", "FourthDerivFunctionRiem")
def comm_fourth_last_pair(c):
    e = einsum
    f2, f4 = c.on("f", 2), c.on("f", 4)
    r4 = c.on("riemann")
    rhs = (tp(f4, 0, 1, 3, 2) + e("il,ljkt->ijkt", f2, r4)
           + e("jl,likt->ijkt", f2, r4))
    return f4, rhs


@_rec("comm.fourth_23", "ThirdDerivinfourth")
def comm_fourth_23(c):
    e = einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    rhs = (tp(f4, 0, 2, 1, 3) + e("st,sijk->ijkt", f2, c.on("riemann"))
           + e("s,sijkt->ijkt", f1, c.on("riemann", 1)))
    return f4, rhs


@_rec("comm.fourth_12_34", "Function12with34")
def comm_fourth_12_34(c):
    e = einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    r4, r41 = c.on("riemann"), c.on("riemann", 1)
    rhs = tp(f4, 2, 3, 0, 1).copy()
    rhs += (e("is,skjt->ijkt", f2, r4) + e("js,skit->ijkt", f2, r4)
            + e("ks,sijt->ijkt", f2, r4) + e("ts,sijk->ijkt", f2, r4))
    rhs += e("s,sijkt->ijkt", f1, r41) - e("s,sktij->ijkt", f1, r41)
    return f4, rhs


@_rec("comm.traced_third", "TracedThirdDerivFunctionRicci")
def comm_traced_third(c):
    f1, f3 = c.on("f", 1), c.on("f", 3)
    lhs = einsum("itt->i", f3)
    rhs = einsum("tti->i", f3) + dot(f1, c.on("ricci"))
    return lhs, rhs


@_rec("comm.traced_fourth", "TracedFourthDerivFct")
def comm_traced_fourth(c):
    e = einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    ric, r1, r4 = c.on("ricci"), c.on("ricci", 1), c.on("riemann")
    lhs = e("ijtt->ij", f4)
    rhs = e("ttij->ij", f4) + dot(f2, ric) + tp(dot(f2, ric), 1, 0)
    rhs -= 2 * e("st,isjt->ij", f2, r4)
    rhs += e("t,tji->ij", f1, r1) + e("t,tij->ij", f1, r1)
    rhs -= e("t,ijt->ij", f1, r1)
    return lhs, rhs


@_rec("comm.traced_fourth_v2", "TracedFourthDerivFctSecondVersion")
def comm_traced_fourth_v2(c):
    e = einsum
    f1, f2, f4 = c.on("f", 1), c.on("f", 2), c.on("f", 4)
    ric, r1 = c.on("ricci"), c.on("ricci", 1)
    r4, r41 = c.on("riemann"), c.on("riemann", 1)
    lhs = e("ijtt->ij", f4)
    rhs = e("ttij->ij", f4) + dot(f2, ric) + tp(dot(f2, ric), 1, 0)
    rhs -= 2 * e("st,isjt->ij", f2, r4)
    rhs += e("t,ijt->ij", f1, r1)
    rhs -= e("t,sitjs->ij", f1, r41) + e("t,sjtis->ij", f1, r41)
    return lhs, rhs


@_rec("comm.vec_third", "VectorFieldThirdComm")
def comm_vec_third(c):
    x2 = c.on("X", 2)
    rhs = tp(x2, 0, 2, 1) + einsum("t,tijk->ijk", c.on("X"),
                                            c.on("riemann"))
    return x2, rhs


@_rec("comm.vec_fourth_23", "VectorFieldFourthComm23")
def comm_vec_fourth_23(c):
    e = einsum
    x1, x3 = c.on("X", 1), c.on("X", 3)
    lhs = x3 - tp(x3, 0, 2, 1, 3)
    rhs = (e("tijk,tl->ijkl", c.on("riemann"), x1)
           + e("tijkl,t->ijkl", c.on("riemann", 1), c.on("X")))
    return lhs, rhs


@_rec("comm.vec_fourth_34", "VectorFieldFourthComm34")
def comm_vec_fourth_34(c):
    e = einsum
    x1, x3 = c.on("X", 1), c.on("X", 3)
    r4 = c.on("riemann")
    lhs = x3 - tp(x3, 0, 1, 3, 2)
    rhs = e("tikl,tj->ijkl", r4, x1) + e("tjkl,it->ijkl", r4, x1)
    return lhs, rhs


@_rec("comm.bianchi1", "FirstBianchiRiem")
def comm_bianchi1(c):
    r4 = c.on("riemann")
    return r4 + tp(r4, 0, 2, 3, 1) + tp(r4, 0, 3, 1, 2), 0.0 * r4


@_rec("comm.bianchi2", "SecondBianchiRiem")
def comm_bianchi2(c):
    r1 = c.on("riemann", 1)
    lhs = r1 + tp(r1, 0, 1, 3, 4, 2) + tp(r1, 0, 1, 4, 2, 3)
    return lhs, 0.0 * lhs


@_rec("comm.riem_second", "SecondDerivRiem")
def comm_riem_second(c):
    e = einsum
    r4, r2 = c.on("riemann"), c.on("riemann", 2)
    lhs = r2 - tp(r2, 0, 1, 2, 3, 5, 4)
    rhs = (e("sjkt,silr->ijktlr", r4, r4) + e("iskt,sjlr->ijktlr", r4, r4)
           + e("ijst,sklr->ijktlr", r4, r4) + e("ijks,stlr->ijktlr", r4, r4))
    return lhs, rhs


@_rec("comm.riem_third", "ThirdDerivRiem")
def comm_riem_third(c):
    e = einsum
    r4, r1, r3 = c.on("riemann"), c.on("riemann", 1), c.on("riemann", 3)
    lhs = r3 - tp(r3, 0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjktl,virs->ijktlrs", r1, r4) + e("ivktl,vjrs->ijktlrs", r1, r4)
           + e("ijvtl,vkrs->ijktlrs", r1, r4) + e("ijkvl,vtrs->ijktlrs", r1, r4)
           + e("ijktv,vlrs->ijktlrs", r1, r4))
    return lhs, rhs


@_rec("comm.ricci_first", "RicciFirstComm")
def comm_ricci_first(c):
    r1 = c.on("ricci", 1)
    lhs = r1 - tp(r1, 0, 2, 1)
    rhs = -einsum("tijkt->ijk", c.on("riemann", 1))
    return lhs, rhs


@_rec("comm.ricci_second", "RicciSecondComm")
def comm_ricci_second(c):
    e = einsum
    ric, r4 = c.on("ricci"), c.on("riemann")
    r2 = c.on("ricci", 2)
    lhs = r2 - tp(r2, 0, 1, 3, 2)
    rhs = e("likt,lj->ijkt", r4, ric) + e("ljkt,li->ijkt", r4, ric)
    return lhs, rhs


@_rec("comm.ricci_third", "RicciThirdComm")
def comm_ricci_third(c):
    e = einsum
    r1, r4 = c.on("ricci", 1), c.on("riemann")
    r3 = c.on("ricci", 3)
    lhs = r3 - tp(r3, 0, 1, 2, 4, 3)
    rhs = (e("sjk,sitl->ijktl", r1, r4) + e("isk,sjtl->ijktl", r1, r4)
           + e("ijs,sktl->ijktl", r1, r4))
    return lhs, rhs


@_rec("comm.schur", "SchurIdentity")
def comm_schur(c):
    """Contracted second Bianchi: the divergence of Ricci is half the
    scalar gradient."""
    return c.on("scalar", 1), 2 * einsum("ikk->i", c.on("ricci", 1))


@_rec("comm.schouten_codazzi", "SchoutenCodazziCotton")
def comm_schouten_codazzi(c):
    a1 = c.on("schouten", 1)
    return a1 - tp(a1, 0, 2, 1), c.on("cotton")


@_rec("comm.schouten_second", "SchoutenSecondComm")
def comm_schouten_second(c):
    e = einsum
    a, r4 = c.on("schouten"), c.on("riemann")
    a2 = c.on("schouten", 2)
    lhs = a2 - tp(a2, 0, 1, 3, 2)
    rhs = e("likt,lj->ijkt", r4, a) + e("ljkt,li->ijkt", r4, a)
    return lhs, rhs


@_rec("comm.schouten_third", "SchoutenThirdComm")
def comm_schouten_third(c):
    e = einsum
    a1, r4 = c.on("schouten", 1), c.on("riemann")
    a3 = c.on("schouten", 3)
    lhs = a3 - tp(a3, 0, 1, 2, 4, 3)
    rhs = (e("sjk,sitl->ijktl", a1, r4) + e("isk,sjtl->ijktl", a1, r4)
           + e("ijs,sktl->ijktl", a1, r4))
    return lhs, rhs


@_rec("comm.weyl_deriv_cyclic", "fake2ndBianchiWeyl")
def comm_weyl_deriv_cyclic(c):
    m, I = c.m, c.I
    e = einsum
    w1, ct = c.on("weyl", 1), c.on("cotton")
    lhs = w1 + tp(w1, 0, 1, 3, 4, 2) + tp(w1, 0, 1, 4, 2, 3)
    rhs = (e("itl,jk->ijktl", ct, I) + e("ilk,jt->ijktl", ct, I)
           + e("ikt,jl->ijktl", ct, I) - e("jtl,ik->ijktl", ct, I)
           - e("jlk,it->ijktl", ct, I) - e("jkt,il->ijktl", ct, I)) / (m - 2)
    return lhs, rhs


@_rec("comm.weyl_second", "SecondDerivWeylusingRiem")
def comm_weyl_second(c):
    e = einsum
    w, r4 = c.on("weyl"), c.on("riemann")
    w2 = c.on("weyl", 2)
    lhs = w2 - tp(w2, 0, 1, 2, 3, 5, 4)
    rhs = (e("rjkl,rist->ijklst", w, r4) + e("irkl,rjst->ijklst", w, r4)
           + e("ijrl,rkst->ijklst", w, r4) + e("ijkr,rlst->ijklst", w, r4))
    return lhs, rhs


@_rec("comm.weyl_second_expanded", "SecondDerivWeylExpanded")
def comm_weyl_second_expanded(c):
    e = einsum
    w, q = c.on("weyl"), _riemann_split(c)
    w2 = c.on("weyl", 2)
    lhs = w2 - tp(w2, 0, 1, 2, 3, 5, 4)
    rhs = (e("rjkl,rist->ijklst", w, q) + e("irkl,rjst->ijklst", w, q)
           + e("ijrl,rkst->ijklst", w, q) + e("ijkr,rlst->ijklst", w, q))
    return lhs, rhs


@_rec("comm.weyl_second_traced", "SecondDerivWeylTraced")
def comm_weyl_second_traced(c):
    m = c.m
    e = einsum
    w, ric = c.on("weyl"), c.on("ricci")
    w2 = c.on("weyl", 2)
    lhs = e("tjklst->jkls", w2) - e("tjklts->jkls", w2)
    rhs = e("st,tjkl->jkls", ric, w)
    rhs += (e("trkl,rjst->jkls", w, w) + e("tjrl,rkst->jkls", w, w)
            + e("tjkr,rlst->jkls", w, w))
    rw = e("tr,tjrk->jk", ric, w)
    rhs += (e("jk,ls->jkls", rw, c.I) - e("jl,ks->jkls", rw, c.I)) / (m - 2)
    rhs += (e("tk,tjsl->jkls", ric, w) + e("tl,tjks->jkls", ric, w)
            + e("tj,tskl->jkls", ric, w)) / (m - 2)
    return lhs, rhs


@_rec("comm.weyl_third", "ThirdDerivWeylusingRiem")
def comm_weyl_third(c):
    e = einsum
    w1, r4 = c.on("weyl", 1), c.on("riemann")
    w3 = c.on("weyl", 3)
    lhs = w3 - tp(w3, 0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjklt,virs->ijkltrs", w1, r4) + e("ivklt,vjrs->ijkltrs", w1, r4)
           + e("ijvlt,vkrs->ijkltrs", w1, r4) + e("ijkvt,vlrs->ijkltrs", w1, r4)
           + e("ijklv,vtrs->ijkltrs", w1, r4))
    return lhs, rhs


@_rec("comm.weyl_third_expanded", "ThirdDerivWeylExpanded")
def comm_weyl_third_expanded(c):
    e = einsum
    w1, q = c.on("weyl", 1), _riemann_split(c)
    w3 = c.on("weyl", 3)
    lhs = w3 - tp(w3, 0, 1, 2, 3, 4, 6, 5)
    rhs = (e("vjklt,virs->ijkltrs", w1, q) + e("ivklt,vjrs->ijkltrs", w1, q)
           + e("ijvlt,vkrs->ijkltrs", w1, q) + e("ijkvt,vlrs->ijkltrs", w1, q)
           + e("ijklv,vtrs->ijkltrs", w1, q))
    return lhs, rhs


@_rec("comm.cotton_cyclic", "PermutCiclCotton")
def comm_cotton_cyclic(c):
    ct = c.on("cotton")
    lhs = ct + tp(ct, 2, 0, 1) + tp(ct, 1, 2, 0)
    return lhs, 0.0 * lhs


@_rec("comm.cotton_divergence", "DiverCotton")
def comm_cotton_divergence(c):
    m, I = c.m, c.I
    e = einsum
    ric, r2 = c.on("ricci"), c.on("ricci", 2)
    s2 = c.on("scalar", 2)
    lhs = e("ijkk->ij", c.on("cotton", 1))
    rhs = e("ijkk->ij", r2) - (m - 2) / (2 * (m - 1)) * s2
    rhs += e("tk,itjk->ij", ric, c.on("riemann")) - dot(ric, ric)
    rhs -= np.trace(s2) / (2 * (m - 1)) * I
    return lhs, rhs


@_rec("comm.cotton_div_symmetric", "SymmDivCotton")
def comm_cotton_div_symmetric(c):
    div = einsum("ijkk->ij", c.on("cotton", 1))
    return div, tp(div, 1, 0)


@_rec("comm.cotton_null_div", "NullDiverCotton")
def comm_cotton_null_div(c):
    lhs = einsum("kijk->ij", c.on("cotton", 1))
    return lhs, 0.0 * lhs


@_rec("comm.bach_divergence", "diverBach")
def comm_bach_divergence(c):
    m = c.m
    lhs = einsum("ijj->i", c.on("bach", 1))
    rhs = (m - 4) / (m - 2) ** 2 * einsum("kt,kti->i", c.on("ricci"),
                                             c.on("cotton"))
    return lhs, rhs


# ---------------------------------------------------------------------------
# SOL family
# ---------------------------------------------------------------------------

@_rec("sol.defining_gradient", "eq1g")
def sol_defining_gradient(c):
    return c.on("ricci") + c.on("f", 2), c.lam * c.I


@_rec("sol.trace_gradient", "eq2g")
def sol_trace_gradient(c):
    return c.on("scalar") + np.trace(c.on("f", 2)), c.m * c.lam


@_rec("sol.scalar_gradient", "eq3g")
def sol_scalar_gradient(c):
    return c.on("scalar", 1), 2 * dot(c.on("f", 1), c.on("ricci"))


@_rec("sol.ricci_skew_gradient", "eq6g")
def sol_ricci_skew_gradient(c):
    # gradient specialisation of the vector-field skew rule; the printed
    # form pairs this right side with the R_ij,k - R_kj,i pattern, which
    # does not close (checked numerically), so the Codazzi-type pattern
    # matching the right side is used
    r1 = c.on("ricci", 1)
    lhs = r1 - tp(r1, 0, 2, 1)
    rhs = -einsum("t,tijk->ijk", c.on("f", 1), c.on("riemann"))
    return lhs, rhs


@_rec("sol.hamilton", "HamiltonId")
def sol_hamilton(c):
    # gradient form of the conserved quantity: its gradient vanishes
    lhs = (c.on("scalar", 1) + 2 * dot(c.on("f", 1), c.on("f", 2))
           - 2 * c.lam * c.on("f", 1))
    return lhs, 0.0 * lhs


@_rec("sol.scalar_evolution_gradient", "scalGrad")
def sol_scalar_evolution_gradient(c):
    ric = c.on("ricci")
    lhs = 0.5 * np.trace(c.on("scalar", 2))
    rhs = (0.5 * dot(c.on("f", 1), c.on("scalar", 1)) + c.lam * c.on("scalar")
           - einsum("ij,ij->", ric, ric))
    return lhs, rhs


@_rec("sol.defining_generic", "eq1", structure="generic_soliton")
def sol_defining_generic(c):
    x1 = c.on("X", 1)
    return c.on("ricci") + 0.5 * (x1 + tp(x1, 1, 0)), c.lam * c.I


@_rec("sol.trace_generic", "eq2", structure="generic_soliton")
def sol_trace_generic(c):
    return c.on("scalar") + np.trace(c.on("X", 1)), c.m * c.lam


@_rec("sol.div_nabla_x", "eq3", structure="generic_soliton")
def sol_div_nabla_x(c):
    return c.on("scalar", 1), -einsum("iik->k", c.on("X", 2))


@_rec("sol.ric_x", "eq4", structure="generic_soliton")
def sol_ric_x(c):
    lhs = dot(c.on("X"), c.on("ricci"))
    rhs = -einsum("ktt->k", c.on("X", 2))
    return lhs, rhs


@_rec("sol.ricci_skew_x1", "eq5", structure="generic_soliton")
def sol_ricci_skew_x1(c):
    r1 = c.on("ricci", 1)
    x2 = c.on("X", 2)
    lhs = r1 - tp(r1, 0, 2, 1)
    rhs = (-0.5 * einsum("lijk,l->ijk", c.on("riemann"), c.on("X"))
           + 0.5 * (tp(x2, 1, 2, 0) - tp(x2, 1, 0, 2)))
    return lhs, rhs


@_rec("sol.ricci_skew_x2", "eq6", structure="generic_soliton")
def sol_ricci_skew_x2(c):
    r1 = c.on("ricci", 1)
    x2 = c.on("X", 2)
    lhs = r1 - tp(r1, 2, 1, 0)
    rhs = (0.5 * einsum("ljki,l->ijk", c.on("riemann"), c.on("X"))
           + 0.5 * (tp(x2, 2, 1, 0) - x2))
    return lhs, rhs


@_rec("sol.scalar_evolution_generic", "scalGen", structure="generic_soliton")
def sol_scalar_evolution_generic(c):
    ric = c.on("ricci")
    lhs = 0.5 * np.trace(c.on("scalar", 2))
    rhs = (0.5 * dot(c.on("X"), c.on("scalar", 1)) + c.lam * c.on("scalar")
           - einsum("ij,ij->", ric, ric))
    return lhs, rhs


@_rec("sol.cao_chen_first", "firstCaoChen")
def sol_cao_chen_first(c):
    lhs = c.on("cotton") + einsum("t,tijk->ijk", c.on("f", 1), c.on("weyl"))
    return lhs, c.on("d_tensor")


@_rec("sol.cao_chen_second", "secondCaoChen")
def sol_cao_chen_second(c):
    m = c.m
    rhs = (einsum("ijkk->ij", c.on("d_tensor", 1))
           + (m - 3) / (m - 2) * einsum("t,jit->ij", c.on("f", 1),
                                           c.on("cotton"))) / (m - 2)
    return c.on("bach"), rhs


@_rec("sol.fc_equals_fd", "fCfD_remark")
def sol_fc_equals_fd(c):
    f1 = c.on("f", 1)
    lhs = einsum("t,tij->ij", f1, c.on("cotton"))
    rhs = einsum("t,tij->ij", f1, c.on("d_tensor"))
    return lhs, rhs


@_rec("sol.d_cyclic", "D_lemma_cyclic")
def sol_d_cyclic(c):
    d = c.on("d_tensor")
    lhs = d + tp(d, 2, 0, 1) + tp(d, 1, 2, 0)
    return lhs, 0.0 * lhs


@_rec("sol.d_deriv_cyclic_cotton", "D_lemma_div_cyclic_C")
def sol_d_deriv_cyclic_cotton(c):
    m, I = c.m, c.I
    e = einsum
    f1, ct = c.on("f", 1), c.on("cotton")
    lhs = _cyc_last3(c.on("d_tensor", 1))
    rhs = (e("l,lkt,ij->ijkt", f1, ct, I) + e("l,ltj,ik->ijkt", f1, ct, I)
           + e("l,ljk,it->ijkt", f1, ct, I)
           - (e("j,ikt->ijkt", f1, ct) + e("k,itj->ijkt", f1, ct)
              + e("t,ijk->ijkt", f1, ct))) / (m - 2)
    return lhs, rhs


@_rec("sol.d_deriv_cyclic_d", "D_lemma_div_cyclic_D")
def sol_d_deriv_cyclic_d(c):
    m, I = c.m, c.I
    e = einsum
    f1, d, w = c.on("f", 1), c.on("d_tensor"), c.on("weyl")
    lhs = _cyc_last3(c.on("d_tensor", 1))
    rhs = (e("l,lkt,ij->ijkt", f1, d, I) + e("l,ltj,ik->ijkt", f1, d, I)
           + e("l,ljk,it->ijkt", f1, d, I)
           - e("j,ikt->ijkt", f1, d - e("s,sikt->ikt", f1, w))
           - e("k,itj->ijkt", f1, d - e("s,sitj->itj", f1, w))
           - e("t,ijk->ijkt", f1, d - e("s,sijk->ijk", f1, w))) / (m - 2)
    return lhs, rhs


@_rec("sol.cotton_deriv_cyclic", "C_div_cyclic_RW")
def sol_cotton_deriv_cyclic(c):
    e = einsum
    ric, w = c.on("ricci"), c.on("weyl")
    lhs = _cyc_last3(c.on("cotton", 1))
    rhs = (e("sj,sikt->ijkt", ric, w) + e("sk,sitj->ijkt", ric, w)
           + e("st,sijk->ijkt", ric, w))
    return lhs, rhs


@_rec("sol.d_deriv_cyclic_mixed", "D_lemma_div_cyclic_mixed", min_dim=4)
def sol_d_deriv_cyclic_mixed(c):
    m = c.m
    e = einsum
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

@_rec("ce.ricci_eq", "CE_comp_Riccii")
def ce_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = c.on("ricci") - (m - 2) * u2 + (m - 2) * einsum("i,j->ij", u1, u1)
    rhs = (c.on("scalar") - (m - 2) * np.trace(u2)
           + (m - 2) * dot(u1, u1)) / m * I
    return lhs, rhs


@_rec("ce.traced_lambda", "CE_tracedlambda")
def ce_traced_lambda(c):
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = (c.on("scalar") - 2 * (m - 1) * np.trace(u2)
           - (m - 1) * (m - 2) * dot(u1, u1))
    return lhs, c.lam * m * c.e(2)


@_rec("ce.single_eq", "CE_singleEq")
def ce_single_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    lhs = c.on("ricci") - (m - 2) * u2 + (m - 2) * einsum("i,j->ij", u1, u1)
    rhs = (np.trace(u2) + (m - 2) * dot(u1, u1) + c.lam * c.e(2)) * I
    return lhs, rhs


@_rec("ce.first_gn", "FirstCond_GN")
def ce_first_gn(c):
    m = c.m
    lhs = c.on("cotton") - (m - 2) * einsum("t,tijk->ijk", c.on("u", 1),
                                               c.on("weyl"))
    return lhs, 0.0 * lhs


@_rec("ce.second_gn", "SecondCond_GN")
def ce_second_gn(c):
    m = c.m
    u1 = c.on("u", 1)
    lhs = c.on("bach") - (m - 4) * einsum("t,k,itjk->ij", u1, u1,
                                             c.on("weyl"))
    return lhs, 0.0 * lhs


@_rec("ce.nabla_delta_u", "CE_nablaDeltau")
def ce_nabla_delta_u(c):
    m = c.m
    u1, u3 = c.on("u", 1), c.on("u", 3)
    s = c.on("scalar")
    gu2 = dot(u1, u1)
    lap_u = np.trace(c.on("u", 2))
    lhs = einsum("ttk->k", u3)
    rhs = (c.on("scalar", 1) / (2 * (m - 1)) - dot(u1, c.on("ricci"))
           - s * u1 / (m * (m - 1)) + (m + 2) / m * lap_u * u1
           + (m - 2) / m * gu2 * u1)
    return lhs, rhs


@_rec("ce.grad_u_grad_lap_u", "CE_gnablaunabladeltau")
def ce_grad_u_grad_lap_u(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    s = c.on("scalar")
    gu2 = dot(u1, u1)
    lap_u = np.trace(u2)
    lhs = dot(u1, einsum("ttk->k", u3))
    rhs = (dot(c.on("scalar", 1), u1) / (2 * (m - 1))
           - einsum("ab,a,b->", c.on("ricci"), u1, u1)
           - s * gu2 / (m * (m - 1)) + (m + 2) / m * lap_u * gu2
           + (m - 2) / m * gu2 ** 2)
    return lhs, rhs


@_rec("ce.lap_scalar", "CE_LaplacianScalarEq")
def ce_lap_scalar(c):
    m = c.m
    e = einsum
    u1, u2, u4 = c.on("u", 1), c.on("u", 2), c.on("u", 4)
    s, s1, s2 = c.on("scalar"), c.on("scalar", 1), c.on("scalar", 2)
    gu2 = dot(u1, u1)
    lap_u = np.trace(u2)
    lhs = 0.5 * (np.trace(s2) - (m - 2) * dot(s1, u1))
    rhs = ((m - 1) * e("sskk->", u4)
           + (m - 1) * (m - 2) * e("ab,ab->", u2, u2)
           + s * lap_u - 2 * (m - 1) * lap_u ** 2
           + (m + 2) / m * gu2 * (s - 2 * (m - 1) * lap_u
                                  - (m - 1) * (m - 2) * gu2))
    return lhs, rhs


@_rec("ce.lap_scalar_lambda", "CE_LaplacianScalarEqwithLambda")
def ce_lap_scalar_lambda(c):
    m = c.m
    e = einsum
    u1, u2, u4 = c.on("u", 1), c.on("u", 2), c.on("u", 4)
    s, s1, s2 = c.on("scalar"), c.on("scalar", 1), c.on("scalar", 2)
    gu2 = dot(u1, u1)
    lap_u = np.trace(u2)
    lhs = 0.5 * (np.trace(s2) - (m - 2) * dot(s1, u1))
    rhs = (s * lap_u - 2 * (m - 1) * lap_u ** 2
           + (m - 1) * e("sskk->", u4)
           + (m - 1) * (m - 2) * e("ab,ab->", u2, u2)
           + (m + 2) * c.lam * c.e(2) * gu2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# CGRS family
# ---------------------------------------------------------------------------

@_rec("cgrs.ricci_eq", "CGRS_comp_Ricci")
def cgrs_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    lhs = (c.on("ricci") - (m - 2) * u2
           + (m - 2) * einsum("i,j->ij", u1, u1) + f2
           - (einsum("i,j->ij", f1, u1) + einsum("i,j->ij", u1, f1)))
    rhs = (c.on("scalar") - (m - 2) * (np.trace(u2) - dot(u1, u1))
           + np.trace(f2) - 2 * dot(f1, u1)) / m * I
    return lhs, rhs


def _cgrs_traced(c):
    # the trace constraint that fixes lambda in the CGRS structure equation
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    lhs = (c.on("scalar") - 2 * (m - 1) * np.trace(u2)
           - (m - 1) * (m - 2) * dot(u1, u1) + np.trace(f2)
           + (m - 2) * dot(f1, u1))
    return lhs, c.lam * m * c.e(2)


@_rec("cgrs.schouten_eq", "CGRS_comp_Schouten")
def cgrs_schouten_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    lhs = (c.on("schouten") - (m - 2) * u2
           + (m - 2) * einsum("i,j->ij", u1, u1) + f2
           - (einsum("i,j->ij", f1, u1) + einsum("i,j->ij", u1, f1)))
    rhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar")
           - (m - 2) * (np.trace(u2) - dot(u1, u1))
           + np.trace(f2) - 2 * dot(f1, u1)) / m * I
    return lhs, rhs


@_rec("cgrs.duf_vs_tilde", "CGRS_D_ufvsTildeD")
def cgrs_duf_vs_tilde(c):
    return c.on("duf_tensor"), c.e(3) * c.t.on("d_tensor")


@_rec("cgrs.first", "Eq_FirstCondition_CGRSCompNewD")
def cgrs_first(c):
    m = c.m
    v = (m - 2) * c.on("u", 1) - c.on("f", 1)
    lhs = c.on("cotton") - einsum("t,tijk->ijk", v, c.on("weyl"))
    return lhs, c.on("duf_tensor")


@_rec("cgrs.second", "Eq_SecondConditionBach")
def cgrs_second(c):
    m = c.m
    e = einsum
    u1, f1 = c.on("u", 1), c.on("f", 1)
    v = (m - 2) * u1 - f1
    mat = (e("i,j->ij", f1, u1) + e("i,j->ij", u1, f1)
           - (m - 2) * e("i,j->ij", u1, u1))
    rhs = (e("ijkk->ij", c.on("duf_tensor", 1))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, c.on("cotton"))
           + e("tk,itjk->ij", mat, c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


@_rec("cgrs.second_equivalent", "Eq_SecondConditionBach_equivalent")
def cgrs_second_equivalent(c):
    m = c.m
    e = einsum
    u1, f1 = c.on("u", 1), c.on("f", 1)
    duf = c.on("duf_tensor")
    v = (m - 2) * u1 - f1
    mat = ((m - 2) * (m - 4) * e("i,j->ij", u1, u1)
           - (m - 4) * (e("i,j->ij", f1, u1) + e("i,j->ij", u1, f1))
           + (m - 3) / (m - 2) * e("i,j->ij", f1, f1))
    rhs = (e("tk,itjk->ij", mat, c.on("weyl"))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, duf)
           + e("ijtt->ij", c.on("duf_tensor", 1))) / (m - 2)
    return c.on("bach"), rhs


@_rec("cgrs.sk_uttk_fttk", "CGRS_SkUttkFttk")
def cgrs_sk_uttk_fttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    f1, f2, f3 = c.on("f", 1), c.on("f", 2), c.on("f", 3)
    ric = c.on("ricci")
    lap_u, lap_f = np.trace(u2), np.trace(f2)
    lhs = (c.on("scalar", 1) / (2 * (m - 1)) - einsum("ttk->k", u3)
           + einsum("ttk->k", f3) / (m - 2))
    rhs = (m / (m - 1) * (dot(u1, ric) - dot(f1, ric) / (m - 2))
           - (m - 2) / (m - 1) * dot(u1, u2)
           + (dot(u1, f2) + dot(f1, u2)) / (m - 1)
           - m / (m - 1) * lap_u * u1
           + m / ((m - 1) * (m - 2)) * (lap_f * u1 + lap_u * f1))
    return lhs, rhs


@_rec("cgrs.fttk", "CGRS_Fttk")
def cgrs_fttk(c):
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    f1, f2, f3 = c.on("f", 1), c.on("f", 2), c.on("f", 3)
    ric, s = c.on("ricci"), c.on("scalar")
    gu2 = dot(u1, u1)
    gf2 = dot(f1, f1)
    fu = dot(f1, u1)
    lap_u, lap_f = np.trace(u2), np.trace(f2)
    lhs = einsum("ttk->k", f3)
    rhs = (dot(f1, f2) - dot(f1, ric) - (m - 2) * dot(u1, f2)
           + (m - 2) * (2 * m - 1) / m * gu2 * f1
           + 2 * lap_f * u1 + (3 * m - 2) / m * lap_u * f1
           + (m - 2) * fu * u1 - gf2 * u1 - (s + lap_f) / m * f1
           - (m - 2) / m * fu * f1)
    return lhs, rhs


@_rec("cgrs.uttk", "CGRS_Uttk")
def cgrs_uttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    f1, f2 = c.on("f", 1), c.on("f", 2)
    ric, s = c.on("ricci"), c.on("scalar")
    gu2 = dot(u1, u1)
    gf2 = dot(f1, f1)
    fu = dot(f1, u1)
    lap_u, lap_f = np.trace(u2), np.trace(f2)
    lhs = einsum("ttk->k", u3)
    rhs = (c.on("scalar", 1) / (2 * (m - 1)) - dot(u1, ric) - dot(u1, f2)
           + dot(f1, f2) / (m - 1)
           + (m - 2) / m * gu2 * u1 + (m - 2) / m * fu * u1
           - s * (u1 + f1) / (m * (m - 1)) + (m + 2) / m * lap_u * u1
           - gf2 * u1 / (m - 1) + lap_f * u1 / m
           + 2 * (m - 1) / m * gu2 * f1 - (m - 2) / (m * (m - 1)) * fu * f1
           + 2 / m * lap_u * f1 - lap_f * f1 / (m * (m - 1)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# GRS family
# ---------------------------------------------------------------------------

@_rec("grs.first", "firstGenericRSIntCondition")
def grs_first(c):
    lhs = c.on("cotton") + einsum("t,tijk->ijk", c.on("X"), c.on("weyl"))
    return lhs, c.on("dx_tensor")


@_rec("grs.second", "secondGenericRSIntCondition")
def grs_second(c):
    m = c.m
    e = einsum
    x1 = c.on("X", 1)
    rhs = (e("ijkk->ij", c.on("dx_tensor", 1))
           + (m - 3) / (m - 2) * e("t,jit->ij", c.on("X"), c.on("cotton"))
           + 0.5 * e("tk,itjk->ij", x1 - tp(x1, 1, 0), c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


@_rec("grs.xc_equals_xd", "XCXD_remark")
def grs_xc_equals_xd(c):
    x = c.on("X")
    lhs = einsum("t,tij->ij", x, c.on("cotton"))
    rhs = einsum("t,tij->ij", x, c.on("dx_tensor"))
    return lhs, rhs


# ---------------------------------------------------------------------------
# CGERS family
# ---------------------------------------------------------------------------

@_rec("cgers.ricci_eq", "CGenericRS_comp_Ricci")
def cgers_ricci_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    x1 = c.on("X", 1)
    e2u = c.e(2)
    lhs = (c.on("ricci") - (m - 2) * u2 + (m - 2) * einsum("i,j->ij", u1, u1)
           + 0.5 * e2u * (x1 + tp(x1, 1, 0)))
    rhs = (c.on("scalar") - (m - 2) * (np.trace(u2) - dot(u1, u1))
           + e2u * np.trace(x1)) / m * I
    return lhs, rhs


def _cgers_traced(c):
    # the trace constraint that fixes lambda in the CGERS structure equation
    m = c.m
    u1, u2 = c.on("u", 1), c.on("u", 2)
    e2u = c.e(2)
    lhs = (c.on("scalar") - 2 * (m - 1) * np.trace(u2)
           - (m - 1) * (m - 2) * dot(u1, u1)
           + e2u * (np.trace(c.on("X", 1)) + m * dot(c.on("X"), u1)))
    return lhs, c.lam * m * e2u


@_rec("cgers.schouten_eq", "CGenericRS_comp_Schouten")
def cgers_schouten_eq(c):
    m, I = c.m, c.I
    u1, u2 = c.on("u", 1), c.on("u", 2)
    x1 = c.on("X", 1)
    e2u = c.e(2)
    lhs = (c.on("schouten") - (m - 2) * u2
           + (m - 2) * einsum("i,j->ij", u1, u1)
           + 0.5 * e2u * (x1 + tp(x1, 1, 0)))
    rhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar")
           - (m - 2) * (np.trace(u2) - dot(u1, u1))
           + e2u * np.trace(x1)) / m * I
    return lhs, rhs


@_rec("cgers.dux_vs_tilde", "CGeRS_EqDuXe3uDX")
def cgers_dux_vs_tilde(c):
    return c.on("dux_tensor"), c.e(3) * c.t.on("dx_tensor")


@_rec("cgers.first", "Eq_FirstCondition_CGenericRSComponents")
def cgers_first(c):
    m = c.m
    v = (m - 2) * c.on("u", 1) - c.e(2) * c.on("X")
    lhs = c.on("cotton") - einsum("t,tijk->ijk", v, c.on("weyl"))
    return lhs, c.on("dux_tensor")


@_rec("cgers.second", "Eq_SecondConditionBach_GENERIC")
def cgers_second(c):
    m = c.m
    e = einsum
    u1, x = c.on("u", 1), c.on("X")
    x1 = c.on("X", 1)
    e2u = c.e(2)
    v = (m - 2) * u1 - e2u * x
    mat = (0.5 * e2u * (x1 - tp(x1, 1, 0)) + 2 * e2u * e("i,j->ij", x, u1)
           - (m - 2) * e("i,j->ij", u1, u1))
    rhs = (e("ijkk->ij", c.on("dux_tensor", 1))
           - (m - 3) / (m - 2) * e("t,jit->ij", v, c.on("cotton"))
           + e("tk,itjk->ij", mat, c.on("weyl"))) / (m - 2)
    return c.on("bach"), rhs


@_rec("cgers.sk_uttk_xttk", "CGeRS_SkUttkXttk")
def cgers_sk_uttk_xttk(c):
    m = c.m
    u1, u2, u3 = c.on("u", 1), c.on("u", 2), c.on("u", 3)
    x, x1, x2 = c.on("X"), c.on("X", 1), c.on("X", 2)
    ric = c.on("ricci")
    e2u = c.e(2)
    lap_u = np.trace(u2)
    div_x = np.trace(x1)
    lhs = ((m - 2) / (2 * (m - 1)) * c.on("scalar", 1)
           - (m - 2) * einsum("ttk->k", u3)
           + e2u * einsum("ttk->k", x2))
    sym = x1 + tp(x1, 1, 0)
    rhs = (m / (m - 1) * dot((m - 2) * u1 - e2u * x, ric)
           - (m - 2) ** 2 / (m - 1) * dot(u1, u2)
           + 2 / (m - 1) * e2u * div_x * u1
           - m * (m - 2) / (m - 1) * lap_u * u1
           - m / (m - 1) * e2u * dot(u1, sym)
           + m / (2 * (m - 1)) * e2u
           * (einsum("tkt->k", x2) - einsum("ktt->k", x2)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# HIGH family
# ---------------------------------------------------------------------------

@_rec("high.third_1", "thirdCond1")
def high_third_1(c):
    m = c.m
    lhs = einsum("kt,kti->i", c.on("ricci"), c.on("cotton"))
    rhs = (m - 2) * einsum("itktk->i", c.on("d_tensor", 2))
    return lhs, rhs


@_rec("high.third_2", "thirdCond2")
def high_third_2(c):
    m = c.m
    lhs = einsum("ikk->i", c.on("bach", 1))
    rhs = (m - 4) / (m - 2) * einsum("itktk->i", c.on("d_tensor", 2))
    return lhs, rhs


@_rec("high.fourth_1", "fourthCond1")
def high_fourth_1(c):
    m = c.m
    e = einsum
    ct, ric = c.on("cotton"), c.on("ricci")
    lhs = (0.5 * e("ijk,ijk->", ct, ct)
           + (m - 2) * e("ij,ij->", ric, c.on("bach"))
           - e("ij,kt,ikjt->", ric, ric, c.on("weyl")))
    rhs = (m - 2) * e("itktki->", c.on("d_tensor", 3))
    return lhs, rhs


@_rec("high.fourth_2", "fourthCond2")
def high_fourth_2(c):
    m = c.m
    lhs = einsum("ikki->", c.on("bach", 2))
    rhs = (m - 4) / (m - 2) * einsum("itktki->",
                                              c.on("d_tensor", 3))
    return lhs, rhs


# ---------------------------------------------------------------------------
# structures: the defining equations of the certified hypotheses
# ---------------------------------------------------------------------------

def _einstein_eq(c):
    return c.on("ricci"), c.lam * c.I


# Each kind's defining equations, as registry evaluators; its residual is
# the worst over them.  Einstein, gradient and generic solitons and the
# conformally Einstein structure are the special cases of the conformal
# solitons, so one table serves hypotheses, claims and records alike.
# What each kind's equations read has jet order STRUCTURE_ORDER
# (:func:`jet_order`), the order the structures are certified at.
STRUCTURE_ORDER = 2
_STRUCTURES = {
    "einstein": (_einstein_eq,),
    "gradient_soliton": (sol_defining_gradient,),
    "generic_soliton": (sol_defining_generic,),
    "conformally_einstein": (ce_ricci_eq, ce_traced_lambda),
    "conformal_gradient_soliton": (cgrs_ricci_eq, _cgrs_traced),
    "conformal_generic_soliton": (cgers_ricci_eq, _cgers_traced),
}
# aliases used by the transformation-law registry
_STRUCTURES["base_gradient_soliton"] = _STRUCTURES["gradient_soliton"]
_STRUCTURES["tilde_gradient_soliton"] = _STRUCTURES["conformal_gradient_soliton"]


def structure_residuals(c: EvalContext, kind: str, lam: float) -> np.ndarray:
    """Normalised residual of the defining equations of ``kind``, with
    structure constant ``lam``, at each point of ``c``'s block: the worst
    over its equations, NaN if any is NaN."""
    if kind not in _STRUCTURES:
        raise KeyError(f"unknown structure kind {kind!r}")
    c = copy.copy(c)
    c.lam = lam  # the claim's constant, not necessarily the geometry's
    worst = np.zeros(len(c.points))
    for eq in _STRUCTURES[kind]:
        worst = np.maximum(worst, residuals(*eq(c)))
    return worst


def structure_residual(geometry: GeometryInstance, kind: str, point,
                       lam: float) -> float:
    """:func:`structure_residuals` at a lone point, a chunk of one."""
    return float(structure_residuals(EvalContext(geometry, point), kind,
                                     lam)[0])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# every identity, in the order its evaluator is declared above
REGISTRY: tuple[IdentityRecord, ...] = tuple(_DECLARED)
BY_ID = {r.id: r for r in REGISTRY}


def list_identities(records: list[IdentityRecord]) -> list[dict]:
    """The dump of ``records``, in their order (the coverage ledger)."""
    return [{
        "id": r.id,
        "family": r.family,
        "eq": r.eq,
        "requires": sorted(r.requires),
        "structure": r.structure,
        "min_dim": r.min_dim,
        "min_jet_order": r.min_order,
        "tol_class": r.tol_class,
        "tol": r.tolerance(),
    } for r in records]


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

def select_records(families: list[str] | None = None,
                   ids: list[str] | None = None) -> list[IdentityRecord]:
    """The records of ``families`` in registry order, then those of
    ``ids`` not among them, in their order; every record if neither is
    given."""
    families, ids = families or [], ids or []
    missing = [i for i in ids if i not in BY_ID]
    if missing:
        raise KeyError(f"unknown identity ids: {missing}")
    bad = [f for f in families if f not in FAMILIES]
    if bad:
        raise KeyError(f"unknown families: {bad}")
    if not families and not ids:
        return list(REGISTRY)
    out = [r for r in REGISTRY if r.family in families]
    return out + [BY_ID[i] for i in ids if BY_ID[i].family not in families]


def _available(geometry: GeometryInstance) -> set[str]:
    """The fields (and constant) the chart carries."""
    s = geometry.spec
    return {name for name, v in (("u", s.u), ("f", s.f), ("X", s.x_exprs),
                                 ("lam", s.lam)) if v is not None}


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


def pass_geometries(geometry: GeometryInstance,
                    records: list[IdentityRecord]) -> list[GeometryInstance]:
    """The geometries a pass of ``records`` on ``geometry`` walks: the
    geometry and, if a record reads it, its rescaling, at the working
    order, the largest ``min_order`` of ``records`` (the configured order
    if there are none), each planned for the frame values that ``records``
    and their hypotheses read on its side (:func:`~ctlab.curvature.plan`,
    :meth:`~ctlab.geometry.GeometryInstance.planned`)."""
    geometry = geometry.at_order(max((r.min_order for r in records),
                                     default=geometry.config.order))
    geometries = [geometry]
    if any(r.reads_tilde for r in records):
        geometries.append(geometry.rescaled)
    keys = [key for r in records for key in r.keys]
    return [g.planned(_plan(keys, side)) for side, g in zip("bt", geometries)]


def verify(geometry: GeometryInstance, records: list[IdentityRecord],
           points: np.ndarray, tol_overrides: dict[str, float] | None = None
           ) -> list[ReportRow]:
    """Evaluate records at the given points; returns one row per record.

    Conditional records count only after their structural hypothesis is
    certified at the same points (never a silent pass).  A failed
    certification is a hard error for an identity, raised at the first
    point where its hypothesis fails; a LAW record whose hypothesis fails
    is reported as skipped.  Zero points is an error whenever a record can
    run, since nothing would be checked.  LAW records and the
    ``*_vs_tilde`` conditions compare against the geometry rescaled by its
    own u field, ``geometry.rescaled``, which its spec compiles once; the
    walk takes it only when a runnable record reads it (``c.t``).

    The pass is set up before it walks (:func:`pass_geometries`): the
    frame values each runnable record and hypothesis reads are found on
    stand-ins (:func:`reads`); both geometries' point states are built at
    the working order, the largest ``min_order`` of the runnable records,
    which the configured order only caps, through the ``needs jet order``
    skips; and each geometry's bundles build every quantity only to the
    jet order those values need (:func:`~ctlab.curvature.plan`).

    Evaluation is point-major and walks chunks of points
    (:func:`~ctlab.geometry.walk_chunks`), each with its own point states
    and bundles, so memory does not grow with the number of points.  Each
    hypothesis is certified for a whole chunk in one evaluator call, one
    residual per point, and the running worst is kept point by point: a
    failed one stops the walk at its point and names the running worst
    there, and no residual past that point counts.  Every chunk hands
    over, whole, the frame values that the records its first point
    certifies read, and the records are evaluated once per block of
    points, on the values of the records still certified: a law dropped
    partway has its values handed over no more.  A block holds ``max(1,
    BLOCK_BYTES // the bytes of the walk's first chunk's values a point)``
    points, so one chunk's points may fall in two blocks, and its results
    are the same bit for bit as point by point.  An error or warning
    raised at a point comes after every earlier point was evaluated, and
    never before a hypothesis that fails at an earlier point.  A NaN
    residual at any point makes the record fail.
    """
    have = _available(geometry)
    skips = [_skip_reason(geometry, rec, have) for rec in records]
    runnable = [i for i, why in enumerate(skips) if why is None]
    if runnable and not len(points):
        raise ValueError("verification needs at least one point")
    geometries = pass_geometries(geometry, [records[i] for i in runnable])
    geometry = geometries[0]
    cert = {records[i].structure: 0.0 for i in runnable
            if records[i].structure is not None}
    worst = dict.fromkeys(runnable, 0.0)
    read_by = {i: reads(records[i].evaluate) for i in runnable}

    def certified(found: dict) -> tuple[list[int], str | None]:
        """The runnable records that the running worst ``found`` certifies,
        and why the first identity it does not certify may not run (a law
        is skipped instead)."""
        out = []
        for i in runnable:
            why = _uncertified(records[i], found)
            if why is None:
                out.append(i)
            elif records[i].family != "LAW":
                return out, (f"{geometry.name}: {why}; required by "
                             f"{records[i].id}")
        return out, None

    def wanted(ids: list[int]) -> list[tuple]:
        """The keys of the values that the records ``ids`` read."""
        return list(dict.fromkeys(key for i in ids for key in read_by[i]))

    def read(chunk):
        """The chunk's hypothesis residuals, one per point, and its values
        of the keys that the records its first point certifies read, key
        -> point-major value (None if its first point already stops the
        walk)."""
        c = EvalContext.of(chunk)
        found = {kind: structure_residuals(c, kind, geometry.spec.lam)
                 for kind in cert}
        ids, stop = certified({k: worst_of(cert[k], r[0])
                               for k, r in found.items()})
        if stop is not None:
            return found, None
        return found, {key: _value(chunk.bundle(1 if key[0] == "t" else 0),
                                   key) for key in wanted(ids)}

    def add(chunk, values, start: int, stop: int):
        """Hand over the values of ``keys`` at the chunk's points
        ``start:stop``."""
        while start < stop:
            take = min(stop - start, size - len(pending))
            pending.extend(point_key(p) for p in
                           chunk.points[start:start + take])
            pieces.append({key: values[key][start:start + take]
                           for key in keys})
            start += take
            if len(pending) == size:
                flush()

    def flush():
        """Run the active records once on the points handed over."""
        if pending:
            c = EvalContext.stacked(geometry, list(pending), {
                key: _as_block([piece[key] for piece in pieces])
                for key in keys})
            pending.clear()  # the joined values are all the block keeps
            pieces.clear()
            for i in active:
                lhs, rhs = records[i].evaluate(c)
                worst[i] = worst_of(worst[i], np.max(residuals(lhs, rhs)))

    def take(chunk, got):
        """Keep the running worst of the chunk's points in order, and hand
        their values over; the walk's first values size the blocks.  A
        failed hypothesis raises, or drops its laws, at its point."""
        nonlocal active, keys, size
        found, values = got
        if not size and values is not None:
            nbytes = sum(v.nbytes for v in values.values())
            size = max(1, BLOCK_BYTES * len(chunk) // max(1, nbytes))
        start = 0
        for j in range(len(chunk)):
            for kind, r in found.items():
                cert[kind] = worst_of(cert[kind], r[j])
            now, stop = certified(cert)
            if stop is not None or now != active:
                add(chunk, values, start, j)
                flush()
                if stop is not None:
                    raise CertificationError(stop)
                active, keys, start = now, wanted(now), j
        add(chunk, values, start, len(chunk))

    active, keys, size, pending, pieces = None, [], 0, [], []
    if runnable:  # build no point state needlessly
        walk_chunks(points, geometries, read, take, flush)
    flush()
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
