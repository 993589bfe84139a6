"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the scaled derivatives ``c_alpha = d^alpha h / alpha!`` of a
smooth function ``h`` at a base point, for every multi-index with
``|alpha| <= order``.  Sums, products and elementary-function composition
propagate these coefficients exactly (up to float rounding), so every
partial derivative used anywhere in this package comes out of jet algebra --
never from finite differencing and never from symbolic manipulation.

Two layers live here:

* :class:`Jet` -- a scalar jet with operator overloading, used by the
  expression evaluator and exposed to users.
* coefficient-array kernels (:func:`jet_einsum`, :func:`jet_partial`, ...)
  that act on arrays shaped ``(ncoeffs, *tensor_shape)``.  The geometry
  layer stores whole tensor fields this way and gets vectorised jet
  arithmetic across all components at once.

Multi-indices are enumerated in graded order (degree first), so the
enumeration for a lower truncation order is always a prefix of the
enumeration for a higher one and truncation is a plain slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

MAX_ORDER = 8
MAX_DIM = 6


class JetError(ValueError):
    """Base class for jet arithmetic failures."""


class JetDomainError(JetError):
    """A function was evaluated outside its domain (log/sqrt/pow guards)."""


class JetOrderError(JetError):
    """A derivative request exceeds the configured truncation order."""


@dataclass(frozen=True)
class JetConfig:
    """Global differentiation settings: truncation order plus cost guards."""

    order: int = 6

    def __post_init__(self):
        if not 0 <= self.order <= MAX_ORDER:
            raise JetOrderError(
                f"jet order {self.order} outside supported range 0..{MAX_ORDER}"
            )


class MultiIndexTable:
    """Enumeration of multi-indices with the maps every jet kernel needs.

    Attributes
    ----------
    alphas : (N, dim) int array, graded enumeration of multi-indices.
    size_by_order : size_by_order[q] = number of alphas with |alpha| <= q.
    mul_i, mul_j, mul_out : convolution triples alpha_i + alpha_j = alpha_out
        for every pair with |alpha_i| + |alpha_j| <= order, sorted by out.
    seg_starts : first triple position of each out index (for reduceat).
    dsrc, dmul : per-variable differentiation maps; the coefficient of
        d/dx_v at alpha is ``coeffs[dsrc[v, k]] * dmul[v, k]``.
    """

    def __init__(self, dim: int, order: int):
        if not 1 <= dim <= MAX_DIM:
            raise JetOrderError(f"dim {dim} outside supported range 1..{MAX_DIM}")
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"order {order} outside supported range 0..{MAX_ORDER}")
        self.dim = dim
        self.order = order

        alphas: list[tuple[int, ...]] = []
        size_by_order = []
        for deg in range(order + 1):
            for slots in combinations_with_replacement(range(dim), deg):
                a = [0] * dim
                for s in slots:
                    a[s] += 1
                alphas.append(tuple(a))
            size_by_order.append(len(alphas))
        self.alphas = np.array(alphas, dtype=np.int64).reshape(len(alphas), dim)
        self.index = {a: k for k, a in enumerate(alphas)}
        self.size = len(alphas)
        self.size_by_order = size_by_order
        self.degree = self.alphas.sum(axis=1)
        self.factorial = np.array(
            [math.prod(math.factorial(int(e)) for e in a) for a in alphas], float
        )

        tri = []
        for i, ai in enumerate(alphas):
            room = order - int(self.degree[i])
            for j in range(size_by_order[room]):
                out = self.index[tuple(x + y for x, y in zip(ai, alphas[j]))]
                tri.append((out, i, j))
        tri.sort()
        t = np.array(tri, dtype=np.int64)
        self.mul_out = t[:, 0]
        self.mul_i = t[:, 1]
        self.mul_j = t[:, 2]
        # graded enumeration => triples with out < size_by_order[q] are a prefix
        self.mul_count_by_order = [
            int(np.searchsorted(self.mul_out, size_by_order[q]))
            for q in range(order + 1)
        ]
        self.seg_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(self.mul_out)) + 1)
        )

        if order >= 1:
            nprev = size_by_order[order - 1]
            self.dsrc = np.empty((dim, nprev), dtype=np.int64)
            self.dmul = np.empty((dim, nprev), float)
            for v in range(dim):
                for k in range(nprev):
                    a = list(alphas[k])
                    a[v] += 1
                    self.dsrc[v, k] = self.index[tuple(a)]
                    self.dmul[v, k] = a[v]


@lru_cache(maxsize=None)
def table(dim: int, order: int) -> MultiIndexTable:
    return MultiIndexTable(dim, order)


# ---------------------------------------------------------------------------
# coefficient-array kernels (leading axis = multi-index)
# ---------------------------------------------------------------------------

def jet_einsum(spec: str, a: np.ndarray, b: np.ndarray, dim: int,
               order_a: int, order_b: int) -> np.ndarray:
    """Jet-valued einsum: contract trailing tensor axes per ``spec`` while
    convolving the leading coefficient axes.  Output order is
    ``min(order_a, order_b)`` (the truncation a product can support)."""
    q = min(order_a, order_b)
    t = table(dim, q)
    n = t.size
    cnt = t.mul_count_by_order[q]
    lhs, out_sub = spec.split("->")
    sa, sb = lhs.split(",")
    ag = a[: n][t.mul_i[:cnt]]
    bg = b[: n][t.mul_j[:cnt]]
    prod = np.einsum(f"p{sa},p{sb}->p{out_sub}", ag, bg)
    starts = t.seg_starts[:n]
    return np.add.reduceat(prod, starts, axis=0)


def jet_partial(a: np.ndarray, v: int, dim: int, order: int) -> np.ndarray:
    """Coefficients of d/dx_v of a jet array; output order drops by one."""
    if order < 1:
        raise JetOrderError("jet order exhausted: cannot differentiate order-0 jet")
    t = table(dim, order)
    mul = t.dmul[v].reshape((-1,) + (1,) * (a.ndim - 1))
    return a[t.dsrc[v]] * mul


def truncate_coeffs(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    return a[: table(dim, order).size]


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

class Jet:
    """A truncated multivariate Taylor expansion of a scalar at a point.

    ``coeffs[k]`` is ``d^alpha h / alpha!`` for the k-th multi-index of the
    graded enumeration; in particular ``coeffs[0]`` is the plain value.
    Jets are immutable; all arithmetic returns fresh jets of the same
    ``(dim, order)``.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        self.dim = dim
        self.order = order
        self.coeffs = coeffs

    # -- construction -------------------------------------------------------

    @staticmethod
    def lift(value: float, dim: int, order: int, slot: int | None = None) -> "Jet":
        """Constant jet, or the jet of the coordinate function ``x_slot``."""
        t = table(dim, order)
        c = np.zeros(t.size)
        c[0] = value
        if slot is not None:
            if not 0 <= slot < dim:
                raise JetError(f"coordinate slot {slot} out of range for dim {dim}")
            if order >= 1:
                c[t.index[tuple(1 if v == slot else 0 for v in range(dim))]] = 1.0
        return Jet(dim, order, c)

    def _like(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.dim, self.order, coeffs)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if (other.dim, other.order) != (self.dim, self.order):
                raise JetError(
                    f"jet mismatch: ({self.dim},{self.order}) vs "
                    f"({other.dim},{other.order})"
                )
            return other
        return Jet.lift(float(other), self.dim, self.order)

    # -- inspection ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        t = table(self.dim, self.order)
        if tuple(alpha) not in t.index:
            raise JetOrderError(f"multi-index {alpha} beyond order {self.order}")
        return float(self.coeffs[t.index[tuple(alpha)]])

    def derivative(self, alpha: tuple[int, ...]) -> float:
        """The actual partial derivative d^alpha h (coefficient * alpha!)."""
        t = table(self.dim, self.order)
        k = t.index[tuple(alpha)]
        return float(self.coeffs[k] * t.factorial[k])

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise JetOrderError(f"cannot extend order {self.order} to {order}")
        return Jet(self.dim, order, truncate_coeffs(self.coeffs, self.dim, order))

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value:.6g})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return self._like(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._like(self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        return self._like(o.coeffs - self.coeffs)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * float(other))
        o = self._coerce(other)
        out = jet_einsum(",->", self.coeffs, o.coeffs, self.dim, self.order, self.order)
        return self._like(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs / float(other))
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, r):
        return power(self, r)

    # -- composition --------------------------------------------------------

    def compose(self, series: np.ndarray) -> "Jet":
        """Horner evaluation of ``sum_n series[n] * (self - value)^n``.

        ``series`` holds the univariate Taylor coefficients of the outer
        function at the jet's value; this is the standard recurrence-free
        form of univariate composition for truncated series.
        """
        hat = self.coeffs.copy()
        hat[0] = 0.0
        hat_jet = self._like(hat)
        out = Jet.lift(float(series[self.order]), self.dim, self.order)
        for n in range(self.order - 1, -1, -1):
            out = out * hat_jet + float(series[n])
        return out

    def reciprocal(self) -> "Jet":
        a0 = self.value
        if a0 == 0.0:
            raise JetDomainError("division by a jet with zero constant term")
        series = np.array([(-1.0) ** n / a0 ** (n + 1) for n in range(self.order + 1)])
        return self.compose(series)


# -- elementary functions ----------------------------------------------------

def exp(a: Jet) -> Jet:
    e = math.exp(a.value)
    series = np.array([e / math.factorial(n) for n in range(a.order + 1)])
    return a.compose(series)


def log(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise JetDomainError(f"log of non-positive value {a.value}")
    series = np.empty(a.order + 1)
    series[0] = math.log(a.value)
    for n in range(1, a.order + 1):
        series[n] = (-1.0) ** (n + 1) / (n * a.value ** n)
    return a.compose(series)


def _trig(a: Jet, f0: float, f1: float, f2: float, f3: float) -> Jet:
    cycle = [f0, f1, f2, f3]
    series = np.array(
        [cycle[n % 4] / math.factorial(n) for n in range(a.order + 1)]
    )
    return a.compose(series)


def sin(a: Jet) -> Jet:
    s, c = math.sin(a.value), math.cos(a.value)
    return _trig(a, s, c, -s, -c)


def cos(a: Jet) -> Jet:
    s, c = math.sin(a.value), math.cos(a.value)
    return _trig(a, c, -s, -c, s)


def sinh(a: Jet) -> Jet:
    s, c = math.sinh(a.value), math.cosh(a.value)
    series = np.array(
        [(s if n % 2 == 0 else c) / math.factorial(n) for n in range(a.order + 1)]
    )
    return a.compose(series)


def cosh(a: Jet) -> Jet:
    s, c = math.sinh(a.value), math.cosh(a.value)
    series = np.array(
        [(c if n % 2 == 0 else s) / math.factorial(n) for n in range(a.order + 1)]
    )
    return a.compose(series)


def sqrt(a: Jet) -> Jet:
    if a.value <= 0.0:
        raise JetDomainError(f"sqrt of non-positive value {a.value}")
    return power(a, 0.5)


def power(a: Jet, r: float) -> Jet:
    """a**r; integer exponents work for any base, fractional need a0 > 0."""
    if isinstance(r, float) and r.is_integer():
        r = int(r)
    if isinstance(r, int):
        if r == 0:
            return Jet.lift(1.0, a.dim, a.order)
        base = a if r > 0 else a.reciprocal()
        out = base
        for _ in range(abs(r) - 1):
            out = out * base
        return out
    if a.value <= 0.0:
        raise JetDomainError(
            f"fractional power of non-positive value {a.value}"
        )
    series = np.empty(a.order + 1)
    series[0] = a.value ** r
    coef = 1.0
    for n in range(1, a.order + 1):
        coef *= (r - (n - 1)) / n
        series[n] = coef * a.value ** (r - n)
    return a.compose(series)


FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
    "sqrt": sqrt,
}
