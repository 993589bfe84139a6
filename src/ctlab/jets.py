"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the scaled derivatives ``c_alpha = d^alpha h / alpha!`` of a
smooth function ``h`` at a base point, for every multi-index with
``|alpha| <= order``.  Sums, products and elementary-function composition
propagate these coefficients exactly (up to float rounding), so every
partial derivative used anywhere in this package comes out of jet algebra --
never from finite differencing and never from symbolic manipulation.

Two layers live here:

* :class:`Jet` -- a scalar jet with operator overloading, used by the
  expression evaluator and exposed to users.  One ``Jet`` may also hold a
  block of P jets, one column per base point, so that the expression tape
  walks its ops once for many points (vector-mode Taylor arithmetic).
* coefficient-array kernels (:func:`jet_einsum`, :func:`jet_inverse`,
  :func:`jet_gradient`, :func:`jet_cov_deriv`) that act on the jets of a
  chunk of points, arrays shaped ``(P, ncoeffs, *tensor_shape)``.  The
  geometry layer stores whole tensor fields this way and gets vectorised
  jet arithmetic across all components and points at once; a single point
  is a chunk of one.  :func:`jet_gradient` takes every partial of an array
  in one gather, the derivative axis last, and :func:`jet_cov_deriv` is one
  covariant derivative: that gradient minus each slot's Christoffel term,
  the Christoffel operand gathered once for all slots and each term the
  GEMM :func:`jet_einsum` would run for it, so the result is bit for bit
  the per-variable, per-slot computation.  :func:`jet_partial` is the one
  partial of one point's array, ``(ncoeffs, *tensor_shape)``.
* packed antisymmetric pairs: a Riemann-type array keeps each of its two
  leading antisymmetric pairs of slots as its components a < b, the
  2-form slots (:func:`pack_pairs`, :func:`unpack_pairs`, maps cached per
  dimension by :func:`pair_maps`).  A covariant derivative runs such a
  pair slot's two connection terms as one GEMM against Gamma lifted to
  2-forms (:func:`jet_pair_lift`), so the Riemann and Weyl derivative
  chains keep M = m(m-1)/2 components per pair slot, not m^2: 100 instead
  of 625 per (ab)(cd) block at dimension 5.

A product of two jets is a convolution of their coefficients: output
coefficient ``p`` sums ``a[i] * b[j]`` over the pairs with
``alpha_i + alpha_j = alpha_p``.  :func:`jet_einsum` does that convolution
and the tensor contraction in one batched matrix product.  Each operand is
laid out as ``[point, coeff, contracted, free]`` with a zero row appended
to each point's coefficients and gathered along the table's padded pair
lists (``pad_i``, ``pad_j``), so for each point and output coefficient the
pairs and the contracted indices together form the inner dimension of one
GEMM.  That GEMM is the one the point runs alone, so a chunk's values are
bit for bit those of its points taken one at a time.  A scalar
:class:`Jet` has no tensor axes and multiplies by the plain Cauchy product
over the pair list, bounded by degree: each scalar jet carries a
``degree``, an upper bound on the total degree of its non-zero
coefficients (0 for a constant, 1 for a coordinate, the sum of the
factors' for a product, capped at the order), and a product gathers only
the pairs with ``|alpha_i|`` and ``|alpha_j|`` within its factors' degrees
(:func:`_bounded_pairs`), or the full list when those are most of it.  The
pairs it skips multiply an exact zero, so a chart's polynomial tape runs a
few percent of the full convolution.  The bound is the jet's own, set by
the arithmetic that makes the jet; tape blocks are sized by one jet's
coefficients (:func:`ctlab.geometry.block_size`), not by it.

Multi-indices are enumerated in graded order (degree first), so the
enumeration for a lower truncation order is always a prefix of the
enumeration for a higher one and truncation is a plain slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

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
    """Global differentiation settings: the jet truncation order."""

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
    mul_i, mul_j : convolution triples alpha_i + alpha_j = alpha_out for
        every pair with |alpha_i| + |alpha_j| <= order, sorted by out.
    seg_starts : first triple position of each out index (for reduceat).
    pad_i, pad_j : (N, w) int arrays, the same triples as one row per out
        index: row p lists the pairs (i, j) with alpha_i + alpha_j =
        alpha_p, and w is the largest pair count of any out index.  Unused
        slots hold N, the index of the zero row that :func:`jet_einsum`
        appends to each operand.
    width_by_order : width_by_order[d] = the largest pair count of any out
        index of degree d; the same in every table of order >= d.
    dsrc, dmul : (size_by_order[order - 1], dim) differentiation maps;
        the coefficient of d/dx_v at the k-th alpha is
        ``coeffs[dsrc[k, v]] * dmul[k, v]``, so row k gathers every
        partial of one output coefficient.
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

        tri = []
        for i, ai in enumerate(alphas):
            room = order - int(self.degree[i])
            for j in range(size_by_order[room]):
                out = self.index[tuple(x + y for x, y in zip(ai, alphas[j]))]
                tri.append((out, i, j))
        tri.sort()
        # copied so that each row is contiguous: a gather by a strided
        # index array pays for it on every jet product
        out, self.mul_i, self.mul_j = np.array(tri, dtype=np.int64).T.copy()
        self.seg_starts = np.concatenate(([0], np.flatnonzero(np.diff(out)) + 1))
        slot = np.arange(len(out)) - self.seg_starts[out]
        width = int(slot.max()) + 1
        self.pad_i = np.full((self.size, width), self.size, dtype=np.int64)
        self.pad_j = self.pad_i.copy()
        self.pad_i[out, slot] = self.mul_i
        self.pad_j[out, slot] = self.mul_j
        count = np.bincount(out)
        self.width_by_order = [int(count[lo:hi].max()) for lo, hi in
                               zip([0] + size_by_order, size_by_order)]

        if order >= 1:
            nprev = size_by_order[order - 1]
            self.dsrc = np.empty((nprev, dim), dtype=np.int64)
            self.dmul = np.empty((nprev, dim), float)
            for k in range(nprev):
                for v in range(dim):
                    a = list(alphas[k])
                    a[v] += 1
                    self.dsrc[k, v] = self.index[tuple(a)]
                    self.dmul[k, v] = a[v]


@lru_cache(maxsize=None)
def table(dim: int, order: int) -> MultiIndexTable:
    return MultiIndexTable(dim, order)


# ---------------------------------------------------------------------------
# coefficient-array kernels (axes = point, multi-index, tensor slots)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Operand:
    """One operand of :func:`jet_einsum` at one shape, laid out as
    ``[point, coeff, contracted, free]``: the rows it reads, the axis
    permutation, the buffer with a zero row appended to each point's
    coefficients, that buffer's view in tensor axes, and the padded pair
    list it is gathered along.  Every shape but the number of points is
    fixed here, so a call only allocates and copies, and one plan serves
    chunks of any size."""

    rows: tuple[slice, slice]
    perm: tuple[int, ...]
    buf: tuple[int, ...]        # one point's buffer
    view: tuple[int, ...]
    pad: np.ndarray
    gathered: tuple[int, ...]

    def gather(self, x: np.ndarray) -> np.ndarray:
        """``x[:, :n]`` in this layout, gathered along the pair list: shape
        (P, n, w * contracted, free), each point's block as it would be
        alone."""
        buf = np.zeros((len(x),) + self.buf)
        buf.reshape(self.view)[self.rows] = x[self.rows].transpose(self.perm)
        # take copies whole rows, where indexing goes entry by entry
        return buf.take(self.pad, axis=1).reshape(self.gathered)


@dataclass(frozen=True)
class _EinsumPlan:
    a: _Operand
    b: _Operand
    shape: tuple[int, ...]  # the product as (-1, n, *free_a, *free_b)
    perm: tuple[int, ...]   # product axes -> (point, coeff, *out)


@lru_cache(maxsize=None)
def _einsum_plan(spec: str, a_shape: tuple[int, ...], b_shape: tuple[int, ...],
                 dim: int, order: int) -> _EinsumPlan:
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    if (len(set(sa)) < len(sa) or len(set(sb)) < len(sb)
            or len(set(out)) < len(out)
            or set(out) != set(sa) ^ set(sb)):
        raise ValueError(
            f"jet_einsum spec {spec!r}: each index must occur once per "
            f"operand and be either contracted or an output of one operand")
    t = table(dim, order)
    n = t.size
    size = dict(zip(sa, a_shape[1:]))
    size.update(zip(sb, b_shape[1:]))
    contracted = [c for c in sa if c in sb]
    free_a = [c for c in out if c in sa]
    free_b = [c for c in out if c in sb]

    def operand(sub: str, free: list[str], pad: np.ndarray) -> _Operand:
        axes = contracted + free
        nc = math.prod(size[c] for c in contracted)
        nf = math.prod(size[c] for c in free)
        return _Operand((slice(None), slice(None, n)),
                        (0, 1) + tuple(2 + sub.index(c) for c in axes),
                        (n + 1, nc, nf),
                        (-1, n + 1) + tuple(size[c] for c in axes),
                        pad.ravel(), (-1, n, pad.shape[1] * nc, nf))

    axes = ["@", "#"] + free_a + free_b
    return _EinsumPlan(operand(sa, free_a, t.pad_i), operand(sb, free_b, t.pad_j),
                       (-1, n) + tuple(size[c] for c in free_a + free_b),
                       tuple(axes.index(c) for c in "@#" + out))


def jet_einsum(spec: str, a: np.ndarray, b: np.ndarray, dim: int,
               order_a: int, order_b: int) -> np.ndarray:
    """Jet-valued einsum over a chunk of points: ``a`` and ``b`` are
    ``(P, ncoeff, *tensor)``; contract their tensor axes per ``spec`` while
    convolving the coefficient axes, point by point.  Output order is
    ``min(order_a, order_b)`` (the truncation a product can support).

    Every index occurs once per operand, and an index of both operands is
    contracted.  One batched GEMM per point and output coefficient sums the
    pairs of the convolution and the contracted indices together, the GEMM
    each point would run alone, so each point's product is bit for bit its
    product as a chunk of one."""
    plan = _einsum_plan(spec, a.shape[1:], b.shape[1:], dim,
                        min(order_a, order_b))
    prod = np.matmul(plan.a.gather(a).swapaxes(-1, -2), plan.b.gather(b))
    return prod.reshape(plan.shape).transpose(plan.perm)


def jet_inverse(g: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Jet-ring inverse of jets of invertible matrices, (P, N, m, m).

    The graded Taylor recurrence: with ``Y_0 = G_0^-1`` and
    ``H_i = Y_0 G_i``, each coefficient ``p`` of degree d is
    ``Y_p = -sum H_i Y_j`` over the pairs ``alpha_i + alpha_j = alpha_p``
    with ``|alpha_i| >= 1``, which reads only rows of Y of lower degree.
    Each degree is one padded GEMM per point over its rows, laid out as in
    :func:`jet_einsum`, with H's constant row zero and the pad trimmed to
    the degree's own largest pair count.  A degree's rows, pairs and width
    are the same in every table of order >= d, so the inverse at order K
    truncated to K' is the inverse at K' bit for bit."""
    t = table(dim, order)
    n = t.size
    p, m = len(g), g.shape[-1]
    y = np.zeros((p, n + 1, m, m))
    y[:, 0] = np.linalg.inv(g[:, 0])
    h = np.zeros((p, n + 1, m, m))  # H_i transposed: [coeff, contracted, free]
    for d in range(1, order + 1):
        lo, hi = t.size_by_order[d - 1], t.size_by_order[d]
        w = t.width_by_order[d]
        h[:, lo:hi] = (y[:, :1] @ g[:, lo:hi]).swapaxes(-1, -2)
        a = h.take(t.pad_i[lo:hi, :w].ravel(), axis=1).reshape(p, hi - lo, -1, m)
        b = y.take(t.pad_j[lo:hi, :w].ravel(), axis=1).reshape(p, hi - lo, -1, m)
        y[:, lo:hi] = -(a.swapaxes(-1, -2) @ b)
    return y[:, :n]


def jet_partial(a: np.ndarray, v: int, dim: int, order: int) -> np.ndarray:
    """Coefficients of d/dx_v of one point's jet array, ``(ncoeff,
    *tensor)``; output order drops by one."""
    if order < 1:
        raise JetOrderError("jet order exhausted: cannot differentiate order-0 jet")
    t = table(dim, order)
    mul = t.dmul[:, v].reshape((-1,) + (1,) * (a.ndim - 1))
    return a[t.dsrc[:, v]] * mul


def _gradient_view(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Every partial of a chunk's jet array, ``[point, coeff, *tensor, v]``,
    as a view: one ``take`` gathers the rows of all ``dim`` partials as
    ``[point, coeff, v, *tensor]``, multiplied in place, and a plain
    transpose puts ``v`` last."""
    if order < 1:
        raise JetOrderError("jet order exhausted: cannot differentiate order-0 jet")
    t = table(dim, order)
    rows = a.take(t.dsrc, axis=1)
    rows *= t.dmul.reshape(t.dmul.shape + (1,) * (a.ndim - 2))
    return rows.transpose((0, 1) + tuple(range(3, a.ndim + 1)) + (2,))


def jet_gradient(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Every partial of a chunk's jet array at once, the derivative axis
    last: ``out[j, ..., v]`` is :func:`jet_partial` of ``a[j]`` along ``v``
    bit for bit, and C-contiguous, as their stack would be."""
    return np.ascontiguousarray(_gradient_view(a, dim, order))


@lru_cache(maxsize=None)
def _slot_plans(a_shape: tuple[int, ...], gamma_shape: tuple[int, ...],
                lift_shape: tuple[int, ...] | None, pairs: int, dim: int,
                order: int) -> tuple[_EinsumPlan, ...]:
    """The :func:`jet_einsum` plan of each slot's connection term in
    :func:`jet_cov_deriv`: ``y{s}z,{a with slot s as y}->{a}z``, against
    the lift for the first ``pairs`` slots and Gamma for the others."""
    sub = "abcdefghijklmnopqrstuvwx"[:len(a_shape) - 1]
    return tuple(_einsum_plan(f"y{c}z,{sub[:s]}y{sub[s + 1:]}->{sub}z",
                              lift_shape if s < pairs else gamma_shape,
                              a_shape, dim, order)
                 for s, c in enumerate(sub))


def jet_cov_deriv(a: np.ndarray, gamma: np.ndarray, dim: int, order: int,
                  pairs: int = 0, lift: np.ndarray | None = None) -> np.ndarray:
    """Covariant derivative of a fully covariant tensor jet ``a`` of order
    ``order`` over a chunk of points, with Christoffel symbols ``gamma`` as
    ``[point, coeff, l, j, k] = Gamma^l_{jk}`` of order ``order - 1`` or
    more: the gradient minus, slot by slot, ``Gamma^y_{a_s z}`` times ``a``
    with slot ``s`` as ``y``.  Output order is ``order - 1``, derivative
    slot last, C-contiguous.

    The first ``pairs`` slots of ``a`` may be antisymmetric pairs stored
    packed (:func:`pack_pairs`).  A pair slot's two connection terms are
    one, ``L[(cd), (ab), z] T_(cd)`` summed over the pairs c < d, with
    ``lift`` the :func:`jet_pair_lift` of Gamma at order ``order - 1`` or
    more, so the slot runs as any other with pair indices of size
    ``m(m-1)/2``; its output stays packed.

    Each slot's term is the product :func:`jet_einsum` makes for its spec,
    on the same operands and in the same GEMM, subtracted in slot order, so
    the result is bit for bit :func:`jet_gradient` minus the per-slot
    ``jet_einsum``.  The layout ``[point, coeff, y | a_s, z]`` of Gamma (and
    of the lift) is the same in every slot, so each is gathered once per
    call, and the first subtraction writes the gradient's view into the
    output's layout."""
    out = _gradient_view(a, dim, order)
    plans = _slot_plans(a.shape[1:], gamma.shape[1:],
                        None if lift is None else lift.shape[1:], pairs, dim,
                        order - 1)
    if not plans:
        return np.ascontiguousarray(out)
    ops = {}  # gathered operand by slot kind: pair (True) or plain
    dst = np.empty(out.shape)
    for s, plan in enumerate(plans):
        kind = s < pairs
        if kind not in ops:
            ops[kind] = plan.a.gather(lift if kind else gamma).swapaxes(-1, -2)
        prod = np.matmul(ops[kind], plan.b.gather(a))
        out = np.subtract(out, prod.reshape(plan.shape).transpose(plan.perm),
                          out=dst)
    return out


# ---------------------------------------------------------------------------
# antisymmetric pairs stored packed (2-form slots)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pair_maps(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2-form slots of dimension ``dim``: ``pairs`` is ``(M, 2)``, the
    pairs a < b in lexicographic order, M = dim(dim-1)/2; ``index[a, b]``
    is the pair of {a, b} (M on the diagonal, the zero slot that
    :func:`unpack_pairs` appends), and ``sign[a, b]`` is -1 where a > b,
    else +1.  Read-only."""
    pairs = np.array(list(combinations(range(dim), 2)),
                     dtype=np.int64).reshape(-1, 2)
    index = np.full((dim, dim), len(pairs), dtype=np.int64)
    sign = np.ones((dim, dim))
    lo, hi = pairs.T
    index[lo, hi] = index[hi, lo] = np.arange(len(pairs))
    sign[hi, lo] = -1.0
    for x in (pairs, index, sign):
        x.setflags(write=False)
    return pairs, index, sign


@lru_cache(maxsize=None)
def _pair_slots(dim: int, pairs: int) -> tuple[tuple[np.ndarray, ...],
                                                np.ndarray, np.ndarray]:
    """The maps of :func:`pack_pairs` and :func:`unpack_pairs` for
    ``pairs`` leading pair slots: the index arrays that pick every pair
    slot's components a < b at once, and for each unpacked component, the
    flat index of its packed one among ``(M + 1)^pairs`` (index M of a
    pair slot being the zero slot of its diagonal) and its sign."""
    ab, index, sign = pair_maps(dim)
    picks, flat, signs = [], np.zeros((), dtype=np.int64), np.ones(())
    for s in range(pairs):
        grid = (1,) * s + (-1,) + (1,) * (pairs - s - 1)
        picks += [ab[:, 0].reshape(grid), ab[:, 1].reshape(grid)]
        grid = (1,) * 2 * s + (dim, dim) + (1,) * 2 * (pairs - s - 1)
        flat = flat * (len(ab) + 1) + index.reshape(grid)
        signs = signs * sign.reshape(grid)
    return tuple(picks), flat.ravel(), signs.ravel()


def pack_pairs(a: np.ndarray, pairs: int, dim: int) -> np.ndarray:
    """A chunk's jet array ``(P, ncoeff, m, m, ..., m)`` whose first
    ``pairs`` pairs of slots are antisymmetric, with each such pair stored
    as its components a < b: ``(P, ncoeff, M, ..., M, m, ...)``, one
    gather."""
    return a[(slice(None), slice(None)) + _pair_slots(dim, pairs)[0]]


def unpack_pairs(a: np.ndarray, pairs: int, dim: int) -> np.ndarray:
    """The inverse of :func:`pack_pairs`: each of the first ``pairs`` pair
    slots of ``a`` read back as two slots, ``T_ba = -T_ab`` and zero on the
    diagonal, by one gather from ``a`` with a zero slot appended to each
    pair slot; ``a`` itself when ``pairs`` is 0."""
    if not pairs:
        return a
    _, flat, signs = _pair_slots(dim, pairs)
    p, n, rest = *a.shape[:2], a.shape[2 + pairs:]
    padded = np.zeros((p, n) + (len(pair_maps(dim)[0]) + 1,) * pairs + rest)
    padded[(slice(None), slice(None)) + (slice(-1),) * pairs] = a
    out = padded.reshape((p, n, -1) + rest).take(flat, axis=2)
    out *= signs.reshape((-1,) + (1,) * len(rest))
    return out.reshape((p, n) + (dim,) * 2 * pairs + rest)


@lru_cache(maxsize=None)
def _lift_map(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Where :func:`jet_pair_lift` reads each entry ``[(cd), (ab), z]``:
    the flat Gamma indices ``l * m^2 + j * m + k`` of its two terms
    (``m^3``, a zero slot, for a term that is absent) and their signs, each
    ``(2, M * M * m)``."""
    m = dim
    pairs = pair_maps(dim)[0]
    src = np.full((2, len(pairs), len(pairs), m), m ** 3, dtype=np.int64)
    sign = np.zeros(src.shape)
    for q, (c, d) in enumerate(pairs):
        for p, (a, b) in enumerate(pairs):
            # Gamma^c_az d_bd - Gamma^d_az d_bc + Gamma^d_bz d_ac
            # - Gamma^c_bz d_ad, two terms at most as a < b and c < d
            terms = [(s, l, j) for s, l, j, hit in (
                (1.0, c, a, b == d), (-1.0, d, a, b == c),
                (1.0, d, b, a == c), (-1.0, c, b, a == d)) if hit]
            for t, (s, l, j) in enumerate(terms):
                src[t, q, p] = (l * m + j) * m + np.arange(m)
                sign[t, q, p] = s
    return src.reshape(2, -1), sign.reshape(2, -1)


def jet_pair_lift(gamma: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Gamma lifted to the 2-form slots, a chunk's jet array
    ``L[point, coeff, (cd), (ab), z]`` of order ``order`` over the pairs
    c < d and a < b, so that for an antisymmetric pair slot
    ``Gamma^y_{az} T_{yb} + Gamma^y_{bz} T_{ay} = sum_(cd) L[(cd), (ab), z]
    T_(cd)``: the connection term of a packed pair slot in
    :func:`jet_cov_deriv`.  One signed gather from ``gamma``, ``[point,
    coeff, l, j, k] = Gamma^l_{jk}`` of order ``order`` or more."""
    src, sign = _lift_map(dim)
    n = table(dim, order).size
    m, p = dim, len(gamma)
    flat = np.zeros((p, n, m ** 3 + 1))
    flat[:, :, :-1] = gamma[:, :n].reshape(p, n, -1)
    terms = flat.take(src, axis=2) * sign
    pairs = len(pair_maps(dim)[0])
    return (terms[:, :, 0] + terms[:, :, 1]).reshape(p, n, pairs, pairs, m)


def _kept(t: MultiIndexTable, da: int, db: int) -> np.ndarray | None:
    """The mask of the triples of ``t`` that can be non-zero when the first
    factor's coefficients vanish above degree ``da`` and the second's above
    ``db``, or None when they are more than half the triples: a product
    then runs the table's own list, which at most doubles its work, all of
    it on exact zeros, and no cache holds a near copy of the table."""
    keep = (t.degree[t.mul_i] <= da) & (t.degree[t.mul_j] <= db)
    return None if 2 * np.count_nonzero(keep) > len(keep) else keep


@lru_cache(maxsize=None)
def _bounded_pairs(dim: int, order: int, da: int,
                   db: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The convolution triples of ``table(dim, order)``, ``order <= da +
    db``, that :func:`_kept` keeps for factor degrees ``da`` and ``db``:
    ``(mul_i, mul_j, seg_starts)`` as in the table and in its order, every
    out index keeping at least one pair; read-only.  The table's own arrays
    where :func:`_kept` keeps them all."""
    t = table(dim, order)
    keep = _kept(t, da, db)
    if keep is None:
        return t.mul_i, t.mul_j, t.seg_starts
    out = np.repeat(np.arange(t.size), np.diff(t.seg_starts,
                                               append=len(t.mul_i)))[keep]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(out)) + 1))
    pairs = t.mul_i[keep], t.mul_j[keep], starts
    for x in pairs:
        x.setflags(write=False)
    return pairs


def truncate_coeffs(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """A chunk's jet array truncated to ``order``: a view."""
    return a[:, : table(dim, order).size]


# ---------------------------------------------------------------------------
# scalar jets
# ---------------------------------------------------------------------------

class Jet:
    """A truncated multivariate Taylor expansion of a scalar at a point.

    ``coeffs[k]`` is ``d^alpha h / alpha!`` for the k-th multi-index of the
    graded enumeration; in particular ``coeffs[0]`` is the plain value.
    Jets are immutable; all arithmetic returns fresh jets of the same
    ``(dim, order)``.

    ``degree`` bounds the total degree of the non-zero coefficients, at
    most ``order``: every coefficient past ``table.size_by_order[degree]``
    is exactly 0.0.  A lifted constant has degree 0 and a coordinate
    degree 1; a sum or difference takes the larger degree, negation and
    scaling by a float keep it, and a product's is the sum of its
    factors', capped at ``order``.  A product gathers only the pairs its
    factors' degrees allow (all of the table's when those are most of
    them), so every coefficient above its own degree comes out zero.  A
    jet built without a degree is dense (degree ``order``).

    ``coeffs`` may also have shape ``(ncoeff, P)``: a block of P jets of
    one function, column ``p`` at the p-th of P base points.  Every
    operation then does, column by column, the arithmetic it does on one
    jet: the same Cauchy product, the same lifted constants, and each
    point's constant term through the same ``math`` calls, so each column
    is bit for bit the jet its point gives alone.  :attr:`value` and
    :meth:`coefficient` read one jet only.
    """

    __slots__ = ("dim", "order", "coeffs", "degree")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray,
                 degree: int | None = None):
        self.dim = dim
        self.order = order
        self.coeffs = coeffs
        self.degree = order if degree is None else degree

    # -- construction -------------------------------------------------------

    @staticmethod
    def lift(value, dim: int, order: int, slot: int | None = None) -> "Jet":
        """Constant jet, or the jet of the coordinate function ``x_slot``;
        ``value`` is one float, or a 1-D array of one per point of a block."""
        t = table(dim, order)
        value = np.asarray(value)
        c = np.zeros((t.size,) + value.shape)
        c[0] = value
        if slot is not None:
            if not 0 <= slot < dim:
                raise JetError(f"coordinate slot {slot} out of range for dim {dim}")
            if order >= 1:
                c[t.index[tuple(1 if v == slot else 0 for v in range(dim))]] = 1.0
        return Jet(dim, order, c, 0 if slot is None else min(1, order))

    def _like(self, coeffs: np.ndarray, degree: int) -> "Jet":
        return Jet(self.dim, self.order, coeffs, degree)

    def _const(self, value) -> "Jet":
        """The constant jet ``value`` (one float, or one per column), shaped
        like this one."""
        c = np.zeros(self.coeffs.shape)
        c[0] = value
        return self._like(c, 0)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if (other.dim, other.order) != (self.dim, self.order):
                raise JetError(
                    f"jet mismatch: ({self.dim},{self.order}) vs "
                    f"({other.dim},{other.order})"
                )
            return other
        return self._const(float(other))

    def _series(self, terms) -> np.ndarray:
        """``terms(a0)``, the univariate Taylor coefficients of an outer
        function at a constant term ``a0`` as a list of ``order + 1``
        floats, at this jet's constant term; for a block, at each column's,
        as the columns of an ``(order + 1, P)`` array."""
        a0 = self.coeffs[0]
        if a0.ndim == 0:
            return np.array(terms(float(a0)))
        return np.array([terms(float(x)) for x in a0]).T

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
        return self.coefficient(alpha) * math.prod(
            math.factorial(e) for e in alpha)

    def __repr__(self):
        if self.coeffs.ndim > 1:
            return (f"Jet(dim={self.dim}, order={self.order}, "
                    f"block of {self.coeffs.shape[1]})")
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value:.6g})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return self._like(self.coeffs + o.coeffs, max(self.degree, o.degree))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._like(self.coeffs - o.coeffs, max(self.degree, o.degree))

    def __rsub__(self, other):
        o = self._coerce(other)
        return self._like(o.coeffs - self.coeffs, max(self.degree, o.degree))

    def __neg__(self):
        return self._like(-self.coeffs, self.degree)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * float(other), self.degree)
        o = self._coerce(other)
        deg = min(self.degree + o.degree, self.order)
        # the pairs of a product below the order are those of the table at
        # its degree, so products at every order share them
        mul_i, mul_j, starts = _bounded_pairs(self.dim, deg, self.degree,
                                              o.degree)
        # take copies whole rows of a block, where indexing goes by entry
        prod = self.coeffs.take(mul_i, axis=0) * o.coeffs.take(mul_j, axis=0)
        c = np.zeros(self.coeffs.shape)
        np.add.reduceat(prod, starts, axis=0, out=c[:len(starts)])
        return self._like(c, deg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs / float(other), self.degree)
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, r):
        return power(self, r)

    # -- composition --------------------------------------------------------

    def compose(self, series: np.ndarray) -> "Jet":
        """Horner evaluation of ``sum_n series[n] * (self - value)^n``.

        ``series`` holds the univariate Taylor coefficients of the outer
        function at the jet's value (for a block, one column per point);
        this is the standard recurrence-free form of univariate composition
        for truncated series.
        """
        hat = self.coeffs.copy()
        hat[0] = 0.0
        hat_jet = self._like(hat, self.degree)
        out = self._const(series[self.order])
        for n in range(self.order - 1, -1, -1):
            out = out * hat_jet + self._const(series[n])
        return out

    def reciprocal(self) -> "Jet":
        def terms(a0):
            if a0 == 0.0:
                raise JetDomainError("division by a jet with zero constant term")
            return [(-1.0) ** n / a0 ** (n + 1) for n in range(self.order + 1)]
        return self.compose(self._series(terms))


# -- elementary functions ----------------------------------------------------

def _check_positive(a: Jet, what: str) -> None:
    """Raise at the first constant term of ``a`` that is zero or below."""
    if (a.coeffs[0] <= 0.0).any():
        x = next(x for x in np.ravel(a.coeffs[0]) if x <= 0.0)
        raise JetDomainError(f"{what} of non-positive value {float(x)}")


def exp(a: Jet) -> Jet:
    def terms(x):
        e = math.exp(x)
        return [e / math.factorial(n) for n in range(a.order + 1)]
    return a.compose(a._series(terms))


def log(a: Jet) -> Jet:
    _check_positive(a, "log")
    return a.compose(a._series(lambda x: [math.log(x)] + [
        (-1.0) ** (n + 1) / (n * x ** n) for n in range(1, a.order + 1)]))


def _trig(a: Jet, cycle) -> Jet:
    """Compose with a function whose derivatives at ``x`` repeat with
    period 4 as ``cycle(x)``."""
    def terms(x):
        f = cycle(x)
        return [f[n % 4] / math.factorial(n) for n in range(a.order + 1)]
    return a.compose(a._series(terms))


def sin(a: Jet) -> Jet:
    def cycle(x):
        s, c = math.sin(x), math.cos(x)
        return s, c, -s, -c
    return _trig(a, cycle)


def cos(a: Jet) -> Jet:
    def cycle(x):
        s, c = math.sin(x), math.cos(x)
        return c, -s, -c, s
    return _trig(a, cycle)


def sinh(a: Jet) -> Jet:
    def cycle(x):
        s, c = math.sinh(x), math.cosh(x)
        return s, c, s, c
    return _trig(a, cycle)


def cosh(a: Jet) -> Jet:
    def cycle(x):
        s, c = math.sinh(x), math.cosh(x)
        return c, s, c, s
    return _trig(a, cycle)


def sqrt(a: Jet) -> Jet:
    _check_positive(a, "sqrt")
    return power(a, 0.5)


def power(a: Jet, r: float) -> Jet:
    """a**r; integer exponents work for any base, fractional need a0 > 0."""
    if isinstance(r, float) and r.is_integer():
        r = int(r)
    if isinstance(r, int):
        if r == 0:
            return a._const(1.0)
        base = a if r > 0 else a.reciprocal()
        out = base
        for _ in range(abs(r) - 1):
            out = out * base
        return out
    _check_positive(a, "fractional power")

    def terms(x):
        series = [x ** r]
        coef = 1.0
        for n in range(1, a.order + 1):
            coef *= (r - (n - 1)) / n
            series.append(coef * x ** (r - n))
        return series
    return a.compose(a._series(terms))


FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "sinh": sinh,
    "cosh": cosh,
    "sqrt": sqrt,
}
