"""Point-local tensor calculus on a coordinate chart.

A :class:`GeometryInstance` turns a parsed :class:`~ctlab.exprlang.GeometrySpec`
into evaluable data: at each requested point it builds jets of the metric
entries and of the optional scalar/vector fields, inverts the metric in the
jet ring, forms Christoffel symbols, and exposes covariant differentiation
of tensor jets (:meth:`PointState.cov_deriv`).  The fields are the chart's
own; read their derivatives as ``curvature.bundle(g, p).coord("f", k)``.

Tensor fields are held as :class:`TensorJet` values at a chunk of points,
``(P, ncoeff, m, ..., m)``: the point axis first, then the multi-index
coefficients (see :mod:`ctlab.jets`).  Riemann-type fields keep their two
leading antisymmetric pairs packed as the components a < b, ``(P, ncoeff,
M, M, m, ...)`` with M = m(m-1)/2 (``TensorJet.pairs``), and are read
back unpacked only where values leave the jet layer.  A single point is a
chunk of one, so one covariant derivative is one call of
:func:`~ctlab.jets.jet_cov_deriv` for any number of points: all partials in
one gather, then one batched GEMM per slot and point against a Christoffel
operand gathered once, the GEMM each point runs alone; a packed pair slot
runs against the Christoffel symbols lifted to 2-forms, which the point
state builds once (:meth:`PointState.pair_lift`).  Every covariant
derivative consumes one jet order; derived objects therefore carry exactly
``config.order - (metric derivative depth)`` orders, and requests past that
depth raise :class:`~ctlab.jets.JetOrderError` instead of silently
truncating.

A verification pass works on :meth:`GeometryInstance.at_order` of the
chart, at the lowest order its records need, so ``config.order`` there is
the working order; the configured order is the cap.  It walks its points
in chunks (:func:`point_blocks`): the chart's tape is evaluated a block of
points at a time, and each chunk of a block builds one point state (and,
through :mod:`ctlab.curvature`, one curvature bundle) per geometry for all
its points at once.  The walk's first chunk is sized from the dimension
and the working order alone (:func:`first_chunk`); after it, a chunk
holds ``max(1, BLOCK_BYTES // the bytes a point of the first chunk held
in its states and bundles)`` points.  :func:`walk_chunks` holds the walk's
one failure rule, under which every error and warning comes at its own
point.  A lone point is a chunk of one, kept in the geometry's per-point
cache.

Orthonormal-frame components are produced by contracting value arrays with
the inverse Cholesky factor of the metric at each point (the vielbein);
this happens only after all covariant derivatives are taken, which is
legitimate because the converted objects are tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import GeometrySpec
from .jets import (
    JetConfig,
    JetOrderError,
    jet_cov_deriv,
    jet_einsum,
    jet_gradient,
    jet_inverse,
    jet_pair_lift,
    pack_pairs,
    table,
    truncate_coeffs,
    unpack_pairs,
)


class MetricError(ValueError):
    """The metric failed a pointwise validity check (not positive definite)."""


@dataclass
class TensorValue:
    """Dense point-local components; the comma convention puts derivative
    indices last, outermost last."""

    components: np.ndarray


@dataclass
class TensorJet:
    """A tensor field's jet coefficients at a chunk of points:
    (P, ncoeff, m, ..., m).

    A Riemann-type field, antisymmetric in its slots (01) and (23), is
    stored with those two pairs packed (``pairs`` = 2): each pair slot
    holds the components a < b only, (P, ncoeff, M, M, m, ..., m) with
    M = m(m-1)/2, as :func:`~ctlab.jets.pack_pairs` lays them out.  Its
    covariant derivatives stay packed; :meth:`value` and :meth:`unpacked`
    read it back as the full tensor, and the products :func:`tj_einsum`
    and :func:`tj_transpose` refuse it, so the two layouts never mix."""

    coeffs: np.ndarray
    dim: int
    order: int
    pairs: int = 0

    @property
    def rank(self) -> int:
        return self.coeffs.ndim - 2 + self.pairs

    def value(self) -> np.ndarray:
        """The field's values at the chunk's points, (P, m, ..., m)."""
        return np.array(unpack_pairs(self.coeffs[:, :1], self.pairs,
                                     self.dim)[:, 0])

    def truncate(self, order: int) -> "TensorJet":
        """The same field at jet order ``order`` or lower, a view."""
        q = min(order, self.order)
        return TensorJet(truncate_coeffs(self.coeffs, self.dim, q), self.dim,
                         q, self.pairs)

    def packed(self) -> "TensorJet":
        """This field, antisymmetric in its slots (01) and (23), with those
        pairs packed."""
        if self.pairs:
            raise ValueError(_PACKED)
        return TensorJet(pack_pairs(self.coeffs, 2, self.dim), self.dim,
                         self.order, 2)

    def unpacked(self) -> "TensorJet":
        """This field with every slot stored in full."""
        return TensorJet(unpack_pairs(self.coeffs, self.pairs, self.dim),
                         self.dim, self.order)


_PACKED = "a packed tensor jet needs unpacked() before a product or a transpose"


def tj_combine(*pairs: tuple[float, TensorJet]) -> TensorJet:
    """Linear combination of tensor jets, truncated to the lowest order;
    either all unpacked or all packed alike."""
    q = min(t.order for _, t in pairs)
    dim, packed = pairs[0][1].dim, pairs[0][1].pairs
    out = None
    for c, t in pairs:
        if t.pairs != packed:
            raise ValueError("tj_combine of packed and unpacked tensor jets")
        arr = truncate_coeffs(t.coeffs, dim, q) * c
        out = arr if out is None else out + arr
    return TensorJet(out, dim, q, packed)


def tj_einsum(spec: str, a: TensorJet, b: TensorJet) -> TensorJet:
    if a.pairs or b.pairs:
        raise ValueError(_PACKED)
    q = min(a.order, b.order)
    out = jet_einsum(spec, truncate_coeffs(a.coeffs, a.dim, q),
                     truncate_coeffs(b.coeffs, b.dim, q), a.dim, q, q)
    return TensorJet(out, a.dim, q)


def tj_transpose(a: TensorJet, perm: tuple[int, ...]) -> TensorJet:
    """Permute trailing tensor axes (perm indexes trailing axes only)."""
    if a.pairs:
        raise ValueError(_PACKED)
    full = (0, 1) + tuple(p + 2 for p in perm)
    return TensorJet(np.transpose(a.coeffs, full), a.dim, a.order)


def tj_skew_pair(a: TensorJet, b: TensorJet) -> TensorJet:
    """``out[i,j,k] = a_k b_ij - a_j b_ik`` -- the recurring skew pattern of
    the soliton tensors."""
    t = tj_einsum("k,ij->ijk", a, b)
    return tj_combine((1.0, t), (-1.0, tj_transpose(t, (0, 2, 1))))


def christoffel_sum(g: TensorJet) -> TensorJet:
    """d_j g_rk + d_k g_rj - d_r g_jk as [r, j, k], of order one less than
    ``g``: twice the Christoffel symbols of the first kind Gamma_{r,jk}."""
    dg = jet_gradient(g.coeffs, g.dim, g.order)  # [a, b, v] = d_v g_ab
    return TensorJet(
        dg.transpose(0, 1, 2, 4, 3) + dg - dg.transpose(0, 1, 4, 2, 3),
        g.dim, g.order - 1)


def held_bytes(*objects) -> int:
    """Bytes of the distinct arrays that point states and curvature bundles
    hold: their jets, values and frames, each base array counted once."""
    bases = {}
    for obj in objects:
        for x in (obj.arrays() if obj is not None else ()):
            while isinstance(x.base, np.ndarray):
                x = x.base
            bases[id(x)] = x.nbytes
    return sum(bases.values())


class PointState:
    """All metric-level jet data of one geometry at a chunk of points.

    ``point`` is one point or a ``(P, dim)`` array of points; every jet
    array carries the point axis first.  The jets of the chart's
    expressions are ``roots``, the tape's root jets at the points as
    ``(P, ncoeff)`` arrays when :func:`point_blocks` hands them over from
    its tape block, else the tape evaluated here.  Either way they are the
    same bit for bit, and so are the Cholesky factors, the jet-ring inverse
    (``ginv``, to order K-1) and the Christoffel symbols, which every point
    gets from the kernels as it would alone.
    """

    def __init__(self, geometry: "GeometryInstance", point: np.ndarray,
                 roots=None):
        spec = geometry.spec
        self.geometry = geometry
        self.m = spec.dim
        self.order = geometry.config.order
        m, k = self.m, self.order
        points = np.asarray(point, float).reshape(-1, m)
        for x in points:
            if not spec.contains(x):
                raise MetricError(
                    f"point {point_key(x)} outside the domain box of "
                    f"{spec.name!r}"
                )

        roots = (_root_coeffs(geometry, points) if roots is None
                 else iter(roots))
        g = np.zeros((len(points), table(m, k).size, m, m))
        for i in range(m):
            for j in range(i + 1):
                c = next(roots)
                g[:, :, i, j] = c
                g[:, :, j, i] = c
        self.g = TensorJet(g, m, k)

        g0 = g[:, 0]
        try:
            chol = np.linalg.cholesky(g0)
        except np.linalg.LinAlgError:
            # the first point whose metric is not positive definite
            for x, a in zip(points, g0):
                try:
                    np.linalg.cholesky(a)
                except np.linalg.LinAlgError as err:
                    raise MetricError(
                        f"metric of {spec.name!r} not positive definite at "
                        f"{point_key(x)}"
                    ) from err
            raise
        self.cholesky = chol
        self.vielbein_inv = np.linalg.inv(chol)

        # every reader contracts the inverse with a derivative of order K-1
        # or below, and the inverse is truncation-exact, so order K-1 reads
        # the same bits as order K would
        q = max(k - 1, 0)
        self.ginv = TensorJet(jet_inverse(g, m, q), m, q)
        self._christoffel: TensorJet | None = None
        self._lift: np.ndarray | None = None

        self.u, self.f = [
            None if e is None else TensorJet(np.ascontiguousarray(next(roots)),
                                             m, k)
            for e in (spec.u_expr, spec.f_expr)
        ]
        if spec.x_exprs is not None:
            self.x_contra = TensorJet(
                np.stack([next(roots) for _ in range(m)], axis=-1), m, k)
            self.x_lower = tj_einsum("ab,b->a", self.g, self.x_contra)
        else:
            self.x_contra = None
            self.x_lower = None

    def arrays(self):
        """Every array this state holds, for :func:`held_bytes`."""
        yield from (self.cholesky, self.vielbein_inv)
        for t in (self.g, self.ginv, self.u, self.f, self.x_contra,
                  self.x_lower, self._christoffel):
            if t is not None:
                yield t.coeffs
        if self._lift is not None:
            yield self._lift

    # -- connection ----------------------------------------------------------

    @property
    def christoffel(self) -> TensorJet:
        """Gamma^l_{jk} as a jet field of order K-1 (axes [l, j, k])."""
        if self._christoffel is None:
            self._christoffel = tj_combine(
                (0.5, tj_einsum("lr,rjk->ljk", self.ginv,
                                christoffel_sum(self.g))))
        return self._christoffel

    def pair_lift(self, order: int) -> np.ndarray:
        """Gamma lifted to the 2-form slots at jet order ``order`` or more
        (:func:`~ctlab.jets.jet_pair_lift`): built at the order of the
        first covariant derivative of a packed jet that needs it, and
        again only if a later one needs more."""
        n = table(self.m, order).size
        if self._lift is None or self._lift.shape[1] < n:
            self._lift = jet_pair_lift(self.christoffel.coeffs, self.m, order)
        return self._lift

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
        lift = self.pair_lift(t.order - 1) if t.pairs else None
        out = jet_cov_deriv(t.coeffs, self.christoffel.coeffs, self.m, t.order,
                            t.pairs, lift)
        return TensorJet(out, self.m, t.order - 1, t.pairs)

    # -- frames ---------------------------------------------------------------

    def to_orthonormal(self, arr: np.ndarray) -> np.ndarray:
        """Contract every slot of ``arr``, values at this state's points as
        ``(P, m, ..., m)``, with each point's inverse Cholesky factor,
        turning coordinate components into orthonormal-coframe components.
        Each step contracts the leading slot in one GEMM per point, whose
        product holds that slot last, rotated to the back with no copy,
        so after one step per slot the slots are back in order."""
        x = np.asarray(arr, float)
        shape = x.shape
        p, m = shape[0], self.m
        vt = self.vielbein_inv.swapaxes(-1, -2)
        for _ in range(x.ndim - 1):
            x = np.matmul(x.reshape(p, m, -1).swapaxes(-1, -2), vt)
        return x.reshape(shape)


def _root_coeffs(geometry: "GeometryInstance", points: np.ndarray):
    """The coefficient arrays of the chart's tape roots at ``points``, a
    ``(P, dim)`` array, as ``(P, ncoeff)``, the metric's lower triangle
    first.  The ops of u, f and X are evaluated only once a root of theirs
    is asked for, so that a caller checks the metric before any of them can
    raise."""
    tape = geometry.spec.tape
    m = geometry.dim
    metric = m * (m + 1) // 2
    values = tape.evaluate(points, geometry.config.order, upto=metric)
    for r in tape.roots[:metric]:
        yield values[r].coeffs.T
    tape.evaluate(points, geometry.config.order, values)
    for r in tape.roots[metric:]:
        yield values[r].coeffs.T


def point_key(point) -> tuple[float, ...]:
    """The hashable form of a point, used as the per-point cache key."""
    return tuple(float(x) for x in np.asarray(point, float))


class GeometryInstance:
    """A validated chart plus jet configuration; immutable after parse."""

    def __init__(self, spec: GeometrySpec, config: JetConfig | None = None):
        self.spec = spec
        self.config = config or JetConfig()
        # The cache of lone points, chunks of one: point key -> {"state":
        # PointState, "bundle": CurvatureBundle}.  A walk of point_blocks
        # neither reads nor fills it.
        self._points: dict[tuple[float, ...], dict[str, object]] = {}

    def at_order(self, order: int) -> "GeometryInstance":
        """This chart at jet order ``order``: ``self`` at the configured
        order, else a fresh instance on the same spec (and so the same
        tape) with its own empty cache.  Truncation is a prefix of the
        graded enumeration, so every quantity the lower order still carries
        has the same jet coefficients up to the last bits; see
        :meth:`at_depth` for when they agree bit for bit."""
        if order == self.config.order:
            return self
        return GeometryInstance(self.spec, JetConfig(order))

    def at_depth(self, depth: int) -> "GeometryInstance":
        """This chart at the lowest order that reads a quantity of metric
        derivative depth ``depth`` bit for bit as the configured order
        does: ``max(depth + 1, 4)``, capped at the configured order.  The
        jet-ring inverse is truncation-exact, but a jet product's padded
        GEMM is as wide as its order's largest pair count, and a narrower
        one can sum the same terms in another order: a quantity read at its
        own top order moves in its last bits, and so can one built at order
        3 (``duf_tensor``, which vanishes identically on some charts).  A
        depth past the configured order still raises as it did."""
        return self.at_order(min(self.config.order, max(depth + 1, 4)))

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
        """The lone point's :class:`PointState`, a chunk of one."""
        return self.cached(point, "state", PointState)

    # -- public chart operations ----------------------------------------------

    def christoffel(self, point) -> TensorValue:
        st = self.state(point)
        return TensorValue(st.christoffel.value()[0])

    # -- sampling --------------------------------------------------------------

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform draws from the domain box shrunk 10% away from the
        boundary (chart-edge conditioning guard)."""
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.spec.domain])
        hi = np.array([b for _, b in self.spec.domain])
        width = hi - lo
        return lo + width * (0.05 + 0.9 * rng.random((count, self.dim)))


# Largest number of floats in one array of a tape block: a jet op over a
# block makes the coefficients of its jets, and a jet product gathers and
# multiplies its pairs, for every point, in arrays that stay in cache up to
# about 16k (128 kB); the tape-block table of scripts/layer_bench.py
# measures block sizes on both sides of it against point by point.
# block_size counts the pairs each product of the tape gathers under the
# degree bounds of its factors (exprlang.Tape.most_pairs), not the table's
# dense pair list.
BLOCK_TRIPLES = 16384

# Bytes of point-state and bundle arrays (jets, values, frames) that one
# chunk of points holds per geometry, and of frame values that one block of
# records holds: after the first chunk of a walk, the later points go in
# chunks and blocks of max(1, BLOCK_BYTES // what a point of it held).
BLOCK_BYTES = 1 << 20


def block_size(tape, dim: int, order: int) -> int:
    """Points per block of :func:`point_blocks` in which ``tape`` (an
    :class:`~ctlab.exprlang.Tape`) evaluates jets of ``(dim, order)``: as
    many as keep the coefficients of each op and the pairs of its widest
    product within ``BLOCK_TRIPLES`` floats, at least one."""
    return max(1, BLOCK_TRIPLES // max(table(dim, order).size,
                                       tape.most_pairs(dim, order)))


def first_chunk(*geometries: GeometryInstance) -> int:
    """Points in the first chunk of a walk of :func:`point_blocks` on
    ``geometries``, sized before any point is built: the fewest over them
    of the tape block and of ``max(1, BLOCK_TRIPLES // m ** (K + 2))``,
    with ``K`` the working order.  No tensor a pass can form has more than
    m^(K+2) components a point (Riemann's four slots and K - 2 covariant
    derivatives), so wherever a point is large the chunk is one point."""
    return min(min(block_size(g.spec.tape, g.dim, g.config.order),
                   max(1, BLOCK_TRIPLES // g.dim ** (g.config.order + 2)))
               for g in geometries)


def strict_errstate():
    """``np.errstate`` under which every floating-point error that would
    warn (or worse) raises, and those set to be ignored stay ignored."""
    return np.errstate(**{k: "ignore" if v == "ignore" else "raise"
                          for k, v in np.geterr().items()})


class Chunk:
    """Consecutive points of a walk, with one :class:`PointState` and one
    curvature bundle per geometry of the walk (:meth:`bundle`), each built
    for all the points at once (vector-mode Taylor arithmetic over many
    base points) when first read.  ``roots[n]`` are geometry ``n``'s root
    jets at the points, from their tape block, or None to evaluate the
    tape here."""

    def __init__(self, geometries, points: np.ndarray, roots=None):
        self.geometries = list(geometries)
        self.points = np.asarray(points, float)
        self.roots = roots or [None] * len(self.geometries)
        self.bundles = [None] * len(self.geometries)
        self._fit = None  # the least fit of its points read alone

    def __len__(self) -> int:
        return len(self.points)

    def bundle(self, n: int = 0):
        """The points' :class:`~ctlab.curvature.CurvatureBundle` on
        geometry ``n``, built with its point state on first use."""
        if self.bundles[n] is None:
            from .curvature import CurvatureBundle  # late: it imports us
            self.bundles[n] = CurvatureBundle(PointState(
                self.geometries[n], self.points, self.roots[n]))
        return self.bundles[n]

    def fit(self) -> int:
        """How many points fit in ``BLOCK_BYTES`` on every geometry at the
        bytes a point of this chunk holds in its state and bundle, at least
        one: the held bytes over the chunk's length, or, once the walk has
        read its points alone (:meth:`alone`), the most one of them held."""
        if self._fit is not None:
            return self._fit
        return min(max(1, BLOCK_BYTES * len(self) // max(1, held_bytes(b)))
                   for b in self.bundles)

    def alone(self):
        """Each point as a chunk of its own, with its rows of the roots;
        once the walk leaves one, its :meth:`fit` bounds this chunk's."""
        for j in range(len(self)):
            one = Chunk(self.geometries, self.points[j:j + 1],
                        [None if r is None else [a[j:j + 1] for a in r]
                         for r in self.roots])
            yield one
            self._fit = min(self._fit or BLOCK_BYTES, one.fit())


def _evaluate_block(geometry: GeometryInstance, points: np.ndarray):
    """The jets of the tape's ops over ``points`` from one evaluation of
    the tape, coefficient arrays ``(ncoeff, P)``; ``None`` if that
    evaluation raises or would warn, so that every chunk of the block then
    evaluates its own points' tape and the error or warning comes at its
    point."""
    try:
        with strict_errstate():
            return geometry.spec.tape.evaluate(points, geometry.config.order)
    except Exception:  # whatever it is, its chunk raises it again
        return None


def point_blocks(points, *geometries: GeometryInstance):
    """Yield ``points`` in order as :class:`Chunk` objects on
    ``geometries``.

    The points are taken a tape block at a time: on entering a block, each
    geometry's tape is evaluated over the block's points at once (a block
    holds the fewest :func:`block_size` points of the geometries' tapes),
    and its chunks get their rows of the root jets.  The walk's first chunk
    holds :func:`first_chunk` points, or the points there are.  Once the
    walk leaves it, chunks hold :meth:`Chunk.fit` of it points: ``max(1,
    BLOCK_BYTES // the bytes a point of its state and bundle held)``, the
    smallest such size over the geometries, cut at the end of each block.
    So a later chunk holds no more than ``BLOCK_BYTES`` on any geometry
    unless one point already does.  The first chunk is bounded by its
    points' components instead: on the passes of the full-suite schedule
    and of the benchmark, a first chunk of several points holds at most
    1029 KiB (COMM and SOL on ``euclidean`` dim 3, 7 points), and no more
    than ``BLOCK_BYTES`` on every other.  Every point's jets, values and
    frames are the same bit for bit as point by point.  The walk neither reads nor fills the
    geometries' per-point caches."""
    size = min(block_size(g.spec.tape, g.dim, g.config.order)
               for g in geometries)
    first, chunk_size = first_chunk(*geometries), None
    for start in range(0, len(points), size):
        block = np.asarray(points[start:start + size], float)
        values = [_evaluate_block(g, block) for g in geometries]
        i = 0
        while i < len(block):
            stop = min(i + (chunk_size or first), len(block))
            chunk = Chunk(geometries, block[i:stop], [
                None if v is None else
                [v[r].coeffs[:, i:stop].T for r in g.spec.tape.roots]
                for g, v in zip(geometries, values)])
            yield chunk
            if chunk_size is None:
                chunk_size = chunk.fit()
            i = stop


def walk_chunks(points, geometries, read, take, flush=lambda: None):
    """``take(chunk, read(chunk))`` for each chunk of :func:`point_blocks`,
    in order, so that every error and warning comes at its own point, as
    it would point by point: the walk's one failure rule.  A chunk is
    released before the next one is built.

    ``read`` is tried under :func:`strict_errstate`, where whatever would
    warn raises too.  If it raises, ``flush()`` finishes what ``take`` has
    kept of the points before, and the chunk's points are read again as
    chunks of one, each by this same rule; the walk's first chunk among
    them, of several points, then sizes the later chunks by its points
    read alone (:meth:`Chunk.fit`).  A chunk of one that raises is read
    once more as it is, so its error or warnings come through.  ``read``
    must leave no trace but the chunk's own caches, as it may run twice;
    it may raise to have a chunk's points read alone."""

    def attempt(chunk):
        try:
            with strict_errstate():
                got = read(chunk)
        except Exception:  # whatever it is, it comes again at its point
            flush()
            if len(chunk) > 1:
                for one in chunk.alone():
                    attempt(one)
                return
            got = read(chunk)
        take(chunk, got)

    for chunk in point_blocks(points, *geometries):
        attempt(chunk)
