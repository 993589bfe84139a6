"""Span tracing for the traced benchmark run.

The benchmark wraps functions and methods of the ctlab modules from its own
code; the program itself is unchanged.  Each wrapped call is a span with a
name, a start, a duration and the span that caused it.  A span's self time
is its duration minus the time of its child spans.  A wrapped call costs
one to two microseconds, so end-to-end figures come from untraced runs only.

``instrument`` installs the wrappers and returns a function that removes
them.  Layer metrics are read per round with ``layer_metrics``.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import replace

import numpy as np

from ctlab import catalog, conformal, curvature, exprlang, geometry, identities
from ctlab import jets, report

MODULES = (jets, exprlang, geometry, curvature, conformal, identities, catalog,
           report)

# Quantities CurvatureBundle can build, and the (dim, input rank) pairs of
# single covariant derivatives.  Every pair is reported on every workload;
# a pair that does not occur reads 0.
QUANTITIES = ("metric", "u", "f", "X", "lie_metric", "riemann13", "riemann",
              "ricci", "scalar", "schouten", "weyl", "einstein", "cotton",
              "cotton_weyl_div", "bach", "bach_weyl_div", "d_tensor",
              "dx_tensor", "duf_tensor", "dux_tensor")
COV_DIMS = (3, 4, 5)
COV_RANKS = tuple(range(7))


class Tracer:
    def __init__(self):
        self.on = False
        self.recording = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_id = 1
        self._epoch = time.perf_counter()
        self.reset()

    def reset(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.states = weakref.WeakSet()
        self.bundles = weakref.WeakSet()
        self.state_keys: set = set()

    def count(self, name: str, amount: float = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid]
        t0 = time.perf_counter()
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if self.recording:
                parent = stack[-1][1] if stack else 0
                self.spans.append((sid, parent, name, t0 - self._epoch, dur))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)
        return traced

    def wrap_records(self, records, name: str):
        """Copies of identity or law records whose evaluators are spans."""
        return [replace(r, evaluate=self.wrap(name, r.evaluate)) for r in records]


# ---------------------------------------------------------------------------
# computed cost of one jet_einsum call
# ---------------------------------------------------------------------------

def einsum_cost(spec: str, a_shape, b_shape, dim: int, q: int):
    """(flop, bytes) of one jet-valued einsum done as a convolution over
    coefficient triples.  There are C(2*dim + q, q) triples (pairs of
    multi-indices with total degree <= q) and C(dim + q, q) output
    coefficients.  Each triple multiplies every index combination and sums
    the contracted ones; the output coefficients then sum their triples.
    Bytes count the gathered operands, the per-triple product and the
    result, 8 bytes each.  These are model figures, not measurements."""
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    size = dict(zip(sa, a_shape))
    size.update(zip(sb, b_shape))
    m_all = math.prod(size.values())
    m_out = math.prod(size[c] for c in out)
    triples = math.comb(2 * dim + q, q)
    n = math.comb(dim + q, q)
    flop = 2 * triples * m_all - n * m_out
    nbytes = 8 * (triples * (math.prod(a_shape) + math.prod(b_shape) + m_out)
                  + n * m_out)
    return flop, nbytes


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def instrument(tr: Tracer):
    """Wrap the layer boundaries; returns a function that unwraps them."""
    undo: list[tuple] = []

    def set_attr(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(orig, new):
        """Rebind ``orig`` in every ctlab module that imported it."""
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    set_attr(mod, attr, new)

    def span_function(mod, attr, name):
        replace_function(getattr(mod, attr), tr.wrap(name, getattr(mod, attr)))

    def span_method(cls, attr, name):
        set_attr(cls, attr, tr.wrap(name, cls.__dict__[attr]))

    # jets: the kernels, with their computed cost
    orig_einsum = jets.jet_einsum
    costs: dict = {}

    def jet_einsum(spec, a, b, dim, order_a, order_b):
        if tr.on:
            q = min(order_a, order_b)
            key = (spec, a.shape[1:], b.shape[1:], dim, q)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = einsum_cost(spec, a.shape[1:], b.shape[1:],
                                                dim, q)
            tr.count("jets.jet_einsum.flop", cost[0])
            tr.count("jets.jet_einsum.bytes", cost[1])
            return tr.call("jets.jet_einsum", orig_einsum,
                           (spec, a, b, dim, order_a, order_b), {})
        return orig_einsum(spec, a, b, dim, order_a, order_b)

    replace_function(orig_einsum, jet_einsum)
    span_function(jets, "jet_partial", "jets.jet_partial")
    span_function(exprlang, "eval_expr_jet", "exprlang.eval_expr_jet")

    # geometry: point set-up, connection, derivatives, frames
    ps = geometry.PointState
    orig_init = ps.__init__

    def point_state_init(self, geom, point, *args, **kwargs):
        if not tr.on:
            return orig_init(self, geom, point, *args, **kwargs)
        tr.call("geometry.PointState", orig_init, (self, geom, point) + args,
                kwargs)
        tr.states.add(self)
        tr.state_keys.add((id(geom), tuple(np.asarray(point, float).ravel())))

    set_attr(ps, "__init__", point_state_init)
    chris = ps.__dict__["christoffel"]
    set_attr(ps, "christoffel",
             property(tr.wrap("geometry.christoffel", chris.fget)))
    span_method(ps, "to_orthonormal", "geometry.to_orthonormal")
    orig_once = ps._cov_deriv_once

    def cov_deriv_once(self, t):
        if not tr.on:
            return orig_once(self, t)
        name = f"geometry.cov_deriv.d{self.m}.r{t.coeffs.ndim - 1}"
        return tr.call(name, orig_once, (self, t), {})

    set_attr(ps, "_cov_deriv_once", cov_deriv_once)

    # curvature: the per-point cache and the _build_ methods behind it
    cb = curvature.CurvatureBundle
    orig_bundle_init = cb.__init__
    orig_coord = cb.coord

    def bundle_init(self, *args, **kwargs):
        orig_bundle_init(self, *args, **kwargs)
        if tr.on:
            tr.bundles.add(self)

    def coord(self, name, d=0):
        if tr.on:
            tr.count("curvature.coord.hits" if (name, d) in self._coord
                     else "curvature.coord.misses")
        return orig_coord(self, name, d)

    set_attr(cb, "__init__", bundle_init)
    set_attr(cb, "coord", coord)
    for attr in list(vars(cb)):
        if attr.startswith("_build_"):
            span_method(cb, attr, f"curvature.build.{attr[len('_build_'):]}")

    # verification, certification, catalog, report
    span_function(identities, "structure_residual", "identities.certify")
    span_function(identities, "verify", "identities.verify")
    span_function(conformal, "verify_transform", "conformal.verify_transform")
    span_function(conformal, "rescale", "conformal.rescale")
    span_function(catalog, "load", "catalog.load")
    span_function(catalog, "certify_entry", "catalog.certify")
    span_method(report.VerificationReport, "to_json", "report.to_json")

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# ---------------------------------------------------------------------------
# reading the layer metrics of one round
# ---------------------------------------------------------------------------

def held_bytes(roots) -> int:
    """Bytes of the numpy arrays reachable from ``roots`` through ctlab
    objects, dicts, lists and tuples; views count their base once."""
    seen: set[int] = set()
    bases: dict[int, int] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("ctlab.") and hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(bases.values())


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of the round just traced."""
    st = tr.stats

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    out = {
        "jets.jet_einsum.calls": calls("jets.jet_einsum"),
        "jets.jet_einsum.self_s": self_s("jets.jet_einsum"),
        "jets.jet_einsum.gflop": tr.counts.get("jets.jet_einsum.flop", 0) / 1e9,
        "jets.jet_einsum.gbytes": tr.counts.get("jets.jet_einsum.bytes", 0) / 1e9,
        "jets.jet_partial.calls": calls("jets.jet_partial"),
        "jets.jet_partial.self_s": self_s("jets.jet_partial"),
        "exprlang.eval_expr_jet.calls": calls("exprlang.eval_expr_jet"),
        "exprlang.eval_expr_jet.s": total("exprlang.eval_expr_jet"),
        "geometry.PointState.builds": calls("geometry.PointState"),
        "geometry.PointState.self_s": self_s("geometry.PointState"),
        "geometry.PointState.builds_per_point": (
            calls("geometry.PointState") / max(1, len(tr.state_keys))),
        "geometry.christoffel.s": total("geometry.christoffel"),
        "geometry.to_orthonormal.s": total("geometry.to_orthonormal"),
    }
    cov = [n for n in st if n.startswith("geometry.cov_deriv.")]
    out["geometry.cov_deriv.calls"] = sum(calls(n) for n in cov)
    out["geometry.cov_deriv.s"] = sum(total(n) for n in cov)
    for d in COV_DIMS:
        for r in COV_RANKS:
            name = f"geometry.cov_deriv.d{d}.r{r}"
            out[name + ".ms_per_call"] = (
                1e3 * total(name) / calls(name) if calls(name) else 0.0)
    out["curvature.coord.hits"] = tr.counts.get("curvature.coord.hits", 0)
    out["curvature.coord.misses"] = tr.counts.get("curvature.coord.misses", 0)
    for q in QUANTITIES:
        out[f"curvature.build.{q}.self_s"] = self_s(f"curvature.build.{q}")
    out["curvature.bundles.live"] = len(tr.bundles)
    out["curvature.cache_mb"] = held_bytes(
        list(tr.bundles) + list(tr.states)) / 2**20
    out.update({
        "identities.evaluate.calls": calls("identities.evaluate"),
        "identities.evaluate.self_s": self_s("identities.evaluate"),
        "identities.certify.calls": calls("identities.certify"),
        "identities.certify.s": total("identities.certify"),
        "conformal.rescale.s": total("conformal.rescale"),
        "conformal.evaluate.calls": calls("conformal.evaluate"),
        "conformal.evaluate.self_s": self_s("conformal.evaluate"),
        "catalog.load.s": total("catalog.load"),
        "catalog.certify.s": total("catalog.certify"),
        "report.to_json.s": total("report.to_json"),
    })
    return out


UNITS = {"calls": "count", "builds": "count", "hits": "count",
         "misses": "count", "live": "count", "s": "s", "self_s": "s",
         "ms_per_call": "ms", "gflop": "GFLOP_computed",
         "gbytes": "GB_computed", "builds_per_point": "ratio",
         "cache_mb": "MB_computed"}


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def direction(name: str) -> str:
    return "higher" if name.endswith(".hits") else "lower"
