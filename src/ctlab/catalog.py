"""Built-in geometries with certified structure claims.

Each entry packages a chart (metric expressions, domain box) together with
the scalar/vector fields that realise a claimed structure: Einstein,
gradient or generic soliton, or one of their conformal counterparts.

Every entry is built by the one constructor ``_entry``: a builder states
only its chart, its fields and its claims, and ``_entry`` derives the
dimension, the coordinates and the domain box.  A builder's signature is
its parameter list: ``parameters`` reads it, and ``load`` rejects a
parameter the entry does not take, or a ``dim`` below the entry's least,
with :class:`CatalogError`, so no parameter is dropped silently and no
chart is built for a dimension it cannot have.  ``load`` re-certifies
every claim numerically before handing the entry out, so a broken catalog
entry is a hard error (:class:`~ctlab.identities.CertificationError`),
never a silently wrong baseline.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exprlang import GeometrySpec, stretched_metric
from .geometry import GeometryInstance, walk_chunks
from .identities import (
    CERTIFICATION_TOL,
    STRUCTURE_ORDER,
    CertificationError,
    EvalContext,
    structure_residuals,
    worst_of,
)

CERTIFICATION_POINTS = 4
CERTIFICATION_SEED = 20240


class CatalogError(ValueError):
    """An unknown entry name or parameter, or a parameter value the entry
    cannot take."""


@dataclass(frozen=True)
class StructureClaim:
    """One certified structure on an entry.

    ``kind`` is one of einstein, gradient_soliton, generic_soliton,
    conformally_einstein, conformal_gradient_soliton,
    conformal_generic_soliton.  ``lam`` is the structure constant; the
    fields u/f/X are taken from the geometry spec.
    """

    kind: str
    lam: float


@dataclass
class CatalogEntry:
    name: str
    geometry: GeometryInstance
    claims: tuple[StructureClaim, ...]
    note: str = ""

    @property
    def spec(self) -> GeometrySpec:
        return self.geometry.spec


# ---------------------------------------------------------------------------
# random polynomial fields
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _monomials(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the non-constant monomials up to ``degree``, in
    lexicographic order; memoised, as every random field draws from them."""
    return tuple(e for e in itertools.product(range(degree + 1), repeat=dim)
                 if 1 <= sum(e) <= degree)


def _poly_text(rng: np.random.Generator, coords: list[str], degree: int,
               scale: float, nterms: int = 6) -> str:
    basis = _monomials(len(coords), degree)
    take = min(nterms, len(basis))
    picks = rng.choice(len(basis), size=take, replace=False)
    coeffs = rng.uniform(-1.0, 1.0, size=take)
    coeffs *= scale / np.sum(np.abs(coeffs))
    parts = []
    for c, k in zip(coeffs, picks):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(coords, basis[k]) if e > 0
        )
        parts.append(f"({float(c)!r})*{mono}")
    return " + ".join(parts)


def random_u(coords: list[str], seed: int) -> str:
    """A random quadratic conformal exponent u on ``coords``, fixed by
    ``seed``."""
    return _poly_text(np.random.default_rng(seed), coords, degree=2, scale=0.3)


# ---------------------------------------------------------------------------
# shared charts and fields
# ---------------------------------------------------------------------------

def _coords(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)]


def _diag(entries: list[str]) -> list[list[str]]:
    return [[e if i == j else "0" for j in range(i + 1)]
            for i, e in enumerate(entries)]


def _norm2(coords: list[str]) -> str:
    return "+".join(f"{c}^2" for c in coords)


def _flat(dim: int) -> list[list[str]]:
    return _diag(["1"] * dim)


def _sphere_metric(dim: int, radius: float) -> list[list[str]]:
    """The round sphere of ``radius`` in a stereographic chart."""
    if not (math.isfinite(radius) and radius > 0):
        raise CatalogError(
            f"radius must be a positive finite number, got {radius!r}")
    conf = f"(4*{radius * radius!r})/(1+{_norm2(_coords(dim))})^2"
    return _diag([conf] * dim)


_S2XS2 = _diag(["4/(1+x1^2+x2^2)^2"] * 2 + ["4/(1+x3^2+x4^2)^2"] * 2)


def _gaussian_f(coords: list[str], lam: float) -> str:
    """The shrinking Gaussian soliton's potential f = lam |x|^2 / 2."""
    return f"({lam / 2!r})*({_norm2(coords)})"


def _gaussian_grad(coords: list[str], lam: float) -> list[str]:
    """grad f = lam x of the Gaussian potential."""
    return [f"({lam!r})*{c}" for c in coords]


def _killing(dim: int, grad: list[str] | None = None) -> list[str]:
    """The rotation -x2 d/dx1 + x1 d/dx2, a Killing field of every chart
    here that uses it, added to the vector field ``grad`` if one is given."""
    if grad is None:
        return ["-x2", "x1"] + ["0"] * (dim - 2)
    return [f"{grad[0]} - x2", f"{grad[1]} + x1"] + grad[2:]


def _entry(name: str, metric: list[list[str]], claims, note: str,
           half: float = 1.0, **fields) -> CatalogEntry:
    """The entry ``name`` on the box [-half, half]^m, with the metric's
    dimension m, coordinates x1..xm, the spec ``fields`` (u, f,
    x_components, lam) and ``claims`` as (kind, lam) pairs."""
    dim = len(metric)
    spec = GeometrySpec(name=name, dim=dim, coords=_coords(dim),
                        domain=[(-half, half)] * dim, metric=metric, **fields)
    return CatalogEntry(name, GeometryInstance(spec),
                        tuple(StructureClaim(k, lam) for k, lam in claims),
                        note)


# ---------------------------------------------------------------------------
# entry builders: each signature is the entry's parameter list
# ---------------------------------------------------------------------------

def _euclidean(dim: int = 3, lam: float = 0.5) -> CatalogEntry:
    cs = _coords(dim)
    return _entry(
        f"euclidean(dim={dim})", _flat(dim),
        [("einstein", 0.0), ("gradient_soliton", lam),
         ("generic_soliton", lam)],
        "flat chart; the shrinking Gaussian soliton potential",
        x_components=_gaussian_grad(cs, lam), f=_gaussian_f(cs, lam), lam=lam)


def _sphere(dim: int = 3, radius: float = 1.0) -> CatalogEntry:
    return _entry(
        f"sphere(dim={dim},r={radius!r})", _sphere_metric(dim, radius),
        [("einstein", (dim - 1) / radius**2), ("conformally_einstein", 0.0)],
        "round sphere in a stereographic chart; rescaling by u flattens it",
        half=0.9, u=f"log((1+{_norm2(_coords(dim))})/(2*{radius!r}))",
        lam=0.0)


def _sphere_killing(dim: int = 3, radius: float = 1.0) -> CatalogEntry:
    metric = _sphere_metric(dim, radius)
    lam = (dim - 1) / radius**2
    return _entry(
        f"sphere_killing(dim={dim},r={radius!r})", metric,
        [("einstein", lam), ("generic_soliton", lam)],
        "trivial generic soliton: Einstein metric plus a rotational "
        "Killing field (sign falsifier for the vector-field conditions)",
        half=0.9, x_components=_killing(dim), lam=lam)


def _hyperbolic(dim: int = 3) -> CatalogEntry:
    n2 = _norm2(_coords(dim))
    return _entry(
        f"hyperbolic(dim={dim})", _diag([f"4/(1-({n2}))^2"] * dim),
        [("einstein", -(dim - 1)), ("conformally_einstein", 0.0)],
        "Poincare ball patch", half=0.3, u=f"log((1-({n2}))/2)", lam=0.0)


def _s2xs2() -> CatalogEntry:
    return _entry(
        "s2xs2", _S2XS2, [("einstein", 1.0)],
        "product of two unit 2-spheres: Einstein with nonzero Weyl",
        half=0.9, lam=1.0)


def _conformal_s2xs2(seed: int = 0) -> CatalogEntry:
    u = random_u(_coords(4), seed)
    return _entry(
        f"conformal_s2xs2(seed={seed})", stretched_metric(_S2XS2, u, -2),
        [("conformally_einstein", 1.0)],
        "random conformal deformation of s2xs2; rescaling by u restores it",
        half=0.9, u=u, lam=1.0)


def _cigar_x_flat(dim: int = 3) -> CatalogEntry:
    bowl = "1+x1^2+x2^2"
    return _entry(
        f"cigar_x_flat(dim={dim})",
        _diag([f"1/({bowl})"] * 2 + ["1"] * (dim - 2)),
        [("gradient_soliton", 0.0), ("generic_soliton", 0.0)],
        "steady soliton: cigar surface times a flat factor; "
        "X is the gradient of the potential in closed form",
        f=f"-log({bowl})", x_components=["-2*x1", "-2*x2"] + ["0"] * (dim - 2),
        lam=0.0)


def _cigar_x_line() -> CatalogEntry:
    return _cigar_x_flat(dim=3)


def _conformal_gaussian(dim: int = 4, seed: int = 0,
                        lam: float = 0.5) -> CatalogEntry:
    cs = _coords(dim)
    u = random_u(cs, seed)
    return _entry(
        f"conformal_gaussian(dim={dim},seed={seed})",
        stretched_metric(_flat(dim), u, -2),
        [("conformal_gradient_soliton", lam)],
        "rescaling by u gives the flat Gaussian soliton",
        u=u, f=_gaussian_f(cs, lam), lam=lam)


def _gaussian_plus_killing(dim: int = 3, lam: float = 0.5) -> CatalogEntry:
    cs = _coords(dim)
    return _entry(
        f"gaussian_plus_killing(dim={dim})", _flat(dim),
        [("generic_soliton", lam), ("gradient_soliton", lam)],
        "Gaussian gradient field plus a rotational Killing field",
        x_components=_killing(dim, _gaussian_grad(cs, lam)),
        f=_gaussian_f(cs, lam), lam=lam)


def _conformal_gaussian_plus_killing(dim: int = 3, seed: int = 0,
                                     lam: float = 0.5) -> CatalogEntry:
    cs = _coords(dim)
    u = random_u(cs, seed + 17)
    return _entry(
        f"conformal_gaussian_plus_killing(dim={dim},seed={seed})",
        stretched_metric(_flat(dim), u, -2),
        [("conformal_generic_soliton", lam),
         ("conformal_gradient_soliton", lam)],
        "rescaling by u gives the flat generic Gaussian-plus-rotation soliton",
        u=u, x_components=_killing(dim, _gaussian_grad(cs, lam)),
        f=_gaussian_f(cs, lam), lam=lam)


def _random(dim: int = 4, seed: int = 0, degree: int = 4,
            eps: float = 0.05) -> CatalogEntry:
    rng = np.random.default_rng(seed)
    cs = _coords(dim)
    metric = [[f"{'1' if i == j else '0'} + ({eps!r})*"
               f"({_poly_text(rng, cs, degree, 1.0)})" for j in range(i + 1)]
              for i in range(dim)]
    # the fields draw from the same generator, after the metric, in order
    u = _poly_text(rng, cs, 3, 0.4)
    f = _poly_text(rng, cs, 3, 0.6)
    x = [_poly_text(rng, cs, 3, 0.6) for _ in cs]
    return _entry(
        f"random(dim={dim},seed={seed})", metric, [],
        "near-flat polynomial metric with generic smooth u, f, X fields "
        "for the unconditional commutation rules",
        u=u, f=f, x_components=x)


_BUILDERS = {
    "euclidean": _euclidean,
    "sphere": _sphere,
    "sphere_killing": _sphere_killing,
    "hyperbolic": _hyperbolic,
    "s2xs2": _s2xs2,
    "conformal_s2xs2": _conformal_s2xs2,
    "cigar_x_line": _cigar_x_line,
    "cigar_x_flat": _cigar_x_flat,
    "conformal_gaussian": _conformal_gaussian,
    "gaussian_plus_killing": _gaussian_plus_killing,
    "conformal_gaussian_plus_killing": _conformal_gaussian_plus_killing,
    "random": _random,
}

# The least ``dim`` of each entry that takes one: a chart has at least two
# coordinates, and the cigar_x_flat a flat factor besides its cigar.
_LEAST_DIM = {"cigar_x_flat": 3}


def names() -> list[str]:
    return sorted(_BUILDERS)


def parameters(name: str) -> tuple[str, ...]:
    """The parameters entry ``name`` takes: its builder's signature."""
    if name not in _BUILDERS:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known: {', '.join(names())}"
        )
    return tuple(inspect.signature(_BUILDERS[name]).parameters)


def load(name: str, certify: bool = True, jet_order: int | None = None,
         **params) -> CatalogEntry:
    """Build a catalog entry and re-certify every claim it carries.  A
    parameter the entry does not take is a :class:`CatalogError`."""
    takes = parameters(name)
    extra = [p for p in params if p not in takes]
    if extra:
        raise CatalogError(
            f"catalog entry {name!r} does not take {', '.join(extra)}; "
            f"its parameters: {', '.join(takes) or 'none'}"
        )
    least = _LEAST_DIM.get(name, 2)
    if "dim" in params and not params["dim"] >= least:
        raise CatalogError(
            f"{name} needs dim >= {least}, got dim={params['dim']!r}")
    entry = _BUILDERS[name](**params)
    if jet_order is not None:
        entry.geometry = entry.geometry.at_order(jet_order)
    if certify:
        certify_entry(entry)
    return entry


def certify_entry(entry: CatalogEntry):
    """Check every claim's defining residual on a fixed sample grid, and
    positive definiteness for claim-free (random) entries, at jet order
    ``STRUCTURE_ORDER`` (or the configured order, if lower).  The grid is
    walked in chunks of points (:func:`~ctlab.geometry.walk_chunks`), the
    first of :func:`~ctlab.geometry.first_chunk` points, and each claim is
    checked for a whole chunk in one evaluator call, one residual per
    point.  A claim whose worst residual over the grid is not below
    ``CERTIFICATION_TOL`` raises :class:`CertificationError`."""
    g = entry.geometry.at_order(min(STRUCTURE_ORDER,
                                    entry.geometry.config.order))

    def read(chunk):
        c = EvalContext.of(chunk)  # raises MetricError if not positive definite
        return [structure_residuals(c, claim.kind, claim.lam)
                for claim in entry.claims]

    def take(chunk, found):
        worst[:] = [worst_of(w, r.max()) for w, r in zip(worst, found)]

    worst = [0.0] * len(entry.claims)
    walk_chunks(g.sample_points(CERTIFICATION_POINTS, CERTIFICATION_SEED),
                [g], read, take)
    for claim, w in zip(entry.claims, worst):
        if not w < CERTIFICATION_TOL:
            raise CertificationError(
                f"certification failed for {entry.name}: claim {claim.kind} "
                f"has residual {w:.3e} (tol {CERTIFICATION_TOL:.1e})"
            )
