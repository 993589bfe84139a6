"""Built-in geometries with certified structure claims.

Each entry packages a chart (metric expressions, domain box) together with
the scalar/vector fields that realise a claimed structure: Einstein,
gradient or generic soliton, or one of their conformal counterparts.
``load`` re-certifies every claim numerically before handing the entry out,
so a broken catalog entry is a hard error, never a silently wrong baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import GeometrySpec
from .geometry import GeometryInstance, point_blocks, point_scope
from .identities import (
    CERTIFICATION_TOL,
    STRUCTURE_ORDER,
    structure_residual,
    worst_of,
)

CERTIFICATION_POINTS = 4
CERTIFICATION_SEED = 20240


class CatalogError(ValueError):
    """Unknown entry name or a certification failure at load time."""


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

    def claim(self, kind: str) -> StructureClaim | None:
        for c in self.claims:
            if c.kind == kind:
                return c
        return None


# ---------------------------------------------------------------------------
# random polynomial fields
# ---------------------------------------------------------------------------

def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    out = []

    def rec(prefix, remaining, slot):
        if slot == dim:
            if sum(prefix) >= 1:
                out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slot + 1)

    rec([], degree, 0)
    return out


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


def _coords(dim: int) -> list[str]:
    return [f"x{i + 1}" for i in range(dim)]


def _box(dim: int, half: float) -> list[tuple[float, float]]:
    return [(-half, half) for _ in range(dim)]


def _diag(entries: list[str], dim: int) -> list[list[str]]:
    return [[entries[i] if i == j else "0" for j in range(i + 1)] for i in range(dim)]


def _norm2(coords: list[str]) -> str:
    return "+".join(f"{c}^2" for c in coords)


def _conformal_entries(u_text: str, rows: list[list[str]]) -> list[list[str]]:
    return [
        [f"exp(-2*({u_text}))*({e})" if e != "0" else "0" for e in row]
        for row in rows
    ]


# ---------------------------------------------------------------------------
# entry constructors
# ---------------------------------------------------------------------------

def _euclidean(dim: int = 3, lam: float = 0.5, **_) -> CatalogEntry:
    cs = _coords(dim)
    spec = GeometrySpec(
        name=f"euclidean(dim={dim})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 1.0),
        metric=_diag(["1"] * dim, dim),
        f=f"({lam / 2!r})*({_norm2(cs)})",
        x_components=[f"({lam!r})*{c}" for c in cs],
        lam=lam,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(
            StructureClaim("einstein", 0.0),
            StructureClaim("gradient_soliton", lam),
            StructureClaim("generic_soliton", lam),
        ),
        note="flat chart; the shrinking Gaussian soliton potential",
    )


def _sphere(dim: int = 3, radius: float = 1.0, **_) -> CatalogEntry:
    cs = _coords(dim)
    n2 = _norm2(cs)
    entry = f"(4*{radius * radius!r})/(1+{n2})^2"
    lam = (dim - 1) / radius**2
    spec = GeometrySpec(
        name=f"sphere(dim={dim},r={radius!r})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 0.9),
        metric=_diag([entry] * dim, dim),
        u=f"log((1+{n2})/(2*{radius!r}))",
        lam=0.0,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(
            StructureClaim("einstein", lam),
            StructureClaim("conformally_einstein", 0.0),
        ),
        note="round sphere in a stereographic chart; rescaling by u flattens it",
    )


def _sphere_killing(dim: int = 3, radius: float = 1.0, **_) -> CatalogEntry:
    base = _sphere(dim=dim, radius=radius)
    cs = _coords(dim)
    lam = (dim - 1) / radius**2
    spec = GeometrySpec(
        name=f"sphere_killing(dim={dim},r={radius!r})",
        dim=dim,
        coords=cs,
        domain=base.spec.domain,
        metric=base.spec.metric,
        x_components=["-x2", "x1"] + ["0"] * (dim - 2),
        lam=lam,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(
            StructureClaim("einstein", lam),
            StructureClaim("generic_soliton", lam),
        ),
        note="trivial generic soliton: Einstein metric plus a rotational "
             "Killing field (sign falsifier for the vector-field conditions)",
    )


def _hyperbolic(dim: int = 3, **_) -> CatalogEntry:
    cs = _coords(dim)
    n2 = _norm2(cs)
    lam = -(dim - 1)
    spec = GeometrySpec(
        name=f"hyperbolic(dim={dim})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 0.3),
        metric=_diag([f"4/(1-({n2}))^2"] * dim, dim),
        u=f"log((1-({n2}))/2)",
        lam=0.0,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(
            StructureClaim("einstein", lam),
            StructureClaim("conformally_einstein", 0.0),
        ),
        note="Poincare ball patch",
    )


def _s2xs2(**_) -> CatalogEntry:
    cs = _coords(4)
    b1 = "4/(1+x1^2+x2^2)^2"
    b2 = "4/(1+x3^2+x4^2)^2"
    spec = GeometrySpec(
        name="s2xs2",
        dim=4,
        coords=cs,
        domain=_box(4, 0.9),
        metric=_diag([b1, b1, b2, b2], 4),
        lam=1.0,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(StructureClaim("einstein", 1.0),),
        note="product of two unit 2-spheres: Einstein with nonzero Weyl",
    )


def _conformal_s2xs2(seed: int = 0, **_) -> CatalogEntry:
    base = _s2xs2()
    rng = np.random.default_rng(seed)
    cs = _coords(4)
    u = _poly_text(rng, cs, degree=2, scale=0.3)
    spec = GeometrySpec(
        name=f"conformal_s2xs2(seed={seed})",
        dim=4,
        coords=cs,
        domain=base.spec.domain,
        metric=_conformal_entries(u, base.spec.metric),
        u=u,
        lam=1.0,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(StructureClaim("conformally_einstein", 1.0),),
        note="random conformal deformation of s2xs2; rescaling by u restores it",
    )


def _cigar_x_flat(dim: int = 3, **_) -> CatalogEntry:
    if dim < 3:
        raise CatalogError("cigar_x_flat needs dim >= 3")
    cs = _coords(dim)
    bowl = "1+x1^2+x2^2"
    entries = [f"1/({bowl})", f"1/({bowl})"] + ["1"] * (dim - 2)
    spec = GeometrySpec(
        name=f"cigar_x_flat(dim={dim})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 1.0),
        metric=_diag(entries, dim),
        f=f"-log({bowl})",
        x_components=["-2*x1", "-2*x2"] + ["0"] * (dim - 2),
        lam=0.0,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(
            StructureClaim("gradient_soliton", 0.0),
            StructureClaim("generic_soliton", 0.0),
        ),
        note="steady soliton: cigar surface times a flat factor; "
             "X is the gradient of the potential in closed form",
    )


def _cigar_x_line(**kw) -> CatalogEntry:
    return _cigar_x_flat(dim=3)


def _conformal_gaussian(dim: int = 4, seed: int = 0, lam: float = 0.5, **_) -> CatalogEntry:
    rng = np.random.default_rng(seed)
    cs = _coords(dim)
    u = _poly_text(rng, cs, degree=2, scale=0.3)
    spec = GeometrySpec(
        name=f"conformal_gaussian(dim={dim},seed={seed})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 1.0),
        metric=_conformal_entries(u, _diag(["1"] * dim, dim)),
        u=u,
        f=f"({lam / 2!r})*({_norm2(cs)})",
        lam=lam,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(StructureClaim("conformal_gradient_soliton", lam),),
        note="rescaling by u gives the flat Gaussian soliton",
    )


def _gaussian_plus_killing(dim: int = 3, lam: float = 0.5, **_) -> CatalogEntry:
    cs = _coords(dim)
    x = [f"({lam!r})*x1 - x2", f"({lam!r})*x2 + x1"] + [
        f"({lam!r})*{c}" for c in cs[2:]
    ]
    spec = GeometrySpec(
        name=f"gaussian_plus_killing(dim={dim})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 1.0),
        metric=_diag(["1"] * dim, dim),
        f=f"({lam / 2!r})*({_norm2(cs)})",
        x_components=x,
        lam=lam,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(StructureClaim("generic_soliton", lam),
                StructureClaim("gradient_soliton", lam)),
        note="Gaussian gradient field plus a rotational Killing field",
    )


def _conformal_gaussian_plus_killing(dim: int = 3, seed: int = 0,
                                     lam: float = 0.5, **_) -> CatalogEntry:
    base = _gaussian_plus_killing(dim=dim, lam=lam)
    rng = np.random.default_rng(seed + 17)
    cs = _coords(dim)
    u = _poly_text(rng, cs, degree=2, scale=0.3)
    spec = GeometrySpec(
        name=f"conformal_gaussian_plus_killing(dim={dim},seed={seed})",
        dim=dim,
        coords=cs,
        domain=base.spec.domain,
        metric=_conformal_entries(u, base.spec.metric),
        u=u,
        f=base.spec.f,
        x_components=base.spec.x_components,
        lam=lam,
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(StructureClaim("conformal_generic_soliton", lam),
                StructureClaim("conformal_gradient_soliton", lam)),
        note="rescaling by u gives the flat generic Gaussian-plus-rotation soliton",
    )


def _random(dim: int = 4, seed: int = 0, degree: int = 4,
            eps: float = 0.05, **_) -> CatalogEntry:
    rng = np.random.default_rng(seed)
    cs = _coords(dim)
    rows = []
    for i in range(dim):
        row = []
        for j in range(i + 1):
            q = _poly_text(rng, cs, degree=degree, scale=1.0)
            row.append(f"{'1' if i == j else '0'} + ({eps!r})*({q})")
        rows.append(row)
    spec = GeometrySpec(
        name=f"random(dim={dim},seed={seed})",
        dim=dim,
        coords=cs,
        domain=_box(dim, 1.0),
        metric=rows,
        u=_poly_text(rng, cs, degree=3, scale=0.4),
        f=_poly_text(rng, cs, degree=3, scale=0.6),
        x_components=[_poly_text(rng, cs, degree=3, scale=0.6) for _ in cs],
    )
    return CatalogEntry(
        name=spec.name,
        geometry=GeometryInstance(spec),
        claims=(),
        note="near-flat polynomial metric with generic smooth u, f, X fields "
             "for the unconditional commutation rules",
    )


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


def names() -> list[str]:
    return sorted(_BUILDERS)


def load(name: str, certify: bool = True, jet_order: int | None = None,
         **params) -> CatalogEntry:
    """Build a catalog entry and re-certify every claim it carries."""
    if name not in _BUILDERS:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known: {', '.join(names())}"
        )
    entry = _BUILDERS[name](**params)
    if jet_order is not None:
        entry.geometry = entry.geometry.at_order(jet_order)
    if certify:
        certify_entry(entry)
    return entry


def certify_entry(entry: CatalogEntry, tol: float = CERTIFICATION_TOL):
    """Check every claim's defining residual on a fixed sample grid, and
    positive definiteness for claim-free (random) entries, at jet order
    ``STRUCTURE_ORDER`` (or the configured order, if lower).  Each point's
    cache entries are released once its residuals are taken.  The chart's
    expressions are evaluated over the grid a block of points at a time
    (:func:`~ctlab.geometry.point_blocks`)."""
    g = entry.geometry.at_order(min(STRUCTURE_ORDER,
                                    entry.geometry.config.order))
    worst = [0.0] * len(entry.claims)
    for p in point_blocks(g.sample_points(CERTIFICATION_POINTS,
                                         CERTIFICATION_SEED), g):
        with point_scope(p, g):
            g.state(p)  # raises MetricError if not positive definite
            for i, claim in enumerate(entry.claims):
                worst[i] = worst_of(worst[i], structure_residual(
                    g, claim.kind, p, claim.lam))
    for claim, w in zip(entry.claims, worst):
        if not w < tol:
            raise CatalogError(
                f"certification failed for {entry.name}: claim {claim.kind} "
                f"has residual {w:.3e} (tol {tol:.1e})"
            )
