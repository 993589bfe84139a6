"""The benchmark's three workloads, written against ctlab's public API.

``setup`` builds a workload's geometries (``catalog.load`` with
certification of every claim, plus ``conformal.rescale``); that is what
``setup_s`` times.  ``verify_job`` goes from sample points to serialised
report JSON for one geometry; the sum over a workload's jobs is what
``verify_s`` times.  ``check_job`` then checks every row and runs the
independent checks at the first sample point.

The geometries are fixed, with the entry seeds of
``scripts/run_full_suite.py``; the workload seed draws the sample points.
Jet arithmetic costs the same at every point, so every seed does the same
work, while the cost of a random entry depends on the monomials its seed
picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctlab import catalog, conformal, curvature, identities
from ctlab.report import TOOL_VERSION, VerificationReport, geometry_hash

import checks

COMM_ENTRIES = ({"dim": 3, "seed": 1}, {"dim": 4, "seed": 2},
                {"dim": 5, "seed": 3})
COMM_POINTS = 8
LAW_POINTS = 32
STRUCTURE_POINTS = 4

LAW_PAIRS = (
    ("conformal_gaussian", {"dim": 4}),
    ("conformal_gaussian_plus_killing", {"dim": 3}),
    ("random", {"dim": 4, "seed": 5}),
)

# scripts/run_full_suite.py's SCHEDULE without the random entries, each
# entry with its conditional families (COMM is unconditional and left to
# comm-deep).  s2xs2 runs no family; it is loaded, certified and checked
# against its closed-form curvature.
STRUCTURE_SCHEDULE = (
    ("euclidean", {"dim": 3}, ("SOL",)),
    ("euclidean", {"dim": 4}, ("SOL", "HIGH")),
    ("sphere", {"dim": 3}, ("CE",)),
    ("sphere", {"dim": 4, "radius": 2.0}, ("CE",)),
    ("sphere_killing", {"dim": 3}, ("SOL", "GRS")),
    ("hyperbolic", {"dim": 3}, ("CE",)),
    ("s2xs2", {}, ()),
    ("conformal_s2xs2", {"seed": 0}, ("CE",)),
    ("cigar_x_line", {}, ("SOL", "GRS")),
    ("cigar_x_flat", {"dim": 4}, ("SOL", "GRS", "HIGH")),
    ("conformal_gaussian", {"dim": 4}, ("CGRS",)),
    ("gaussian_plus_killing", {"dim": 3}, ("SOL", "GRS")),
    ("conformal_gaussian_plus_killing", {"dim": 3}, ("CGERS", "CGRS")),
)

# Law hypotheses and the catalog claim that makes each one hold.
LAW_STRUCTURE_CLAIM = {
    "tilde_gradient_soliton": "conformal_gradient_soliton",
    "base_gradient_soliton": "gradient_soliton",
}

WORKLOADS = ("comm-deep", "laws-many-points", "catalog-structures")


@dataclass
class Job:
    """One geometry (or conformal pair) with the records it runs."""

    entry_name: str
    params: dict
    entry: catalog.CatalogEntry
    records: list
    points: int
    seed: int
    pair: conformal.ConformalPair | None = None
    rows: list = field(default_factory=list)

    @property
    def geometry(self):
        return self.pair.base if self.pair else self.entry.geometry

    def checked_geometries(self):
        return [self.pair.base, self.pair.tilde] if self.pair else [self.geometry]


def setup(workload: str, seed: int) -> list[Job]:
    if workload == "comm-deep":
        comm = identities.select_records(["COMM"])
        return [Job("random", params, catalog.load("random", **params), comm,
                    COMM_POINTS, seed)
                for params in COMM_ENTRIES]
    if workload == "laws-many-points":
        laws = conformal.select_laws()
        jobs = []
        for name, params in LAW_PAIRS:
            entry = catalog.load(name, **params)
            jobs.append(Job(name, params, entry, laws, LAW_POINTS, seed,
                            pair=conformal.rescale(entry.geometry)))
        return jobs
    if workload == "catalog-structures":
        jobs = []
        for name, params, fams in STRUCTURE_SCHEDULE:
            records = identities.select_records(list(fams)) if fams else []
            jobs.append(Job(name, params, catalog.load(name, **params),
                            records, STRUCTURE_POINTS, seed))
        return jobs
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def verify_job(job: Job) -> str:
    """Sample points to serialised report JSON, through the public
    verification functions."""
    g = job.geometry
    points = g.sample_points(job.points, job.seed)
    if job.pair is not None:
        rows = conformal.verify_transform(job.pair, job.records, points)
    elif job.records:
        rows = identities.verify(g, job.records, points)
    else:
        rows = []
    job.rows = rows
    return VerificationReport(
        tool_version=TOOL_VERSION,
        geometry=g.name,
        geometry_hash=geometry_hash(g.spec.to_json()),
        dim=g.dim,
        jet_order=g.config.order,
        seed=job.seed,
        points=job.points,
        rows=rows,
    ).to_json()


# ---------------------------------------------------------------------------
# checking a job
# ---------------------------------------------------------------------------

def _fields(spec, is_pair: bool) -> set[str]:
    have = {"u"} if is_pair or spec.u is not None else set()
    if spec.f is not None:
        have.add("f")
    if spec.x_components is not None:
        have.add("X")
    if spec.lam is not None:
        have.add("lam")
    return have


def expected_skips(job: Job) -> set[str]:
    """Record ids the registry metadata says must be skipped here."""
    g = job.geometry
    have = _fields(g.spec, job.pair is not None)
    claims = {c.kind for c in job.entry.claims}
    out = set()
    for rec in job.records:
        hypothesis = (job.pair is not None and rec.structure is not None
                      and LAW_STRUCTURE_CLAIM[rec.structure] not in claims)
        if (g.dim < rec.min_dim or not rec.requires <= have
                or g.config.order < rec.min_order or hypothesis):
            out.add(rec.id)
    return out


def check_rows(job: Job) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for the report rows.  A runnable row
    stands for one evaluation per point and must pass with a finite
    residual below its tolerance; the report keeps only the worst point,
    so a bad row fails all of them.  A row the metadata says must skip
    counts as one operation, the skip."""
    skip = expected_skips(job)
    attempted = failed = 0
    msgs = []
    by_id = {r.id: r for r in job.rows}
    for rec in job.records:
        row = by_id.get(rec.id)
        n = 1 if rec.id in skip else job.points
        attempted += n
        if row is None:
            ok, why = False, "no report row"
        elif rec.id in skip:
            ok, why = row.status.startswith("skipped"), "expected a skip"
        else:
            ok = (row.status == "pass" and row.max_residual is not None
                  and np.isfinite(row.max_residual) and row.max_residual < row.tol)
            why = "expected a pass"
        if not ok:
            failed += n
            msgs.append(f"{job.geometry.name} {rec.id}: "
                        f"{row.status if row else '-'} "
                        f"({row.max_residual if row else '-'}); {why}")
    return attempted, failed, msgs


def independent_checks(job: Job) -> list[tuple[str, checks.CheckResult]]:
    """(geometry name, result) of the finite-difference, closed-form and
    property checks at the first sample point of every geometry of the job."""
    out = []
    p = job.geometry.sample_points(job.points, job.seed)[0]
    for g in job.checked_geometries():
        riem = curvature.riemann(g, p).components
        ricci = curvature.ricci(g, p).components
        s = curvature.scalar(g, p)
        results = checks.fd_checks(g.spec, p, g.christoffel(p).components,
                                   riem, s)
        if g is job.entry.geometry:
            results += checks.closed_form_checks(job.entry_name, job.params,
                                                 riem, ricci, s)
        bach = curvature.bach(g, p).components if g.dim == 4 else None
        results += checks.property_checks(riem, curvature.weyl(g, p).components,
                                          curvature.cotton(g, p).components,
                                          bach)
        out += [(g.name, c) for c in results]
    return out


def check_job(job: Job) -> tuple[int, int, list[str]]:
    attempted, failed, msgs = check_rows(job)
    for name, c in independent_checks(job):
        attempted += 1
        if not c.ok:
            failed += 1
            msgs.append(f"{name} {c.name}: residual "
                        f"{c.residual:.3e} (tol {c.tol:.0e}), perturbation "
                        f"{'detected' if c.detects_perturbation else 'MISSED'}")
    return attempted, failed, msgs
