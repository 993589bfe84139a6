"""The plan of a verification pass: the frame values its records and
hypotheses read, found on stand-ins before the walk, and the jet order
each curvature quantity is built to for them."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, conformal, curvature, identities
from ctlab.curvature import FIELDS, QUANTITIES, CurvatureBundle
from ctlab.geometry import Chunk, GeometryInstance
from ctlab.identities import EvalContext, reads

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from run_full_suite import LAW_SCHEDULE, SCHEDULE  # noqa: E402


def _passes():
    """Each pass of the full-suite schedule: its geometry and records."""
    for name, kw, families in SCHEDULE:
        yield (catalog.load(name, **kw).geometry,
               identities.select_records(families))
    for name, kw in LAW_SCHEDULE:
        yield catalog.load(name, **kw).geometry, conformal.select_laws()


def _runnable(g, records):
    have = identities._available(g)
    return [r for r in records
            if identities._skip_reason(g, r, have) is None]


def _live_reads(g, point, evaluate) -> tuple:
    """The keys ``evaluate`` reads on the live bundles of a lone point, in
    the order it first reads them."""
    keys = []
    get = identities._Frames._get

    def spy(self, key):
        if key not in keys:
            keys.append(key)
        return get(self, key)

    identities._Frames._get = spy
    try:
        evaluate(EvalContext(g, point))
    finally:
        identities._Frames._get = get
    return tuple(keys)


def test_probed_reads_are_the_live_reads():
    # every record and hypothesis equation on every schedule pass it runs
    # on: what it reads on stand-ins over no points is what it reads at a
    # point, key for key and in order
    seen = set()
    for g, records in _passes():
        runs = _runnable(g, records)
        point = g.sample_points(1, 0)[0]
        kinds = {r.structure for r in runs if r.structure is not None}
        evaluators = [r.evaluate for r in runs] + [
            eq for kind in sorted(kinds)
            for eq in identities._STRUCTURES[kind]]
        for evaluate in evaluators:
            assert reads(evaluate, g) == _live_reads(g, point, evaluate)
            seen.add(evaluate)
    assert {r.evaluate for r in identities.REGISTRY} - seen == set()
    assert {law.evaluate for law in conformal.select_laws()} <= seen
    # the Einstein equation certifies catalog claims only
    g = catalog.load("sphere", dim=3).geometry
    for eq in {eq for eqs in identities._STRUCTURES.values()
               for eq in eqs} - seen:
        assert reads(eq, g) == _live_reads(g, g.sample_points(1, 0)[0], eq)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_build_methods_read_and_rank_as_tabled(monkeypatch, dim):
    # each _build_* method's own coord calls are its row of QUANTITIES, and each
    # quantity's frame values have its tabled rank
    g = catalog.load("random", dim=dim, seed=dim, certify=False).geometry
    b = curvature.bundle(g, g.sample_points(1, 0)[0])
    building, called = [], {}
    coord = CurvatureBundle.coord

    def spy_coord(self, name, d=0):
        top = building[-1] if building else None
        if top is not None and top[1] == 0:
            called[top[0]].add((name, d))
        if top is not None:
            top[1] += 1
        try:
            return coord(self, name, d)
        finally:
            if top is not None:
                top[1] -= 1

    def spying(name, build):
        def spy_build(self):
            called.setdefault(name, set())
            building.append([name, 0])
            try:
                return build(self)
            finally:
                building.pop()
        return spy_build

    monkeypatch.setattr(CurvatureBundle, "coord", spy_coord)
    for name in QUANTITIES:
        monkeypatch.setattr(CurvatureBundle, f"_build_{name}",
                            spying(name, getattr(CurvatureBundle,
                                                 f"_build_{name}")))
    built = [name for name in QUANTITIES
             if dim >= 4 or not name.endswith("_weyl_div")]
    for name in built:
        assert b.frames(name).ndim - 1 == QUANTITIES[name].rank, name
    assert {name: called[name] for name in built} == {
        name: set(QUANTITIES[name].reads) for name in built}


def test_plan_closes_over_what_each_build_reads():
    assert curvature.plan([("cotton", 1)]) == {
        "cotton": 1, "schouten": 2, "scalar": 2, "ricci": 2}
    assert curvature.plan([("bach", 0), ("d_tensor", 1)]) == {
        "bach": 0, "cotton": 1, "schouten": 2, "scalar": 2, "ricci": 2,
        "weyl": 0, "riemann": 0, "d_tensor": 1, "f": 2}
    assert curvature.plan([]) == {}


def test_sol_high_builds_x_and_f_only_as_high_as_read(monkeypatch):
    # on euclidean dim 4 at working order 6 no value reads past the
    # second derivative of X or the third of f: X is built at order 2 and
    # f at order 4, where a build at the canonical orders takes both at 6
    g = catalog.load("euclidean", dim=4).geometry
    bundles = []
    init = CurvatureBundle.__init__

    def spy(self, state):
        init(self, state)
        bundles.append(self)

    monkeypatch.setattr(CurvatureBundle, "__init__", spy)
    rows = identities.verify(g, identities.select_records(["SOL", "HIGH"]),
                             g.sample_points(2, 0))
    assert all(r.status == "pass" for r in rows)
    b = bundles[0]
    assert b.state.order == 6
    assert (b.orders["X"], b.orders["f"]) == (2, 4)
    assert (b.coord("X").order, b.coord("f").order) == (2, 4)
    assert (b.coord("X", 2).order, b.coord("f", 3).order) == (0, 1)
    unplanned = curvature.bundle(g, g.sample_points(1, 0)[0])
    assert (unplanned.orders["X"], unplanned.orders["f"]) == (6, 6)


@pytest.mark.parametrize("points", [2, 8, 80])
def test_no_schedule_pass_runs_out_of_jet_order(points):
    # a plan that built a quantity too low would raise JetOrderError
    for g, records in _passes():
        if records and records[0].family == "LAW":
            rows = conformal.verify_transform(conformal.rescale(g), records,
                                              g.sample_points(points, 0))
        else:
            rows = identities.verify(g, records, g.sample_points(points, 0))
        assert not [r.id for r in rows if r.status == "fail"], g.name


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_no_random_chart_runs_out_of_jet_order(dim):
    records = identities.select_records(["COMM"]) + conformal.select_laws()
    for seed in range(8):
        g = catalog.load("random", dim=dim, seed=seed, certify=False).geometry
        rows = identities.verify(g, records, g.sample_points(1, seed))
        assert not [r.id for r in rows if r.status == "fail"], (dim, seed)


def test_plan_leaves_every_chunk_size(monkeypatch):
    # the passes of the benchmark's three workloads, planned and not:
    # Chunk.fit counts a planned jet at its canonical size, so every walk
    # takes the same chunk sizes
    passes = list(_passes())

    def fits():
        out = []
        fit = Chunk.fit

        def spy(self):
            out.append(fit(self))
            return out[-1]

        with monkeypatch.context() as m:
            m.setattr(Chunk, "fit", spy)
            for g, records in passes:
                if records and records[0].family == "LAW":
                    conformal.verify_transform(conformal.rescale(g), records,
                                               g.sample_points(32, 1))
                else:
                    n = 8 if g.name.startswith("random") else 4
                    identities.verify(g, records, g.sample_points(n, 1))
        return out

    planned = fits()
    monkeypatch.setattr(GeometryInstance, "planned", lambda self, orders: self)
    assert fits() == planned
    assert len(planned) == len(SCHEDULE) + len(LAW_SCHEDULE)


def test_a_lone_point_builds_at_the_canonical_orders():
    g = catalog.load("random", dim=4, seed=2, certify=False).geometry
    b = curvature.bundle(g, g.sample_points(1, 0)[0])
    assert b.orders == {name: 6 - q.depth for name, q in QUANTITIES.items()}
    assert all(name in FIELDS or b.coord(name).order == 6 - q.depth
               for name, q in QUANTITIES.items())
    assert np.shares_memory(b.coord("f").coeffs, b.state.f.coeffs)
