"""Demand-driven jet order: each record's ``min_order`` is the least order
at which what it and its hypothesis read can be built, each verification
pass builds its point states at the largest ``min_order`` its runnable
records need, capped by the configured order, and the catalog certifies
at ``STRUCTURE_ORDER``."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, conformal, identities
from ctlab.cli import main
from ctlab.geometry import GeometryInstance, JetConfig, PointState
from ctlab.identities import (REGISTRY, STRUCTURE_ORDER, EvalContext,
                              jet_order, reads)
from ctlab.jets import JetOrderError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from run_full_suite import LAW_SCHEDULE, SCHEDULE  # noqa: E402

# law records whose hypothesis holds on no LAW_SCHEDULE pair (the
# d_reverse law needs a gradient soliton on the base, which none carries)
RUNS_NOWHERE = {"d_reverse"}


@pytest.fixture
def built(monkeypatch):
    """(geometry name, jet order) of every PointState built in the test,
    once for each of its points."""
    out = []
    init = PointState.__init__

    def spy(self, geometry, point, *roots):
        points = np.reshape(point, (-1, geometry.dim))
        out.extend([(geometry.name, geometry.config.order)] * len(points))
        init(self, geometry, point, *roots)

    monkeypatch.setattr(PointState, "__init__", spy)
    return out


def _rows(name, kw, records, order, laws):
    # a catalog claim is certified at STRUCTURE_ORDER, so below it the
    # entry loads uncertified; the driver still certifies each hypothesis
    entry = catalog.load(name, jet_order=order,
                         certify=order >= STRUCTURE_ORDER, **kw)
    g = entry.geometry
    point = g.sample_points(1, 0)
    if laws:
        rows = conformal.verify_transform(conformal.rescale(g), records, point)
    else:
        rows = identities.verify(g, records, point)
    return {r.id: r for r in rows}


def test_every_record_runs_at_its_min_order():
    """An understated ``min_order`` would turn a pass into a JetOrderError.
    Each record runs on the first schedule geometry where it is not
    skipped, once at order 6 and once at exactly its ``min_order``.

    A pass builds each quantity to the order its records read, whatever
    the working order, so the records of one ``min_order`` read the same
    bits at order 6 as at their own.  Riding with the rest of their family
    can raise a quantity's order, and so the width of its padded products:
    against the family's pass at order 6 they agree to 1e-14."""
    jobs = [(name, kw, identities.select_records(fams), False)
            for name, kw, fams in SCHEDULE]
    jobs += [(name, kw, conformal.select_laws(), True)
             for name, kw in LAW_SCHEDULE]
    todo = {(laws, r.id) for _, _, records, laws in jobs for r in records}
    assert len(todo) == len(REGISTRY) + len(conformal.LAWS)
    for name, kw, records, laws in jobs:
        records = [r for r in records if (laws, r.id) in todo]
        if not records:
            continue
        full = _rows(name, kw, records, 6, laws)
        runs = [r for r in records
                if not full[r.id].status.startswith("skipped")]
        for order in sorted({r.min_order for r in runs}):
            group = [r for r in runs if r.min_order == order]
            low = _rows(name, kw, group, order, laws)
            high = _rows(name, kw, group, 6, laws)
            for rec in group:
                row, ref = low[rec.id], full[rec.id]
                assert row.status == "pass", (name, rec.id, row.status)
                assert row.max_residual == high[rec.id].max_residual, (
                    name, rec.id)
                assert abs(row.max_residual - ref.max_residual) <= 1e-14
                todo.discard((laws, rec.id))
    assert {rid for _, rid in todo} == RUNS_NOWHERE


def test_every_record_is_tight_at_its_min_order():
    # on a dim-4 chart with u, f, X and lambda, each record and its
    # hypothesis's equations evaluate on a lone point's canonical bundles
    # at the record's min_order, and run out of jet order one below it
    spec = dataclasses.replace(
        catalog.load("random", dim=4, seed=1, certify=False).spec, lam=0.5)
    point = GeometryInstance(spec, JetConfig(6)).sample_points(1, 0)[0]

    def run(rec, order):
        c = EvalContext(GeometryInstance(spec, JetConfig(order)), point)
        eqs = identities._STRUCTURES[rec.structure] if rec.structure else ()
        for evaluate in (rec.evaluate, *eqs):
            evaluate(c)

    for rec in REGISTRY + conformal.LAW_REGISTRY:
        run(rec, rec.min_order)
        with pytest.raises(JetOrderError):
            run(rec, rec.min_order - 1)


def test_a_replaced_evaluator_gets_the_order_of_its_own_reads():
    # dataclasses.replace(rec, evaluate=...) is how a caller wraps a
    # record: the copy derives its order afresh
    rec = identities.BY_ID["comm.riem_third"]
    spy = dataclasses.replace(rec, evaluate=lambda c: (c.on("ricci"),) * 2)
    assert (rec.min_order, spy.min_order) == (5, 2)
    assert not spy.reads_tilde


def test_every_structure_is_certified_at_structure_order():
    for kind, eqs in identities._STRUCTURES.items():
        assert jet_order([key for eq in eqs for key in reads(eq)]) == \
            STRUCTURE_ORDER, kind


def test_comm_builds_at_its_largest_min_order(built):
    entry = catalog.load("random", dim=5, seed=3)
    assert built == [(entry.geometry.name, STRUCTURE_ORDER)] * 4
    built.clear()
    g = entry.geometry
    rows = identities.verify(g, identities.select_records(["COMM"]),
                             g.sample_points(1, 0))
    assert built == [(g.name, 5)]
    assert all(r.status == "pass" for r in rows)
    assert g.config.order == 6


def test_laws_build_base_and_rescaled_states_at_order_4(built):
    entry = catalog.load("conformal_gaussian", dim=4)
    built.clear()
    pair = conformal.rescale(entry.geometry)
    rows = conformal.verify_transform(pair, conformal.select_laws(),
                                      pair.base.sample_points(1, 0))
    assert sorted(built) == [(pair.base.name, 4), (pair.tilde.name, 4)]
    assert max(law.min_order for law in conformal.LAWS.values()) == 4
    assert all(r.status == "pass" or r.status.startswith("skipped")
               for r in rows)


def test_configured_order_caps_the_working_order(capsys, built):
    code = main(["verify", "--catalog", "random", "--dim", "4", "--suite",
                 "COMM", "--points", "2", "--jet-order", "4",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["jet_order"] == 4
    assert sorted(set(built)) == [(doc["geometry"], 2), (doc["geometry"], 4)]
    assert built.count((doc["geometry"], 4)) == 2
    skipped = {r["id"] for r in doc["rows"]
               if r["status"] == "skipped(needs jet order >= 5)"}
    assert skipped == {r.id for r in identities.select_records(["COMM"])
                       if r.min_order == 5}


def test_report_keeps_the_configured_order(capsys, built):
    code = main(["verify", "--catalog", "sphere", "--suite", "CE",
                 "--points", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["jet_order"] == 6
    assert max(order for _, order in built) == 4


def test_catalog_certifies_at_structure_order(built):
    entry = catalog.load("sphere_killing", dim=3)
    assert entry.claims
    assert built == [(entry.geometry.name, STRUCTURE_ORDER)] * \
        catalog.CERTIFICATION_POINTS
    assert entry.geometry.config.order == 6


def test_jet_order_below_structure_order_is_a_config_error(capsys):
    code = main(["verify", "--catalog", "sphere", "--suite", "CE",
                 "--jet-order", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --jet-order 1: certifying the claims of "
                          "sphere(dim=3,r=1.0) ")
    assert err.endswith(" needs jet order >= 2\n")


def test_structured_records_can_be_certified_at_their_order():
    records = REGISTRY + tuple(conformal.LAWS.values())
    assert all(r.min_order >= STRUCTURE_ORDER for r in records
               if r.structure is not None)
