"""Demand-driven jet order: each verification pass builds its point states
at the largest ``min_order`` its runnable records need, capped by the
configured order, and the catalog certifies at ``STRUCTURE_ORDER``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, conformal, identities
from ctlab.cli import main
from ctlab.geometry import PointState
from ctlab.identities import REGISTRY, STRUCTURE_ORDER

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
    entry = catalog.load(name, jet_order=order, **kw)
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
    skipped, once at order 6 and once at exactly its ``min_order``."""
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
            for rec in group:
                row, ref = low[rec.id], full[rec.id]
                assert row.status == "pass", (name, rec.id, row.status)
                if order >= 4:
                    assert row.max_residual == ref.max_residual, (name, rec.id)
                else:  # quantities read at their own top order round
                    # differently in the narrowest padded products
                    assert abs(row.max_residual - ref.max_residual) <= 1e-14
                todo.discard((laws, rec.id))
    assert {rid for _, rid in todo} == RUNS_NOWHERE


def test_comm_builds_at_its_largest_min_order(built):
    entry = catalog.load("random", dim=5, seed=3)
    assert built == [(entry.geometry.name, STRUCTURE_ORDER)] * 4
    built.clear()
    g = entry.geometry
    rows = identities.verify(g, identities.select_records(["COMM"]),
                             g.sample_points(1, 0))
    assert built == [(g.name, 5)]
    assert all(r.status == "pass" for r in rows)
    assert g.config.order == 6 and not g._points


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
    assert err.startswith("error: jet order exhausted")


def test_structured_records_can_be_certified_at_their_order():
    records = REGISTRY + tuple(conformal.LAWS.values())
    assert all(r.min_order >= STRUCTURE_ORDER for r in records
               if r.structure is not None)
