"""The layer harness (``scripts/layer_bench.py``) times each pass as the
verification driver runs it: the same records, the chunk size the walker
takes and the block size the driver evaluates records in."""

import sys
from pathlib import Path

import pytest

from ctlab import catalog, conformal, curvature, geometry, identities
from ctlab.identities import EvalContext

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import layer_bench  # noqa: E402
import run_full_suite  # noqa: E402
from layer_bench import (COMM, CONDITIONAL, TOWER, cert_rows,  # noqa: E402
                         record_table, setup, tower_rows)
from run_full_suite import LAW_SCHEDULE  # noqa: E402


# conformal_gaussian dim 4 holds less a point on its base than on its
# rescaled geometry, so the walker's chunks differ from the base's own size
@pytest.mark.parametrize("name, params, suite",
                         [(*LAW_SCHEDULE[0], "LAW"), (*COMM[0], "COMM")])
def test_pass_is_set_up_as_the_driver_runs_it(monkeypatch, name, params,
                                              suite):
    p = setup(name, params, suite)
    chunks, blocks, plans = [], [], []
    walk, stacked = geometry.point_blocks, EvalContext.stacked

    def point_blocks(points, *geometries):
        plans.append([g.orders for g in geometries])
        for chunk in walk(points, *geometries):
            chunks.append(len(chunk))
            yield chunk

    def spy(g, points, values):
        blocks.append(len(points))
        return stacked(g, points, values)

    monkeypatch.setattr(geometry, "point_blocks", point_blocks)
    monkeypatch.setattr(EvalContext, "stacked", spy)
    g = catalog.load(name, certify=False, **params).geometry
    # the first chunk by its rule, then a full block of records
    points = g.sample_points(p.first + p.block + 2, 0)
    if suite == "LAW":
        rows = conformal.verify_transform(
            conformal.rescale(g), conformal.select_laws(), points)
    else:
        rows = identities.verify(g, identities.select_records([suite]),
                                 points)
    assert [r.id for r in p.records] == [
        row.id for row in rows if not row.status.startswith("skipped")]
    dim, order = p.geometries[0].dim, p.geometries[0].config.order
    assert p.first == max(1, geometry.BLOCK_TRIPLES // dim ** (order + 2))
    assert chunks[0] == p.first and chunks[1] == p.chunk
    assert blocks[0] == p.block
    # its geometries are planned as identities.verify plans them
    assert plans == [[g.orders for g in p.geometries]]
    assert all(g.orders for g in p.geometries)


def test_cert_rows_time_each_hypothesis_at_the_walkers_chunk():
    passes = [setup(*CONDITIONAL[-1]), setup(*LAW_SCHEDULE[0], "LAW")]
    rows = list(cert_rows(passes, 1))
    assert [(p.suite, kind) for p, kind, _ in rows] == [
        ("CGERS+CGRS", "conformal_gradient_soliton"),
        ("CGERS+CGRS", "conformal_generic_soliton"),
        ("LAW", "tilde_gradient_soliton")]
    assert all(ms > 0 for *_, ms in rows)


def test_tower_rows_time_each_build_at_one_point_and_the_walkers_chunk():
    passes = [setup(name, params, "COMM") for name, params in COMM]
    rows = list(tower_rows(passes, 1))
    assert [(dim, order, size) for dim, order, size, _ in rows] == [
        (p.geometries[0].dim, p.geometries[0].config.order, size)
        for p in passes for size in sorted({1, p.chunk})]
    assert {dim for dim, *_ in rows} == {3, 4, 5}
    for *_, ms in rows:
        assert len(ms) == len(TOWER) and (ms > 0).all()


def test_law_table_counts_each_evaluators_products_by_path(capsys):
    p = setup(*LAW_SCHEDULE[0], "LAW")
    record_table("laws", ["pair 1"], ["nabla2_ricci", "scalar"], [p], 1)
    rows = {line.split()[0]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()}
    gemm, delta, numpy = map(int, rows["nabla2_ricci"].split("/"))
    assert delta > 40 and gemm > 0 and numpy > 0
    assert rows["scalar"] == "0/0/1"  # dot(u1, u1)
    assert conformal.einsum is curvature.einsum  # the count's spy is gone


@pytest.mark.parametrize("script, option", [(layer_bench, "--repeat"),
                                            (run_full_suite, "--points")])
def test_counts_below_one_are_usage_errors(monkeypatch, capsys, script,
                                           option):
    # rejected by argparse before any work, not a traceback from the run
    for value in ("0", "-3"):
        monkeypatch.setattr(sys, "argv", ["script", option, value])
        with pytest.raises(SystemExit) as exit_:
            script.main()
        assert exit_.value.code == 2
        assert f"{option}: must be at least 1" in capsys.readouterr().err
