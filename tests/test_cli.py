"""Command-line harness: flags, exit codes, formats, determinism."""

import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctlab import catalog, geometry, identities
from ctlab.cli import _QUANTITIES, main
from ctlab.curvature import DimensionError
from ctlab.exprlang import MAX_DEPTH, MAX_LEVELS
from ctlab.geometry import MetricError
from ctlab.jets import JetOrderError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_comm_on_flat(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                       "3", "--suite", "COMM", "--points", "2")
    assert code == 0
    assert "overall: pass" in out


def test_verify_random_comm_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--catalog", "random", "--dim", "3",
                     "--suite", "COMM", "--seed", "7", "--points", "2",
                     "--format", "json", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["overall"] == "pass"
    assert doc["seed"] == 7
    assert any(r["id"] == "comm.bianchi1" for r in doc["rows"])


def test_verify_sphere_sol_skips(capsys):
    # COMM runs, so the SOL rows' skips are reported; SOL alone checks
    # nothing on the sphere, a configuration error
    code, out, _ = run(capsys, "verify", "--catalog", "sphere", "--dim", "3",
                       "--suite", "SOL,COMM", "--points", "2", "--format",
                       "json")
    assert code == 0
    doc = json.loads(out)
    rows = {r["id"]: r["status"] for r in doc["rows"]}
    assert rows["sol.defining_gradient"] == "skipped(no f)"
    code, out, err = run(capsys, "verify", "--catalog", "sphere", "--dim",
                         "3", "--suite", "SOL", "--points", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: nothing was checked: ")
    assert "no f: " in err


def test_verify_laws(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "conformal_gaussian",
                       "--dim", "3", "--law",
                       "scalar,ricci,cotton,d_tensor", "--points", "2")
    assert code == 0
    assert "overall: pass" in out


def test_determinism_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--catalog", "random", "--dim", "3", "--suite", "COMM",
            "--seed", "3", "--points", "2", "--format", "json"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_eval_sphere_scalar(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "sphere", "--dim", "3",
                       "--quantity", "scalar", "--point", "0,0,0")
    assert code == 0
    assert "6.000000000000" in out


def test_eval_weyl_dim3_zero(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "random", "--dim", "3",
                       "--quantity", "weyl", "--point", "0.1,0.2,0.3")
    assert code == 0
    values = [line.split()[-1] for line in out.splitlines()[1:]]
    assert all(abs(float(v)) < 1e-10 for v in values)


def test_eval_cotton_tracefree(capsys):
    code, out, _ = run(capsys, "eval", "--catalog", "random", "--dim", "4",
                       "--quantity", "cotton", "--point", "0.1,0.2,0.3,0.0")
    assert code == 0
    vals = {}
    for line in out.splitlines()[1:]:
        *idx, v = line.split()
        vals[tuple(int(i) for i in idx)] = float(v)
    trace = sum(vals[(i, i, k)] for i in range(1, 5) for k in range(1, 5)
                if (i, i, k) in vals)
    assert abs(trace) < 1e-9


@pytest.mark.parametrize("quantity", sorted(_QUANTITIES))
def test_eval_quantity_depth(quantity):
    # the table's depth is exactly what the quantity reads, and at_depth
    # gives the configured order's values bit for bit at every configured
    # order on the random charts (on these charts Bach read at its own
    # depth, and duf_tensor, which vanishes on the seed-1 chart, read at
    # order 3, differ from order 6 in the last bits)
    depth, value = _QUANTITIES[quantity]

    def outcome(g, p):
        try:
            return np.asarray(value(g, p)).tobytes()
        except (DimensionError, JetOrderError) as err:
            return str(err)  # Weyl-divergence routes at dim 3, low orders

    for dim, seed in ((3, 1), (3, 3), (4, 3)):
        chart = catalog.load("random", dim=dim, seed=seed,
                             certify=False).geometry
        for configured in range(1, 9):
            g = chart.at_order(configured)
            for p in g.sample_points(2, 1):
                assert outcome(g.at_depth(depth), p) == outcome(g, p)
    value(chart.at_order(depth), p)
    with pytest.raises(JetOrderError):
        value(chart.at_order(depth - 1), p)
    # on the catalog's charts at the default order the values move in their
    # last bits only: by at most 2e-15 of the largest component or of 1,
    # so a component that vanishes may print 0 against 3e-18
    for name in catalog.names():
        g = catalog.load(name, certify=False, jet_order=6).geometry
        for p in g.sample_points(3, 1):
            try:
                want = np.asarray(value(g, p))
            except (DimensionError, MetricError) as err:  # dim, fields
                with pytest.raises(type(err), match=re.escape(str(err))):
                    value(g.at_depth(depth), p)
                continue
            got = np.asarray(value(g.at_depth(depth), p))
            assert np.abs(got - want).max() <= 2e-15 * max(
                np.abs(want).max(), 1.0), (name, p)


@pytest.mark.parametrize("quantity, name", [
    ("d_tensor", "D"), ("dx_tensor", "D^X"), ("duf_tensor", "D^{u,f}"),
    ("dux_tensor", "D^{u,X}"), ("schouten", "Schouten"), ("weyl", "Weyl"),
    ("cotton", "Cotton"), ("bach", "Bach")])
def test_eval_d_tensors_need_dim_3(capsys, quantity, name):
    # each divides by m - 2, as Weyl does, or reads Schouten
    code, out, err = run(capsys, "eval", "--catalog", "random", "--dim", "2",
                         "--quantity", quantity, "--point", "0.1,0.2")
    assert (code, out) == (2, "")
    assert err == f"error: the {name} tensor requires dim >= 3, got 2\n"


@pytest.mark.parametrize("quantity, name", [
    ("cotton_weyl_div", "Cotton"), ("bach_weyl_div", "Bach")])
def test_eval_weyl_divergence_forms_need_dim_4(capsys, quantity, name):
    # each divides by m - 3
    code, out, err = run(capsys, "eval", "--catalog", "random", "--dim", "3",
                         "--quantity", quantity, "--point", "0.1,0.2,0.3")
    assert (code, out) == (2, "")
    assert err == (f"error: the Weyl-divergence form of the {name} tensor "
                   f"requires dim >= 4, got 3\n")


def test_eval_builds_its_point_at_the_quantity_depth(capsys, monkeypatch):
    orders = []
    init = geometry.PointState.__init__

    def spy(self, geom, point, *roots):
        # not a chunk of certification points
        if np.reshape(point, (-1, 3)).tolist() == [[0.1, 0.2, 0.3]]:
            orders.append(geom.config.order)
        init(self, geom, point, *roots)

    monkeypatch.setattr(geometry.PointState, "__init__", spy)
    for jet_order, want in [("6", 4), ("8", 4), ("3", 3), ("5", 4)]:
        orders.clear()
        code, out, _ = run(capsys, "eval", "--catalog", "random", "--dim",
                           "3", "--quantity", "cotton", "--point",
                           "0.1,0.2,0.3", "--jet-order", jet_order)
        assert code == 0
        assert orders == [want]
    code, _, err = run(capsys, "eval", "--catalog", "random", "--dim", "3",
                       "--quantity", "bach", "--point", "0.1,0.2,0.3",
                       "--jet-order", "3")
    assert code == 2
    assert "jet order exhausted" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "euclidean" in out
    assert "cigar_x_line" in out


def test_catalog_json_claims(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    rows = {r["name"]: r["claims"] for r in json.loads(out)}
    assert "gradient_soliton" in rows["cigar_x_line"]


def test_catalog_export_and_verify_spec(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "--export", "cigar_x_line")
    assert code == 0
    path = tmp_path / "cigar.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--spec", str(path), "--suite",
                       "SOL", "--points", "2")
    assert code == 0


def test_catalog_identity_dump(capsys):
    code, out, _ = run(capsys, "catalog", "--list-identities", "HIGH")
    assert code == 0
    assert len(json.loads(out)) == 4


def test_catalog_law_dump(capsys):
    code, out, _ = run(capsys, "catalog", "--list-identities", "LAW")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 27
    assert {r["family"] for r in rows} == {"LAW"}


def test_catalog_dump_of_an_unknown_family_exits_2(capsys):
    code, out, err = run(capsys, "catalog", "--list-identities", "NOPE")
    assert code == 2
    assert out == ""
    assert err == "error: unknown families: ['NOPE']\n"


def test_malformed_tolerance_override_names_its_flag(capsys):
    code, out, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                         "3", "--suite", "COMM", "--points", "1",
                         "--tol-class", "A=abc")
    assert code == 2
    assert out == ""
    assert err == "error: bad tolerance override 'A=abc'\n"


@pytest.mark.parametrize("point", ["0,x,0", "0,,0"])
def test_malformed_point_names_its_flag(capsys, point):
    code, out, err = run(capsys, "eval", "--catalog", "euclidean", "--dim",
                         "3", "--quantity", "scalar", "--point", point)
    assert code == 2
    assert out == ""
    assert err == f"error: bad --point {point!r}\n"


def test_exit_config_error(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "not_an_entry",
                       "--suite", "COMM")
    assert code == 2
    code, _, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                       "3", "--suite", "NOPE")
    assert code == 2
    code, _, err = run(capsys, "eval", "--catalog", "euclidean", "--dim",
                       "3", "--quantity", "scalar", "--point", "0,0")
    assert code == 2


@pytest.mark.parametrize("argv, named", [
    (["verify", "--catalog", "s2xs2", "--dim", "3"], "dim"),
    (["verify", "--catalog", "euclidean", "--radius", "7"], "radius"),
    (["verify", "--catalog", "cigar_x_line", "--dim", "5"], "dim"),
    (["verify", "--catalog", "nosuch"], "nosuch"),
    (["catalog", "--export", "euclidean", "--dim", "0"], "dim"),
    (["eval", "--catalog", "s2xs2", "--radius", "2", "--quantity", "scalar",
      "--point", "0,0,0,0"], "radius"),
    # a radius the entry takes, but no sphere has
    *[([cmd, "--catalog", name, "--radius", radius] + tail,
       "radius must be a positive finite number")
      for name in ("sphere", "sphere_killing")
      for radius in ("0", "-1", "inf", "nan")
      for cmd, tail in (("verify", ["--suite", "COMM"]),
                        ("eval", ["--quantity", "scalar", "--point",
                                  "0,0,0"]))],
    # a dim below the entry's least, refused before any chart text is
    # built (the random polynomials of an empty chart divided by zero)
    *[(["verify", "--catalog", name, "--dim", dim, "--suite", "COMM"],
       f"{name} needs dim >= 2, got dim={dim}")
      for name in ("random", "euclidean", "sphere", "conformal_gaussian",
                   "gaussian_plus_killing", "conformal_gaussian_plus_killing")
      for dim in ("0", "-3", "1")],
    (["verify", "--catalog", "cigar_x_flat", "--dim", "2"],
     "cigar_x_flat needs dim >= 3, got dim=2"),
    (["catalog", "--export", "random", "--dim", "1"], "dim=1"),
    # a negative sampling seed, with or without an entry that takes one
    *[([cmd, "--catalog", name, "--dim", "3", "--seed", "-1"] + tail,
       "--seed -1")
      for name in ("random", "euclidean")
      for cmd, tail in (("verify", ["--suite", "COMM"]),
                        ("eval", ["--quantity", "scalar", "--point",
                                  "0,0,0"]))],
])
def test_parameter_the_entry_does_not_take_exits_2(capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing may warn on the way
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_points_too_many_to_allocate_exits_2(capsys, monkeypatch):
    # the sample would not fit in memory: a configuration error, exit 2
    # (the catalog's own certification grid still fits)
    real = geometry.GeometryInstance.sample_points

    def sample_points(self, count, seed):
        if count > 1000:
            raise MemoryError(f"Unable to allocate the sample of {count}")
        return real(self, count, seed)

    monkeypatch.setattr(geometry.GeometryInstance, "sample_points",
                        sample_points)
    code, out, err = run(capsys, "verify", "--catalog", "random", "--dim",
                         "3", "--seed", "1", "--suite", "COMM", "--points",
                         "1000000000")
    assert (code, out) == (2, "")
    assert err == ("error: --points 1000000000: Unable to allocate the "
                   "sample of 1000000000\n")


def test_spec_with_entry_parameters_exits_2(capsys, tmp_path):
    path = tmp_path / "chart.json"
    path.write_text(catalog.load("euclidean", dim=3).spec.to_json())
    for flag, value in (("--dim", "3"), ("--radius", "2")):
        code, out, err = run(capsys, "verify", "--spec", str(path), flag,
                             value, "--suite", "COMM", "--points", "1")
        assert code == 2
        assert out == "" and flag in err


def test_seed_goes_to_the_entry_only_if_it_takes_one(capsys):
    # sphere takes no seed: --seed is then only the sampling seed
    code, out, _ = run(capsys, "verify", "--catalog", "sphere", "--seed", "4",
                       "--suite", "CE", "--points", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["geometry"], doc["seed"]) == ("sphere(dim=3,r=1.0)", 4)
    code, out, _ = run(capsys, "verify", "--catalog", "conformal_s2xs2",
                       "--seed", "4", "--suite", "CE", "--points", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["geometry"] == "conformal_s2xs2(seed=4)"


def test_exit_identity_failure(capsys):
    # absurdly tight class override forces residual > tol
    code, out, _ = run(capsys, "verify", "--catalog", "random", "--dim", "3",
                       "--suite", "COMM", "--points", "1", "--tol-class",
                       "A=1e-30,B=1e-30,C=1e-30")
    assert code == 1
    assert "overall: fail" in out


def test_exit_certification_failure(capsys, tmp_path):
    spec = {
        "name": "fake_soliton",
        "dim": 3,
        "coords": ["x1", "x2", "x3"],
        "domain": [[-1, 1], [-1, 1], [-1, 1]],
        "metric": [["1"], ["0", "1+0.2*x1^2"], ["0", "0", "1"]],
        "f": "x1^2",
        "lambda": 0.5,
    }
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "verify", "--spec", str(path), "--suite", "SOL")
    assert code == 3
    assert "not certified" in err


_GAUSSIAN3 = {
    "name": "gaussian3",
    "dim": 3,
    "coords": ["x1", "x2", "x3"],
    "domain": [[-1, 1], [-1, 1], [-1, 1]],
    "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
    "f": "(x1^2+x2^2+x3^2)/4",
    "lambda": 0.5,
}


def _gaussian3_with(tmp_path, entry: str) -> str:
    """A path to ``_GAUSSIAN3`` with ``entry`` as its first metric entry."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(
        {**_GAUSSIAN3, "metric": [[entry], ["0", "1"], ["0", "0", "1"]]}))
    return str(path)


@pytest.mark.parametrize("entry, offset", [
    ("(" * 200 + "1" + ")" * 200, 100),
    ("-" * 1000 + "1+2", 100),
    ("(x1^2+2)" + "^1" * 1000, 210),
], ids=["parentheses", "minus-signs", "exponents"])
def test_nesting_past_the_limit_exits_2(capsys, tmp_path, entry, offset):
    # refused by the parser with the offset of the level past the limit,
    # not a RecursionError's traceback
    code, out, err = run(capsys, "verify", "--spec",
                         _gaussian3_with(tmp_path, entry), "--suite", "SOL",
                         "--points", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: expression nested deeper than {MAX_DEPTH} "
                   f"levels (at offset {offset})\n")


def test_nesting_at_the_limit_parses(capsys, tmp_path):
    entry = "exp(" + "(" * (MAX_DEPTH - 2) + "-0" + ")" * (MAX_DEPTH - 1)
    code, out, err = run(capsys, "verify", "--spec",
                         _gaussian3_with(tmp_path, entry), "--suite", "SOL",
                         "--points", "2")
    assert (code, err) == (0, "")
    assert "overall: pass" in out


def test_long_flat_chain_exits_2(capsys, tmp_path):
    # a sum of 1000 terms nests no level but parses as a tree 1000 levels
    # deep: refused by the parser, not a RecursionError's traceback
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "name": "chain", "dim": 2, "coords": ["x1", "x2"],
        "domain": [[-1, 1], [-1, 1]],
        "metric": [["+".join(["1"] * 1000)], ["0", "1"]]}))
    code, out, err = run(capsys, "verify", "--spec", str(path), "--suite",
                         "COMM", "--points", "2")
    assert (code, out) == (2, "")
    assert err == ("error: expression tree 1000 levels deep, past the limit "
                   f"of {MAX_LEVELS} (at offset 0)\n")


def test_chains_at_the_level_limit_run(capsys, tmp_path):
    # f at the limit, and the metric entries and u short of it by as much
    # as the rescaling adds, so that the rescaled entries are at it too
    def chain(term, n):
        return "*".join([term] * n)

    one, zero = chain("1", MAX_LEVELS - 1), chain("0", MAX_LEVELS - 1)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        **_GAUSSIAN3,
        "metric": [[one, zero, "0"], [zero.replace("*", " * "), "1", "0"],
                   ["0", "0", "1"]],
        "u": "0.1*" + chain("x1", MAX_LEVELS - 4),
        "f": chain("x2", MAX_LEVELS)}))
    code, out, err = run(capsys, "verify", "--spec", str(path), "--suite",
                         "COMM", "--law", "ricci,scalar", "--points", "2")
    assert (code, err) == (0, "")
    assert "overall: pass" in out


def test_chart_leaving_float_range_exits_2(capsys, tmp_path):
    # 1e308*x1^2 + 1 is finite at every sample point, but its partials
    # overflow: no identity is wrong, the chart leaves floating-point
    # range, so the run exits 2 with one line naming the chart and the
    # point, and no numpy warning, where it printed NaN rows and exited 1
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow", "dim": 2, "coords": ["x1", "x2"],
        "domain": [[-1, 1], [-1, 1]],
        "metric": [["1e308*x1^2+1"], ["0", "1"]]}))
    line = (r"error: Christoffel symbols of 'overflow' not finite at "
            r"\({}\): the chart leaves floating-point range\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--spec", str(path), "--suite",
                             "COMM", "--points", "2")
        assert (code, out) == (2, "")
        assert re.fullmatch(line.format(r"\S+, \S+"), err)
        code, out, err = run(capsys, "eval", "--spec", str(path),
                             "--quantity", "riemann", "--point", "0.5,0.5")
        assert (code, out) == (2, "")
        assert re.fullmatch(line.format(r"0\.5, 0\.5"), err)
    assert caught == []


@pytest.mark.parametrize("doc,line", [
    ({**_GAUSSIAN3, "lambda": "half"},
     "geometry field 'lambda' must be a number, got 'half'"),
    ({**_GAUSSIAN3, "dim": "3"},
     "geometry field 'dim' must be an integer, got '3'"),
    ([_GAUSSIAN3], "a geometry file must hold one JSON object"),
    ({k: v for k, v in _GAUSSIAN3.items() if k != "metric"},
     "geometry file has no 'metric' field"),
    ({**_GAUSSIAN3, "u": 5},
     "an expression must be a string, got 5"),
    ({**_GAUSSIAN3, "domain": [[-1], [-1, 1], [-1, 1]]},
     "geometry field 'domain' must be 3 pairs of numbers, "
     "got [[-1], [-1, 1], [-1, 1]]"),
    ({**_GAUSSIAN3, "coords": ["x1", "x2", 3]},
     "geometry field 'coords' must be 3 strings, got ['x1', 'x2', 3]"),
    ({**_GAUSSIAN3, "name": 5},
     "geometry field 'name' must be a string, got 5"),
    ({**_GAUSSIAN3, "coords": ["x1", "x2", "x1"]},
     "coords repeat a name: ['x1', 'x2', 'x1'] (at offset 0)"),
    ({**_GAUSSIAN3, "domain": [[-1, 1], [-1, math.inf], [-1, 1]]},
     "domain interval [-1.0, inf] is not finite (at offset 0)"),
    ({**_GAUSSIAN3, "name": None}, "geometry file has no 'name' field"),
    ({**_GAUSSIAN3, "dim": None}, "geometry file has no 'dim' field"),
    ({**_GAUSSIAN3, "metric": 5},
     "geometry field 'metric' must be 3 rows, got 5"),
    ({**_GAUSSIAN3, "metric": [["1"], ["0", "1"], None]},
     "geometry field 'metric' must be 3 rows, got [['1'], ['0', '1'], None]"),
], ids=["lambda", "dim", "list", "no-metric", "number-for-expression",
        "domain", "coords", "name", "repeated-coords", "infinite-domain",
        "null-name", "null-dim", "number-metric", "null-metric-row"])
def test_malformed_spec_file_exits_2(capsys, tmp_path, doc, line):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    # refused before any pass runs, whether or not it runs the laws, which
    # compile the chart's rescaling
    for suite in (["--suite", "SOL"], ["--suite", "COMM"], ["--law", "all"]):
        code, out, err = run(capsys, "verify", "--spec", str(path), *suite,
                             "--points", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: {line}\n"


def test_catalog_claim_failing_certification_exits_3(capsys, monkeypatch):
    # a claim of a catalog entry that fails at load is a certification
    # failure, like a hypothesis that fails in the driver
    monkeypatch.setattr(catalog, "structure_residuals",
                        lambda c, kind, lam: np.ones(len(c.points)))
    code, out, err = run(capsys, "verify", "--catalog", "euclidean",
                         "--suite", "COMM", "--points", "1")
    assert code == 3 and out == ""
    assert err.startswith("certification error: certification failed for "
                          "euclidean(dim=3): claim einstein")


def test_env_jet_order(capsys, monkeypatch):
    monkeypatch.setenv("CTL_JET_ORDER", "4")
    code, out, _ = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                       "3", "--suite", "COMM", "--points", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["jet_order"] == 4


def test_env_jet_order_that_is_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CTL_JET_ORDER", "x")
    code, out, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                         "3", "--suite", "COMM", "--points", "1")
    assert code == 2
    assert out == ""
    assert err == "error: CTL_JET_ORDER='x' is not an integer\n"


def test_unknown_id_error_line_has_no_repr_quotes(capsys):
    code, out, err = run(capsys, "verify", "--catalog", "conformal_gaussian",
                         "--dim", "3", "--law", "nosuch")
    assert code == 2
    assert out == ""
    assert err == "error: unknown law ids: ['nosuch']\n"


def _flat3_spec(tmp_path, f, domain=((-1, 1), (-1, 1), (-1, 1))):
    spec = {
        "name": "flat3",
        "dim": 3,
        "coords": ["x1", "x2", "x3"],
        "domain": [list(d) for d in domain],
        "metric": [["1"], ["0", "1"], ["0", "0", "1"]],
        "f": f,
    }
    path = tmp_path / "flat3.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_fails(capsys, tmp_path):
    # the jets of f overflow to inf, so both sides of the scalar
    # commutation rules turn into inf - inf = NaN
    path = _flat3_spec(tmp_path, "1e307*x1^4")
    code, out, _ = run(capsys, "verify", "--spec", path, "--suite", "COMM",
                       "--points", "2", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "fail"
    failed = [r for r in doc["rows"] if r["status"] == "fail"]
    assert failed and all(r["max_residual"] != r["max_residual"]
                          for r in failed)


def test_overflow_is_a_config_error(capsys, tmp_path):
    path = _flat3_spec(tmp_path, "exp(exp(exp(3*x1)))",
                       domain=((0.9, 1), (-1, 1), (-1, 1)))
    code, _, err = run(capsys, "verify", "--spec", path, "--suite", "COMM",
                       "--points", "1")
    assert code == 2
    assert err.startswith("error:")


def test_metric_error_precedes_u_domain_error(capsys, tmp_path):
    # at every sample point g_11 = x1 < 0 and log(x1) fails too; the
    # metric is checked before u is evaluated, so the run reports the metric
    spec = {
        "name": "notpd",
        "dim": 3,
        "coords": ["x1", "x2", "x3"],
        "domain": [[-1, -0.5], [-1, 1], [-1, 1]],
        "metric": [["x1"], ["0", "1"], ["0", "0", "1"]],
        "u": "log(x1)",
    }
    path = tmp_path / "notpd.json"
    path.write_text(json.dumps(spec))
    for extra in (["--law", "all"], ["--suite", "COMM"]):
        code, out, err = run(capsys, "verify", "--spec", str(path),
                             "--points", "1", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: metric of 'notpd' not positive "
                              "definite at (")


def test_tolerance_override_applies_to_laws(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "conformal_gaussian",
                       "--dim", "3", "--law", "cotton", "--tol-class",
                       "B=1e-300", "--format", "json")
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["tol"] == 1e-300
    assert row["status"] == "fail"


def test_tolerance_override_applies_to_pinned_families(capsys):
    # SOL pins its own tolerance, but a class override still replaces it
    code, out, _ = run(capsys, "verify", "--catalog", "cigar_x_line",
                       "--suite", "SOL", "--points", "2", "--tol-class",
                       "A=1e-300,B=1e-300", "--format", "json")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert len(rows) == 21 and all(r["tol"] == 1e-300 for r in rows)
    # one row is exactly 0 (sol.d_cyclic) and one needs dim >= 4
    assert sum(r["status"] == "fail" for r in rows) == 19
    code, out, _ = run(capsys, "verify", "--catalog", "cigar_x_line",
                       "--suite", "SOL", "--points", "2", "--format", "json")
    assert code == 0
    assert {r["tol"] for r in json.loads(out)["rows"]} == {1e-8}


def test_tolerance_override_reaches_the_class_of_the_jet_order(capsys):
    # comm.vec_third reads X's derivatives to jet order 2: class A, so an
    # A override reaches it and a B override does not
    for override, tol in (("A=1e-3", 1e-3), ("B=1e-3", 1e-9)):
        code, out, _ = run(capsys, "verify", "--catalog", "random", "--dim",
                           "3", "--id", "comm.vec_third", "--points", "2",
                           "--tol-class", override, "--format", "json")
        assert code == 0
        [row] = json.loads(out)["rows"]
        assert (row["id"], row["status"], row["tol"]) == (
            "comm.vec_third", "pass", tol), override


@pytest.mark.parametrize("override", ["A=inf,B=inf", "A=nan", "A=0", "A=-1"])
def test_tolerance_override_that_decides_every_row_is_rejected(capsys,
                                                              override):
    # inf would pass every row and write "tol": Infinity; 0, -1 and nan
    # would fail every row
    code, out, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                         "3", "--suite", "COMM", "--points", "1",
                         "--tol-class", override)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance override ")
    assert "must be a positive finite number" in err
    assert err.count("\n") == 1


def test_suite_with_id_runs_both(capsys):
    # the suite's records in registry order, then the ids not among them;
    # an id of a chosen suite is not run twice
    code, out, err = run(capsys, "verify", "--catalog", "sphere", "--suite",
                         "CE", "--id", "comm.bianchi1,ce.single_eq",
                         "--points", "1", "--format", "json")
    assert (code, err) == (0, "")
    ids = [r["id"] for r in json.loads(out)["rows"]]
    assert ids == [r.id for r in identities.select_records(["CE"])] + [
        "comm.bianchi1"]


@pytest.mark.parametrize("flag, given, twice", [
    ("--id", "comm.bianchi1,comm.bianchi1", "comm.bianchi1"),
    ("--law", "ricci,scalar,ricci", "ricci"),
])
def test_id_given_twice_is_rejected(capsys, flag, given, twice):
    # it would run its record twice and print its row twice
    code, out, err = run(capsys, "verify", "--catalog", "sphere", flag,
                         given, "--points", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {given}: {twice} given twice\n"


def test_tolerance_class_given_twice_is_rejected(capsys):
    # A=1e-9,A=2 would silently keep the last value
    code, out, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                         "3", "--suite", "COMM", "--points", "1",
                         "--tol-class", "A=1e-9,B=1e-7,A=2")
    assert code == 2
    assert out == ""
    assert err == "error: tolerance override 'A=2': A given twice\n"


def test_eval_point_of_the_wrong_length_is_a_config_error(capsys):
    for point, n in (("0.1,0.2", 2), ("0.1,0.2,0.3,0,0,0", 6)):
        for quantity in ("scalar", "christoffel"):
            code, out, err = run(capsys, "eval", "--catalog", "random",
                                 "--dim", "3", "--quantity", quantity,
                                 "--point", point)
            assert code == 2
            assert out == ""
            assert err == f"error: point has {n} components, chart has 3\n"


def test_zero_points_is_a_config_error(capsys):
    # nothing would be checked, so no row may pass
    for extra in (["--suite", "COMM"], ["--law", "all"]):
        code, out, err = run(capsys, "verify", "--catalog", "euclidean",
                             "--dim", "3", "--points", "0", *extra)
        assert code == 2
        assert out == ""
        assert "at least one point" in err


def test_run_that_checks_nothing_exits_2(capsys):
    # every row skipped: a report would read "overall: pass" with nothing
    # checked, so the run is a configuration error, with one line saying why
    code, out, err = run(capsys, "verify", "--catalog", "random", "--dim",
                         "3", "--jet-order", "0", "--suite", "COMM")
    assert code == 2
    assert out == ""
    assert err == ("error: nothing was checked: all 36 selected rows were "
                   "skipped (needs jet order >= 2: 3; needs jet order >= 3: "
                   "13; needs jet order >= 4: 14; needs jet order >= 5: 6)\n")


@pytest.mark.parametrize("order", ["0", "1"])
@pytest.mark.parametrize("tail", [["verify", "--suite", "COMM"],
                                  ["eval", "--quantity", "scalar", "--point",
                                   "0,0,0"]])
def test_jet_order_too_low_to_certify_names_the_flag(capsys, order, tail):
    code, out, err = run(capsys, tail[0], "--catalog", "euclidean", "--dim",
                         "3", "--jet-order", order, *tail[1:])
    assert code == 2
    assert out == ""
    assert err == (f"error: --jet-order {order}: certifying the claims of "
                   f"euclidean(dim=3) (einstein, gradient_soliton, "
                   f"generic_soliton) needs jet order >= 2\n")


def test_negative_points_is_a_config_error(capsys):
    # rejected before any geometry is built, with one line on stderr
    for points in ("-1", "-8"):
        code, out, err = run(capsys, "verify", "--catalog", "euclidean",
                             "--dim", "3", "--suite", "COMM",
                             "--points", points)
        assert code == 2
        assert out == ""
        assert err == (f"error: --points {points}: verification needs at "
                       f"least one point\n")


def test_identities_and_laws_share_point_states(capsys, monkeypatch):
    # one driver pass: 4 certification points at load, then 8 base and 8
    # rescaled points' states; a second pass for the laws would build 16
    # more (one name per point of each chunk's state)
    from ctlab.geometry import PointState
    built = []
    init = PointState.__init__

    def counting_init(self, geometry, point, *roots):
        built.extend([geometry.name] * len(np.reshape(point,
                                                      (-1, geometry.dim))))
        init(self, geometry, point, *roots)

    monkeypatch.setattr(PointState, "__init__", counting_init)
    code, out, _ = run(capsys, "verify", "--catalog", "conformal_gaussian",
                       "--dim", "4", "--suite", "CGRS", "--law", "all",
                       "--points", "8")
    assert code == 0
    assert "overall: pass" in out
    assert len(built) == 20
    assert sum(name.endswith("~") for name in built) == 8


def _readme_block(readme: str, heading: str, lang: str = "") -> str:
    """The first fenced code block after ``heading`` in the README."""
    section = readme.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    spec = json.loads(_readme_block(readme, "## Geometry files", "json"))
    (tmp_path / f"{spec['name']}.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True)
             for line in _readme_block(readme, "## Command line").splitlines()]
    assert len(lines) >= 8
    for argv in lines:
        assert argv[0] == "ctlab"
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (argv, err)
