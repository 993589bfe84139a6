"""Command-line harness: flags, exit codes, formats, determinism."""

import json

import pytest

from ctlab.cli import main


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
    code, out, _ = run(capsys, "verify", "--catalog", "sphere", "--dim", "3",
                       "--suite", "SOL", "--points", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {r["id"]: r["status"] for r in doc["rows"]}
    assert rows["sol.defining_gradient"] == "skipped(no f)"


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


def test_exit_config_error(capsys):
    code, _, err = run(capsys, "verify", "--catalog", "not_an_entry",
                       "--suite", "COMM")
    assert code == 3  # unknown catalog name surfaces as certification-layer error
    code, _, err = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                       "3", "--suite", "NOPE")
    assert code == 2
    code, _, err = run(capsys, "eval", "--catalog", "euclidean", "--dim",
                       "3", "--quantity", "scalar", "--point", "0,0")
    assert code == 2


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


def test_env_jet_order(capsys, monkeypatch):
    monkeypatch.setenv("CTL_JET_ORDER", "4")
    code, out, _ = run(capsys, "verify", "--catalog", "euclidean", "--dim",
                       "3", "--suite", "COMM", "--points", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["jet_order"] == 4


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


def test_zero_tolerance_override_applies_to_laws(capsys):
    code, out, _ = run(capsys, "verify", "--catalog", "conformal_gaussian",
                       "--dim", "3", "--law", "cotton", "--tol-class", "B=0",
                       "--format", "json")
    assert code == 1
    (row,) = json.loads(out)["rows"]
    assert row["tol"] == 0.0
    assert row["status"] == "fail"
