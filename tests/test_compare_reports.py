"""scripts/compare_reports.py on small report trees."""

import sys
from pathlib import Path

from ctlab.report import ReportRow, VerificationReport

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from compare_reports import main  # noqa: E402


def _tree(path, rows_by_file, **header):
    path.mkdir(parents=True)
    for name, rows in rows_by_file.items():
        report = VerificationReport("0", "chart", "h", 3, 6, 0, 2,
                                    [ReportRow(*row) for row in rows])
        for key, value in header.items():
            setattr(report, key, value)
        (path / name).write_text(report.to_json() + "\n")
    return path


BASE = {"00-a-COMM.json": [("x", "COMM", "x", 1e-15, 1e-10, "pass"),
                           ("y", "COMM", "y", None, None, "skipped(dim)")],
        "01-b-LAW.json": [("z", "LAW", "z", 2e-16, 1e-10, "pass")]}


def _run(capsys, tmp_path, changed, *flags):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", changed)
    code = main([str(a), str(b), *flags])
    return code, capsys.readouterr().out


def test_identical_trees(capsys, tmp_path):
    code, out = _run(capsys, tmp_path, BASE, "--exact")
    assert code == 0
    assert "rows compared: 3 (2 with residuals)" in out
    assert "status changes: 0" in out
    assert "residuals moved: 0; max |delta|: 0.000e+00" in out


def test_moved_residual_counts_and_fails_only_when_exact(capsys, tmp_path):
    moved = dict(BASE, **{"01-b-LAW.json": [
        ("z", "LAW", "z", 5e-16, 1e-10, "pass")]})
    code, out = _run(capsys, tmp_path, moved)
    assert code == 0
    assert "MOVED b-LAW.json:z: 2.000000e-16 -> 5.000000e-16" in out
    assert "residuals moved: 1; max |delta|: 3.000e-16" in out
    assert main([str(tmp_path / "a"), str(tmp_path / "b"), "--exact"]) == 1


def test_residual_drift_beyond_max_delta_fails(capsys, tmp_path):
    # BASE's LAW row moves by 3e-16, then by about 5e-13
    small = dict(BASE, **{"01-b-LAW.json": [
        ("z", "LAW", "z", 5e-16, 1e-10, "pass")]})
    code, out = _run(capsys, tmp_path / "small", small, "--max-delta", "1e-15")
    assert code == 0
    assert "residuals moved by more than 1.000e-15: 0" in out
    big = dict(BASE, **{"01-b-LAW.json": [
        ("z", "LAW", "z", 5e-13, 1e-10, "pass")]})
    code, out = _run(capsys, tmp_path / "big", big, "--max-delta", "1e-15")
    assert code == 1
    assert "residuals moved by more than 1.000e-15: 1" in out
    a, b = tmp_path / "big" / "a", tmp_path / "big" / "b"
    assert main([str(a), str(b), "--max-delta", "1e-12"]) == 0
    assert main([str(a), str(b)]) == 0


def test_status_change_fails(capsys, tmp_path):
    failed = dict(BASE, **{"01-b-LAW.json": [
        ("z", "LAW", "z", 2e-9, 1e-10, "fail")]})
    code, out = _run(capsys, tmp_path, failed)
    assert code == 1
    assert "STATUS b-LAW.json:z: pass -> fail" in out
    assert "status changes: 1" in out


def test_row_mismatches_fail(capsys, tmp_path):
    for k, changed in enumerate([
            {"00-a-COMM.json": BASE["00-a-COMM.json"]},      # a file gone
            dict(BASE, **{"01-b-LAW.json": [                # another id
                ("w", "LAW", "w", 2e-16, 1e-10, "pass")]}),
            dict(BASE, **{"01-b-LAW.json": [                # a residual gone
                ("z", "LAW", "z", None, 1e-10, "pass")]})]):
        code, out = _run(capsys, tmp_path / str(k), changed)
        assert code == 1, k
        assert "MISMATCH b-LAW.json:" in out, k


def test_row_mismatches_say_what_differs(capsys, tmp_path):
    changed = {"00-a-COMM.json": [("x", "COMM", "x", 1e-15, 1e-9, "pass"),
                                  ("y", "COMM", "y", 6.6e-17, None, "pass")],
               "01-b-LAW.json": [("w", "LAW", "w", 2e-16, 1e-10, "pass"),
                                 ("v", "LAW", "v", 2e-16, 1e-10, "pass")]}
    code, out = _run(capsys, tmp_path, changed)
    assert code == 1
    assert [line for line in out.splitlines()
            if line.startswith(("MISMATCH", "STATUS"))] == [
        "MISMATCH a-COMM.json:x tol 1e-10 -> 1e-09",
        "MISMATCH a-COMM.json:y max_residual None -> 6.6e-17",
        "MISMATCH b-LAW.json:z id 'z' -> 'w'",
        f"MISMATCH b-LAW.json:v not in {tmp_path / 'a'}",
        "STATUS a-COMM.json:y: skipped(dim) -> pass"]


def test_files_match_by_geometry_and_suite(capsys, tmp_path):
    # an entry scheduled before both renumbers them; they still match
    renumbered = {"03-a-COMM.json": BASE["00-a-COMM.json"],
                  "04-b-LAW.json": BASE["01-b-LAW.json"]}
    code, out = _run(capsys, tmp_path, renumbered, "--exact")
    assert code == 0
    assert "MISMATCH" not in out
    assert "rows compared: 3 (2 with residuals)" in out


def test_files_sharing_a_key_fail(capsys, tmp_path):
    twice = dict(BASE, **{"05-a-COMM.json": BASE["00-a-COMM.json"]})
    code, out = _run(capsys, tmp_path, twice)
    assert code == 1
    assert "00-a-COMM.json and 05-a-COMM.json are both a-COMM.json" in out


def test_no_rows_fail(capsys, tmp_path):
    empty = _tree(tmp_path / "empty", {})
    assert main([str(empty), str(empty)]) == 1
    assert "rows compared: 0" in capsys.readouterr().out


def test_header_changes_fail(capsys, tmp_path):
    # a renamed chart with a new hash and the same rows is a different run
    a = _tree(tmp_path / "a", BASE)
    for k, header in enumerate([{"geometry": "chart2", "geometry_hash": "h2"},
                                {"dim": 4}, {"jet_order": 5}, {"seed": 1},
                                {"points": 3}]):
        b = _tree(tmp_path / f"b{k}", BASE, **header)
        assert main([str(a), str(b), "--exact"]) == 1, header
        out = capsys.readouterr().out
        for key in header:
            assert f"MISMATCH a-COMM.json:{key} " in out, header
            assert f"MISMATCH b-LAW.json:{key} " in out, header
        assert "rows compared: 3 (2 with residuals)" in out, header


def test_tool_version_change_passes(capsys, tmp_path):
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", BASE, tool_version="0.2.0")
    assert main([str(a), str(b), "--exact"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
