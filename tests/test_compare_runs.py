"""scripts/compare_runs.py: per-file report and the 1e-12 exit gate."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


def _tree(root, solution_value, csv_value, out="runs/a", mode="primal"):
    run = root / "run"
    run.mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps({"config": {"out": out, "seed": 1}}))
    (run / "solution.json").write_text(json.dumps({"mode": mode, "value": solution_value,
                                                   "grid_edge": False}))
    (run / "candidates.csv").write_text(f"# config_hash=abc\npi,value\n0.5,{csv_value!r}\n")
    return root


def test_identical_trees_pass(tmp_path, capsys):
    a = _tree(tmp_path / "a", 0.25, 1.5)
    b = _tree(tmp_path / "b", 0.25, 1.5, out="runs/b")
    assert compare_runs.main([str(a), str(b)]) == 0
    report = capsys.readouterr().out
    assert "run/solution.json: byte-identical" in report
    assert "run/manifest.json: same values over 1 numbers (bytes differ)" in report


def test_rounding_level_differences_pass_and_are_reported(tmp_path, capsys):
    a = _tree(tmp_path / "a", 0.25, 1.5)
    b = _tree(tmp_path / "b", 0.25 + 1e-16, 1.5 + 4e-16)
    assert compare_runs.main([str(a), str(b)]) == 0
    report = capsys.readouterr().out
    assert "run/candidates.csv: max abs diff 4.44e-16" in report


@pytest.mark.parametrize("change", ["number", "text", "missing"])
def test_real_differences_fail(tmp_path, change):
    a = _tree(tmp_path / "a", 0.25, 1.5)
    if change == "number":
        b = _tree(tmp_path / "b", 0.25 + 1e-11, 1.5)
    elif change == "text":
        b = _tree(tmp_path / "b", 0.25, 1.5, mode="dual")
    else:
        b = _tree(tmp_path / "b", 0.25, 1.5)
        (b / "run" / "candidates.csv").unlink()
    assert compare_runs.main([str(a), str(b)]) == 1


def test_usage_error(tmp_path):
    assert compare_runs.main([str(tmp_path)]) == 2
