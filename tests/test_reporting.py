"""Record pass rule: empty or non-finite residual sets never pass, and only
`make_record` judges a residual against its tolerance.  Both readers of a
report, `liebundles report` and compare_reports.py, refuse the same malformed
reports with the same message."""

import dataclasses
import functools
import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

import liebundles
from liebundles.cli import main
from liebundles.reporting import MODES, make_record


@pytest.mark.parametrize("residuals, tolerance, mode", [
    ([1e-12, math.nan], 1e-8, "max<=tol"),
    ([1e-12, math.inf], 1e-8, "max<=tol"),
    ([2.0, math.nan], 1e-3, "min>tol"),
    ([], 1e-8, "max<=tol"),
    ([], 1e-3, "min>tol"),
    (np.array([1e-12, np.nan]), 1e-8, "max<=tol"),
    (np.array([2.0, -np.inf]), 1e-3, "min>tol"),
    (np.array([]), 1e-8, "max<=tol"),
    (np.zeros(0), 1e-3, "min>tol"),
])
def test_empty_or_non_finite_residuals_fail(residuals, tolerance, mode):
    record = make_record("check", "label", "scenario", residuals, tolerance, mode=mode)
    assert not record.passed
    assert record.samples == len(residuals)
    assert math.isnan(record.max_residual) and math.isnan(record.mean_residual)


def test_the_mean_is_the_left_to_right_sum():
    residuals = [1.0] + [2.0**-53] * 9
    record = make_record("check", "label", "scenario", np.array(residuals), 1.0)
    assert record.mean_residual == 0.1
    # numpy's pairwise sum keeps the small terms
    assert np.mean(residuals) == np.sum(residuals) / 10 == 0.10000000000000009


@pytest.mark.parametrize("mode", MODES)
def test_numpy_scalars_and_ints_judge_as_their_floats(mode):
    values = [0.25, 3.0, 1e-9, 7.0, 0.5]
    mixed = [np.array(0.25), np.float64(3.0), np.array(1e-9), 7, np.float32(0.5)]
    assert (make_record("c", "l", "s", mixed, 1e-3, order=2, mode=mode)
            == make_record("c", "l", "s", values, 1e-3, order=2.0, mode=mode))


def test_to_dict_keeps_the_fields_their_order_and_values():
    record = make_record("c", "l", "s", [1e-12, 3e-12], 1e-8, order=1.5, mode="max<=tol")
    got = record.to_dict()
    assert list(got.items()) == list(dataclasses.asdict(record).items())
    assert list(got) == [f.name for f in dataclasses.fields(record)]


@functools.cache
def _compare_reports():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("moved, code", [
    (0.0, 0), (5e-11, 0), (2e-10, 1),
    # a report that judges a check by another bound must not match
    pytest.param({"tolerance": 1e-6}, 1, id="tolerance-1"),
    # a control whose mean is below its tolerance fails
    pytest.param({"mode": "min>tol", "passed": False}, 1, id="mode-1"),
])
def test_compare_reports_fails_beyond_roundoff(moved, code, tmp_path, capsys):
    changed = moved if isinstance(moved, dict) else {}
    shift = 0.0 if changed else moved
    for name, residual, fields in (("a", 1e-9, {}), ("b", 1e-9 + shift, changed)):
        (tmp_path / name).mkdir()
        record = {"check": "c", "samples": 3, "passed": True, "max_residual": residual,
                  "tolerance": 1e-7, "mode": "max<=tol", **fields}
        (tmp_path / name / "p.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert _compare_reports().main([str(tmp_path / "a"), str(tmp_path / "b")]) == code
    capsys.readouterr()


GOOD = {"check": "x", "max_residual": 1e-12, "tolerance": 1e-7, "passed": True}
OTHER = dict(GOOD, check="w")


def _bad(detail, *records, **fields):
    """A report of ``records`` and then one record of GOOD with ``fields``
    (a field set to ... is left out), or a raw line for a str; its last line
    does not read, and ``detail`` says why."""
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    last = {k: v for k, v in dict(GOOD, **fields).items() if v is not ...}
    return lines + [json.dumps(last)], detail


def _field(key, got, *records, **fields):
    return _bad(f"record 'x' field {key} must be a number, got {got!r}", *records, **fields)


def _contradicted(**fields):
    passed, mode = fields.get("passed", True), fields.get("mode", "max<=tol")
    return _bad(f"record 'x' says passed={json.dumps(passed)}, but its residuals judge "
                f"{json.dumps(not passed)} under {mode}", **fields)


SAMPLES = "record 'x' field samples must be a non-negative integer, got "
MALFORMED_REPORTS = {
    "not-json": ([json.dumps(OTHER), "{not json"],
                 "not JSON (Expecting property name enclosed in double quotes)"),
    "not-an-object": ([json.dumps(OTHER), "[1, 2]"], "not a JSON object"),
    # plain JSON keeps the last of two equal keys, and this record would read as a pass
    "repeated-key": ([json.dumps(OTHER), '{"check": "x", "max_residual": 1e-12, "tolerance": '
                      '1e-07, "passed": false, "passed": true}'], "repeated key 'passed'"),
    "number-check": _bad("record field check must be a string, got 5", check=5),
    "repeated-check": _bad("record 'x' repeats the check id of line 1", GOOD, "",
                           max_residual=2e-12),
    "no-residuals": _field("max_residual", None, max_residual=..., tolerance=...),
    "no-tolerance": _field("tolerance", None, tolerance=...),
    # a number in a string or a bool is not a JSON number, nor is an integer past float range
    "text-residual": _field("max_residual", "small", max_residual="small"),
    "text-number-residual": _field("max_residual", "0.5", max_residual="0.5"),
    "text-tolerance": _field("tolerance", "1e-7", tolerance="1e-7"),
    "bool-residual": _field("max_residual", False, max_residual=False),
    "huge-residual": _field("max_residual", 10 ** 400, max_residual=10 ** 400, passed=False),
    "text-order": _field("order_estimate", "a", order_estimate="a"),
    "text-number-order": _field("order_estimate", "4.0", order_estimate="4.0"),
    "list-order": _field("order_estimate", [4.0], OTHER, order_estimate=[4.0]),
    # a mean and a mode may be left out, but when present they must read
    "text-mean": _field("mean_residual", "oops", mean_residual="oops", mode="max<=tol"),
    "null-mean": _field("mean_residual", None, mean_residual=None),
    "other-mode": _bad("record 'x' field mode must be one of max<=tol, min>tol, got 'sideways'",
                       mean_residual=1e-12, mode="sideways"),
    "null-mode": _bad("record 'x' field mode must be one of max<=tol, min>tol, got None",
                      mode=None),
    "text-samples": _bad(SAMPLES + "'x'", samples="x"),
    "negative-samples": _bad(SAMPLES + "-3", samples=-3),
    "bool-samples": _bad(SAMPLES + "True", samples=True),
    "fraction-samples": _bad(SAMPLES + "2.5", samples=2.5),
    "text-passed": _bad("record 'x' field passed must be true or false, got 'no'", passed="no"),
    "number-passed": _bad("record 'x' field passed must be true or false, got 1", OTHER,
                          passed=1),
    # a pass whose max is above its tolerance, or not finite
    "pass-above": _contradicted(max_residual=0.5, mean_residual=1e-12, mode="max<=tol"),
    "pass-above-no-mean": _contradicted(max_residual=0.5),
    "pass-nan": _contradicted(max_residual=float("nan")),
    "pass-inf-mean": _contradicted(mean_residual=float("inf")),
    # a fail whose finite max and mean are within its tolerance
    "fail-within": _contradicted(mean_residual=1e-13, mode="max<=tol", passed=False),
    "fail-zero": _contradicted(max_residual=0, tolerance=1, passed=False),
    # a control's pass needs a finite max and mean above its tolerance
    "control-low-mean": _contradicted(max_residual=0.5, mean_residual=1e-9, tolerance=1e-3,
                                      mode="min>tol"),
    "control-inf": _contradicted(max_residual=float("inf"), mean_residual=0.5, tolerance=1e-3,
                                 mode="min>tol"),
    "control-low": _contradicted(max_residual=1e-9, tolerance=1e-3, mode="min>tol"),
}


@pytest.mark.parametrize("twin", ["same-bytes", "good-twin"])
@pytest.mark.parametrize("lines, detail", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_both_readers_refuse_a_malformed_report(lines, detail, twin, tmp_path, capsys):
    """`liebundles report` and compare_reports.py exit 2 with one message,
    which names the file and its last line, and `report` writes no CSV;
    compare_reports.py reads the file also when its twin holds the same bytes."""
    bad, twin_path = tmp_path / "a" / "r.jsonl", tmp_path / "b" / "r.jsonl"
    for path, text in ((bad, lines), (twin_path, lines if twin == "same-bytes" else [])):
        path.parent.mkdir()
        path.write_text("".join(line + "\n" for line in text or [json.dumps(GOOD)]),
                        encoding="utf-8")
    expected = ("", f"usage error: cannot read report {bad} line {len(lines)}: {detail}\n")
    csv_path = tmp_path / "r.csv"
    assert main(["report", "--in", str(bad), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr() == expected and not csv_path.exists()
    assert _compare_reports().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert capsys.readouterr() == expected


def _public_callables():
    """(qualified name, callable) for each public function of every package
    module and each public method of its classes."""
    for info in pkgutil.iter_modules(liebundles.__path__):
        module = importlib.import_module(f"liebundles.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    if not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


def test_residual_functions_take_no_tolerance():
    """Residual functions only measure: none takes its own ``tol`` and none
    raises a validation error, so a suite check cannot abort before
    `make_record` judges it.  The span check of `matrix_coords` on outside
    matrices keeps its ``tol``."""
    found = [name for name, obj in _public_callables()
             if (inspect.isfunction(obj) or inspect.ismethod(obj))
             and "tol" in inspect.signature(obj).parameters
             and name != "groups.GroupDescriptor.matrix_coords"]
    assert not found, "callables that take tol:\n" + "\n".join(found)
    assert not hasattr(importlib.import_module("liebundles.errors"), "ValidationError")
