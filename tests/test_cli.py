"""CLI behavior tests: subcommands, exit codes, report handling, configs."""

import argparse
import functools
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from liebundles import cli, suites
from liebundles.bundles import TotalPoint
from liebundles.cli import main
from liebundles.groups import _norm
from liebundles.principal import curvature
from liebundles.scenarios import PRESET_NAMES, build_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]

GAUGE_ARGS = ["--scenario", "gauge-jet-abelian", "--seed", "3", "--no-meta"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_validate_gauge_abelian_passes(capsys):
    code, out, _ = run_cli(["validate"] + GAUGE_ARGS, capsys)
    assert code == 0
    lines = parse_jsonl(out)
    records = [d for d in lines if "check" in d]
    summary = [d for d in lines if "summary" in d][0]["summary"]
    assert summary["all_passed"]
    assert all(r["passed"] for r in records)
    # records arrive sorted by check id, each exactly once
    names = [r["check"] for r in records]
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_validate_respects_check_filter(capsys):
    code, out, _ = run_cli(
        ["validate"] + GAUGE_ARGS + ["--checks", "jet-group-axioms"], capsys)
    assert code == 0
    records = [d for d in parse_jsonl(out) if "check" in d]
    assert [r["check"] for r in records] == ["jet-group-axioms"]


def test_validate_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(["validate"] + GAUGE_ARGS + ["--checks", "bogus"], capsys)
    assert code == 2
    assert "unknown checks" in err


def test_validate_empty_check_list_is_usage_error(capsys):
    code, _, err = run_cli(["validate"] + GAUGE_ARGS + ["--checks", ""], capsys)
    assert code == 2
    assert "empty check list" in err


def test_validate_failing_tolerance_sets_exit_one(capsys):
    # force an absurd tolerance through a config file override
    code, out, _ = run_cli(
        ["validate", "--scenario", "affine-constant", "--seed", "1", "--no-meta",
         "--checks", "affine-reconstruction"], capsys)
    assert code == 0
    # now shrink the tolerance below machine epsilon via config
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"scenario": "affine-constant",
                       "tolerances": {"affine-reconstruction": 1e-30}}, fh)
        code, out, _ = run_cli(
            ["validate", "--config", path, "--seed", "1", "--no-meta",
             "--checks", "affine-reconstruction"], capsys)
    assert code == 1
    records = [d for d in parse_jsonl(out) if "check" in d]
    assert not records[0]["passed"]


@pytest.mark.parametrize("command, check", [
    ("transport", "transport-multiplicative"),
    ("curvature", "curvature-two-path"),
])
def test_config_tolerance_override_applies_to_transport_and_curvature(command, check, tmp_path,
                                                                      capsys):
    # validate honours the same override (test_validate_failing_tolerance_sets_exit_one)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "principal-so3",
        "tolerances": {"transport-multiplicative": 1e-30, "curvature-two-path": 1e-30}}))
    code, out, _ = run_cli([command, "--config", str(path), "--no-meta"], capsys)
    assert code == 1
    record = [d for d in parse_jsonl(out) if d.get("check") == check][0]
    assert record["tolerance"] == 1e-30 and not record["passed"]


def test_affine_transport_takes_a_transport_multiplicative_override(tmp_path, capsys):
    # no affine suite check writes transport-multiplicative, but the transport
    # command does, so the key is accepted and moves that record's bound
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "affine-varying",
                                "tolerances": {"transport-multiplicative": 1e-30}}))
    code, out, err = run_cli(["transport", "--config", str(path), "--no-meta"], capsys)
    assert (code, err) == (1, "")
    record = [d for d in parse_jsonl(out) if d.get("check") == "transport-multiplicative"][0]
    assert record["tolerance"] == 1e-30 and not record["passed"]


def test_transport_loop_reports_holonomy(capsys):
    code, out, _ = run_cli(
        ["transport", "--scenario", "principal-so3", "--curve", "loop",
         "--seed", "2", "--no-meta"], capsys)
    assert code == 0
    lines = parse_jsonl(out)
    summary = [d for d in lines if "summary" in d][0]["summary"]
    membership = [d for d in lines if d.get("check") == "transport-endpoint-membership"][0]
    assert membership["max_residual"] <= 1e-9
    assert "endpoint_fiber" in summary


def test_transport_trivial_connection_keeps_fiber(capsys):
    # affine transport with explicit zero initial data along the main curve
    code, out, _ = run_cli(
        ["transport", "--scenario", "affine-constant", "--curve", "main",
         "--fiber", "[0.0, 0.0]", "--seed", "2", "--no-meta"], capsys)
    assert code == 0
    summary = [d for d in parse_jsonl(out) if "summary" in d][0]["summary"]
    assert summary["initial_fiber"] == [0.0, 0.0]


def test_transport_on_gauge_scenario_is_usage_error(capsys):
    code, _, err = run_cli(["transport"] + GAUGE_ARGS, capsys)
    assert code == 2
    assert "gauge" in err


@pytest.mark.parametrize("flags", [["--point", "not json", "--u1", "[1,2,3,4]"],
                                   ["--point", "[0.0, 0.0]"], ["--u1", "[1.0, 0.0]"],
                                   ["--u2", "[0.0, 1.0]"]])
def test_curvature_on_gauge_scenario_refuses_point_and_tangents(flags, capsys):
    """A gauge preset's curvature draws its own jets: a base point or tangent
    it would ignore is refused, not dropped."""
    code, out, err = run_cli(["curvature", "--scenario", "gauge-jet-so3", "--no-meta"] + flags,
                             capsys)
    assert code == 2 and out == ""
    given = ", ".join(f for f in flags if f.startswith("--"))
    assert err == ("usage error: curvature on a gauge preset draws its own jets; "
                   f"it takes no {given}\n")


def test_transport_unknown_curve_is_usage_error(capsys):
    code, _, err = run_cli(
        ["transport", "--scenario", "principal-so3", "--curve", "nope", "--no-meta"],
        capsys)
    assert code == 2


def test_curvature_principal_emits_both_paths(capsys):
    code, out, _ = run_cli(
        ["curvature", "--scenario", "principal-so3", "--seed", "4", "--no-meta",
         "--point", "[0.1, -0.2]", "--u1", "[1.0, 0.0]", "--u2", "[0.0, 1.0]"],
        capsys)
    assert code == 0
    summary = [d for d in parse_jsonl(out) if "summary" in d][0]["summary"]
    assert summary["gap"] <= 1e-4
    assert np.allclose(summary["bracket_value"], summary["exterior_value"], atol=1e-4)


@pytest.mark.parametrize("scenario", ["principal-so3", "affine-varying"])
def test_curvature_command_rows_equal_the_lone_calls(scenario, capsys):
    """The command evaluates (u1, u2) and (u1, u1) as the rows of one stack;
    what it writes equals two lone `curvature` calls at its draw."""
    code, out, _ = run_cli(["curvature", "--scenario", scenario, "--seed", "4", "--no-meta",
                            "--point", "[0.1, -0.2]", "--u1", "[0.6, 0.3]", "--u2", "[-0.2, 0.9]"],
                           capsys)
    assert code == 0
    lines = parse_jsonl(out)
    (summary,) = [d["summary"] for d in lines if "summary" in d]
    records = {d["check"]: d for d in lines if "check" in d}
    s = build_scenario(scenario)
    y = TotalPoint(np.array([0.1, -0.2]), s.group.random_element(np.random.default_rng([4, 2000])))
    u1, u2 = np.array([0.6, 0.3]), np.array([-0.2, 0.9])
    lone, same = curvature(s.omega, y, u1, u2), curvature(s.omega, y, u1, u1)
    assert summary["gap"] == records["curvature-two-path"]["max_residual"] == lone.gap
    assert summary["bracket_value"] == lone.value.coords.tolist()
    assert summary["exterior_value"] == lone.exterior_value.coords.tolist()
    assert records["curvature-antisymmetry"]["max_residual"] == _norm(same.value.coords)


def test_curvature_gauge_reports_invariance(capsys):
    code, out, _ = run_cli(
        ["curvature", "--scenario", "gauge-jet-so3", "--seed", "4",
         "--samples", "100", "--no-meta"], capsys)
    assert code == 0
    records = [d for d in parse_jsonl(out) if "check" in d]
    assert records[0]["check"] == "curvature-map-invariance"
    assert records[0]["max_residual"] <= 1e-12


@pytest.mark.parametrize("args", [
    ["validate", "--config", "{tmp}/missing.json"],
    ["validate", "--config", "{tmp}/malformed.json"],
    ["curvature", "--scenario", "principal-so3", "--point", "[0.1,"],
    ["curvature", "--scenario", "principal-so3", "--u1", "one"],
    ["curvature", "--scenario", "principal-so3", "--u2", "{\"a\": 1}"],
    ["transport", "--scenario", "affine-constant", "--fiber", "[0.0, oops]"],
    ["curvature", "--scenario", "principal-so3", "--point", "[0.1]"],
    ["curvature", "--scenario", "principal-so3", "--u1", "[1.0, 0.0, 0.0]"],
    ["curvature", "--scenario", "principal-so3", "--u2", "[]"],
    ["transport", "--scenario", "principal-so3", "--fiber", "[0.1, 0.2]"],
    ["transport", "--scenario", "principal-so3", "--fiber", "[3.2,0,0]"],
    ["curvature", "--scenario", "principal-so3", "--point", "[5, 5]"],
])
def test_malformed_input_is_usage_error(args, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text("{\"scenario\": ", encoding="utf-8")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args] + ["--no-meta"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("usage error")


def test_curvature_point_outside_chart_is_error(capsys):
    code, out, err = run_cli(
        ["curvature", "--scenario", "principal-so3", "--point", "[5.0, 0.0]",
         "--no-meta"], capsys)
    assert code == 2
    assert err == ("usage error: --point [5.0, 0.0] is outside the open chart box with "
                   "lower [-1.0, -1.0] and upper [1.0, 1.0]\n")
    assert out == ""


def test_report_roundtrip_and_csv(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code = main(["validate", "--scenario", "gauge-jet-abelian", "--seed", "5",
                 "--no-meta", "--out", str(out_path),
                 "--checks", "jet-group-axioms,jet-connection-multiplicative"])
    capsys.readouterr()
    assert code == 0
    csv_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        ["report", "--in", str(out_path), "--csv", str(csv_path)], capsys)
    assert code == 0
    assert "records: 2" in out
    csv_text = csv_path.read_text()
    assert "jet-group-axioms" in csv_text
    assert csv_text.splitlines()[0].startswith("check,")


def test_missing_scenario_is_usage_error(capsys):
    code, _, err = run_cli(["validate", "--no-meta"], capsys)
    assert code == 2


def test_meta_line_present_without_flag(capsys):
    code, out, _ = run_cli(
        ["validate", "--scenario", "gauge-jet-abelian", "--seed", "3",
         "--checks", "jet-connection-unit"], capsys)
    assert code == 0
    lines = parse_jsonl(out)
    assert any("meta" in d for d in lines)


@pytest.mark.parametrize("fields", [
    {"step": "abc"},
    {"step": None},
    {"samples": "many"},
    {"seed": "zero"},
    {"seed": -1},
    {"tolerances": {"jet-group-axioms": "tight"}},
    {"tolerances": [1e-9]},
    {"step": True},
    {"samples": True},
    {"tolerances": {"jet-group-axioms": True}},
    {"seed": 1.9},
    {"samples": 2.7},
    {"samples": "3"},
    {"step": "0.01"},
    {"tolerances": {"jet-group-axioms": "1e-3"}},
])
def test_config_field_of_wrong_type_is_usage_error(fields, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "gauge-jet-abelian", **fields}), encoding="utf-8")
    code, out, err = run_cli(["validate", "--config", str(path), "--no-meta"], capsys)
    assert code == 2
    assert err.startswith("usage error") and len(err.strip().splitlines()) == 1
    assert out == ""


# a huge nu coefficient overflows the transport to non-finite fibers
OVERFLOW_CONFIG = {"scenario": "affine-constant", "nu_coeff": {
    "constant": [[[1e8, 0], [0, -0.3]], [[0.2, 0], [0, 0.4]]]}}


def test_error_inside_a_check_names_the_check(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(OVERFLOW_CONFIG), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["validate", "--config", str(path), "--no-meta",
                                  "--checks", "affine-transport-self-consistency"], capsys)
    assert code == 1
    assert err.startswith("error: affine-transport-self-consistency: ")
    assert out == ""


@pytest.mark.parametrize("command", [
    # (arguments, what the error names first)
    (["validate", "--checks", "affine-transport-self-consistency"],
     "affine-transport-self-consistency"),
    (["transport"], "nu transport"),
])
def test_overflowing_transport_stops_in_the_integrator(command, tmp_path, capsys):
    # the integrator names the diverged rows before a non-finite fiber reaches
    # the right-hand side (whose log would fail on it first), without a numpy
    # warning on the way, and the command names the check or transport
    path = tmp_path / "config.json"
    path.write_text(json.dumps(OVERFLOW_CONFIG), encoding="utf-8")
    args, prefix = command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(args + ["--config", str(path), "--no-meta"], capsys)
    assert code == 1
    assert err.startswith(f"error: {prefix}: integration produced non-finite fibers in rows [")
    assert out == ""


@pytest.mark.parametrize("scenario, tolerances", [
    ("principal-so3", {"generator-isomorphism": 1e-30, "underlying-connection-necessity": 1e-30}),
    ("gauge-jet-so3", {"restricted-action-freeness": 1e3}),
])
def test_tolerance_override_moves_the_bound_of_every_check(scenario, tolerances, tmp_path,
                                                           capsys):
    # these checks record what they measure, not a flag a fixed cut decided
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": scenario, "tolerances": tolerances}))
    code, out, _ = run_cli(["validate", "--config", str(path), "--no-meta",
                            "--checks", ",".join(tolerances)], capsys)
    assert code == 1
    records = {d["check"]: d for d in parse_jsonl(out) if "check" in d}
    assert sorted(records) == sorted(tolerances)
    for check, tol in tolerances.items():
        assert records[check]["tolerance"] == tol and not records[check]["passed"]


@pytest.mark.parametrize("command, config, field", [
    ("validate", {"kind": "principal", "group": "so3"}, "chart"),
    ("transport", {"scenario": "principal-so3",
                   "curves": {"main": {"kind": "line", "start": [0.0, 0.0]}}}, "end"),
    ("validate", {"scenario": "affine-constant", "curves": {}}, "main"),
])
def test_config_missing_field_is_usage_error(command, config, field, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli([command, "--config", str(path), "--no-meta"], capsys)
    assert code == 2
    assert err == f"usage error: config is missing field {field!r}\n"
    assert out == ""


@pytest.mark.parametrize("command, config, field", [
    ("validate", {"scenario": "principal-so3", "chart": 5}, "chart"),
    ("validate", {"scenario": "principal-so3",
                  "chart": {"lower": [-1.0, -1.0], "upper": ["one", 1.0]}}, "chart.upper"),
    ("transport", {"scenario": "principal-so3", "curves": {"main": 3}}, "curves.main"),
    ("transport", {"scenario": "principal-so3", "curves": {
        "main": {"kind": "line", "start": [0.0, 0.0], "end": "far"}}}, "curves.main.end"),
    ("validate", {"scenario": "principal-so3", "two_chart": [0.0, 1.0]}, "two_chart"),
    ("validate", {"scenario": "principal-so3", "base_form": {"0": 5}}, "base_form.0"),
    ("validate", {"scenario": "principal-so3", "base_form": {"0": {"2": 5}}}, "base_form.0.2"),
    ("validate", {"scenario": "principal-so3", "base_form": {"0": {"7": {"0,0": 1}}}},
     "base_form.0.7"),
    ("validate", {"scenario": "principal-so3", "base_form": {"5": {"0": {"0,0": 1}}}},
     "base_form.5.0"),
    ("validate", {"scenario": "principal-so3", "nu_form": {"x": {"0": {"0,0": 1}}}}, "nu_form.x.0"),
    ("validate", {"scenario": "principal-so3", "group": "translation:x"}, "group"),
    ("validate", {"scenario": "affine-varying", "nu_coeff": 7}, "nu_coeff"),
    ("validate", {"scenario": "affine-varying", "gamma": {"polynomials": 5}},
     "gamma.polynomials"),
    ("validate", {"scenario": "affine-constant", "group": "so3"}, "group"),
    ("validate", {"scenario": "gauge-jet-so3", "f_section": [0.3, 0.5]}, "f_section"),
    ("transport", {"scenario": "principal-so3", "curves": {
        "main": {"kind": "line", "start": [-0.6, -0.4], "end": [1.4, 0.5]}}}, "curves.main"),
    ("transport", {"scenario": "principal-so3", "curves": {
        "main": {"kind": "loop", "center": [0.0, 0.0], "radius": 0.3, "axes": [0, 0]}}},
     "curves.main.axes"),
    ("validate", {"scenario": "principal-so3",
                  "tolerances": {"transport-multiplicatve": 1e-30}}, "tolerances"),
    ("validate", {"scenario": "affine-varying", "gamma": {"polynomials": {"5,0": {"0,0": 1}}}},
     "gamma.polynomials"),
    ("validate", {"scenario": "affine-varying", "gamma": {"polynomials": {"0,0": {"0,0,0": 1}}}},
     "gamma.polynomials.0,0"),
    ("validate", {"scenario": "principal-so3", "two_chart": {
        "sigma_gen": [0.0, 1.0, 0.0], "sigma_poly": {"1,0,0": 1}, "tau_gen": [1.0, 0.0, 0.0],
        "tau_poly": {"0,1": 0.6}, "ramp": [-0.2, 0.2]}}, "two_chart.sigma_poly"),
    ("validate", {"scenario": "gauge-jet-so3",
                  "tolerances": {"transport-error-estimate": 1e-3}}, "tolerances"),
])
def test_config_field_of_wrong_structure_is_usage_error(command, config, field, tmp_path,
                                                        capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli([command, "--config", str(path), "--no-meta"], capsys)
    assert code == 2
    assert err.startswith(f"usage error: config field {field} must be ")
    assert len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("ramp", [[0.2, -0.2], [0.1, 0.1]])
def test_a_ramp_that_does_not_increase_names_its_field(ramp, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "principal-so3", "two_chart": {
        "sigma_gen": [0.0, 1.0, 0.0], "sigma_poly": {"1,0": 1}, "tau_gen": [1.0, 0.0, 0.0],
        "tau_poly": {"0,1": 0.6}, "ramp": ramp}}), encoding="utf-8")
    code, out, err = run_cli(["validate", "--config", str(path), "--no-meta"], capsys)
    assert code == 2
    assert err == ("usage error: config field two_chart.ramp must be an increasing pair "
                   f"[lo, hi], got {ramp!r}\n")
    assert out == ""


@pytest.mark.parametrize("content", [None, "{\"check\": \n", "5\n"])
def test_report_missing_or_malformed_file_is_usage_error(content, tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path)], capsys)
    assert code == 2
    assert err.startswith("usage error: cannot read report")
    assert len(err.strip().splitlines()) == 1
    assert out == ""


def test_report_without_check_records_fails(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    path.write_text(json.dumps({"summary": {"checks": 0, "all_passed": True}}) + "\n",
                    encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path)], capsys)
    assert code == 1
    assert "records: 0" in out
    assert "no check records" in err


def test_report_shows_zero_order_estimate(tmp_path, capsys):
    record = {"check": "transport-multiplicative", "max_residual": 1e-12, "tolerance": 1e-7,
              "order_estimate": 0.0, "passed": True}
    path = tmp_path / "report.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, _ = run_cli(["report", "--in", str(path)], capsys)
    assert code == 0
    assert "order=0.00" in out


def test_report_reads_a_nan_mean_and_either_mode(tmp_path, capsys):
    records = [{"check": "a", "max_residual": 1e-12, "mean_residual": float("nan"),
                "tolerance": 1e-7, "mode": "max<=tol", "passed": False},
               {"check": "b", "max_residual": 2.0, "mean_residual": 1, "tolerance": 1e-3,
                "mode": "min>tol", "passed": True}]
    path, csv_path = tmp_path / "report.jsonl", tmp_path / "report.csv"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path), "--csv", str(csv_path)], capsys)
    assert code == 1 and err == ""
    assert "  FAIL a: " in out and "  PASS b: " in out
    rows = csv_path.read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("a,,,1e-12,nan,") and rows[2].startswith("b,,,2.0,1.0,")


def test_report_reads_a_nan_residual_and_an_integer_as_numbers(tmp_path, capsys):
    records = [{"check": "a", "max_residual": float("nan"), "tolerance": 1e-7, "passed": False},
               {"check": "b", "max_residual": 0, "tolerance": 1, "passed": True}]
    path = tmp_path / "report.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path)], capsys)
    assert code == 1 and err == ""
    assert "  FAIL a: max=nan tol=1e-07\n" in out and "  PASS b: max=0.000e+00 tol=1e+00\n" in out


def test_report_prints_a_tolerance_that_reads_back(tmp_path, capsys):
    """An overridden tolerance of 1.5e-7 prints as 1.5e-07, not 2e-07 or 1e-07."""
    path, report = tmp_path / "config.json", tmp_path / "report.jsonl"
    path.write_text(json.dumps({"scenario": "principal-so3",
                                "tolerances": {"transport-unit-inverse": 1.5e-7}}))
    assert main(["validate", "--config", str(path), "--no-meta", "--out", str(report),
                 "--checks", "transport-unit-inverse"]) == 0
    code, out, _ = run_cli(["report", "--in", str(report)], capsys)
    assert code == 0 and "  PASS transport-unit-inverse: max=" in out
    assert out.split("tol=")[1].split()[0] == "1.5e-07"


def test_report_prints_every_preset_tolerance_with_one_digit(tmp_path, capsys):
    """Every tolerance of the check table prints as {tol:.0e} would print it."""
    tolerances = sorted({row.contract[0] for row in suites._CHECKS.values()}
                        | {row.abelian[0] for row in suites._CHECKS.values() if row.abelian})
    path = tmp_path / "report.jsonl"
    path.write_text("".join(json.dumps({"check": f"c{k}", "max_residual": 0.0, "tolerance": tol,
                                        "passed": True}) + "\n"
                            for k, tol in enumerate(tolerances)), encoding="utf-8")
    code, out, _ = run_cli(["report", "--in", str(path)], capsys)
    assert code == 0
    for k, tol in enumerate(tolerances):
        assert f"  PASS c{k}: max=0.000e+00 tol={tol:.0e}\n" in out


def test_report_keeps_a_failed_control_whose_mean_is_above_its_tolerance(tmp_path, capsys):
    """A report keeps no least residual, so a failed min>tol record may have a
    mean above its tolerance (one residual at or below it fails the control)."""
    record = {"check": "x", "max_residual": 0.5, "mean_residual": 0.25, "tolerance": 1e-3,
              "mode": "min>tol", "passed": False}
    path = tmp_path / "report.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path)], capsys)
    assert code == 1 and err == "" and "  FAIL x: " in out


def test_report_rejudges_every_record_of_a_suite_as_its_writer_did(tmp_path, capsys):
    for name in PRESET_NAMES:
        path = tmp_path / f"{name}.jsonl"
        code = main(["validate", "--scenario", name, "--no-meta", "--out", str(path)])
        assert run_cli(["report", "--in", str(path)], capsys)[0] == code == 0, name


def test_two_calls_build_one_parser_and_share_no_options(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, subset, _ = run_cli(["validate"] + GAUGE_ARGS + ["--checks", "jet-group-axioms"], capsys)
    assert code == 0 and len([d for d in parse_jsonl(subset) if "check" in d]) == 1
    code, full, _ = run_cli(["validate"] + GAUGE_ARGS, capsys)
    assert code == 0 and len([d for d in parse_jsonl(full) if "check" in d]) > 1
    assert built.count("liebundles") == 1
    # a usage error of the handler, then one of the parser, leave the next run clean
    assert run_cli(["validate"] + GAUGE_ARGS + ["--checks", "bogus"], capsys)[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["validate"] + GAUGE_ARGS + ["--seed", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again, err = run_cli(["validate"] + GAUGE_ARGS, capsys)
    assert (code, again, err) == (0, full, "")
    assert built.count("liebundles") == 1


@pytest.mark.parametrize("command, target", [
    ("validate", "missing/report.jsonl"),
    ("validate", "."),
    ("report", "."),
])
def test_unwritable_output_path_is_usage_error(command, target, tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    assert main(["validate", "--scenario", "gauge-jet-abelian", "--no-meta", "--out", str(report),
                 "--checks", "jet-connection-unit"]) == 0
    capsys.readouterr()
    path = tmp_path / target
    args = (["validate", "--scenario", "gauge-jet-abelian", "--no-meta", "--out", str(path),
             "--checks", "jet-connection-unit"] if command == "validate"
            else ["report", "--in", str(report), "--csv", str(path)])
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith(f"usage error: cannot write {path}: ")
    assert len(err.strip().splitlines()) == 1
    assert out == ""


SO3_BASIS = [[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
             [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]


# the stretch generators diag(1, -1, 0), diag(0, 1, -1) and the translation2
# generators, row-major: neither basis is antisymmetric
STRETCH_BASIS = [[1, 0, 0, 0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, -1]]
T2_BASIS = [[0, 0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0]]


@pytest.mark.parametrize("group, field", [
    ({"name": "g", "basis": [[1, 2, 3]]}, "basis"),
    ({"name": "g", "basis": SO3_BASIS, "structure_constants": [[1, 2]]},
     "structure_constants"),
    ({"name": "g", "basis": []}, "basis"),
    ({"name": "g", "basis": SO3_BASIS, "membership_tol": float("nan")},
     "membership_tol"),
    ({"name": "g", "basis": SO3_BASIS, "membership_tol": -1.0}, "membership_tol"),
    ({"name": "g", "basis": SO3_BASIS, "injectivity_radius": float("nan")},
     "injectivity_radius"),
    ({"name": "g", "basis": SO3_BASIS, "injectivity_radius": -1.0},
     "injectivity_radius"),
    # a JSON boolean is no number, a name is a string, and a family is one of three
    ({"name": "g", "basis": SO3_BASIS, "membership_tol": True},
     "membership_tol"),
    ({"name": "g", "basis": SO3_BASIS, "injectivity_radius": True},
     "injectivity_radius"),
    ({"name": 5, "basis": SO3_BASIS}, "name"),
    ({"name": "g", "basis": SO3_BASIS, "family": "nope"}, "family"),
    # ... that its basis fits: orthogonal needs antisymmetric elements
    ({"name": "stretch", "basis": STRETCH_BASIS, "family": "orthogonal"}, "family"),
    ({"name": "t2-orth", "basis": T2_BASIS, "family": "orthogonal"}, "family"),
    ({"name": "g"}, "basis"),
    ("sl2", None),
    ("translation:2:3", None),
    ("translation:\u00b2", None),
])
def test_malformed_group_descriptor_is_usage_error(group, field, tmp_path, capsys):
    """Each malformed field exits 2, named, before any of the checks runs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "principal-so3", "group": group}), encoding="utf-8")
    code, out, err = run_cli(["validate", "--config", str(path), "--no-meta", "--checks",
                              "group-connection-laws,form-complementarity"], capsys)
    assert code == 2
    where = "group" if field is None else f"group.{field}"
    assert err.startswith(f"usage error: config field {where} must be ")
    assert len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("scenario, group, label, residual", [
    # an abelian fiber under another name: the twist is invisible
    ("gauge-jet-abelian", {"name": "diag2", "basis": [[1, 0, 0, 0], [0, 0, 0, 1]]},
     "dropping the adjoint twist is invisible for abelian fibers", lambda r: r <= 1e-12),
    # so3 under an abelian-sounding name: the twist must show
    ("gauge-jet-so3", {"name": "translation-like", "basis": SO3_BASIS,
                       "family": "orthogonal"},
     "dropping the adjoint twist breaks equivariance", lambda r: r > 1e-3),
])
def test_classification_negative_control_reads_the_bracket_not_the_name(
        scenario, group, label, residual, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": scenario, "group": group}), encoding="utf-8")
    code, out, _ = run_cli(["validate", "--config", str(path), "--no-meta",
                            "--checks", "classification-negative-control"], capsys)
    (record,) = [d for d in parse_jsonl(out) if "check" in d]
    assert code == 0 and record["passed"]
    assert record["label"] == label
    assert residual(record["max_residual"])


@pytest.mark.parametrize("name", ["principal-so3", "affine-varying"])
def test_command_records_read_as_the_suite_records(name, tmp_path):
    # the transport and curvature commands write some records under suite
    # check ids; each must carry the label, tolerance and mode that run_suite
    # gives that id, so a report reads one check one way
    from liebundles.scenarios import build_scenario, preset_config
    from liebundles.suites import available_checks, run_suite

    records = {}
    for command in ("transport", "curvature"):
        path = tmp_path / f"{command}.jsonl"
        assert main([command, "--scenario", name, "--no-meta", "--out", str(path)]) == 0
        records.update({d["check"]: d for d in parse_jsonl(path.read_text()) if "check" in d})
    # label, tolerance and mode are the check's own; a cheap sample count and step read them
    config = dict(preset_config(name), samples=1, step=0.05)
    shared = sorted(set(records) & set(available_checks(config["kind"])))
    assert len(shared) >= 3
    for record in run_suite(build_scenario(config), only=shared):
        for key in ("label", "tolerance", "mode"):
            assert records[record.check][key] == getattr(record, key), (record.check, key)


def test_no_preset_command_imports_scipy():
    """scipy is imported only by exp and log of descriptors without a hook,
    which no preset reaches: every command on every preset runs without it."""
    script = (
        "import os, sys\n"
        "from liebundles import cli\n"
        "from liebundles.scenarios import PRESET_NAMES\n"
        "for name in PRESET_NAMES:\n"
        "    for command in ('validate', 'transport', 'curvature'):\n"
        "        code = cli.main([command, '--scenario', name, '--seed', '0', '--no-meta',\n"
        "                         '--out', os.devnull])\n"
        "        print(command, name, code, 'scipy' in sys.modules)\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    assert len(rows) == 3 * len(PRESET_NAMES)
    for command, name, code, imported in rows:
        # transport has no curve on a gauge scenario: a usage error, exit 2
        assert code == ("2" if command == "transport" and name.startswith("gauge") else "0")
        assert imported == "False", (command, name)
