"""CLI behavior tests: subcommands, exit codes, report handling, configs."""

import json

import numpy as np
import pytest

from liebundles.cli import main

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
])
def test_config_field_of_wrong_type_is_usage_error(fields, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "gauge-jet-abelian", **fields}), encoding="utf-8")
    code, out, err = run_cli(["validate", "--config", str(path), "--no-meta"], capsys)
    assert code == 2
    assert err.startswith("usage error") and len(err.strip().splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("command, config, field", [
    ("validate", {"kind": "principal", "group": "so3"}, "chart"),
    ("transport", {"scenario": "principal-so3",
                   "curves": {"main": {"kind": "line", "start": [0.0, 0.0]}}}, "end"),
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
    ("validate", {"scenario": "principal-so3", "group": "translation:x"}, "group"),
    ("validate", {"scenario": "affine-varying", "nu_coeff": 7}, "nu_coeff"),
    ("validate", {"scenario": "affine-varying", "gamma": {"polynomials": 5}},
     "gamma.polynomials"),
    ("validate", {"scenario": "affine-constant", "fiber_dim": "two"}, "fiber_dim"),
    ("validate", {"scenario": "gauge-jet-so3", "f_section": [0.3, 0.5]}, "f_section"),
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


@pytest.mark.parametrize("content", [None, "{\"check\": \n"])
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


@pytest.mark.parametrize("record", [
    {"check": "x", "passed": True},
    {"check": "x", "max_residual": 1e-12, "passed": True},
    {"check": "x", "max_residual": "small", "tolerance": 1e-7, "passed": True},
])
def test_report_record_without_residual_fields_is_usage_error(record, tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, out, err = run_cli(["report", "--in", str(path)], capsys)
    assert code == 2
    assert err.startswith("usage error: record 'x' field ")
    assert len(err.strip().splitlines()) == 1
    assert out == ""
