"""Metric names are well formed and BENCHMARK.json lists exactly what runs print."""

import json
import re

import layers
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def reference():
    with open(run.HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_ids():
    return {c for checks in reference()["checks"].values() for c in checks}


def benchmark():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    specs = layers.metric_specs(check_ids())
    names = [name for name, _, _ in specs] + list(run.END_TO_END_UNITS)
    assert len(names) == len(set(names))
    for name, unit, better in specs:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    for name, unit in run.END_TO_END_UNITS.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)


def test_benchmark_json_matches_the_code():
    doc = benchmark()
    assert [w["name"] for w in doc["workloads"]] == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    specs = layers.metric_specs(check_ids())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == specs


def test_reference_has_every_check_of_each_preset():
    from liebundles.scenarios import build_scenario
    from liebundles.suites import available_checks

    ref = reference()["checks"]
    for preset, checks in ref.items():
        kind = build_scenario(preset).kind
        assert sorted(checks) == sorted(available_checks(kind))
