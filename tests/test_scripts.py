"""Smoke tests of the runnable scripts under scripts/."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _child_env():
    """The environment of a script run: the absolute `src` path in front of
    PYTHONPATH, so the scripts import this checkout's `liebundles`."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_convergence_study_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "convergence_study.py"), "--levels", "2"],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    assert "# observed orders" in result.stdout


def _write_reports(root, reports):
    """Write {path below root: records} as JSON-lines report files."""
    root.mkdir(exist_ok=True)
    for rel, records in reports.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                        encoding="utf-8")


def _compare_dirs(*args):
    """Exit code and output of compare_reports.py on the given arguments."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reports.py"), *map(str, args)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    return result.returncode, result.stdout + result.stderr


def _compare(tmp_path, records_a, records_b, extra_args=None):
    """Exit code and output of compare_reports.py on two report directories,
    each holding one `principal-so3.jsonl` of the given records."""
    dirs = []
    for name, records in (("a", records_a), ("b", records_b)):
        _write_reports(tmp_path / name, {} if records is None else {"principal-so3.jsonl": records})
        dirs.append(tmp_path / name)
    return _compare_dirs(*(dirs if extra_args is None else extra_args))


def _record(check, max_residual, tolerance=1e-8, mean_residual=None, order_estimate=None):
    return {"check": check, "label": f"{check} holds", "scenario": "principal-so3",
            "samples": 3, "passed": max_residual <= tolerance,
            "tolerance": tolerance, "mode": "max<=tol", "max_residual": max_residual,
            "mean_residual": max_residual if mean_residual is None else mean_residual,
            "order_estimate": order_estimate}


REPORT = [_record("form-complementarity", 2e-16),
          _record("group-connection-laws", 4e-17, order_estimate=4.0)]


def test_compare_reports_passes_byte_identical_directories(tmp_path):
    code, out = _compare(tmp_path, REPORT, REPORT)
    assert code == 0, out
    assert "principal-so3.jsonl: byte-identical" in out
    assert out.splitlines()[-1] == "identical: 1 of 1 files"


def test_compare_reports_passes_a_roundoff_move(tmp_path):
    moved = [_record("form-complementarity", 2e-16 + 0.5e-3 * 1e-8),
             _record("group-connection-laws", 4e-17, order_estimate=4.0 + 0.5e-3)]
    code, out = _compare(tmp_path, REPORT, moved)
    assert code == 0, out
    assert "differs; largest" in out
    assert out.splitlines()[-1] == "identical: 0 of 1 files"


@pytest.mark.parametrize("other", [
    [_record("form-complementarity", 2e-16, tolerance=1e-7), REPORT[1]],  # tolerance differs
    REPORT[:1],                                                           # check id missing
    [_record("form-complementarity", 2e-16 + 2e-3 * 1e-8), REPORT[1]],    # beyond roundoff
    [_record("form-complementarity", 2e-16, mean_residual=2e-16 + 2e-3 * 1e-8),
     REPORT[1]],                                                          # mean beyond roundoff
    [REPORT[0], _record("group-connection-laws", 4e-17, order_estimate=4.002)],  # order moved
    [REPORT[0], _record("group-connection-laws", 4e-17)],                 # order lost
    [REPORT[0], _record("group-connection-laws", 4e-17, order_estimate=float("nan"))],  # NaN
    None,                                                                 # file missing
    [dict(REPORT[0], label="curvature is antisymmetric"), REPORT[1]],     # relabelled
    [dict(REPORT[0], scenario="affine-varying"), REPORT[1]],              # other scenario
    [{k: v for k, v in REPORT[0].items() if k != "label"}, REPORT[1]],    # field missing
    [dict(REPORT[0], note="extra"), REPORT[1]],                           # field added
])
def test_compare_reports_flags_a_mismatch(tmp_path, other):
    code, out = _compare(tmp_path, REPORT, other)
    assert code == 1, out


def _transport_report(endpoint=0.6476531098312618, failed=()):
    """Records and summary of a `transport` command report."""
    summary = {"all_passed": True, "checks": 2, "curve": "main",
               "endpoint_fiber": [-0.08857669924038021, endpoint, -0.10154086682794902],
               "failed": list(failed), "scenario": "principal-so3", "seed": 0, "step": 0.005}
    return REPORT + [{"summary": summary}]


@pytest.mark.parametrize("other, expected, moved", [
    (_transport_report(0.6476531098312618 + 0.5), 1, "summary.endpoint_fiber[1] moved"),
    (_transport_report(0.6476531098312618 + 1e-16), 0, None),
    (_transport_report(failed=["transport-compatibility"]), 1, "summary.failed moved"),
])
def test_compare_reports_compares_the_summary(tmp_path, other, expected, moved):
    code, out = _compare(tmp_path, _transport_report(), other)
    assert code == expected, out
    # no check record moved, so the largest move names no check
    assert "largest |delta max_residual| 0.000e+00\n" in out
    if moved is not None:
        assert f"principal-so3.jsonl: {moved}" in out


@pytest.mark.parametrize("args", [[], ["only-one-dir"], ["a", "b", "c"]])
def test_compare_reports_rejects_wrong_usage(tmp_path, args):
    code, out = _compare(tmp_path, REPORT, REPORT, extra_args=args)
    assert code == 2, out
    assert "Usage" in out


SEED_LAYOUT = {f"seed{k}/{name}": REPORT for k in (0, 7919)
               for name in ("principal-so3.jsonl", "transport-principal-so3.jsonl")}


def test_compare_reports_pairs_the_reports_of_every_seed(tmp_path):
    _write_reports(tmp_path / "a", SEED_LAYOUT)
    _write_reports(tmp_path / "b", SEED_LAYOUT)
    code, out = _compare_dirs(tmp_path / "a", tmp_path / "b")
    assert code == 0, out
    for rel in SEED_LAYOUT:
        assert f"{rel}: byte-identical" in out
    assert out.splitlines()[-1] == "identical: 4 of 4 files"


def test_compare_reports_flags_a_move_in_one_seed(tmp_path):
    moved = [_record("form-complementarity", 2e-16 + 2e-3 * 1e-8), REPORT[1]]
    _write_reports(tmp_path / "a", SEED_LAYOUT)
    _write_reports(tmp_path / "b", dict(SEED_LAYOUT, **{"seed7919/principal-so3.jsonl": moved}))
    code, out = _compare_dirs(tmp_path / "a", tmp_path / "b")
    assert code == 1, out
    assert "seed7919/principal-so3.jsonl: form-complementarity max_residual moved" in out
    assert "seed0/principal-so3.jsonl: byte-identical" in out
    assert out.splitlines()[-1] == "identical: 3 of 4 files"


@pytest.mark.parametrize("b, expected", [("empty", 1), ("missing", 2)])
def test_compare_reports_fails_when_it_compares_nothing(tmp_path, b, expected):
    _write_reports(tmp_path / "a", {})
    if b == "empty":
        _write_reports(tmp_path / b, {})
    code, out = _compare_dirs(tmp_path / "a", tmp_path / b)
    assert code == expected, out
    assert out.strip()


def _run_all(out_dir, *seeds):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_validations.py"), "--out-dir",
         str(out_dir), "--seed", *map(str, seeds)],
        capture_output=True, text=True, env=_child_env(), timeout=300)


def test_run_all_validations_writes_one_directory_per_seed(tmp_path):
    """Several seeds write `<out-dir>/seed<k>/`, each with every report at
    seed k and equal, byte for byte, to a run at that seed alone, which
    writes to `<out-dir>` itself."""
    result = _run_all(tmp_path / "many", 1, 7919)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in (tmp_path / "many").iterdir()) == ["seed1", "seed7919"]
    alone = _run_all(tmp_path / "alone", 7919)
    assert alone.returncode == 0, alone.stderr
    names = sorted(p.name for p in (tmp_path / "alone").glob("*.jsonl"))
    assert len(names) == 9
    for seed in (1, 7919):
        seed_dir = tmp_path / "many" / f"seed{seed}"
        assert sorted(p.name for p in seed_dir.glob("*.jsonl")) == names
        for name in names:
            summary = json.loads(
                (seed_dir / name).read_text(encoding="utf-8").splitlines()[-1])["summary"]
            assert summary["seed"] == seed, name
    for name in names:
        assert ((tmp_path / "many" / "seed7919" / name).read_bytes()
                == (tmp_path / "alone" / name).read_bytes()), name


def _bench_pairs():
    """scripts/bench_pairs.py as a module."""
    import importlib.util
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent, change, better, wins, holds", [
    # ten pairs, the change lower in nine, its median 0.095 below a parent IQR of 0.035
    ([1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.04, 0.96],
     [0.9, 0.92, 0.88, 0.91, 0.89, 0.93, 0.87, 0.9, 0.94, 0.97], "lower", 9, True),
    # the same gain in eight of ten pairs is not enough
    ([1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.04, 0.96],
     [0.9, 0.92, 0.88, 0.91, 0.89, 0.93, 0.87, 0.9, 1.05, 0.97], "lower", 8, False),
    # ten wins of ten, but by less than the parent's interquartile range
    ([1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95],
     [0.99, 1.09, 0.89, 1.04, 0.94, 0.99, 1.09, 0.89, 1.04, 0.94], "lower", 10, False),
    # higher is better: equal runs win nothing
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "higher", 0, False),
    ([0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0], "higher", 4, True),
])
def test_bench_pairs_summary_applies_the_nine_of_ten_rule(parent, change, better, wins, holds):
    summary = _bench_pairs().summarize(parent, change, better)
    assert (summary["wins"], summary["pairs"], summary["holds"]) == (wins, len(parent), holds)


def test_bench_pairs_summary_gives_medians_and_quartiles():
    bench = _bench_pairs()
    summary = bench.summarize([4.0, 1.0, 3.0, 2.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0], "lower")
    assert summary["parent"] == (2.0, 3.0, 4.0)
    assert summary["change"] == (2.0, 2.0, 2.0)
    assert bench.quartiles([0.25]) == (0.25, 0.25, 0.25)
    line = bench.render("run_s", "s", "lower", summary)
    assert line == ("run_s [s, lower is better]: parent median 3 (quartiles 2, 4); change "
                    "median 2 (quartiles 2, 2); change better in 3 of 5 pairs; 9-of-10 rule fails")


def test_bench_pairs_reads_the_median_raw_pass_wall_time():
    bench = _bench_pairs()
    out = ("workload validate-affine-varying seed 0 trace 0\n"
           "pass_s: [0.08, 0.07, 0.09]\n"
           "pass_wall_s: [0.05, 0.0433, 5e-05, 0.06]\n"
           "run_s: 0.08 s\n"
           '{"correct": true}\n')
    assert bench.pass_wall(out) == (0.0433 + 0.05) / 2
    assert bench.pass_wall("pass_s: [0.08]\n") is None
    summary = bench.summarize([0.0515, 0.052], [0.0433, 0.0434], "lower")
    assert bench.render("pass_wall_s", "s", "lower", summary, judged=False).endswith(
        "change better in 2 of 2 pairs; not judged by the rule")
