"""The correctness gate catches records that the package's own flag lets through."""

import math

import gate

EXPECTED = {"alpha": 8, "beta": 3}


def record(check, samples, mx=1e-12, mean=1e-13, passed=True):
    return {"scenario": "demo", "check": check, "samples": samples,
            "max_residual": mx, "mean_residual": mean, "passed": passed}


def clean():
    return [record("alpha", 8), record("beta", 3)]


def test_clean_pass_has_no_failures():
    assert gate.check_records("demo", clean(), EXPECTED) == (2, [])


def test_nan_mean_residual_fails_even_when_passed():
    records = clean()
    records[0]["mean_residual"] = math.nan
    attempted, failures = gate.check_records("demo", records, EXPECTED)
    assert attempted == 2
    assert [(c, "mean_residual is not finite" in r) for _, c, r in failures] == [("alpha", True)]


def test_infinite_max_residual_fails():
    records = clean()
    records[1]["max_residual"] = math.inf
    _, failures = gate.check_records("demo", records, EXPECTED)
    assert [c for _, c, _ in failures] == ["beta"]


def test_missing_check_counts_as_attempted_and_failed():
    attempted, failures = gate.check_records("demo", clean()[:1], EXPECTED)
    assert attempted == 2
    assert failures == [("demo", "beta", "check missing from the report")]


def test_changed_samples_fail():
    records = clean()
    records[0]["samples"] = 1
    _, failures = gate.check_records("demo", records, EXPECTED)
    assert [c for _, c, _ in failures] == ["alpha"]
    assert "samples" in failures[0][2]


def test_unknown_duplicate_and_foreign_checks_fail():
    foreign = record("beta", 3)
    foreign["scenario"] = "other"
    records = [record("alpha", 8), foreign, record("gamma", 1), record("alpha", 8)]
    attempted, failures = gate.check_records("demo", records, EXPECTED)
    assert attempted == 4
    assert sorted(c for _, c, _ in failures) == ["alpha", "beta", "gamma"]


def test_passed_false_fails():
    records = clean()
    records[1]["passed"] = False
    _, failures = gate.check_records("demo", records, EXPECTED)
    assert [c for _, c, _ in failures] == ["beta"]
