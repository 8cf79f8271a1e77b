"""Correctness gate for the benchmark's passes.

The gate does not trust a record's own `passed` flag alone: the package's
record builder lets a NaN residual through (Python's `max` skips it), so the
gate also requires finite `max_residual` and `mean_residual`, and it compares
each scenario's check ids and sample counts with the reference recorded at
the commit that defined the benchmark.
"""

from __future__ import annotations

import math


def _finite(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def record_problems(record, expected_samples):
    """Reasons a single record fails the gate (empty when it passes)."""
    problems = []
    if record.get("passed") is not True:
        problems.append("passed is not true")
    for key in ("max_residual", "mean_residual"):
        if not _finite(record.get(key)):
            problems.append(f"{key} is not finite")
    if expected_samples is None:
        problems.append("check id is not in the reference")
    elif record.get("samples") != expected_samples:
        problems.append(f"samples {record.get('samples')!r} != reference {expected_samples}")
    return problems


def check_records(scenario, records, expected):
    """Gate one report on one scenario.

    ``expected`` maps check id -> samples.  Returns (attempted, failures)
    where failures is a list of (scenario, check, reason); every expected
    check the report lacks counts as one attempted and failed record.
    """
    failures = []
    seen = set()
    for rec in records:
        check = rec.get("check")
        problems = record_problems(rec, expected.get(check))
        if rec.get("scenario") != scenario:
            problems.append(f"scenario {rec.get('scenario')!r} is not {scenario!r}")
        if check in seen:
            problems.append("check reported twice")
        seen.add(check)
        if problems:
            failures.append((scenario, check, "; ".join(problems)))
    missing = [c for c in expected if c not in seen]
    failures.extend((scenario, c, "check missing from the report") for c in missing)
    return len(records) + len(missing), failures
