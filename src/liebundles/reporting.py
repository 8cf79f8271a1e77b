"""Check records and JSON-lines reports: the writer (`make_record`,
`render_jsonl`, CSV) and the one reader (`read_report`)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .errors import UsageError

__all__ = ["CheckRecord", "MODES", "summary_dict", "render_jsonl", "write_report", "records_to_csv",
           "json_float", "read_report"]

MODES = ("max<=tol", "min>tol")  # every residual within the tolerance, or (a control) above it


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one invariant check.

    ``mode`` is "max<=tol" for ordinary residual checks and "min>tol" for
    negative controls that must visibly fail.
    """

    check: str
    label: str
    scenario: str
    samples: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    mode: str = "max<=tol"
    order_estimate: Optional[float] = None

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def judge(mode, tolerance, mx, low):
    """Pass or fail of residuals with largest mx and least low (a report keeps no least and
    passes its mean): both finite, and mx <= tolerance ("max<=tol") or low > tolerance."""
    verdict = mx <= tolerance if mode == "max<=tol" else low > tolerance
    return bool(verdict) and math.isfinite(mx) and math.isfinite(low)


def make_record(check, label, scenario, residuals, tolerance, order=None, mode="max<=tol"):
    """Record of a check over its residuals, read as one float array; an empty
    or non-finite residual set fails in either mode and reports NaN as its
    max and mean.  The mean is Python's left-to-right sum over the floats
    divided by their count, not numpy's pairwise sum; `judge` decides."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode}")
    arr = np.asarray(residuals, dtype=float)
    finite = arr.size > 0 and bool(np.isfinite(arr).all())
    mx = float(arr.max()) if finite else math.nan
    mean = sum(arr.tolist()) / arr.size if finite else math.nan
    low = float(arr.min()) if finite and mode == "min>tol" else mean
    return CheckRecord(
        check=check, label=label, scenario=scenario,
        samples=arr.size,
        max_residual=mx, mean_residual=mean, tolerance=float(tolerance),
        passed=judge(mode, tolerance, mx, low), mode=mode,
        order_estimate=None if order is None else float(order),
    )


def summary_dict(records: List[CheckRecord], scenario, seed, step):
    return {
        "summary": {
            "scenario": scenario,
            "seed": seed,
            "step": step,
            "checks": len(records),
            "failed": sorted(r.check for r in records if not r.passed),
            "all_passed": all(r.passed for r in records),
        }
    }


def render_jsonl(records, summary, meta=None):
    """Deterministic JSON-lines text: sorted records, then summary, then meta."""
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in
             sorted(records, key=lambda r: r.check)]
    lines.append(json.dumps(summary, sort_keys=True))
    if meta is not None:
        lines.append(json.dumps({"meta": meta}, sort_keys=True))
    return "\n".join(lines) + "\n"


def write_report(text, out_path=None):
    if out_path is None:
        print(text, end="")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an output path is a command-line argument
        raise UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def records_to_csv(dicts):
    """CSV of residuals from the record dicts of `read_report`."""
    fields = ["check", "scenario", "samples", "max_residual", "mean_residual",
              "order_estimate", "tolerance", "mode", "passed"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for rec in dicts:
        writer.writerow(rec)
    return buf.getvalue()


def json_float(value):
    """``float(value)`` of a JSON number (not a bool) within float range, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _number(r, key, what):
    value = json_float(r.get(key))
    if value is None:
        raise ValueError(f"{what} {key} must be a number, got {r.get(key)!r}")
    return value


def _read_record(r, seen):
    """Check a record in place, its residuals and tolerance made floats, and
    re-judge it; a ValueError names the first field that does not read."""
    if not isinstance(r["check"], str):
        raise ValueError(f"record field check must be a string, got {r['check']!r}")
    if r["check"] in seen:
        raise ValueError(f"record {r['check']!r} repeats the check id of line {seen[r['check']]}")
    what = f"record {r['check']!r} field"
    for key in ("max_residual", "tolerance", "mean_residual"):
        if key in r or key != "mean_residual":  # a record may leave out its mean
            r[key] = _number(r, key, what)
    if r.get("order_estimate") is not None:
        _number(r, "order_estimate", what)
    if "mode" in r and r["mode"] not in MODES:
        raise ValueError(f"{what} mode must be one of {', '.join(MODES)}, got {r['mode']!r}")
    samples = r.get("samples", 0)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
        raise ValueError(f"{what} samples must be a non-negative integer, got {samples!r}")
    if not isinstance(r.get("passed"), bool):
        raise ValueError(f"{what} passed must be true or false, got {r.get('passed')!r}")
    mode, mean = r.get("mode", MODES[0]), r.get("mean_residual", r["max_residual"])
    verdict = judge(mode, r["tolerance"], r["max_residual"], mean)
    # a failed control with its mean above the tolerance may have had a low residual
    if r["passed"] != verdict and (r["passed"] or mode == MODES[0]):
        raise ValueError(f"record {r['check']!r} says passed={json.dumps(r['passed'])}, "
                         f"but its residuals judge {json.dumps(verdict)} under {mode}")


def _object(pairs):
    """A JSON object of unique keys: plain `json.loads` keeps the last of two."""
    obj, keys = dict(pairs), [key for key, _ in pairs]
    if len(obj) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def read_report(path):
    """The check records of a JSON-lines report in file order and its first
    summary (or None); a line that does not read is a UsageError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {path}: {exc}") from exc
    records, summary, seen = [], None, {}
    for k, line in enumerate(lines, 1):
        try:
            entry = json.loads(line, object_pairs_hook=_object) if line.strip() else {}
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
            if "check" in entry:
                _read_record(entry, seen)
                seen[entry["check"]] = k
                records.append(entry)
        except ValueError as exc:
            detail = f"not JSON ({exc.msg})" if isinstance(exc, json.JSONDecodeError) else exc
            raise UsageError(f"cannot read report {path} line {k}: {detail}") from None
        if "summary" in entry and summary is None:
            summary = entry["summary"]
    return records, summary
