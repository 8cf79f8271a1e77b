"""Check records and machine-readable report emission (JSON-lines, CSV)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .errors import UsageError

__all__ = ["CheckRecord", "MODES", "summary_dict", "render_jsonl", "write_report", "records_to_csv"]

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
    """CSV of residuals from parsed JSON-lines record dicts."""
    fields = ["check", "scenario", "samples", "max_residual", "mean_residual",
              "order_estimate", "tolerance", "mode", "passed"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    for rec in dicts:
        writer.writerow(rec)
    return buf.getvalue()
