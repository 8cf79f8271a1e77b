"""Check records and machine-readable report emission (JSON-lines, CSV)."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["CheckRecord", "tolerance_for", "summary_dict", "render_jsonl", "write_report",
           "records_to_csv"]


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
        return {
            "check": self.check,
            "label": self.label,
            "scenario": self.scenario,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "order_estimate": self.order_estimate,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "passed": self.passed,
        }


def tolerance_for(config, check, default):
    """Tolerance of a check: the config's ``tolerances`` entry for it when
    there is one, else the check's pinned default."""
    return float(config.get("tolerances", {}).get(check, default))


def make_record(check, label, scenario, residuals, tolerance, samples=None, order=None,
                mode="max<=tol"):
    """Record of a check; an empty or non-finite residual set fails in either
    mode and reports NaN as its max and mean."""
    if mode not in ("max<=tol", "min>tol"):
        raise ValueError(f"unknown mode {mode}")
    residuals = [float(r) for r in residuals]
    finite = bool(residuals) and all(math.isfinite(r) for r in residuals)
    mx = max(residuals) if finite else math.nan
    mean = sum(residuals) / len(residuals) if finite else math.nan
    if mode == "max<=tol":
        passed = finite and mx <= tolerance
    else:
        passed = finite and min(residuals) > tolerance
    return CheckRecord(
        check=check, label=label, scenario=scenario,
        samples=samples if samples is not None else len(residuals),
        max_residual=mx, mean_residual=mean, tolerance=float(tolerance),
        passed=bool(passed), mode=mode,
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
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
