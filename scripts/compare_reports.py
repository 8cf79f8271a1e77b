#!/usr/bin/env python3
"""Compare two directories of JSON-lines reports written by run_all_validations.py.

Names the report files that are byte-identical, prints the largest
|delta max_residual| of each file that differs, and exits 1 if any check id
differs between the two directories, if a check's records differ in their
field names or in any field but the three RESIDUALS (`samples`, `passed`,
`tolerance`, `mode`, `label` and `scenario` must all be equal), if any
|delta max_residual| or |delta mean_residual| exceeds
ROUNDOFF (1e-3) times that check's tolerance, or if an `order_estimate` (or
any of these fields) is null or absent in one run and a number in the other,
is NaN in exactly one run, or moves by more than ORDER_MOVE (1e-3): the two
runs must agree beyond roundoff in every numeric field, and neither may
judge a check by a different bound.  The `summary` lines, which hold the
actual outputs of the `transport` and `curvature` commands, are compared
field by field: keys and list lengths must match, a number may move by at
most SUMMARY_MOVE (1e-9) times max(1, |x|), NaN must appear on both sides
or neither, and every other value must be equal; any other difference
prints `<file>: summary.<path> moved` and exits 1.  The "largest" line
names the check of the largest move only when that move is above 0.

The `*.jsonl` files of the two trees are paired by their path below each
root, so the `seed<k>/` directories of a multi-seed run_all_validations.py
run are compared seed by seed.  A root that is not a directory is a usage
error (exit 2), as is a report line that is not a JSON object or a check
record without a numeric `tolerance` and `max_residual` or without a JSON
boolean `passed` (the message names the file and the line); two trees that
hold no report at all exit 1: a comparison of nothing passes nothing.

Usage:
    python scripts/compare_reports.py DIR_A DIR_B
"""

import json
import math
import pathlib
import sys

ROUNDOFF = 1e-3
ORDER_MOVE = 1e-3
SUMMARY_MOVE = 1e-9
RESIDUALS = ("max_residual", "mean_residual", "order_estimate")


class UnreadableReport(Exception):
    """A report line the comparison cannot read: a usage error (exit 2)."""


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _report(path):
    """The check records of a report by id, and its summary (None if absent)."""
    records, summary = {}, None
    for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UnreadableReport(f"{path} line {k}: not JSON ({exc.msg})") from None
        if not isinstance(d, dict):
            raise UnreadableReport(f"{path} line {k}: not a JSON object")
        if "check" in d:
            bad = [] if isinstance(d["check"], str) else ["check"]
            bad += [key for key in ("tolerance", "max_residual") if not _is_number(d.get(key))]
            bad += [key for key in ("mean_residual", "order_estimate")
                    if d.get(key) is not None and not _is_number(d[key])]
            if not isinstance(d.get("passed"), bool):
                bad.append("passed")
            if bad:
                raise UnreadableReport(f"{path} line {k}: check record without a readable "
                                       + ", ".join(bad))
            records[d["check"]] = d
        elif "summary" in d and summary is None:
            summary = d["summary"]
    return records, summary


def _summary_moves(a, b, path="summary"):
    """(path, a, b) for each place where two summaries differ beyond roundoff."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in sorted(a):
            yield from _summary_moves(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from _summary_moves(x, y, f"{path}[{k}]")
    elif _is_number(a) and _is_number(b):
        if math.isnan(a) or math.isnan(b):
            if math.isnan(a) != math.isnan(b):
                yield path, a, b
        elif a != b and not abs(a - b) <= SUMMARY_MOVE * max(1.0, abs(a)):
            yield path, a, b
    elif a != b:
        yield path, a, b


def main(argv):
    if len(argv) != 2 or not all(pathlib.Path(p).is_dir() for p in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = (pathlib.Path(p) for p in argv)
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b) for p in d.rglob("*.jsonl")})
    if not names:
        print(f"no *.jsonl report in {dir_a} or {dir_b}")
        return 1
    mismatch = False
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: only in {dir_a if path_a.exists() else dir_b}")
            mismatch = True
            continue
        if path_a.read_bytes() == path_b.read_bytes():
            print(f"{name}: byte-identical")
            continue
        try:
            (rec_a, summary_a), (rec_b, summary_b) = _report(path_a), _report(path_b)
        except UnreadableReport as exc:
            print(f"unreadable report: {exc}", file=sys.stderr)
            return 2
        for where, x, y in _summary_moves(summary_a, summary_b):
            print(f"{name}: {where} moved: {x!r} vs {y!r}")
            mismatch = True
        if rec_a.keys() != rec_b.keys():
            print(f"{name}: check ids differ: {sorted(rec_a.keys() ^ rec_b.keys())}")
            mismatch = True
        worst, worst_check = 0.0, None
        for check in sorted(rec_a.keys() & rec_b.keys()):
            a, b = rec_a[check], rec_b[check]
            if a.keys() != b.keys():
                print(f"{name}: {check} fields differ: {sorted(a.keys() ^ b.keys())}")
                mismatch = True
            for key in sorted((a.keys() & b.keys()).difference(RESIDUALS)):
                if a[key] != b[key]:
                    print(f"{name}: {check} {key} differs: {a[key]!r} vs {b[key]!r}")
                    mismatch = True
            roundoff = ROUNDOFF * a["tolerance"]
            for key, bound in zip(RESIDUALS, (roundoff, roundoff, ORDER_MOVE)):
                x, y = a.get(key), b.get(key)
                # abs(nan - y) > bound is False, so a NaN on one side is checked apart
                if (x is None) != (y is None) or (x is not None and (
                        math.isnan(x) != math.isnan(y) or abs(x - y) > bound)):
                    print(f"{name}: {check} {key} moved: {x} vs {y}, bound {bound:.1e}")
                    mismatch = True
            delta = abs(a["max_residual"] - b["max_residual"])
            if delta > worst:
                worst, worst_check = delta, check
        named = f" ({worst_check})" if worst_check is not None else ""
        print(f"{name}: differs; largest |delta max_residual| {worst:.3e}{named}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
