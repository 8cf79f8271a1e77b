#!/usr/bin/env python3
"""Compare two directories of JSON-lines reports written by run_all_validations.py.

Pairs the `*.jsonl` files of the two trees by their path below each root, so
the `seed<k>/` directories of a multi-seed run compare seed by seed, and reads
every file, byte-identical ones too, through `liebundles.reporting.read_report`
(its rules are in the README) before comparing any.  Names the byte-identical
files, prints the largest |delta max_residual| of each file that differs
(naming its check when that move is above 0), and exits 1 if a check id
differs between the two trees, if a check's records differ in their field
names or in any field but the three RESIDUALS (`samples`, `passed`,
`tolerance`, `mode`, `label` and `scenario` must all be equal), if a
|delta max_residual| or |delta mean_residual| exceeds ROUNDOFF (1e-3) times
that check's tolerance or an `order_estimate` moves by more than ORDER_MOVE
(1e-3), or if one of the three is null, absent or NaN in one run only: the
runs must agree beyond roundoff in every numeric field, and neither may judge
a check by another bound.  The `summary` lines, which hold the outputs of the
`transport` and `curvature` commands, are compared field by field: keys and
list lengths must match, a number may move by at most SUMMARY_MOVE (1e-9)
times max(1, |x|), NaN must appear on both sides or neither, and every other
value must be equal; any other difference prints `<file>: summary.<path>
moved` and exits 1.  Two trees that hold no report exit 1: a comparison of
nothing passes nothing.  A root that is not a directory, or a report that
the reader refuses (the message names the file and the line), is a usage
error (exit 2).  The last line of a comparison, `identical: k of n files`,
counts the byte-identical files among the n paired paths.

Usage:
    python scripts/compare_reports.py DIR_A DIR_B
"""

import math
import pathlib
import sys

from liebundles.errors import UsageError
from liebundles.reporting import json_float, read_report

ROUNDOFF = 1e-3
ORDER_MOVE = 1e-3
SUMMARY_MOVE = 1e-9
RESIDUALS = ("max_residual", "mean_residual", "order_estimate")


def _summary_moves(a, b, path="summary"):
    """(path, a, b) for each place where two summaries differ beyond roundoff."""
    x, y = json_float(a), json_float(b)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in sorted(a):
            yield from _summary_moves(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (u, v) in enumerate(zip(a, b)):
            yield from _summary_moves(u, v, f"{path}[{k}]")
    elif x is not None and y is not None:
        if math.isnan(x) or math.isnan(y):
            if math.isnan(x) != math.isnan(y):
                yield path, a, b
        elif x != y and not abs(x - y) <= SUMMARY_MOVE * max(1.0, abs(x)):
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
    try:
        reports = {path: read_report(path) for name in names
                   for path in (dir_a / name, dir_b / name) if path.exists()}
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    mismatch, identical = False, 0
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a in reports and path_b in reports):
            print(f"{name}: only in {dir_a if path_a in reports else dir_b}")
            mismatch = True
            continue
        if path_a.read_bytes() == path_b.read_bytes():
            print(f"{name}: byte-identical")
            identical += 1
            continue
        rec_a, rec_b = ({r["check"]: r for r in reports[p][0]} for p in (path_a, path_b))
        summary_a, summary_b = reports[path_a][1], reports[path_b][1]
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
    print(f"identical: {identical} of {len(names)} files")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
