#!/usr/bin/env python3
"""Compare two directories of JSON-lines reports written by run_all_validations.py.

Names the report files that are byte-identical, prints the largest
|delta max_residual| of each file that differs, and exits 1 if any check id,
`samples`, `passed`, `tolerance` or `mode` differs between the two
directories, if any |delta max_residual| or |delta mean_residual| exceeds
ROUNDOFF (1e-3) times that check's tolerance, or if an `order_estimate` (or
any of these fields) is null or absent in one run and a number in the other,
is NaN in exactly one run, or moves by more than ORDER_MOVE (1e-3): the two
runs must agree beyond roundoff in every numeric field, and neither may
judge a check by a different bound.

The `*.jsonl` files of the two trees are paired by their path below each
root, so the `seed<k>/` directories of a multi-seed run_all_validations.py
run are compared seed by seed.  A root that is not a directory is a usage
error (exit 2), and two trees that hold no report at all exit 1: a
comparison of nothing passes nothing.

Usage:
    python scripts/compare_reports.py DIR_A DIR_B
"""

import json
import math
import pathlib
import sys

ROUNDOFF = 1e-3
ORDER_MOVE = 1e-3


def _records(path):
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    return {d["check"]: d for d in lines if "check" in d}


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
        rec_a, rec_b = _records(path_a), _records(path_b)
        if rec_a.keys() != rec_b.keys():
            print(f"{name}: check ids differ: {sorted(rec_a.keys() ^ rec_b.keys())}")
            mismatch = True
        worst, worst_check = 0.0, None
        for check in sorted(rec_a.keys() & rec_b.keys()):
            a, b = rec_a[check], rec_b[check]
            for key in ("samples", "passed", "tolerance", "mode"):
                if a.get(key) != b.get(key):
                    print(f"{name}: {check} {key} differs: {a.get(key)} vs {b.get(key)}")
                    mismatch = True
            roundoff = ROUNDOFF * a["tolerance"]
            for key, bound in (("max_residual", roundoff), ("mean_residual", roundoff),
                               ("order_estimate", ORDER_MOVE)):
                x, y = a.get(key), b.get(key)
                # abs(nan - y) > bound is False, so a NaN on one side is checked apart
                if (x is None) != (y is None) or (x is not None and (
                        math.isnan(x) != math.isnan(y) or abs(x - y) > bound)):
                    print(f"{name}: {check} {key} moved: {x} vs {y}, bound {bound:.1e}")
                    mismatch = True
            delta = abs(a["max_residual"] - b["max_residual"])
            if worst_check is None or delta > worst:
                worst, worst_check = delta, check
        print(f"{name}: differs; largest |delta max_residual| {worst:.3e} ({worst_check})")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
