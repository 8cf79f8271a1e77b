#!/usr/bin/env python3
"""Run every preset's invariant suite and write one JSON-lines report each
(`<preset>.jsonl`), plus the `transport` and `curvature` command reports of
principal-so3 and affine-varying (`transport-<preset>.jsonl`,
`curvature-<preset>.jsonl`), all through the `liebundles` command line and
without environment metadata, so that two runs at one seed can be compared
byte for byte with compare_reports.py.  With several seeds each seed k
writes to its own directory `<out-dir>/seed<k>/`; one seed writes to
`<out-dir>` itself.

Usage:
    python scripts/run_all_validations.py [--out-dir reports] [--seed 0 [1 2 7919 ...]]
"""

import argparse
import pathlib
import sys

from liebundles import cli
from liebundles.scenarios import PRESET_NAMES

COMMAND_PRESETS = ("principal-so3", "affine-varying")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    args = parser.parse_args()

    any_failed = False
    for seed in args.seed:
        out_dir = pathlib.Path(args.out_dir)
        if len(args.seed) > 1:
            out_dir = out_dir / f"seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        runs = [("validate", name, out_dir / f"{name}.jsonl") for name in PRESET_NAMES]
        runs += [(command, name, out_dir / f"{command}-{name}.jsonl")
                 for command in ("transport", "curvature") for name in COMMAND_PRESETS]
        for command, name, path in runs:
            code = cli.main([command, "--scenario", name, "--seed", str(seed), "--no-meta",
                             "--out", str(path)])
            any_failed = any_failed or code != 0
            print(f"{command:9s} {name:20s} {'ok' if code == 0 else f'FAILED (exit {code})'}"
                  f"  -> {path}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
