"""Regenerate perfbench/reference.json from the current source tree.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

The reference holds, per scenario, the check ids and sample counts a pass
must report, and, per workload and seed, the sha256 of the pass's report.
It was made once at the commit that defined the benchmark; regenerating it
later would hide a change in the reports, so do so only on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads

TUNING_SEED = 0
HELD_OUT_SEED = 7919
SEEDS = list(range(16)) + [HELD_OUT_SEED]


def main():
    checks, digests = {}, {}
    for name in workloads.NAMES:
        digests[name] = {}
        for seed in SEEDS:
            work = workloads.Workload(name, seed)
            work.prepare()
            text, reports = work.run_pass()
            digests[name][str(seed)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if name == workloads.SWEEP:
                continue
            for scenario, records in reports:
                for rec in records:
                    seen = checks.setdefault(scenario, {}).setdefault(rec["check"], rec["samples"])
                    if seen != rec["samples"]:
                        raise SystemExit(f"{rec['check']}: samples depend on the seed")
            print(name, seed, "ok", file=sys.stderr)
    doc = {"tuning_seed": TUNING_SEED, "held_out_seed": HELD_OUT_SEED,
           "checks": checks, "digests": digests}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
