"""One benchmark process: `setup`, `measure` or `trace` for one workload.

`run.py` starts this file in a fresh interpreter with BLAS threads pinned and
reads the JSON object it prints as its last line.  Heavy imports happen
inside the modes, so `setup` times the import of liebundles itself.  Times
are taken with `SpeedClock` (wall time scaled to a nominal core speed); the
raw wall times are returned next to them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speedclock import SpeedClock

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mode_setup(args):
    """Seconds to import liebundles and build the workload's scenarios."""
    with SpeedClock() as clock:
        import workloads

        workloads.setup(args.workload, args.seed)
    return {"setup_s": clock.seconds, "setup_wall_s": clock.wall}


def gate_pass(reports, reference):
    """(attempted, failures) of one pass, gating each report on its own."""
    import gate
    import workloads

    attempted, failures = 0, []
    for scenario, records in reports:
        n, bad = gate.check_records(scenario, records,
                                    workloads.expected_checks(scenario, reference))
        attempted += n
        failures += bad
    return attempted, failures


def timed_passes(workload, reference, seconds):
    """Passes until `seconds` have elapsed (at least one); gate each pass."""
    times, walls, texts, attempted, failures = [], [], [], 0, []
    begin = time.perf_counter()
    while True:
        gc.collect()
        with SpeedClock() as clock:
            text, reports = workload.run_pass()
        times.append(clock.seconds)
        walls.append(clock.wall)
        texts.append(text)
        n, bad = gate_pass(reports, reference)
        attempted += n
        failures += bad
        if time.perf_counter() - begin >= seconds:
            return times, walls, texts, attempted, failures


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_measure(args):
    import workloads

    reference = load_reference()
    work = workloads.Workload(args.workload, args.seed)
    work.prepare()
    times, walls, texts, attempted, failures = timed_passes(work, reference, args.seconds)
    return {
        "pass_s": times,
        "pass_wall_s": walls,
        "attempted": attempted,
        "failures": failures,
        "passes_identical": len(set(texts)) == 1,
        "peak_rss_mib": peak_rss_mib(),
        "versions": workloads.versions(),
    }


def per_check_seconds(workload, seed, reference, reports):
    """Time each check alone with `run_suite(..., only=[id])` at the first seed.

    Returns (seconds per check id, whether every record matches the one in
    the pass's report at that seed; a mismatch would mean a check's
    substream moved).
    """
    import workloads
    from liebundles.suites import run_suite

    program_seed = workloads.program_seeds(workload, seed)[0]
    seconds, consistent = {}, True
    full = {}
    for scenario, records in reports:  # the first report of each scenario is at program_seed
        for r in records:
            full.setdefault((scenario, r["check"]), json.dumps(r, sort_keys=True))
    for preset, scenario in workloads.setup(workload, seed).items():
        for check in reference["checks"][preset]:
            with SpeedClock() as clock:
                (record,) = run_suite(scenario, seed=program_seed, only=[check])
            seconds[check] = seconds.get(check, 0.0) + clock.seconds
            alone = json.dumps(record.to_dict(), sort_keys=True)
            consistent = consistent and full.get((preset, check)) == alone
    return seconds, consistent


def worst_tol_ratio(records):
    ratios = [r["max_residual"] / r["tolerance"] for r in records
              if r.get("mode") == "max<=tol" and r.get("tolerance")]
    return max(ratios) if ratios else 0.0


def mode_trace(args):
    import layers
    import tracer as tracing
    import workloads

    reference = load_reference()
    plain = workloads.Workload(args.workload, args.seed)
    plain.prepare()
    times, _, texts, attempted, failures = timed_passes(plain, reference, args.seconds)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.Workload(args.workload, args.seed)
        traced.prepare()
        gc.collect()
        tracer.run_id = 1
        with SpeedClock() as clock:
            text, reports = traced.run_pass()
        traced_s = clock.seconds
        tracer.run_id = 2
    finally:
        tracer.uninstall()
    n, bad = gate_pass(reports, reference)
    attempted += n
    failures += bad

    if args.workload == workloads.SWEEP:
        check_s, consistent = {}, True
    else:
        check_s, consistent = per_check_seconds(args.workload, args.seed, reference, reports)
    want = reference["digests"].get(args.workload, {}).get(str(args.seed))
    untraced_s = statistics.median(times)
    totals = tracing.span_totals(tracer, 1)
    derived = {
        "reporting.digest_match": -1 if want is None else int(digest(text) == want),
        "suites.worst_tol_ratio": worst_tol_ratio([r for _, rs in reports for r in rs]),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "trace.spans": len(tracer),
    }
    values = layers.layer_values(totals, tracing.run_steps(tracer, 1), check_s, derived)
    spans_path = Path(args.out_dir) / f"spans-{args.workload}.npz"
    tracer.write(spans_path)
    return {
        "values": values,
        "attempted": attempted,
        "failures": failures,
        "reports_identical": all(t == text for t in texts),
        "per_check_consistent": consistent,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_file": str(spans_path),
        "peak_rss_mib": peak_rss_mib(),
        "versions": workloads.versions(),
    }


MODES = {"setup": mode_setup, "measure": mode_measure, "trace": mode_trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    out = MODES[args.mode](args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
