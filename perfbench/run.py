"""liebundles benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload validate-principal-so3 --seed 0 --seconds 10 --trace 0

With `--trace 0` it prints the end-to-end metrics (run_s, setup_s,
peak_rss_mib, pass_frac); with `--trace 1` the per-layer metrics of a traced
pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Work runs in child interpreters
started from this file with BLAS threads pinned to 1; the package is taken
from `src/` of the checkout that holds this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ["validate-principal-so3", "validate-affine-varying", "transport-sweep-so3",
             "validate-gauge"]
# One BLAS thread (numpy's OpenBLAS would otherwise start one per core) and
# a fixed hash seed, so set and dict orders repeat from run to run.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
SETUP_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "pass_frac": "frac"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + extra if extra else "")
    return env


def call_worker(mode, args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR)]
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = [call_worker("setup", args, deadline - time.monotonic())
              for _ in range(SETUP_REPEATS)]
    out = call_worker("measure", args, deadline - time.monotonic())
    attempted, failed = out["attempted"], len(out["failures"])
    values = {
        "run_s": statistics.median(out["pass_s"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": out["peak_rss_mib"],
        "pass_frac": (attempted - failed) / attempted,
    }
    detail = {"pass_s": out["pass_s"], "pass_wall_s": out["pass_wall_s"],
              "setup_s_all": [s["setup_s"] for s in setups],
              "setup_wall_s_all": [s["setup_wall_s"] for s in setups],
              "failed_frac": failed / attempted, "failures": out["failures"],
              "passes_identical": out["passes_identical"], "versions": out["versions"]}
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    correct = failed == 0 and out["passes_identical"]
    return correct, attempted, failed, metrics, detail


def per_layer(args, deadline):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    out = call_worker("trace", args, deadline - time.monotonic())
    attempted, failed = out["attempted"], len(out["failures"])
    check_ids = {c for checks in reference["checks"].values() for c in checks}
    metrics = {name: metric(out["values"].get(name, 0.0), unit)
               for name, unit, _ in layers.metric_specs(check_ids)}
    detail = {k: out[k] for k in ("reports_identical", "per_check_consistent", "untraced_s",
                                  "traced_s", "spans_file", "failures", "versions")}
    detail["failed_frac"] = failed / attempted
    correct = failed == 0 and out["reports_identical"] and out["per_check_consistent"]
    return correct, attempted, failed, metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description="liebundles benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SOURCE / "liebundles" / "__init__.py").is_file():
        print(f"perfbench: no liebundles package under {SOURCE}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics, detail = run(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = machine()
    env.update(detail.pop("versions"))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key in ("pass_s", "pass_wall_s", "setup_s_all", "setup_wall_s_all", "untraced_s",
                "traced_s", "spans_file"):
        if key in detail:
            print(f"{key}: {detail[key]}")
    print(f"failed_frac: {detail['failed_frac']:.6g} frac ({failed} of {attempted})")
    for scenario, check, reason in detail["failures"][:20]:
        print(f"FAILED {scenario} {check}: {reason}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": env, "detail": detail, **result}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
