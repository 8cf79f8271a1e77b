#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating order and judge a change.

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` N times in
each of the checkouts PARENT and CHANGE, T being the `run_seconds` of
`BENCHMARK.json` (at the root of this checkout), so both sides run as long as
the benchmark does.  The runs go one pair at a time: odd pairs run the parent
first, even pairs the change first, since on a shared host the run that goes
second in a pair is often slower and only alternating order separates an
effect of a few percent from that bias.  For each end-to-end metric that
`BENCHMARK.json` lists, it prints each side's median and quartiles, in how
many pairs the change did better, and whether the 9-of-10 rule holds: the
change better in at least nine of every ten pairs and its median better than
the parent's by more than the parent's interquartile range.  A run that exits
non-zero or prints no result stops the script with exit 1.  Beside the
metrics it prints each side's median raw pass wall time, read from the
`pass_wall_s:` line a run prints (the median of its passes), and in how many
pairs the change did better; the rule does not judge that line, since the
scaled `run_s` is the metric.  The benchmark is run as a program; nothing
under `perfbench/` is imported.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workload W [--seed 0] [--pairs 10]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``, the quartiles
    by the inclusive method (a lone value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better):
    """The comparison of one metric over pairs of runs, ``parent[k]`` and
    ``change[k]`` from pair k, where ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (p_median - c_median)
    return {"parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
            "wins": wins, "pairs": len(parent),
            "holds": 10 * wins >= 9 * len(parent) and gain > p_q3 - p_q1}


def render(name, unit, better, summary, judged=True):
    """One line of the report for a metric's summary; an unjudged line
    leaves out the rule's verdict."""
    def side(q):
        return f"median {q[1]:.6g} (quartiles {q[0]:.6g}, {q[2]:.6g})"

    verdict = (f"9-of-10 rule {'holds' if summary['holds'] else 'fails'}" if judged
               else "not judged by the rule")
    return (f"{name} [{unit}, {better} is better]: parent {side(summary['parent'])}; "
            f"change {side(summary['change'])}; change better in {summary['wins']} of "
            f"{summary['pairs']} pairs; {verdict}")


def pass_wall(stdout):
    """The median raw wall time of a run's passes, from the ``pass_wall_s:``
    line of its output, or None when it printed none."""
    for line in stdout.splitlines():
        if line.startswith("pass_wall_s: "):
            return statistics.median(json.loads(line.split(": ", 1)[1]))
    return None


def run_once(checkout, args, seconds):
    """The metric values of one benchmark run of ``seconds`` in ``checkout``,
    with its median raw pass wall time under ``pass_wall_s``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: run in {checkout} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    wall = pass_wall(proc.stdout)
    if wall is None:
        raise SystemExit(f"bench_pairs: run in {checkout} printed no pass_wall_s line")
    return {**{k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()},
            "pass_wall_s": wall}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, specs = bench["run_seconds"], bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args, seconds))
        print(f"pair {k}: " + "; ".join(
            f"{side} run_s {runs[side][-1]['run_s']:.6g}" for side in order), flush=True)
    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    for spec in specs:
        name = spec["name"]
        summary = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                            spec["better"])
        print(render(name, spec["unit"], spec["better"], summary))
    walls = summarize([r["pass_wall_s"] for r in runs["parent"]],
                      [r["pass_wall_s"] for r in runs["change"]], "lower")
    print(render("pass_wall_s", "s", "lower", walls, judged=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
