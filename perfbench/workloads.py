"""The benchmark's workloads: how each one is set up and what one pass runs.

A pass returns the report text it produced and, per report, the check
records parsed from it.  The inputs of a pass depend only on the workload
seed, so every pass of a run repeats the same work.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import liebundles
from liebundles import cli
from liebundles.calculus import BaseCurve
from liebundles.connections import transport_multiplicativity_check
from liebundles.scenarios import build_scenario, preset_config

# Workload name -> presets validated back to back through `liebundles validate`.
VALIDATE_PRESETS = {
    "validate-principal-so3": ["principal-so3"],
    "validate-affine-varying": ["affine-varying"],
    "validate-gauge": ["gauge-jet-so3", "gauge-jet-abelian"],
}
SWEEP = "transport-sweep-so3"
NAMES = list(VALIDATE_PRESETS) + [SWEEP]

# Validate runs per pass, each with its own program seed.  The cost of a
# principal-so3 run depends on its seed (how much of each random curve lies
# in the ramp where both glued pieces are evaluated), so its pass averages
# three seeds; the other workloads cost the same on every seed.
SEEDS_PER_PASS = {"validate-principal-so3": 3}

# Acceptance criterion 01's loop: random curves on (0, 0.3), step 1e-3, and
# the tolerance the suite pins for transport multiplicativity.
SWEEP_PRESET = "principal-so3"
SWEEP_CURVES = 8
SWEEP_INTERVAL = (0.0, 0.3)
SWEEP_STEP = 1e-3
SWEEP_TOL = 1e-7


def program_seeds(workload, seed):
    """The seeds handed to liebundles, which needs non-negative integers."""
    k = SEEDS_PER_PASS.get(workload, 1)
    return [(k * int(seed) + i) % 2**32 for i in range(k)]


def setup(workload, seed):
    """Build the scenarios a workload uses (the part that `setup_s` times)."""
    out = {}
    for name in VALIDATE_PRESETS.get(workload, [SWEEP_PRESET]):
        config = preset_config(name)
        config["seed"] = program_seeds(workload, seed)[0]
        out[name] = build_scenario(config)
    return out


class Workload:
    """One workload at one seed; `run_pass` performs a single timed pass."""

    def __init__(self, name, seed):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.seeds = program_seeds(name, seed)
        self.inputs = None

    def prepare(self):
        """Generate sweep inputs; validate workloads take only the seeds."""
        if self.name == SWEEP:
            scenario = setup(self.name, self.seed)[SWEEP_PRESET]
            self.inputs = sweep_inputs(scenario, self.seeds[0])

    def run_pass(self):
        """One pass: (report text, [(scenario, records) for each report])."""
        if self.name == SWEEP:
            text, records = run_sweep(*self.inputs)
            return text, [(SWEEP, records)]
        texts, reports = [], []
        for preset in VALIDATE_PRESETS[self.name]:
            for seed in self.seeds:
                argv = ["validate", "--scenario", preset, "--no-meta", "--seed", str(seed)]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                if code not in (0, 1):
                    raise RuntimeError(f"liebundles {' '.join(argv)} exited with {code}")
                texts.append(buf.getvalue())
                reports.append((preset, parse_records(texts[-1])))
        return "".join(texts), reports


def parse_records(text):
    """Check records of a JSON-lines report."""
    records = []
    for line in text.splitlines():
        if line.strip():
            doc = json.loads(line)
            if "check" in doc:
                records.append(doc)
    return records


def sweep_inputs(scenario, seed):
    """Random wiggle curves on the chart's inner half plus fiber pairs (g, h)."""
    rng = np.random.default_rng([seed, 1])
    chart, group = scenario.chart, scenario.group
    lo = chart.lower + 0.25 * (chart.upper - chart.lower)
    hi = chart.upper - 0.25 * (chart.upper - chart.lower)
    cases = []
    for _ in range(SWEEP_CURVES):
        start = lo + (hi - lo) * rng.uniform(0.0, 1.0, chart.dim)
        end = lo + (hi - lo) * rng.uniform(0.0, 1.0, chart.dim)
        amps = 0.08 * rng.uniform(-1.0, 1.0, chart.dim)
        curve = BaseCurve.wiggle(start, end, amps, SWEEP_INTERVAL, label="sweep")
        g = group.exp(group.algebra(rng.uniform(-1.0, 1.0, group.dim)))
        h = group.exp(group.algebra(rng.uniform(-1.0, 1.0, group.dim)))
        cases.append((curve, g, h))
    return scenario, cases


def run_sweep(scenario, cases):
    """One multiplicativity check (three transports) per curve, as records."""
    records = []
    for i, (curve, g, h) in enumerate(cases):
        res = transport_multiplicativity_check(scenario.nu, curve, g, h, step=SWEEP_STEP)
        records.append({
            "check": f"sweep-{i}", "scenario": SWEEP, "samples": 1,
            "max_residual": res, "mean_residual": res, "tolerance": SWEEP_TOL,
            "mode": "max<=tol", "passed": bool(res <= SWEEP_TOL),
        })
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return text, records


def expected_checks(scenario, reference):
    """{check id: samples} that a report on the scenario must hold."""
    if scenario == SWEEP:
        return {f"sweep-{i}": 1 for i in range(SWEEP_CURVES)}
    return reference["checks"][scenario]


def versions():
    import platform

    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "liebundles": liebundles.__version__,
    }
