"""Command-line front end: validate | transport | curvature | report.

Reports are JSON-lines: one record per check (sorted by check id), then a
summary object, then optional environment metadata (suppressed by --no-meta
so runs are byte-reproducible).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bundles import TotalPoint
from .connections import transport_group, transport_multiplicativity_check
from .errors import LieBundleError, UsageError
from .gauge import ConnectionJet, curvature_map
from .principal import curvature as curvature_eval
from .principal import transport_compatibility_check, transport_total
from .reporting import (make_record, records_to_csv, render_jsonl, summary_dict, tolerance_for,
                        write_report)
from .scenarios import PRESET_NAMES, build_scenario, preset_config
from .suites import run_suite

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liebundles",
        description="Validate multiplicative connections, transports, and curvature "
                    "identities on trivialized group-bundle scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (inline scenario or preset overrides)")
        p.add_argument("--scenario", help=f"preset name ({', '.join(PRESET_NAMES)})")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--step", type=float, default=None, help="integrator step size")
        p.add_argument("--samples", type=int, default=None, help="sample count per check")
        p.add_argument("--out", help="write the JSON-lines report to this path")
        p.add_argument("--no-meta", action="store_true", help="omit environment metadata")

    p_validate = sub.add_parser("validate", help="run the invariant suite for a scenario")
    common(p_validate)
    p_validate.add_argument("--checks", help="comma-separated subset of check ids")

    p_transport = sub.add_parser("transport", help="transport fiber data along a named curve")
    common(p_transport)
    p_transport.add_argument("--curve", default="main", help="curve id from the scenario config")
    p_transport.add_argument("--fiber", help="JSON array of initial fiber algebra coordinates")

    p_curv = sub.add_parser("curvature", help="evaluate curvature at a point on a tangent pair")
    common(p_curv)
    p_curv.add_argument("--point", help="JSON array: base point")
    p_curv.add_argument("--u1", help="JSON array: first tangent")
    p_curv.add_argument("--u2", help="JSON array: second tangent")

    p_report = sub.add_parser("report", help="summarize a JSON-lines report, optionally as CSV")
    p_report.add_argument("--in", dest="in_path", required=True, help="JSON-lines report path")
    p_report.add_argument("--csv", help="write a CSV of residuals to this path")
    return parser


def _load_config(args):
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError("config must be a JSON object")
    name = args.scenario or config.get("scenario")
    if name:
        base = preset_config(name)
        overrides = {k: v for k, v in config.items() if k != "scenario"}
        base.update(overrides)
        config = base
    if not config:
        raise UsageError("provide --scenario or --config")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.step is not None:
        config["step"] = args.step
    if args.samples is not None:
        config["samples"] = args.samples
    _validate_config(config)
    return config


def _number(value, what, cast=float, positive=True):
    """``cast(value)``, as a usage error when it fails, when value is a bool
    (JSON true/false) or, if asked, when it is not positive."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{what} must be a number, got {value!r}") from None
    if positive and not number > 0:
        raise UsageError(f"{what} must be positive, got {value!r}")
    return number


def _validate_config(config):
    if config.get("kind") not in ("principal", "affine", "gauge"):
        raise UsageError("config must declare kind principal|affine|gauge")
    if "step" in config:
        _number(config["step"], "config field step")
    tolerances = config.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise UsageError("config field tolerances must be an object of check id -> tolerance")
    for name, tol in tolerances.items():
        _number(tol, f"tolerance for {name}")
    if "samples" in config:
        _number(config["samples"], "config field samples", int)
    if "seed" in config and _number(config["seed"], "config field seed", int, positive=False) < 0:
        raise UsageError(f"config field seed must be non-negative, got {config['seed']!r}")


def _json_vector(text, size, flag):
    """Parse a command-line JSON array of ``size`` finite numbers."""
    try:
        vec = np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (size,) or not np.all(np.isfinite(vec)):
        raise UsageError(f"{flag} must be a JSON array of {size} finite numbers, got {text!r}")
    return vec


def _meta(args):
    if args.no_meta:
        return None
    import time

    from . import __version__

    return {
        "package": f"liebundles {__version__}",
        "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _emit(records, config, args, extra_summary=None):
    seed = int(config.get("seed", 0))
    step = float(config.get("step", 5e-3))
    summary = summary_dict(records, config.get("name", "inline"), seed, step)
    if extra_summary:
        summary["summary"].update(extra_summary)
    text = render_jsonl(records, summary, meta=_meta(args))
    write_report(text, args.out)
    return 0 if all(r.passed for r in records) else 1


def _record(config, check, label, scenario, residuals, tolerance):
    """`make_record` at the config's tolerance override for the check, if any."""
    return make_record(check, label, scenario, residuals, tolerance_for(config, check, tolerance))


def _cmd_validate(args):
    config = _load_config(args)
    scenario = build_scenario(config)
    only = None
    if args.checks is not None:
        only = args.checks.split(",")
    records = run_suite(
        scenario,
        seed=int(config.get("seed", 0)),
        samples=config.get("samples"),
        step=config.get("step"),
        only=only,
    )
    return _emit(records, config, args)


def _cmd_transport(args):
    config = _load_config(args)
    scenario = build_scenario(config)
    if scenario.kind == "gauge":
        raise UsageError("transport applies to principal/affine scenarios; "
                         "use `validate` for gauge presets")
    if args.curve not in scenario.curves:
        raise UsageError(f"curve {args.curve!r} not defined; have {sorted(scenario.curves)}")
    curve = scenario.curves[args.curve]
    seed = int(config.get("seed", 0))
    step = float(config.get("step", 5e-3))
    rng = np.random.default_rng([seed, 1000])
    group = scenario.group
    if args.fiber:
        coords = _json_vector(args.fiber, group.dim, "--fiber")
    else:
        coords = rng.uniform(-1.0, 1.0, group.dim)
    g0 = group.exp(group.algebra(coords))

    nu_result = transport_group(scenario.nu, curve, g0, step=step, with_error_estimate=True)
    partner = group.random_element(rng)
    mult_res = transport_multiplicativity_check(scenario.nu, curve, g0, partner, step=step)
    omega = scenario.omega if scenario.kind == "affine" else scenario.omega_glued
    y0 = TotalPoint(np.asarray(curve.position(curve.a), float), g0)
    end, total_result = transport_total(omega, curve, y0, step=step, with_error_estimate=True)
    compat = transport_compatibility_check(omega, curve, y0, partner, step=step)

    records = [
        _record(config, "transport-endpoint-membership",
                "transport endpoint stays on the group", scenario.name,
                [nu_result.membership_residual, total_result.membership_residual], 1e-9),
        _record(config, "transport-error-estimate",
                "step-halving error estimate", scenario.name,
                [nu_result.error_estimate, total_result.error_estimate], 1e-6),
        _record(config, "transport-multiplicative",
                "transport is a fiberwise homomorphism", scenario.name,
                [mult_res], 1e-7),
        _record(config, "transport-compatibility",
                "total transport intertwines the fiber action", scenario.name,
                [compat], 1e-7),
    ]
    extra = {
        "curve": args.curve,
        "initial_fiber": coords.tolist(),
        "endpoint_fiber": group.log(nu_result.element).coords.tolist(),
        "total_endpoint_fiber": scenario.group.log(end.fiber).coords.tolist(),
        "steps": nu_result.steps,
    }
    return _emit(records, config, args, extra_summary=extra)


def _cmd_curvature(args):
    config = _load_config(args)
    scenario = build_scenario(config)
    seed = int(config.get("seed", 0))
    rng = np.random.default_rng([seed, 2000])
    extra = {}
    if scenario.kind == "gauge":
        records = run_suite(scenario, seed=seed, samples=config.get("samples"),
                            only=["curvature-map-invariance"])
        sample_jet = ConnectionJet.random(scenario.group, scenario.n, rng)
        extra["curvature_sample"] = curvature_map(sample_jet).tolist()
    else:
        n = scenario.chart.dim
        point = _json_vector(args.point, n, "--point") if args.point else scenario.chart.center()
        u1 = _json_vector(args.u1, n, "--u1") if args.u1 else np.eye(n)[0]
        u2 = _json_vector(args.u2, n, "--u2") if args.u2 else np.eye(n)[-1]
        chart = scenario.chart
        if not chart.contains(point):
            raise UsageError(f"--point {point.tolist()} is outside the open chart box with "
                             f"lower {chart.lower.tolist()} and upper {chart.upper.tolist()}")
        y = TotalPoint(point, scenario.group.random_element(rng))
        out = curvature_eval(scenario.omega, y, u1, u2)
        same = curvature_eval(scenario.omega, y, u1, u1)
        records = [
            _record(config, "curvature-two-path", "bracket and covariant-exterior paths agree",
                    scenario.name, [out.gap], 1e-4),
            _record(config, "curvature-antisymmetry", "curvature vanishes on a repeated argument",
                    scenario.name, [float(np.linalg.norm(same.value.coords))], 1e-10),
        ]
        extra.update({
            "point": point.tolist(),
            "bracket_value": out.value.coords.tolist(),
            "exterior_value": out.exterior_value.coords.tolist(),
            "gap": out.gap,
        })
    return _emit(records, config, args, extra_summary=extra)


def _cmd_report(args):
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {args.in_path}: {exc}") from exc
    records = [d for d in lines if "check" in d]
    for r in records:
        for key in ("max_residual", "tolerance"):
            r[key] = _number(r.get(key), f"record {r['check']!r} field {key}", positive=False)
    summaries = [d["summary"] for d in lines if "summary" in d]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(records_to_csv(records))
    failed = [r["check"] for r in records if not r.get("passed")]
    print(f"records: {len(records)}")
    for r in records:
        status = "PASS" if r.get("passed") else "FAIL"
        order = r.get("order_estimate")
        order_txt = f" order={order:.2f}" if order is not None else ""
        print(f"  {status} {r['check']}: max={r['max_residual']:.3e} "
              f"tol={r['tolerance']:.0e}{order_txt}")
    if summaries:
        print(f"summary: {json.dumps(summaries[0], sort_keys=True)}")
    if not records:
        # an empty report shows nothing, so it must not pass
        print("error: no check records", file=sys.stderr)
        return 1
    return 1 if failed else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "transport": _cmd_transport,
        "curvature": _cmd_curvature,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LieBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
