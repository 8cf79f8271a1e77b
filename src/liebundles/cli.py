"""Command-line front end: validate | transport | curvature | report.

Reports are JSON-lines: one record per check (sorted by check id), then a
summary object, then optional environment metadata (suppressed by --no-meta
so runs are byte-reproducible).  `suites.record` judges every record, the
`transport` and `curvature` commands' own too, by the contract of its check.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .bundles import TotalPoint
from .connections import transport_group, transport_multiplicativity_check
from .errors import LieBundleError, UsageError, prefixed
from .gauge import ConnectionJet, curvature_map
from .groups import _norm
from .principal import curvature as curvature_eval
from .principal import transport_compatibility_check, transport_total
from .reporting import read_report, records_to_csv, render_jsonl, summary_dict, write_report
from .scenarios import PRESET_NAMES, build_scenario, preset_config
from .suites import check_tolerances, record, run_suite

__all__ = ["main", "build_parser"]


@functools.cache  # one parser per process: parse_args fills a fresh namespace each call
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
        config = {**preset_config(name), **{k: v for k, v in config.items() if k != "scenario"}}
    if not config:
        raise UsageError("provide --scenario or --config")
    for key in ("seed", "step", "samples"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return config


def _scenario(args):
    """The scenario of the command line, its tolerance keys checked."""
    scenario = build_scenario(_load_config(args))
    check_tolerances(scenario)
    return scenario


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


def _emit(records, scenario, args, extra_summary=None):
    config = scenario.config
    summary = summary_dict(records, scenario.name, config["seed"], config["step"])
    if extra_summary:
        summary["summary"].update(extra_summary)
    text = render_jsonl(records, summary, meta=_meta(args))
    write_report(text, args.out)
    return 0 if all(r.passed for r in records) else 1


def _cmd_validate(args):
    scenario = _scenario(args)
    only = None if args.checks is None else args.checks.split(",")
    return _emit(run_suite(scenario, only=only), scenario, args)


def _cmd_transport(args):
    scenario = _scenario(args)
    if scenario.kind == "gauge":
        raise UsageError("transport applies to principal/affine scenarios; "
                         "use `validate` for gauge presets")
    if args.curve not in scenario.curves:
        raise UsageError(f"curve {args.curve!r} not defined; have {sorted(scenario.curves)}")
    curve = scenario.curves[args.curve]
    step = scenario.config["step"]
    rng = np.random.default_rng([scenario.config["seed"], 1000])
    group = scenario.group
    coords = (_json_vector(args.fiber, group.dim, "--fiber") if args.fiber
              else group.random_coords(rng))
    if _norm(coords) > group.injectivity_radius:  # the summary logs the fibers it reports
        raise UsageError(f"--fiber {coords.tolist()} lies outside the injectivity radius "
                         f"{group.injectivity_radius:.3f} of {group.name}")
    g0 = group.exp(group.algebra(coords))

    with prefixed("nu transport"):
        nu_result = transport_group(scenario.nu, curve, g0, step=step, with_error_estimate=True)
    partner = group.random_element(rng)
    with prefixed("transport-multiplicative"):
        mult_res = transport_multiplicativity_check(scenario.nu, curve, g0, partner, step=step)
    omega = scenario.transport_form
    y0 = TotalPoint(np.asarray(curve.position(curve.a), float), g0)
    with prefixed("total transport"):
        end, total_result = transport_total(omega, curve, y0, step=step, with_error_estimate=True)
    with prefixed("transport-compatibility"):
        compat = transport_compatibility_check(omega, curve, y0, partner, step=step)

    records = [
        record(scenario, "transport-endpoint-membership",
               [nu_result.membership_residual, total_result.membership_residual]),
        record(scenario, "transport-error-estimate",
               [nu_result.error_estimate, total_result.error_estimate]),
        record(scenario, "transport-multiplicative", [mult_res]),
        record(scenario, "transport-compatibility", [compat]),
    ]
    extra = {
        "curve": args.curve,
        "initial_fiber": coords.tolist(),
        "endpoint_fiber": group.log(nu_result.element).coords.tolist(),
        "total_endpoint_fiber": scenario.group.log(end.fiber).coords.tolist(),
        "steps": nu_result.steps,
    }
    return _emit(records, scenario, args, extra_summary=extra)


def _cmd_curvature(args):
    scenario = _scenario(args)
    rng = np.random.default_rng([scenario.config["seed"], 2000])
    extra = {}
    if scenario.kind == "gauge":
        given = [f"--{k}" for k in ("point", "u1", "u2") if getattr(args, k) is not None]
        if given:
            raise UsageError("curvature on a gauge preset draws its own jets; "
                             f"it takes no {', '.join(given)}")
        records = run_suite(scenario, only=["curvature-map-invariance"])
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
        fibers = np.stack([scenario.group.random_element(rng).matrix] * 2)
        y = TotalPoint(np.stack([point] * 2), scenario.group.element(fibers, check=False))
        # one stack: row 0 at (u1, u2), row 1 at (u1, u1)
        out = curvature_eval(scenario.omega, y, np.stack([u1, u1]), np.stack([u2, u1]))
        records = [record(scenario, "curvature-two-path", [out.gap[0]]),
                   record(scenario, "curvature-antisymmetry", [float(_norm(out.value.coords[1]))])]
        extra.update(point=point.tolist(), bracket_value=out.value.coords[0].tolist(),
                     exterior_value=out.exterior_value.coords[0].tolist(), gap=out.gap[0])
    return _emit(records, scenario, args, extra_summary=extra)


def _cmd_report(args):
    records, summary = read_report(args.in_path)
    if args.csv:
        write_report(records_to_csv(records), args.csv)
    print(f"records: {len(records)}")
    for r in records:
        order = "" if r.get("order_estimate") is None else f" order={r['order_estimate']:.2f}"
        tol = np.format_float_scientific(r["tolerance"], trim="-", exp_digits=2)
        print(f"  {'PASS' if r['passed'] else 'FAIL'} {r['check']}: max={r['max_residual']:.3e} "
              f"tol={tol}{order}")
    if summary is not None:
        print(f"summary: {json.dumps(summary, sort_keys=True)}")
    if not records:
        # an empty report shows nothing, so it must not pass
        print("error: no check records", file=sys.stderr)
        return 1
    return 0 if all(r["passed"] for r in records) else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
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
