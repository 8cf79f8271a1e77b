"""Per-layer metric names and their values from one traced pass.

Each layer is a package module.  Span names are `<layer>.<fn>`; a metric is
`<span>.calls`, `<span>.s` (inclusive seconds) or `<span>.self_s`.  A few
derived metrics follow the spans.  The set of names is fixed, so every
workload reports all of them (0 where a layer or check does not run).
"""

from __future__ import annotations

CALLS, SECONDS, SELF = "calls", "s", "self_s"
_CS = (CALLS, SECONDS)

SPAN_FIELDS = {
    "integrators.integrate_on_group": (CALLS, SECONDS, SELF),
    "integrators.rhs": _CS,
    "integrators.integrate_linear": _CS,
    **{f"groups.{fn}": _CS for fn in (
        "exp", "log", "Ad", "Ad_matrix", "retract", "membership_residual", "bracket",
        "bracket_coords", "exp_hook", "log_hook", "ad_matrix_hook")},
    **{f"connections.{fn}": _CS for fn in (
        "transport_group", "horizontal_delta", "algebra_transport", "generator")},
    "principal.transport_total": _CS,
    "principal.horizontal_lift": (CALLS, SECONDS, SELF),
    "principal.vertical_operator": _CS,
    "principal.value": _CS,
    "principal.curvature": _CS,
    **{f"calculus.{fn}": _CS for fn in ("polynomial", "coefficient_array", "fd", "curve")},
    **{f"bundles.{fn}": _CS for fn in ("act", "generator", "differential")},
    **{f"gauge.{fn}": _CS for fn in (
        "jet_mul", "curvature_map", "apply_gauge_second_jet", "jet_random")},
    "scenarios.build_scenario": (SECONDS,),
    "scenarios.random_curve": (CALLS,),
    "reporting.make_record": (CALLS,),
    "reporting.render_jsonl": (SECONDS,),
    "cli.main": (SECONDS,),
}

_UNITS = {CALLS: "count", SECONDS: "s", SELF: "s"}

DERIVED = [
    ("integrators.steps", "count", "lower"),
    ("integrators.us_per_step", "us", "lower"),
    ("principal.value_calls_per_lift", "ratio", "lower"),
    ("reporting.digest_match", "flag", "higher"),
    ("suites.worst_tol_ratio", "ratio", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
]


def check_metric(check_id):
    return f"suites.check.{check_id}.s"


def metric_specs(check_ids):
    """[(name, unit, better)] for every per-layer metric, in report order."""
    specs = [(f"{span}.{f}", _UNITS[f], "lower")
             for span, fields in SPAN_FIELDS.items() for f in fields]
    specs += DERIVED
    specs += [(check_metric(c), "s", "lower") for c in sorted(check_ids)]
    return specs


def layer_values(totals, steps, check_seconds, derived):
    """Metric name -> value.

    ``totals`` maps span name -> (calls, inclusive s, self s); ``steps`` is
    the RKMK step count; ``check_seconds`` maps check id -> seconds;
    ``derived`` supplies digest_match, worst_tol_ratio, overhead_frac and
    spans.
    """
    values = {}
    for span, fields in SPAN_FIELDS.items():
        calls, incl, own = totals.get(span, (0, 0.0, 0.0))
        field_value = {CALLS: calls, SECONDS: incl, SELF: own}
        for f in fields:
            values[f"{span}.{f}"] = field_value[f]
    integrate_s = totals.get("integrators.integrate_on_group", (0, 0.0, 0.0))[1]
    lifts = totals.get("principal.horizontal_lift", (0, 0.0, 0.0))[0]
    value_calls = totals.get("principal.value", (0, 0.0, 0.0))[0]
    values["integrators.steps"] = steps
    values["integrators.us_per_step"] = 1e6 * integrate_s / steps if steps else 0.0
    values["principal.value_calls_per_lift"] = value_calls / lifts if lifts else 0.0
    for key in ("reporting.digest_match", "suites.worst_tol_ratio", "trace.overhead_frac",
                "trace.spans"):
        values[key] = derived[key]
    for check, seconds in check_seconds.items():
        values[check_metric(check)] = seconds
    return values
