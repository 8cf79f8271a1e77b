"""Named scenario fixtures and their construction from JSON-style configs.

Presets: "principal-so3" (rotation-group torsor with a classical connection
form and a coefficient-form group connection), "affine-constant" /
"affine-varying" (vector-group torsor with linear-plus-offset forms), and
"gauge-jet-so3" / "gauge-jet-abelian" (the semidirect jet-group algebra).

Configs are plain dicts: polynomial coefficient tables keyed by exponent
multi-indices, curve definitions, sample counts, seeds, steps, tolerances.
Everything built here is deterministic given the config.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .bundles import FiberedAction, LieGroupBundle, Tangent, TotalPoint, TotalSpace
from .calculus import AlgebraOneForm, BaseCurve, ChartDomain, Polynomial
from .connections import LieGroupBundleConnection
from .errors import UsageError
from .gauge import EquivariantJetConnection, semidirect_jet_descriptor
from .groups import GroupDescriptor, descriptor_from_json, so3_descriptor, translation_descriptor
from .principal import (
    GeneralizedPrincipalConnection,
    WeightRamp,
    build_canonical_connection,
    build_two_chart_connection,
    constant_weight,
    form_matrix,
    validate_principal_connection,
)

__all__ = [
    "PRESET_NAMES",
    "preset_config",
    "build_scenario",
    "PrincipalScenario",
    "AffineScenario",
    "GaugeJetScenario",
    "principal_equivalence_report",
    "affine_equivalence_report",
    "affine_reconstruction_residual",
]


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------


def _require(ok, field, expected, value):
    if not ok:
        raise UsageError(f"config field {field} must be {expected}, got {value!r}")


def _object(spec, field):
    """``spec`` when it is a JSON object; a usage error naming the field otherwise."""
    _require(isinstance(spec, dict), field, "an object", spec)
    return spec


def _count(value, field, lo=1, hi=None):
    """``value`` when it is an integer in [lo, hi)."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    _require(ok and lo <= value and (hi is None or value < hi), field,
             f"an integer in [{lo}, {hi or 'inf'})", value)
    return value


def _numbers(spec, field, shape=None):
    """``spec`` as a finite float array, of ``shape`` when given (() for a number)."""
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        arr = None
    ok = (not isinstance(spec, (str, bool)) and arr is not None and np.all(np.isfinite(arr))
          and (shape is None or arr.shape == shape))
    _require(ok, field, "a finite number" if shape == () else
             f"finite numbers of shape {shape or '(k,)'}", spec)
    return arr


def _index(key, field):
    """A key such as "1,0" as its tuple of non-negative integers."""
    parts = str(key).split(",")
    _require(all(p.strip().isdigit() for p in parts), field, 'keyed like "1,0"', key)
    return tuple(int(p) for p in parts)


def _poly_table(spec, field):
    """A polynomial coefficient table: exponent keys such as "1,0" to numbers."""
    for key, coeff in _object(spec, field).items():
        _index(key, field)
        _numbers(coeff, f"{field}.{key}", ())
    return spec


def _group_from_config(spec):
    if spec == "so3":
        return so3_descriptor()
    if isinstance(spec, str) and spec.startswith("translation:"):
        size = spec.split(":")[1]
        _require(size.isdigit() and int(size) > 0, "group", '"translation:m" with m > 0', spec)
        return translation_descriptor(int(size))
    if isinstance(spec, dict):
        return descriptor_from_json(spec)
    raise UsageError(f"unknown group spec {spec!r}")


def _chart_from_config(spec):
    _object(spec, "chart")
    return ChartDomain(_numbers(spec["lower"], "chart.lower"),
                       _numbers(spec["upper"], "chart.upper"), spec.get("label", "chart"))


def _one_form_from_config(desc, spec, dim, field):
    """A 1-form from {mu: {k: polynomial table}}: the coefficient of dx^mu (x) E_k."""
    tables = [_object(_object(spec, field).get(str(mu), {}), f"{field}.{mu}")
              for mu in range(dim)]
    for mu, table in enumerate(tables):
        for k, poly in table.items():
            _poly_table(poly, f"{field}.{mu}.{k}")
    return AlgebraOneForm.from_polynomials(desc, tables, dim)


def _curve_from_config(spec, label, n):
    field = f"curves.{label}"
    _object(spec, field)
    kind = spec.get("kind", "line")
    interval = tuple(float(v) for v in _numbers(spec.get("interval", (0.0, 1.0)),
                                                f"{field}.interval", (2,)))

    def point(key):
        return _numbers(spec[key], f"{field}.{key}", (n,))

    if kind == "line":
        return BaseCurve.line(point("start"), point("end"), interval, label=label)
    if kind == "wiggle":
        return BaseCurve.wiggle(point("start"), point("end"), point("amplitudes"), interval,
                                label=label)
    if kind == "loop":
        axes = spec.get("axes", [0, 1])
        _require(isinstance(axes, (list, tuple)) and len(axes) == 2, f"{field}.axes",
                 "a pair of axes", axes)
        radius = float(_numbers(spec["radius"], f"{field}.radius", ()))
        return BaseCurve.loop(point("center"), radius, interval,
                              axes=tuple(_count(i, f"{field}.axes", 0, n) for i in axes),
                              label=label)
    raise UsageError(f"unknown curve kind {kind!r}")


def _curves_from_config(config, n):
    curves = _object(config.get("curves", {}), "curves")
    return {k: _curve_from_config(v, k, n) for k, v in curves.items()}


RANDOM_CURVE_INTERVAL = (0.0, 0.4)


def random_wiggle(chart: ChartDomain, rng):
    """Start, end and amplitudes of a random wiggle in the chart's inner half."""
    lo = chart.lower + 0.25 * (chart.upper - chart.lower)
    hi = chart.upper - 0.25 * (chart.upper - chart.lower)
    start = lo + (hi - lo) * rng.uniform(0.0, 1.0, chart.dim)
    end = lo + (hi - lo) * rng.uniform(0.0, 1.0, chart.dim)
    amps = 0.08 * rng.uniform(-1.0, 1.0, chart.dim)
    return start, end, amps


def random_curve(chart: ChartDomain, rng, interval=RANDOM_CURVE_INTERVAL):
    """Smooth random curve staying inside the chart."""
    return BaseCurve.wiggle(*random_wiggle(chart, rng), interval, label="random")


# ---------------------------------------------------------------------------
# principal scenario
# ---------------------------------------------------------------------------


@dataclass
class PrincipalScenario:
    name: str
    config: dict
    group: GroupDescriptor
    chart: ChartDomain
    action: FiberedAction
    base_form: AlgebraOneForm          # classical connection coefficient form
    nu_form: AlgebraOneForm            # coefficient form of the group connection
    nu: LieGroupBundleConnection       # coefficient-form group connection
    nu0: LieGroupBundleConnection      # trivial group connection
    omega: GeneralizedPrincipalConnection        # classical form over nu0
    omega_canonical: GeneralizedPrincipalConnection
    omega_glued: GeneralizedPrincipalConnection
    nu_glued: LieGroupBundleConnection
    curves: Dict[str, BaseCurve]
    kind: str = "principal"


def _build_principal(config) -> PrincipalScenario:
    group = _group_from_config(config["group"])
    chart = _chart_from_config(config["chart"])
    action = FiberedAction(TotalSpace(chart, chart, group), LieGroupBundle(chart, group))
    base_form = _one_form_from_config(group, config["base_form"], chart.dim, "base_form")
    nu_form = _one_form_from_config(group, config["nu_form"], chart.dim, "nu_form")
    nu = LieGroupBundleConnection.from_base_form(action.bundle, nu_form)
    omega, nu0 = build_canonical_connection(action, base_form=base_form)
    omega_canonical, _ = build_canonical_connection(action)
    glue = _object(config["two_chart"], "two_chart")
    lo, hi = _numbers(glue["ramp"], "two_chart.ramp", (2,))
    omega_glued, nu_glued = build_two_chart_connection(
        action,
        sigma_gen=group.algebra(_numbers(glue["sigma_gen"], "two_chart.sigma_gen", (group.dim,))),
        p=Polynomial(_poly_table(glue["sigma_poly"], "two_chart.sigma_poly"), chart.dim),
        tau_gen=group.algebra(_numbers(glue["tau_gen"], "two_chart.tau_gen", (group.dim,))),
        r=Polynomial(_poly_table(glue["tau_poly"], "two_chart.tau_poly"), chart.dim),
        ramp=WeightRamp(lo, hi, axis=_count(glue.get("ramp_axis", 0), "two_chart.ramp_axis",
                                            0, chart.dim)),
    )
    curves = _curves_from_config(config, chart.dim)
    return PrincipalScenario(
        name=config["name"], config=config, group=group, chart=chart, action=action,
        base_form=base_form, nu_form=nu_form, nu=nu, nu0=nu0, omega=omega,
        omega_canonical=omega_canonical, omega_glued=omega_glued, nu_glued=nu_glued,
        curves=curves,
    )


def classical_form_value(scenario, x, g, u, delta_right, drop_ad=False):
    """Connection coefficient form on the trivialized torsor in classical
    presentation: adjoint-twisted base form plus the left Maurer-Cartan term."""
    desc = scenario.group
    left = desc.Ad_matrix(g.inverse()) @ delta_right.coords
    base = scenario.base_form(x, u).coords
    if not drop_ad:
        base = desc.Ad_matrix(g.inverse()) @ base
    return desc.algebra(base + left)


def principal_equivalence_report(scenario, rng, samples=100, drop_ad=False):
    """Both directions of the classical equivalence on samples.

    (a) the classical axioms of the coefficient form: verticals are reproduced
    and right translation acts by the inverse adjoint; (b) the induced
    generalized form satisfies complementarity/equivariance against the
    trivial group connection.
    """
    desc = scenario.group
    chart = scenario.chart
    vert_worst = 0.0
    requiv_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        g = desc.random_element(rng)
        xi = desc.random_algebra(rng)
        # right-action generator at g has left-trivialized value xi
        delta = desc.algebra(desc.Ad_matrix(g) @ xi.coords)
        got = classical_form_value(scenario, x, g, np.zeros(chart.dim), delta, drop_ad)
        vert_worst = max(vert_worst, float(np.linalg.norm(got.coords - xi.coords)))

        h = desc.random_element(rng)
        u = rng.standard_normal(chart.dim)
        dv = desc.random_algebra(rng)
        lhs = classical_form_value(scenario, x, g @ h, u, dv, drop_ad).coords
        rhs = desc.Ad_matrix(h.inverse()) @ classical_form_value(scenario, x, g, u, dv, drop_ad).coords
        requiv_worst = max(requiv_worst, float(np.linalg.norm(lhs - rhs)))

    if drop_ad:
        broken = GeneralizedPrincipalConnection(
            scenario.action,
            scenario.nu0,
            [(constant_weight(1.0),
              lambda y: form_matrix(scenario.base_form.coefficient_array(y.q).T,
                                    desc.Ad_matrix(y.fiber.inverse())))],
            label="broken",
        )
        induced = validate_principal_connection(broken, rng, samples=samples)
    else:
        induced = validate_principal_connection(scenario.omega, rng, samples=samples)
    return {
        "classical_vertical": vert_worst,
        "classical_right_equivariance": requiv_worst,
        "induced_complementarity": induced["complementarity"],
        "induced_ad_equivariance": induced["ad_equivariance"],
    }


# ---------------------------------------------------------------------------
# affine scenario
# ---------------------------------------------------------------------------


@dataclass
class AffineScenario:
    name: str
    config: dict
    fiber_dim: int
    group: GroupDescriptor
    chart: ChartDomain
    action: FiberedAction
    nu_coeff: Callable[[np.ndarray], np.ndarray]    # (n, m, m)
    gamma: Callable[[np.ndarray], np.ndarray]       # (n, m)
    nu: LieGroupBundleConnection
    omega: GeneralizedPrincipalConnection
    curves: Dict[str, BaseCurve]
    kind: str = "affine"

    def fiber_point(self, x, v):
        return TotalPoint(np.asarray(x, float), self.group.exp(self.group.algebra(v)))

    def fiber_coords(self, y: TotalPoint):
        return self.group.log(y.fiber).coords


def _table_fn(spec, n, shape, field):
    """Coefficient function x -> array of ``shape`` from a config spec: absent
    (zero), ``constant`` (a fixed array) or ``polynomials`` (one table per
    comma-separated index)."""
    if spec is None:
        return lambda x: np.zeros(shape)
    if "constant" in _object(spec, field):
        arr = _numbers(spec["constant"], f"{field}.constant", shape)
        return lambda x: arr
    field = f"{field}.polynomials"
    entries = {_index(key, field): _poly_table(table, f"{field}.{key}")
               for key, table in _object(spec["polynomials"], field).items()}
    return Polynomial.array(entries, n, shape)


def _build_affine(config) -> AffineScenario:
    m = _count(config["fiber_dim"], "fiber_dim")
    group = translation_descriptor(m)
    chart = _chart_from_config(config["chart"])
    n = chart.dim
    action = FiberedAction(TotalSpace(chart, chart, group), LieGroupBundle(chart, group))
    nu_coeff = _table_fn(config["nu_coeff"], n, (n, m, m), "nu_coeff")
    gamma = _table_fn(config["gamma"], n, (n, m), "gamma")

    def lift_map(x, u):
        k = np.einsum("...n,...nij->...ij", u, nu_coeff(x))
        return lambda fibers: -(k @ group.log_coords(fibers)[..., None])[..., 0]

    nu = LieGroupBundleConnection(action.bundle, lift_map)

    def local_form(y):
        v = group.log_coords(y.fiber.matrix)
        linear = (nu_coeff(y.q) @ v[..., None, :, None])[..., 0] + gamma(y.q)
        return form_matrix(np.swapaxes(linear, -1, -2), np.eye(m))

    omega = GeneralizedPrincipalConnection(
        action, nu, [(constant_weight(1.0), local_form)], label="affine"
    )
    curves = _curves_from_config(config, n)
    return AffineScenario(
        name=config["name"], config=config, fiber_dim=m, group=group, chart=chart,
        action=action, nu_coeff=nu_coeff, gamma=gamma, nu=nu, omega=omega, curves=curves,
    )


def affine_equivalence_report(scenario: AffineScenario, rng, samples=100):
    """Shifted-point equivariance of the affine form: the abelian form of the
    defining equivariance."""
    group = scenario.group
    chart = scenario.chart
    m = scenario.fiber_dim
    shift_worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        yv = rng.uniform(-1, 1, m)
        w = rng.uniform(-1, 1, m)
        u = rng.standard_normal(chart.dim)
        dy = group.random_algebra(rng)
        y = scenario.fiber_point(x, yv)
        y_shift = scenario.fiber_point(x, yv + w)
        lhs = scenario.omega.value(y_shift, Tangent(u, dy)).coords
        k = np.tensordot(u, scenario.nu_coeff(x), axes=(0, 0))
        rhs = scenario.omega.value(y, Tangent(u, dy)).coords + k @ w
        shift_worst = max(shift_worst, float(np.linalg.norm(lhs - rhs)))
    return {"shift_equivariance": shift_worst}


def affine_reconstruction_residual(scenario: AffineScenario, omega_fn, rng, samples=50) -> float:
    """Fit the offset coefficients from the form at the zero section and verify
    the linear-plus-offset expression reconstructs the form exactly."""
    group = scenario.group
    chart = scenario.chart
    m = scenario.fiber_dim
    n = chart.dim
    worst = 0.0
    for _ in range(samples):
        x = chart.sample(rng)
        origin = scenario.fiber_point(x, np.zeros(m))
        gamma_fit = np.vstack([
            omega_fn(origin, Tangent(e, group.zero())).coords for e in np.eye(n)
        ])
        yv = rng.uniform(-1, 1, m)
        y = scenario.fiber_point(x, yv)
        linear_fit = np.stack([
            omega_fn(y, Tangent(e, group.zero())).coords - gamma_fit[mu]
            for mu, e in enumerate(np.eye(n))
        ])
        u = rng.standard_normal(n)
        dy = group.random_algebra(rng)
        recon = u @ gamma_fit + np.tensordot(u, linear_fit, axes=(0, 0)) + dy.coords
        got = omega_fn(y, Tangent(u, dy)).coords
        worst = max(worst, float(np.linalg.norm(recon - got)))
    return worst


# ---------------------------------------------------------------------------
# gauge jet scenario
# ---------------------------------------------------------------------------


@dataclass
class GaugeJetScenario:
    name: str
    config: dict
    group: GroupDescriptor
    n: int
    jet_descriptor: GroupDescriptor
    f_section: Callable[[np.ndarray], np.ndarray]
    g_section: Callable[[np.ndarray], np.ndarray]
    omega_hat: EquivariantJetConnection
    kind: str = "gauge"


def _build_gauge(config) -> GaugeJetScenario:
    group = _group_from_config(config["group"])
    n = _count(config["n"], "n")
    jet_desc = semidirect_jet_descriptor(group, n)
    f_fn = _table_fn(config.get("f_section"), n, (n, group.dim), "f_section")
    g_fn = _table_fn(config.get("g_section"), n, (n, n, group.dim), "g_section")
    omega_hat = EquivariantJetConnection(group, n, f=f_fn, g2=g_fn)
    return GaugeJetScenario(
        name=config["name"], config=config, group=group, n=n, jet_descriptor=jet_desc,
        f_section=f_fn, g_section=g_fn, omega_hat=omega_hat,
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _principal_so3_config():
    return {
        "name": "principal-so3",
        "kind": "principal",
        "group": "so3",
        "chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "base_form": {
            "0": {"0": {"0,0": 0.3}, "2": {"0,1": 0.8, "0,0": 0.4}},
            "1": {"1": {"1,0": 0.7}, "2": {"0,0": -0.2}},
        },
        "nu_form": {
            "0": {"0": {"0,0": 0.4}, "2": {"1,0": 0.8, "0,0": 0.3}},
            "1": {"1": {"0,1": 0.6}, "2": {"0,0": -0.2}},
        },
        "two_chart": {
            "sigma_gen": [0.0, 1.0, 0.0],
            "sigma_poly": {"1,0": 0.8, "0,1": 0.3},
            "tau_gen": [1.0, 0.0, 0.0],
            "tau_poly": {"0,1": 0.6, "1,1": 0.4},
            "ramp": [-0.2, 0.2],
            "ramp_axis": 0,
        },
        "curves": {
            "main": {"kind": "wiggle", "start": [-0.55, -0.4], "end": [0.55, 0.45],
                      "amplitudes": [0.05, -0.07], "interval": [0.0, 0.4]},
            "line": {"kind": "line", "start": [-0.6, -0.4], "end": [0.6, 0.5],
                      "interval": [0.0, 0.4]},
            "loop": {"kind": "loop", "center": [0.0, 0.0], "radius": 0.45,
                      "interval": [0.0, 1.0]},
        },
        "seed": 0,
        "step": 5e-3,
        "samples": 100,
    }


def _affine_config(name, constant):
    cfg = {
        "name": name,
        "kind": "affine",
        "group": "translation:2",
        "fiber_dim": 2,
        "chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "curves": {
            "main": {"kind": "line", "start": [-0.5, -0.3], "end": [0.5, 0.4],
                      "interval": [0.0, 1.0]},
        },
        "seed": 0,
        "step": 5e-3,
        "samples": 100,
    }
    if constant:
        # commuting (diagonal) coefficient matrices keep the linear connection flat
        cfg["nu_coeff"] = {"constant": [[[0.5, 0.0], [0.0, -0.3]],
                                         [[0.2, 0.0], [0.0, 0.4]]]}
        cfg["gamma"] = {"constant": [[0.3, -0.1], [0.2, 0.5]]}
    else:
        cfg["nu_coeff"] = {"polynomials": {
            "0,0,0": {"0,0": 0.5, "1,0": 0.3},
            "0,0,1": {"0,1": 0.4},
            "0,1,1": {"0,0": -0.3},
            "1,0,0": {"0,0": 0.2},
            "1,1,0": {"1,1": 0.6},
            "1,1,1": {"0,0": 0.4, "1,0": -0.2},
        }}
        cfg["gamma"] = {"polynomials": {
            "0,0": {"0,0": 0.3, "2,0": 0.5},
            "0,1": {"1,0": -0.4},
            "1,0": {"0,1": 0.7},
            "1,1": {"0,0": 0.5, "0,2": 0.2},
        }}
    return cfg


def _gauge_config(name, group):
    d = 3 if group == "so3" else 2
    return {
        "name": name,
        "kind": "gauge",
        "group": group,
        "n": 2,
        "f_section": {"polynomials": {
            "0,0": {"0,0": 0.3, "1,0": 0.5},
            "0,1": {"0,1": -0.4},
            f"1,{d - 1}": {"0,0": 0.25},
        }},
        "g_section": {"polynomials": {
            "0,1,0": {"0,0": 0.4},
            "1,0,0": {"1,0": -0.3},
            f"1,1,{d - 1}": {"0,0": 0.2},
        }},
        "seed": 0,
        "samples": 1000,
    }


_PRESET_BUILDERS = {
    "principal-so3": _principal_so3_config,
    "affine-constant": lambda: _affine_config("affine-constant", constant=True),
    "affine-varying": lambda: _affine_config("affine-varying", constant=False),
    "gauge-jet-so3": lambda: _gauge_config("gauge-jet-so3", "so3"),
    "gauge-jet-abelian": lambda: _gauge_config("gauge-jet-abelian", "translation:2"),
}

PRESET_NAMES = tuple(sorted(_PRESET_BUILDERS))


def preset_config(name) -> dict:
    if name not in _PRESET_BUILDERS:
        raise UsageError(f"unknown scenario preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESET_BUILDERS[name]()


def build_scenario(config):
    """Build a scenario object from a config dict or a preset name."""
    if isinstance(config, str):
        config = preset_config(config)
    config = copy.deepcopy(config)
    kind = config.get("kind")
    builders = {"principal": _build_principal, "affine": _build_affine, "gauge": _build_gauge}
    if kind not in builders:
        raise UsageError(f"config must declare kind principal|affine|gauge, got {kind!r}")
    try:
        return builders[kind](config)
    except KeyError as exc:
        raise UsageError(f"config is missing field {exc.args[0]!r}") from None
