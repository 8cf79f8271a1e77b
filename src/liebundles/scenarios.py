"""Named scenario fixtures and their construction from JSON-style configs.

Presets: "principal-so3" (rotation-group torsor with a classical connection
form and a coefficient-form group connection), "affine-constant" /
"affine-varying" (vector-group torsor with linear-plus-offset forms), and
"gauge-jet-so3" / "gauge-jet-abelian" (the semidirect jet-group algebra).

Configs are plain dicts: polynomial coefficient tables keyed by exponent
multi-indices, curve definitions, sample counts, seeds, steps, tolerances and
the group (a name, or a JSON descriptor document read by `descriptor_from_json`).
Everything built here is deterministic given the config.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .bundles import FiberedAction, TotalPoint
from .calculus import (AlgebraOneForm, BaseCurve, ChartDomain, FiberMap, Normal, Polynomial,
                       Uniform, sample_rows)
from .connections import LieGroupBundleConnection
from .errors import DescriptorError, DomainError, UsageError
from .gauge import EquivariantJetConnection, semidirect_jet_descriptor
from .groups import (GroupDescriptor, _norm, _orthogonal_retract, _translation_retract,
                     derive_structure_constants, so3_descriptor, translation_descriptor)
from .integrators import integrate_linear
from .principal import (
    GeneralizedPrincipalConnection,
    WeightRamp,
    _values,
    build_canonical_connection,
    build_two_chart_connection,
    form_matrix,
    validate_principal_connection,
)

__all__ = [
    "PRESET_NAMES",
    "preset_config",
    "build_scenario",
    "descriptor_from_json",
    "TorsorScenario",
    "GaugeJetScenario",
    "principal_equivalence_report",
    "affine_equivalence_report",
    "affine_transport_flow",
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


def _numbers(spec, field, shape=None, nested=False):
    """``spec`` as a finite float array, of ``shape`` when given (() for a number);
    ``nested`` reshapes any nesting of the right number of entries to ``shape``."""
    try:
        arr = np.asarray(spec, dtype=float)
        arr = arr.reshape(shape) if nested else arr
    except (TypeError, ValueError):
        arr = None
    ok = (not isinstance(spec, (str, bool)) and arr is not None and np.all(np.isfinite(arr))
          and (shape is None or arr.shape == shape))
    _require(ok, field, "a finite number" if shape == () else
             f"finite numbers of shape {shape or '(k,)'}", spec)
    return arr


def _positive(spec, field):
    """``spec`` as a float when it is a finite number above zero."""
    _require(_numbers(spec, field, ()) > 0, field, "a positive number", spec)
    return float(spec)


def _run_settings(config):
    """Check the seed, samples, step and tolerances a config may carry and
    fill in the defaults of the first three, the one place they are set."""
    config["seed"] = int(_count(config.get("seed", 0), "seed", 0))
    config["samples"] = int(_count(config.get("samples", 100), "samples"))
    config["step"] = _positive(config.get("step", 5e-3), "step")
    for name, tol in _object(config.get("tolerances", {}), "tolerances").items():
        _positive(tol, f"tolerances.{name}")


def _index(key, field):
    """A key such as "1,0" as its tuple of non-negative integers."""
    parts = str(key).split(",")
    _require(all(p.strip().isdigit() for p in parts), field, 'keyed like "1,0"', key)
    return tuple(int(p) for p in parts)


def _poly_table(spec, field, dim):
    """A polynomial coefficient table on a chart of dimension ``dim``: keys of
    ``dim`` exponents such as "1,0" to numbers."""
    for key, coeff in _object(spec, field).items():
        _require(len(_index(key, field)) == dim, field, f"keyed by {dim} exponents", key)
        _numbers(coeff, f"{field}.{key}", ())
    return spec


_RETRACTIONS = {"orthogonal": _orthogonal_retract, "translation": _translation_retract,
                "generic": None}


def descriptor_from_json(doc):
    """The `GroupDescriptor` of a parsed JSON descriptor document, a dict (its
    fields are listed in the README).  A basis element or the structure
    constants may nest their entries any way."""
    _object(doc, "group")
    name = doc.get("name")
    _require(isinstance(name, str), "group.name", "a string", name)
    raw = doc.get("basis")
    _require(isinstance(raw, list) and len(raw) > 0, "group.basis", "a non-empty list", raw)
    m = round((size := _numbers(raw[0], "group.basis").size) ** 0.5)  # the basis fixes m
    _require(m * m == size > 0, "group.basis", "square matrices, m² numbers each", raw[0])
    basis = np.stack([_numbers(b, "group.basis", (m, m), nested=True) for b in raw])
    family = doc.get("family", "generic")
    _require(isinstance(family, str) and family in _RETRACTIONS, "group.family",
             "orthogonal, translation or generic", family)
    retraction = _RETRACTIONS[family]
    tol = _positive(doc.get("membership_tol", 1e-8), "group.membership_tol")
    if retraction is not None:  # the family's own measure judges exp of each basis element
        import scipy.linalg
        off = retraction(scipy.linalg.expm(basis), True)[1].max()
        _require(off <= tol, "group.family",  # NaN fails too
                 f"a family the basis fits (exp of a basis element is {off:.3e} off the group)",
                 family)
    c = doc.get("structure_constants")
    c = derive_structure_constants(basis) if c is None else _numbers(
        c, "group.structure_constants", (len(basis),) * 3, nested=True)
    radius = doc.get("injectivity_radius")
    if radius is None:
        radius = np.pi - 0.1 if family == "orthogonal" else np.inf
    elif radius != np.inf:  # the one non-finite radius allowed
        radius = _positive(radius, "group.injectivity_radius")
    desc = GroupDescriptor(name=name, basis=basis, structure_constants=c, membership_tol=tol,
                           injectivity_radius=radius, retraction=retraction)
    report = desc.validate()
    if not all(v <= 1e-12 for v in report.values()):  # NaN fails too
        raise DescriptorError(f"{name}: structure constant check failed ("
                              + ", ".join(f"{k} {v:.2e}" for k, v in report.items()) + ")")
    return desc


def _group_from_config(spec):
    if spec == "so3":
        return so3_descriptor()
    if isinstance(spec, dict):
        return descriptor_from_json(spec)
    size = spec.partition(":")[2] if str(spec).startswith("translation:") else ""
    _require(size.isdecimal() and int(size) > 0, "group",
             '"so3", "translation:m" with m > 0 or a descriptor object', spec)
    return translation_descriptor(int(size))


def _chart_from_config(spec):
    _object(spec, "chart")
    return ChartDomain(_numbers(spec["lower"], "chart.lower"),
                       _numbers(spec["upper"], "chart.upper"), spec.get("label", "chart"))


def _one_form_from_config(desc, spec, dim, field):
    """A 1-form from {mu: {k: polynomial table}}: the coefficient of dx^mu (x) E_k."""
    entries = {}
    for mu, table in _object(spec, field).items():
        for k, poly in _object(table, f"{field}.{mu}").items():
            where = f"{field}.{mu}.{k}"
            ok = all(i.isdecimal() and int(i) < size for i, size in ((mu, dim), (k, desc.dim)))
            _require(ok, where, f"at a chart index below {dim} and an algebra index below "
                     f"{desc.dim}", f"{mu}.{k}")
            entries[int(mu), int(k)] = _poly_table(poly, where, dim)
    return AlgebraOneForm(desc, Polynomial.array(entries, dim, (dim, desc.dim)))


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
        i, j = (_count(k, f"{field}.axes", 0, n) for k in axes)
        _require(i != j, f"{field}.axes", "a pair of different axes", axes)
        radius = float(_numbers(spec["radius"], f"{field}.radius", ()))
        return BaseCurve.loop(point("center"), radius, interval, axes=(i, j), label=label)
    raise UsageError(f"unknown curve kind {kind!r}")


def _curves_from_config(config, chart):
    """The config's named curves, each checked to stay inside the chart."""
    curves = _object(config.get("curves", {}), "curves")
    curves = {k: _curve_from_config(v, k, chart.dim) for k, v in curves.items()}
    for label, curve in curves.items():
        try:
            curve.validate(chart)
        except DomainError as exc:
            raise UsageError(f"config field curves.{label} must be a curve in the chart: "
                             f"{exc}") from None
    return curves


RANDOM_CURVE_INTERVAL = (0.0, 0.4)


def random_wiggles(chart: ChartDomain, rng, count, *fields):
    """Start, end and amplitudes of ``count`` random wiggles in the chart's inner
    half, each followed by a row of ``fields``, from one `sample_rows` call."""
    lo = chart.lower + 0.25 * (chart.upper - chart.lower)
    hi = chart.upper - 0.25 * (chart.upper - chart.lower)
    ends, amps = Uniform((chart.dim,), 0.0, 1.0), Uniform((chart.dim,))
    start, end, amp, *draws = sample_rows(rng, count, ends, ends, amps, *fields)
    return (lo + (hi - lo) * start, lo + (hi - lo) * end, 0.08 * amp, *draws)


def random_wiggle(chart: ChartDomain, rng):
    """Start, end and amplitudes of one random wiggle in the chart's inner half."""
    return tuple(part[0] for part in random_wiggles(chart, rng, 1))


def random_curve(chart: ChartDomain, rng, interval=RANDOM_CURVE_INTERVAL):
    """Smooth random curve staying inside the chart."""
    return BaseCurve.wiggle(*random_wiggle(chart, rng), interval, label="random")


# ---------------------------------------------------------------------------
# torsor scenarios
# ---------------------------------------------------------------------------


@dataclass
class TorsorScenario:
    """A torsor of a Lie group bundle with the forms and group connections its
    checks sample.  Principal and affine scenarios differ only in what their
    builders fill in; ``kind`` chooses which rows of the check table run."""

    name: str
    config: dict
    kind: str                          # "principal" or "affine"
    group: GroupDescriptor
    chart: ChartDomain
    action: FiberedAction
    nu: LieGroupBundleConnection       # group connection of the group transport checks
    # the curvature form: it sits over a flat group connection, which
    # representative independence needs; on principal scenarios it is the
    # classical-family form, curved across the whole chart (the glued form is
    # flat outside the weight ramp)
    omega: GeneralizedPrincipalConnection
    transport_form: GeneralizedPrincipalConnection  # form of the total transport checks
    forms: Dict[str, GeneralizedPrincipalConnection]  # forms the form-law checks sample
    nus: Dict[str, LieGroupBundleConnection]  # group connections the cocycle laws sample
    # the two connections over one nu whose difference is checked tensorial
    difference_pair: Tuple[GeneralizedPrincipalConnection, GeneralizedPrincipalConnection]
    curves: Dict[str, BaseCurve]
    base_form: Optional[AlgebraOneForm] = None  # principal: classical coefficient form
    nu_coeff: Optional[Callable[[np.ndarray], np.ndarray]] = None  # affine: (n, m, m)
    gamma: Optional[Callable[[np.ndarray], np.ndarray]] = None     # affine: (n, m)

    def fiber_point(self, x, v):
        """The point over x whose fiber is exp of the algebra coordinates v."""
        return TotalPoint(np.asarray(x, float), self.group.exp(self.group.algebra(v)))


def _build_principal(config) -> TorsorScenario:
    group = _group_from_config(config["group"])
    chart = _chart_from_config(config["chart"])
    action = FiberedAction(chart, group)
    base_form = _one_form_from_config(group, config["base_form"], chart.dim, "base_form")
    nu_form = _one_form_from_config(group, config["nu_form"], chart.dim, "nu_form")
    nu = LieGroupBundleConnection.from_base_form(action.bundle, nu_form)
    omega, _ = build_canonical_connection(action, base_form=base_form)
    omega_canonical, _ = build_canonical_connection(action)
    glue = _object(config["two_chart"], "two_chart")
    lo, hi = _numbers(glue["ramp"], "two_chart.ramp", (2,))
    _require(lo < hi, "two_chart.ramp", "an increasing pair [lo, hi]", glue["ramp"])

    def poly(key):
        return Polynomial(_poly_table(glue[key], f"two_chart.{key}", chart.dim), chart.dim)

    omega_glued, nu_glued = build_two_chart_connection(
        action,
        sigma_gen=group.algebra(_numbers(glue["sigma_gen"], "two_chart.sigma_gen", (group.dim,))),
        p=poly("sigma_poly"),
        tau_gen=group.algebra(_numbers(glue["tau_gen"], "two_chart.tau_gen", (group.dim,))),
        r=poly("tau_poly"),
        ramp=WeightRamp(lo, hi, axis=_count(glue.get("ramp_axis", 0), "two_chart.ramp_axis",
                                            0, chart.dim)),
    )
    return TorsorScenario(
        name=config["name"], config=config, kind="principal", group=group, chart=chart,
        action=action, nu=nu, omega=omega, transport_form=omega_glued,
        forms={"single": omega, "canonical": omega_canonical, "glued": omega_glued},
        nus={"nu": nu, "nu_glued": nu_glued}, difference_pair=(omega, omega_canonical),
        curves=_curves_from_config(config, chart), base_form=base_form,
    )


def classical_form_value(scenario, x, g, u, delta_right, drop_ad=False):
    """Connection coefficient form on the trivialized torsor in classical
    presentation: adjoint-twisted base form plus the left Maurer-Cartan term.
    Stacked arguments give one row per sample."""
    desc = scenario.group
    ad_inv = desc.Ad_matrix(g.inverse())
    left = (ad_inv @ delta_right.coords[..., None])[..., 0]
    base = scenario.base_form(x, u).coords
    if not drop_ad:
        base = (ad_inv @ base[..., None])[..., 0]
    return desc.algebra(base + left)


def drop_ad_form(scenario):
    """The negative control of the classical equivalence: the canonical form
    with the base form left untwisted by Ad_{h^-1}, over the trivial nu."""
    desc = scenario.group
    return GeneralizedPrincipalConnection(scenario.action, scenario.omega.nu, lambda q: FiberMap(
        lambda fibers, a_t: form_matrix(a_t, desc.Ad_matrix(desc.inverse(fibers))),
        np.swapaxes(scenario.base_form.coefficient_array(q), -1, -2)))


def principal_equivalence_report(scenario, rng, samples=100, drop_ad=False):
    """Both directions of the classical equivalence on samples, drawn one at a
    time and evaluated as one stack.

    (a) the classical axioms of the coefficient form: verticals are reproduced
    and right translation acts by the inverse adjoint; (b) the induced
    generalized form satisfies complementarity/equivariance against the
    trivial group connection.
    """
    desc = scenario.group
    c = desc.coords_field
    y, xi, fh, u, dv = scenario.action.space.random_points(
        rng, samples, c, c, Normal((scenario.chart.dim,)), c)
    x, g, h, dv = y.q, y.fiber, desc.exp(desc.algebra(fh)), desc.algebra(dv)
    # right-action generator at g has left-trivialized value xi
    delta = desc.algebra((desc.Ad_matrix(g) @ xi[..., None])[..., 0])
    got = classical_form_value(scenario, x, g, np.zeros_like(x), delta, drop_ad).coords
    lhs = classical_form_value(scenario, x, g @ h, u, dv, drop_ad).coords
    rhs = classical_form_value(scenario, x, g, u, dv, drop_ad).coords
    requiv = lhs - (desc.Ad_matrix(h.inverse()) @ rhs[..., None])[..., 0]
    induced = validate_principal_connection(drop_ad_form(scenario) if drop_ad else scenario.omega,
                                            rng, samples=samples)
    return {
        "classical_vertical": float(np.max(_norm(got - xi))),
        "classical_right_equivariance": float(np.max(_norm(requiv))),
        "induced_complementarity": induced["complementarity"],
        "induced_ad_equivariance": induced["ad_equivariance"],
    }


# ---------------------------------------------------------------------------
# affine scenario
# ---------------------------------------------------------------------------


def _table_fn(spec, n, shape, field):
    """Coefficient function x -> array of ``shape`` from a config spec: absent
    (zero), ``constant`` (a fixed array) or ``polynomials`` (one table per
    comma-separated index).  A batch of points (..., n) gives (..., *shape)."""
    if spec is None:
        return lambda x: np.zeros(np.shape(x)[:-1] + shape)
    if "constant" in _object(spec, field):
        arr = _numbers(spec["constant"], f"{field}.constant", shape)
        return lambda x: np.broadcast_to(arr, np.shape(x)[:-1] + shape)
    field = f"{field}.polynomials"
    entries = {}
    for key, table in _object(spec["polynomials"], field).items():
        index = _index(key, field)
        _require(len(index) == len(shape) and all(i < s for i, s in zip(index, shape)), field,
                 f"keyed by indices within shape {shape}", key)
        entries[index] = _poly_table(table, f"{field}.{key}", n)
    return Polynomial.array(entries, n, shape)


def _build_affine(config) -> TorsorScenario:
    group = _group_from_config(config["group"])
    _require(group.abelian, "group", "abelian (zero structure constants)", config["group"])
    chart = _chart_from_config(config["chart"])
    n, m = chart.dim, group.dim
    action = FiberedAction(chart, group)
    nu_coeff = _table_fn(config["nu_coeff"], n, (n, m, m), "nu_coeff")
    gamma = _table_fn(config["gamma"], n, (n, m), "gamma")

    # the fibers are the integrator's retracted fibers or exp draws: raw logs
    def lift(fibers, k):
        return -(k @ group.log_coords(fibers)[..., None])[..., 0]

    nu = LieGroupBundleConnection(action.bundle, lambda x, u: FiberMap(
        lift, np.einsum("...n,...nij->...ij", u, nu_coeff(x))))

    eye = np.eye(m)

    def local_form(fibers, coeff, offset):
        v = group.log_coords(fibers)
        linear = (coeff @ v[..., None, :, None])[..., 0] + offset
        return form_matrix(np.swapaxes(linear, -1, -2), eye)

    omega = GeneralizedPrincipalConnection(
        action, nu, lambda q: FiberMap(local_form, nu_coeff(q), gamma(q)))
    # a second connection over nu: omega plus a constant horizontal shift
    shift = np.hstack([np.full((m, n), 0.35), np.zeros((m, m))])
    # its own copy of the tables, so a fault in omega's map reaches one side only
    shifted = GeneralizedPrincipalConnection(action, nu, lambda q: FiberMap(
        lambda fibers, coeff, offset: local_form(fibers, coeff, offset) + shift,
        nu_coeff(q), gamma(q)))
    curves = _curves_from_config(config, chart)
    if "main" not in curves:  # the affine transport oracle rides it
        raise KeyError("main")
    return TorsorScenario(
        name=config["name"], config=config, kind="affine", group=group, chart=chart,
        action=action, nu=nu, omega=omega, transport_form=omega, forms={"affine": omega},
        nus={"nu": nu}, difference_pair=(omega, shifted), curves=curves,
        nu_coeff=nu_coeff, gamma=gamma,
    )


def affine_equivalence_report(scenario: TorsorScenario, rng, samples=100):
    """Shifted-point equivariance of the affine form: the abelian form of the
    defining equivariance.  Samples are drawn one at a time and the form is
    evaluated once, at y and at its shift as the rows of one stack."""
    group, chart, m = scenario.group, scenario.chart, scenario.group.dim
    x, yv, w, u, dy = sample_rows(rng, samples, chart.field, Uniform((m,)), Uniform((m,)),
                                  Normal((chart.dim,)), group.coords_field)
    x = chart.place(x)
    both = scenario.omega.matrix(scenario.fiber_point(np.concatenate([x, x]),
                                                      np.concatenate([yv + w, yv])))
    lhs, at_y = np.split(_values(both, np.concatenate([u, u]), np.concatenate([dy, dy])), 2)
    k = (u[:, None, :] @ scenario.nu_coeff(x).reshape(samples, chart.dim, -1))[:, 0]
    rhs = at_y + (k.reshape(samples, m, m) @ w[..., None])[..., 0]
    return {"shift_equivariance": float(np.max(_norm(lhs - rhs)))}


def affine_transport_flow(scenario: TorsorScenario, curve: BaseCurve, v0, step):
    """End fiber coordinates (B, m) of the affine transport of the rows of
    ``v0`` along ``curve``: `integrate_linear` on the augmented system
    (v, 1)' = -[[K(x'), Gamma(x')], [0, 0]] (v, 1), built from the
    scenario's ``nu_coeff`` and ``gamma`` tables alone.  It evaluates no
    form, solve, log or retraction, so it shares no code with the group
    transport it is a reference for."""
    m = scenario.group.dim

    def generators(times):
        x, u = curve.position(times), curve.velocity(times)
        big = np.zeros((len(times), m + 1, m + 1))
        big[:, :m, :m] = -np.einsum("tn,tnij->tij", u, scenario.nu_coeff(x))
        big[:, :m, m] = -np.einsum("tn,tnj->tj", u, scenario.gamma(x))
        return big

    columns = np.vstack([np.transpose(v0), np.ones((1, len(v0)))])
    return integrate_linear(generators, columns, (curve.a, curve.b), step)[:m].T


def affine_reconstruction_residual(scenario: TorsorScenario, omega, rng, samples=50) -> float:
    """Fit the offset coefficients from the form at the zero section and verify
    the linear-plus-offset expression reconstructs the form exactly.  Samples
    are drawn one at a time; ``omega.matrix`` is evaluated once, at the zero
    section and at the sampled points as the rows of one stack, and its
    first n columns are the form on the base unit vectors."""
    group, chart, m, n = scenario.group, scenario.chart, scenario.group.dim, scenario.chart.dim
    x, yv, u, dy = sample_rows(rng, samples, chart.field, Uniform((m,)), Normal((n,)),
                               group.coords_field)
    x = chart.place(x)
    mats = omega.matrix(scenario.fiber_point(np.concatenate([x, x]),
                                             np.concatenate([np.zeros_like(yv), yv])))
    # contiguous, as the per-sample rows are: numpy's own loop for a strided
    # operand rounds its sums apart from BLAS
    gamma_fit, at_y = np.split(np.ascontiguousarray(np.swapaxes(mats[..., :n], -1, -2)), 2)
    ut = u[:, None, :]
    recon = (ut @ gamma_fit)[:, 0] + (ut @ (at_y - gamma_fit))[:, 0] + dy
    return float(np.max(_norm(recon - _values(mats[samples:], u, dy))))


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
    omega_hat: EquivariantJetConnection
    kind: str = "gauge"


def _build_gauge(config) -> GaugeJetScenario:
    group = _group_from_config(config["group"])
    n = _count(config["n"], "n")
    jet_desc = semidirect_jet_descriptor(group, n)
    f_fn = _table_fn(config.get("f_section"), n, (n, group.dim), "f_section")
    g_fn = _table_fn(config.get("g_section"), n, (n, n, group.dim), "g_section")
    return GaugeJetScenario(
        name=config["name"], config=config, group=group, n=n, jet_descriptor=jet_desc,
        omega_hat=EquivariantJetConnection(group, n, f=f_fn, g2=g_fn),
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
    }


def _affine_config(name, constant):
    cfg = {
        "name": name,
        "kind": "affine",
        "group": "translation:2",
        "chart": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "curves": {
            "main": {"kind": "line", "start": [-0.5, -0.3], "end": [0.5, 0.4],
                      "interval": [0.0, 1.0]},
        },
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
    _run_settings(config)
    try:
        return builders[kind](config)
    except KeyError as exc:
        raise UsageError(f"config is missing field {exc.args[0]!r}") from None
