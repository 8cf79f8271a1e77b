"""Invariant suites per scenario kind, producing check records.

Each check states its contract (tolerance, label, mode) once, in the `_check`
row above its definition, and `record` judges every record by it: the suite's
and those the `transport` and `curvature` commands write.  Each check draws
from its own substream, keyed by (seed, check id), so a record depends only
on the config and the check: not on the table's order, on other checks or on
filtering.  A check that transports or evaluates curvature is a plan that
yields all its requests once; `run_suite` runs every plan in one round, so
transports on one interval at one step share one integration and curvatures
on one form one `curvature` call (`integrators`).
"""

from __future__ import annotations

import inspect
import zlib
from collections import namedtuple

import numpy as np

from .bundles import (Tangent, TotalPoint, paired_generator_residual, product_velocity,
                      vertical_isomorphism_check)
from .calculus import BaseCurve, Normal, Uniform, sample_rows
from .connections import (
    ad_compatibility_check,
    algebra_transport,
    algebra_transport_fd,
    algebra_transport_linearity_check,
    covariant_derivative_bracket_check,
    horizontal_product_rule_check,
    transport_multiplicativity_check,
    transport_unit_inverse_check,
    validate_group_connection,
)
from .errors import LieBundleError, UsageError, prefixed
from .gauge import (
    ConnectionJet,
    GaugeJet,
    GaugeSecondJet,
    classification_equivariance_residual,
    curvature_invariance_residual,
    curvature_map,
    element_from_gauge_jet,
    extract_classifying_sections,
    restricted_action_move,
    jet_connection_multiplicativity_residual,
    jet_connection_value,
    jet_realizing_curvature,
    EquivariantJetConnection,
)
from .groups import _norm
from .integrators import Transport, together
from .principal import (
    Curvature,
    _form_laws,
    connection_difference,
    equivariant_product_connection_check,
    horizontal_transform_check,
    jet_equivariance_check,
    reduced_curvature_residual,
    transport_compatibility_check,
    validate_principal_connection,
    validate_tensorial_form,
)
from .reporting import make_record
from .scenarios import (
    affine_equivalence_report,
    affine_reconstruction_residual,
    affine_transport_flow,
    RANDOM_CURVE_INTERVAL,
    principal_equivalence_report,
    random_wiggles,
)

__all__ = ["run_suite", "available_checks", "check_tolerances", "record"]


def _order(rungs):
    """The median of log2(e(2h) / e(h)) over a ladder of errors at halving
    steps, coarsest first, and over rows when a rung holds one error per row."""
    if np.max(rungs) < 1e-12:
        return None  # below the noise floor: no measurable order
    errors = np.maximum(rungs, 1e-300)
    return float(np.median(np.log2(errors[:-1] / errors[1:])))


def _rng_for(seed, check):
    # crc32, unlike hash(), is the same in every process
    return np.random.default_rng([int(seed), zlib.crc32(check.encode())])


def _family(s, rng, count, *fields):
    """``count`` random curves as one family, then the rows of ``fields`` that
    ride each curve, stacked along a leading axis, drawn one curve at a time."""
    start, end, amps, *draws = random_wiggles(s.chart, rng, count, *fields)
    return (BaseCurve.wiggle(start, end, amps, RANDOM_CURVE_INTERVAL, label="random"), *draws)


def _exp(s, coords):
    """The group elements exp(coords) of a stack of algebra coordinates."""
    return s.group.exp(s.group.algebra(coords))


def _coords(s, count):
    """The fields of ``count`` draws of `random_coords`, one after the other."""
    return (s.group.coords_field,) * count


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------

_P, _A, _PA, _G = ("principal",), ("affine",), ("principal", "affine"), ("gauge",)

# A row: the suite check (None for a record only a command writes), the kinds whose
# suites run it, its contract (tolerance, label, mode), the contract on a fiber whose
# structure constants vanish, and further kinds on which a command writes it.
_Row = namedtuple("_Row", "fn kinds contract abelian commands")
_CHECKS = {}  # check id -> _Row


def _check(check, kinds, tolerance, label, mode="max<=tol", abelian=None, commands=()):
    """Decorator: the table row of check id ``check`` for the function below."""
    def add(fn):
        _CHECKS[check] = _Row(fn, kinds, (tolerance, label, mode), abelian, commands)
        return fn
    return add


# the transport command's own records, which no suite check writes
_check("transport-endpoint-membership", _PA, 1e-9, "transport endpoint stays on the group")(None)
_check("transport-error-estimate", _PA, 1e-6, "step-halving error estimate")(None)


# ---------------------------------------------------------------------------
# principal checks
# ---------------------------------------------------------------------------


@_check("action-axioms", _PA, 1e-10, "fibered action: verticality, compatibility, unit, freeness")
def _chk_action_axioms(s, rng, samples, step):
    return [s.action.validate(rng, samples=min(samples, 200))], None


@_check("generator-verticality", _PA, 1e-9, "generators are vertical for both projections")
def _chk_generator_vertical(s, rng, samples, step):
    y, xi = s.action.space.random_points(rng, min(samples, 100), *_coords(s, 1))
    return _norm(s.action.generator(y, s.group.algebra(xi)).u), None


@_check("generator-isomorphism", _P, 1e10, "algebra-to-vertical map has full rank")
def _chk_generator_isomorphism(s, rng, samples, step):
    (y,) = s.action.space.random_points(rng, min(samples, 25))
    return vertical_isomorphism_check(s.action, y), None


@_check("generator-equivariance", _P, 1e-7,
        "pushforward of a generator is the adjoint-twisted generator")
def _chk_generator_equivariance(s, rng, samples, step):
    y, g, xi = s.action.space.random_points(rng, min(samples, 25), *_coords(s, 2))
    return paired_generator_residual(s.action, y, _exp(s, g), s.group.algebra(xi),
                                     s.group.algebra(np.zeros_like(xi))), None


@_check("paired-generators", _P, 1e-6, "action differential on paired generators")
def _chk_paired_generators(s, rng, samples, step):
    y, g, xi, eta = s.action.space.random_points(rng, min(samples, 25), *_coords(s, 3))
    return paired_generator_residual(s.action, y, _exp(s, g), s.group.algebra(xi),
                                     s.group.algebra(eta)), None


@_check("group-connection-laws", _PA, 1e-9,
        "unit-kernel and multiplicative cocycle laws (plus jet form)")
def _chk_group_connection_laws(s, rng, samples, step):
    vals = []
    for nu in s.nus.values():
        rep = validate_group_connection(nu, rng, samples=min(samples, 100))
        vals.extend([rep["unit_kernel"], rep["cocycle"], rep["jet_multiplicativity"]])
    return vals, None


@_check("transport-multiplicative", _P, 1e-7, "parallel transport is a fiberwise homomorphism",
        commands=_A)
def _chk_transport_multiplicative(s, rng, samples, step):
    curve, g, h = _family(s, rng, min(samples, 8), *_coords(s, 2))
    g, h = _exp(s, g), _exp(s, h)
    vals, coarse = yield from together.plan([
        transport_multiplicativity_check.plan(s.nu, curve, g, h, hh) for hh in (step, 2 * step)])
    return vals, _order([coarse, vals])


@_check("transport-unit-inverse", _P, 1e-8,
        "transport fixes the unit and commutes with inversion")
def _chk_transport_unit_inverse(s, rng, samples, step):
    curve, g = _family(s, rng, min(samples, 8), *_coords(s, 1))
    vals = yield from transport_unit_inverse_check.plan(s.nu, curve, _exp(s, g), step)
    return np.column_stack(vals).ravel(), None


@_check("algebra-transport-consistency", _P, 1e-5,
        "linearized transport agrees with the direct linear flow")
def _chk_algebra_transport_consistency(s, rng, samples, step):
    curve, xi = _family(s, rng, min(samples, 5), *_coords(s, 1))
    xi = s.group.algebra(xi)
    linear = algebra_transport(s.nu, curve, xi, step=step).coords
    fd = yield from algebra_transport_fd.plan(s.nu, curve, xi, 1e-4, step)
    return _norm(fd - linear), None


@_check("algebra-transport-linearity", _P, 1e-7, "induced algebra transport is linear")
def _chk_algebra_transport_linearity(s, rng, samples, step):
    curve, xi, eta, a, b = _family(s, rng, min(samples, 5), *_coords(s, 2),
                                   *(Uniform((), -2.0, 2.0),) * 2)
    return algebra_transport_linearity_check(s.nu, curve, s.group.algebra(xi),
                                             s.group.algebra(eta), a, b, step=step), None


@_check("algebra-transport-adjoint", _P, 1e-7, "algebra transport intertwines the adjoint action")
def _chk_algebra_transport_adjoint(s, rng, samples, step):
    curve, g, xi = _family(s, rng, min(samples, 5), *_coords(s, 2))
    vals = yield from ad_compatibility_check.plan(s.nu, curve, _exp(s, g), s.group.algebra(xi),
                                                  step)
    return vals, None


@_check("covariant-product-rule", _P, 1e-5, "covariant product rule for adjoint-twisted sections")
def _chk_covariant_product_rule(s, rng, samples, step):
    curve, w, xi0 = _family(s, rng, min(samples, 3), *_coords(s, 2))
    vals = yield from covariant_derivative_bracket_check.plan(
        s.nu, curve, lambda t: _exp(s, t * w), lambda t: s.group.algebra(xi0 * (1.0 + 0.3 * t)),
        0.5 * (curve.a + curve.b))
    return vals, None


@_check("horizontal-product-rule", _P, 1e-5, "horizontal lifts obey the fiber product rule")
def _chk_horizontal_product_rule(s, rng, samples, step):
    x, g, h, u, delta_h = sample_rows(rng, min(samples, 25), s.chart.field, *_coords(s, 2),
                                      *_directions(s, 1), *_coords(s, 1))
    return horizontal_product_rule_check(s.nu, s.chart.place(x), _exp(s, g), _exp(s, h), u,
                                         s.group.algebra(delta_h)), None


@_check("form-complementarity", _PA, 1e-8, "connection form reproduces generators")
def _chk_form_complementarity(s, rng, samples, step):
    # each form's law 0 alone, on the sample both of its laws share
    vals = [_form_laws(omega, rng, min(samples, 300))[0]() for omega in s.forms.values()]
    return vals, None


@_check("form-ad-equivariance", _PA, 1e-8,
        "connection form is adjoint-equivariant with group correction")
def _chk_form_equivariance(s, rng, samples, step):
    # each form's law 1 alone, on the sample both of its laws share
    vals = [_form_laws(omega, rng, min(samples, 300))[1]() for omega in s.forms.values()]
    return vals, None


@_check("transport-compatibility", _PA, 1e-7, "total transport intertwines the fiber action")
def _chk_transport_compatibility(s, rng, samples, step):
    curve, q, fiber, g = _family(s, rng, min(samples, 6), s.chart.field, *_coords(s, 2))
    y, g = TotalPoint(s.chart.place(q), _exp(s, fiber)), _exp(s, g)
    vals, coarse = yield from together.plan([
        transport_compatibility_check.plan(s.transport_form, curve, y, g, hh)
        for hh in (step, 2 * step)])
    return vals, _order([coarse, vals])


@_check("jet-equivariance", _P, 1e-6, "horizontal jets transform by the lifted action")
def _chk_jet_equivariance(s, rng, samples, step):
    y, g = s.action.space.random_points(rng, min(samples, 25), *_coords(s, 1))
    return jet_equivariance_check(s.transport_form, y, _exp(s, g)), None


@_check("horizontal-transform", _P, 1e-5, "horizontal lifts transform with a vertical correction")
def _chk_horizontal_transform(s, rng, samples, step):
    y, g, u, delta_g = s.action.space.random_points(rng, min(samples, 15), *_coords(s, 1),
                                                    *_directions(s, 1), *_coords(s, 1))
    return horizontal_transform_check(s.transport_form, y, _exp(s, g), u,
                                      s.group.algebra(delta_g)), None


@_check("product-connection-equivariance", _P, 1e-6,
        "paired vertical projector is action-equivariant")
def _chk_product_connection(s, rng, samples, step):
    y, g, u, a, b = s.action.space.random_points(rng, min(samples, 10), *_coords(s, 1),
                                                 *_directions(s, 1), *_coords(s, 2))
    return equivariant_product_connection_check(s.transport_form, y, _exp(s, g),
                                                Tangent(u, s.group.algebra(a)),
                                                Tangent(u, s.group.algebra(b))), None


@_check("connection-difference-tensorial", _PA, 1e-7,
        "difference of two connections is tensorial of adjoint type")
def _chk_connection_difference(s, rng, samples, step):
    rep = validate_tensorial_form(connection_difference(*s.difference_pair), rng, min(samples, 100))
    return [rep["horizontality"], rep["ad_equivariance"]], None


def _directions(s, k):
    """The fields of k draws of a base direction, one after the other."""
    return (Normal((s.chart.dim,)),) * k


@_check("curvature-two-path", _PA, 1e-4, "bracket and exterior-derivative curvature paths agree")
def _chk_curvature_two_path(s, rng, samples, step):
    y, u1, u2 = s.action.space.random_points(rng, min(samples, 4), *_directions(s, 2))
    vals, *gaps = yield [Curvature(s.omega, y, u1, u2, hh) for hh in (None, 2e-2, 1e-2, 5e-3)]
    return vals.gap, _order([g.gap for g in gaps])


@_check("curvature-antisymmetry", _PA, 1e-10, "curvature is antisymmetric in its arguments")
def _chk_curvature_antisymmetry(s, rng, samples, step):
    y, u = s.action.space.random_points(rng, min(samples, 4), *_directions(s, 1))
    (same,) = yield [Curvature(s.omega, y, u, u)]
    return _norm(same.value.coords), None


@_check("curvature-tensoriality", _P, 1e-6,
        "curvature value is pointwise tensorial in the arguments")
def _chk_curvature_tensoriality(s, rng, samples, step):
    y, u1, u2 = s.action.space.random_points(rng, min(samples, 3), *_directions(s, 2))
    a, b = yield [Curvature(s.omega, y, u1, u2), Curvature(s.omega, y, 2.0 * u1, u2)]
    return _norm(2.0 * a.value.coords - b.value.coords), None


@_check("reduced-curvature-independence", _P, 1e-5,
        "reduced curvature is representative independent")
def _chk_reduced_curvature(s, rng, samples, step):
    y, g, u1, u2 = s.action.space.random_points(rng, min(samples, 4), *_coords(s, 1),
                                                *_directions(s, 2))
    vals = yield from reduced_curvature_residual.plan(s.omega, y, _exp(s, g), u1, u2)
    return vals, None


@_check("underlying-connection-necessity", _PA, 1e-6,
        "valid form implies a multiplicative group connection")
def _chk_necessity(s, rng, samples, step):
    form = validate_principal_connection(s.transport_form, rng, samples=min(samples, 100))
    nu = validate_group_connection(s.transport_form.nu, rng, samples=min(samples, 100))
    return [np.max([form["complementarity"], form["ad_equivariance"], nu["unit_kernel"],
                    nu["cocycle"]])], None


@_check("classical-equivalence", _P, 1e-8, "classical equivalence holds in both directions")
def _chk_classical_equivalence(s, rng, samples, step):
    rep = principal_equivalence_report(s, rng, samples=min(samples, 100))
    return [rep["classical_vertical"], rep["classical_right_equivariance"],
            rep["induced_complementarity"], rep["induced_ad_equivariance"]], None


@_check("classical-equivalence-negative-control", _P, 1e-3,
        "dropping the adjoint twist breaks both directions", "min>tol")
def _chk_classical_negative(s, rng, samples, step):
    rep = principal_equivalence_report(s, rng, samples=min(samples, 50), drop_ad=True)
    return [rep["classical_right_equivariance"], rep["induced_ad_equivariance"]], None


@_check("affine-shift-equivariance", _A, 1e-9,
        "form shifts by the linear connection under fiber translation")
def _chk_affine_shift_equivariance(s, rng, samples, step):
    rep = affine_equivalence_report(s, rng, samples=min(samples, 200))
    return [rep["shift_equivariance"]], None


@_check("affine-reconstruction", _A, 1e-9, "linear-plus-offset coefficients reconstruct the form")
def _chk_affine_reconstruction(s, rng, samples, step):
    return [affine_reconstruction_residual(s, s.omega, rng, samples=min(samples, 50))], None


@_check("affine-transport-self-consistency", _A, 1e-7,
        "fiber transport agrees with the form-free linear flow at step/4")
def _chk_affine_transport_oracle(s, rng, samples, step):
    curve = s.curves["main"]
    (v0,) = sample_rows(rng, min(samples, 5), *_coords(s, 1))
    y0 = s.fiber_point(curve.position(curve.a), v0)
    # the group transport runs first, so a diverging config stops in its guards
    ((end,),) = yield [Transport(s.omega.horizontal_map, curve, [y0.fiber], step)]
    # integrator ends need no log check
    return _norm(s.group.log_coords(end) - affine_transport_flow(s, curve, v0, step / 4.0)), None


# ---------------------------------------------------------------------------
# gauge checks
# ---------------------------------------------------------------------------


def _draw_jets(s, rng, count, per_row):
    """``per_row`` stacked GaugeJets of ``count`` rows, in the RNG order of
    ``per_row`` GaugeJet.random calls a row (the coordinates of g, then xi);
    each stack is exponentiated once."""
    cols = sample_rows(rng, count, *(s.group.coords_field, Uniform((s.n, s.group.dim))) * per_row)
    return [GaugeJet(_exp(s, coords), xi) for coords, xi in zip(cols[::2], cols[1::2])]


def _draw_connection_jets(s, rng, count):
    """A stacked ConnectionJet and GaugeSecondJet of ``count`` rows, drawn in
    the RNG order of ConnectionJet.random then GaugeSecondJet.random per row."""
    n, d = s.n, s.group.dim
    a, da, raw, xi = sample_rows(rng, count, *map(Uniform, [(n, d), (n, n, d), (n, n, d), (n, d)]))
    return (ConnectionJet(s.group, a, da),
            GaugeSecondJet(s.group, xi, 0.5 * (raw + np.swapaxes(raw, -3, -2))))


@_check("jet-group-axioms", _G, 1e-12, "semidirect jet group axioms and inverse formula")
def _chk_jet_group_axioms(s, rng, samples, step):
    k1, k2, k3 = _draw_jets(s, rng, min(samples, 1000), 3)
    e = GaugeJet.identity(s.group, s.n)
    # [associativity, unit, inverse] per sample, the order make_record sums the mean in
    return np.stack([k1.mul(k2).mul(k3).distance(k1.mul(k2.mul(k3))), k1.mul(e).distance(k1),
                     k1.mul(k1.inv()).distance(e)], axis=1).ravel(), None


def _draw_adjoint_pairs(s, rng, count):
    """``count`` jets and algebra pairs (eta, phi), drawn per row in the order
    of GaugeJet.random, then eta, then phi.  Returns the jets' block matrices,
    the pairs and their closed-form adjoints, each pair flattened to a row of
    d (n + 1) coordinates."""
    n, d = s.n, s.group.dim
    coords, xi, eta, phi = sample_rows(rng, count, *map(Uniform, [(d,), (n, d), (d,), (n, d)]))
    k = GaugeJet(_exp(s, coords), xi)

    def pairs(e, p):
        return np.concatenate([e[:, None], p], axis=1).reshape(count, d * (n + 1))

    return element_from_gauge_jet(s.jet_descriptor, k), pairs(eta, phi), pairs(*k.adjoint(eta, phi))


@_check("jet-adjoint-closed-form", _G, 1e-12,
        "jet adjoint closed form matches the block descriptor")
def _chk_jet_adjoint_closed_form(s, rng, samples, step):
    big, c, closed = _draw_adjoint_pairs(s, rng, min(samples, 50))
    via = s.jet_descriptor.Ad(big, s.jet_descriptor.algebra(c)).coords
    return np.max(np.abs(closed - via), axis=1), None


@_check("jet-adjoint-fd-cross-check", _G, 1e-6, "jet adjoint matches the conjugation derivative")
def _chk_jet_adjoint_fd(s, rng, samples, step):
    big, c, closed = _draw_adjoint_pairs(s, rng, min(samples, 10))
    # the velocity of s -> big exp(s c) big^-1 at the unit
    fd = product_velocity(s.jet_descriptor, big, np.zeros_like(c), big.inverse(), c, 1e-6)
    return np.max(np.abs(fd - closed), axis=1), None


@_check("jet-descriptor-consistency", _G, 1e-12,
        "block descriptor structure constants are consistent")
def _chk_jet_descriptor(s, rng, samples, step):
    return list(s.jet_descriptor.validate().values()), None


@_check("jet-connection-unit", _G, 1e-15, "horizontal jet at the unit is the unit jet")
def _chk_jet_connection_unit(s, rng, samples, step):
    val = jet_connection_value(GaugeJet.identity(s.group, s.n))
    return [float(np.max(np.abs(val.eta)) + np.max(np.abs(val.phi)))], None


@_check("jet-connection-multiplicative", _G, 1e-12, "jet-group connection is multiplicative")
def _chk_jet_connection_mult(s, rng, samples, step):
    k1, k2 = _draw_jets(s, rng, min(samples, 500), 2)
    return jet_connection_multiplicativity_residual(k1, k2), None


@_check("classification-equivariance", _G, 1e-10,
        "equivariant jet connections have the classified form")
def _chk_classification_equivariance(s, rng, samples, step):
    k, w = _draw_jets(s, rng, min(samples, 200), 2)
    return classification_equivariance_residual(s.omega_hat, k, w), None


@_check("classification-reconstruction", _G, 1e-10,
        "classifying sections reconstruct the connection")
def _chk_classification_reconstruction(s, rng, samples, step):
    x = np.zeros(s.n)
    f_got, g_got = extract_classifying_sections(s.omega_hat, x)
    rebuilt = EquivariantJetConnection(s.group, s.n, f=lambda _: f_got, g2=lambda _: g_got)
    (w,) = _draw_jets(s, rng, min(samples, 100), 1)
    return rebuilt(x, w).distance(s.omega_hat(x, w)), None


# an abelian adjoint is trivial, so the dropped twist cannot be detected: there
# the expected-zero residual is judged as a pass
@_check("classification-negative-control", _G, 1e-3,
        "dropping the adjoint twist breaks equivariance", "min>tol",
        abelian=(1e-12, "dropping the adjoint twist is invisible for abelian fibers", "max<=tol"))
def _chk_classification_negative(s, rng, samples, step):
    broken = EquivariantJetConnection(
        s.group, s.n, f=lambda x: 0.5 * np.ones((s.n, s.group.dim)), drop_ad_twist=True)
    vals = classification_equivariance_residual(broken, *_draw_jets(s, rng, min(samples, 50), 2))
    return vals, None


@_check("curvature-map-invariance", _G, 1e-12,
        "curvature map is invariant under identity-value second jets")
def _chk_curvature_invariance(s, rng, samples, step):
    return curvature_invariance_residual(*_draw_connection_jets(s, rng, min(samples, 1000))), None


@_check("restricted-action-freeness", _G, 1e-12,
        "only the zero second jet fixes a connection jet", "min>tol")
def _chk_gauge_freeness(s, rng, samples, step):
    return restricted_action_move(*_draw_connection_jets(s, rng, min(samples, 200))), None


@_check("curvature-target-realization", _G, 1e-12,
        "every antisymmetric target arises from some connection jet")
def _chk_gauge_surjectivity(s, rng, samples, step):
    (raw,) = sample_rows(rng, min(samples, 50), Uniform((s.n, s.n, s.group.dim)))
    target = raw - np.swapaxes(raw, -3, -2)
    jet = jet_realizing_curvature(s.group, target)
    return np.max(np.abs(curvature_map(jet) - target), axis=(-3, -2, -1)), None


def _checks_for(kind):
    """(id, check) of each record written on ``kind``, sorted by id; check is
    None where no suite check of ``kind`` writes the record, only a command."""
    return [(check, row.fn if kind in row.kinds else None)
            for check, row in sorted(_CHECKS.items()) if kind in row.kinds + row.commands]


def available_checks(kind):
    return [check for check, fn in _checks_for(kind) if fn is not None]


def check_tolerances(scenario):
    """Refuse a ``tolerances`` key of the config that names no record some
    command writes on the scenario's kind."""
    known = {check for check, _ in _checks_for(scenario.kind)}
    for check in scenario.config.get("tolerances", {}):
        if check not in known:
            raise UsageError(f"config field tolerances must be keyed by {scenario.kind} "
                             f"check ids, got {check!r}")


def record(scenario, check, residuals, order=None):
    """The record of ``check`` on ``scenario``, judged by the check's row: its
    abelian contract on an abelian fiber, else its contract, at the config's
    ``tolerances`` entry for the check if it has one."""
    row = _CHECKS[check]
    abelian = row.abelian is not None and scenario.group.abelian
    tolerance, label, mode = row.abelian if abelian else row.contract
    tolerance = float(scenario.config.get("tolerances", {}).get(check, tolerance))
    return make_record(check, label, scenario.name, residuals, tolerance, order=order, mode=mode)


def run_suite(scenario, seed=None, only=None):
    """Run the applicable checks; returns a list of CheckRecord.

    Seed (unless given), samples and step come from the scenario's config,
    whose ``tolerances`` keys must pass `check_tolerances`.  A package error
    raised inside a check is raised again, as the same type, with the check
    id in front of its message.
    """
    check_tolerances(scenario)
    checks = [(name, fn) for name, fn in _checks_for(scenario.kind) if fn is not None]
    if only is not None:
        wanted = [c.strip() for c in only if c.strip()]
        if not wanted:
            raise UsageError("empty check list")
        unknown = [c for c in wanted if c not in dict(checks)]
        if unknown:
            raise UsageError(f"unknown checks for {scenario.kind}: {', '.join(unknown)}")
        checks = [(n, f) for n, f in checks if n in wanted]
    config = scenario.config
    seed = config["seed"] if seed is None else seed

    def start(name, fn):
        with prefixed(name):
            return fn(scenario, _rng_for(seed, name), config["samples"], config["step"])

    outs = {name: start(name, fn) for name, fn in checks}
    plans = {name: fn for name, fn in checks if inspect.isgenerator(outs[name])}
    try:
        outs.update(zip(plans, together([outs[name] for name in plans])))
    except LieBundleError:  # each plan alone, in table order, names its check and rows
        for name, fn in plans.items():
            with prefixed(name):
                together([start(name, fn)])
        raise
    return [record(scenario, name, *outs[name]) for name, _ in checks]
