"""Invariant suites per scenario kind, producing check records.

Each check draws from its own seeded substream so suites are deterministic
given (config, seed) and insensitive to check-order filtering.
"""

from __future__ import annotations

import numpy as np

from .bundles import Tangent, TotalPoint, paired_generator_residual, equivariance_of_generators, vertical_isomorphism_check
from .calculus import BaseCurve, central_difference
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
from .errors import UsageError
from .gauge import (
    ConnectionJet,
    GaugeJet,
    GaugeSecondJet,
    apply_gauge_second_jet,
    classification_equivariance_residual,
    curvature_map,
    element_from_gauge_jet,
    extract_classifying_sections,
    fixed_point_is_trivial,
    jet_connection_multiplicativity_residual,
    jet_connection_value,
    jet_realizing_curvature,
    EquivariantJetConnection,
)
from .principal import (
    GeneralizedPrincipalConnection,
    connection_difference,
    constant_weight,
    curvature,
    equivariant_product_connection_check,
    horizontal_transform_check,
    jet_equivariance_check,
    necessity_check,
    reduced_curvature_residual,
    transport_compatibility_check,
    transport_total,
    validate_principal_connection,
)
from .reporting import make_record, tolerance_for
from .scenarios import (
    affine_equivalence_report,
    affine_reconstruction_residual,
    RANDOM_CURVE_INTERVAL,
    principal_equivalence_report,
    random_curve,
    random_wiggle,
)

__all__ = ["suite_checks", "run_suite", "available_checks"]


def _order(errors):
    if max(float(e) for e in errors) < 1e-12:
        return None  # below the noise floor: no measurable order
    errors = [max(float(e), 1e-300) for e in errors]
    pairs = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return float(np.median(pairs))


def _rng_for(seed, index):
    return np.random.default_rng([int(seed), int(index)])


def _family_residuals(s, rng, count, draw, check):
    """Per-curve residuals of one check run on a family of random curves.

    Draws ``count`` random curves, each followed by ``draw()`` (a tuple of
    arrays that ride it), in the RNG order of one curve at a time; then calls
    ``check(family, *draws stacked along a leading curve axis)`` once, so every
    curve's transports are rows of the same integrations.
    """
    params, draws = [], []
    for _ in range(count):
        params.append(random_wiggle(s.chart, rng))
        draws.append(draw())
    if not params:
        return []
    family = BaseCurve.wiggle(*(np.array(p) for p in zip(*params)), RANDOM_CURVE_INTERVAL,
                              label="random")
    return list(check(family, *(np.array(d) for d in zip(*draws))))


def _element(s, matrices):
    return s.group.element(matrices, check=False)


# ---------------------------------------------------------------------------
# principal checks
# ---------------------------------------------------------------------------


def _chk_action_axioms(s, rng, samples, step):
    res = s.action.validate(rng, samples=min(samples, 200))
    return [res], 1e-10, "fibered action: verticality, compatibility, unit, freeness", None


def _chk_generator_vertical(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 100)):
        y = s.action.space.random_point(rng)
        xi = s.group.random_algebra(rng)
        vals.append(np.linalg.norm(s.action.generator(y, xi).u))
    return vals, 1e-9, "generators are vertical for both projections", None


def _chk_generator_isomorphism(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 25)):
        y = s.action.space.random_point(rng)
        report = vertical_isomorphism_check(s.action, y)
        vals.append(abs(report["rank"] - s.group.dim))
    return vals, 0.5, "algebra-to-vertical map has full rank", None


def _chk_generator_equivariance(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 25)):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        xi = s.group.random_algebra(rng)
        vals.append(equivariance_of_generators(s.action, y, g, xi))
    return vals, 1e-7, "pushforward of a generator is the adjoint-twisted generator", None


def _chk_paired_generators(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 25)):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        vals.append(paired_generator_residual(s.action, y, g,
                                              s.group.random_algebra(rng),
                                              s.group.random_algebra(rng)))
    return vals, 1e-6, "action differential on paired generators", None


def _nus_for(s):
    if s.kind == "principal":
        return [("nu", s.nu), ("nu-glued", s.nu_glued)]
    return [("nu", s.nu)]


def _chk_group_connection_laws(s, rng, samples, step):
    vals = []
    for _, nu in _nus_for(s):
        rep = validate_group_connection(nu, rng, samples=min(samples, 100))
        vals.extend([rep["unit_kernel"], rep["cocycle"], rep["jet_multiplicativity"]])
    return vals, 1e-9, "unit-kernel and multiplicative cocycle laws (plus jet form)", None


def _chk_transport_multiplicative(s, rng, samples, step):
    vals = _family_residuals(
        s, rng, min(samples, 8),
        lambda: (s.group.random_element(rng).matrix, s.group.random_element(rng).matrix),
        lambda curve, g, h: transport_multiplicativity_check(
            s.nu, curve, _element(s, g), _element(s, h), step=step))
    curve = random_curve(s.chart, rng)
    g, h = s.group.random_element(rng), s.group.random_element(rng)
    errs = [transport_multiplicativity_check(s.nu, curve, g, h, step=hh)
            for hh in (0.05, 0.025, 0.0125)]
    return vals, 1e-7, "parallel transport is a fiberwise homomorphism", _order(errs)


def _chk_transport_unit_inverse(s, rng, samples, step):
    vals = _family_residuals(
        s, rng, min(samples, 8), lambda: (s.group.random_element(rng).matrix,),
        lambda curve, g: np.column_stack(transport_unit_inverse_check(
            s.nu, curve, _element(s, g), step=step)).ravel())
    return vals, 1e-8, "transport fixes the unit and commutes with inversion", None


def _chk_algebra_transport_consistency(s, rng, samples, step):
    def check(curve, xi):
        xi = s.group.algebra(xi)
        linear = algebra_transport(s.nu, curve, xi, step=step).coords
        return np.linalg.norm(algebra_transport_fd(s.nu, curve, xi, 1e-4, step) - linear, axis=-1)

    vals = _family_residuals(s, rng, min(samples, 5),
                             lambda: (s.group.random_algebra(rng).coords,), check)
    return vals, 1e-5, "linearized transport agrees with the direct linear flow", None


def _chk_algebra_transport_linearity(s, rng, samples, step):
    vals = _family_residuals(
        s, rng, min(samples, 5),
        lambda: (s.group.random_algebra(rng).coords, s.group.random_algebra(rng).coords,
                 float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
        lambda curve, xi, eta, a, b: algebra_transport_linearity_check(
            s.nu, curve, s.group.algebra(xi), s.group.algebra(eta), a, b, step=step))
    return vals, 1e-7, "induced algebra transport is linear", None


def _chk_algebra_transport_adjoint(s, rng, samples, step):
    vals = _family_residuals(
        s, rng, min(samples, 5),
        lambda: (s.group.random_element(rng).matrix, s.group.random_algebra(rng).coords),
        lambda curve, g, xi: ad_compatibility_check(
            s.nu, curve, _element(s, g), s.group.algebra(xi), step=step))
    return vals, 1e-7, "algebra transport intertwines the adjoint action", None


def _chk_covariant_product_rule(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 3)):
        curve = random_curve(s.chart, rng)
        w = s.group.random_algebra(rng)
        xi0 = s.group.random_algebra(rng)

        def g_path(t, w=w):
            return s.group.exp(s.group.algebra(t * w.coords))

        def xi_path(t, xi0=xi0):
            return s.group.algebra(xi0.coords * (1.0 + 0.3 * t))

        vals.append(covariant_derivative_bracket_check(
            s.nu, curve, g_path, xi_path, 0.5 * (curve.a + curve.b)))
    return vals, 1e-5, "covariant product rule for adjoint-twisted sections", None


def _chk_horizontal_product_rule(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 25)):
        x = s.chart.sample(rng)
        vals.append(horizontal_product_rule_check(
            s.nu, x, s.group.random_element(rng), s.group.random_element(rng),
            rng.standard_normal(s.chart.dim), s.group.random_algebra(rng)))
    return vals, 1e-5, "horizontal lifts obey the fiber product rule", None


def _omegas_for(s):
    if s.kind == "principal":
        return [("single", s.omega), ("canonical", s.omega_canonical), ("glued", s.omega_glued)]
    return [("affine", s.omega)]


def _chk_form_complementarity(s, rng, samples, step):
    vals = []
    for _, omega in _omegas_for(s):
        rep = validate_principal_connection(omega, rng, samples=min(samples, 300))
        vals.append(rep["complementarity"])
    return vals, 1e-8, "connection form reproduces generators", None


def _chk_form_equivariance(s, rng, samples, step):
    vals = []
    for _, omega in _omegas_for(s):
        rep = validate_principal_connection(omega, rng, samples=min(samples, 300))
        vals.append(rep["ad_equivariance"])
    return vals, 1e-8, "connection form is adjoint-equivariant with group correction", None


def _default_transport_omega(s):
    if s.kind == "principal":
        return s.omega_glued
    return s.omega


def _chk_transport_compatibility(s, rng, samples, step):
    omega = _default_transport_omega(s)

    def draw():
        y = s.action.space.random_point(rng)
        return y.q, y.fiber.matrix, s.group.random_element(rng).matrix

    vals = _family_residuals(
        s, rng, min(samples, 6), draw,
        lambda curve, q, fibers, g: transport_compatibility_check(
            omega, curve, TotalPoint(q, _element(s, fibers)), _element(s, g), step=step))
    curve = random_curve(s.chart, rng)
    y = s.action.space.random_point(rng)
    g = s.group.random_element(rng)
    errs = [transport_compatibility_check(omega, curve, y, g, step=hh)
            for hh in (0.05, 0.025, 0.0125)]
    return vals, 1e-7, "total transport intertwines the fiber action", _order(errs)


def _chk_jet_equivariance(s, rng, samples, step):
    omega = _default_transport_omega(s)
    vals = []
    for _ in range(min(samples, 25)):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        vals.append(jet_equivariance_check(omega, y, g))
    return vals, 1e-6, "horizontal jets transform by the lifted action", None


def _chk_horizontal_transform(s, rng, samples, step):
    omega = _default_transport_omega(s)
    vals = []
    for _ in range(min(samples, 15)):
        y = s.action.space.random_point(rng)
        vals.append(horizontal_transform_check(
            omega, y, s.group.random_element(rng), rng.standard_normal(s.chart.dim),
            s.group.random_algebra(rng)))
    return vals, 1e-5, "horizontal lifts transform with a vertical correction", None


def _chk_product_connection(s, rng, samples, step):
    omega = _default_transport_omega(s)
    vals = []
    for _ in range(min(samples, 10)):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        u = rng.standard_normal(s.chart.dim)
        vals.append(equivariant_product_connection_check(
            omega, y, g, Tangent(u, s.group.random_algebra(rng)),
            Tangent(u, s.group.random_algebra(rng))))
    return vals, 1e-6, "paired vertical projector is action-equivariant", None


def _chk_connection_difference(s, rng, samples, step):
    if s.kind == "principal":
        omega1, omega2 = s.omega, s.omega_canonical
    else:
        omega1 = s.omega
        shift = np.hstack([np.full((s.group.dim, s.chart.dim), 0.35),
                           np.zeros((s.group.dim, s.group.dim))])
        omega2 = GeneralizedPrincipalConnection(
            s.action, s.nu, [(constant_weight(1.0), lambda y: s.omega.matrix(y) + shift)],
            label="shifted")
    rep = connection_difference(omega1, omega2).validate(rng, samples=min(samples, 100))
    return [rep["horizontality"], rep["ad_equivariance"]], 1e-7, \
        "difference of two connections is tensorial of adjoint type", None


def _curvature_omega(s):
    # the classical-family form has nonvanishing curvature across the whole
    # chart (the glued form is flat outside the weight ramp); it also sits
    # over a flat group connection, which representative independence needs
    # (see decisions ledger)
    return s.omega


def _chk_curvature_two_path(s, rng, samples, step):
    omega = _curvature_omega(s)
    vals = []
    for _ in range(min(samples, 4)):
        y = s.action.space.random_point(rng)
        u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
        vals.append(curvature(omega, y, u1, u2).gap)
    y = s.action.space.random_point(rng)
    gaps = [curvature(omega, y, np.eye(s.chart.dim)[0], np.eye(s.chart.dim)[-1], h=hh).gap
            for hh in (2e-2, 1e-2, 5e-3)]
    return vals, 1e-4, "bracket and covariant-exterior curvature paths agree", _order(gaps)


def _chk_curvature_antisymmetry(s, rng, samples, step):
    omega = _curvature_omega(s)
    vals = []
    for _ in range(min(samples, 4)):
        y = s.action.space.random_point(rng)
        u = rng.standard_normal(s.chart.dim)
        vals.append(np.linalg.norm(curvature(omega, y, u, u).value.coords))
    return vals, 1e-10, "curvature is antisymmetric in its arguments", None


def _chk_curvature_tensoriality(s, rng, samples, step):
    omega = _curvature_omega(s)
    vals = []
    for _ in range(min(samples, 3)):
        y = s.action.space.random_point(rng)
        u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
        a = curvature(omega, y, u1, u2).value.coords
        b = curvature(omega, y, 2.0 * u1, u2).value.coords
        vals.append(float(np.linalg.norm(2.0 * a - b)))
    return vals, 1e-6, "curvature value is pointwise tensorial in the arguments", None


def _chk_reduced_curvature(s, rng, samples, step):
    omega = _curvature_omega(s)
    vals = []
    for _ in range(min(samples, 4)):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        u1, u2 = rng.standard_normal(s.chart.dim), rng.standard_normal(s.chart.dim)
        vals.append(reduced_curvature_residual(omega, y, g, u1, u2))
    return vals, 1e-5, "reduced curvature is representative independent", None


def _chk_necessity(s, rng, samples, step):
    rep = necessity_check(_default_transport_omega(s), rng, samples=min(samples, 100))
    ok = rep["omega_ok"] and rep["nu_ok"]
    return [0.0 if ok else 1.0], 0.5, "valid form implies a multiplicative group connection", None


def _chk_classical_equivalence(s, rng, samples, step):
    rep = principal_equivalence_report(s, rng, samples=min(samples, 100))
    vals = [rep["classical_vertical"], rep["classical_right_equivariance"],
            rep["induced_complementarity"], rep["induced_ad_equivariance"]]
    return vals, 1e-8, "classical equivalence holds in both directions", None


def _chk_classical_negative(s, rng, samples, step):
    rep = principal_equivalence_report(s, rng, samples=min(samples, 50), drop_ad=True)
    vals = [rep["classical_right_equivariance"], rep["induced_ad_equivariance"]]
    return vals, 1e-3, "dropping the adjoint twist breaks both directions", None, "min>tol"


def _chk_affine_shift_equivariance(s, rng, samples, step):
    rep = affine_equivalence_report(s, rng, samples=min(samples, 200))
    return [rep["shift_equivariance"]], 1e-9, \
        "form shifts by the linear connection under fiber translation", None


def _chk_affine_reconstruction(s, rng, samples, step):
    res = affine_reconstruction_residual(s, s.omega.value, rng, samples=min(samples, 50))
    return [res], 1e-9, "linear-plus-offset coefficients reconstruct the form", None


def _chk_affine_transport_oracle(s, rng, samples, step):
    curve = s.curves["main"]
    x0 = curve.position(curve.a)
    y0s = [s.fiber_point(x0, rng.uniform(-1, 1, s.fiber_dim)) for _ in range(min(samples, 5))]
    coarse = transport_total(s.omega, curve, y0s, step=step)
    fine = transport_total(s.omega, curve, y0s, step=step / 4.0)
    vals = [float(np.linalg.norm(s.fiber_coords(end) - s.fiber_coords(ref)))
            for (end, _), (ref, _) in zip(coarse, fine)]
    return vals, 1e-7, "fiber transport agrees with a refined reference", None


# Rows stay sorted by check id, and each names the scenario kinds it runs on:
# a check's random substream is keyed by its position among its kind's rows.
_P, _A, _PA = ("principal",), ("affine",), ("principal", "affine")
_TORSOR_CHECKS = [
    ("action-axioms", _chk_action_axioms, _PA),
    ("affine-reconstruction", _chk_affine_reconstruction, _A),
    ("affine-shift-equivariance", _chk_affine_shift_equivariance, _A),
    ("affine-transport-self-consistency", _chk_affine_transport_oracle, _A),
    ("algebra-transport-adjoint", _chk_algebra_transport_adjoint, _P),
    ("algebra-transport-consistency", _chk_algebra_transport_consistency, _P),
    ("algebra-transport-linearity", _chk_algebra_transport_linearity, _P),
    ("classical-equivalence", _chk_classical_equivalence, _P),
    ("classical-equivalence-negative-control", _chk_classical_negative, _P),
    ("connection-difference-tensorial", _chk_connection_difference, _PA),
    ("covariant-product-rule", _chk_covariant_product_rule, _P),
    ("curvature-antisymmetry", _chk_curvature_antisymmetry, _PA),
    ("curvature-tensoriality", _chk_curvature_tensoriality, _P),
    ("curvature-two-path", _chk_curvature_two_path, _PA),
    ("form-ad-equivariance", _chk_form_equivariance, _PA),
    ("form-complementarity", _chk_form_complementarity, _PA),
    ("generator-equivariance", _chk_generator_equivariance, _P),
    ("generator-isomorphism", _chk_generator_isomorphism, _P),
    ("generator-verticality", _chk_generator_vertical, _PA),
    ("group-connection-laws", _chk_group_connection_laws, _PA),
    ("horizontal-product-rule", _chk_horizontal_product_rule, _P),
    ("horizontal-transform", _chk_horizontal_transform, _P),
    ("jet-equivariance", _chk_jet_equivariance, _P),
    ("paired-generators", _chk_paired_generators, _P),
    ("product-connection-equivariance", _chk_product_connection, _P),
    ("reduced-curvature-independence", _chk_reduced_curvature, _P),
    ("transport-compatibility", _chk_transport_compatibility, _PA),
    ("transport-multiplicative", _chk_transport_multiplicative, _P),
    ("transport-unit-inverse", _chk_transport_unit_inverse, _P),
    ("underlying-connection-necessity", _chk_necessity, _PA),
]


# ---------------------------------------------------------------------------
# gauge checks
# ---------------------------------------------------------------------------


def _chk_jet_group_axioms(s, rng, samples, step):
    vals = []
    e = GaugeJet.identity(s.group, s.n)
    for _ in range(min(samples, 1000)):
        k1 = GaugeJet.random(s.group, s.n, rng)
        k2 = GaugeJet.random(s.group, s.n, rng)
        k3 = GaugeJet.random(s.group, s.n, rng)
        vals.append(k1.mul(k2).mul(k3).distance(k1.mul(k2.mul(k3))))
        vals.append(k1.mul(e).distance(k1))
        vals.append(k1.mul(k1.inv()).distance(e))
    return vals, 1e-12, "semidirect jet group axioms and inverse formula", None


def _chk_jet_adjoint_closed_form(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 50)):
        k = GaugeJet.random(s.group, s.n, rng)
        eta = rng.uniform(-1, 1, s.group.dim)
        phi = rng.uniform(-1, 1, (s.n, s.group.dim))
        ad_eta, ad_phi = k.adjoint(eta, phi)
        big = element_from_gauge_jet(s.jet_descriptor, k)
        via = s.jet_descriptor.Ad(big, s.jet_descriptor.algebra(
            np.concatenate([eta, phi.reshape(-1)]))).coords
        vals.append(float(np.max(np.abs(
            np.concatenate([ad_eta, ad_phi.reshape(-1)]) - via))))
    return vals, 1e-12, "jet adjoint closed form matches the block descriptor", None


def _chk_jet_adjoint_fd(s, rng, samples, step):
    desc = s.jet_descriptor
    vals = []
    for _ in range(min(samples, 10)):
        k = GaugeJet.random(s.group, s.n, rng)
        eta = rng.uniform(-1, 1, s.group.dim)
        phi = rng.uniform(-1, 1, (s.n, s.group.dim))
        ad_eta, ad_phi = k.adjoint(eta, phi)
        big = element_from_gauge_jet(desc, k)
        coords = np.concatenate([eta, phi.reshape(-1)])
        dmat = central_difference(
            lambda e: (big @ desc.exp(desc.algebra(e * coords)) @ big.inverse()).matrix, 1e-6)
        fd = desc.matrix_coords(dmat, tol=1e-4)
        vals.append(float(np.max(np.abs(fd - np.concatenate([ad_eta, ad_phi.reshape(-1)])))))
    return vals, 1e-6, "jet adjoint matches the conjugation derivative", None


def _chk_jet_descriptor(s, rng, samples, step):
    rep = s.jet_descriptor.validate()
    return list(rep.values()), 1e-12, "block descriptor structure constants are consistent", None


def _chk_jet_connection_unit(s, rng, samples, step):
    val = jet_connection_value(GaugeJet.identity(s.group, s.n))
    res = float(np.max(np.abs(val.eta)) + np.max(np.abs(val.phi)))
    return [res], 1e-15, "horizontal jet at the unit is the unit jet", None


def _chk_jet_connection_mult(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 500)):
        vals.append(jet_connection_multiplicativity_residual(
            GaugeJet.random(s.group, s.n, rng), GaugeJet.random(s.group, s.n, rng)))
    return vals, 1e-12, "jet-group connection is multiplicative", None


def _chk_classification_equivariance(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 200)):
        vals.append(classification_equivariance_residual(
            s.omega_hat, GaugeJet.random(s.group, s.n, rng), GaugeJet.random(s.group, s.n, rng)))
    return vals, 1e-10, "equivariant jet connections have the classified form", None


def _chk_classification_reconstruction(s, rng, samples, step):
    x = np.zeros(s.n)
    f_got, g_got = extract_classifying_sections(s.omega_hat, x, s.n, s.group)
    rebuilt = EquivariantJetConnection(s.group, s.n, f=lambda _: f_got, g2=lambda _: g_got)
    vals = []
    for _ in range(min(samples, 100)):
        w = GaugeJet.random(s.group, s.n, rng)
        vals.append(rebuilt(x, w).distance(s.omega_hat(x, w)))
    return vals, 1e-10, "classifying sections reconstruct the connection", None


def _chk_classification_negative(s, rng, samples, step):
    broken = EquivariantJetConnection(
        s.group, s.n, f=lambda x: 0.5 * np.ones((s.n, s.group.dim)), drop_ad_twist=True)
    vals = []
    for _ in range(min(samples, 50)):
        vals.append(classification_equivariance_residual(
            broken, GaugeJet.random(s.group, s.n, rng), GaugeJet.random(s.group, s.n, rng)))
    if s.group.name.startswith("translation"):
        # abelian adjoint is trivial, so the dropped twist cannot be detected;
        # report the expected-zero residual as a pass
        return vals, 1e-12, "dropping the adjoint twist is invisible for abelian fibers", None
    return vals, 1e-3, "dropping the adjoint twist breaks equivariance", None, "min>tol"


def _chk_curvature_invariance(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 1000)):
        jet = ConnectionJet.random(s.group, s.n, rng)
        gauge = GaugeSecondJet.random(s.group, s.n, rng)
        before = curvature_map(jet)
        after = curvature_map(apply_gauge_second_jet(jet, gauge))
        vals.append(float(np.max(np.abs(after - before))))
    return vals, 1e-12, "curvature map is invariant under identity-value second jets", None


def _chk_gauge_freeness(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 200)):
        jet = ConnectionJet.random(s.group, s.n, rng)
        gauge = GaugeSecondJet.random(s.group, s.n, rng)
        vals.append(0.0 if fixed_point_is_trivial(jet, gauge) else 1.0)
    return vals, 0.5, "only the zero second jet fixes a connection jet", None


def _chk_gauge_surjectivity(s, rng, samples, step):
    vals = []
    for _ in range(min(samples, 50)):
        raw = rng.uniform(-1, 1, (s.n, s.n, s.group.dim))
        target = raw - np.swapaxes(raw, 0, 1)
        jet = jet_realizing_curvature(s.group, target)
        vals.append(float(np.max(np.abs(curvature_map(jet) - target))))
    return vals, 1e-12, "every antisymmetric target arises from some connection jet", None


_GAUGE_CHECKS = [
    ("classification-equivariance", _chk_classification_equivariance),
    ("classification-negative-control", _chk_classification_negative),
    ("classification-reconstruction", _chk_classification_reconstruction),
    ("curvature-map-invariance", _chk_curvature_invariance),
    ("curvature-target-realization", _chk_gauge_surjectivity),
    ("jet-adjoint-closed-form", _chk_jet_adjoint_closed_form),
    ("jet-adjoint-fd-cross-check", _chk_jet_adjoint_fd),
    ("jet-connection-multiplicative", _chk_jet_connection_mult),
    ("jet-connection-unit", _chk_jet_connection_unit),
    ("jet-descriptor-consistency", _chk_jet_descriptor),
    ("jet-group-axioms", _chk_jet_group_axioms),
    ("restricted-action-freeness", _chk_gauge_freeness),
]

def _checks_for(kind):
    if kind == "gauge":
        return _GAUGE_CHECKS
    return [(name, fn) for name, fn, kinds in _TORSOR_CHECKS if kind in kinds]


def available_checks(kind):
    return [name for name, _ in _checks_for(kind)]


def suite_checks(scenario):
    return _checks_for(scenario.kind)


def run_suite(scenario, seed=0, samples=None, step=None, only=None):
    """Run the applicable checks; returns a list of CheckRecord.

    Each check's random substream is keyed by its position in the full suite,
    so filtering with ``only`` does not change the numbers of the remaining
    checks.
    """
    checks = list(enumerate(suite_checks(scenario)))
    if only is not None:
        wanted = [c.strip() for c in only if c.strip()]
        if not wanted:
            raise UsageError("empty check list")
        known = {name for _, (name, _) in checks}
        unknown = [c for c in wanted if c not in known]
        if unknown:
            raise UsageError(f"unknown checks for {scenario.kind}: {', '.join(unknown)}")
        checks = [(i, (n, f)) for i, (n, f) in checks if n in wanted]
    samples = int(samples if samples is not None else scenario.config.get("samples", 100))
    step = float(step if step is not None else scenario.config.get("step", 5e-3))
    records = []
    for index, (name, fn) in checks:
        rng = _rng_for(seed, index)
        out = fn(scenario, rng, samples, step)
        vals, tol, label, order = out[:4]
        mode = out[4] if len(out) > 4 else "max<=tol"
        tol = tolerance_for(scenario.config, name, tol)
        records.append(make_record(
            name, label, scenario.name, vals, tol, samples=len(vals), order=order, mode=mode))
    return records
