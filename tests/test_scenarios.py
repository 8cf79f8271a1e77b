"""Scenario fixture tests: presets build, equivalences hold, oracles match."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liebundles.bundles import Tangent
from liebundles.connections import transport_group, validate_group_connection
from liebundles.errors import UsageError
from liebundles.principal import transport_total, validate_principal_connection
from liebundles.scenarios import (
    PRESET_NAMES,
    affine_equivalence_report,
    affine_reconstruction_residual,
    build_scenario,
    preset_config,
    principal_equivalence_report,
    random_curve,
)
from liebundles.suites import available_checks

from _oracles import affine_transport_oracle

PRINCIPAL = build_scenario("principal-so3")
AFFINE_CONST = build_scenario("affine-constant")
AFFINE_VAR = build_scenario("affine-varying")
GAUGE = build_scenario("gauge-jet-so3")


def test_all_presets_build():
    for name in PRESET_NAMES:
        scenario = build_scenario(name)
        assert scenario.name == name


@pytest.mark.parametrize("kind", ["principal", "affine", "gauge"])
def test_check_table_is_sorted_by_id(kind):
    # run_suite keys each check's random substream by its position in the list
    # of its kind, so a row out of order would change the numbers of others
    names = available_checks(kind)
    assert names == sorted(names) and len(names) == len(set(names))


def test_unknown_preset_raises():
    with pytest.raises(UsageError):
        preset_config("nope")


def test_principal_scenario_connections_validate():
    rng = np.random.default_rng(0)
    assert max(validate_group_connection(PRINCIPAL.nu, rng, samples=50).values()) <= 1e-6
    for omega in (PRINCIPAL.omega, PRINCIPAL.omega_glued):
        report = validate_principal_connection(omega, rng, samples=100)
        assert report["complementarity"] <= 1e-8
        assert report["ad_equivariance"] <= 1e-8


def test_principal_equivalence_both_directions():
    rng = np.random.default_rng(1)
    report = principal_equivalence_report(PRINCIPAL, rng, samples=100)
    assert report["classical_vertical"] <= 1e-12
    assert report["classical_right_equivariance"] <= 1e-12
    assert report["induced_complementarity"] <= 1e-8
    assert report["induced_ad_equivariance"] <= 1e-8


def test_principal_equivalence_negative_control():
    rng = np.random.default_rng(2)
    report = principal_equivalence_report(PRINCIPAL, rng, samples=50, drop_ad=True)
    assert report["classical_right_equivariance"] > 1e-3
    assert report["induced_ad_equivariance"] > 1e-3


def test_affine_form_matches_coefficients_pointwise():
    rng = np.random.default_rng(3)
    scenario = AFFINE_VAR
    x = scenario.chart.sample(rng)
    yv = rng.uniform(-1, 1, 2)
    u = rng.standard_normal(2)
    dy = scenario.group.algebra(rng.uniform(-1, 1, 2))
    y = scenario.fiber_point(x, yv)
    got = scenario.omega.value(y, Tangent(u, dy)).coords
    k = np.tensordot(u, scenario.nu_coeff(x), axes=(0, 0))
    expected = k @ yv + u @ scenario.gamma(x) + dy.coords
    assert np.allclose(got, expected, atol=1e-12)


def test_affine_equivalence_reports():
    rng = np.random.default_rng(4)
    for scenario in (AFFINE_CONST, AFFINE_VAR):
        report = affine_equivalence_report(scenario, rng, samples=100)
        assert report["shift_equivariance"] <= 1e-10
        generic = validate_principal_connection(scenario.omega, rng, samples=100)
        assert generic["complementarity"] <= 1e-10
        assert generic["ad_equivariance"] <= 1e-10


def test_affine_reconstruction_exact():
    rng = np.random.default_rng(5)
    for scenario in (AFFINE_CONST, AFFINE_VAR):
        res = affine_reconstruction_residual(scenario, scenario.omega.value, rng, samples=30)
        assert res <= 1e-9


def _affine_with_nu_coeff(coeffs):
    config = preset_config("affine-constant")
    config["nu_coeff"] = {"constant": np.reshape(coeffs, (2, 2, 2)).tolist()}
    return build_scenario(config)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), st.integers(-3, 9))
def test_affine_group_connection_laws_hold_relative_to_coefficients(unit_coeffs, exponent):
    # the affine lift map -K(x, u) log g is additive in log g, so its laws
    # hold to roundoff relative to the size of K, whatever the config
    coeffs = np.asarray(unit_coeffs) * 10.0 ** exponent
    scenario = _affine_with_nu_coeff(coeffs)
    report = validate_group_connection(scenario.nu, np.random.default_rng(0), samples=25)
    assert max(report.values()) <= 1e-13 * max(1.0, np.max(np.abs(coeffs)))


def test_affine_config_with_large_coefficient_builds():
    scenario = _affine_with_nu_coeff([1e8, 0.0, 0.0, -0.3, 0.2, 0.0, 0.0, 0.4])
    report = validate_group_connection(scenario.nu, np.random.default_rng(0), samples=25)
    assert report["unit_kernel"] == 0.0
    assert max(report.values()) <= 1e-13 * 1e8


def test_affine_constant_transport_matches_exponential_oracle():
    scenario = AFFINE_CONST
    curve = scenario.curves["main"]
    rng = np.random.default_rng(6)
    y0v = rng.uniform(-1, 1, 2)
    y0 = scenario.fiber_point(curve.position(curve.a), y0v)
    end, _ = transport_total(scenario.omega, curve, y0, step=1e-3)
    got = scenario.fiber_coords(end)

    # straight line: constant-coefficient linear system with augmented expm
    start_x, end_x = curve.position(curve.a), curve.position(curve.b)
    u = (end_x - start_x) / (curve.b - curve.a)
    nu_u = np.tensordot(u, scenario.nu_coeff(start_x), axes=(0, 0))
    gamma_u = u @ scenario.gamma(start_x)
    expected = affine_transport_oracle(nu_u, gamma_u, curve.b - curve.a, y0v)
    assert np.linalg.norm(got - expected) <= 1e-7


def test_affine_group_transport_is_linear_map():
    scenario = AFFINE_CONST
    curve = scenario.curves["main"]
    rng = np.random.default_rng(7)
    v = rng.uniform(-1, 1, 2)
    g = scenario.group.exp(scenario.group.algebra(v))
    out = transport_group(scenario.nu, curve, g, step=1e-3).element
    nu_u = np.tensordot(
        (curve.position(curve.b) - curve.position(curve.a)) / (curve.b - curve.a),
        scenario.nu_coeff(curve.position(curve.a)), axes=(0, 0),
    )
    expected = affine_transport_oracle(nu_u, np.zeros(2), curve.b - curve.a, v)
    assert np.linalg.norm(scenario.group.log(out).coords - expected) <= 1e-8


def test_gauge_scenario_sections_evaluate():
    x = np.array([0.3, -0.2])
    f = GAUGE.f_section(x)
    g2 = GAUGE.g_section(x)
    assert f.shape == (2, 3)
    assert g2.shape == (2, 2, 3)
    assert f[0, 0] == pytest.approx(0.3 + 0.5 * 0.3)


def test_random_curve_stays_in_chart():
    rng = np.random.default_rng(8)
    for _ in range(5):
        c = random_curve(PRINCIPAL.chart, rng)
        c.validate(PRINCIPAL.chart)
