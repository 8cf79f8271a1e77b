"""Curve families: each row of a family run against its curve run alone."""

import numpy as np
import pytest

from liebundles.bundles import TotalPoint
from liebundles.calculus import BaseCurve
from liebundles.connections import (
    AlgebraConnection,
    _algebra_flow,
    ad_compatibility_check,
    algebra_transport,
    algebra_transport_fd,
    algebra_transport_linearity_check,
    transport_group,
    transport_multiplicativity_check,
    transport_unit_inverse_check,
)
from liebundles.errors import InstabilityError
from liebundles.principal import transport_compatibility_check, transport_total
from liebundles.scenarios import build_scenario, random_wiggle

PRINCIPAL = build_scenario("principal-so3")
AFFINE = build_scenario("affine-varying")
C = 5


def _family(scenario, seed, count=C):
    """A family of random wiggles, the same curves one at a time, and the rng."""
    rng = np.random.default_rng(seed)
    params = [random_wiggle(scenario.chart, rng) for _ in range(count)]
    lone = [BaseCurve.wiggle(*p, (0.0, 0.4)) for p in params]
    family = BaseCurve.wiggle(*(np.array(p) for p in zip(*params)), (0.0, 0.4))
    return family, lone, rng


def _elements(scenario, rng, count=C):
    return np.stack([scenario.group.random_element(rng).matrix for _ in range(count)])


def _algebras(scenario, rng, count=C):
    return np.stack([scenario.group.random_algebra(rng).coords for _ in range(count)])


def test_wiggle_family_rows_are_bitwise_lone_curves():
    family, lone, _ = _family(PRINCIPAL, 30)
    for t in np.linspace(0.0, 0.4, 17):
        assert family.position(t).shape == (C, 2)
        assert np.array_equal(family.position(t), np.stack([c.position(t) for c in lone]))
        assert np.array_equal(family.velocity(t), np.stack([c.velocity(t) for c in lone]))
        tiled = family.repeat(3).position(t)
        assert np.array_equal(tiled, np.concatenate([family.position(t)] * 3))
    assert lone[0].repeat(3) is lone[0]


@pytest.mark.parametrize("nu_name", ["nu", "nu_glued"])
def test_group_family_rows_match_lone_curves(nu_name):
    s = PRINCIPAL
    nu = s.nus[nu_name]
    family, lone, rng = _family(s, 31)
    g = _elements(s, rng)
    rows = transport_group(nu, family, s.group.element(g), step=0.01).element.matrix
    assert rows.shape == g.shape
    for curve, g_c, row in zip(lone, g, rows):
        alone = transport_group(nu, curve, s.group.element(g_c), step=0.01).element.matrix
        assert np.max(np.abs(row - alone)) <= 1e-14


@pytest.mark.parametrize("scenario, omega_name", [(PRINCIPAL, "omega_glued"), (AFFINE, "omega")])
def test_total_family_rows_match_lone_curves(scenario, omega_name):
    omega = {"omega": scenario.omega, "omega_glued": scenario.transport_form}[omega_name]
    family, lone, rng = _family(scenario, 32)
    starts = [scenario.action.space.random_point(rng) for _ in range(C)]
    y0 = TotalPoint(np.stack([y.q for y in starts]),
                    scenario.group.element(np.stack([y.fiber.matrix for y in starts])))
    end, result = transport_total(omega, family, y0, step=0.01)
    m = scenario.group.matrix_dim
    assert end.fiber.matrix.shape == (C, m, m) and result.membership_residual.shape == (C,)
    for c, (curve, y) in enumerate(zip(lone, starts)):
        alone, _ = transport_total(omega, curve, y, step=0.01)
        assert np.max(np.abs(end.fiber.matrix[c] - alone.fiber.matrix)) <= 1e-14
        assert np.array_equal(end.q[c], alone.q)


def test_algebra_flow_family_rows_match_lone_curves():
    s = PRINCIPAL
    family, lone, rng = _family(s, 33)
    xi = _algebras(s, rng)
    out = algebra_transport(s.nu, family, s.group.algebra(xi), step=0.01).coords
    assert out.shape == (C, s.group.dim)
    # per-curve agreement with the differenced group transport
    scale = np.maximum(1.0, np.linalg.norm(xi, axis=-1))
    fd = algebra_transport_fd(s.nu, family, s.group.algebra(xi), 1e-4 / scale, 0.01)
    assert np.all(np.linalg.norm(fd - out, axis=-1) <= 1e-5 * scale)
    columns = rng.standard_normal((C, s.group.dim, 4))
    flows = _algebra_flow(s.nu, family, columns, 0.01)
    assert flows.shape == columns.shape
    for c, curve in enumerate(lone):
        alone = algebra_transport(s.nu, curve, s.group.algebra(xi[c]), step=0.01).coords
        assert np.max(np.abs(out[c] - alone)) <= 1e-14
        assert np.max(np.abs(flows[c] - _algebra_flow(s.nu, curve, columns[c], 0.01))) <= 1e-14


def test_checks_return_one_residual_per_curve():
    s = PRINCIPAL
    family, lone, rng = _family(s, 34)
    g, h, xi, eta = _elements(s, rng), _elements(s, rng), _algebras(s, rng), _algebras(s, rng)
    a, b = rng.uniform(-2, 2, C), rng.uniform(-2, 2, C)
    ys = [s.action.space.random_point(rng) for _ in range(C)]
    y = TotalPoint(np.stack([p.q for p in ys]), s.group.element(np.stack([p.fiber.matrix for p in ys])))
    el, alg = s.group.element, s.group.algebra

    family_runs = {
        "multiplicative": transport_multiplicativity_check(s.nu, family, el(g), el(h), 0.01),
        "unit-inverse": np.column_stack(transport_unit_inverse_check(s.nu, family, el(g), 0.01)),
        "linearity": algebra_transport_linearity_check(
            s.nu, family, alg(xi), alg(eta), a, b, 0.01),
        "adjoint": ad_compatibility_check(s.nu, family, el(g), alg(xi), 0.01),
        "compatibility": transport_compatibility_check(s.transport_form, family, y, el(g), 0.01),
    }
    for c, curve in enumerate(lone):
        lone_runs = {
            "multiplicative": transport_multiplicativity_check(s.nu, curve, el(g[c]), el(h[c]), 0.01),
            "unit-inverse": transport_unit_inverse_check(s.nu, curve, el(g[c]), 0.01),
            "linearity": algebra_transport_linearity_check(
                s.nu, curve, alg(xi[c]), alg(eta[c]), a[c], b[c], 0.01),
            "adjoint": ad_compatibility_check(s.nu, curve, el(g[c]), alg(xi[c]), 0.01),
            "compatibility": transport_compatibility_check(s.transport_form, curve, ys[c], el(g[c]), 0.01),
        }
        for name, residual in lone_runs.items():
            assert isinstance(residual, (float, tuple)), name
            assert len(family_runs[name]) == C, name
            assert np.max(np.abs(family_runs[name][c] - np.asarray(residual))) <= 1e-14, name


def test_family_with_nonfinite_row_names_it():
    s = PRINCIPAL
    rng = np.random.default_rng(35)
    params = [random_wiggle(s.chart, rng) for _ in range(3)]
    start, end, amps = (np.array(p) for p in zip(*params))
    amps[1, 0] = np.nan
    family = BaseCurve.wiggle(start, end, amps, (0.0, 0.4))
    with pytest.raises(InstabilityError, match=r"rows \[1\] "):
        transport_group(s.nu, family, s.group.element(_elements(s, rng, 3)), step=0.01)
    # three fibers per curve: rows 1, 4 and 7 ride the broken curve
    g, h = s.group.element(_elements(s, rng, 3)), s.group.element(_elements(s, rng, 3))
    with pytest.raises(InstabilityError, match=r"rows \[1, 4, 7\] "):
        transport_multiplicativity_check(s.nu, family, g, h, step=0.01)


@pytest.mark.parametrize("scenario, nu_name", [
    (PRINCIPAL, "nu"), (PRINCIPAL, "nu_glued"), (PRINCIPAL, "nu0"), (AFFINE, "nu")])
def test_generator_on_a_batch_of_points_matches_each_point(scenario, nu_name):
    conn = AlgebraConnection({"nu0": scenario.omega.nu, **scenario.nus}[nu_name])
    rng = np.random.default_rng(38)
    x = np.column_stack([rng.uniform(-0.3, 0.3, 6), rng.uniform(-0.9, 0.9, 6)])
    u = rng.standard_normal((6, 2))
    batch = conn.generator(x, u)
    d = scenario.group.dim
    assert batch.shape == (6, d, d)
    for r in range(6):
        assert np.max(np.abs(batch[r] - conn.generator(x[r], u[r]))) <= 1e-14
