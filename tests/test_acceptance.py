"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here exactly as stated.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from liebundles.connections import (
    transport_multiplicativity_check,
    transport_unit_inverse_check,
)
from liebundles.gauge import (
    ConnectionJet,
    EquivariantJetConnection,
    GaugeJet,
    GaugeSecondJet,
    apply_gauge_second_jet,
    classification_equivariance_residual,
    curvature_map,
    element_from_gauge_jet,
    extract_classifying_sections,
    jet_connection_multiplicativity_residual,
    restricted_action_move,
)
from liebundles.principal import (
    curvature,
    reduced_curvature_residual,
    transport_compatibility_check,
    transport_total,
    validate_principal_connection,
)
from liebundles.scenarios import (
    affine_equivalence_report,
    affine_reconstruction_residual,
    build_scenario,
    principal_equivalence_report,
    random_curve,
)

from _oracles import affine_transport_oracle, observed_order

PRINCIPAL = build_scenario("principal-so3")
AFFINE = build_scenario("affine-constant")
GAUGE = build_scenario("gauge-jet-so3")


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert passed, detail


def test_criterion_01_transport_multiplicativity_order_and_runtime():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    s = PRINCIPAL
    residuals = []
    for _ in range(100):
        curve = random_curve(s.chart, rng, interval=(0.0, 0.3))
        g, h = s.group.random_element(rng), s.group.random_element(rng)
        residuals.append(transport_multiplicativity_check(s.nu, curve, g, h, step=1e-3))
    worst = max(residuals)
    curve = random_curve(s.chart, rng, interval=(0.0, 0.3))
    g, h = s.group.random_element(rng), s.group.random_element(rng)
    errs = [transport_multiplicativity_check(s.nu, curve, g, h, step=st)
            for st in (0.05, 0.025, 0.0125)]
    order = observed_order(errs)
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-7 and order >= 3.5 and elapsed <= 30.0,
        f"transport multiplicativity max={worst:.2e} (tol 1e-7), "
        f"order={order:.2f} (>=3.5), runtime={elapsed:.1f}s (<=30s)",
    )


def test_criterion_02_transport_unit_and_inverse():
    rng = np.random.default_rng(102)
    s = PRINCIPAL
    residuals = []
    for _ in range(50):
        curve = random_curve(s.chart, rng, interval=(0.0, 0.3))
        unit_res, inv_res = transport_unit_inverse_check(
            s.nu, curve, s.group.random_element(rng), step=2e-3)
        residuals.extend([unit_res, inv_res])
    worst = max(residuals)
    _report(
        2,
        len(residuals) == 100 and worst <= 1e-8,
        f"unit/inverse transport residuals max={worst:.2e} on 100 samples (tol 1e-8)",
    )


def test_criterion_03_connection_form_laws_single_and_glued():
    rng = np.random.default_rng(103)
    s = PRINCIPAL
    worst = 0.0
    for omega in (s.forms["canonical"], s.forms["glued"]):
        rep = validate_principal_connection(omega, rng, samples=1000)
        worst = max(worst, rep["complementarity"], rep["ad_equivariance"])
    _report(
        3,
        worst <= 1e-8,
        f"complementarity/equivariance max={worst:.2e} on 1000 samples, "
        "single-chart and two-chart glued (tol 1e-8)",
    )


def test_criterion_04_transport_compatibility_and_order():
    rng = np.random.default_rng(104)
    s = PRINCIPAL
    residuals = []
    for _ in range(100):
        curve = random_curve(s.chart, rng, interval=(0.0, 0.25))
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        residuals.append(transport_compatibility_check(s.transport_form, curve, y, g, step=5e-3))
    worst = max(residuals)
    curve = random_curve(s.chart, rng, interval=(0.0, 0.25))
    y = s.action.space.random_point(rng)
    g = s.group.random_element(rng)
    errs = [transport_compatibility_check(s.transport_form, curve, y, g, step=st)
            for st in (0.05, 0.025, 0.0125)]
    order = observed_order(errs)
    _report(
        4,
        worst <= 1e-7 and order >= 3.5,
        f"transport compatibility max={worst:.2e} on 100 samples (tol 1e-7), "
        f"order={order:.2f} (>=3.5)",
    )


def test_criterion_05_curvature_two_path_agreement():
    rng = np.random.default_rng(105)
    s = PRINCIPAL
    gaps = []
    for _ in range(10):
        y = s.action.space.random_point(rng)
        u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
        gaps.append(curvature(s.omega, y, u1, u2).gap)
    worst = max(gaps)
    y = s.action.space.random_point(rng)
    sweep = [curvature(s.omega, y, [1.0, 0.0], [0.0, 1.0], h=h).gap
             for h in (2e-2, 1e-2, 5e-3)]
    order = observed_order(sweep)
    _report(
        5,
        worst <= 1e-4 and order >= 1.8,
        f"curvature path gap max={worst:.2e} at default step (tol 1e-4), "
        f"refinement order={order:.2f} (>=1.8)",
    )


def test_criterion_06_reduced_curvature_representative_independence():
    rng = np.random.default_rng(106)
    s = PRINCIPAL
    residuals = []
    for _ in range(100):
        y = s.action.space.random_point(rng)
        g = s.group.random_element(rng)
        u1, u2 = rng.standard_normal(2), rng.standard_normal(2)
        residuals.append(reduced_curvature_residual(s.omega, y, g, u1, u2))
    worst = max(residuals)
    _report(
        6,
        worst <= 1e-5,
        f"reduced curvature representative independence max={worst:.2e} "
        "on 100 samples (tol 1e-5)",
    )


def test_criterion_07_classical_equivalence_and_negative_control():
    rng = np.random.default_rng(107)
    rep = principal_equivalence_report(PRINCIPAL, rng, samples=100)
    good = max(rep["classical_vertical"], rep["classical_right_equivariance"],
               rep["induced_complementarity"], rep["induced_ad_equivariance"])
    bad = principal_equivalence_report(PRINCIPAL, rng, samples=50, drop_ad=True)
    broken = min(bad["classical_right_equivariance"], bad["induced_ad_equivariance"])
    _report(
        7,
        good <= 1e-8 and broken > 1e-3,
        f"classical equivalence both directions max={good:.2e} (tol 1e-8); "
        f"negative control min residual={broken:.2e} (> 1e-3)",
    )


def test_criterion_08_affine_reconstruction_and_closed_form():
    rng = np.random.default_rng(108)
    s = AFFINE
    recon = affine_reconstruction_residual(s, s.omega, rng, samples=50)
    equiv = affine_equivalence_report(s, rng, samples=200)

    curve = s.curves["main"]
    worst_transport = 0.0
    for _ in range(10):
        y0v = rng.uniform(-1, 1, s.group.dim)
        y0 = s.fiber_point(curve.position(curve.a), y0v)
        end, _ = transport_total(s.omega, curve, y0, step=1e-3)
        u = (curve.position(curve.b) - curve.position(curve.a)) / (curve.b - curve.a)
        nu_u = np.tensordot(u, s.nu_coeff(curve.position(curve.a)), axes=(0, 0))
        gamma_u = u @ s.gamma(curve.position(curve.a))
        expected = affine_transport_oracle(nu_u, gamma_u, curve.b - curve.a, y0v)
        worst_transport = max(worst_transport,
                              float(np.linalg.norm(s.group.log(end.fiber).coords - expected)))
    _report(
        8,
        recon <= 1e-9 and equiv["shift_equivariance"] <= 1e-9 and worst_transport <= 1e-7,
        f"affine reconstruction={recon:.2e} (tol 1e-9), shift equivariance="
        f"{equiv['shift_equivariance']:.2e}, transport vs exponential oracle="
        f"{worst_transport:.2e} (tol 1e-7)",
    )


def test_criterion_09_jet_group_algebra():
    rng = np.random.default_rng(109)
    s = GAUGE
    e = GaugeJet.identity(s.group, s.n)
    axiom_worst = 0.0
    for _ in range(1000):
        k1 = GaugeJet.random(s.group, s.n, rng)
        k2 = GaugeJet.random(s.group, s.n, rng)
        k3 = GaugeJet.random(s.group, s.n, rng)
        axiom_worst = max(
            axiom_worst,
            k1.mul(k2).mul(k3).distance(k1.mul(k2.mul(k3))),
            k1.mul(k1.inv()).distance(e),
        )

    adjoint_worst = 0.0
    fd_worst = 0.0
    for _ in range(25):
        k = GaugeJet.random(s.group, s.n, rng)
        eta = rng.uniform(-1, 1, s.group.dim)
        phi = rng.uniform(-1, 1, (s.n, s.group.dim))
        ad_eta, ad_phi = k.adjoint(eta, phi)
        big = element_from_gauge_jet(s.jet_descriptor, k)
        coords = np.concatenate([eta, phi.reshape(-1)])
        via = s.jet_descriptor.Ad(big, s.jet_descriptor.algebra(coords)).coords
        adjoint_worst = max(adjoint_worst, float(np.max(np.abs(
            np.concatenate([ad_eta, ad_phi.reshape(-1)]) - via))))
        eps = 1e-6
        plus = big @ s.jet_descriptor.exp(s.jet_descriptor.algebra(eps * coords)) @ big.inverse()
        minus = big @ s.jet_descriptor.exp(s.jet_descriptor.algebra(-eps * coords)) @ big.inverse()
        fd = s.jet_descriptor.matrix_coords((plus.matrix - minus.matrix) / (2 * eps), tol=1e-4)
        fd_worst = max(fd_worst, float(np.max(np.abs(
            fd - np.concatenate([ad_eta, ad_phi.reshape(-1)])))))

    mult_worst = 0.0
    for _ in range(1000):
        mult_worst = max(mult_worst, jet_connection_multiplicativity_residual(
            GaugeJet.random(s.group, s.n, rng), GaugeJet.random(s.group, s.n, rng)))

    x = np.zeros(s.n)
    f_got, g_got = extract_classifying_sections(s.omega_hat, x)
    rebuilt = EquivariantJetConnection(s.group, s.n, f=lambda _: f_got, g2=lambda _: g_got)
    recon_worst = 0.0
    equi_worst = 0.0
    for _ in range(100):
        w = GaugeJet.random(s.group, s.n, rng)
        recon_worst = max(recon_worst, rebuilt(x, w).distance(s.omega_hat(x, w)))
        equi_worst = max(equi_worst, classification_equivariance_residual(
            s.omega_hat, GaugeJet.random(s.group, s.n, rng), w))

    _report(
        9,
        axiom_worst <= 1e-12 and adjoint_worst <= 1e-12 and fd_worst <= 1e-6
        and mult_worst <= 1e-12 and max(recon_worst, equi_worst) <= 1e-10,
        f"jet group axioms={axiom_worst:.2e} (1e-12), adjoint closed-form="
        f"{adjoint_worst:.2e} (1e-12), adjoint FD={fd_worst:.2e} (1e-6), "
        f"connection multiplicativity={mult_worst:.2e} (1e-12), "
        f"classification={max(recon_worst, equi_worst):.2e} (1e-10)",
    )


def test_criterion_10_curvature_map_invariance_freeness_runtime():
    start = time.monotonic()
    rng = np.random.default_rng(110)
    s = GAUGE
    worst = 0.0
    free_ok = True
    for _ in range(1000):
        jet = ConnectionJet.random(s.group, s.n, rng)
        gauge = GaugeSecondJet.random(s.group, s.n, rng)
        before = curvature_map(jet)
        after = curvature_map(apply_gauge_second_jet(jet, gauge))
        worst = max(worst, float(np.max(np.abs(after - before))))
        free_ok = free_ok and restricted_action_move(jet, gauge) > 1e-12
    zero = GaugeSecondJet(s.group, np.zeros((s.n, s.group.dim)),
                          np.zeros((s.n, s.n, s.group.dim)))
    jet = ConnectionJet.random(s.group, s.n, rng)
    moved = apply_gauge_second_jet(jet, zero)
    zero_fixes = (np.max(np.abs(moved.A - jet.A)) == 0.0
                  and np.max(np.abs(moved.DA - jet.DA)) == 0.0)
    elapsed = time.monotonic() - start
    _report(
        10,
        worst <= 1e-12 and free_ok and zero_fixes and elapsed <= 10.0,
        f"curvature invariance max={worst:.2e} over 1000 jets (tol 1e-12), "
        f"freeness={'ok' if free_ok else 'violated'}, runtime={elapsed:.1f}s (<=10s)",
    )


def test_criterion_11_cli_determinism(tmp_path):
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    cmd = [sys.executable, "-m", "liebundles.cli", "validate", "--scenario",
           "gauge-jet-so3", "--seed", "7", "--no-meta"]
    r1 = subprocess.run(cmd + ["--out", str(out1)], capture_output=True, text=True)
    r2 = subprocess.run(cmd + ["--out", str(out2)], capture_output=True, text=True)
    same = out1.read_bytes() == out2.read_bytes()
    _report(
        11,
        r1.returncode == 0 and r2.returncode == 0 and same,
        f"two seeded runs exit ({r1.returncode},{r2.returncode}) and reports are "
        f"{'byte-identical' if same else 'DIFFERENT'}",
    )
