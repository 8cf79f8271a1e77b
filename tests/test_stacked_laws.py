"""The sampled-law validators draw one sample at a time and evaluate one stack
of samples.  Each must return exactly the numbers of its per-sample loop in
_oracles, with no tolerance, and leave the RNG where that loop leaves it."""

import inspect

import numpy as np
import pytest

from liebundles import integrators, suites
from liebundles.bundles import TotalPoint
from liebundles.connections import validate_group_connection
from liebundles.errors import UsageError
from liebundles.calculus import Uniform, sample_rows
from liebundles.groups import _dexp_operator
from liebundles.principal import (connection_difference, curvature, validate_principal_connection,
                                  validate_tensorial_form)
from liebundles.scenarios import (affine_equivalence_report, affine_reconstruction_residual,
                                  build_scenario, drop_ad_form, principal_equivalence_report)

from _oracles import (
    action_axioms_oracle,
    affine_equivalence_oracle,
    affine_reconstruction_oracle,
    gauge_check_oracles,
    group_connection_oracle,
    jet_adjoint_fd_oracle,
    principal_connection_oracle,
    principal_equivalence_oracle,
    tensorial_form_oracle,
    torsor_check_oracles,
)

SCENARIOS = {name: build_scenario(name)
             for name in ("principal-so3", "affine-constant", "affine-varying")}


def _subjects(s):
    """(label, stacked validator, per-sample oracle), each called as f(rng, samples)."""
    def form_law(omega):
        return (lambda rng, k: validate_principal_connection(omega, rng, samples=k),
                lambda rng, k: principal_connection_oracle(omega, rng, k))

    def cocycle_law(nu):
        return (lambda rng, k: validate_group_connection(nu, rng, samples=k),
                lambda rng, k: group_connection_oracle(nu, rng, k))

    out = {f"forms.{key}": form_law(omega) for key, omega in s.forms.items()}
    out.update({f"nus.{key}": cocycle_law(nu) for key, nu in s.nus.items()})
    out["transport_form"] = form_law(s.transport_form)
    out["transport_form.nu"] = cocycle_law(s.transport_form.nu)
    diff = connection_difference(*s.difference_pair)
    out["difference"] = (lambda rng, k: validate_tensorial_form(diff, rng, samples=k),
                         lambda rng, k: tensorial_form_oracle(diff, rng, k))
    out["action"] = (lambda rng, k: s.action.validate(rng, samples=k),
                     lambda rng, k: action_axioms_oracle(s.action, rng, k))
    if s.base_form is not None:
        for drop_ad in (False, True):
            out[f"classical.drop_ad={drop_ad}"] = (
                lambda rng, k, d=drop_ad: principal_equivalence_report(s, rng, samples=k, drop_ad=d),
                lambda rng, k, d=drop_ad: principal_equivalence_oracle(s, rng, k, drop_ad=d))
    if s.nu_coeff is not None:
        out["affine_equivalence"] = (
            lambda rng, k: affine_equivalence_report(s, rng, samples=k),
            lambda rng, k: affine_equivalence_oracle(s, rng, k))
        out["affine_reconstruction"] = (
            lambda rng, k: affine_reconstruction_residual(s, s.omega, rng, samples=k),
            lambda rng, k: affine_reconstruction_oracle(s, s.omega, rng, k))
    return out


CASES = [(name, label) for name, s in SCENARIOS.items() for label in _subjects(s)]


@pytest.mark.parametrize("name, label", CASES)
def test_stacked_validator_equals_per_sample_oracle(name, label):
    stacked, oracle = _subjects(SCENARIOS[name])[label]
    for seed in (0, 7919):
        for samples in (1, 7, 100):
            rng_stacked, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            assert stacked(rng_stacked, samples) == oracle(rng_oracle, samples), (seed, samples)
            assert rng_stacked.bit_generator.state == rng_oracle.bit_generator.state


GAUGE_SCENARIOS = {name: build_scenario(name) for name in ("gauge-jet-so3", "gauge-jet-abelian")}


@pytest.mark.parametrize("name", sorted(GAUGE_SCENARIOS))
@pytest.mark.parametrize("check", sorted(gauge_check_oracles()))
def test_stacked_gauge_check_equals_per_sample_oracle(name, check):
    s = GAUGE_SCENARIOS[name]
    stacked, oracle = dict(suites._checks_for("gauge"))[check], gauge_check_oracles()[check]
    for seed in (0, 7919):
        for samples in (1, 7, 1000):
            rng_stacked, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [float(v) for v in stacked(s, rng_stacked, samples, s.config["step"])[0]]
            want = oracle(s, rng_oracle, samples)
            assert rng_stacked.bit_generator.state == rng_oracle.bit_generator.state
            assert got == want, (seed, samples)


SUITE_CASES = [(name, check) for name in ("principal-so3", "affine-varying")
               for check in suites.available_checks(SCENARIOS[name].kind)
               if check in torsor_check_oracles()]
SUITE_CASES += [(name, "jet-adjoint-fd-cross-check") for name in sorted(GAUGE_SCENARIOS)]


@pytest.mark.parametrize("name, check", SUITE_CASES)
def test_stacked_suite_check_equals_per_sample_oracle(name, check):
    """Each suite check that draws a stack returns the residuals of its
    per-sample loop: equal for the torsor checks; the jet adjoint's finite
    difference runs a different product order, so it may move by roundoff,
    at most 1e-3 of its 1e-6 tolerance."""
    s = {**SCENARIOS, **GAUGE_SCENARIOS}[name]
    stacked = dict(suites._checks_for(s.kind))[check]
    oracle = {**torsor_check_oracles(), "jet-adjoint-fd-cross-check": jet_adjoint_fd_oracle}[check]
    for seed in (0, 1, 7919):
        for samples in (1, 7, s.config["samples"]):
            rng_stacked, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            out = stacked(s, rng_stacked, samples, s.config["step"])
            if inspect.isgenerator(out):  # a plan check, driven as `run_suite` drives it
                (out,) = integrators.together([out])
            got = [float(v) for v in out[0]]
            want = oracle(s, rng_oracle, samples)
            assert rng_stacked.bit_generator.state == rng_oracle.bit_generator.state
            if check == "jet-adjoint-fd-cross-check":
                assert len(got) == len(want)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-3 * 1e-6, (seed, samples)
            else:
                assert got == want, (seed, samples)


def _forms(s):
    """Every form the validators evaluate at a batch of points, by label."""
    out = {f"forms.{key}": omega for key, omega in s.forms.items()}
    out["transport_form"] = s.transport_form
    out["difference_pair.0"], out["difference_pair.1"] = s.difference_pair
    out["difference"] = connection_difference(*s.difference_pair)
    if s.base_form is not None:
        out["drop_ad_control"] = drop_ad_form(s)
    return out


FORM_CASES = [(name, label) for name, s in SCENARIOS.items() for label in _forms(s)]


@pytest.mark.parametrize("name, label", FORM_CASES)
def test_form_matrix_at_a_batch_equals_lone_points(name, label):
    s = SCENARIOS[name]
    matrix = _forms(s)[label].matrix
    rng = np.random.default_rng(31)
    x = np.array([s.chart.sample(rng) for _ in range(7)])
    # first coordinates across the glued ramp [-0.2, 0.2]: weights 0, 1 and between
    x[:, 0] = np.linspace(-0.6, 0.6, 7)
    fibers = np.array([s.group.random_element(rng).matrix for _ in range(7)])
    batch = TotalPoint(x, s.group.element(fibers))
    stacked = matrix(batch)
    assert stacked.shape[0] == 7
    for r in range(7):
        assert np.array_equal(stacked[r], matrix(TotalPoint(x[r], s.group.element(fibers[r])))), r


CURVATURE_FORMS = {"principal-so3.single": SCENARIOS["principal-so3"].forms["single"],
                   "principal-so3.glued": SCENARIOS["principal-so3"].forms["glued"],
                   "affine-varying": SCENARIOS["affine-varying"].omega}


@pytest.mark.parametrize("h", [None, 1e-2])
@pytest.mark.parametrize("label", sorted(CURVATURE_FORMS))
def test_curvature_rows_equal_lone_calls(label, h):
    """Each row of a stacked curvature call is its lone call: value, exterior
    value and gap.  Row 1 repeats its direction and row 2 has u1 = 0, a zero
    direction for both finite-difference paths; both read exactly 0."""
    omega = CURVATURE_FORMS[label]
    s = SCENARIOS[label.split(".")[0]]
    rng = np.random.default_rng(37)
    x = np.array([s.chart.sample(rng) for _ in range(7)])
    # first coordinates across the glued ramp [-0.2, 0.2]: weights 0, 1 and between
    x[:, 0] = np.linspace(-0.6, 0.6, 7)
    fibers = np.array([s.group.random_element(rng).matrix for _ in range(7)])
    u1, u2 = rng.standard_normal((2, 7, s.chart.dim))
    u1[1], u1[2] = u2[1], 0.0
    stacked = curvature(omega, TotalPoint(x, s.group.element(fibers)), u1, u2, h)
    assert stacked.gap.shape == (7,)
    for r in range(7):
        lone = curvature(omega, TotalPoint(x[r], s.group.element(fibers[r])), u1[r], u2[r], h)
        assert np.array_equal(stacked.value.coords[r], lone.value.coords), r
        assert np.array_equal(stacked.exterior_value.coords[r], lone.exterior_value.coords), r
        assert stacked.gap[r] == lone.gap, r
    for values in (stacked.value.coords, stacked.exterior_value.coords):
        assert np.all(values[1:3] == 0.0)


def test_dexp_operator_rows_stop_on_their_own_last_term():
    """Rows of very different size stop their series at different terms; each
    row of the stack equals its lone series."""
    desc = SCENARIOS["principal-so3"].group
    w = np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, -2e-7], [0.3, -0.2, 0.1], [1.5, 0.5, -1.0]])
    stacked = _dexp_operator(desc, w)
    for r in range(len(w)):
        assert np.array_equal(stacked[r], _dexp_operator(desc, w[r])), r


def test_every_sampled_validator_refuses_an_empty_sample():
    s = SCENARIOS["principal-so3"]
    validators = [
        lambda k: validate_principal_connection(s.omega, np.random.default_rng(0), samples=k),
        lambda k: validate_tensorial_form(connection_difference(*s.difference_pair),
                                          np.random.default_rng(0), samples=k),
        lambda k: validate_group_connection(s.nu, np.random.default_rng(0), samples=k),
        lambda k: principal_equivalence_report(s, np.random.default_rng(0), samples=k),
        lambda k: s.action.validate(np.random.default_rng(0), samples=k),
        lambda k: sample_rows(np.random.default_rng(0), k, Uniform((s.group.dim,))),
    ]
    for validate in validators:
        for samples in (0, -1):
            with pytest.raises(UsageError, match="at least 1"):
                validate(samples)
        validate(1)
