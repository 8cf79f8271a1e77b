"""Chart calculus tests: curves, forms, finite differences, vector brackets."""

import ast
import pathlib
import re

import numpy as np
import pytest

import liebundles
from liebundles.calculus import (
    AlgebraOneForm,
    BaseCurve,
    ChartDomain,
    Polynomial,
    TwoIndexAlgebraForm,
    central_difference,
    finite_diff_jacobian,
    numerical_bracket,
)
from liebundles.errors import DomainError, UsageError
from liebundles.groups import so3_descriptor

from _oracles import central_jacobian, observed_order

SO3 = so3_descriptor()
CHART = ChartDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_chart_requires_strict_box():
    with pytest.raises(UsageError):
        ChartDomain(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    CHART.require(np.array([0.2, -0.3]))
    with pytest.raises(DomainError):
        CHART.require(np.array([2.0, 0.0]))


def test_curve_validation():
    line = BaseCurve.line([-0.5, -0.5], [0.5, 0.5], interval=(0.0, 1.0))
    assert line.validate(CHART) <= 1e-6


def test_polynomial_evaluation_and_partial():
    p = Polynomial({"2,0": 1.0, "1,1": -2.0, "0,0": 0.5}, 2)
    x = np.array([0.7, -0.4])
    assert p(x) == pytest.approx(0.7**2 - 2 * 0.7 * (-0.4) + 0.5)
    dp = p.partial(0)
    assert dp(x) == pytest.approx(2 * 0.7 - 2 * (-0.4))


def test_polynomial_array_matches_scalar_entries_bitwise():
    entries = {(0, 1): {"2,0": 0.8, "0,1": -0.3, "0,0": 0.1},
               (1, 0): {"1,3": 1.7, "0,0": 0.2},
               (1, 2): {"0,0": -0.4, "5,1": 0.25, "1,1": 3.1}}
    arr = Polynomial.array(entries, 2, (2, 3))
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, 2)
        want = np.zeros((2, 3))
        for idx, table in entries.items():
            want[idx] = Polynomial(table, 2)(x)
        assert np.array_equal(arr(x), want)
    with pytest.raises(UsageError):
        Polynomial.array({(2, 0): {"0,0": 1.0}}, 2, (2, 3))


def test_one_form_linearity_and_polynomial_table():
    rng = np.random.default_rng(0)
    form = AlgebraOneForm.from_polynomials(
        SO3, [{"2": {"1,0": 0.8, "0,0": 0.3}}, {"0": {"0,1": 0.5}}], 2
    )
    assert form.validate_linearity(rng, CHART) <= 1e-10
    x = np.array([0.5, -0.2])
    val = form(x, np.array([1.0, 0.0]))
    assert np.allclose(val.coords, [0.0, 0.0, 0.8 * 0.5 + 0.3])


def test_two_index_form_bilinearity():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((2, 2, 3))
    form = TwoIndexAlgebraForm(SO3, lambda x: arr * (1.0 + x[0] ** 2))
    assert form.validate_bilinearity(rng, CHART) <= 1e-10


def test_jacobian_constant_and_linear_maps():
    assert np.allclose(finite_diff_jacobian(lambda x: np.array([4.0]), np.zeros(3)), 0.0)
    m = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0]])
    jac = finite_diff_jacobian(lambda x: m @ x, np.array([0.3, -0.2, 0.9]))
    assert np.max(np.abs(jac - m)) <= 1e-10


def test_jacobian_sin_first_coordinate():
    jac = finite_diff_jacobian(lambda x: np.array([np.sin(x[0])]), np.zeros(2))
    oracle = central_jacobian(lambda x: np.array([np.sin(x[0])]), np.zeros(2))
    assert np.allclose(jac, oracle, atol=1e-9)
    assert np.allclose(jac, [[1.0, 0.0]], atol=1e-9)


def test_jacobian_observed_order_at_least_1_9():
    f = lambda x: np.array([np.exp(x[0]) * np.sin(3 * x[1])])
    x = np.array([0.2, 0.4])
    exact = np.array([[np.exp(0.2) * np.sin(1.2), 3 * np.exp(0.2) * np.cos(1.2)]])
    errs = [
        np.max(np.abs(finite_diff_jacobian(f, x, h=h) - exact)) for h in (1e-2, 5e-3, 2.5e-3)
    ]
    assert observed_order(errs) >= 1.9


def test_jacobian_respects_chart_stencil():
    near_edge = np.array([0.999999, 0.0])
    with pytest.raises(DomainError):
        finite_diff_jacobian(lambda x: x, near_edge, h=1e-3, chart=CHART)


def test_numerical_bracket_trivial_cases():
    v = lambda z: np.array([z[0] ** 2, np.sin(z[1])])
    z = np.array([0.3, 0.4])
    assert np.linalg.norm(numerical_bracket(v, v, z)) <= 1e-9
    d1 = lambda z: np.array([1.0, 0.0])
    d2 = lambda z: np.array([0.0, 1.0])
    assert np.linalg.norm(numerical_bracket(d1, d2, z)) <= 1e-12


def test_numerical_bracket_against_analytic_oracle():
    # [x2 d1, d2] = -d1, derived by analytic differentiation
    v1 = lambda z: np.array([z[1], 0.0])
    v2 = lambda z: np.array([0.0, 1.0])
    z = np.array([0.25, -0.6])
    got = numerical_bracket(v1, v2, z)
    assert np.allclose(got, [-1.0, 0.0], atol=1e-9)


def test_polynomial_batch_matches_points_bitwise():
    rng = np.random.default_rng(36)
    scalar = Polynomial({"0,0": 0.3, "2,0": 0.5, "1,1": -0.7, "0,3": 1.1, "2,1": 0.25}, 2)
    array = Polynomial.array({(0, 1): {"1,0": 0.4, "0,2": -0.2}, (1, 0): {"0,0": 0.5}}, 2, (2, 2))
    points = rng.uniform(-1.0, 1.0, (2000, 2))
    batch = scalar(points)
    assert batch.shape == (2000,)
    assert np.array_equal(batch, np.array([scalar(p) for p in points]))
    assert np.array_equal(array(points), np.stack([array(p) for p in points]))
    # a polynomial of constant terms only still gets its batch axis
    assert np.array_equal(Polynomial.constant(2.5, 2)(points), np.full(2000, 2.5))


def test_central_difference_matches_hand_stencil_bitwise():
    x0 = np.array([0.3, -0.7, 1.1])
    calls = []

    def f(s):
        calls.append(s)
        return np.sin(x0 + s) * np.exp(s * x0)

    for eps in (1e-6, 1e-5, 1e-4, 3.7e-6):
        calls.clear()
        got = central_difference(f, eps)
        assert calls == [eps, -eps]  # the plus side first
        assert np.array_equal(got, (f(eps) - f(-eps)) / (2 * eps))

    def pair(s):
        return x0 + s * x0**2, np.outer(f(s), x0) @ np.outer(x0, f(s))

    eps = 1e-5
    dq, dm = central_difference(pair, eps)
    (qp, mp), (qm, mm) = pair(eps), pair(-eps)
    assert np.array_equal(dq, (qp - qm) / (2 * eps))
    assert np.array_equal(dm, (mp - mm) / (2 * eps))


_STENCIL = re.compile(r"/\s*\(\s*2(\.0*)?\s*\*")


def test_central_difference_is_the_only_stencil():
    """No module of the package writes its own (a - b) / (2 * eps) quotient:
    every finite difference goes through calculus.central_difference."""
    pkg = pathlib.Path(liebundles.__file__).parent
    tree = ast.parse((pkg / "calculus.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "central_difference")
    allowed = range(helper.lineno, helper.end_lineno + 1)
    found = []
    for path in sorted(pkg.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _STENCIL.search(line) and not (path.name == "calculus.py" and lineno in allowed):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not found, "hand-written stencils outside central_difference:\n" + "\n".join(found)
    assert _STENCIL.search("(a - b) / (2 * eps)") and _STENCIL.search("(a - b)/(2.0*h)")
