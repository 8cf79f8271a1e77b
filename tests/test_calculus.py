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
    Normal,
    Polynomial,
    TwoIndexAlgebraForm,
    Uniform,
    central_difference,
    directional_derivative,
    finite_diff_jacobian,
    numerical_bracket,
    sample_rows,
)
from liebundles.errors import DomainError, UsageError
from liebundles.groups import so3_descriptor

from _oracles import central_jacobian, line_oracle, observed_order, sample_rows_oracle

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
    # a wrong velocity is measured, not raised: the gap is its error
    off = BaseCurve(0.0, 1.0, line.position, lambda t: line.velocity(t) + [0.0, 0.5])
    assert off.validate(CHART) == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("start, end", [
    ([-0.6, -0.4], [0.6, 0.5]),
    ([[-0.6, -0.4], [0.1, 0.3], [0.0, -0.0]], [[0.6, 0.5], [-0.2, 0.3], [0.7, 0.2]]),
])
def test_line_is_the_closed_form_segment(start, end):
    """A line is a wiggle with zero amplitude, bit for bit the segment
    (1 - s) start + s end, at a lone time, at a 1-D array of times and on a
    (C, n) family; its velocity is the constant rate."""
    a, b = 0.1, 0.5
    line = BaseCurve.line(start, end, interval=(a, b), label="seg")
    ts = np.linspace(a, b, 11)
    assert line.label == "seg"
    assert np.array_equal(line.position(ts), line_oracle(start, end, (ts - a) / (b - a)))
    rate = (np.asarray(end) - np.asarray(start)) / (b - a)
    assert np.array_equal(line.velocity(ts), np.broadcast_to(rate, ts.shape + rate.shape))
    for t in ts:
        assert np.array_equal(line.position(t), line_oracle(start, end, (t - a) / (b - a)))
        assert np.array_equal(line.velocity(t), rate)


def test_loop_refuses_equal_axes():
    """A circle needs a plane: a loop in one axis would be a segment run back
    and forth, with a velocity that is not its derivative."""
    with pytest.raises(UsageError, match="different axes"):
        BaseCurve.loop([0.1, -0.2], 0.45, axes=(1, 1))
    assert BaseCurve.loop([0.1, -0.2], 0.45, axes=(1, 0)).validate(CHART) <= 1e-6


def test_loop_family_rows_equal_lone_loops():
    """A (C, n) centre gives a family of circles: row c is bit-identical to the
    lone loop about centre c, at a lone time and at a 1-D array of times, and
    a lone loop is its closed form, bit for bit."""
    centres = np.array([[0.1, -0.2], [0.0, 0.3], [-0.4, 0.1]])
    a, b, r = 0.2, 1.4, 0.3
    family = BaseCurve.loop(centres, r, (a, b), axes=(1, 0))
    ts = np.linspace(a, b, 7)
    assert family.position(ts).shape == family.velocity(ts).shape == (7, 3, 2)
    for c, centre in enumerate(centres):
        lone = BaseCurve.loop(centre, r, (a, b), axes=(1, 0))
        for t in (0.37, ts):
            assert np.array_equal(family.position(t)[..., c, :], lone.position(t))
            assert np.array_equal(family.velocity(t)[..., c, :], lone.velocity(t))
        s = 2.0 * np.pi * (ts - a) / (b - a)
        assert np.array_equal(lone.position(ts), np.stack([centre[0] + r * np.sin(s),
                                                           centre[1] + r * np.cos(s)], -1))
        assert np.array_equal(lone.velocity(ts)[:, 1], -r * np.sin(s) * 2.0 * np.pi / (b - a))
    assert family.validate(CHART) <= 1e-6


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
    form = AlgebraOneForm(SO3, Polynomial.array(
        {(0, 2): {"1,0": 0.8, "0,0": 0.3}, (1, 0): {"0,1": 0.5}}, 2, (2, 3)))
    worst = 0.0
    for _ in range(20):
        x = CHART.sample(rng)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        a, b = rng.standard_normal(2)
        combo = form(x, a * u + b * v).coords - (a * form(x, u).coords + b * form(x, v).coords)
        worst = max(worst, float(np.max(np.abs(combo))))
    assert worst <= 1e-10
    x = np.array([0.5, -0.2])
    val = form(x, np.array([1.0, 0.0]))
    assert np.allclose(val.coords, [0.0, 0.0, 0.8 * 0.5 + 0.3])


def test_two_index_form_bilinearity():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((2, 2, 3))
    form = TwoIndexAlgebraForm(SO3, lambda x: arr * (1.0 + x[0] ** 2))
    worst = 0.0
    for _ in range(20):
        x = CHART.sample(rng)
        u, v, w = (rng.standard_normal(2) for _ in range(3))
        a, b = rng.standard_normal(2)
        first = form(x, a * u + b * w, v).coords - (a * form(x, u, v).coords
                                                     + b * form(x, w, v).coords)
        second = form(x, u, a * v + b * w).coords - (a * form(x, u, v).coords
                                                      + b * form(x, u, w).coords)
        worst = max(worst, float(np.max(np.abs(first))), float(np.max(np.abs(second))))
    assert worst <= 1e-10


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


def test_one_step_per_row_equals_lone_calls_at_each_step():
    """`directional_derivative` and `numerical_bracket` with one step per row
    give each row what a lone call at that row's scalar step gives; a NaN row
    keeps the default step of its lone call."""
    rng = np.random.default_rng(41)
    z, v = rng.uniform(-2.0, 2.0, (2, 7, 3))
    v[2] = 0.0  # a zero direction differences to exactly 0
    steps = np.array([1e-2, 5e-3, np.nan, 2.5e-3, 1e-6, np.nan, 0.3])

    def f(x):
        return np.stack([np.sin(x[..., 0]) * x[..., 1], np.exp(x[..., 2]) + x[..., 0] ** 3], -1)

    def v1(x):
        return np.stack([x[..., 1] ** 2, np.cos(x[..., 0]), x[..., 0] * x[..., 2]], -1)

    def v2(x):
        return np.stack([np.sin(x[..., 2]), x[..., 0] * x[..., 1], np.exp(-x[..., 1])], -1)

    derivative = directional_derivative(f, z, v, steps)
    bracket = numerical_bracket(v1, v2, z, steps)
    for r, h in enumerate(steps):
        h = None if np.isnan(h) else float(h)
        assert np.array_equal(derivative[r], directional_derivative(f, z[r], v[r], h)), r
        assert np.array_equal(bracket[r], numerical_bracket(v1, v2, z[r], h)), r
    assert not derivative[2].any()


def test_polynomial_batch_matches_points_bitwise():
    rng = np.random.default_rng(36)
    scalar = Polynomial({"0,0": 0.3, "2,0": 0.5, "1,1": -0.7, "0,3": 1.1, "2,1": 0.25}, 2)
    array = Polynomial.array({(0, 1): {"1,0": 0.4, "0,2": -0.2}, (1, 0): {"0,0": 0.5}}, 2, (2, 2))
    points = rng.uniform(-1.0, 1.0, (2000, 2))
    batch = scalar(points)
    assert batch.shape == (2000,)
    assert np.array_equal(batch, np.array([scalar(p) for p in points]))
    # a lone point is a batch without leading axes: a numpy float, not a 0-d array
    assert type(scalar(points[0])) is np.float64
    assert np.array_equal(array(points), np.stack([array(p) for p in points]))
    # a polynomial of constant terms only still gets its batch axis
    assert np.array_equal(Polynomial({"0,0": 2.5}, 2)(points), np.full(2000, 2.5))


def test_array_polynomial_partial_keeps_each_entry():
    # p = [x^2, 3 y + x y^2], by hand: dp/dx = [2 x, y^2], dp/dy = [0, 3 + 2 x y]
    poly = Polynomial.array({(0,): {"2,0": 1.0}, (1,): {"0,1": 3.0, "1,2": 1.0}}, 2, (2,))
    x, y = 0.5, -0.2
    assert poly.partial(0).shape == (2,)
    assert np.allclose(poly.partial(0)(np.array([x, y])), [2 * x, y ** 2], rtol=0, atol=1e-15)
    assert np.allclose(poly.partial(1)(np.array([x, y])), [0.0, 3 + 2 * x * y], rtol=0,
                       atol=1e-15)
    points = np.random.default_rng(37).uniform(-1.0, 1.0, (5, 2))
    assert np.allclose(poly.partial(0)(points), np.column_stack([2 * points[:, 0], points[:, 1] ** 2]),
                       rtol=0, atol=1e-15)


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


class _CountingRng:
    """A generator that counts the ``random`` and ``standard_normal`` calls made on it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


# (fields, RNG calls per row or None for one call per stack): two uniform
# ranges back to back, a normal between uniform runs, two adjacent normals and
# a scalar uniform; then the same uniform fields alone
_MIXED = (Uniform((2,), 0.05, 0.95), Uniform((2, 3)), Normal((2,)), Uniform((), -2, 2),
          Normal((3,)), Normal((2, 2)), Uniform((3,), 0.0, 1.0))
_SAMPLERS = {"mixed": (_MIXED, 5),
             "uniform": (tuple(f for f in _MIXED if isinstance(f, Uniform)), None)}


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("count", [1, 1000])
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_sample_rows_equals_per_row_draws(seed, count, sampler):
    """The stacked draws are exactly the per-row draws of each field and
    leave the generator where they leave it; a row takes one call per run of
    one kind, and a stack without a normal field one call."""
    fields, per_row = _SAMPLERS[sampler]
    block_rng = _CountingRng(np.random.default_rng(seed))
    row_rng = np.random.default_rng(seed)
    got = sample_rows(block_rng, count, *fields)
    want = sample_rows_oracle(row_rng, count, *fields)
    assert [a.shape for a in got] == [(count,) + f.shape for f in fields]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(a.flags.c_contiguous for a in got)
    assert block_rng.rng.bit_generator.state == row_rng.bit_generator.state
    assert block_rng.calls == (1 if per_row is None else per_row * count)


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


def _central_difference_users(module):
    """Whether a package module imports central_difference, and the names of
    its top-level functions and classes that call it (by name or attribute)."""
    path = pathlib.Path(liebundles.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = any(alias.name == "central_difference" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names)
    callers = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and "central_difference"
               in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    return imported, callers


def test_action_checks_difference_only_through_product_velocity():
    """The torsor's action checks and the jet adjoint's cross-check run one
    finite difference, the pushforward in bundles.product_velocity:
    principal.py and suites.py do not import the stencil and bundles.py calls
    it nowhere else.  Every suite check draws its samples as whole stacks,
    through sample_rows, and evaluates one stack: no check loops over
    samples, and no function of the package draws from a generator inside a
    lambda or a loop, the form of a per-sample draw."""
    for module in ("principal.py", "suites.py"):
        imported, callers = _central_difference_users(module)
        assert not imported and not callers, module
    imported, callers = _central_difference_users("bundles.py")
    assert callers == {"product_velocity"}
    path = pathlib.Path(liebundles.__file__).parent / "suites.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    looped = {top.name for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name.startswith("_chk_")
              and any(_over_range(node) for node in ast.walk(top))}
    assert looped == set()
    per_row = [f"{path.name}:{line}" for path in sorted(path.parent.glob("*.py"))
               for line in _draws_per_row(path.read_text(encoding="utf-8"))]
    assert per_row == []
    assert _draws_per_row("f = lambda: (g.random_coords(rng), rng.standard_normal(2))") == [1]
    assert _draws_per_row("for _ in range(k):\n    x = rng.uniform(-1, 1)") == [2]
    assert _draws_per_row("xs = [chart.sample(rng) for _ in range(k)]") == [1]
    assert _draws_per_row("x = rng.uniform(-1, 1, (k, 3))") == []


def _draws_per_row(source):
    """The lines of ``source`` that draw from a generator named ``rng`` or
    ``*_rng`` (a method call on it, or a call that takes it) inside a lambda
    or a per-sample loop or comprehension."""
    lines = set()
    for scope in ast.walk(ast.parse(source)):
        comprehension = isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp,
                                           ast.GeneratorExp))
        if isinstance(scope, ast.Lambda) or _over_range(scope) or (
                comprehension and any(_over_range(g) for g in scope.generators)):
            lines.update(node.lineno for node in ast.walk(scope) if isinstance(node, ast.Call)
                         and any(isinstance(n, ast.Name) and n.id.endswith("rng")
                                 for n in (getattr(node.func, "value", None), *node.args)))
    return sorted(lines)


def _over_range(node):
    """Whether an AST node is a loop or comprehension over ``range(...)``,
    the form of a per-sample loop; a while loop counts too."""
    if isinstance(node, ast.While):
        return True
    if not isinstance(node, (ast.For, ast.comprehension)):
        return False
    return isinstance(node.iter, ast.Call) and getattr(node.iter.func, "id", None) == "range"
