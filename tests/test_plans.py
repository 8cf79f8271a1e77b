"""Merged plans: a suite runs every transport on one fiber descriptor as one
RKMK4 loop, with one leg per interval and step, and every curvature request
on one form as one `curvature` call, and each record stays what its check
gives when it runs alone."""

import ast
import inspect

import numpy as np
import pytest

from liebundles import connections, integrators, principal, suites
from liebundles.bundles import TotalPoint
from liebundles.calculus import BaseCurve, FiberMap
from liebundles.principal import GeneralizedPrincipalConnection
from liebundles.errors import ConstructionError, InstabilityError, UsageError
from liebundles.scenarios import build_scenario, random_wiggle
from liebundles.suites import available_checks, run_suite

SCENARIOS = {name: build_scenario(name)
             for name in ("principal-so3", "affine-varying", "affine-constant")}


@pytest.mark.parametrize("name", ["principal-so3", "affine-varying"])
@pytest.mark.parametrize("seed", [0, 7919])
def test_each_check_alone_equals_its_record_in_the_full_run(name, seed):
    """Merging is invisible in the records: every check run alone with
    ``only=[id]`` gives the record of the full run, field for field."""
    s = SCENARIOS[name]
    full = {record.check: record for record in run_suite(s, seed=seed)}
    assert list(full) == available_checks(s.kind)
    for check in full:
        assert run_suite(s, seed=seed, only=[check]) == [full[check]], check


# (rows, steps) of each leg of the one RKMK4 loop of a suite, most steps
# first: on principal-so3 the 81 family rows at the config step (63 nu rows
# of four checks, 12 horizontal and 6 nu rows of the compatibility check),
# the 42 rows of the two order-estimate families at twice the step and the
# two one-step covariant-product-rule segments (+ds first); on the affine
# presets the oracle's group transport, then the compatibility family at the
# step and at twice it
LEGS = {
    "principal-so3": [(81, 80), (42, 40), (3, 1), (3, 1)],
    "affine-varying": [(5, 200), (18, 80), (18, 40)],
    "affine-constant": [(5, 200), (18, 80), (18, 40)],
}


def _shape(legs):
    """(rows, steps) of each leg of a loop: a leg's rows are its parts'."""
    return [(sum(rows for _, rows, _ in leg.parts), leg.steps) for leg in legs]


@pytest.mark.parametrize("name", sorted(LEGS))
@pytest.mark.parametrize("seed", [0, 7919])
def test_a_suite_makes_one_loop_per_descriptor(monkeypatch, name, seed):
    """One loop of the longest leg's steps: 80 iterations on principal-so3
    (its four legs alone took 122) and 200 on an affine preset (320); every
    iteration checks four fiber stacks for finiteness."""
    loops, finite = [], []
    real, real_finite = integrators._run, integrators._finite

    def counted(desc, g, legs):
        loops.append(_shape(legs))
        return real(desc, g, legs)

    monkeypatch.setattr(integrators, "_run", counted)
    monkeypatch.setattr(integrators, "_finite", lambda *args: finite.append(1) or real_finite(*args))
    run_suite(SCENARIOS[name], seed=seed)
    assert loops == [LEGS[name]]
    assert len(finite) == 4 * {"principal-so3": 80}.get(name, 200)


def _solves(patch):
    """The list that gains one entry per `GeneralizedPrincipalConnection._solve`
    call while ``patch`` is active: one per application of a horizontal map."""
    calls, real = [], GeneralizedPrincipalConnection._solve
    patch.setattr(GeneralizedPrincipalConnection, "_solve",
                  lambda self, *args: calls.append(1) or real(self, *args))
    return calls


# `_solve` calls of one suite: each stage applies a builder's map once for
# all its live rows, over every leg (per leg, 492 and 1,288)
SOLVES = {"principal-so3": 332, "affine-varying": 808}


@pytest.mark.parametrize("name", sorted(SOLVES))
@pytest.mark.parametrize("seed", [0, 7919])
def test_each_stage_calls_each_builder_once(monkeypatch, name, seed):
    """The horizontal map of a suite runs once per stage while any of its
    legs is live, 4 times per step of its longest leg: 320 of principal-so3's
    332 calls and 800 of affine-varying's 808; the rest are direct lifts."""
    calls = _solves(monkeypatch)
    run_suite(SCENARIOS[name], seed=seed)
    assert len(calls) == SOLVES[name]


def _poison_horizontal_row(monkeypatch, s):
    """Row 4 of every family call of the horizontal map turns non-finite in
    the second half of the call's stages."""
    form = s.transport_form
    real = form.horizontal_map

    def poisoned(q, u_columns):
        fiber_map = real(q, u_columns)
        if np.ndim(q) != 3:  # only a family run has (stage, row) points
            return fiber_map
        scale = np.ones(np.shape(q)[:-1] + (1,))
        scale[len(scale) // 2:, 4] = np.inf
        return FiberMap(lambda fibers, inner, sc: inner(fibers) * sc, fiber_map, scale)

    monkeypatch.setattr(form, "horizontal_map", poisoned)
    return "[4] at t="


def _poison_coarse_curve(monkeypatch, s):
    """Curve 4 of the compatibility family at twice the step, and only there,
    moves at an infinite velocity after the middle of its interval: its rows
    of both builders, y.g, y and g, turn non-finite.  Those rows sit behind
    the rows of the leg at the step inside each builder's block."""
    real = principal.transport_compatibility_check.plan

    def plan(omega, curve, y, g, step):
        def velocity(t):
            v = np.array(curve.velocity(t))
            v[np.asarray(t) > 0.5 * (curve.a + curve.b), 4] = np.inf
            return v

        coarse = BaseCurve(curve.a, curve.b, curve.position, velocity, label=curve.label)
        return real(omega, coarse if step == 2 * s.config["step"] else curve, y, g, step)

    monkeypatch.setattr(principal.transport_compatibility_check, "plan", plan)
    return "[4, 10, 16] at t=0.2050"  # a stage time of the leg at twice the step


@pytest.mark.parametrize("poison", [_poison_horizontal_row, _poison_coarse_curve])
@pytest.mark.parametrize("name", ["principal-so3", "affine-varying"])
def test_an_error_in_a_merged_run_names_its_check_and_rows(monkeypatch, name, poison):
    """A compatibility row that turns non-finite part way through its family
    run raises from the full suite with the check id and the row numbers that
    the check gives alone, not its rows in the merged stack: rows of the leg
    at the step, or only rows of the leg at twice the step."""
    s = SCENARIOS[name]
    rows = poison(monkeypatch, s)
    with pytest.raises(InstabilityError) as alone:
        run_suite(s, only=["transport-compatibility"])
    with pytest.raises(InstabilityError) as full:
        run_suite(s)
    assert str(alone.value).startswith("transport-compatibility: integration produced "
                                       f"non-finite fibers in rows {rows}")
    assert str(full.value) == str(alone.value)


def test_requests_merged_on_one_builder_equal_each_request_alone():
    """Two lone-curve requests and a family request with one builder share one
    run; each request's endpoints are those of its run alone."""
    s = SCENARIOS["principal-so3"]
    rng = np.random.default_rng(11)
    lone_a, lone_b = (BaseCurve.wiggle(*random_wiggle(s.chart, rng), (0.0, 0.4)) for _ in "ab")
    family = BaseCurve.wiggle(*(np.array(p) for p in zip(
        *(random_wiggle(s.chart, rng) for _ in range(3)))), (0.0, 0.4))

    def fiber(*lead):
        return s.group.exp(s.group.algebra(rng.uniform(-1, 1, lead + (s.group.dim,))))

    requests = [integrators.Transport(s.nu.lift_map, lone_a, [fiber(), fiber()], 0.01),
                integrators.Transport(s.nu.lift_map, family, [fiber(3)], 0.01),
                integrators.Transport(s.nu.lift_map, lone_b, [fiber()], 0.01)]
    loops = []
    real = integrators._run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrators, "_run", lambda desc, g, legs: loops.append(
            _shape(legs)) or real(desc, g, legs))
        merged = integrators.transport(requests)
    assert loops == [[(6, 40)]]
    for request, ends in zip(requests, merged):
        (alone,) = integrators.transport([request])
        assert [e.shape for e in ends] == [f.matrix.shape for f in request.fibers]
        assert all(np.array_equal(a, b) for a, b in zip(ends, alone))


def test_a_round_of_mixed_legs_equals_each_request_alone():
    """Lone curves, a family and a one-step segment on four intervals and
    steps, with two builders, make one loop whose legs end at different
    steps; each request's endpoints equal those of its run alone."""
    s = SCENARIOS["principal-so3"]
    rng = np.random.default_rng(17)
    lone_a, lone_b = (BaseCurve.wiggle(*random_wiggle(s.chart, rng), (0.0, 0.4)) for _ in "ab")
    family = BaseCurve.wiggle(*(np.array(p) for p in zip(
        *(random_wiggle(s.chart, rng) for _ in range(3)))), (0.1, 0.3))
    segment = BaseCurve.wiggle(*random_wiggle(s.chart, rng), (0.2, 0.21))

    def fiber(*lead):
        return s.group.exp(s.group.algebra(rng.uniform(-1, 1, lead + (s.group.dim,))))

    horizontal = s.transport_form.horizontal_map
    requests = [integrators.Transport(s.nu.lift_map, segment, [fiber(), fiber()], 0.05),
                integrators.Transport(s.nu.lift_map, lone_a, [fiber()], 0.01),
                integrators.Transport(horizontal, family, [fiber(3), fiber(3)], 0.02),
                integrators.Transport(s.nu.lift_map, family, [fiber(3)], 0.02),
                integrators.Transport(horizontal, lone_b, [fiber(2)], 0.02),
                integrators.Transport(s.nu.lift_map, lone_a, [fiber()], 0.01)]
    loops = []
    real = integrators._run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrators, "_run", lambda desc, g, legs: loops.append(
            _shape(legs)) or real(desc, g, legs))
        solves = _solves(patch)
        merged = integrators.transport(requests)
    assert loops == [[(2, 40), (2, 20), (9, 10), (2, 1)]]
    # the horizontal map runs once per stage of its 20- and 10-step legs'
    # 20 steps: 80 calls (120 with one call per leg)
    assert len(solves) == 4 * 20
    for request, ends in zip(requests, merged):
        (alone,) = integrators.transport([request])
        assert [e.shape for e in ends] == [f.matrix.shape for f in request.fibers]
        assert all(np.array_equal(a, b) for a, b in zip(ends, alone))


def _asks(requests):
    """A plan that yields ``requests`` and returns their answers."""
    return (yield requests)


def _curvature_calls(patch):
    """The forms of each `principal.curvature` call, in call order, while
    ``patch`` is active."""
    calls = []
    real = principal.curvature

    def counted(omega, *args, **kwargs):
        calls.append(omega)
        return real(omega, *args, **kwargs)

    patch.setattr(principal, "curvature", counted)
    return calls


@pytest.mark.parametrize("name", ["principal-so3", "affine-varying"])
@pytest.mark.parametrize("seed", [0, 7919])
def test_a_suite_makes_one_curvature_call(monkeypatch, name, seed):
    """The four curvature checks ask one round, which evaluates every request
    on the suite's one form in one stacked `curvature` call."""
    s = SCENARIOS[name]
    calls = _curvature_calls(monkeypatch)
    run_suite(s, seed=seed)
    assert calls == [s.omega]


def test_curvature_requests_merged_on_one_form_equal_each_request_alone():
    """Requests on one form share one call whatever their steps: a lone point
    and stacks at the default step and at explicit steps; a request on
    another form gets its own call.  Each answer equals its lone call."""
    s = SCENARIOS["principal-so3"]
    first, second = list(s.forms.values())[:2]
    rng = np.random.default_rng(13)

    def request(omega, count, h=None):
        lead = (count,) if count else ()
        y = TotalPoint(s.chart.place(rng.uniform(0.05, 0.95, lead + (s.chart.dim,))),
                       s.group.exp(s.group.algebra(rng.uniform(-1, 1, lead + (s.group.dim,)))))
        u1, u2 = rng.standard_normal((2,) + lead + (s.chart.dim,))
        return principal.Curvature(omega, y, u1, u2, h)

    requests = [request(first, 3), request(second, 2), request(first, 0, 1e-2),
                request(first, 4, 5e-3), request(second, 3, 2e-2), request(first, 2)]
    with pytest.MonkeyPatch.context() as patch:
        calls = _curvature_calls(patch)
        merged = integrators.planned(_asks)(requests)
    assert calls == [first, second]
    for req, answer in zip(requests, merged):
        alone = principal.curvature(*req)
        for field in ("value", "exterior_value"):
            assert np.array_equal(getattr(answer, field).coords, getattr(alone, field).coords)
        assert np.array_equal(answer.gap, alone.gap)
        assert type(answer.gap) is type(alone.gap)


def _twice(s):
    """A plan that yields a second round after its first."""
    curve = s.curves["main"]
    yield [integrators.Transport(s.nu.lift_map, curve, [s.group.identity()], 0.1)]
    yield [integrators.Transport(s.nu.lift_map, curve, [s.group.identity()], 0.1)]
    return 0.0


def test_a_plan_that_yields_twice_is_a_usage_error():
    """A plan yields its requests once, whether driven alone or with others."""
    s = SCENARIOS["principal-so3"]
    with pytest.raises(UsageError, match="yields its requests once"):
        integrators.planned(_twice)(s)
    with pytest.raises(UsageError, match="yields its requests once"):
        integrators.together([_twice(s)])


def _never(s):
    """A plan that returns without yielding its requests."""
    return 0.0
    yield


def test_a_plan_that_never_yields_is_a_usage_error():
    """A plan that yields nothing is refused alike, alone or with others, and
    no StopIteration escapes as a RuntimeError of the joined round."""
    s = SCENARIOS["principal-so3"]
    with pytest.raises(UsageError, match="yields its requests once"):
        integrators.planned(_never)(s)
    with pytest.raises(UsageError, match="yields its requests once"):
        integrators.together([_never(s)])
    with pytest.raises(UsageError, match="yields its requests once"):
        integrators.together([_twice(s), _never(s)])


_DIRECT = {"integrate_stack", "transport_group", "transport_total"}


def _names(tree):
    """Every name, attribute and imported name in a syntax tree."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or n.name for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _plan_calls(module):
    """{plan: the names it calls, itself or through the module functions it
    reaches} for each `planned` function of ``module``."""
    tree = ast.parse(inspect.getsource(module))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    plans = [name for name, node in defs.items()
             if any(getattr(d, "id", None) == "planned" for d in node.decorator_list)]
    out = {}
    for name in plans:
        seen, todo = set(), [name]
        while todo:  # the plan and the module functions it reaches
            fn = todo.pop()
            seen.add(fn)
            todo += [n for n in _names(defs[fn]) if n in defs and n not in seen]
        out[name] = {n.func.id for d in seen for n in ast.walk(defs[d])
                     if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    return out


def test_suites_and_plans_leave_transport_to_the_round():
    """`suites.py` names no integrator or transport function, and no plan calls
    one, itself or through a helper of its module: every suite transport is a
    request of the one round."""
    assert not _names(ast.parse(inspect.getsource(suites))) & _DIRECT
    for module in (connections, principal):
        plans = _plan_calls(module)
        assert plans, module.__name__
        for name, called in plans.items():
            assert not called & _DIRECT, (module.__name__, name)


def test_suites_and_plans_leave_curvature_to_the_round():
    """No `_chk_*` function of `suites.py` calls `curvature`, which the module
    does not even name, and no plan of `principal` calls it: every suite
    curvature is a request of the one round."""
    tree = ast.parse(inspect.getsource(suites))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_chk_")]
    assert checks
    for node in checks:
        called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                  for n in ast.walk(node) if isinstance(n, ast.Call)}
        assert "curvature" not in called, node.name
    assert "curvature" not in _names(tree)
    plans = _plan_calls(principal)
    assert "reduced_curvature_residual" in plans
    for name, called in plans.items():
        assert "curvature" not in called, name


@pytest.mark.parametrize("name", ["principal-so3", "affine-varying"])
def test_an_error_in_the_merged_curvature_call_names_its_check(monkeypatch, name):
    """An error raised inside the one curvature call of a suite, here by the
    two-path ladder's finest rung only, names the check that asked for it, as
    that check run alone does."""
    real = principal.curvature

    def poisoned(omega, y, u1, u2, h=None):
        if np.any(np.asarray(h) == 5e-3):
            raise ConstructionError("degenerate connection: vertical operator singular")
        return real(omega, y, u1, u2, h)

    monkeypatch.setattr(principal, "curvature", poisoned)
    s = SCENARIOS[name]
    with pytest.raises(ConstructionError) as alone:
        run_suite(s, only=["curvature-two-path"])
    with pytest.raises(ConstructionError) as full:
        run_suite(s)
    assert str(alone.value) == ("curvature-two-path: degenerate connection: "
                                "vertical operator singular")
    assert str(full.value) == str(alone.value)


# the lone samplers: a suite check draws its sample as stacks instead
_LONE = {"random_curve", "random_point", "random_element", "random_algebra", "random_coords",
         "sample"}


def test_no_suite_check_draws_a_lone_sample():
    """No `_chk_*` function of `suites.py` calls a lone sampler (`sample` is
    `ChartDomain.sample`): each check's order estimate, too, comes from the
    sample it already has."""
    tree = ast.parse(inspect.getsource(suites))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_chk_")]
    assert checks
    for node in checks:
        called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                  for n in ast.walk(node) if isinstance(n, ast.Call)}
        assert not called & _LONE, node.name


@pytest.mark.parametrize("seed", [*range(16), 7919])
def test_transport_checks_estimate_the_order_of_their_own_family(seed):
    """Both transport checks read RKMK4's order off their family at the
    config step and at twice it: a number near 4 at every seed, never null."""
    records = run_suite(SCENARIOS["principal-so3"], seed=seed,
                        only=["transport-compatibility", "transport-multiplicative"])
    assert len(records) == 2
    for record in records:
        assert record.order_estimate is not None, record.check
        assert 3.5 <= record.order_estimate <= 6.0, (record.check, record.order_estimate)


def test_order_takes_the_median_over_rungs_and_rows():
    """`_order` reads numbers and per-row rungs alike, and a ladder below the
    noise floor has no order."""
    assert suites._order([16e-6, 1e-6]) == 4.0
    assert suites._order([[16e-6, 8e-6, 4e-6], [1e-6, 1e-6, 1e-6]]) == 3.0
    assert suites._order([np.full(3, 1e-13), np.full(3, 1e-14)]) is None
