"""Scenario fixture tests: presets build, equivalences hold, oracles match."""

import ast
import dataclasses
import json
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liebundles.bundles import Tangent, TotalPoint
from liebundles.calculus import Normal
from liebundles.connections import (LieGroupBundleConnection, transport_group,
                                    validate_group_connection)
from liebundles.errors import UsageError
from liebundles.groups import GroupDescriptor
from liebundles.principal import (GeneralizedPrincipalConnection, transport_total,
                                  validate_principal_connection)
from liebundles.scenarios import (
    PRESET_NAMES,
    affine_equivalence_report,
    affine_reconstruction_residual,
    affine_transport_flow,
    build_scenario,
    preset_config,
    principal_equivalence_report,
    random_curve,
)
from liebundles import integrators, suites
from liebundles.suites import available_checks, run_suite

from _oracles import affine_form_matrix_oracle, affine_transport_oracle

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
    # rows stay sorted so that a table reads like a report; run_suite keys each
    # check's random substream by the crc32 of its id, so no two may share one
    names = available_checks(kind)
    assert names == sorted(names) and len(names) == len(set(names))
    assert len({zlib.crc32(name.encode()) for name in names}) == len(names)


def test_benchmarked_presets_report_the_reference_checks_and_samples():
    """At default config each benchmarked preset reports exactly the check ids
    and sample counts of perfbench/reference.json, the only set the
    benchmark's gate accepts, so a change to either fails here too."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))["checks"]
    assert sorted(reference) == ["affine-varying", "gauge-jet-abelian", "gauge-jet-so3",
                                 "principal-so3"]
    for name, expected in reference.items():
        assert {r.check: r.samples for r in run_suite(build_scenario(name))} == expected, name


def _compares_kind(node):
    """True for a comparison that has ``kind`` (a name, an attribute or a
    key) inside one of its operands."""
    if not isinstance(node, ast.Compare):
        return False
    return any((isinstance(sub, ast.Name) and sub.id == "kind")
               or (isinstance(sub, ast.Attribute) and sub.attr == "kind")
               or (isinstance(sub, ast.Constant) and sub.value == "kind")
               for operand in (node.left, *node.comparators) for sub in ast.walk(operand))


def test_suites_compare_kind_only_to_choose_rows():
    """A check reads what it samples from the scenario's fields, never from a
    branch on its kind: suites.py compares ``kind`` only where `_checks_for`
    and `run_suite` choose the rows of the check tables."""
    tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
    allowed = [range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in ("_checks_for", "run_suite")]
    assert len(allowed) == 2
    found = [f"suites.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
             if _compares_kind(node) and not any(node.lineno in rows for rows in allowed)]
    assert not found, "kind compared outside the row choice:\n" + "\n".join(found)
    for branch in ('s.kind == "principal"', 'kind in ("affine",)', 's.config["kind"] != k'):
        assert _compares_kind(ast.parse(branch).body[0].value)
    assert not _compares_kind(ast.parse('s.name == "principal-so3"').body[0].value)


def _name_conditions(tree):
    """(line, source) of each condition that reads a ``.name``: the tests of
    if, while, assert, conditional expressions and comprehension filters,
    and every comparison."""
    conditions = [node.test for node in ast.walk(tree)
                  if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert))]
    conditions += [cond for node in ast.walk(tree) if isinstance(node, ast.comprehension)
                   for cond in node.ifs]
    conditions += [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]
    return sorted({(cond.lineno, ast.unparse(cond)) for cond in conditions
                   if any(isinstance(sub, ast.Attribute) and sub.attr == "name"
                          for sub in ast.walk(cond))})


def test_suites_never_dispatch_on_a_name():
    """A check decides what a group is from its structure (its structure
    constants, its descriptor hooks), never from the name a config gave it:
    no condition in suites.py reads a ``.name``."""
    tree = ast.parse(pathlib.Path(suites.__file__).read_text(encoding="utf-8"))
    found = [f"suites.py:{line}: {source}" for line, source in _name_conditions(tree)]
    assert not found, "a name decides a branch:\n" + "\n".join(found)
    for branch in ('if s.group.name.startswith("translation"):\n    pass',
                   'tol = 0.0 if desc.name == "so3" else 1.0',
                   'rows = [r for r in rows if r.descriptor.name in names]'):
        assert _name_conditions(ast.parse(branch)), branch
    assert not _name_conditions(ast.parse("make_record(name, label, scenario.name, vals)"))


def test_a_new_row_leaves_the_numbers_of_other_checks(monkeypatch):
    only = ["transport-multiplicative"]
    before = run_suite(PRINCIPAL, only=only)
    monkeypatch.setattr(suites, "_CHECKS", dict(suites._CHECKS))
    suites._check("aaa-dummy", ("principal",), 1.0, "dummy")(
        lambda s, rng, samples, step: ([0.0], None))
    assert available_checks("principal")[0] == "aaa-dummy"
    assert run_suite(PRINCIPAL, only=only) == before


def test_each_contract_is_stated_once():
    """A check's tolerance, label and mode sit in its `_check` row and nowhere
    else: every `_chk_*` is decorated with its row, is named nowhere but at its
    definition and returns (residuals, order) alone; cli.py holds no float
    literal and no label of a row; and `suites.record` is the only caller of
    `make_record` in the package."""
    src = pathlib.Path(suites.__file__).parent
    tree = ast.parse((src / "suites.py").read_text(encoding="utf-8"))
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_chk_")]
    assert {node.name for node in checks} == {
        row.fn.__name__ for row in suites._CHECKS.values() if row.fn is not None}
    for node in checks:
        (deco,) = node.decorator_list
        assert isinstance(deco, ast.Call) and deco.func.id == "_check", node.name
        for ret in (sub for sub in ast.walk(node) if isinstance(sub, ast.Return)):
            where = f"suites.py:{ret.lineno}: {ast.unparse(ret)}"
            assert isinstance(ret.value, ast.Tuple) and len(ret.value.elts) == 2, where
            residuals, order = ret.value.elts
            assert not isinstance(residuals, ast.Constant), where
            assert (isinstance(order, ast.Constant) and order.value is None) or (
                isinstance(order, ast.Call) and order.func.id == "_order"), where
    named = [f"suites.py:{node.lineno}: {node.id}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id.startswith("_chk_")]
    assert not named, "a check function named outside its definition:\n" + "\n".join(named)

    labels = {row.contract[1] for row in suites._CHECKS.values()}
    labels |= {row.abelian[1] for row in suites._CHECKS.values() if row.abelian}
    cli = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}: {node.value!r}" for node in ast.walk(cli)
             if isinstance(node, ast.Constant) and (isinstance(node.value, float)
                                                    or node.value in labels)]
    assert not found, "a contract stated in cli.py:\n" + "\n".join(found)

    callers = []
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(module):
            if isinstance(fn, ast.FunctionDef):
                callers += [f"{path.name}:{fn.name}" for call in ast.walk(fn)
                            if isinstance(call, ast.Call) and getattr(call.func, "id", None)
                            == "make_record"]
    assert callers == ["suites.py:record"]


@pytest.mark.parametrize("name, tolerances, contract", [
    ("gauge-jet-so3", {}, (1e-3, "dropping the adjoint twist breaks equivariance", "min>tol")),
    ("gauge-jet-abelian", {},
     (1e-12, "dropping the adjoint twist is invisible for abelian fibers", "max<=tol")),
    # the config's override moves the tolerance of the contract the fiber chose
    ("gauge-jet-abelian", {"classification-negative-control": 0.25},
     (0.25, "dropping the adjoint twist is invisible for abelian fibers", "max<=tol")),
])
def test_record_gives_the_twist_control_its_abelian_contract_on_abelian_fibers(
        name, tolerances, contract):
    scenario = build_scenario(dict(preset_config(name), tolerances=tolerances))
    record = suites.record(scenario, "classification-negative-control", [0.5, 0.125], order=3)
    assert (record.tolerance, record.label, record.mode) == contract
    assert (record.check, record.scenario, record.samples) == (
        "classification-negative-control", name, 2)
    assert (record.max_residual, record.order_estimate) == (0.5, 3.0)
    # a row without an abelian contract keeps its own on an abelian fiber
    axioms = suites.record(scenario, "jet-group-axioms", [0.0])
    assert (axioms.tolerance, axioms.label, axioms.mode) == (
        1e-12, "semidirect jet group axioms and inverse formula", "max<=tol")


@pytest.mark.parametrize("name, key", [
    ("principal-so3", "transport-multiplicatve"),  # misspelled
    ("gauge-jet-so3", "transport-error-estimate"),  # no gauge command writes it
    ("affine-varying", "transport-unit-inverse"),  # a principal check
])
def test_run_suite_refuses_a_tolerance_key_no_command_writes(name, key):
    scenario = build_scenario(dict(preset_config(name), tolerances={key: 1e-30}))
    with pytest.raises(UsageError) as err:
        run_suite(scenario, only=available_checks(scenario.kind)[:1])
    assert str(err.value) == (f"config field tolerances must be keyed by {scenario.kind} "
                              f"check ids, got {key!r}")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_tolerance_keys_are_the_records_the_commands_write(name, tmp_path):
    """The keys `check_tolerances` accepts are the ids of the records that
    `validate`, `transport` and `curvature` write on the preset's kind."""
    from liebundles.cli import main

    config = dict(preset_config(name), samples=1, step=0.05)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    written = set()
    for command in ("validate", "transport", "curvature"):
        out = tmp_path / f"{command}.jsonl"
        if main([command, "--config", str(path), "--no-meta", "--out", str(out)]) == 2:
            assert command == "transport" and config["kind"] == "gauge"
            continue
        written |= {json.loads(line).get("check") for line in out.read_text().splitlines()}
    written.discard(None)
    assert written == {check for check, _ in suites._checks_for(config["kind"])}
    scenario = build_scenario(dict(config, tolerances={check: 1.0 for check in written}))
    suites.check_tolerances(scenario)


def test_run_suite_seeds_with_the_scenario_seed():
    only = ["generator-equivariance", "paired-generators"]
    config = preset_config("principal-so3")
    config["seed"] = 7
    seeded = run_suite(build_scenario(config), only=only)
    assert seeded == run_suite(PRINCIPAL, seed=7, only=only)
    assert seeded != run_suite(PRINCIPAL, only=only)


def test_unknown_preset_raises():
    with pytest.raises(UsageError):
        preset_config("nope")


def test_principal_scenario_connections_validate():
    rng = np.random.default_rng(0)
    assert max(validate_group_connection(PRINCIPAL.nu, rng, samples=50).values()) <= 1e-6
    for omega in (PRINCIPAL.omega, PRINCIPAL.transport_form):
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


@pytest.mark.parametrize("scenario", [AFFINE_CONST, AFFINE_VAR], ids=lambda s: s.name)
def test_affine_form_matrix_equals_the_per_point_oracle(scenario):
    """omega = over(nu, -Gamma) on a stack of 500 points is, bit for bit, the
    matrix written out from the tables point by point: -beta - C_nu(h) adds
    K v, negated by nu's lift map and back by the form, to Gamma."""
    rng = np.random.default_rng(46)
    chart, m = scenario.chart, scenario.group.dim
    q = rng.uniform(chart.lower, chart.upper, (500, chart.dim))
    y = scenario.fiber_point(q, rng.uniform(-1.0, 1.0, (500, m)))
    got = scenario.omega.matrix(y)
    for k in range(500):
        assert np.array_equal(got[k], affine_form_matrix_oracle(scenario, q[k],
                                                                y.fiber.matrix[k])), k


def _torsor_nus():
    """(scenario, nu) for each nu of each torsor preset, its ``nus`` values
    and the nu of each of its forms, each nu once."""
    seen = {}
    for s in (PRINCIPAL, AFFINE_CONST, AFFINE_VAR):
        for key, nu in [*s.nus.items(), *((f"{k}.nu", f.nu) for k, f in s.forms.items())]:
            seen.setdefault(id(nu), pytest.param(s, nu, id=f"{s.name}:{key}"))
    return list(seen.values())


@pytest.mark.parametrize("scenario, nu", _torsor_nus())
def test_lift_map_broadcasts_row_by_row_and_over_nu_at_zero_beta_lifts_by_nu(scenario, nu):
    """(a) The lift map's contract: points with a new axis, directions and
    fibers with a new axis give rows (r, k) equal to the lone calls, bit for
    bit.  (b) The defining property of `over`, on either of its paths: the
    connection over nu with beta = 0 has nu's lift as its horizontal lift."""
    rng = np.random.default_rng(47)
    n = scenario.chart.dim
    y, u = scenario.action.space.random_points(rng, 200, Normal((n,)))
    directions = np.vstack([np.eye(n), rng.standard_normal((1, n))])
    rows = nu.lift_map(y.q[:, None], directions)(y.fiber.matrix[:, None])
    for r in range(200):
        for k, e in enumerate(directions):
            assert np.array_equal(rows[r, k], nu.lift_map(y.q[r], e)(y.fiber.matrix[r])), (r, k)
    zero = LieGroupBundleConnection.trivial(scenario.action.bundle).base_form
    omega = GeneralizedPrincipalConnection.over(scenario.action, nu, zero)
    lifts = nu.lift_map(y.q, u)(y.fiber.matrix)
    assert np.max(np.abs(omega.horizontal_deltas(y, u) - lifts)) <= 1e-14


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
        res = affine_reconstruction_residual(scenario, scenario.omega, rng, samples=30)
        assert res <= 1e-9


def test_affine_transport_and_suite_never_run_the_checked_log(monkeypatch):
    """The affine form and lift map read the log of fibers the integrator has
    just retracted, so they take the raw `log_coords`; the checked `log` is
    for outside input."""
    calls = []
    checked = GroupDescriptor.log
    monkeypatch.setattr(GroupDescriptor, "log",
                        lambda self, g: calls.append(g) or checked(self, g))
    curve = AFFINE_VAR.curves["main"]
    y0 = AFFINE_VAR.fiber_point(curve.position(curve.a), [[0.3, -0.2], [0.1, 0.5]])
    transport_total(AFFINE_VAR.omega, curve, y0, step=1e-2)
    run_suite(AFFINE_VAR)
    assert calls == []
    AFFINE_VAR.group.log(AFFINE_VAR.group.identity())
    assert len(calls) == 1


@pytest.mark.parametrize("scenario", [AFFINE_CONST, AFFINE_VAR, PRINCIPAL],
                         ids=lambda s: s.name)
def test_raw_log_equals_checked_log_on_exp_draws_and_integrator_ends(scenario):
    group = scenario.group
    rng = np.random.default_rng(46)
    curve = scenario.curves["main"]
    for rows in (1, 3, 9):
        draws = group.exp(group.algebra(rng.uniform(-1.0, 1.0, (rows, group.dim))))
        end, _ = transport_total(scenario.transport_form, curve,
                                 TotalPoint(curve.position(curve.a), draws), step=1e-2)
        for fibers in (draws, end.fiber):
            assert np.array_equal(group.log_coords(fibers.matrix), group.log(fibers).coords)
            for row in fibers.matrix:
                assert np.array_equal(group.log_coords(row), group.log(group.element(row)).coords)


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
    got = scenario.group.log(end.fiber).coords

    # straight line: constant-coefficient linear system with augmented expm
    start_x, end_x = curve.position(curve.a), curve.position(curve.b)
    u = (end_x - start_x) / (curve.b - curve.a)
    nu_u = np.tensordot(u, scenario.nu_coeff(start_x), axes=(0, 0))
    gamma_u = u @ scenario.gamma(start_x)
    expected = affine_transport_oracle(nu_u, gamma_u, curve.b - curve.a, y0v)
    assert np.linalg.norm(got - expected) <= 1e-7
    # the suite's form-free reference flow meets the closed form too
    flow = affine_transport_flow(scenario, curve, y0v[None], 1e-3)[0]
    assert np.linalg.norm(flow - expected) <= 1e-10


def test_affine_transport_flow_reads_only_the_coefficient_tables(monkeypatch):
    """The reference flow shares no code with the group transport it checks:
    with no form, group connection or action in the scenario, and every group
    log, exp and retraction refusing, it still runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the linear flow called a group kernel")

    for name in ("log", "log_coords", "exp", "exp_coords", "retract"):
        monkeypatch.setattr(GroupDescriptor, name, refuse)
    bare = dataclasses.replace(AFFINE_VAR, action=None, nu=None, omega=None, transport_form=None,
                               forms={}, nus={}, difference_pair=None)
    out = affine_transport_flow(bare, bare.curves["main"], np.full((3, 2), 0.25), 1e-2)
    assert out.shape == (3, 2) and np.all(np.isfinite(out))


@pytest.mark.parametrize("scenario", [AFFINE_CONST, AFFINE_VAR], ids=lambda s: s.name)
def test_affine_transport_flow_is_the_group_transport_at_one_step(scenario):
    """For an abelian fiber RKMK4 is RK4 on the augmented system, so at the
    same step the flow and the group transport agree to roundoff: the flow
    follows the transport's sign convention."""
    curve, step = scenario.curves["main"], scenario.config["step"]
    for seed in (0, 7919):
        v0 = np.random.default_rng(seed).uniform(-1, 1, (5, 2))
        end, _ = transport_total(scenario.transport_form, curve,
                                 scenario.fiber_point(curve.position(curve.a), v0), step=step)
        gap = scenario.group.log_coords(end.fiber.matrix) - affine_transport_flow(
            scenario, curve, v0, step)
        assert np.max(np.linalg.norm(gap, axis=-1)) <= 1e-15, seed


@pytest.mark.parametrize("scenario", [AFFINE_CONST, AFFINE_VAR], ids=lambda s: s.name)
def test_affine_transport_check_fails_on_a_form_off_the_tables(scenario):
    """The check's reference comes from ``nu_coeff`` and ``gamma`` alone, so
    a form over the same nu with another horizontal part, the shifted half of
    the difference pair, fails it, where a finer rerun of the same form
    would agree with it."""
    check = "affine-transport-self-consistency"
    (good,) = run_suite(scenario, only=[check])
    shifted = scenario.difference_pair[1]
    (bad,) = run_suite(dataclasses.replace(scenario, omega=shifted, transport_form=shifted),
                       only=[check])
    assert good.passed and good.max_residual <= 1e-10
    assert not bad.passed and bad.max_residual > 1e-3


def test_affine_transport_check_runs_one_group_transport(monkeypatch):
    """The reference is the linear flow, not a second group transport at a
    finer step: the check makes one RKMK4 run, on the main curve at the
    config step: one loop of one leg."""
    loops = []
    real = integrators._run

    def counted(desc, g, legs):
        loops.append([(leg.t0, leg.t1, leg.steps) for leg in legs])
        return real(desc, g, legs)

    monkeypatch.setattr(integrators, "_run", counted)
    (record,) = run_suite(AFFINE_VAR, only=["affine-transport-self-consistency"])
    assert record.passed
    curve = AFFINE_VAR.curves["main"]
    assert loops == [[integrators._steps((curve.a, curve.b), AFFINE_VAR.config["step"])]]


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
    f = GAUGE.omega_hat.f(x)
    g2 = GAUGE.omega_hat.g2(x)
    assert f.shape == (2, 3)
    assert g2.shape == (2, 2, 3)
    assert f[0, 0] == pytest.approx(0.3 + 0.5 * 0.3)


def test_random_curve_stays_in_chart():
    rng = np.random.default_rng(8)
    for _ in range(5):
        c = random_curve(PRINCIPAL.chart, rng)
        assert c.validate(PRINCIPAL.chart) <= 1e-6
