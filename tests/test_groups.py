"""Group kernel tests: exponential, logarithm, adjoint, bracket, descriptors."""

import ast
import json
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import liebundles
from liebundles.errors import DescriptorError, DomainError, RangeError, UsageError
from liebundles.groups import (
    GroupDescriptor,
    _norm,
    _orthogonal_retract,
    derive_structure_constants,
    so3_descriptor,
    translation_descriptor,
)
from liebundles.scenarios import descriptor_from_json

from _oracles import (_row_norm, bracket_oracle, hat_so3_exp, orthogonal_residual,
                      per_pair_commutator_residual, per_pair_structure_constants, per_row_ad_matrix,
                      series_logm, so3_hat, taylor_expm, two_check_orthogonal_retract)

SO3 = so3_descriptor()
T2 = translation_descriptor(2)

# SO(3) as a descriptor document: the standard antisymmetric basis, row-major,
# with [E_1, E_2] = E_3 and its cyclic shifts; it still carries the
# `matrix_dim` that documents may hold and that the basis fixes
SO3_DOC = {
    "name": "so3",
    "matrix_dim": 3,
    "basis": [[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
              [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
              [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
    "structure_constants": [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
                            [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
    "membership_tol": 1e-8,
    "family": "orthogonal",
    "injectivity_radius": np.pi - 0.1,
}

coords3 = st.tuples(*[st.floats(-1.2, 1.2) for _ in range(3)]).map(np.array)


def test_descriptor_invariants():
    assert SO3.validate()["jacobi"] <= 1e-12
    assert T2.validate()["commutator"] == 0.0


def test_exp_of_zero_is_identity():
    assert np.allclose(SO3.exp(SO3.zero()).matrix, np.eye(3))
    assert np.allclose(T2.exp(T2.zero()).matrix, np.eye(3))


def test_exp_so3_pi_about_third_axis_matches_taylor_oracle():
    xi = SO3.algebra([0.0, 0.0, np.pi])
    expected = taylor_expm(so3_hat([0.0, 0.0, np.pi]))
    assert np.allclose(SO3.exp(xi).matrix, expected, atol=1e-12)
    assert np.allclose(SO3.exp(xi).matrix, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_exp_abelian_is_identity_on_coordinates():
    v = np.array([0.7, -0.3])
    g = T2.exp(T2.algebra(v))
    assert np.allclose(g.matrix[:2, 2], v)


def test_exp_rejects_non_finite():
    with pytest.raises(DomainError):
        SO3.exp(SO3.algebra([np.nan, 0.0, 0.0]))


def test_log_identity_is_zero():
    assert np.linalg.norm(SO3.log(SO3.identity()).coords) == 0.0


def test_log_rotation_matches_series_oracle():
    g = SO3.exp(SO3.algebra([0.0, 0.0, 0.3]))
    oracle = series_logm(g.matrix)
    assert np.allclose(SO3.log(g).matrix, oracle, atol=1e-12)
    assert np.allclose(SO3.log(g).coords, [0.0, 0.0, 0.3], atol=1e-12)


def test_log_abelian_roundtrip():
    v = np.array([5.0, -11.0])
    assert np.allclose(T2.log(T2.exp(T2.algebra(v))).coords, v)


def test_log_outside_injectivity_region_raises():
    g = SO3.exp(SO3.algebra([0.0, 0.0, np.pi - 1e-4]))
    with pytest.raises(RangeError):
        SO3.log(g)


def test_checked_log_refuses_a_non_member_a_far_element_and_a_non_finite_matrix():
    rotation = SO3.exp(SO3.algebra([0.2, -0.4, 0.3])).matrix
    with pytest.raises(RangeError, match="does not reproduce"):
        SO3.log(SO3.element(1.3 * rotation, check=False))
    sheared = T2.exp(T2.algebra([0.5, 1.0])).matrix
    sheared[0, 1] = 1e-3
    with pytest.raises(DescriptorError, match="span"):
        T2.log(T2.element(sheared, check=False))
    with pytest.raises(RangeError, match="injectivity radius"):
        SO3.log(SO3.exp(SO3.algebra([0.0, 0.0, np.pi - 0.07])))
    for desc, entry in ((SO3, (0, 1)), (T2, (0, 2))):
        matrix = np.eye(desc.matrix_dim)
        matrix[entry] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            desc.log(desc.element(matrix, check=False))


def test_adjoint_identity_fixes_algebra():
    xi = SO3.algebra([0.2, -0.4, 0.9])
    assert np.allclose(SO3.Ad(SO3.identity(), xi).coords, xi.coords)


def test_adjoint_rotation_about_third_axis():
    theta = 0.77
    g = SO3.exp(SO3.algebra([0.0, 0.0, theta]))
    got = SO3.Ad(g, SO3.algebra([1.0, 0.0, 0.0])).coords
    # explicit conjugation oracle
    conj = g.matrix @ so3_hat([1.0, 0.0, 0.0]) @ g.matrix.T
    expected = np.array([conj[2, 1], conj[0, 2], conj[1, 0]])
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got, [np.cos(theta), np.sin(theta), 0.0], atol=1e-12)


def test_adjoint_abelian_is_trivial():
    g = T2.exp(T2.algebra([3.0, 4.0]))
    xi = T2.algebra([-1.0, 2.0])
    assert np.allclose(T2.Ad(g, xi).coords, xi.coords)


def test_bracket_matches_matrix_commutator():
    xi = SO3.algebra([1.0, 0.0, 0.0])
    eta = SO3.algebra([0.0, 1.0, 0.0])
    got = SO3.bracket(xi, eta)
    comm = xi.matrix @ eta.matrix - eta.matrix @ xi.matrix
    assert np.allclose(got.matrix, comm, atol=1e-14)
    assert np.allclose(got.coords, [0.0, 0.0, 1.0])


def test_bracket_antisymmetry_and_abelian():
    xi = SO3.algebra([0.3, 0.1, -0.2])
    assert np.linalg.norm(SO3.bracket(xi, xi).coords) <= 1e-15
    a, b = T2.algebra([1.0, 2.0]), T2.algebra([3.0, -1.0])
    assert np.linalg.norm(T2.bracket(a, b).coords) == 0.0


def test_bracket_descriptor_mismatch_raises():
    with pytest.raises(UsageError):
        SO3.bracket(SO3.algebra([1, 0, 0]), T2.algebra([1, 0]))


@pytest.mark.parametrize("desc", [SO3, T2], ids=["so3", "translation2"])
def test_stacked_bracket_rows_equal_lone_calls(desc):
    xi, eta = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 8, desc.dim))
    stacked = desc.bracket(desc.algebra(xi), desc.algebra(eta)).coords
    assert stacked.shape == (8, desc.dim)
    for r in range(8):
        lone = desc.bracket(desc.algebra(xi[r]), desc.algebra(eta[r])).coords
        assert np.array_equal(stacked[r], lone), r


@settings(max_examples=60, deadline=None)
@given(coords3)
def test_exp_log_roundtrip_so3(w):
    xi = SO3.algebra(w)
    if np.linalg.norm(xi.coords) > SO3.injectivity_radius:
        return
    back = SO3.log(SO3.exp(xi))
    assert np.linalg.norm(back.coords - xi.coords) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(coords3, coords3, coords3)
def test_adjoint_is_homomorphism(a, b, w):
    g, h = SO3.exp(SO3.algebra(a)), SO3.exp(SO3.algebra(b))
    xi = SO3.algebra(w)
    lhs = SO3.Ad(g @ h, xi).coords
    rhs = SO3.Ad(g, SO3.Ad(h, xi)).coords
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_adjoint_derivative_is_bracket_with_second_order_fd():
    rng = np.random.default_rng(3)
    eta = SO3.algebra(rng.uniform(-1, 1, 3))
    xi = SO3.algebra(rng.uniform(-1, 1, 3))
    expected = SO3.bracket(eta, xi).coords

    def fd(h):
        gp = SO3.exp(SO3.algebra(h * eta.coords))
        gm = SO3.exp(SO3.algebra(-h * eta.coords))
        return (SO3.Ad(gp, xi).coords - SO3.Ad(gm, xi).coords) / (2 * h)

    errs = [np.linalg.norm(fd(h) - expected) for h in (1e-2, 5e-3, 2.5e-3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert np.median(orders) >= 1.9


def test_membership_enforced_and_retraction_repairs():
    bad = np.eye(3) + 1e-3
    with pytest.raises(DescriptorError):
        SO3.element(bad)
    fixed = SO3.retract(bad)
    assert SO3.membership_residual(fixed) <= 1e-12


def test_ad_matrix_consistent_with_ad():
    rng = np.random.default_rng(5)
    g = SO3.random_element(rng)
    xi = SO3.random_algebra(rng)
    assert np.allclose(SO3.Ad_matrix(g) @ xi.coords, SO3.Ad(g, xi).coords, atol=1e-12)


def test_descriptor_json_roundtrip():
    desc = descriptor_from_json(json.loads(json.dumps(SO3_DOC)))
    rng = np.random.default_rng(11)
    xi = desc.random_algebra(rng)
    assert np.allclose(desc.exp(xi).matrix, SO3.exp(SO3.algebra(xi.coords)).matrix, atol=1e-12)
    # the family key selects the retraction and the default radius
    assert desc.retraction is _orthogonal_retract
    unsized = descriptor_from_json({k: v for k, v in SO3_DOC.items() if k != "injectivity_radius"})
    assert unsized.injectivity_radius == np.pi - 0.1


def test_descriptor_json_missing_field_raises():
    with pytest.raises(UsageError):
        descriptor_from_json({"name": "broken"})


def test_the_basis_fixes_the_matrix_size():
    """The matrix size is read from the basis, never given beside it, and a
    basis of non-square matrices builds no descriptor."""
    assert (SO3.matrix_dim, T2.matrix_dim, _mixed_so3().matrix_dim) == (3, 3, 3)
    with pytest.raises(TypeError):
        GroupDescriptor(name="g", matrix_dim=2, basis=SO3.basis,
                        structure_constants=SO3.structure_constants)
    with pytest.raises(UsageError, match=r"basis has shape \(1, 2, 3\)"):
        GroupDescriptor(name="g", basis=np.zeros((1, 2, 3)), structure_constants=np.zeros((1,) * 3))


# the stretch generators diag(1, -1, 0) and diag(0, 1, -1), row-major
STRETCH_BASIS = [[1, 0, 0, 0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0, -1]]


@pytest.mark.parametrize("basis, family", [
    (STRETCH_BASIS, "orthogonal"),
    (T2.basis.tolist(), "orthogonal"),
    (SO3_DOC["basis"], "translation"),
    (STRETCH_BASIS, "translation"),
])
def test_a_family_its_basis_cannot_satisfy_is_refused_at_load(basis, family):
    """orthogonal needs antisymmetric elements and translation elements zero
    outside the last column above the corner, which the family's membership
    measure of exp of each basis element reads; generic takes either basis."""
    with pytest.raises(UsageError, match="config field group.family must be a family the "
                       r"basis fits \(exp of a basis element is \S+ off the group\)"):
        descriptor_from_json({"name": "g", "basis": basis, "family": family})
    assert descriptor_from_json({"name": "g", "basis": basis}).retraction is None


def test_descriptor_rejects_non_closed_basis():
    # raising and lowering matrices bracket to a diagonal outside their span
    bad = {
        "name": "not-closed",
        "basis": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        "family": "generic",
    }
    with pytest.raises(DescriptorError):
        descriptor_from_json(bad)


def test_descriptor_rejects_wrong_structure_constants_at_load():
    doc = dict(SO3_DOC)
    doc["structure_constants"] = (-np.asarray(doc["structure_constants"])).tolist()
    with pytest.raises(DescriptorError, match="structure constant check failed"):
        descriptor_from_json(doc)


def test_log_without_hook_is_deterministic_and_keeps_global_rng():
    # scipy's logm estimates norms from numpy's global RNG; the jet descriptor
    # has no log hook, so its log goes through logm
    from liebundles.gauge import semidirect_jet_descriptor

    desc = semidirect_jet_descriptor(so3_descriptor(), 2)
    rng = np.random.default_rng(37)
    elements = [desc.random_element(rng) for _ in range(200)]
    np.random.seed(11)
    before = np.random.get_state()
    first = [desc.log(g).coords for g in elements]
    second = [desc.log(g).coords for g in elements]
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


def test_so3_lone_exp_equals_its_stacked_row():
    # the angle is squared as theta * theta, which rounds alike for the numpy
    # scalar of a lone matrix and for an array
    coords = np.random.default_rng(0).uniform(-1.0, 1.0, (3000, 3))
    stacked = SO3.exp_coords(coords)
    assert all(np.array_equal(SO3.exp_coords(c), row) for c, row in zip(coords, stacked))


def _unit_axes(rng, count):
    axes = rng.standard_normal((count, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


def test_so3_exp_from_coordinates_equals_the_hat_matrix_kernel():
    # 10,000 rows at angles 0, 1e-9, 1e-3, 1 and 3, on both sides of the
    # series switch at 1e-8: in one mixed stack, in stacks that take only the
    # series or only Rodrigues, and as lone rows
    rng = np.random.default_rng(3)
    angles = np.repeat([0.0, 1e-9, 1e-3, 1.0, 3.0], 2000)
    coords = _unit_axes(rng, angles.size) * angles[:, None]
    for rows in (coords, coords[:2000], coords[2000:4000], coords[4000:]):
        assert np.array_equal(SO3.exp_coords(rows), hat_so3_exp(SO3.algebra_matrix(rows)))
    assert all(np.array_equal(SO3.exp_coords(c), hat_so3_exp(SO3.algebra_matrix(c)))
               for c in coords[::997])


@pytest.mark.parametrize("k", [1, 3, 9, 17])
def test_norm_rows_equal_the_per_row_product_alone_and_in_a_stack(k):
    # rows of zeros, subnormals and entries whose squares underflow or
    # overflow, shuffled into one stack, into a (., 2, k) stack and alone
    rng = np.random.default_rng(8)
    scales = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e150, 1e300]
    rows = np.concatenate([s * rng.uniform(-1.0, 1.0, (4, k)) for s in scales])
    rng.shuffle(rows)
    with np.errstate(over="ignore"):
        assert np.array_equal(_norm(rows), _row_norm(rows))
        assert np.array_equal(_norm(rows.reshape(-1, 2, k)), _row_norm(rows.reshape(-1, 2, k)))
        assert all(_norm(row) == _row_norm(row) for row in rows)
        assert np.isinf(_norm(rows)).any() and (_norm(rows) == 0.0).any()


def test_translation_exp_is_identity_plus_hat():
    c = np.random.default_rng(4).uniform(-1.0, 1.0, (500, 2))
    assert np.array_equal(T2.exp_coords(c), np.eye(3) + T2.algebra_matrix(c))


def _drifted_rotations(rng, defects):
    """Rotations times I + S, S symmetric with |S|_F = defect / 2, so the Gram
    defect (I + S)^2 - I has a Frobenius norm close to ``defect``."""
    rot = SO3.exp_coords(_unit_axes(rng, defects.size) * rng.uniform(0.0, 3.0, (defects.size, 1)))
    sym = rng.standard_normal((defects.size, 3, 3))
    sym = sym + sym.swapaxes(-1, -2)
    sym *= (0.5 * defects / np.linalg.norm(sym, axis=(-2, -1)))[:, None, None]
    return rot @ (np.eye(3) + sym)


def test_retraction_equals_the_two_check_kernel_and_returns_the_residual():
    # Gram defects from 1e-16 to 1e-2: the skipped second check below 1e-8,
    # the second Newton step above it and the SVD from 1e-4, mixed in a stack
    rng = np.random.default_rng(5)
    defects = np.repeat(np.logspace(-16, -2, 15), 700)
    rng.shuffle(defects)
    m = _drifted_rotations(rng, defects)
    assert np.count_nonzero(defects >= 1e-4) > 0
    for rows in (m, m[:5000], m[defects <= 1e-8], m[defects > 1e-8]):
        got, residual = _orthogonal_retract(rows, True)
        assert np.array_equal(got, two_check_orthogonal_retract(rows))
        unmeasured, none = _orthogonal_retract(rows, False)
        assert np.array_equal(unmeasured, got) and none is None
        assert np.array_equal(residual, orthogonal_residual(rows))
        assert np.array_equal(residual, SO3.membership_residual(rows))
    lone, lone_res = SO3.retract_measured(m[7])
    assert np.array_equal(lone, two_check_orthogonal_retract(m[7]))
    assert lone_res == SO3.membership_residual(m[7])


def test_translation_retraction_returns_the_residual():
    m = np.eye(3) + np.random.default_rng(6).uniform(-1e-3, 1e-3, (50, 3, 3))
    got, residual = T2.retract_measured(m)
    assert np.array_equal(got[:, :2, 2], m[:, :2, 2])
    assert np.array_equal(residual, T2.membership_residual(m))
    assert np.array_equal(T2.retract(m), got)


GENERIC_DOC = {**{k: v for k, v in SO3_DOC.items() if k != "family"}, "name": "so3-generic"}
# so3 on a basis of mixed generators: every ad entry sums three constants
MIXED_DOC = {"name": "so3-mixed", "basis": np.tensordot(
    [[1.0, 0.5, -0.25], [0.25, 1.0, 0.5], [-0.5, 0.25, 1.0]], SO3.basis, axes=(1, 0)).tolist()}


def _membership_descriptors():
    from liebundles.gauge import semidirect_jet_descriptor
    return [SO3, T2, semidirect_jet_descriptor(SO3, 2), descriptor_from_json(GENERIC_DOC)]


def _mixed_so3():
    return descriptor_from_json(MIXED_DOC)


TRANSLATION_DOC = {"name": "translation2-doc", "basis": T2.basis.tolist(),
                   "family": "translation"}


def _retraction_descriptors():
    from liebundles.gauge import semidirect_jet_descriptor
    return [SO3, T2, semidirect_jet_descriptor(SO3, 2), semidirect_jet_descriptor(T2, 2)] + [
        descriptor_from_json(doc) for doc in (SO3_DOC, TRANSLATION_DOC, GENERIC_DOC)]


@pytest.mark.parametrize("desc", _retraction_descriptors(), ids=lambda d: d.name)
def test_retract_is_the_measured_retraction_without_its_residual(desc):
    """`retract` returns the matrices of `retract_measured` bit for bit, a
    stack and a lone matrix alike, and asks its hook for no residual."""
    rng = np.random.default_rng(12)
    m = desc.exp_coords(rng.uniform(-1.0, 1.0, (6, desc.dim)))
    m = m + rng.uniform(-1e-3, 1e-3, m.shape)
    for mats in (m, m[2]):
        assert np.array_equal(desc.retract(mats), desc.retract_measured(mats)[0])
        if desc.retraction is not None:
            assert desc.retraction(mats, False)[1] is None


@pytest.mark.parametrize("desc", _retraction_descriptors(), ids=lambda d: d.name)
def test_exp_measures_no_membership(desc, monkeypatch):
    """An exp draw retracts without measuring: no determinant on so3, and no
    call of `membership_residual` or `retract_measured` on any descriptor."""
    calls = []

    def counted(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    for name in ("membership_residual", "retract_measured"):
        monkeypatch.setattr(GroupDescriptor, name, counted(name, getattr(GroupDescriptor, name)))
    rng = np.random.default_rng(13)
    stacked = desc.exp(desc.algebra(rng.uniform(-1.0, 1.0, (5, desc.dim))))
    lone = desc.random_element(rng)
    assert calls == []
    assert stacked.matrix.shape == (5,) + lone.matrix.shape


@pytest.mark.parametrize("doc, retraction, radius", [
    (SO3_DOC, _orthogonal_retract, np.pi - 0.1),
    (GENERIC_DOC, None, np.pi - 0.1),
    (MIXED_DOC, None, np.inf),
], ids=lambda v: v["name"] if isinstance(v, dict) else "")
def test_descriptor_document_builds_the_descriptor_of_its_fields(doc, retraction, radius):
    """A document gives the descriptor built directly from its fields."""
    mdim = round(np.sqrt(np.size(doc["basis"][0])))
    basis = np.reshape(doc["basis"], (-1, mdim, mdim))
    c = doc.get("structure_constants")
    want = GroupDescriptor(
        name=doc["name"], basis=basis,
        structure_constants=derive_structure_constants(basis) if c is None else c,
        membership_tol=doc.get("membership_tol", 1e-8), injectivity_radius=radius,
        retraction=retraction)
    got = descriptor_from_json(doc)
    assert (got.name, got.matrix_dim) == (want.name, want.matrix_dim)
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.structure_constants, want.structure_constants)
    assert got.membership_tol == want.membership_tol
    assert got.injectivity_radius == want.injectivity_radius
    assert got.retraction is want.retraction


@pytest.mark.parametrize("desc", _membership_descriptors() + [_mixed_so3()], ids=lambda d: d.name)
def test_ad_matrix_rows_equal_the_per_row_product(desc):
    # one (200, d) by (d, d d) product rounds the mixed rows differently
    coords = np.random.default_rng(9).uniform(-2.0, 2.0, (200, desc.dim))
    per_row = per_row_ad_matrix(desc, coords)
    assert np.array_equal(desc.ad_matrix(coords), per_row)
    assert np.array_equal(desc.ad_matrix(coords.reshape(40, 5, -1)), per_row.reshape(
        (40, 5) + per_row.shape[1:]))
    assert all(np.array_equal(desc.ad_matrix(c), row) for c, row in zip(coords, per_row))


@pytest.mark.parametrize("desc", _membership_descriptors(), ids=lambda d: d.name)
def test_membership_residual_is_the_residual_the_retraction_measures(desc):
    """The retraction is the one membership measure; a descriptor without
    one measures zero, as a numpy float for a lone matrix."""
    rng = np.random.default_rng(9)
    m = desc.exp_coords(rng.uniform(-1.0, 1.0, (6, desc.dim)))
    m = m + rng.uniform(-1e-3, 1e-3, m.shape)
    stacked = desc.membership_residual(m)
    assert stacked.shape == (6,)
    assert np.array_equal(stacked, desc.retract_measured(m)[1])
    for row, residual in zip(m, stacked):
        lone = desc.membership_residual(row)
        assert isinstance(lone, np.float64)
        assert lone == desc.retract_measured(row)[1] == residual
    if desc.retraction is None:
        assert not np.any(stacked) and desc.retract(m) is m
    else:
        assert np.all(stacked > 0.0)


@pytest.mark.parametrize("desc, row, col, value", [
    (SO3, 0, 0, np.nan), (SO3, 1, 2, np.inf), (SO3, 2, 0, -np.inf),
    (T2, 0, 2, np.nan), (T2, 1, 2, np.inf),
])
def test_checked_element_refuses_a_non_finite_matrix(desc, row, col, value):
    """A NaN passes no residual test, and the translation residual does not
    read the translation column, so finiteness is checked on its own."""
    rng = np.random.default_rng(4)
    good = desc.exp_coords(rng.uniform(-1.0, 1.0, (3, desc.dim)))
    bad = good[1].copy()
    bad[row, col] = value
    with pytest.raises(DescriptorError, match=r"membership \(non-finite entries\)"):
        desc.element(bad)
    with pytest.raises(DescriptorError, match=r"membership in rows \[1\] \(non-finite entries\)"):
        desc.element(np.stack([good[0], bad, good[2]]))
    with pytest.raises(DescriptorError, match=r"membership \(non-finite entries\)"):
        desc.element(np.full((desc.matrix_dim,) * 2, value))
    desc.element(good)
    desc.element(bad, check=False)


def test_inverse_matches_linalg_inv():
    # so3 draws are retracted exp values, orthogonal to roundoff
    rng = np.random.default_rng(8)
    g = SO3.exp(SO3.algebra(rng.uniform(-3.0, 3.0, (1000, 3)))).matrix
    assert np.max(np.abs(SO3.inverse(g) - np.linalg.inv(g))) <= 1e-15
    assert not np.shares_memory(SO3.inverse(g), g)
    t = T2.exp_coords(rng.uniform(-5.0, 5.0, (1000, 2)))
    assert np.array_equal(T2.inverse(t), np.linalg.inv(t))
    assert np.array_equal(T2.inverse(t[0]), np.linalg.inv(t[0]))
    desc = descriptor_from_json(dict(SO3_DOC, family="generic"))
    assert np.array_equal(desc.inverse(g), np.linalg.inv(g))


_INV = re.compile(r"np\.linalg\.inv\(")


def test_group_inverse_is_the_only_linalg_inv():
    """No module of the package calls np.linalg.inv( outside
    GroupDescriptor.inverse: every group matrix is inverted through its
    descriptor, which transposes on so3 and negates the column on translations."""
    pkg = pathlib.Path(liebundles.__file__).parent
    tree = ast.parse((pkg / "groups.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "GroupDescriptor")
    method = next(node for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "inverse")
    allowed = range(method.lineno, method.end_lineno + 1)
    found = []
    for path in sorted(pkg.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _INV.search(line) and not (path.name == "groups.py" and lineno in allowed):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not found, "np.linalg.inv outside GroupDescriptor.inverse:\n" + "\n".join(found)
    assert _INV.search("x = np.linalg.inv(m)") and not _INV.search("desc.inverse(m)")


_ABELIAN_TEST = re.compile(r"\b(?:any|all|count_nonzero|allclose|array_equal)\([^)]*"
                           r"structure_constants|structure_constants\b[^\n]*\.(?:any|all)\(")


def test_only_the_descriptor_decides_abelian_from_structure_constants():
    """No module of the package but groups.py tests structure_constants to
    decide whether a fiber is abelian: every other module reads
    GroupDescriptor.abelian, set once when the descriptor is built."""
    pkg = pathlib.Path(liebundles.__file__).parent
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(pkg.glob("*.py")) if path.name != "groups.py"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _ABELIAN_TEST.search(line)]
    assert not found, "abelian decided outside GroupDescriptor:\n" + "\n".join(found)
    for line in ("if not np.any(desc.structure_constants):",
                 "flat = np.all(group.structure_constants == 0)",
                 "if desc.structure_constants.any():",
                 "ok = (desc.structure_constants == 0).all()"):
        assert _ABELIAN_TEST.search(line), line
    for line in ("if desc.abelian:", 'c = doc.get("structure_constants")',
                 "structure_constants=derive_structure_constants(basis),"):
        assert not _ABELIAN_TEST.search(line), line


def test_abelian_is_whether_every_structure_constant_vanishes():
    assert T2.abelian and not SO3.abelian
    assert descriptor_from_json(dict(SO3_DOC, family="generic")).abelian is False
    assert GroupDescriptor(name="g", basis=np.zeros((1, 2, 2)),
                           structure_constants=np.zeros((1,) * 3)).abelian


_CONFIG_READING = re.compile(r"^\s*(import json|from json )|\bopen\(", re.MULTILINE)


def test_group_kernel_reads_no_config():
    """groups.py holds numerics only: it imports no json and opens no file;
    descriptor documents are read by the config validators of scenarios.py."""
    pkg = pathlib.Path(liebundles.__file__).parent
    found = _CONFIG_READING.findall((pkg / "groups.py").read_text(encoding="utf-8"))
    assert not found, found
    assert _CONFIG_READING.search("import json\n") and _CONFIG_READING.search("with open(p):")
    assert not _CONFIG_READING.search("reopen_count = 0")


def _jet(base, n):
    from liebundles.gauge import semidirect_jet_descriptor
    return semidirect_jet_descriptor(base, n)


# every basis a preset derives constants from, and the generic so3 document
_PRESET_BASES = [pytest.param(lambda: SO3, id="so3"), pytest.param(lambda: T2, id="translation2"),
                 pytest.param(lambda: _jet(SO3, 2), id="jet(so3,2)"),
                 pytest.param(lambda: _jet(T2, 2), id="jet(translation2,2)"),
                 pytest.param(lambda: descriptor_from_json(GENERIC_DOC), id="so3-generic")]
# bases on which one solve over all commutators rounds a few entries otherwise
_OTHER_BASES = [pytest.param(_mixed_so3, id="so3-mixed"),
                pytest.param(lambda: _jet(SO3, 1), id="jet(so3,1)"),
                pytest.param(lambda: _jet(_mixed_so3(), 1), id="jet(so3-mixed,1)")]


@pytest.mark.parametrize("make", _PRESET_BASES)
def test_structure_constants_equal_the_per_pair_solve_on_preset_bases(make):
    basis = make().basis
    assert np.array_equal(derive_structure_constants(basis), per_pair_structure_constants(basis))


@pytest.mark.parametrize("make", _OTHER_BASES)
def test_structure_constants_agree_with_the_per_pair_solve_at_roundoff(make):
    basis = make().basis
    got, want = derive_structure_constants(basis), per_pair_structure_constants(basis)
    # a few ulps of the entry, at most 1.4e-15 on these bases; zeros stay zero
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("make", _PRESET_BASES + _OTHER_BASES)
def test_validate_commutator_residual_equals_the_per_pair_residual(make):
    desc = make()
    assert desc.validate()["commutator"] == per_pair_commutator_residual(desc)


def test_a_commutator_outside_the_span_is_named_by_its_first_pair():
    # E_01 and E_10 of gl(2) bracket to diag(1, -1), outside their span
    basis = np.zeros((2, 2, 2))
    basis[0, 0, 1] = basis[1, 1, 0] = 1.0
    for derive in (derive_structure_constants, per_pair_structure_constants):
        with pytest.raises(DescriptorError, match=r"commutator \[E_0, E_1\] is not in the span"):
            derive(basis)


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_descriptor_algebra_makes_one_solve_and_one_product_at_any_size(monkeypatch):
    """Call counts, not wall time: a per-pair loop would make d^2 calls."""
    solves, products = [], []
    for n in (1, 3):
        lstsq = _count_calls(monkeypatch, np.linalg, "lstsq")
        desc = _jet(SO3, n)
        monkeypatch.undo()
        tensordot = _count_calls(monkeypatch, np, "tensordot")
        desc.validate()
        monkeypatch.undo()
        solves.append(len(lstsq))
        products.append(len(tensordot))
    assert solves == [1, 1]
    assert products[0] == products[1]


# lone, stacked (B, d), and the broadcast (S, n, 1, d) x (S, 1, n, d) of the curvature map
_BRACKET_SHAPES = [((), ()), ((40,), (40,)), ((25, 3, 1), (25, 1, 3)), ((1,), (6,))]


@pytest.mark.parametrize("make", _PRESET_BASES + _OTHER_BASES[:1])
@pytest.mark.parametrize("lead_a, lead_b", _BRACKET_SHAPES)
def test_bracket_equals_the_einsum_reference(make, lead_a, lead_b):
    """The rounds of nonzero constants add their products in einsum's order:
    every entry, and the sign of every zero, is einsum's."""
    desc = make()
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, lead_a + (desc.dim,))
    b = rng.uniform(-1.0, 1.0, lead_b + (desc.dim,))
    a[..., 0] = 0.0  # products of an exact zero with either sign
    got, want = desc.bracket_coords(a, b), bracket_oracle(desc, a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_an_abelian_bracket_computes_no_product():
    out = T2.bracket_coords(np.ones((5, 1, 2)), np.ones((1, 4, 2)))
    assert T2._bracket_rounds == () and out.shape == (5, 4, 2) and not out.any()
    assert len(SO3._bracket_rounds) == 2  # each so3 entry sums two constants


def test_a_gauge_suite_run_makes_no_einsum_call_from_the_bracket(monkeypatch):
    from liebundles.scenarios import build_scenario, preset_config
    from liebundles.suites import run_suite

    scenario = build_scenario(preset_config("gauge-jet-so3"))
    brackets = _count_calls(monkeypatch, GroupDescriptor, "bracket_coords")
    callers, einsum = [], np.einsum

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    assert all(r.passed for r in run_suite(scenario))
    assert len(brackets) > 0 and "bracket_coords" not in callers


def _einsum_operands(tree):
    """(line, operand count) of each np.einsum call in a module's syntax tree."""
    return [(node.lineno, len(node.args) - 1) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"]


def test_group_and_gauge_kernels_make_no_einsum_of_three_operands():
    """A three-operand einsum runs numpy's generic product loop over every
    constant, zeros included; the bracket sums its nonzero rounds instead."""
    pkg = pathlib.Path(liebundles.__file__).parent
    found = [f"{name}:{line}" for name in ("groups.py", "gauge.py")
             for line, count in _einsum_operands(ast.parse((pkg / name).read_text("utf-8")))
             if count >= 3]
    assert not found, "np.einsum with three or more operands: " + ", ".join(found)
    assert _einsum_operands(ast.parse('np.einsum("kij,i,j->k", c, a, b)')) == [(1, 3)]
    assert _einsum_operands(ast.parse('np.einsum("mil,ljk->mijk", c, c)')) == [(1, 2)]
