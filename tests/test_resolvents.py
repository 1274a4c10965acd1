"""Resolvent formulas, parameter recovery, cross-formula identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gresolv as g
import gresolv.numkernel as nk
from gresolv import cli
from gresolv.extensions import _neumann_extension
from gresolv.fixtures import flip_dilation_isometric, flip_dilation_symmetric
from gresolv.operators import parameter_frames
from gresolv.resolvents import (DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES,
                                _imaginary_ray, defect_block_family, membership_quantity,
                                recover_anchored_parameter, recovered_parameter_family)
from tests.conftest import random_isometric_model, random_symmetric_model


def null_param(v, fn=None, constant=None, anchor=None):
    src = g.defect_subspaces(v, 0.0).n_space
    dst = g.defect_subspaces(v, g.INFINITY).n_space
    if constant is not None:
        return g.ContractionParam.constant(src, dst, constant, anchor)
    return g.ContractionParam.callback(src, dst, fn, anchor)


def sym_param(a, anchor, fn=None, constant=None):
    src = g.defect_subspaces(a, anchor).n_space
    dst = g.defect_subspaces(a, np.conj(anchor)).n_space
    if constant is not None:
        return g.ContractionParam.constant(src, dst, constant, anchor)
    return g.ContractionParam.callback(src, dst, fn, anchor)


def identity_model(v):
    return g.ResolventModel(v, lambda p, b=False: np.eye(v.ambient_dim, dtype=complex))


# ------------------------------------------------------- direct-sum formula

def test_direct_sum_zero_parameter():
    v = g.IsometryOp.null(1)
    param = null_param(v, constant=np.zeros((1, 1)))
    for zeta in (0.2, -0.5j, 0.7 + 0.1j):
        np.testing.assert_allclose(g.direct_sum_resolvent(v, param, zeta), [[1.0]], atol=1e-14)


def test_direct_sum_affine_vs_dilation_oracle():
    # dual route: the affine family zeta -> [zeta] against the flip dilation
    v, model = flip_dilation_isometric()
    param = null_param(v, fn=lambda z: np.array([[z]]))
    oracle = g.ResolventModel.from_dilation(model)
    for zeta in (0.25, 0.6j, -0.8, 1.0 / 0.3, 2.0 - 1.5j):
        lhs = g.direct_sum_resolvent(v, param, zeta)
        np.testing.assert_allclose(lhs, oracle(zeta), atol=1e-12)
        np.testing.assert_allclose(lhs, [[1.0 / (1.0 - zeta**2)]], atol=1e-12)


def test_direct_sum_unitary_is_fredholm(rng):
    v = g.IsometryOp.random(3, 3, rng)
    param = null_param(v, constant=np.zeros((0, 0)))
    full = v.full_matrix()
    for zeta in (0.4, 2.5j):
        expected = nk.inv(np.eye(3) - zeta * full)
        np.testing.assert_allclose(g.direct_sum_resolvent(v, param, zeta), expected, atol=1e-12)


def test_direct_sum_rejects_boundary_by_default():
    v, _ = flip_dilation_isometric()
    param = null_param(v, constant=np.zeros((1, 1)))
    with pytest.raises(g.PointExcluded):
        g.direct_sum_resolvent(v, param, np.exp(0.3j))
    value = g.direct_sum_resolvent(v, param, np.exp(0.3j), boundary_ok=True)
    np.testing.assert_allclose(value, [[1.0]], atol=1e-12)


# --------------------------------------------------------- anchored formula

def test_anchored_coincides_with_direct_sum_at_zero_anchor(rng):
    # 200 random (V, constant C, zeta) triples
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        k = n - d
        c = nk.haar_unitary(k, rng) * rng.random()
        param = null_param(v, constant=c)
        for _ in range(10):
            zeta = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(zeta) >= 0.95:
                continue
            diff = nk.op_norm(g.anchored_resolvent(v, param, 0.0, zeta)
                              - g.direct_sum_resolvent(v, param, zeta))
            worst = max(worst, diff)
    assert worst < 1e-12


def test_anchored_scalar_formula():
    v = g.IsometryOp.null(1)
    z0, c = 0.4, 0.25 - 0.3j
    src = g.defect_subspaces(v, z0).n_space
    dst = g.defect_subspaces(v, 1.0 / np.conj(z0)).n_space
    param = g.ContractionParam.constant(src, dst, np.array([[c]]))
    for zeta in (0.3, -0.2 + 0.6j):
        expected = 1.0 / (1.0 - zeta * (c + np.conj(z0)) / (1.0 + z0 * c))
        np.testing.assert_allclose(g.anchored_resolvent(v, param, z0, zeta),
                                   [[expected]], atol=1e-12)


def test_anchored_at_origin_is_identity(rng):
    v = g.IsometryOp.random(3, 1, rng)
    src = g.defect_subspaces(v, 0.2j).n_space
    dst = g.defect_subspaces(v, 1.0 / np.conj(0.2j)).n_space
    param = g.ContractionParam.constant(src, dst, 0.5 * nk.haar_unitary(2, rng))
    np.testing.assert_allclose(g.anchored_resolvent(v, param, 0.2j, 0.0), np.eye(3), atol=1e-14)


def _rotated(param, rng):
    """The same map as a constant ``param``, written in Haar-rotated
    orthonormal bases of the same defect spaces."""
    q_src, q_dst = nk.haar_unitary(param.src.dim, rng), nk.haar_unitary(param.dst.dim, rng)
    return g.ContractionParam.constant(
        g.Subspace(param.src.basis @ q_src), g.Subspace(param.dst.basis @ q_dst),
        q_dst.conj().T @ param.form[1] @ q_src, param.anchor)


def test_parameter_coordinates_read_in_its_own_frames():
    rng = np.random.default_rng(3)
    a = g.SymmetricOp.random(5, 2, rng)
    src, dst = (pair.n_space for pair in g.operators.parameter_frames(a, 1j))
    tmap = g.build_admissible_isometry(a, 1j, src, dst, 5)
    param = g.ContractionParam.constant(src, dst, dst.basis.conj().T @ tmap.matrix, 1j)
    turned = _rotated(param, rng)
    for lam in (0.5 + 1j, 2 - 1j):
        np.testing.assert_allclose(g.extension_resolvent(a, turned, 1j, lam),
                                   g.extension_resolvent(a, param, 1j, lam), atol=1e-10)
    v = g.IsometryOp.random(4, 2, rng)
    for z0 in (0.0, 0.3 - 0.2j):
        src, dst = (pair.n_space for pair in g.operators.parameter_frames(v, z0))
        param = g.ContractionParam.constant(src, dst, 0.8 * nk.haar_unitary(2, rng))
        turned = _rotated(param, rng)
        for zeta in (0.3j, 0.5, 2.0 - 1j):
            np.testing.assert_allclose(g.anchored_resolvent(v, turned, z0, zeta),
                                       g.anchored_resolvent(v, param, z0, zeta), atol=1e-10)
    # the atoms, the gap reports and the class verdict read it in its own frames too
    rng = np.random.default_rng(3)
    v = g.IsometryOp.random(4, 2, rng)
    param = g.ContractionParam.constant(*_frames(v, 0.0), nk.haar_unitary(2, rng))
    turned = _rotated(param, np.random.default_rng(11))
    _same_consumers(v, param, turned, 0.0, [(1.0, 1.3), (2.0, 4.0)], 32)
    atom_arc = g.ArcSpec("circle", 1.0, 1.3)
    assert not g.gap_report(v, turned, 0.0, atom_arc).analytic
    np.testing.assert_allclose(g.spectral.in_space_atoms(v, turned, 0.0).locations(),
                               [1.118, 1.585, 4.234, 5.012], atol=5e-4)
    a = g.SymmetricOp.random(5, 2, np.random.default_rng(5))
    src, dst = _frames(a, 1j)
    tmap = g.build_admissible_isometry(a, 1j, src, dst, seed=4)
    param = g.ContractionParam.constant(src, dst, dst.basis.conj().T @ tmap.matrix, 1j)
    _same_consumers(a, param, _rotated(param, np.random.default_rng(11)), 1j,
                    [(-4.5, -3.5), (1.5, 10.0)], 32)


def _frames(op, anchor):
    return tuple(pair.n_space for pair in g.operators.parameter_frames(op, anchor))


def _as_turned(family, turned):
    """Reference rewrite of ``family`` into the frames of ``turned``, which
    span the same two subspaces."""
    q_src = family.src.basis.conj().T @ turned.src.basis
    q_dst = family.dst.basis.conj().T @ turned.dst.basis
    return g.ContractionParam.callback(
        turned.src, turned.dst, lambda point: q_dst.conj().T @ family(point) @ q_src,
        family.anchor)


def _gap_outcome(*args):
    try:
        return g.gap_report(*args)
    except g.GresolvError as exc:
        return type(exc)


def _same_consumers(op, param, turned, anchor, regions, grid):
    """``param`` and ``turned``, the same map in two pairs of frames, get the
    same atoms, gap verdicts and record margins, and the same class verdict
    and resolvent values."""
    atoms, turned_atoms = (g.spectral.in_space_atoms(op, p, anchor) for p in (param, turned))
    assert (atoms is None) == (turned_atoms is None)
    if atoms is not None:
        locs = atoms.locations()
        np.testing.assert_allclose(turned_atoms.locations(), locs,
                                   atol=1e-9 * max(1.0, np.abs(locs).max()))
    kind = "circle" if isinstance(op, g.IsometryOp) else "line"
    for lo, hi in regions:
        expect, got = (_gap_outcome(op, p, anchor, g.ArcSpec(kind, lo, hi), grid)
                       for p in (param, turned))
        if isinstance(expect, type) or isinstance(got, type):
            assert got == expect
            continue
        assert got.analytic == expect.analytic
        np.testing.assert_allclose([r.margin for r in got.records],
                                   [r.margin for r in expect.records], rtol=0, atol=1e-10)
    if kind == "circle":
        for zeta in (0.3j, 0.5, 2.0 - 1j):
            value = g.direct_sum_resolvent(op, param, zeta)
            np.testing.assert_allclose(g.direct_sum_resolvent(op, turned, zeta), value,
                                       atol=1e-9 * max(1.0, nk.op_norm(value)))
        return
    assert g.admissible_class_check(turned, op, anchor).admissible == \
        g.admissible_class_check(param, op, anchor).admissible
    for lam in (0.5 + 1j, 2 - 1j):
        value = g.extension_resolvent(op, param, anchor, lam)
        np.testing.assert_allclose(g.extension_resolvent(op, turned, anchor, lam), value,
                                   atol=1e-9 * max(1.0, nk.op_norm(value)))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotated_frames_change_no_consumer(seed):
    # both sides up to the stated scale n, m <= 16; the rotated callbacks are
    # checked against the dilation oracle
    rng = np.random.default_rng(seed)
    v, model = random_isometric_model(rng, n_max=16, m_max=16)
    src, dst = _frames(v, 0.0)
    param = g.ContractionParam.constant(src, dst, nk.haar_unitary(src.dim, rng))
    turned = _rotated(param, rng)
    _same_consumers(v, param, turned, 0.0, [(0.3, 2.5), (3.5, 6.0)], 16)
    oracle = g.ResolventModel.from_dilation(model)
    family = _as_turned(recovered_parameter_family(oracle), turned)
    for zeta in (0.3j, 0.5, 2.0 - 1j):
        np.testing.assert_allclose(g.direct_sum_resolvent(v, family, zeta), oracle(zeta),
                                   atol=1e-9)
        np.testing.assert_allclose(g.anchored_resolvent(v, family, 0.0, zeta), oracle(zeta),
                                   atol=1e-9)
    a, model, _ = random_symmetric_model(rng, n_max=16, m_max=16)
    src, dst = _frames(a, 1j)
    tmap = g.build_admissible_isometry(a, 1j, src, dst, int(rng.integers(0, 2**63 - 1)))
    param = g.ContractionParam.constant(src, dst, dst.basis.conj().T @ tmap.matrix, 1j)
    turned = _rotated(param, rng)
    _same_consumers(a, param, turned, 1j, [(-1.0, 1.0), (1.5, 4.0)], 16)
    oracle = g.ResolventModel.from_dilation(model)
    family = _as_turned(defect_block_family(oracle, a, 1j), turned)
    for lam in (0.5 + 1j, 2 - 1j):
        np.testing.assert_allclose(g.extension_resolvent(a, family, 1j, lam), oracle(lam),
                                   atol=1e-9)


def test_frames_of_other_subspaces_rejected(rng):
    v = g.IsometryOp.random(4, 2, rng)
    param = g.ContractionParam.constant(*_frames(v, 0.0), nk.haar_unitary(2, rng))
    assert param.in_frames(param.src, param.dst) is param
    z0 = 0.3 - 0.2j
    with pytest.raises(ValueError, match="other subspaces"):
        g.gap_report(v, param, z0, g.ArcSpec("circle", 0.5, 2.5), 16)
    with pytest.raises(ValueError, match="other subspaces"):
        g.spectral.in_space_atoms(v, param, z0)
    with pytest.raises(ValueError, match="other subspaces"):
        g.anchored_resolvent(v, param, z0, 0.5)


def test_affine_parameter_value_limit_and_bound(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    k0, k1 = 0.5 * nk.haar_unitary(2, rng), 0.25 * nk.haar_unitary(2, rng)
    src = g.defect_subspaces(a, 1j).n_space
    dst = g.defect_subspaces(a, -1j).n_space
    param = g.ContractionParam.affine(src, dst, k0, k1, 1j)
    for lam in (2j, 0.5 + 1j):
        w = (lam - 1j) / (lam + 1j)
        np.testing.assert_allclose(param(lam), k0 + w * k1, atol=1e-15)
    np.testing.assert_allclose(param.boundary_limit(), k0 + k1, atol=1e-15)
    with pytest.raises(g.NotContraction):
        g.ContractionParam.affine(src, dst, k0, 3.0 * k1, 1j)
    with pytest.raises(ValueError, match=r"shape \(2, 1\) does not match defects \(2, 2\)"):
        g.ContractionParam.affine(src, dst, k0, k1[:, :1], 1j)
    # without an anchor the variable is the point itself, and outside the
    # unit disk the norm bound no longer decides the value
    unanchored = g.ContractionParam.affine(src, dst, 0.5 * k0, 2.0 * k1)
    np.testing.assert_array_equal(unanchored(0.9j), 0.5 * k0 + 0.9j * (2.0 * k1))
    with pytest.raises(g.NotContraction, match="affine parameter value norm"):
        unanchored(3.0)


def test_dataclass_constructor_checks_the_norm(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    src = g.defect_subspaces(a, 1j).n_space
    dst = g.defect_subspaces(a, -1j).n_space
    k = nk.haar_unitary(2, rng)
    with pytest.raises(g.NotContraction, match="constant parameter norm"):
        g.ContractionParam(src, dst, ("constant", 2.0 * k))
    with pytest.raises(g.NotContraction, match="affine parameter norm bound"):
        g.ContractionParam(src, dst, ("affine", 0.75 * k, 0.5 * k), 1j)
    assert g.ContractionParam(src, dst, ("affine", 0.5 * k, 0.5 * k), 1j)(2j).shape == (2, 2)


# ---------------------------------------------------------------- dilation

def test_dilation_unitary_scalar():
    v = g.IsometryOp.null(1)
    u = np.array([[0, 1j], [1j, 0]], dtype=complex)
    model = g.ExitSpaceModel(u, v)
    zeta = 1.0 / 3.0
    np.testing.assert_allclose(g.dilation_resolvent(model, zeta),
                               [[1.0 / (1.0 + zeta**2)]], atol=1e-14)


def test_dilation_hermitian_scalar():
    _, model, _, _ = flip_dilation_symmetric()
    np.testing.assert_allclose(g.dilation_resolvent(model, 2j), [[2j / 5]], atol=1e-14)


def test_dilation_no_exit_is_plain_resolvent(rng):
    v = g.IsometryOp.random(3, 3, rng)
    model = g.ExitSpaceModel(v.full_matrix(), v)
    zeta = 0.3 - 0.2j
    expected = nk.inv(np.eye(3) - zeta * v.full_matrix())
    np.testing.assert_allclose(g.dilation_resolvent(model, zeta), expected, atol=1e-12)


def test_dilation_raises_on_spectrum():
    v, model = flip_dilation_isometric()
    with pytest.raises(g.SingularSystem):
        g.dilation_resolvent(model, 1.0)


# ---------------------------------------------------------------- recovery

def test_recover_parameter_fixture():
    _, model = flip_dilation_isometric()
    r = g.ResolventModel.from_dilation(model)
    for zeta in (0.2, 0.5j, -0.7 + 0.1j):
        np.testing.assert_allclose(g.recover_parameter(r, zeta), [[zeta]], atol=1e-12)


def test_recover_parameter_identity_resolvent():
    v = g.IsometryOp.null(2)
    r = identity_model(v)
    np.testing.assert_allclose(g.recover_parameter(r, 0.4), np.zeros((2, 2)), atol=1e-12)


def test_recover_roundtrip_random(rng):
    # oracle equivalence on a small scale; the acceptance suite runs the full one
    for _ in range(10):
        v, model = random_isometric_model(rng, n_max=6, m_max=6)
        r = g.ResolventModel.from_dilation(model)
        fam = recovered_parameter_family(r)
        for zeta in (0.3 + 0.1j, -0.6j, 1.9, 3.0 + 1.0j):
            np.testing.assert_allclose(g.direct_sum_resolvent(v, fam, zeta), r(zeta), atol=1e-9)


def test_recovered_family_limit_at_zero():
    _, model = flip_dilation_isometric()
    fam = recovered_parameter_family(g.ResolventModel.from_dilation(model))
    np.testing.assert_allclose(fam(0.0), [[0.0]], atol=1e-9)


# ---------------------------------------------------------------- axioms

def test_axioms_pass_for_direct_sum_family(rng):
    v = g.IsometryOp.random(4, 2, rng)
    param = null_param(v, constant=0.7 * nk.haar_unitary(2, rng))
    r = g.ResolventModel.from_direct_sum(v, param)
    report = g.verify_resolvent_axioms(r, v)
    assert report.all_passed


def test_axioms_fail_for_identity_resolvent(rng):
    v = g.IsometryOp.random(3, 2, rng)
    report = g.verify_resolvent_axioms(identity_model(v), v)
    assert not report.check("domain-identity").passed


def test_axioms_fail_for_halved_resolvent():
    v, model = flip_dilation_isometric()
    base = g.ResolventModel.from_dilation(model)
    halved = g.ResolventModel(v, lambda p, b=False: 0.5 * base(p, b))
    report = g.verify_resolvent_axioms(halved, v)
    assert not report.check("normalization-at-zero").passed


# ---------------------------------------------------------------- transfer

def test_cayley_transfer_fixture_numbers():
    _, model, anchor, _ = flip_dilation_symmetric()
    r_s = g.ResolventModel.from_dilation(model)
    value = g.cayley_transfer(r_s, anchor, 1.0 / 3.0)
    np.testing.assert_allclose(value, [[0.9]], atol=1e-12)


def test_cayley_transfer_roundtrip(rng):
    a, model, _ = random_symmetric_model(rng, n_max=5, m_max=4)
    r_s = g.ResolventModel.from_dilation(model)
    z = 1j
    points = [complex(re, im) for re in (-2.0, -0.7, 0.3, 1.1, 2.4)
              for im in (0.01, 0.5, 2.0, -1.5)]
    assert len(points) == 20
    for lam in points:
        zeta = (lam - z) / (lam - np.conj(z))
        via = g.cayley_transfer(r_s, z, zeta)
        wrapped = g.ResolventModel(g.cayley_transform(a, z), lambda p, b=False, v=via: v)
        back = g.cayley_transfer(wrapped, z, lam)
        np.testing.assert_allclose(back, r_s(lam), atol=1e-10)


def test_cayley_transfer_self_adjoint_matches_fredholm(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(3), h)
    model = g.ExitSpaceModel(h, a)
    r_s = g.ResolventModel.from_dilation(model)
    z = 1j
    u = g.cayley_transform(a, z).full_matrix()
    for zeta in (0.4, -0.3 + 0.2j):
        transferred = g.cayley_transfer(r_s, z, zeta)
        np.testing.assert_allclose(transferred, nk.inv(np.eye(3) - zeta * u), atol=1e-10)


def test_cayley_transfer_excluded_points():
    a, model, anchor, _ = flip_dilation_symmetric()
    r_s = g.ResolventModel.from_dilation(model)
    with pytest.raises(g.PointExcluded):
        g.cayley_transfer(r_s, anchor, 0.0)
    r_u = g.ResolventModel(g.cayley_transform(a, anchor),
                           lambda p, b=False: g.cayley_transfer(r_s, anchor, p))
    with pytest.raises(g.PointExcluded):
        g.cayley_transfer(r_u, anchor, anchor)


def test_cayley_transfer_rejects_other_operators():
    model = g.ResolventModel(g.PartialOperator.null(2),
                             lambda p, b=False: np.eye(2, dtype=complex))
    with pytest.raises(TypeError):
        g.cayley_transfer(model, 1j, 0.5)


# ------------------------------------------------- extension-family formula

def test_extension_resolvent_constant_parameter():
    a = g.SymmetricOp.null(1)
    param = sym_param(a, 1j, constant=np.array([[-1.0]]))
    np.testing.assert_allclose(g.extension_resolvent(a, param, 1j, 2j), [[0.5j]], atol=1e-13)


def test_extension_resolvent_matches_dilation_fixture():
    a, model, anchor, _ = flip_dilation_symmetric()
    param = sym_param(a, anchor, fn=lambda lam: np.array([[-(lam - 1j) / (lam + 1j)]]))
    oracle = g.ResolventModel.from_dilation(model)
    for lam in (2j, 0.7 + 0.9j, -3 + 0.2j):
        np.testing.assert_allclose(g.extension_resolvent(a, param, anchor, lam),
                                   oracle(lam), atol=1e-12)
    # conjugate half-plane goes through the adjoint family
    for lam in (-2j, 1 - 1j):
        np.testing.assert_allclose(g.extension_resolvent(a, param, anchor, lam),
                                   oracle(lam), atol=1e-12)


def test_extension_resolvent_rejects_forbidden_parameter():
    a = g.SymmetricOp.null(1)
    param = sym_param(a, 1j, constant=np.array([[1.0]]))
    with pytest.raises(g.NotAdmissible):
        g.extension_resolvent(a, param, 1j, 2j)


#: relative bound between extension_resolvent and the built extension's
#: inverse; the worst measured over the draws below is 1.4e-14
BUILT_ROUTE_REL_BOUND = 1e-10


def _read_at(param, anchor, lam):
    """The parameter map and anchor that ``extension_resolvent`` reads at lam."""
    if lam.imag * anchor.imag > 0:
        return g.PartialMap(param.src, param.dst.basis @ param(lam)), anchor
    value = param(np.conj(lam)).conj().T
    return g.PartialMap(param.dst, param.src.basis @ value), np.conj(anchor)


def _l_frame(a, t):
    """L = [D | T phi - phi], whose invertibility the formula L M^-1 needs."""
    return np.hstack([a.dom.basis, t.matrix - t.src.basis])


def test_extension_resolvent_matches_the_built_extension_random():
    # the reference builds A_T by the Neumann formula and inverts A_T - lam E
    rng = np.random.default_rng(2301)
    for _ in range(40):
        anchor = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        a, model, _ = random_symmetric_model(rng, n_max=16, m_max=16, anchor=anchor)
        family = defect_block_family(g.ResolventModel.from_dilation(model), a, anchor)
        eye = np.eye(a.ambient_dim)
        for lam in DEFAULT_HALFPLANE_SAMPLES:
            t, z = _read_at(family, anchor, lam)
            assert g.is_admissible(a, z, t) and nk.injective(_l_frame(a, t))[0]
            ext, _ = _neumann_extension(a, z, t, False)
            expect = np.linalg.inv(ext.full_matrix() - lam * eye)
            got = g.extension_resolvent(a, family, anchor, lam, validate=False)
            assert nk.op_norm(got - expect) <= BUILT_ROUTE_REL_BOUND * nk.op_norm(expect)


def test_inadmissible_parameter_raises_where_l_is_singular():
    # T = X W, X the forbidden operator and W a contraction that is the
    # identity on a subspace S of the defect space, so T - X vanishes on S;
    # the adjoint family read on the conjugate half-plane collides as well
    rng = np.random.default_rng(2302)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        a = g.SymmetricOp.random(n, int(rng.integers(0, n)), rng)
        anchor = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        src, dst = (pair.n_space for pair in parameter_frames(a, anchor))
        k = src.dim
        s = int(rng.integers(1, k + 1))
        turn = nk.haar_unitary(k, rng)
        w = np.zeros((k, k), dtype=complex)
        w[:s, :s] = np.eye(s)
        w[s:, s:] = 0.5 * nk.haar_unitary(k - s, rng)
        x = g.forbidden_operator(a, anchor)
        coords = dst.basis.conj().T @ x.ambient() @ src.basis @ turn @ w @ turn.conj().T
        family = g.ContractionParam.constant(src, dst, coords, anchor)
        for lam in (0.5 + 1.5j, 0.5 - 1.5j):
            t, z = _read_at(family, anchor, lam)
            assert not g.is_admissible(a, z, t)
            assert not nk.injective(_l_frame(a, t))[0]
            with pytest.raises(g.NotAdmissible):
                g.extension_resolvent(a, family, anchor, lam, validate=False)


# ---------------------------------------------------------------- generating_extension / defect_block

def test_generating_extension_fixture():
    _, model, _, _ = flip_dilation_symmetric()
    r = g.ResolventModel.from_dilation(model)
    for lam in (2j, 1 + 1j, -0.5 - 2j):
        np.testing.assert_allclose(g.generating_extension(r, lam).full_matrix(), [[1.0 / lam]], atol=1e-12)


def test_generating_extension_adjoint_pairing(rng):
    a, model, _ = random_symmetric_model(rng, n_max=5, m_max=4)
    r = g.ResolventModel.from_dilation(model)
    for lam in (2j, 0.5 + 1.5j, -1 - 1j):
        lhs = g.generating_extension(r, lam).full_matrix().conj().T
        rhs = g.generating_extension(r, np.conj(lam)).full_matrix()
        assert nk.op_norm(lhs - rhs) < 1e-10 * max(1.0, nk.op_norm(rhs))


def test_generating_extension_sign_classification(rng):
    a, model, _ = random_symmetric_model(rng, n_max=5, m_max=4)
    r = g.ResolventModel.from_dilation(model)
    assert g.classify_signs(g.generating_extension(r, -1 - 2j)) in ("dissipative", "symmetric")
    assert g.classify_signs(g.generating_extension(r, 1 + 2j)) in ("accumulative", "symmetric")


def test_generating_extension_self_adjoint_is_constant(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(2), h)
    model = g.ExitSpaceModel(h, a)
    r = g.ResolventModel.from_dilation(model)
    for lam in (1j, 2 - 3j):
        np.testing.assert_allclose(g.generating_extension(r, lam).full_matrix(), h, atol=1e-10)


def test_defect_block_fixture_closed_form():
    a, model, anchor, _ = flip_dilation_symmetric()
    r = g.ResolventModel.from_dilation(model)
    np.testing.assert_allclose(g.defect_block(r, a, anchor, 2j), [[-1.0 / 3.0]], atol=1e-12)
    for lam in (0.5j, 1 + 2j, -2 + 0.7j):
        expected = -(lam - 1j) / (lam + 1j)
        np.testing.assert_allclose(g.defect_block(r, a, anchor, lam), [[expected]], atol=1e-12)


def test_defect_block_contraction_and_reassembly(rng):
    a, model, _ = random_symmetric_model(rng, n_max=5, m_max=4)
    r = g.ResolventModel.from_dilation(model)
    for lam in (2j, 0.3 + 0.8j):
        coords = g.defect_block(r, a, 1j, lam, validate=True)
        assert nk.op_norm(coords) <= 1.0 + 1e-10


def test_defect_block_self_adjoint_inner(rng):
    # a self-adjoint inner operator has a constant defect block: the unitary
    # transform restricted to the (trivial) defect space
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(2), h)
    model = g.ExitSpaceModel(h, a)
    r = g.ResolventModel.from_dilation(model)
    coords = g.defect_block(r, a, 1j, 2j)
    assert coords.shape == (0, 0)


# ---------------------------------------------------------------- characteristic function

def test_characteristic_of_null_operator():
    for m in (1, 3):
        a = g.SymmetricOp.null(m)
        value = g.characteristic_function(a, 1j, 2j)
        np.testing.assert_allclose(value, np.eye(m) / 3.0, atol=1e-12)


def test_characteristic_vanishes_at_anchor(rng):
    a = g.SymmetricOp.random(4, 2, rng)
    value = g.characteristic_function(a, 1j, 1j)
    assert nk.op_norm(value) < 1e-12


def test_characteristic_bound_saturated_for_null():
    a = g.SymmetricOp.null(2)
    for lam, anchor in ((2j, 1j), (0.5 + 0.25j, 1j), (-1 - 1j, -2j)):
        if lam.imag * anchor.imag < 0:
            continue
        value = g.characteristic_function(a, anchor, lam)
        bound = abs((lam - anchor) / (lam - np.conj(anchor)))
        assert abs(nk.op_norm(value) - bound) < 1e-12


def test_characteristic_norm_bound_random(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        lam, anchor = complex(rng.standard_normal(), 0.5 + rng.random()), 1j
        value = g.characteristic_function(a, anchor, lam)
        bound = abs((lam - anchor) / (lam - np.conj(anchor)))
        assert nk.op_norm(value) <= bound + 1e-10


def test_characteristic_images_lie_in_the_shifted_range(rng):
    # psi (lam - z) - (lam - conj(z)) C(lam) psi lies in the range of A - lam E
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = g.SymmetricOp.random(n, int(rng.integers(0, n)), rng)
        lam, anchor = complex(rng.standard_normal(), 0.5 + rng.random()), 1j
        coords = g.characteristic_function(a, anchor, lam)
        nz, nzbar = (pair.n_space for pair in g.operators.parameter_frames(a, anchor))
        probe = (lam - anchor) * nzbar.basis - (lam - np.conj(anchor)) * (nz.basis @ coords)
        res = probe - nk.projector(g.range_frame(a, lam)) @ probe
        assert nk._norm_within(res, 1e-9, probe)


def _characteristic_by_two_inverses(a, z, lam):
    """The characteristic function through the extension A_ext = raw_img raw_dom^-1
    and the inverse of A_ext - lam: the form the single-inverse one stands for."""
    nz, nzbar = (pair.n_space for pair in parameter_frames(a, z))
    raw_dom = np.hstack([a.dom.basis, nz.basis])
    a_ext = np.hstack([a.action, np.conj(z) * nz.basis]) @ np.linalg.inv(raw_dom)
    eye = np.eye(a.ambient_dim)
    skew = ((lam - np.conj(z)) / (z - np.conj(z))) \
        * (nk.projector(nz) @ (a_ext - z * eye) @ np.linalg.inv(a_ext - lam * eye))
    factor = (lam - z) / (lam - np.conj(z))
    return factor * (nz.basis.conj().T @ skew @ nzbar.basis)


def test_characteristic_takes_one_inverse_per_point(rng, monkeypatch):
    calls = []

    def inv(m, _real=nk.inv):
        calls.append(np.shape(m))
        return _real(m)

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        anchor = complex(rng.standard_normal(), rng.choice([-1.0, 1.0]) * (0.3 + rng.random()))
        parameter_frames(a, anchor)
        for _ in range(3):
            lam = complex(2.0 * rng.standard_normal(),
                          np.sign(anchor.imag) * (0.1 + 3.0 * rng.random()))
            with monkeypatch.context() as patch:
                patch.setattr(nk, "inv", inv)
                value = g.characteristic_function(a, anchor, lam)
            assert calls == ([(d, d)] if d else [])
            calls.clear()
            expected = _characteristic_by_two_inverses(a, anchor, lam)
            worst = max(worst, nk.op_norm(value - expected) / nk.op_norm(expected))
    # the two forms differ by rounding only; measured worst 3.7e-15
    assert worst < 1e-12, worst


def test_defect_block_via_char_fixture():
    a, model, anchor, block = flip_dilation_symmetric()
    value = g.defect_block_via_characteristic(block, g.SymmetricOp.null(1), anchor, 2j)
    np.testing.assert_allclose(value, [[-1.0 / 3.0]], atol=1e-12)


def test_defect_block_via_char_collapses_without_coupling(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    k = g.defect_subspaces(a, 1j).n_space.dim
    m = 2
    t11 = 0.8 * nk.haar_unitary(k, rng)
    for t12, t21 in ((np.zeros((k, m)), 0.1 * np.ones((m, k))),
                     (0.1 * np.ones((k, m)), np.zeros((m, k)))):
        block = g.BlockParam(t11, t12, t21, 0.3 * np.eye(m))
        value = g.defect_block_via_characteristic(block, g.SymmetricOp.null(m), 1j, 2j)
        np.testing.assert_allclose(value, t11, atol=1e-12)


def test_defect_block_via_char_matches_dilation_with_general_exit(rng):
    # the exit operator is itself a nontrivial symmetric operator here
    for _ in range(5):
        m = int(rng.integers(2, 5))
        d_e = int(rng.integers(0, m))
        exit_op = g.SymmetricOp.random(m, d_e, rng)
        a, model, block = random_symmetric_model(rng, n_max=4, m_max=4, exit_op=exit_op)
        r = g.ResolventModel.from_dilation(model)
        for lam in (2j, 0.5 + 1.2j):
            via_char = g.defect_block_via_characteristic(block, model.exit_op, model.anchor, lam)
            via_dilation = g.defect_block(r, a, model.anchor, lam, validate=False)
            assert nk.op_norm(via_char - via_dilation) < 1e-9


def test_defect_block_via_char_with_self_adjoint_exit(rng):
    # a densely defined exit operator has no defects: its characteristic
    # function is the 0 x 0 matrix and the defect block is t11, as is the
    # compressed parameter
    for _ in range(5):
        m = int(rng.integers(1, 5))
        exit_op = g.SymmetricOp.random(m, m, rng)
        a, model, block = random_symmetric_model(rng, n_max=6, m_max=4, exit_op=exit_op)
        phi = g.compressed_parameter(a, model.anchor, block, exit_op)
        dst = g.defect_subspaces(a, np.conj(model.anchor)).n_space
        np.testing.assert_allclose(phi.coords(dst), block.t11, atol=1e-12)
        r = g.ResolventModel.from_dilation(model)
        for lam in (2j, 0.5 + 1.2j):
            assert g.characteristic_function(exit_op, model.anchor, lam).shape == (0, 0)
            via_char = g.defect_block_via_characteristic(block, exit_op, model.anchor, lam)
            np.testing.assert_array_equal(via_char, block.t11)
            via_dilation = g.defect_block(r, a, model.anchor, lam, validate=False)
            assert nk.op_norm(via_char - via_dilation) < 1e-9


# ---------------------------------------------------------------- boundary limits

def test_boundary_parameter_fixture():
    a, model, anchor, _ = flip_dilation_symmetric()
    report = g.boundary_parameter(a, model, anchor)
    dst = g.defect_subspaces(a, np.conj(anchor)).n_space
    np.testing.assert_allclose(dst.basis.conj().T @ report.direct.matrix, [[-1.0]], atol=1e-12)
    expected = np.array([2.0 / (1.0 + 10.0**k) for k in range(1, 7)])
    np.testing.assert_allclose(report.limit_errors.ravel(), expected, rtol=1e-4)
    assert report.membership.max() < 3.0


def test_boundary_parameter_reads_a_model_with_its_block_on_the_scaled_ray():
    # the n = 4, d = 3, m = 1 file of seed 2074306116: s = ||(E - t22)^-1|| is
    # about 8e3, so the unscaled ray 10 ... 1e6 ends before the limit sets in
    inst = cli.generate_instance("symmetric", 4, 3, 1, seed=2074306116)
    a, model = inst.operator, inst.model()
    t22 = model.block.t22
    scale = nk.op_norm(np.linalg.inv(np.eye(len(t22)) - t22))
    assert 7e3 < scale < 9e3
    report = g.boundary_parameter(a, model, inst.anchor)
    assert report.ray_points == tuple(scale * lam for lam in _imaginary_ray(inst.anchor))
    assert report.limit_errors[-1].max() < 1e-5
    # the same operator without its block is read off the dilation on the unscaled ray
    bare = g.boundary_parameter(a, g.ExitSpaceModel(model.big_op, a), inst.anchor)
    assert bare.ray_points == _imaginary_ray(inst.anchor)
    assert bare.limit_errors[-1].max() > 1e-2
    assert nk.op_norm(bare.direct.ambient() - report.direct.ambient()) < 1e-12


def test_boundary_parameter_no_exit_error_vanishes(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(2), h)
    model = g.ExitSpaceModel(h, a)
    report = g.boundary_parameter(a, model, 1j)
    assert report.limit_errors.size == 0 or report.limit_errors.max() < 1e-12


def test_membership_quantity_grows_for_strict_contraction():
    # a family that stays strictly contractive toward infinity has an empty
    # boundary-parameter domain; the membership quantity grows linearly
    a = g.SymmetricOp.null(1)
    param = sym_param(a, 1j, constant=np.array([[0.5]]))
    r = g.ResolventModel.from_extension_family(a, param, 1j)
    quantities = []
    for k in (2, 6):
        lam = 1j * 10.0**k
        values = g.defect_block(r, a, 1j, lam, validate=False)
        quantities.append(membership_quantity(values, lam)[0])
    assert quantities[1] >= 10.0 * quantities[0]
    assert quantities[1] > 1e5


# ---------------------------------------------------------------- admissible class

def test_admissible_class_forbidden_constant():
    a = g.SymmetricOp.null(1)
    verdict = g.admissible_class_check(sym_param(a, 1j, constant=np.array([[1.0]])),
                                       a, 1j)
    assert not verdict and verdict.exact


def test_admissible_class_fixture_family():
    a = g.SymmetricOp.null(1)
    param = sym_param(a, 1j, fn=lambda lam: np.array([[-(lam - 1j) / (lam + 1j)]]))
    verdict = g.admissible_class_check(param, a, 1j)
    assert verdict and not verdict.exact


def test_admissible_class_of_a_source_off_the_forbidden_domain():
    # the forbidden operator of the null operator is the identity; an empty
    # source meets its domain in nothing, whatever the form
    a, empty, none = g.SymmetricOp.null(2), g.Subspace.empty(2), np.zeros((0, 0))
    for param, exact in ((g.ContractionParam.constant(empty, empty, none, 1j), True),
                         (g.ContractionParam.affine(empty, empty, none, none, 1j), True),
                         (g.ContractionParam.callback(empty, empty, lambda lam: none, 1j), False)):
        verdict = g.admissible_class_check(param, a, 1j)
        assert verdict.admissible and verdict.exact == exact
        assert verdict.detail == "no overlap with the forbidden domain"


def test_admissible_class_dense_domain(rng):
    a = g.SymmetricOp.random(3, 3, rng)
    param = g.ContractionParam.constant(g.Subspace.empty(3), g.Subspace.empty(3),
                                        np.zeros((0, 0)), 1j)
    verdict = g.admissible_class_check(param, a, 1j)
    assert verdict and verdict.exact


# ---------------------------------------------------------------- global identities

def test_first_resolvent_identity_on_shifted_range(rng):
    for _ in range(5):
        v, model = random_isometric_model(rng, n_max=6, m_max=5)
        r = g.ResolventModel.from_dilation(model)
        for z, zeta in ((0.3 + 0.1j, -0.4j), (1.7, 0.2), (2j, 3.0 + 1.0j)):
            m_zeta = g.defect_subspaces(v, zeta).m_space
            if m_zeta.dim == 0:
                continue
            f = m_zeta.basis
            lhs = z * r(z) @ f - zeta * r(zeta) @ f
            rhs = (z - zeta) * (r(z) @ (r(zeta) @ f))
            assert nk.op_norm(lhs - rhs) < 1e-9


def test_anchor_independence(rng):
    for _ in range(5):
        v, model = random_isometric_model(rng, n_max=5, m_max=5)
        r = g.ResolventModel.from_dilation(model)
        for zeta in (0.3 + 0.2j, -0.5j):
            exts = []
            for z0 in (0.0, 0.25 + 0.35j, -0.4j):
                coords = recover_anchored_parameter(r, z0, zeta)
                exts.append(g.orthogonal_extension(v, coords, z0))
            for other in exts[1:]:
                assert nk.op_norm(exts[0] - other) < 1e-9


def test_distinct_parameters_distinct_resolvents(rng):
    v = g.IsometryOp.random(4, 2, rng)
    p1 = null_param(v, constant=0.8 * nk.haar_unitary(2, rng))
    p2 = null_param(v, constant=0.8 * nk.haar_unitary(2, rng))
    assert nk.op_norm(p1.form[1] - p2.form[1]) > 1e-3
    diffs = [nk.op_norm(g.direct_sum_resolvent(v, p1, z) - g.direct_sum_resolvent(v, p2, z))
             for z in DEFAULT_DISK_SAMPLES]
    assert max(diffs) > 1e-6


def test_uniqueness_recovery_identifies_parameter(rng):
    v = g.IsometryOp.random(4, 2, rng)
    c = 0.6 * nk.haar_unitary(2, rng)
    r = g.ResolventModel.from_direct_sum(v, null_param(v, constant=c))
    np.testing.assert_allclose(g.recover_parameter(r, 0.37 - 0.11j), c, atol=1e-10)


def _symmetric_oracle():
    """The dilation oracle of the symmetric fixture (anchored at i), and its operator."""
    a, model, _, _ = flip_dilation_symmetric()
    return g.ResolventModel.from_dilation(model), a


def _partial_parameter():
    # half of the defect space of the null operator: the extension is partial
    e1 = g.Subspace(np.eye(2, 1, dtype=complex))
    return g.ContractionParam.constant(e1, e1, np.array([[0.5]]), 1j)


#: (call, error, message) of each input check of the resolvent layer
REJECTED = [
    (lambda: g.recover_parameter(_symmetric_oracle()[0], 0.3), TypeError,
     "parameter recovery applies to isometric-side models"),
    (lambda: recover_anchored_parameter(
        g.ResolventModel.from_dilation(flip_dilation_isometric()[1]), 0.0, 0.0),
     g.PointExcluded, "recovery needs an interior point distinct from 0"),
    (lambda: g.extension_resolvent(g.SymmetricOp.null(2), _partial_parameter(), 1j, 2.0),
     g.PointExcluded, r"real point \(2\+0j\)"),
    (lambda: g.extension_resolvent(g.SymmetricOp.null(2), _partial_parameter(), 1j, 2j),
     ValueError, "partial parameter source: 1 of 2 defect dimensions"),
    (lambda: g.boundary_parameter(*flip_dilation_isometric(), 0.0), ValueError,
     "boundary parameters are defined for hermitian models"),
    (lambda: g.defect_block(*_symmetric_oracle(), 1j, -2j), g.PointExcluded,
     "evaluation point must share the anchor half-plane"),
    (lambda: g.characteristic_function(g.SymmetricOp.null(1), 1j, -2j), g.PointExcluded,
     "evaluation point must share the anchor half-plane"),
    (lambda: g.verify_resolvent_axioms(identity_model(g.IsometryOp.null(1)),
                                       g.IsometryOp.null(1)).check("no-such-axiom"),
     KeyError, "no-such-axiom"),
]


@pytest.mark.parametrize("call, error, message", REJECTED)
def test_resolvent_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
