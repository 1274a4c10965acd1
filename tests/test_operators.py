"""Isometric and symmetric operators, their transforms and defect calculus."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import operators
from gresolv.fixtures import partial_identity_symmetric, partial_identity_isometry


def scalar_iso(u: complex) -> g.IsometryOp:
    return g.IsometryOp(g.Subspace.full(1), np.array([[u]], dtype=complex))


def test_defects_of_null_operator():
    v = g.IsometryOp.null(1)
    pair = g.defect_subspaces(v, 0.0)
    assert pair.m_space.dim == 0 and pair.n_space.dim == 1
    assert g.defect_subspaces(v, g.INFINITY).n_space.dim == 1 and repr(g.INFINITY) == "INFINITY"


def test_defects_of_fixture_isometry():
    v = partial_identity_isometry()
    for zeta in (0.3, -0.5 + 0.1j, 2.0):
        pair = g.defect_subspaces(v, zeta)
        # (E - zeta V) e1 = (1 - zeta) e1 spans e1, so the defect is e2
        np.testing.assert_allclose(np.abs(pair.n_space.basis), [[0.0], [1.0]], atol=1e-12)


def test_defects_of_unitary_vanish(rng):
    v = g.IsometryOp.random(4, 4, rng)
    for zeta in (0.5, 1.7 - 0.2j):
        assert g.defect_subspaces(v, zeta).n_space.dim == 0


def test_defect_spaces_of_an_isometry_balance(rng):
    # both defect spaces at 0 and at infinity are complements of rank-d
    # orthonormalizations of orthonormal d-frames, so each has dimension n - d
    for _ in range(40):
        n = int(rng.integers(1, 17))
        d = int(rng.integers(0, n + 1))
        v = g.IsometryOp.random(n, d, rng)
        n0, ninf = (pair.n_space for pair in operators.parameter_frames(v, 0.0))
        assert n0.dim == ninf.dim == n - d


def test_moebius_scalar_unitary():
    u, z = np.exp(0.7j), 0.3 + 0.2j
    vz = g.moebius_transform(scalar_iso(u), z)
    expected = (u - np.conj(z)) / (1.0 - z * u)
    assert abs(vz.ran_basis[0, 0] / vz.dom.basis[0, 0] - expected) < 1e-12
    assert abs(abs(expected) - 1.0) < 1e-12


def test_moebius_roundtrip(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, n + 1))
        v = g.IsometryOp.random(n, d, rng)
        z = complex(0.6 * rng.standard_normal() / 2, 0.6 * rng.standard_normal() / 2)
        back = g.moebius_transform(g.moebius_transform(v, z), -z)
        assert nk.op_norm(back.ambient_partial() - v.ambient_partial()) < 1e-10
        assert nk.op_norm(nk.projector(back.dom) - nk.projector(v.dom)) < 1e-10


def test_moebius_of_null_is_null():
    vz = g.moebius_transform(g.IsometryOp.null(1), 0.4)
    assert vz.dom.dim == 0


def test_moebius_preserves_unitarity_both_ways(rng):
    for _ in range(5):
        n = int(rng.integers(1, 9))
        v = g.IsometryOp.random(n, n, rng)
        vz = g.moebius_transform(v, complex(0.3, -0.4))
        assert vz.dom.dim == n
        full = vz.full_matrix()
        assert nk.op_norm(full.conj().T @ full - np.eye(n)) < 1e-10
        # a strict isometry maps to a strict isometry of the same defect
        if n > 1:
            w = g.IsometryOp.random(n, n - 1, rng)
            wz = g.moebius_transform(w, complex(0.2, 0.1))
            assert wz.dom.dim == n - 1
            assert g.defect_subspaces(wz, 0.0).n_space.dim == 1


def test_cayley_scalar_dense():
    a = g.SymmetricOp(g.Subspace.full(1), np.array([[2.5]], dtype=complex))
    u = g.cayley_transform(a, 1j)
    expected = (2.5 + 1j) / (2.5 - 1j)
    value = u.ran_basis[0, 0] / u.dom.basis[0, 0]
    assert abs(value - expected) < 1e-12
    assert abs(abs(expected) - 1.0) < 1e-12


def test_cayley_of_null():
    u = g.cayley_transform(g.SymmetricOp.null(1), 1j)
    assert u.dom.dim == 0


def test_cayley_roundtrip_non_dense(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        a = g.SymmetricOp.random(n, d, rng)
        z = complex(rng.standard_normal(), 1.0 + rng.random())
        u = g.cayley_transform(a, z)
        back = g.cayley_transform(u, z)
        assert nk.op_norm(nk.projector(back.dom) - nk.projector(a.dom)) < 1e-9
        assert nk.op_norm(back.ambient_partial() - a.ambient_partial()) < 1e-8 * max(
            1.0, nk.op_norm(a.ambient_partial()))


def test_cayley_forward_has_no_fixed_vectors(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        u = g.cayley_transform(a, 1j)
        if u.dom.dim:
            s = np.linalg.svd(u.action - u.dom.basis, compute_uv=False)
            assert s[-1] > 1e-8


def test_cayley_inverse_rejects_fixed_vectors():
    with pytest.raises(g.FixedPointObstruction):
        g.cayley_transform(partial_identity_isometry(), 1j)


def test_cayley_transform_rejects_other_operators():
    with pytest.raises(TypeError):
        g.cayley_transform(g.PartialOperator.null(2), 1j)


def test_regular_type_fixture():
    a = partial_identity_symmetric()
    ok, bound = g.is_regular_type(a, 2.0)
    assert ok and abs(bound - 1.0) < 1e-12
    ok, bound = g.is_regular_type(a, 1.0)
    assert not ok and bound < 1e-12


def test_regular_type_at_nonreal_points(rng):
    for _ in range(10):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(0, n + 1))
        a = g.SymmetricOp.random(n, d, rng)
        ok, bound = g.is_regular_type(a, 1j)
        assert ok
        if d:
            assert bound >= 1.0 - 1e-12  # |Im| of the point is a lower bound


def test_orthogonal_extension_at_zero_anchor():
    v = g.IsometryOp.null(1)
    ext = g.orthogonal_extension(v, np.array([[0.3 - 0.4j]]), 0.0)
    np.testing.assert_allclose(ext, [[0.3 - 0.4j]], atol=1e-14)


def test_orthogonal_extension_scalar_anchored():
    v = g.IsometryOp.null(1)
    z0, c = 0.4 + 0.2j, 0.5 - 0.1j
    ext = g.orthogonal_extension(v, np.array([[c]]), z0)
    expected = (c + np.conj(z0)) / (1.0 + z0 * c)
    np.testing.assert_allclose(ext, [[expected]], atol=1e-12)


def test_orthogonal_extension_unitary_parameter(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        k = n - d
        z0 = complex(0.2, -0.3)
        c = nk.haar_unitary(k, rng)
        ext = g.orthogonal_extension(v, c, z0)
        assert nk.op_norm(ext.conj().T @ ext - np.eye(n)) < 1e-10


def test_orthogonal_extension_rejects_expansion():
    with pytest.raises(g.NotContraction):
        g.orthogonal_extension(g.IsometryOp.null(1), np.array([[1.5]]), 0.0)
    # the entry decides the parameter; the core it calls checks the anchor
    with pytest.raises(g.NotContraction):
        g.orthogonal_extension(g.IsometryOp.null(1), np.array([[1.5]]), 1.5)
    with pytest.raises(ValueError, match="anchor must lie in the open unit disk"):
        g.orthogonal_extension(g.IsometryOp.null(1), np.array([[0.5]]), 1.5)


def _pull_back_residuals(v, c, z0):
    """The two identities that tie the anchored value to the direct sum of the
    transformed isometry and ``c``, with the value."""
    src, dst = (pair.n_space for pair in operators.parameter_frames(v, z0))
    plus = operators._direct_sum(g.moebius_transform(v, z0), c, src, dst)
    eye = np.eye(v.ambient_dim)
    v_c = g.orthogonal_extension(v, c, z0)
    return v_c, (v_c - (eye / z0 + (abs(z0) ** 2 - 1) / z0 * nk.inv(eye + z0 * plus)),
                 plus - (-eye / z0 + (1 - abs(z0) ** 2) / z0 * nk.inv(eye - z0 * v_c)))


def test_orthogonal_extension_pull_back_identities(rng):
    # the identities lose about eps / (1 - |z0|)^2; up to |z0| = 0.99 they hold
    # at their relative gate of 1e-10
    for radius in (0.3, 0.9, 0.99):
        for _ in range(20):
            n = int(rng.integers(2, 17))
            d = int(rng.integers(0, n))
            v = g.IsometryOp.random(n, d, rng)
            z0 = complex(radius * np.exp(2j * np.pi * rng.random()))
            c = nk.haar_unitary(n - d, rng) * (0.5 if rng.random() < 0.5 else 1.0)
            v_c, residuals = _pull_back_residuals(v, c, z0)
            assert all(nk._norm_within(res, 1e-10, v_c) for res in residuals)


def test_orthogonal_extension_near_the_circle_extends_v_and_contracts():
    # at |z0| = 0.999 the pull-back identities miss their gate on most of these
    # draws, while the value still extends V and is a contraction
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        z0 = complex(0.999 * np.exp(2j * np.pi * rng.random()))
        v_c = g.orthogonal_extension(v, nk.haar_unitary(n - d, rng), z0)
        assert nk.op_norm(v_c @ v.dom.basis - v.action) <= 1e-10
        assert nk.op_norm(v_c) <= 1.0 + nk.CONTRACTION_SLACK


#: (call, error, message) of each input check of the operator layer
REJECTED = [
    (lambda: g.PartialOperator(g.Subspace.full(2), np.zeros((2, 1))), ValueError,
     r"action shape \(2, 1\) does not match domain"),
    (lambda: g.IsometryOp(g.Subspace.full(2), 2.0 * np.eye(2)), ValueError,
     "image frame is not orthonormal"),
    (lambda: g.SymmetricOp(g.Subspace.full(2), np.array([[0.0, 1.0], [0.0, 0.0]])), ValueError,
     "operator is not symmetric on its domain"),
    (lambda: g.range_frame(g.SymmetricOp.null(2), g.INFINITY), ValueError,
     "infinity defect is defined for isometric operators only"),
    (lambda: g.moebius_transform(g.IsometryOp.null(2), 1.0), ValueError,
     "transform point must lie in the open unit disk"),
    (lambda: g.orthogonal_extension(g.IsometryOp.null(2), np.eye(1), 0.0), ValueError,
     r"parameter shape \(1, 1\) does not match defects \(2, 2\)"),
    (lambda: g.SymmetricOp.null(2).full_matrix(), ValueError,
     "operator is not everywhere defined"),
]


@pytest.mark.parametrize("call, error, message", REJECTED)
def test_operator_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_classify_signs_scalars():
    def op_of(value):
        return g.PartialOperator(g.Subspace.full(1), np.array([[value]], dtype=complex))

    assert g.classify_signs(op_of(1j)) == "dissipative"
    assert g.classify_signs(op_of(0.0)) == "symmetric"
    assert g.classify_signs(op_of(-2j)) == "accumulative"
    assert g.classify_signs(g.PartialOperator.null(1)) == "symmetric"


def test_classify_signs_mixed():
    op = g.PartialOperator(g.Subspace.full(2), np.diag([1j, -1j]).astype(complex))
    assert g.classify_signs(op) == "neither"


def test_dissipative_scalar_cayley_is_contraction():
    # the transform (b - conj(z))/(b - z) of b = i at z = -i is 0
    b, z = 1j, -1j
    w = (b - np.conj(z)) / (b - z)
    assert abs(w) < 1e-14


def test_isometry_inner_products(rng):
    for _ in range(10):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(0, n + 1))
        v = g.IsometryOp.random(n, d, rng)
        if d == 0:
            continue
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lhs = np.vdot(v.ran_basis @ f, v.ran_basis @ h)
        rhs = np.vdot(v.dom.basis @ f, v.dom.basis @ h)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_norm_preserving_vector_preserves_products(rng):
    # a contraction that preserves one norm preserves products with everything:
    # build W = U diag(1, s_2, ...) Q* with f = Q e1, so ||W f|| = ||f||
    n = 5
    u = nk.haar_unitary(n, rng)
    q = nk.haar_unitary(n, rng)
    w = u @ np.diag([1.0, 0.6, 0.5, 0.4, 0.3]) @ q.conj().T
    f = q[:, 0]
    assert abs(np.linalg.norm(w @ f) - 1.0) < 1e-12
    for _ in range(20):
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert abs(np.vdot(w @ f, w @ h) - np.vdot(f, h)) < 1e-10 * max(1.0, np.linalg.norm(h))


def test_contraction_extension_block_structure(rng):
    # every contraction extending an isometry splits as V plus a defect map
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n))
        v = g.IsometryOp.random(n, d, rng)
        n0 = g.defect_subspaces(v, 0.0).n_space
        ninf = g.defect_subspaces(v, g.INFINITY).n_space
        t = 0.9 * nk.haar_frame(ninf.dim, ninf.dim, rng)
        w = v.ambient_partial() + ninf.basis @ t @ n0.basis.conj().T
        assert nk.op_norm(w) <= 1.0 + 1e-12
        # block extraction recovers the pieces and reassembles the whole
        t_back = ninf.basis.conj().T @ w @ n0.basis
        np.testing.assert_allclose(t_back, t, atol=1e-12)
        leak = nk.projector(g.defect_subspaces(v, g.INFINITY).m_space) @ w @ n0.basis
        assert nk.op_norm(leak) < 1e-12
        reassembled = v.ambient_partial() + ninf.basis @ t_back @ n0.basis.conj().T
        assert nk.op_norm(reassembled - w) < 1e-12


def test_leaking_extension_is_expanding(rng):
    # pushing defect vectors into the operator range breaks the norm bound
    v = partial_identity_isometry()
    w = v.ambient_partial()
    w[:, 1] = np.array([0.4, 0.9])  # image of e2 leans into span e1 = range of V
    assert nk.op_norm(w) > 1.0 + 1e-3
