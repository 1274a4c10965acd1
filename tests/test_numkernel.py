"""Subspace calculus and normal-matrix eigenstructure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gresolv.numkernel as nk
from gresolv.errors import KindMismatch, NotContraction, Singular


def test_contraction_slack_edge():
    nk.check_contraction(1.0 + 1e-10, "norm")
    with pytest.raises(NotContraction, match="norm 1.000000 exceeds 1"):
        nk.check_contraction(1.0 + 2e-10, "norm")


def test_isometry_defect_and_unitarity():
    frame = np.eye(3, dtype=complex)[:, :2]
    assert nk.isometry_defect(frame) == 0.0
    assert not nk.is_unitary(frame, nk.STRUCT_GATE)
    assert nk.is_unitary(np.eye(3), 0.0)
    assert nk.isometry_defect(np.zeros((3, 0), dtype=complex)) == 0.0
    assert nk.is_unitary(np.zeros((0, 0), dtype=complex), 0.0)
    assert not nk.is_unitary(2.0 * np.eye(2), nk.STRUCT_GATE)


def test_hermitian_gate_is_relative_to_the_norm():
    def m(scale, skew):
        # ||m - m*|| = skew, ||m|| about scale
        return np.array([[scale, skew], [0.0, scale]], dtype=complex)
    gate = 1e-8
    assert nk.is_hermitian(m(0.5, 0.5e-8), gate)
    assert not nk.is_hermitian(m(0.5, 2e-8), gate)
    assert nk.is_hermitian(m(100.0, 0.5e-6), gate)
    assert not nk.is_hermitian(m(100.0, 2e-6), gate)
    assert not nk.is_hermitian(m(0.5, 0.5e-6), gate)


def test_orthonormalize_already_orthonormal():
    sub = nk.orthonormalize(np.array([[1.0], [0.0]]))
    assert sub.dim == 1
    np.testing.assert_allclose(sub.basis, [[1.0], [0.0]], atol=1e-14)


def test_orthonormalize_rank_one():
    sub = nk.orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert sub.dim == 1
    np.testing.assert_allclose(sub.basis, [[1.0], [0.0]], atol=1e-14)


def test_orthonormalize_zero_matrix():
    assert nk.orthonormalize(np.zeros((2, 2))).dim == 0


def test_complement_of_e1():
    sub = nk.Subspace(np.array([[1.0], [0.0]], dtype=complex))
    comp = nk.orthogonal_complement(sub)
    np.testing.assert_allclose(np.abs(comp.basis), [[0.0], [1.0]], atol=1e-14)


def test_complement_of_full_space():
    assert nk.orthogonal_complement(nk.Subspace.full(2)).dim == 0


def test_complement_diagonal_direction():
    # oracle: the projector identity P_S + P_Sperp = I
    vec = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    sub = nk.orthonormalize(vec)
    comp = nk.orthogonal_complement(sub)
    np.testing.assert_allclose(nk.projector(sub) + nk.projector(comp), np.eye(2), atol=1e-12)
    # and the complement is the reflected diagonal
    expected = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(nk.projector(comp), expected @ expected.T, atol=1e-12)


def test_projector_values():
    e1 = nk.Subspace(np.array([[1.0], [0.0]], dtype=complex))
    np.testing.assert_allclose(nk.projector(e1), np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(nk.projector(nk.Subspace.empty(2)), np.zeros((2, 2)))
    diag = nk.orthonormalize(np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(nk.projector(diag), 0.5 * np.ones((2, 2)), atol=1e-12)


def test_eig_hermitian_flip():
    # by-hand 2x2 eigenproblem: eigenvalues +-1, projections (I +- X)/2
    pairs = nk.eig_normal(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), "hermitian")
    assert len(pairs) == 2
    (lam_m, p_m), (lam_p, p_p) = pairs
    assert abs(lam_m + 1.0) < 1e-12 and abs(lam_p - 1.0) < 1e-12
    np.testing.assert_allclose(p_p, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-12)
    np.testing.assert_allclose(p_m, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)


def test_eig_unitary_diagonal():
    pairs = nk.eig_normal(np.diag([1j, 1.0]), "unitary")
    values = {complex(np.round(lam, 12)) for lam, _ in pairs}
    assert values == {1j, 1.0}
    for lam, proj in pairs:
        expected = np.diag([1.0, 0.0]) if lam == 1j else np.diag([0.0, 1.0])
        np.testing.assert_allclose(proj, expected, atol=1e-12)
    assert nk.eig_normal(np.zeros((0, 0)), "unitary") == []


def test_eig_merges_multiplicity():
    pairs = nk.eig_normal(np.eye(3, dtype=complex), "unitary")
    assert len(pairs) == 1
    lam, proj = pairs[0]
    assert abs(lam - 1.0) < 1e-12
    np.testing.assert_allclose(proj, np.eye(3), atol=1e-12)


def _unitary_with_angles(q, angles):
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def test_eig_unitary_merges_candidates_the_split_kept_apart():
    # pi/3 and pi/3 + 2.4e-8 differ by 1.2e-8 in sine, so the sine split keeps
    # them apart; the conjugate pair at -(pi/3 + 0.8e-8), -(pi/3 + 1.6e-8)
    # chains all four into one cosine block, whose mean cosine puts the two
    # candidates 0.6e-8 apart on the circle, so the chordal merge joins them
    angles = [np.pi / 3, np.pi / 3 + 2.4e-8, -(np.pi / 3 + 0.8e-8), -(np.pi / 3 + 1.6e-8)]
    q = nk.haar_unitary(4, np.random.default_rng(0))
    pairs = nk.eig_normal(_unitary_with_angles(q, angles), "unitary")
    assert len(pairs) == 2
    (lam, proj), (lam_conj, proj_conj) = pairs
    assert abs(np.angle(lam) - np.pi / 3) < 1e-7 and abs(lam_conj - np.conj(lam)) < 1e-7
    np.testing.assert_allclose(proj, q[:, :2] @ q[:, :2].conj().T, atol=1e-10)
    np.testing.assert_allclose(proj_conj, q[:, 2:] @ q[:, 2:].conj().T, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       near=st.lists(st.tuples(st.floats(1e-10, 3e-8), st.booleans()), min_size=2, max_size=8),
       others=st.integers(0, 4))
def test_eig_unitary_atoms_stay_a_gap_apart_across_angle_zero(seed, near, others):
    # eigen-angles within +-(1e-10 ... 3e-8) of 0 share one cosine block, and
    # its sine split keeps the atoms on either side of angle 0 apart
    rng = np.random.default_rng(seed)
    angles = [mag if positive else -mag for mag, positive in near]
    angles += list(rng.uniform(0.0, 2 * np.pi, others))
    q = nk.haar_unitary(len(angles), rng)
    pairs = nk.eig_normal(_unitary_with_angles(q, angles), "unitary")
    lams = [lam for lam, _ in pairs]
    if len(lams) > 1:
        # neighbours in angle order, the pair across angle 0 included
        assert min(abs(lams[i] - lams[i - 1]) for i in range(len(lams))) >= nk.EIG_MERGE_GAP
    assert nk.op_norm(sum(proj for _, proj in pairs) - np.eye(len(angles))) < 1e-9


def test_eig_kind_mismatch():
    with pytest.raises(KindMismatch):
        nk.eig_normal(np.array([[0.0, 1.0], [0.0, 0.0]]), "hermitian")
    with pytest.raises(KindMismatch):
        nk.eig_normal(np.array([[0.5, 0.0], [0.0, 0.5]]), "unitary")


#: (call, message) of each input check of the kernel that raises ``ValueError``
REJECTED = [
    (lambda: nk.as_cmatrix(np.zeros((2, 2, 2))), "expected a matrix, got ndim=3"),
    (lambda: nk.intersect(nk.Subspace.full(2), nk.Subspace.full(3)), "ambient dimensions differ"),
    (lambda: nk.eig_normal(np.zeros((2, 3)), "hermitian"), "eig_normal expects a square matrix"),
    (lambda: nk.eig_normal(np.eye(2), "normal"), "unknown kind 'normal'"),
]


@pytest.mark.parametrize("call, message", REJECTED)
def test_kernel_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_solve_identity_and_diagonal():
    b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    np.testing.assert_allclose(nk.solve(np.eye(2), b), b)
    x = nk.solve(np.diag([2.0, 4.0]).astype(complex), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_singular_reports_sigma():
    with pytest.raises(Singular) as exc:
        nk.solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))
    assert exc.value.smallest_sv < 1e-14


def test_projector_idempotent_on_random_frames(rng):
    for _ in range(50):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(0, n + 1))
        m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        p = nk.projector(nk.orthonormalize(m))
        assert nk.op_norm(p @ p - p) < 1e-10


def test_eig_reconstruction_random(rng):
    for n in (2, 5, 9, 16):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + h.conj().T) / 2.0
        recon = sum(lam * proj for lam, proj in nk.eig_normal(h, "hermitian"))
        assert nk.op_norm(recon - h) < 1e-9
        u = nk.haar_unitary(n, rng)
        recon = sum(lam * proj for lam, proj in nk.eig_normal(u, "unitary"))
        assert nk.op_norm(recon - u) < 1e-9


def test_complement_involution(rng):
    for _ in range(25):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(0, n + 1))
        sub = nk.Subspace(nk.haar_frame(n, k, rng))
        back = nk.orthogonal_complement(nk.orthogonal_complement(sub))
        assert nk.op_norm(nk.projector(back) - nk.projector(sub)) < 1e-10


def test_intersection_of_planes():
    a = nk.orthonormalize(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    b = nk.orthonormalize(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inter = nk.intersect(a, b)
    assert inter.dim == 1
    np.testing.assert_allclose(np.abs(inter.basis), [[0.0], [1.0], [0.0]], atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), k=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_orthonormalize_gives_orthonormal_frames(n, k, seed):
    k = min(k, n)
    r = np.random.default_rng(seed)
    m = r.standard_normal((n, k)) + 1j * r.standard_normal((n, k))
    sub = nk.orthonormalize(m)
    gram = sub.basis.conj().T @ sub.basis
    assert nk.op_norm(gram - np.eye(sub.dim)) < 1e-10
    # span is preserved: every original column projects to itself
    proj = nk.projector(sub)
    assert nk.op_norm(proj @ m - m) < 1e-8 * max(1.0, nk.op_norm(m))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_unitary_eigenvalues_unimodular(n, seed):
    r = np.random.default_rng(seed)
    u = nk.haar_unitary(n, r)
    for lam, proj in nk.eig_normal(u, "unitary"):
        assert abs(abs(lam) - 1.0) < 1e-10
        assert nk.op_norm(proj @ proj - proj) < 1e-10


def test_subspace_checks_outside_frames_but_not_svd_frames(monkeypatch, rng):
    skewed = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="orthonormal"):
        nk.Subspace(skewed)
    checked = []
    monkeypatch.setattr(nk.Subspace, "__post_init__", lambda self: checked.append(self))
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    s = nk.orthonormalize(m)
    frames = (s, nk.orthogonal_complement(s), nk.intersect(s, nk.orthonormalize(m[:, :2])))
    assert checked == []
    assert [f.dim for f in frames] == [3, 2, 2]
    for frame in frames:
        assert nk.isometry_defect(frame.basis) < 1e-14


def _fix_phases_by_column(q):
    """The column-by-column phase fixing that ``nk._fix_phases`` replaces."""
    q = q.copy()
    for j in range(q.shape[1]):
        i = int(np.argmax(np.abs(q[:, j])))
        piv = q[i, j]
        if abs(piv) > 0:
            q[:, j] *= np.conj(piv) / abs(piv)
    return q


def test_fix_phases_is_bitwise_the_column_loop():
    rng = np.random.default_rng(32)
    for _ in range(20000):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(0, n + 1))
        q = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        q *= 10.0 ** rng.choice([0, 300, -300])
        if k and rng.random() < 0.2:
            # zero columns, signed zeros included
            q[:, rng.integers(k)] = 0.0
            q[:, 0] = complex(-0.0, -0.0)
        if rng.random() < 0.3:
            q = np.asfortranarray(q)
        expected, fixed = _fix_phases_by_column(q), nk._fix_phases(q)
        assert fixed.flags.c_contiguous == expected.flags.c_contiguous
        assert fixed.tobytes() == expected.tobytes()
