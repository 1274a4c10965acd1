"""Forbidden operator, admissibility, Neumann formulas, exit-space extensions."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv.extensions import (assemble_block_map, block_param_from_map,
                                exit_frames, forbidden_lift, neumann_parameter)
from gresolv.fixtures import flip_dilation_symmetric, partial_identity_symmetric
from gresolv.operators import INFINITY, _comparison_coords
from tests.conftest import fixed_point_free, near_identity, random_symmetric_model


def defects(a, z):
    return (g.defect_subspaces(a, z).n_space, g.defect_subspaces(a, np.conj(z)).n_space)


def coord_map(a, z, coords):
    src, dst = defects(a, z)
    return g.PartialMap.from_coords(src, dst, np.asarray(coords, dtype=complex))


def test_forbidden_dense_domain_is_empty(rng):
    a = g.SymmetricOp.random(3, 3, rng)
    assert g.forbidden_operator(a, 1j).dim == 0


def test_forbidden_fixture_is_identity_on_e2():
    x = g.forbidden_operator(partial_identity_symmetric(), 0.7 + 1.3j)
    assert x.dim == 1
    np.testing.assert_allclose(x.ambient(), np.diag([0.0, 1.0]), atol=1e-12)


def test_forbidden_null_operator_is_identity():
    x = g.forbidden_operator(g.SymmetricOp.null(1), 1j)
    np.testing.assert_allclose(x.ambient(), np.eye(1), atol=1e-14)


def test_forbidden_is_isometric(rng):
    for _ in range(10):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        x = g.forbidden_operator(a, 0.5 - 2j)
        gram = x.matrix.conj().T @ x.matrix
        assert nk.op_norm(gram - np.eye(x.dim)) < 1e-10


def test_forbidden_lift_reconstruction(rng):
    for _ in range(10):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        z = complex(rng.standard_normal(), 1.0 + rng.random())
        x = g.forbidden_operator(a, z)
        for j in range(x.dim):
            psi_c = np.eye(x.dim, dtype=complex)[:, j]
            h = forbidden_lift(a, z, x, psi_c)
            # h is orthogonal to the closed domain ...
            assert np.linalg.norm(a.dom.basis.conj().T @ h) < 1e-9
            # ... and projects back onto the pair
            src, dst = defects(a, z)
            np.testing.assert_allclose(nk.projector(src) @ h, x.src.basis @ psi_c, atol=1e-9)
            np.testing.assert_allclose(nk.projector(dst) @ h, x.matrix @ psi_c, atol=1e-9)


def test_forbidden_operator_is_the_comparison_map_at_infinity(rng):
    # compressed_parameter reads the exit forbidden operator as K(INFINITY);
    # forbidden_operator keeps its own construction, so this is a check
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 17))
        a = g.SymmetricOp.random(n, int(rng.integers(0, n + 1)), rng)
        z = complex(rng.standard_normal(), rng.choice([-1.0, 1.0]) * (0.1 + 3.0 * rng.random()))
        src, dst = defects(a, z)
        x = dst.basis.conj().T @ g.forbidden_operator(a, z).ambient() @ src.basis
        k_inf = _comparison_coords(a, z, INFINITY)
        worst = max(worst, nk.op_norm(x - k_inf) / max(1.0, nk.op_norm(x)))
    assert worst < 1e-12, worst


def test_admissibility_on_fixture():
    a = partial_identity_symmetric()
    for t, expected in ((1.0, False), (np.exp(0.9j), True), (0.2, True), (-1.0, True)):
        assert g.is_admissible(a, 1j, coord_map(a, 1j, [[t]])) is expected


def test_admissibility_dense_domain(rng):
    a = g.SymmetricOp.random(4, 4, rng)
    src, dst = defects(a, 1j)
    assert src.dim == 0
    assert g.is_admissible(a, 1j, g.PartialMap.empty(4))


def test_admissibility_null_operator():
    a = g.SymmetricOp.null(1)
    assert not g.is_admissible(a, 1j, coord_map(a, 1j, [[1.0]]))
    assert g.is_admissible(a, 1j, coord_map(a, 1j, [[-1.0]]))


def test_admissibility_near_the_forbidden_operator_is_a_verdict():
    # the forbidden operator's coordinates turned by 1e-8 to 1e-10: the two
    # forms of admissibility straddle their threshold, and the kernel test decides
    rng = np.random.default_rng(11)
    verdicts = []
    while len(verdicts) < 120:
        n = int(rng.integers(2, 7))
        a = g.SymmetricOp.random(n, int(rng.integers(0, n)), rng)
        src, dst = defects(a, 1j)
        x = g.forbidden_operator(a, 1j)
        if x.dim == 0 or src.dim == 0:
            continue
        coords = dst.basis.conj().T @ x.ambient() @ src.basis
        for eps in (1e-8, 1e-9, 1e-10):
            t = g.PartialMap.from_coords(src, dst, coords @ near_identity(rng, src.dim, eps))
            verdicts.append((g.is_admissible(a, 1j, t), fixed_point_free(a, 1j, t)))
    assert all(isinstance(kernel_test, bool) for kernel_test, _ in verdicts)
    split = sum(kernel_test != fixed_point for kernel_test, fixed_point in verdicts)
    assert 0 < split < len(verdicts) / 4


def test_neumann_scalar_self_adjoint():
    a = g.SymmetricOp.null(1)
    ext, cls = g.neumann_extension(a, 1j, coord_map(a, 1j, [[-1.0]]))
    np.testing.assert_allclose(ext.full_matrix(), [[0.0]], atol=1e-14)
    assert cls.kind == "symmetric" and cls.self_adjoint and cls.maximal


def test_neumann_rejects_forbidden_direction():
    a = g.SymmetricOp.null(1)
    with pytest.raises(g.NotAdmissible):
        g.neumann_extension(a, 1j, coord_map(a, 1j, [[1.0]]))


def test_neumann_entry_decides_the_norm_before_the_core_runs():
    a = g.SymmetricOp.null(1)
    expanding = coord_map(a, 1j, [[2.0]])
    for anchor in (1j, 1.0):  # the real anchor fails the core's first test
        with pytest.raises(g.NotContraction, match="parameter norm 2.000000 exceeds 1"):
            g.neumann_extension(a, anchor, expanding)
    with pytest.raises(ValueError, match="must be non-real"):
        g.neumann_extension(a, 1.0, coord_map(a, 1j, [[-1.0]]))


@pytest.mark.parametrize("phi", [0.31, 1.1, np.pi / 2, 2.5, 4.0, 6.0])
def test_neumann_fixture_rotation_family(phi):
    # oracle: the scalar identity i (t + 1)/(t - 1) = cot(phi/2) for t = e^{i phi}
    a = partial_identity_symmetric()
    ext, cls = g.neumann_extension(a, 1j, coord_map(a, 1j, [[np.exp(1j * phi)]]))
    expected = np.diag([1.0, 1.0 / np.tan(phi / 2.0)])
    np.testing.assert_allclose(ext.full_matrix(), expected, atol=1e-10)
    assert cls.self_adjoint


def test_neumann_dissipative_classification(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    z = -1j  # strict contractions at a lower anchor give dissipative extensions
    src, dst = defects(a, z)
    t = coord_map(a, z, 0.5 * nk.haar_unitary(src.dim, rng))
    ext, cls = g.neumann_extension(a, z, t)
    assert cls.kind == "dissipative" and cls.maximal and not cls.self_adjoint
    assert g.classify_signs(ext) == "dissipative"
    # the transform of a dissipative extension is non-expanding on samples
    w = (ext.full_matrix() - np.conj(z) * np.eye(3)) @ nk.inv(
        ext.full_matrix() - z * np.eye(3))
    for _ in range(20):
        vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.linalg.norm(w @ vec) <= np.linalg.norm(vec) + 1e-10


def test_neumann_accumulative_orientation(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    src, dst = defects(a, 1j)
    t = coord_map(a, 1j, 0.4 * nk.haar_unitary(src.dim, rng))
    _, cls = g.neumann_extension(a, 1j, t)
    assert cls.kind == "accumulative"


def test_neumann_parameter_roundtrip(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        z = 1j
        tmap = g.build_admissible_isometry(a, z, *defects(a, z), seed=int(rng.integers(2**32)))
        ext, _ = g.neumann_extension(a, z, tmap)
        back = neumann_parameter(ext, a, z)
        assert nk.op_norm(back.ambient() - tmap.ambient()) < 1e-9


def test_build_admissible_isometry_dense(rng):
    a = g.SymmetricOp.random(4, 4, rng)
    result = g.build_admissible_isometry(a, 1j, g.Subspace.empty(4), g.Subspace.empty(4), 7)
    assert result.dim == 0


def test_build_admissible_isometry_fixture_rotation():
    a = partial_identity_symmetric()
    src, dst = defects(a, 1j)
    result = g.build_admissible_isometry(a, 1j, src, dst, seed=11)
    value = complex((dst.basis.conj().T @ result.matrix)[0, 0])
    assert abs(abs(value) - 1.0) < 1e-12
    alpha = np.angle(value)
    assert np.pi / 4 - 1e-9 <= (alpha % (2 * np.pi)) <= 7 * np.pi / 4 + 1e-9
    assert abs(value - 1.0) > 0.5  # rotation stays away from the forbidden direction


def test_build_admissible_isometry_random(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        src, dst = defects(a, 1j)
        result = g.build_admissible_isometry(a, 1j, src, dst, seed=int(rng.integers(2**32)))
        assert result.is_isometric(1e-10)
        assert g.is_admissible(a, 1j, result)


def test_build_admissible_isometry_partial_subspaces(rng):
    for _ in range(5):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(0, n - 1))
        a = g.SymmetricOp.random(n, d, rng)
        src, dst = defects(a, 1j)
        q = int(rng.integers(1, src.dim + 1))
        sub_src = g.Subspace(src.basis[:, :q])
        sub_dst = g.Subspace(dst.basis[:, :q])
        result = g.build_admissible_isometry(a, 1j, sub_src, sub_dst, seed=3)
        assert result.dim == q and result.is_isometric(1e-10)
        assert g.is_admissible(a, 1j, result)


def test_admissible_isometry_source_meets_the_forbidden_source_and_balances(rng):
    # the forbidden operator's source is the whole defect space at z, so every
    # source inside it meets it in itself; the corrected core maps
    # isometrically into n_dst, so the left-over directions of n_src and n_dst
    # have one dimension, and the map's source is all of n_src
    for _ in range(40):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        z = complex(rng.standard_normal(), rng.choice([-1.0, 1.0]) * (0.5 + rng.random()))
        src, dst = defects(a, z)
        x = g.forbidden_operator(a, z)
        assert nk._norm_within(nk.projector(x.src) - nk.projector(src), 1e-8)
        q = int(rng.integers(1, src.dim + 1))
        sub_src = g.Subspace(src.basis @ nk.haar_frame(src.dim, q, rng))
        sub_dst = g.Subspace(dst.basis @ nk.haar_frame(dst.dim, q, rng))
        assert nk.intersect(x.src, sub_src).dim == q
        result = g.build_admissible_isometry(a, z, sub_src, sub_dst, seed=int(rng.integers(2**32)))
        assert result.dim == q and result.is_isometric(1e-10)
        assert nk._norm_within(nk.projector(result.src) - nk.projector(sub_src), 1e-8)
        assert nk._norm_within(result.matrix - nk.projector(sub_dst) @ result.matrix, 1e-8)


def test_exit_space_rebuilds_fixture():
    a, model, anchor, block = flip_dilation_symmetric()
    rebuilt = g.exit_space_extension(a, 1, anchor, block)
    np.testing.assert_allclose(rebuilt.big_op, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_exit_space_rejects_identity_block():
    a = g.SymmetricOp.null(1)
    eye_block = g.BlockParam(np.eye(1, dtype=complex), np.zeros((1, 1)),
                             np.zeros((1, 1)), np.eye(1, dtype=complex))
    with pytest.raises(g.NotAdmissible):
        g.exit_space_extension(a, 1, 1j, eye_block)


def test_exit_space_names_the_colliding_piece():
    # the joint build rejects both blocks; the elimination of the exit block
    # names t22 when it collides with the exit forbidden operator, else phi
    a, z = g.SymmetricOp.null(1), 1j
    one, zero = np.eye(1, dtype=complex), np.zeros((1, 1))
    with pytest.raises(g.T22NotAdmissible):
        g.exit_space_extension(a, 1, z, g.BlockParam(one, zero, zero, one))
    swap = g.BlockParam(zero, one, one, zero)
    np.testing.assert_allclose(g.compressed_parameter(a, z, swap).matrix, one)
    np.testing.assert_allclose(g.forbidden_operator(a, z).ambient(), one)
    with pytest.raises(g.NotAdmissible) as exc:
        g.exit_space_extension(a, 1, z, swap)
    assert exc.value.which == "phi" and not isinstance(exc.value, g.T22NotAdmissible)


def _frames_of_null(n, m):
    return exit_frames(g.SymmetricOp.null(n), g.SymmetricOp.null(m), 1j)


def _block(rows, cols, split=1):
    """A zero ``BlockParam`` of the given shape, cut after ``split`` rows and columns."""
    t = np.zeros((rows, cols))
    return g.BlockParam(t[:split, :split], t[:split, split:], t[split:, :split], t[split:, split:])


#: (call, message) of each input check of the extension layer that raises ``ValueError``
REJECTED = [
    (lambda: g.PartialMap.from_coords(g.Subspace.full(2), g.Subspace.full(2), np.eye(3)),
     r"coordinate shape \(3, 3\) does not match frames"),
    (lambda: g.BlockParam(*[np.zeros((1, 1))] * 4, isometry=True),
     "assembled block is not isometric"),
    (lambda: g.ExitSpaceModel(np.zeros((2, 3)), g.SymmetricOp.null(2)),
     "big operator has the wrong shape"),
    (lambda: g.ExitSpaceModel(np.array([[0.0, 1.0], [0.0, 0.0]]), g.SymmetricOp.null(2)),
     "big operator fails its hermitian test"),
    (lambda: assemble_block_map(_frames_of_null(1, 1), _block(3, 3)),
     r"block shape \(3, 3\) does not match defect frames \(2, 2\)"),
    (lambda: g.exit_space_extension(g.SymmetricOp.null(1), 2, 1j, _block(2, 2),
                                    exit_op=g.SymmetricOp.null(1)),
     "exit operator dimension mismatch"),
    (lambda: g.exit_space_extension(g.SymmetricOp.null(1), 1, 1j, _block(2, 1)),
     "self-adjoint models need a unitary block between full defect spaces"),
    # a block built without the isometry flag is decided by BlockParam's test
    (lambda: g.exit_space_extension(g.SymmetricOp.null(1), 1, 1j, _block(2, 2)),
     "assembled block is not isometric"),
    (lambda: g.build_admissible_isometry(g.SymmetricOp.null(2), 1j, g.Subspace.full(2),
                                         g.Subspace.empty(2), 0),
     "source and destination subspaces must have equal dimension"),
    (lambda: g.unitary_exit_extension(g.IsometryOp.null(1), 1),
     "either a block or a generator must be given"),
    (lambda: g.unitary_exit_extension(g.IsometryOp.null(1), 1, np.eye(3)),
     r"block shape \(3, 3\) does not match defects \(2\)"),
]


@pytest.mark.parametrize("call, message", REJECTED)
def test_extension_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exit_space_self_adjoint_inner_operator(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(3), h)
    empty = np.zeros((0, 0))
    block = g.BlockParam(empty, empty, empty, empty, isometry=True)
    model = g.exit_space_extension(a, 0, 1j, block)
    np.testing.assert_allclose(model.big_op, h, atol=1e-12)


def test_compressed_parameter_fixture():
    a, _, anchor, block = flip_dilation_symmetric()
    phi = g.compressed_parameter(a, anchor, block)
    src, dst = defects(a, anchor)
    np.testing.assert_allclose(dst.basis.conj().T @ phi.matrix, [[-1.0]], atol=1e-12)


def test_compressed_parameter_block_diagonal_collapses(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    src, dst = defects(a, 1j)
    k = src.dim
    m = 2
    t11 = 0.7 * nk.haar_unitary(k, rng)
    zero12 = np.zeros((k, m))
    zero21 = np.zeros((m, k))
    t22 = 0.5 * nk.haar_unitary(m, rng)
    phi = g.compressed_parameter(a, 1j, g.BlockParam(t11, zero12, zero21, t22))
    np.testing.assert_allclose(dst.basis.conj().T @ phi.matrix, t11, atol=1e-12)
    # with only the lower coupling removed, the compression still collapses
    t12 = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    t12 *= 0.2 / max(nk.op_norm(t12), 1.0)
    phi2 = g.compressed_parameter(a, 1j, g.BlockParam(0.5 * t11, t12, zero21, t22))
    np.testing.assert_allclose(dst.basis.conj().T @ phi2.matrix, 0.5 * t11, atol=1e-12)


def test_compressed_parameter_rejects_unit_t22():
    a = g.SymmetricOp.null(1)
    block = g.BlockParam(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                         np.eye(1, dtype=complex))
    with pytest.raises(g.T22NotAdmissible):
        g.compressed_parameter(a, 1j, block)


def test_compressed_isometric_when_block_isometric(rng):
    for _ in range(10):
        a, model, block = random_symmetric_model(rng, n_max=5, m_max=4)
        phi = g.compressed_parameter(a, model.anchor, model.block)
        assert phi.is_isometric(1e-10)


def test_compressed_extension_fixture():
    a, model, anchor, block = flip_dilation_symmetric()
    comp = g.compressed_extension(model)
    np.testing.assert_allclose(comp.full_matrix(), [[0.0]], atol=1e-12)


def test_compressed_extension_no_exit(rng):
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(2), h)
    model = g.ExitSpaceModel(h, a)
    np.testing.assert_allclose(g.compressed_extension(model).full_matrix(), h, atol=1e-14)


def test_compressed_extension_self_adjoint_inner(rng):
    # a self-adjoint inner operator leaves nothing to extend: the compression
    # is the operator itself even with a nontrivial exit space
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2.0
    a = g.SymmetricOp(g.Subspace.full(2), h)
    a_e = g.SymmetricOp.null(2)
    frames = exit_frames(a, a_e, 1j)
    tmap = g.build_admissible_isometry(frames.coupled, 1j, frames.src, frames.dst, seed=5)
    block = block_param_from_map(tmap, frames, isometry=True)
    model = g.exit_space_extension(a, 2, 1j, block)
    np.testing.assert_allclose(g.compressed_extension(model).full_matrix(), h, atol=1e-9)


def test_compression_is_the_extension_of_the_compressed_parameter(rng):
    # the upper-left block of a Hermitian model is the Neumann extension of its
    # compressed parameter, for the null exit operator and for a random one
    for exit_dim in (None, 2, 3):
        for _ in range(6):
            exit_op = None if exit_dim is None else \
                g.SymmetricOp.random(exit_dim, int(rng.integers(0, exit_dim)), rng)
            a, model, _ = random_symmetric_model(rng, n_max=6, m_max=4, exit_op=exit_op)
            comp = g.compressed_extension(model).full_matrix()
            phi = g.compressed_parameter(a, model.anchor, model.block, model.exit_op)
            ext, _ = g.neumann_extension(a, model.anchor, phi)
            assert ext.is_everywhere_defined
            assert nk.op_norm(comp - ext.full_matrix()) <= 1e-9 * max(1.0, nk.op_norm(comp))


def test_block_admissibility_transfers(rng):
    # joint admissibility forces the diagonal blocks to be admissible
    for _ in range(8):
        a, model, block = random_symmetric_model(rng, n_max=5, m_max=4)
        anchor = model.anchor
        a_e = model.exit_op
        src, dst = defects(a, anchor)
        t11 = g.PartialMap.from_coords(src, dst, block.t11)
        assert g.is_admissible(a, anchor, t11)
        src_e, dst_e = defects(a_e, anchor)
        t22 = g.PartialMap.from_coords(src_e, dst_e, block.t22)
        assert g.is_admissible(a_e, anchor, t22)


def test_maximality_matches_defect_counts(rng):
    # the classification tail agrees with direct defect dimensions of B
    for _ in range(8):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(0, n))
        a = g.SymmetricOp.random(n, d, rng)
        src, dst = defects(a, 1j)
        q = int(rng.integers(0, src.dim + 1))
        sub_src = g.Subspace(src.basis[:, :q])
        sub_dst = g.Subspace(dst.basis[:, :q])
        tmap = g.build_admissible_isometry(a, 1j, sub_src, sub_dst, seed=int(rng.integers(2**32)))
        ext, cls = g.neumann_extension(a, 1j, tmap)
        b_sym = g.SymmetricOp(ext.dom, ext.action)
        defect_dim = g.defect_subspaces(b_sym, 1j).n_space.dim
        assert cls.maximal == (defect_dim == 0)
        assert cls.self_adjoint == (defect_dim == 0 and
                                    g.defect_subspaces(b_sym, -1j).n_space.dim == 0)


def test_split_forbidden_operator_is_block_diagonal(rng):
    a = g.SymmetricOp.random(3, 1, rng)
    a_e = g.SymmetricOp.random(2, 1, rng)
    frames = exit_frames(a, a_e, 1j)
    x_joint = g.forbidden_operator(frames.coupled, 1j)
    x_a = g.forbidden_operator(a, 1j)
    x_e = g.forbidden_operator(a_e, 1j)
    joint = x_joint.ambient()
    np.testing.assert_allclose(joint[:3, :3], x_a.ambient(), atol=1e-9)
    np.testing.assert_allclose(joint[3:, 3:], x_e.ambient(), atol=1e-9)
    assert nk.op_norm(joint[:3, 3:]) < 1e-9 and nk.op_norm(joint[3:, :3]) < 1e-9


def test_assemble_and_extract_blocks_roundtrip(rng):
    a, model, block = random_symmetric_model(rng, n_max=5, m_max=3)
    frames = exit_frames(a, model.exit_op, model.anchor)
    tmap = assemble_block_map(frames, block)
    back = block_param_from_map(tmap, frames, isometry=True)
    for name in ("t11", "t12", "t21", "t22"):
        np.testing.assert_allclose(getattr(back, name), getattr(block, name), atol=1e-12)
