"""Anchor-level values (defect frames, comparison blocks, forbidden operator,
forward transforms, and the Neumann formula's arrays per parameter source
frame) are built once per (operator, anchor, policy in force), shared
read-only, and equal bit for bit to a fresh build; a formula point decides its
parameter value's contraction once.
The dilation oracle's point values and the defect-block family's blocks are kept
per (point, policy in force) on the model or family that computed them, never
across ops."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import cli, operators, resolvents
from gresolv.resolvents import (DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES,
                                defect_block_family)
from gresolv.fixtures import flip_dilation_isometric
from perfbench import instances, workloads
from tests.conftest import random_isometric_model, random_symmetric_model


def _fresh(op):
    """The same operator rebuilt from copies of its arrays, with nothing memoized."""
    return type(op)(g.Subspace(op.dom.basis.copy()), op.action.copy())


def test_criterion_2_loop_builds_each_anchor_pair_once(monkeypatch):
    rng = np.random.default_rng(202)
    anchor = 1j
    a, model, _ = random_symmetric_model(rng, n_max=8, m_max=8, anchor=anchor)
    a = _fresh(a)
    oracle = g.ResolventModel.from_dilation(model)
    points = []
    original = operators.defect_subspaces

    def spy(op, point):
        points.append(complex(point))
        return original(op, point)

    monkeypatch.setattr(operators, "defect_subspaces", spy)
    family = defect_block_family(oracle, a, anchor)
    worst = 0.0
    for validate in (False, True):
        for lam in DEFAULT_HALFPLANE_SAMPLES:
            value = g.extension_resolvent(a, family, anchor, lam, validate=validate)
            worst = max(worst, nk.op_norm(value - oracle(lam)))
    assert worst < 1e-9
    # one pair at the anchor 1j and one at its partner anchor -1j
    assert sorted(points, key=lambda p: p.imag) == [-1j, -1j, 1j, 1j]


def test_memo_keeps_tolerances_and_conjugate_anchors_apart():
    rng = np.random.default_rng(7)
    a = g.SymmetricOp.random(5, 2, rng)
    z, loose = 0.5 + 1j, g.TolPolicy(abs_floor=1e-9)
    at_z = operators.parameter_frames(a, z)
    assert operators.parameter_frames(a, z) is at_z
    at_zbar = operators.parameter_frames(a, np.conj(z))
    assert at_zbar is not at_z
    np.testing.assert_array_equal(at_zbar[0].n_space.basis, at_z[1].n_space.basis)
    with g.tolerance(loose):
        at_loose = operators.parameter_frames(a, z)
    assert at_loose is not at_z
    with g.tolerance(g.TolPolicy(abs_floor=1e-9)):
        assert operators.parameter_frames(a, z) is at_loose
    for build in (g.forbidden_operator, g.cayley_transform):
        first = build(a, z)
        assert build(a, z) is first
        assert build(a, np.conj(z)) is not first
        with g.tolerance(loose):
            assert build(a, z) is not first
    v = g.IsometryOp.random(4, 2, rng)
    w = g.moebius_transform(v, 0.3j)
    assert g.moebius_transform(v, 0.3j) is w
    with g.tolerance(loose):
        assert g.moebius_transform(v, 0.3j) is not w


def test_warm_and_fresh_operators_agree_bitwise():
    rng = np.random.default_rng(808)
    anchor = 0.5 + 1j
    a, model, _ = random_symmetric_model(rng, n_max=6, m_max=4, anchor=anchor)
    oracle = g.ResolventModel.from_dilation(model)
    warm = _fresh(a)
    warm_family = defect_block_family(oracle, warm, anchor)
    for lam in DEFAULT_HALFPLANE_SAMPLES:
        for validate in (True, False):
            cold = _fresh(a)
            expect = g.extension_resolvent(cold, defect_block_family(oracle, cold, anchor),
                                           anchor, lam, validate=validate)
            got = g.extension_resolvent(warm, warm_family, anchor, lam, validate=validate)
            assert np.array_equal(got, expect)
        z = anchor if lam.imag * anchor.imag > 0 else np.conj(anchor)
        cold = _fresh(a)
        x_warm, x_cold = g.forbidden_operator(warm, z), g.forbidden_operator(cold, z)
        assert np.array_equal(x_warm.src.basis, x_cold.src.basis)
        assert np.array_equal(x_warm.matrix, x_cold.matrix)
        src, dst = (pair.n_space for pair in operators.parameter_frames(cold, anchor))
        t = g.PartialMap.from_coords(src, dst, warm_family(lam if z == anchor else np.conj(lam)))
        assert g.is_admissible(warm, anchor, t) == g.is_admissible(_fresh(a), anchor, t)

    v, _ = random_isometric_model(rng, n_max=6, m_max=4, n_min=3)
    warm = _fresh(v)
    for z0 in (0.0, 0.3 - 0.2j):
        src, dst = (pair.n_space for pair in operators.parameter_frames(_fresh(v), z0))
        param = g.ContractionParam.constant(src, dst, 0.5 * nk.haar_frame(dst.dim, src.dim, rng))
        for zeta in DEFAULT_DISK_SAMPLES:
            assert np.array_equal(g.anchored_resolvent(warm, param, z0, zeta),
                                  g.anchored_resolvent(_fresh(v), param, z0, zeta))
            if z0 == 0:
                assert np.array_equal(g.direct_sum_resolvent(warm, param, zeta),
                                      g.direct_sum_resolvent(_fresh(v), param, zeta))


def test_memoized_values_are_read_only():
    rng = np.random.default_rng(5)
    a = g.SymmetricOp.random(4, 2, rng)
    frames = operators.parameter_frames(a, 1j)
    with pytest.raises(ValueError):
        frames[0].n_space.basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.forbidden_operator(a, 1j).matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.cayley_transform(a, 1j).action[0, 0] = 1.0


def test_neumann_memo_leaves_the_callers_frame_writable():
    # a trivial domain: the forbidden operator is defined on the whole defect
    # space, so a smaller source frame is its own meet with that domain
    a = g.SymmetricOp.null(3)
    src, dst = (pair.n_space for pair in operators.parameter_frames(a, 1j))
    own = g.Subspace(src.basis[:, :2].copy())
    assert g.is_admissible(a, 1j, g.PartialMap(own, 0.5 * dst.basis[:, :2]))
    assert own.basis.flags.writeable


def test_failed_build_is_not_stored():
    op = g.SymmetricOp.null(2)
    attempts = []

    def build():
        attempts.append(len(attempts))
        if len(attempts) == 1:
            raise g.NumericalFailure("first attempt")
        return (np.zeros(2),)

    with pytest.raises(g.NumericalFailure):
        operators._memoized(op, "probe", 1j, build)
    value = operators._memoized(op, "probe", 1j, build)
    assert operators._memoized(op, "probe", 1j, build) is value
    assert attempts == [0, 1]


def test_verify_forms_the_comparison_blocks_once_per_operator_and_anchor(tmp_path,
                                                                          monkeypatch):
    built = []

    def spy(op, what, point, build, _real=operators._memoized):
        def counted():
            built.append((type(op).__name__, op.ambient_dim, op.dom.dim, point))
            return build()
        return _real(op, what, point, counted if what == "blocks" else build)
    monkeypatch.setattr(operators, "_memoized", spy)
    # the symmetric file's operator at its anchor, and the null exit operator
    # whose characteristic function ``limits`` reads along its ray
    expected = {"symmetric": [("SymmetricOp", 4, 2, 1j), ("SymmetricOp", 2, 0, 1j)],
                "isometric": [("IsometryOp", 4, 2, 0.0)]}
    for kind, blocks in expected.items():
        path = tmp_path / f"{kind}.json"
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, seed=8), path)
        built.clear()
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0
        assert built == blocks


def _neumann_entries(op):
    return [key for key in op._memo if isinstance(key[0], tuple) and key[0][0] == "neumann"]


def _spy_point(monkeypatch):
    """Counts of ``nk.intersect`` and ``nk.projector`` calls, and of contraction
    decisions: norm gates at a bound of 1 or more."""
    counts = {"intersect": 0, "projector": 0, "decisions": 0}
    for name in ("intersect", "projector"):
        def spy(*args, _name=name, _real=getattr(nk, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(nk, name, spy)

    def norm_within(m, bound, scale=None, _real=nk._norm_within):
        counts["decisions"] += bound >= 1.0
        return _real(m, bound, scale)
    monkeypatch.setattr(nk, "_norm_within", norm_within)
    return counts


def test_warm_formula_point_builds_nothing_and_decides_its_value_once(monkeypatch):
    rng = np.random.default_rng(7)
    anchor = 1j
    a, model, _ = random_symmetric_model(rng, n_max=8, m_max=8, anchor=anchor)
    assert (a.ambient_dim, a.dom.dim) == (8, 5)
    oracle = g.ResolventModel.from_dilation(model)
    family = defect_block_family(oracle, a, anchor)
    for lam in (1.0 + 2.0j, -0.5 - 1.0j):
        g.extension_resolvent(a, family, anchor, lam, validate=False)
        with monkeypatch.context() as patch:
            counts = _spy_point(patch)
            value = g.extension_resolvent(a, family, anchor, 2.0 * lam, validate=False)
        assert counts == {"intersect": 0, "projector": 0, "decisions": 1}
        assert nk.op_norm(value - oracle(2.0 * lam)) < 1e-9


def test_warm_anchored_point_decides_only_a_callback_value(monkeypatch):
    rng = np.random.default_rng(11)
    v, z0 = g.IsometryOp.random(6, 3, rng), 0.3 - 0.2j
    src, dst = (pair.n_space for pair in operators.parameter_frames(v, z0))
    k = 0.5 * nk.haar_unitary(3, rng)
    constant = g.ContractionParam.constant(src, dst, k)
    callback = g.ContractionParam.callback(src, dst, lambda zeta: k * zeta)
    for family, expect in ((constant, []), (callback, ["callback value norm"])):
        value = g.anchored_resolvent(v, family, z0, 0.4j)
        messages = []
        with monkeypatch.context() as patch:
            def spy(m, what, _real=nk.check_contraction):
                messages.append(what)
                return _real(m, what)
            patch.setattr(nk, "check_contraction", spy)
            assert np.array_equal(g.anchored_resolvent(v, family, z0, 0.4j), value)
        assert messages == expect


def test_callback_in_other_frames_is_decided_once_per_value(monkeypatch):
    # a callback whose source frame is turned by a Haar unitary: the family
    # rewritten into the anchor's frames decides each value once
    rng = np.random.default_rng(11)
    v, z0 = g.IsometryOp.random(6, 3, rng), 0.3 - 0.2j
    src, dst = (pair.n_space for pair in operators.parameter_frames(v, z0))
    k = 0.5 * nk.haar_unitary(3, rng)
    turned = g.Subspace(src.basis @ nk.haar_unitary(3, rng))
    family = g.ContractionParam.callback(turned, dst, lambda zeta: k * zeta)
    value = g.anchored_resolvent(v, family, z0, 0.4j)
    messages = []
    with monkeypatch.context() as patch:
        def spy(m, what, _real=nk.check_contraction):
            messages.append(what)
            return _real(m, what)
        patch.setattr(nk, "check_contraction", spy)
        assert np.array_equal(g.anchored_resolvent(v, family, z0, 0.4j), value)
    assert messages == ["callback value norm"]
    wrong = g.ContractionParam.callback(turned, dst, lambda zeta: np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"callback returned shape \(3, 2\)"):
        g.anchored_resolvent(v, wrong, z0, 0.4j)


def test_second_frame_of_a_source_gets_its_own_entry():
    rng = np.random.default_rng(808)
    anchor = 0.5 + 1j
    a, model, _ = random_symmetric_model(rng, n_max=6, m_max=4, anchor=anchor)
    oracle = g.ResolventModel.from_dilation(model)
    warm = _fresh(a)
    family = defect_block_family(oracle, warm, anchor)
    assert family.src.dim > 1
    turn = nk.haar_unitary(family.src.dim, rng)
    rotated = family.in_frames(g.Subspace(family.src.basis @ turn),
                               g.Subspace(family.dst.basis @ turn.conj().T))
    lam = 1.0 + 2.0j
    g.extension_resolvent(warm, family, anchor, lam)
    assert len(_neumann_entries(warm)) == 1
    got = g.extension_resolvent(warm, rotated, anchor, lam)
    assert len(_neumann_entries(warm)) == 2
    assert np.array_equal(got, g.extension_resolvent(_fresh(a), rotated, anchor, lam))
    assert nk.op_norm(got - oracle(lam)) < 1e-9


def test_off_defect_source_raises_on_every_call(monkeypatch):
    rng = np.random.default_rng(5)
    a = g.SymmetricOp.random(5, 2, rng)
    src, dst = (pair.n_space for pair in operators.parameter_frames(a, 1j))
    away = nk.orthogonal_complement(src).basis
    t = g.PartialMap(nk.orthonormalize(src.basis[:, :2] + 0.1 * away), 0.5 * dst.basis[:, :2])
    with pytest.raises(ValueError, match="does not map between the defect subspaces"):
        g.neumann_extension(a, 1j, t)
    # the stored verdict decides the later calls
    with monkeypatch.context() as patch:
        counts = _spy_point(patch)
        for _ in range(2):
            with pytest.raises(ValueError, match="does not map between the defect subspaces"):
                g.neumann_extension(a, 1j, t)
    assert counts["intersect"] == counts["projector"] == 0


def _cayley_model(a, z, c):
    """A resolvent model whose Cayley transform at z sends the defect frame at
    z to ``dst c``: its defect block is ``c`` at every point."""
    src, dst = (pair.n_space for pair in operators.parameter_frames(a, z))
    n = a.ambient_dim
    w = dst.basis @ c @ src.basis.conj().T + 2.0 * (np.eye(n) - nk.projector(src))
    y_inv = np.linalg.inv((w - np.eye(n)) / (z - np.conj(z)))
    return g.ResolventModel(a, lambda lam, b=False: np.linalg.inv(y_inv - (lam - z) * np.eye(n)))


def test_family_values_beyond_the_slack_still_raise():
    rng = np.random.default_rng(3)
    a = g.SymmetricOp.random(6, 4, rng)
    z = 1j
    turn = nk.haar_unitary(2, rng)
    over = defect_block_family(_cayley_model(a, z, 1.5 * turn), a, z)
    with pytest.raises(g.NotContraction, match="callback value norm 1.500000 exceeds 1"):
        g.extension_resolvent(a, over, z, 2j, validate=False)
    with pytest.raises(g.NotContraction, match="callback value norm 1.500000 exceeds 1"):
        g.extension_resolvent(a, over, z, -2j, validate=False)
    # between the family's strict gate and defect_block's relaxed one far out on
    # the ray: the family raises, defect_block returns the block
    r = _cayley_model(a, z, (1.0 + 1e-8) * turn)
    far = 1e6j
    assert 1.0 + 1e-8 < 1.0 + 256.0 * nk._EPS * abs(far)
    coords = g.defect_block(r, a, z, far, validate=False)
    assert abs(nk.op_norm(coords) - (1.0 + 1e-8)) < 1e-9
    # the reassembly takes the block as decided: only its residual gate judges it
    with pytest.raises(g.NumericalFailure, match="reassembled extension differs"):
        g.defect_block(r, a, z, far)
    with pytest.raises(g.NotContraction, match="defect block has norm"):
        g.defect_block(r, a, z, 2j, validate=False)
    with pytest.raises(g.NotContraction, match="callback value norm"):
        defect_block_family(r, a, z)(far)


# ---------------------------------------------------------------- point values per op

def _count_point_values(monkeypatch):
    """Counts of ``dilation_resolvent`` and ``_defect_block`` runs."""
    counts = {"dilation_resolvent": 0, "_defect_block": 0}
    for name in counts:
        def spy(*args, _name=name, _real=getattr(resolvents, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(resolvents, name, spy)
    return counts


def test_criterion_2_op_computes_each_point_value_once(monkeypatch):
    # the half-plane samples are closed under conjugation: the family is read
    # at the 20 upper points, the oracle at all 40
    inst = instances.symmetric_instances(3, 2)[1]
    counts = _count_point_values(monkeypatch)
    for _ in range(2):
        # a second op on the same pool instance recomputes every value
        assert workloads.oracle_sym_op(inst).ok
        assert counts == {"dilation_resolvent": 40, "_defect_block": 20}
        counts.update(dilation_resolvent=0, _defect_block=0)
    # a fresh family on a model already read recomputes its blocks only
    oracle = g.ResolventModel.from_dilation(inst.model)
    anchor = instances.SYMMETRIC_ANCHOR
    for lam in DEFAULT_HALFPLANE_SAMPLES:
        oracle(lam)
    assert counts == {"dilation_resolvent": 40, "_defect_block": 0}
    family = defect_block_family(oracle, inst.op, anchor)
    for lam in DEFAULT_HALFPLANE_SAMPLES:
        g.extension_resolvent(inst.op, family, anchor, lam, validate=False)
    assert counts == {"dilation_resolvent": 40, "_defect_block": 20}


def test_kept_point_values_are_read_only_and_kept_per_policy(monkeypatch):
    rng = np.random.default_rng(202)
    anchor, lam = 1j, 1.0 + 2.0j
    a, model, _ = random_symmetric_model(rng, n_max=8, m_max=8, anchor=anchor)
    oracle = g.ResolventModel.from_dilation(model)
    family = defect_block_family(oracle, a, anchor)
    counts = _count_point_values(monkeypatch)
    value, block = oracle(lam), family(lam)
    for kept in (value, block):
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0
    assert oracle(lam) is value and family(lam) is block
    assert counts == {"dilation_resolvent": 1, "_defect_block": 1}
    loose = g.TolPolicy(abs_floor=1e-9)
    with g.tolerance(loose):
        assert family(lam) is not block
        assert family(lam) is family(lam)
    assert counts == {"dilation_resolvent": 2, "_defect_block": 2}
    assert family(lam) is block
    # a point set is neither read from nor kept
    values = oracle.at(DEFAULT_HALFPLANE_SAMPLES[:3])
    assert counts["dilation_resolvent"] == 2
    assert all(v.flags.writeable for v in values)
    np.testing.assert_array_equal(values[1], oracle(DEFAULT_HALFPLANE_SAMPLES[1]))
    assert counts["dilation_resolvent"] == 3


def test_a_failed_point_value_is_not_kept(monkeypatch):
    _, model = flip_dilation_isometric()
    oracle = g.ResolventModel.from_dilation(model)
    counts = _count_point_values(monkeypatch)
    for _ in range(2):
        with pytest.raises(g.SingularSystem):
            oracle(1.0)
    assert counts["dilation_resolvent"] == 2
