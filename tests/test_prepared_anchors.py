"""Anchor-level values (defect frames, forbidden operator, forward transforms)
are built once per (operator, anchor, policy in force), shared read-only, and equal bit
for bit to a fresh build."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import operators
from gresolv.resolvents import (DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES,
                                defect_block_family)
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
