"""Acceptance gate: every top-level criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``) and asserts
the criterion.  Random instances are seeded and sized at desk scale
(inner dimension <= 16, exit dimension <= 16).
"""

import time

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv.extensions import block_param_from_map, exit_frames, neumann_parameter
from gresolv.fixtures import flip_dilation_isometric, flip_dilation_symmetric
from gresolv.resolvents import (DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES,
                                defect_block_family, membership_quantity,
                                recover_anchored_parameter, recovered_parameter_family)
from tests.conftest import fixed_point_free, random_isometric_model, random_symmetric_model


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")
    assert passed, f"criterion {num} failed: {detail}"


#: (instances, n_max, m_max, n_min) drawn in turn by the criterion-1/2 loops:
#: desk scale, then the stated scale n, m <= 16 (n_min bounds only isometries)
ORACLE_DRAWS = ((200, 8, 8, 1), (40, 16, 16, 9))
DRAWN = "200 instances at n, m <= 8 and 40 at n, m <= 16"


def test_criterion_1_oracle_equivalence_isometric():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for count, n_max, m_max, n_min in ORACLE_DRAWS:
        for _ in range(count):
            v, model = random_isometric_model(rng, n_max=n_max, m_max=m_max, n_min=n_min)
            oracle = g.ResolventModel.from_dilation(model)
            family = recovered_parameter_family(oracle)
            for zeta in DEFAULT_DISK_SAMPLES:
                diff = nk.op_norm(g.direct_sum_resolvent(v, family, zeta) - oracle(zeta))
                worst = max(worst, diff)
    elapsed = time.time() - start
    report(1, "oracle equivalence, isometric",
           worst < 1e-9 and elapsed < 60.0,
           f"max residual {worst:.3e} over {DRAWN} x 40 points in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_symmetric():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    anchor = 1j
    for count, n_max, m_max, _ in ORACLE_DRAWS:
        for _ in range(count):
            a, model, _ = random_symmetric_model(rng, n_max=n_max, m_max=m_max, anchor=anchor)
            oracle = g.ResolventModel.from_dilation(model)
            family = defect_block_family(oracle, a, anchor)
            for lam in DEFAULT_HALFPLANE_SAMPLES:
                diff = nk.op_norm(
                    g.extension_resolvent(a, family, anchor, lam, validate=False) - oracle(lam))
                worst = max(worst, diff)
    elapsed = time.time() - start
    report(2, "oracle equivalence, symmetric",
           worst < 1e-9 and elapsed < 60.0,
           f"max residual {worst:.3e} over {DRAWN} x 40 points in {elapsed:.1f}s")


def test_criterion_3_resolvent_axioms_and_mutations():
    rng = np.random.default_rng(303)
    worst = 0.0
    mutations_ok = True
    for _ in range(20):
        v, model = random_isometric_model(rng, n_max=8, m_max=8)
        oracle = g.ResolventModel.from_dilation(model)
        rep = g.verify_resolvent_axioms(oracle, v)
        worst = max(worst, max(c.residual for c in rep.checks))
        if not rep.all_passed:
            mutations_ok = False
        # scaled mutation: the normalization axiom is the designated failure
        halved = g.ResolventModel(v, lambda p, b=False, o=oracle: 0.5 * o(p, b))
        rep_h = g.verify_resolvent_axioms(halved, v)
        mutations_ok &= not rep_h.check("normalization-at-zero").passed
        # shifted (argument-dilated) mutation: the domain identity is the
        # designated failure while the normalization stays intact
        if v.dom.dim:
            shifted = g.ResolventModel(v, lambda p, b=False, o=oracle: o(0.9 * p, b))
            rep_s = g.verify_resolvent_axioms(shifted, v)
            mutations_ok &= not rep_s.check("domain-identity").passed
            mutations_ok &= rep_s.check("normalization-at-zero").passed
    report(3, "resolvent axioms",
           worst < 1e-9 and mutations_ok,
           f"worst axiom residual {worst:.3e}; designated mutations detected")


def test_criterion_4_exact_fixtures():
    worst = 0.0

    v1, model1 = flip_dilation_isometric()
    r1 = g.ResolventModel.from_dilation(model1)
    for zeta in (0.3, -0.5j, 0.2 + 0.6j, 3.0):
        worst = max(worst, abs(r1(zeta)[0, 0] - 1.0 / (1.0 - zeta**2)))
        if 0 < abs(zeta) < 1:
            worst = max(worst, abs(g.recover_parameter(r1, zeta)[0, 0] - zeta))
    atoms1 = g.spectral_measure(model1)
    worst = max(worst, abs(atoms1.atoms[0][0] - 0.0), abs(atoms1.atoms[1][0] - np.pi))
    worst = max(worst, abs(atoms1.atoms[0][1][0, 0] - 0.5), abs(atoms1.atoms[1][1][0, 0] - 0.5))

    a2, model2, anchor, _ = flip_dilation_symmetric()
    r2 = g.ResolventModel.from_dilation(model2)
    worst = max(worst, abs(r2(2j)[0, 0] - 2j / 5.0))
    for lam in (2j, 1 + 1j, -3j):
        worst = max(worst, abs(g.generating_extension(r2, lam).full_matrix()[0, 0] - 1.0 / lam))
    worst = max(worst, abs(g.defect_block(r2, a2, anchor, 2j)[0, 0] + 1.0 / 3.0))
    # coupling block of the flip extension at the anchor
    coupled = exit_frames(a2, g.SymmetricOp.null(1), anchor)
    big_as_op = g.PartialOperator(g.Subspace.full(2), model2.big_op)
    tmap = neumann_parameter(big_as_op, coupled.coupled, anchor)
    block = block_param_from_map(tmap, coupled)
    worst = max(worst, abs(block.t11[0, 0]), abs(block.t12[0, 0] - 1j),
                abs(block.t21[0, 0] - 1j), abs(block.t22[0, 0]))
    worst = max(worst, abs(g.characteristic_function(g.SymmetricOp.null(1), anchor, 2j)[0, 0]
                           - 1.0 / 3.0))
    phi_rep = g.boundary_parameter(a2, model2, anchor)
    dst = g.defect_subspaces(a2, np.conj(anchor)).n_space
    worst = max(worst, abs((dst.basis.conj().T @ phi_rep.direct.matrix)[0, 0] + 1.0))

    report(4, "exact fixtures", worst < 1e-12, f"max fixture deviation {worst:.3e}")


#: (instances, n_max, m_max, exit_max) drawn in turn by criterion 5: desk
#: scale, then the stated scale n, m <= 16; every other instance carries a
#: random exit operator of dimension 2 ... exit_max, the others the null one
CHARACTERISTIC_DRAWS = ((100, 6, 6, 5), (40, 16, 16, 16))


def test_criterion_5_defect_block_representation():
    rng = np.random.default_rng(505)
    worst = 0.0
    anchor = 1j
    for total, n_max, m_max, exit_max in CHARACTERISTIC_DRAWS:
        count = 0
        while count < total:
            trivial_exit = count % 2 == 0
            if trivial_exit:
                exit_op = None
            else:
                m = int(rng.integers(2, exit_max + 1))
                exit_op = g.SymmetricOp.random(m, int(rng.integers(0, m)), rng)
            a, model, block = random_symmetric_model(rng, n_max=n_max, m_max=m_max,
                                                     anchor=anchor, exit_op=exit_op)
            if model.exit_dim == 0:
                continue
            oracle = g.ResolventModel.from_dilation(model)
            for lam in (2j, 0.4 + 0.9j, -1.5 + 2j, 0.1 + 0.3j):
                via_char = g.defect_block_via_characteristic(block, model.exit_op, anchor, lam)
                via_dilation = g.defect_block(oracle, a, anchor, lam, validate=False)
                worst = max(worst, nk.op_norm(via_char - via_dilation))
            count += 1
    report(5, "characteristic-function representation", worst < 1e-9,
           f"max residual {worst:.3e} over 100 instances at n, m <= 6 and 40 at "
           "n, m <= 16 (half with nontrivial exit op)")


def test_criterion_6_boundary_limit():
    rng = np.random.default_rng(606)
    anchor = 1j
    ok = True
    detail = []

    def check_model(a, model):
        rep = g.boundary_parameter(a, model, anchor)
        # the compression is a self-adjoint extension of a, so its parameter
        # is unitary and admissible
        assert rep.direct.is_isometric() and g.is_admissible(a, anchor, rep.direct)
        errs = rep.limit_errors
        if errs.size == 0:
            return True, 0.0
        # non-increasing after the second decade; below 1e-9 the curve is
        # machine noise and counts as converged
        monotone = bool(np.all(errs[2:] <= np.maximum(errs[1:-1] + 1e-12, 1e-9)))
        final = float(errs[-1].max())
        return monotone and final < 1e-3, final

    a2, model2, _, _ = flip_dilation_symmetric()
    good, final = check_model(a2, model2)
    ok &= good
    detail.append(f"fixture final error {final:.2e}")

    finals = []
    for _ in range(20):
        a, model, _ = random_symmetric_model(rng, n_max=6, m_max=6, anchor=anchor,
                                             min_margin=0.15)
        good, final = check_model(a, model)
        ok &= good
        finals.append(final)
    detail.append(f"random final errors max {max(finals):.2e}")

    # constructed direction outside the boundary-parameter domain: a family
    # strictly contractive toward infinity; the domain criterion quantity must
    # grow by a decade per decade
    a0 = g.SymmetricOp.null(1)
    src = g.defect_subspaces(a0, anchor).n_space
    dst = g.defect_subspaces(a0, np.conj(anchor)).n_space
    param = g.ContractionParam.constant(src, dst, np.array([[0.5]]), anchor)
    r0 = g.ResolventModel.from_extension_family(a0, param, anchor)
    q2 = membership_quantity(g.defect_block(r0, a0, anchor, 1j * 10.0**2, validate=False), 1j * 10.0**2)[0]
    q6 = membership_quantity(g.defect_block(r0, a0, anchor, 1j * 10.0**6, validate=False), 1j * 10.0**6)[0]
    ok &= q6 >= 10.0 * q2
    detail.append(f"outside-domain quantity growth {q6 / q2:.1e}x")

    report(6, "boundary-limit convergence", ok, "; ".join(detail))


def test_criterion_7_gap_criteria_agreement():
    rng = np.random.default_rng(707)
    disagreements = 0
    trials = 0
    while trials < 200:
        n = int(rng.integers(2, 9))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        c = nk.haar_unitary(n - d, rng)
        zeta = complex(np.exp(2j * np.pi * rng.random()))
        if not g.is_regular_type(v, 1.0 / zeta)[0]:
            continue
        n0 = g.defect_subspaces(v, 0.0).n_space
        ninf = g.defect_subspaces(v, g.INFINITY).n_space
        full = v.ambient_partial() + ninf.basis @ c @ n0.basis.conj().T
        direct = bool(np.min(np.abs(np.linalg.eigvals(full) - 1.0 / zeta)) <= 1e-8)
        if g.gap_criteria(v, c, zeta).eigen != direct:
            disagreements += 1
        trials += 1

    verdict_mismatch = 0
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        sub = np.random.default_rng(7000 + seed)
        circle = checked % 2 == 0
        try:
            if circle:
                n = int(sub.integers(2, 7))
                d = int(sub.integers(0, n))
                v = g.IsometryOp.random(n, d, sub)
                c = nk.haar_unitary(n - d, sub)
                n0 = g.defect_subspaces(v, 0.0).n_space
                ninf = g.defect_subspaces(v, g.INFINITY).n_space
                param = g.ContractionParam.constant(n0, ninf, c)
                lo = float(sub.uniform(0.0, 4.0))
                hi = lo + float(sub.uniform(0.3, 2.0))
                hi = min(hi, 2 * np.pi - 1e-6)
                if hi - lo < 0.1:
                    continue
                rep = g.gap_report(v, param, 0.0, g.ArcSpec("circle", lo, hi), 48)
            else:
                n = int(sub.integers(2, 7))
                d = int(sub.integers(0, n))
                a = g.SymmetricOp.random(n, d, sub)
                src = g.defect_subspaces(a, 1j).n_space
                dst = g.defect_subspaces(a, -1j).n_space
                pmap = g.build_admissible_isometry(a, 1j, src, dst,
                                                   int(sub.integers(2**32)))
                param = g.ContractionParam.constant(src, dst,
                                                    dst.basis.conj().T @ pmap.matrix,
                                                    anchor=1j)
                lo = float(sub.uniform(-4.0, 3.0))
                hi = lo + float(sub.uniform(0.3, 2.0))
                rep = g.gap_report(a, param, 1j, g.ArcSpec("line", lo, hi), 48)
        except (g.NotRegularType, g.PreconditionViolated):
            continue
        if rep.atoms_in_region is not None and rep.analytic == rep.atoms_in_region:
            verdict_mismatch += 1
        checked += 1

    report(7, "gap criteria",
           disagreements == 0 and verdict_mismatch == 0,
           f"{trials} kernel/spectrum trials, {checked} verdict trials, "
           f"{disagreements + verdict_mismatch} disagreements")


def test_criterion_8_neumann_classification_and_admissibility():
    rng = np.random.default_rng(808)
    mismatches = 0
    cases = 0
    for n in range(1, 5):
        for d in range(0, n + 1):
            for rep_idx in range(3):
                a = g.SymmetricOp.random(n, d, rng)
                src_full = g.defect_subspaces(a, 1j).n_space
                dst_full = g.defect_subspaces(a, -1j).n_space
                for q in range(src_full.dim + 1):
                    sub_src = g.Subspace(src_full.basis[:, :q])
                    sub_dst = g.Subspace(dst_full.basis[:, :q])
                    tmap = g.build_admissible_isometry(a, 1j, sub_src, sub_dst,
                                                       seed=int(rng.integers(2**32)))
                    ext, cls = g.neumann_extension(a, 1j, tmap)
                    b_sym = g.SymmetricOp(ext.dom, ext.action)
                    defect_plus = g.defect_subspaces(b_sym, 1j).n_space.dim
                    defect_minus = g.defect_subspaces(b_sym, -1j).n_space.dim
                    cases += 1
                    if cls.kind != "symmetric" or not cls.closed:
                        mismatches += 1
                    if cls.maximal != (min(defect_plus, defect_minus) == 0):
                        mismatches += 1
                    if cls.self_adjoint != (defect_plus == 0 and defect_minus == 0):
                        mismatches += 1
                # a strict full-defect contraction: maximal accumulative at this anchor
                if src_full.dim:
                    c = 0.5 * nk.haar_unitary(src_full.dim, rng)
                    tmap = g.PartialMap.from_coords(src_full, dst_full, c)
                    ext, cls = g.neumann_extension(a, 1j, tmap)
                    cases += 1
                    full = ext.full_matrix()
                    onto = np.linalg.svd(full - 1j * np.eye(n), compute_uv=False)[-1] > 1e-10
                    if not (cls.kind == "accumulative" and cls.maximal and onto
                            and g.classify_signs(ext) == "accumulative"):
                        mismatches += 1

    agreements = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(0, n + 1))
        a = g.SymmetricOp.random(n, d, rng)
        src = g.defect_subspaces(a, 1j).n_space
        dst = g.defect_subspaces(a, -1j).n_space
        style = rng.integers(3)
        if style == 0 or src.dim == 0:
            coords = rng.random() * nk.haar_unitary(src.dim, rng)
        elif style == 1:
            coords = nk.haar_unitary(src.dim, rng)
        else:
            x = g.forbidden_operator(a, 1j)
            coords = dst.basis.conj().T @ x.ambient() @ src.basis  # exact collision
        tmap = g.PartialMap.from_coords(src, dst, coords)
        agreements += g.is_admissible(a, 1j, tmap) == fixed_point_free(a, 1j, tmap)

    report(8, "generalized Neumann classification",
           mismatches == 0 and agreements == 500,
           f"{cases} exhaustive classification cases, {agreements} dual admissibility trials")


def test_criterion_9_integral_representation_and_anchor_independence():
    rng = np.random.default_rng(909)
    worst_int = 0.0
    for _ in range(30):
        _, model = random_isometric_model(rng, n_max=8, m_max=8)
        r = g.ResolventModel.from_dilation(model)
        atoms = g.spectral_measure(model)
        worst_int = max(worst_int, g.verify_integral_representation(atoms, r, DEFAULT_DISK_SAMPLES))
    for _ in range(30):
        _, model, _ = random_symmetric_model(rng, n_max=8, m_max=8)
        r = g.ResolventModel.from_dilation(model)
        atoms = g.spectral_measure(model)
        worst_int = max(worst_int,
                        g.verify_integral_representation(atoms, r, DEFAULT_HALFPLANE_SAMPLES))

    worst_anchor = 0.0
    for _ in range(20):
        v, model = random_isometric_model(rng, n_max=8, m_max=8)
        r = g.ResolventModel.from_dilation(model)
        for zeta in (0.3 + 0.2j, -0.55j):
            exts = []
            for z0 in (0.0, 0.25 + 0.35j, -0.4j):
                coords = recover_anchored_parameter(r, z0, zeta)
                exts.append(g.orthogonal_extension(v, coords, z0))
            for other in exts[1:]:
                worst_anchor = max(worst_anchor, nk.op_norm(exts[0] - other))

    report(9, "integral representations and anchor independence",
           worst_int < 1e-10 and worst_anchor < 1e-9,
           f"integral residual {worst_int:.3e}, anchor-independence residual {worst_anchor:.3e}")
