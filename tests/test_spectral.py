"""Spectral measures, integral representations, gap criteria and reports."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv.fixtures import (flip_dilation_isometric, flip_dilation_symmetric,
                              partial_identity_isometry, partial_identity_symmetric)
from gresolv.resolvents import DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES
from gresolv.spectral import resolvent_boundedness_probe
from tests.conftest import random_isometric_model


def test_spectral_measure_circle_fixture():
    _, model = flip_dilation_isometric()
    atoms = g.spectral_measure(model)
    assert atoms.kind == "circle"
    locs = atoms.locations()
    np.testing.assert_allclose(locs, [0.0, np.pi], atol=1e-12)
    for _, weight in atoms.atoms:
        np.testing.assert_allclose(weight, [[0.5]], atol=1e-12)


def test_spectral_measure_line_fixture():
    _, model, _, _ = flip_dilation_symmetric()
    atoms = g.spectral_measure(model)
    assert atoms.kind == "line"
    np.testing.assert_allclose(atoms.locations(), [-1.0, 1.0], atol=1e-12)
    for _, weight in atoms.atoms:
        np.testing.assert_allclose(weight, [[0.5]], atol=1e-12)


def test_spectral_measure_in_space_unitary(rng):
    diag = np.diag(np.exp(1j * np.array([0.5, 1.5, 4.0])))
    v = g.IsometryOp(3, g.Subspace.full(3), diag)
    model = g.ExitSpaceModel(3, 0, "unitary", diag, v)
    atoms = g.spectral_measure(model)
    np.testing.assert_allclose(atoms.locations(), [0.5, 1.5, 4.0], atol=1e-12)
    for loc, weight in atoms.atoms:
        assert nk.op_norm(weight @ weight - weight) < 1e-12


def test_weights_sum_and_psd(rng):
    for _ in range(6):
        _, model = random_isometric_model(rng, n_max=6, m_max=6)
        atoms = g.spectral_measure(model)
        total = sum(w for _, w in atoms.atoms)
        assert nk.op_norm(total - np.eye(atoms.dim)) < 1e-9
        for _, w in atoms.atoms:
            assert float(np.linalg.eigvalsh((w + w.conj().T) / 2.0)[0]) > -1e-10


def test_integral_representation_fixtures():
    v, model = flip_dilation_isometric()
    r = g.ResolventModel.from_dilation(model)
    atoms = g.spectral_measure(model)
    # partial fractions: 1/2/(1-z) + 1/2/(1+z) = 1/(1-z^2)
    assert g.verify_integral_representation(atoms, r, DEFAULT_DISK_SAMPLES) < 1e-12

    a, model2, _, _ = flip_dilation_symmetric()
    r2 = g.ResolventModel.from_dilation(model2)
    atoms2 = g.spectral_measure(model2)
    assert g.verify_integral_representation(atoms2, r2, DEFAULT_HALFPLANE_SAMPLES) < 1e-12


def test_integral_representation_mismatch_detected(rng):
    _, model_a = random_isometric_model(rng, n_max=4, m_max=3, n_min=2)
    while True:
        _, model_b = random_isometric_model(rng, n_max=4, m_max=3, n_min=2)
        if model_b.inner_dim == model_a.inner_dim:
            break
    atoms = g.spectral_measure(model_a)
    r_other = g.ResolventModel.from_dilation(model_b)
    assert g.verify_integral_representation(atoms, r_other, DEFAULT_DISK_SAMPLES) >= 0.1


def test_comparison_map_fixture():
    v = partial_identity_isometry()
    for zeta in (np.exp(0.4j), np.exp(-2.0j)):
        w = g.comparison_map(v, zeta)
        ninf = g.defect_subspaces(v, g.INFINITY).n_space
        np.testing.assert_allclose(w.coords(ninf), [[1.0 / zeta]], atol=1e-12)


def test_comparison_map_rejects_non_regular():
    v = partial_identity_isometry()
    with pytest.raises(g.NotRegularType):
        g.comparison_map(v, 1.0)


def test_comparison_map_symmetric_fixture():
    a = partial_identity_symmetric()
    for lam in (3.0, -0.7, 0.2):
        w = g.comparison_map_symmetric(a, 1j, lam)
        dst = g.defect_subspaces(a, -1j).n_space
        np.testing.assert_allclose(w.coords(dst), [[(lam + 1j) / (lam - 1j)]], atol=1e-12)
    with pytest.raises(g.NotRegularType):
        g.comparison_map_symmetric(a, 1j, 1.0)


def test_comparison_map_symmetric_equals_transformed_comparison_map(rng):
    # the symmetric-side map is the circle-side map of the transformed isometry
    a = g.SymmetricOp.random(4, 2, rng)
    z = 1j
    u = g.cayley_transform(a, z, "forward")
    for lam in (2.5, -1.2):
        zeta = (lam - z) / (lam - np.conj(z))
        w_sym = g.comparison_map_symmetric(a, z, lam)
        w_iso = g.comparison_map(u, zeta)
        assert nk.op_norm(w_sym.ambient() - w_iso.ambient()) < 1e-9


def test_gap_criteria_fixture_eigen_iff_match():
    v = partial_identity_isometry()
    c = np.exp(1.2j)
    for zeta in (np.conj(c), np.exp(0.5j), np.exp(-1.0j)):
        crit = g.gap_criteria(v, np.array([[c]]), zeta)
        assert crit.eigen == (abs(c - 1.0 / zeta) < 1e-12)
        # the covering side condition always holds away from the fixed point
        assert crit.detail["cover_margin"] > 0.9


def test_gap_criteria_kernel_when_parameter_matches_map():
    v = partial_identity_isometry()
    zeta = np.exp(0.9j)
    w = g.comparison_map(v, zeta)
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    crit = g.gap_criteria(v, w.coords(ninf), zeta)
    assert crit.eigen and not crit.range


def test_gap_criteria_agreement_random(rng):
    # boolean agreement with the direct spectrum on random unitary parameters
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        c = nk.haar_unitary(n - d, rng)
        zeta = complex(np.exp(2j * np.pi * rng.random()))
        ok, _ = g.is_regular_type(v, 1.0 / zeta)
        if not ok:
            continue
        crit = g.gap_criteria(v, c, zeta)  # raises on disagreement
        assert crit.eigen == (not crit.range)


def test_gap_report_fixture_arc():
    v = partial_identity_isometry()
    n0 = g.defect_subspaces(v, 0.0).n_space
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    c = np.exp(1j * np.pi / 2)
    param = g.ContractionParam.constant(n0, ninf, np.array([[c]]))
    inside = g.gap_report(v, param, 0.0, g.ArcSpec("circle", np.pi / 4, 3 * np.pi / 4))
    assert not inside.analytic and inside.atoms_in_region
    assert any(abs(loc - np.pi / 2) < 1e-9 for loc, _ in inside.atoms.atoms)
    outside = g.gap_report(v, param, 0.0, g.ArcSpec("circle", 2.0, 3.0))
    assert outside.analytic and not outside.atoms_in_region


def test_gap_report_fixture_interval():
    a = g.SymmetricOp.null(1)
    src = g.defect_subspaces(a, 1j).n_space
    dst = g.defect_subspaces(a, -1j).n_space
    param = g.ContractionParam.constant(src, dst, np.array([[-1.0]]), anchor=1j)
    report = g.gap_report(a, param, 1j, g.ArcSpec("line", 0.5, 2.0))
    assert report.analytic and not report.atoms_in_region
    np.testing.assert_allclose(report.atoms.locations(), [0.0], atol=1e-12)
    covering = g.gap_report(a, param, 1j, g.ArcSpec("line", -0.5, 0.5))
    assert not covering.analytic and covering.atoms_in_region


def test_gap_report_non_unitary_parameter_flagged():
    v = partial_identity_isometry()
    n0 = g.defect_subspaces(v, 0.0).n_space
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    param = g.ContractionParam.constant(n0, ninf, np.array([[0.5]]))
    report = g.gap_report(v, param, 0.0, g.ArcSpec("circle", 2.0, 3.0))
    assert not report.analytic
    assert all(rec.unitarity_defect > 1e-2 for rec in report.records)


def test_gap_report_anchored_parameter(rng):
    # anchored away from 0 the same in-space extension is described by a
    # different constant parameter; verdicts agree with the atoms either way
    v = g.IsometryOp.random(3, 1, rng)
    z0 = 0.3 - 0.2j
    src = g.defect_subspaces(v, z0).n_space
    dst = g.defect_subspaces(v, 1.0 / np.conj(z0)).n_space
    c = nk.haar_unitary(2, rng)
    param = g.ContractionParam.constant(src, dst, c)
    ext = g.orthogonal_extension(v, c, z0)
    model = g.ExitSpaceModel(3, 0, "unitary", ext.matrix, v)
    atoms = g.spectral_measure(model)
    locs = atoms.locations()
    gaps = sorted(zip(locs, list(locs[1:]) + [locs[0] + 2 * np.pi]),
                  key=lambda ab: ab[0] - ab[1])
    lo, hi = gaps[-1]
    mid_lo, mid_hi = lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)
    if mid_hi < 2 * np.pi:
        report = g.gap_report(v, param, z0, g.ArcSpec("circle", mid_lo, mid_hi))
        assert report.analytic and not report.atoms_in_region
    around = g.gap_report(v, param, z0,
                          g.ArcSpec("circle", max(locs[0] - 0.1, 0.0), locs[0] + 0.1))
    assert not around.analytic and around.atoms_in_region


def test_gap_report_guards():
    v = partial_identity_isometry()
    n0 = g.defect_subspaces(v, 0.0).n_space
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    param = g.ContractionParam.constant(n0, ninf, np.array([[1j]]))
    with pytest.raises(ValueError):
        g.gap_report(v, param, 0.0, g.ArcSpec("line", 0.5, 1.0))
    with pytest.raises(TypeError):
        plain = g.PartialOperator(v.ambient_dim, v.dom, v.action)
        g.gap_report(plain, param, 0.0, g.ArcSpec("circle", 0.5, 1.0))
    a = g.SymmetricOp.null(1)
    src = g.defect_subspaces(a, 1j).n_space
    dst = g.defect_subspaces(a, -1j).n_space
    sparam = g.ContractionParam.constant(src, dst, np.array([[-1.0]]), anchor=1j)
    with pytest.raises(ValueError):
        g.gap_report(a, sparam, 1j, g.ArcSpec("circle", 0.5, 1.0))
    with pytest.raises(ValueError):
        g.gap_report(a, sparam, 2.0, g.ArcSpec("line", 0.5, 1.0))


def test_decomposition_check_fixture():
    v = partial_identity_isometry()
    result = g.decomposition_check(v, np.exp(1.0j))
    assert result.dom_split and result.ran_split
    with pytest.raises(g.NotRegularType):
        g.decomposition_check(v, 1.0)


def test_decomposition_check_unitary(rng):
    v = g.IsometryOp.random(3, 3, rng)
    result = g.decomposition_check(v, np.exp(0.4j))
    assert result.dom_split and result.ran_split


def test_eigen_vector_structure_fixture():
    v = partial_identity_isometry()
    c = np.exp(0.8j)
    data = g.eigen_vector_structure(v, np.array([[c]]), np.conj(c))
    assert data is not None
    np.testing.assert_allclose(np.abs(data.vector), [0.0, 1.0], atol=1e-10)
    assert g.eigen_vector_structure(v, np.array([[c]]), np.exp(0.1j)) is None


def test_eigen_vector_structure_random(rng):
    hits = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(0, n))
        v = g.IsometryOp.random(n, d, rng)
        c = nk.haar_unitary(n - d, rng)
        full = v.ambient_partial()
        n0 = g.defect_subspaces(v, 0.0).n_space
        ninf = g.defect_subspaces(v, g.INFINITY).n_space
        full = full + ninf.basis @ c @ n0.basis.conj().T
        eigs = np.linalg.eigvals(full)
        target = eigs[int(rng.integers(len(eigs)))]
        zeta = 1.0 / target
        ok, _ = g.is_regular_type(v, target)
        if not ok:
            continue
        data = g.eigen_vector_structure(v, c, zeta)
        assert data is not None  # identities asserted inside
        hits += 1
    assert hits >= 10


def test_regular_type_equivalence_across_transform(rng):
    # anchored transform sends regular-type points to regular-type points
    agree = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(0, n + 1))
        v = g.IsometryOp.random(n, d, rng)
        z0 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if abs(z0) >= 0.8:
            continue
        zeta = complex(np.exp(2j * np.pi * rng.random()))
        vz = g.moebius_transform(v, z0)
        image_point = (1.0 - zeta * np.conj(z0)) / (zeta - z0)
        lhs, _ = g.is_regular_type(v, 1.0 / zeta)
        rhs, _ = g.is_regular_type(vz, image_point)
        assert lhs == rhs
        agree += 1
    assert agree >= 80


def test_regular_type_equivalence_symmetric(rng):
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(0, n + 1))
        a = g.SymmetricOp.random(n, d, rng)
        z = 1j
        lam = float(rng.standard_normal() * 2.0)
        u = g.cayley_transform(a, z, "forward")
        image = (lam - np.conj(z)) / (lam - z)
        lhs, _ = g.is_regular_type(a, lam)
        rhs, _ = g.is_regular_type(u, image)
        assert lhs == rhs


def test_boundedness_probe_matches_atoms():
    # constructed instances: an atom placed on the probe grid breaks
    # boundedness, an atom-free region keeps residuals tiny
    v = partial_identity_isometry()
    n0 = g.defect_subspaces(v, 0.0).n_space
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    region = g.ArcSpec("circle", 1.0, 2.0)
    grid_atom = region.grid(4)[1]
    param_hit = g.ContractionParam.constant(n0, ninf, np.array([[np.exp(1j * grid_atom)]]))
    r_hit = g.ResolventModel.from_direct_sum(v, param_hit)
    probe = resolvent_boundedness_probe(r_hit, region, grid_size=4)
    assert not probe.bounded

    param_free = g.ContractionParam.constant(n0, ninf, np.array([[np.exp(2.9j)]]))
    r_free = g.ResolventModel.from_direct_sum(v, param_free)
    probe2 = resolvent_boundedness_probe(r_free, region, grid_size=4)
    assert probe2.bounded and probe2.mean_value_residual < 1e-8


def test_gap_report_detects_operator_spectrum_between_grid_points():
    # the fixture fixes e1, so the point 1 is in its own partial spectrum; a
    # region straddling angle 0 violates the regular-type hypothesis even
    # though no grid point hits it exactly
    v = partial_identity_isometry()
    n0 = g.defect_subspaces(v, 0.0).n_space
    ninf = g.defect_subspaces(v, g.INFINITY).n_space
    param = g.ContractionParam.constant(n0, ninf, np.array([[np.exp(2.0j)]]))
    with pytest.raises(g.NotRegularType):
        g.gap_report(v, param, 0.0, g.ArcSpec("circle", 0.0, 0.5), grid_size=16)


def test_boundedness_probe_line_regions():
    a, model, _, _ = flip_dilation_symmetric()
    r = g.ResolventModel.from_dilation(model)
    free = resolvent_boundedness_probe(r, g.ArcSpec("line", -0.5, 0.5), grid_size=4)
    assert free.bounded and free.mean_value_residual < 1e-8
    # a grid hitting the atom at 1 exactly breaks boundedness
    hit = resolvent_boundedness_probe(r, g.ArcSpec("line", 0.875, 1.875), grid_size=4)
    assert not hit.bounded
