"""Gap probes: the closed-form comparison map against the defect-space route,
and the certified regular region of a gap report."""

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import spectral
from gresolv.spectral import _anchored_gap_map, _margin, _require_regular_region, _Side

SHAPES = [(n, d) for n in (1, 2, 3, 4, 6, 8, 12, 16) for d in range(n)]
ANCHORS = {g.IsometryOp: (0.0, 0.3 - 0.2j), g.SymmetricOp: (1j, -1j)}


def _defect_route(side: _Side, lam: complex) -> np.ndarray:
    """The comparison map's coordinates from the defect space at lam: the
    shadows of its frame in the source and destination frames, the first one
    inverted."""
    n_lam = g.defect_subspaces(side.op, lam).n_space.basis
    s_mat = side.src.n_space.basis.conj().T @ n_lam
    q_mat = side.dst.n_space.basis.conj().T @ n_lam
    return side.factor(lam) * (q_mat @ nk.inv(s_mat))


def _outcome(route, side: _Side, lam: complex):
    """The route's coordinates at a probe point after its regular-type test,
    or the type of the error either raises."""
    try:
        side.regular_bound(lam)
        return route(side, lam)
    except (g.GresolvError, ValueError) as exc:
        return type(exc)


def _probe_points(side: _Side, rng, count: int) -> list[complex]:
    xs = rng.uniform(0.0, 2 * np.pi, count) if side.kind == "circle" else \
        rng.uniform(-6.0, 6.0, count)
    return [side.point(x) for x in xs]


def _eigen_operator(kind, n: int, d: int, at: float):
    """An operator of the kind whose domain holds an eigenvector: an isometry
    with eigenvalue exp(i at), a symmetric operator with eigenvalue at."""
    dom = np.eye(n, dtype=complex)[:, :d]
    action = np.zeros((n, d), dtype=complex)
    action[0, 0] = np.exp(1j * at) if kind is g.IsometryOp else at
    for j in range(1, d):
        action[j + d - 1, j] = 1.0
    return kind(g.Subspace(dom), action)


@pytest.mark.parametrize("kind", [g.IsometryOp, g.SymmetricOp])
def test_closed_form_comparison_map_matches_the_defect_route(kind):
    rng = np.random.default_rng(16)
    points = 0
    for n, d in SHAPES:
        op = kind.random(n, d, rng)
        for anchor in ANCHORS[kind]:
            side = _Side.of(op, anchor)
            for lam in _probe_points(side, rng, 10):
                closed = _outcome(_anchored_gap_map, side, lam)
                reference = _outcome(_defect_route, side, lam)
                assert isinstance(closed, type) == isinstance(reference, type)
                if isinstance(reference, type):
                    assert closed is reference
                else:
                    assert closed.shape == reference.shape
                    assert np.max(np.abs(closed - reference), initial=0.0) <= 1e-12
                points += 1
    assert points >= 1000


@pytest.mark.parametrize("kind", [g.IsometryOp, g.SymmetricOp])
def test_closed_form_raises_as_the_defect_route_at_singular_points(kind):
    at = 1.1
    for n, d in ((2, 1), (4, 2), (6, 3)):
        op = _eigen_operator(kind, n, d, at)
        for anchor in ANCHORS[kind]:
            side = _Side.of(op, anchor)
            # the probe point whose regular-type point is the eigenvalue
            lam = side.point(at)
            assert _outcome(_defect_route, side, lam) is g.NotRegularType
            assert _outcome(_anchored_gap_map, side, lam) is g.NotRegularType
    with pytest.raises(g.NotRegularType):
        g.comparison_map(_eigen_operator(g.IsometryOp, 4, 2, at), np.exp(-1j * at))
    with pytest.raises(g.NotRegularType):
        g.comparison_map_symmetric(_eigen_operator(g.SymmetricOp, 4, 2, at), 1j, at)


@pytest.mark.parametrize("kind", [g.IsometryOp, g.SymmetricOp])
def test_both_routes_vanish_against_the_parameter_at_its_atoms(kind):
    rng = np.random.default_rng(5)
    checked = 0
    for n, d in ((3, 1), (6, 2), (8, 5), (16, 8)):
        op = kind.random(n, d, rng)
        anchor = ANCHORS[kind][0]
        side = _Side.of(op, anchor)
        src, dst = side.src.n_space, side.dst.n_space
        value = nk.haar_unitary(n - d, rng)
        param = g.ContractionParam.constant(src, dst, value)
        atoms = spectral.in_space_atoms(op, param, anchor)
        for loc, _ in atoms.atoms:
            lam = side.point(loc)
            for route in (_anchored_gap_map, _defect_route):
                assert _margin(value - route(side, lam)) <= 1e-12
            checked += 1
    assert checked >= 20


def _grid_bounds(side: _Side, grid: np.ndarray) -> np.ndarray:
    return np.array([side.regular_bound(side.point(x)) for x in grid])


@pytest.mark.parametrize("kind", [g.IsometryOp, g.SymmetricOp])
def test_certified_region_is_regular_everywhere(kind):
    rng = np.random.default_rng(11)
    certified = 0
    for trial in range(12):
        n = int(rng.integers(2, 9))
        op = kind.random(n, int(rng.integers(1, n)), rng)
        side = _Side.of(op, ANCHORS[kind][0])
        if kind is g.IsometryOp:
            lo = float(rng.uniform(0.0, 3.0))
            region = g.ArcSpec("circle", lo, lo + float(rng.uniform(0.2, 3.0)))
        else:
            lo = float(rng.uniform(-3.0, 1.0))
            region = g.ArcSpec("line", lo, lo + float(rng.uniform(0.2, 3.0)))
        grid = region.grid(int(rng.choice([8, 16, 64])))
        if not _require_regular_region(op, region, grid, _grid_bounds(side, grid)):
            continue
        certified += 1
        for x in np.linspace(region.lo, region.hi, 500):
            point = np.exp(1j * x) if kind is g.IsometryOp else complex(x)
            assert g.is_regular_type(op, point)[0]
    assert certified >= 6


@pytest.mark.parametrize("kind", [g.IsometryOp, g.SymmetricOp])
def test_eigenvalue_on_the_domain_is_not_certified(kind):
    at = 1.1
    op = _eigen_operator(kind, 4, 2, at)
    side = _Side.of(op, ANCHORS[kind][0])
    region = g.ArcSpec("circle" if kind is g.IsometryOp else "line", at - 0.3, at + 0.35)
    grid = region.grid(16)
    # no grid point sits on the eigenvalue, so only the search finds it
    bounds = _grid_bounds(side, grid)
    assert np.all(bounds > 1e-3)
    with pytest.raises(g.NotRegularType):
        _require_regular_region(op, region, grid, bounds)
    n0, ninf = side.src.n_space, side.dst.n_space
    param = g.ContractionParam.constant(n0, ninf, np.eye(ninf.dim, n0.dim))
    with pytest.raises(g.NotRegularType):
        g.gap_report(op, param, ANCHORS[kind][0], region, 16)


def test_uncertified_regular_region_tests_every_refinement_probe(monkeypatch):
    # one grid point at the middle of a long arc ending 0.01 short of the
    # eigenvalue: the chord is shorter than the arc, so the Lipschitz floor
    # fails, while the region is regular
    at = 2.5
    v = _eigen_operator(g.IsometryOp, 4, 2, at)
    region = g.ArcSpec("circle", at - 2.5 + 1e-3, at - 0.01)
    side = _Side.of(v, 0.0)
    grid = region.grid(1)
    assert _require_regular_region(v, region, grid, _grid_bounds(side, grid)) is False
    probes = []

    def spy(self, point, _real=_Side.regular_bound):
        probes.append(point)
        return _real(self, point)
    monkeypatch.setattr(_Side, "regular_bound", spy)
    n0, ninf = side.src.n_space, side.dst.n_space
    param = g.ContractionParam.constant(n0, ninf, np.eye(ninf.dim, n0.dim))
    report = g.gap_report(v, param, 0.0, region, 1)
    assert report.analytic and report.atoms_in_region is False
    assert report.refined_min_margin > spectral.GAP_GATE
    # the grid point and each golden-section probe of the refinement
    assert len(probes) > 20


def test_constant_callback_on_the_line_gives_the_constant_margins():
    rng = np.random.default_rng(21)
    a = g.SymmetricOp.random(5, 3, rng)
    side = _Side.of(a, 1j)
    n0, nbar = side.src.n_space, side.dst.n_space
    k = nk.haar_unitary(n0.dim, rng)
    region = g.ArcSpec("line", -1.5, 2.0)
    constant = g.gap_report(a, g.ContractionParam.constant(n0, nbar, k), 1j, region, 8)
    callback = g.gap_report(a, g.ContractionParam.callback(n0, nbar, lambda lam: k), 1j,
                            region, 8)
    assert callback.records == constant.records
    assert callback.refined_min_margin == constant.refined_min_margin
    assert all(r.continuation_jump == 0.0 for r in callback.records)
    assert constant.exact_param and not callback.exact_param
    assert callback.analytic == constant.analytic and callback.atoms is None
