"""Spectral measures of extensions, integral representations, and gap criteria.

The spectral measure of a model is the compression of the eigenprojections of
its big operator; a gap (lacuna) is an open arc of the circle or interval of
the line that carries no atom.  The criteria here decide gaps from the
parameter side, and report the atom side beside the verdict whenever an
in-space extension is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (NotRegularType, NumericalFailure, PointExcluded, PreconditionViolated,
                     SingularSystem)
from .extensions import ExitSpaceModel, PartialMap, _neumann_extension
from .numkernel import CMatrix, Subspace
from .operators import (DefectPair, IsometryOp, PartialOperator, SymmetricOp, _comparison_coords,
                        _direct_sum, _memoized, _orthogonal_extension, defect_subspaces,
                        is_regular_type, parameter_frames, range_frame, require_nonreal)
from .resolvents import ContractionParam, ResolventModel

#: margins below this flag a spectral obstruction; defects above it break unitarity
GAP_GATE = 1e-8


@dataclass(frozen=True)
class SpectralAtoms:
    """A finite atomic operator measure: locations with semidefinite weights.

    Circle atoms are angles in [0, 2pi), line atoms real points; weights are
    positive semidefinite and sum to the identity.
    """

    kind: str  # 'circle' | 'line'
    atoms: tuple  # of (location: float, weight: CMatrix)

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if not self.atoms:
            raise ValueError("an atomic measure needs at least one atom")
        n = self.atoms[0][1].shape[0]
        total = np.zeros((n, n), dtype=np.complex128)
        last = -np.inf
        for loc, weight in self.atoms:
            if loc <= last:
                raise ValueError("atom locations must be strictly increasing")
            last = loc
            if self.kind == "circle" and not 0 <= loc < 2 * np.pi:
                raise ValueError("circle atoms live in [0, 2pi)")
            w_min = float(np.linalg.eigvalsh((weight + weight.conj().T) / 2.0)[0])
            if w_min < -1e-10:
                raise ValueError(f"weight at {loc} has eigenvalue {w_min:.3e}")
            total += weight
        if not nk._norm_within(total - np.eye(n), 1e-9):
            raise ValueError("weights do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.atoms[0][1].shape[0]

    def locations(self) -> np.ndarray:
        return np.array([loc for loc, _ in self.atoms])


@dataclass(frozen=True)
class ArcSpec:
    """An open arc of the circle (angles) or open interval of the line."""

    kind: str  # 'circle' | 'line'
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"region ({self.lo}, {self.hi}) has a non-finite bound")
        if not self.lo < self.hi:
            raise ValueError("region must be nonempty")
        if self.kind == "circle" and not (0 <= self.lo and self.hi < 2 * np.pi):
            raise ValueError("circle arcs are specified with 0 <= lo < hi < 2pi")

    def contains(self, loc: float) -> bool:
        """Half-open membership [lo, hi), stable after atom clustering."""
        return self.lo <= loc < self.hi

    def grid(self, count: int) -> np.ndarray:
        """Midpoint grid staying inside the open region."""
        if count < 1:
            raise ValueError(f"grid count must be positive, got {count}")
        step = (self.hi - self.lo) / count
        return self.lo + step * (np.arange(count) + 0.5)


def spectral_measure(model: ExitSpaceModel) -> SpectralAtoms:
    """Compress the eigenprojections of the big operator to the inner space."""
    n = model.inner_dim
    kind = "circle" if model.kind == "unitary" else "line"
    pairs = nk.eig_normal(model.big_op, model.kind)
    atoms = []
    for lam, proj in pairs:
        loc = float(np.angle(lam) % (2 * np.pi)) if kind == "circle" else float(lam.real)
        atoms.append((loc, proj[:n, :n]))
    atoms.sort(key=lambda t: t[0])
    return SpectralAtoms(kind, tuple(atoms))


def verify_integral_representation(atoms: SpectralAtoms, r: ResolventModel,
                                   samples) -> float:
    """Worst residual of the atomic integral representation over the samples.

    Circle: sum of weight/(1 - z exp(i theta)) against the resolvent; line:
    the Cauchy kernel 1/(t - lam) analogue.
    """
    samples = [complex(point) for point in samples]
    return _integral_residual(atoms, samples, r.at(samples))


def _integral_residual(atoms: SpectralAtoms, samples: list, values: list) -> float:
    """``verify_integral_representation`` on the resolvent values at the samples."""
    residuals = []
    for point, value in zip(samples, values):
        acc = np.zeros((atoms.dim, atoms.dim), dtype=np.complex128)
        for loc, weight in atoms.atoms:
            if atoms.kind == "circle":
                acc += weight / (1.0 - point * np.exp(1j * loc))
            else:
                acc += weight / (loc - point)
        residuals.append(acc - value)
    return nk._worst_norm(residuals)


@dataclass(frozen=True)
class _Side:
    """One side of the Cayley transfer, as comparison maps and gap reports see it.

    The circle side holds an isometry anchored at z0 in the disk: the atom
    angle theta is probed at zeta = exp(-i theta), whose regular-type point is
    1/zeta.  The line side holds a symmetric operator anchored at a non-real
    z: the atom location t is probed at lam = t itself.  ``src`` and ``dst``
    are the parameter frames at the anchor and at its partner point.
    """

    kind: str  # 'circle' | 'line'
    op: PartialOperator
    anchor: complex
    src: DefectPair
    dst: DefectPair

    @classmethod
    def of(cls, op: PartialOperator, anchor: complex) -> "_Side":
        if isinstance(op, IsometryOp):
            kind = "circle"
        elif isinstance(op, SymmetricOp):
            require_nonreal(anchor)
            kind = "line"
        else:
            raise TypeError("gap reports need an isometric or symmetric operator")
        return cls(kind, op, anchor, *parameter_frames(op, anchor))

    def point(self, x: float) -> complex:
        """Resolvent-side point whose obstruction sits at the atom location x."""
        return complex(np.exp(-1j * x)) if self.kind == "circle" else complex(x)

    def regular_bound(self, point: complex) -> float:
        """Regular-type bound at the regular-type point of a probe point.
        Raises ``PointExcluded`` for a circle point off the circle and
        ``NotRegularType`` when the bound fails."""
        if self.kind == "circle" and abs(abs(point) - 1.0) > 1e-12:
            raise PointExcluded("the comparison map is defined at unimodular points")
        reg = 1.0 / point if self.kind == "circle" else point
        ok, bound = is_regular_type(self.op, reg)
        if not ok:
            raise NotRegularType(reg, bound)
        return bound

    def covering(self, point: complex) -> float:
        """Margin by which the shifted range at the image of a probe point
        covers the partner one: the smallest cosine between the two, 0 when
        their dimensions differ."""
        z0 = self.anchor
        image = point if self.kind == "line" or z0 == 0 else \
            (z0 + point) / (1.0 + point * np.conj(z0))
        cov = self.dst.m_space.basis.conj().T @ range_frame(self.op, image).basis
        return _margin(cov) if cov.shape[0] == cov.shape[1] else 0.0

    def margin(self, point: complex, value: CMatrix) -> float:
        """Invertibility margin of a parameter value against the comparison
        map at a probe point."""
        return _margin(value - _anchored_gap_map(self, point))

    def comparison_map(self, point: complex) -> PartialMap:
        """The comparison map at a probe point, after its regular-type test."""
        self.regular_bound(point)
        return PartialMap.from_coords(self.src.n_space, self.dst.n_space,
                                      _anchored_gap_map(self, point))

    def jump_probe(self, point: complex) -> complex:
        """Nearby point off the boundary where a callback parameter is compared."""
        if self.kind == "circle":
            return (1.0 - 1e-6) * point
        return point + (1e-6j if self.anchor.imag > 0 else -1e-6j)

    def factor(self, lam: complex) -> complex:
        """Scale of the comparison map between the shadows of lam-defect vectors."""
        z = self.anchor
        if self.kind == "circle":
            return (1.0 - np.conj(z) * lam) / (lam - z)
        return (lam - np.conj(z)) / (lam - z)


def _anchored_gap_map(side: _Side, lam: complex) -> CMatrix:
    """Coordinates of the comparison map between the parameter frames of a side.

    It is f(lam) K(lam): the side's factor times the operator's
    ``_comparison_coords`` at its anchor, which must pass the isometry gate.
    """
    coords = side.factor(lam) * _comparison_coords(side.op, side.anchor, lam)
    if coords.shape[1] and not nk.is_isometric(coords, nk.BUILT_GATE):
        raise NumericalFailure("comparison map lost its isometry")
    return coords


def comparison_map(v: IsometryOp, zeta: complex) -> PartialMap:
    """Comparison map between the domain-side and range-side defects at a
    unimodular point: the shadow of a zeta-defect vector in the domain
    complement is sent to 1/zeta times its shadow in the range complement."""
    return _Side.of(v, 0.0).comparison_map(complex(zeta))


def comparison_map_symmetric(a: SymmetricOp, z: complex, lam: complex) -> PartialMap:
    """Symmetric-side comparison map between the defect spaces at the anchor.

    Sends the shadow of a real-point defect vector in the anchor defect space
    to (lam - conj(z))/(lam - z) times its shadow in the conjugate one.
    """
    return _Side.of(a, z).comparison_map(complex(lam))


@dataclass(frozen=True)
class GapCriteria:
    """Eigenvalue and surjectivity verdicts at one unimodular point."""

    eigen: bool
    range: bool
    detail: dict


def gap_criteria(v: IsometryOp, c: CMatrix, zeta: complex) -> GapCriteria:
    """Kernel and surjectivity tests of the parameter against the comparison map.

    1/zeta is an eigenvalue of the direct sum exactly when the difference with
    the comparison map has a kernel; the direct sum maps onto the space exactly
    when the difference is onto and the shifted range covers the operator range.
    """
    zeta = complex(zeta)
    c = nk.as_cmatrix(c)
    side = _Side.of(v, 0.0)
    side.regular_bound(zeta)
    n0, ninf = side.src.n_space, side.dst.n_space
    if c.shape != (ninf.dim, n0.dim):
        raise ValueError(f"parameter shape {c.shape} does not match defects {(ninf.dim, n0.dim)}")
    margin = side.margin(zeta, c)
    eigen = margin <= GAP_GATE
    cover_margin = side.covering(zeta)
    covers = cover_margin > GAP_GATE
    return GapCriteria(eigen, bool(not eigen and covers), {
        "kernel_margin": margin,
        "cover_margin": cover_margin,
    })


@dataclass(frozen=True)
class GapPointRecord:
    point: complex
    regular_bound: float
    side_margin: float
    margin: float
    unitarity_defect: float
    continuation_jump: float


@dataclass(frozen=True)
class GapReport:
    region: ArcSpec
    records: tuple
    refined_min_margin: float
    analytic: bool
    exact_param: bool
    atoms: SpectralAtoms | None
    atoms_in_region: bool | None


def in_space_atoms(op: PartialOperator, param: ContractionParam,
                   anchor: complex) -> SpectralAtoms | None:
    """Atoms of the extension that a constant unitary parameter defines inside
    the space; None for other parameters and for non-self-adjoint extensions."""
    if param.kind != "constant":
        return None
    side = _Side.of(op, complex(anchor))
    src, dst = side.src.n_space, side.dst.n_space
    value = param.in_frames(src, dst).form[1]

    def build():
        if not nk.is_unitary(value, nk.STRUCT_GATE):
            return None
        if side.kind == "circle":
            big = _orthogonal_extension(op, value, side.anchor)
            return spectral_measure(ExitSpaceModel(big, op))
        ext, cls = _neumann_extension(op, side.anchor, PartialMap(src, dst.basis @ value), True)
        return spectral_measure(ExitSpaceModel(ext.full_matrix(), op)) if cls.self_adjoint else None
    return _memoized(op, ("atoms", value.shape, value.tobytes()), side.anchor, build)


def gap_report(op: PartialOperator, param: ContractionParam, anchor: complex,
               region: ArcSpec, grid_size: int = 64) -> GapReport:
    """Decide whether the parameter's spectral measure vanishes on a region.

    Per grid point the continued parameter is checked for unitarity and for an
    invertibility margin against the comparison map; the margin function is
    then refined between grid points.  The verdict says the region is free of
    atoms.  For constant unitary parameters the report also carries the atoms
    of the in-space extension and whether one lies in the region.
    """
    side = _Side.of(op, complex(anchor))
    param = param.in_frames(side.src.n_space, side.dst.n_space)
    if region.kind != side.kind:
        raise ValueError(f"gap regions of this operator are {side.kind} regions")

    records = []
    grid = region.grid(grid_size)
    # a constant parameter has one value, and so one unitarity defect
    fixed_defect = _unitarity_defect(param.form[1]) if param.kind == "constant" else None
    for x in grid:
        point = side.point(x)
        bound = side.regular_bound(point)
        covering = side.covering(point)
        if covering <= GAP_GATE:
            raise PreconditionViolated(f"range covering fails at {x}")
        value = param(point)
        jump = nk.op_norm(value - param(side.jump_probe(point))) \
            if param.kind == "callback" else 0.0
        defect = _unitarity_defect(value) if fixed_defect is None else fixed_defect
        records.append(GapPointRecord(point, bound, covering, side.margin(point, value),
                                      defect, jump))

    # a certified region needs no regular-type test at the refinement probes
    certified = _require_regular_region(op, region, grid,
                                        np.array([r.regular_bound for r in records]))

    def gfun(x: float) -> float:
        point = side.point(x)
        if not certified:
            side.regular_bound(point)
        return side.margin(point, param(point))

    refined, _ = _refine_minima(gfun, grid, np.array([r.margin for r in records]),
                                region.lo, region.hi)
    unit_ok = all(r.unitarity_defect <= GAP_GATE for r in records)
    cont_ok = all(r.continuation_jump <= 1e-4 for r in records)
    analytic = bool(refined > GAP_GATE and unit_ok and cont_ok)

    atoms = in_space_atoms(op, param, anchor)
    atoms_inside = None if atoms is None else \
        any(region.contains(loc) for loc, _ in atoms.atoms)
    return GapReport(region, tuple(records), refined, analytic,
                     param.kind in ("constant", "affine"), atoms, atoms_inside)


def _unitarity_defect(value: CMatrix) -> float:
    """The larger isometry defect of a parameter value and of its adjoint."""
    return max(nk.isometry_defect(value), nk.isometry_defect(value.conj().T))


def _margin(m: CMatrix) -> float:
    """Smallest singular value; +inf for an empty matrix."""
    if m.size == 0:
        return np.inf
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def _golden_min(gfun, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum (value, location) with an absolute bracket tolerance.

    The margin function is V-shaped at an atom, and the detection gate sits
    below the relative floor of library minimizers, so the bracket is shrunk
    with a fixed absolute schedule instead.
    """
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = gfun(c), gfun(d)
    best, best_x = (fc, c) if fc <= fd else (fd, d)
    for _ in range(90):
        if b - a < 1e-13 * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = gfun(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = gfun(d)
        if fc < best:
            best, best_x = fc, c
        if fd < best:
            best, best_x = fd, d
    return best, best_x


def _refine_minima(gfun, grid: np.ndarray, values: np.ndarray,
                   lo: float, hi: float) -> tuple[float, float]:
    """Refine interior minima of a sampled margin function."""
    j0 = int(np.argmin(values))
    best, best_x = float(values[j0]), float(grid[j0])
    count = len(grid)
    for j in range(count):
        left = grid[j - 1] if j else lo
        right = grid[j + 1] if j + 1 < count else hi
        is_min = (j == 0 or values[j] <= values[j - 1]) and \
                 (j + 1 == count or values[j] <= values[j + 1])
        if not is_min:
            continue
        val, x = _golden_min(gfun, left, right)
        if val < best:
            best, best_x = val, x
    return best, best_x


def _require_regular_region(op: PartialOperator, region: ArcSpec, grid: np.ndarray,
                            bounds: np.ndarray) -> bool:
    """Certify the regular-type hypothesis on the whole region, not just the grid.

    Points of the operator's own approximate point spectrum inside the region
    are invisible to the parameter-side margins.  The bound of
    ``is_regular_type``, sigma_min(action - p D), is 1-Lipschitz in p, and p
    moves no faster than the region's coordinate; so the grid bounds give a
    floor for every cell: (b_j + b_{j+1} - h_j)/2 between grid points, and b
    less the distance to the region's end in the two edge cells.  When the
    floor, less a pad for the rounding of the SVDs twice, clears both the
    region's gate and the gate of ``is_regular_type`` at any probe, the region
    is certified and True is returned.  Otherwise the lower-bound function is
    refined between grid points, and False is returned when no point fails.
    """
    if op.dom.dim == 0:
        return True
    n, policy = op.ambient_dim, nk._policy()
    # sigma_max(action - p D) <= ||action||_F + |p| over the whole region
    reach = 1.0 if region.kind == "circle" else max(abs(region.lo), abs(region.hi))
    sigma = nk._fro(op.action) + reach
    pad = 8.0 * (n + 2) ** 2 * nk._EPS * sigma
    floor = min(bounds[0] - (grid[0] - region.lo), bounds[-1] - (region.hi - grid[-1]),
                np.min((bounds[:-1] + bounds[1:] - np.diff(grid)) / 2.0, initial=np.inf))
    if floor - 2.0 * pad > max(policy.threshold(2.0, n), policy.threshold(sigma + pad, n)):
        return True

    def rfun(x: float) -> float:
        point = np.exp(1j * x) if region.kind == "circle" else complex(x)
        return is_regular_type(op, point)[1]

    refined, at = _refine_minima(rfun, grid, bounds, region.lo, region.hi)
    if refined <= policy.threshold(2.0, n):
        point = np.exp(1j * at) if region.kind == "circle" else complex(at)
        raise NotRegularType(point, refined)
    return False


@dataclass(frozen=True)
class DecompositionCheck:
    dom_split: bool
    ran_split: bool
    detail: dict


def decomposition_check(v: IsometryOp, zeta: complex) -> DecompositionCheck:
    """Whether domain + defect and range + defect both span the whole space."""
    zeta = complex(zeta)
    ok, bound = is_regular_type(v, 1.0 / zeta)
    if not ok:
        raise NotRegularType(1.0 / zeta, bound)
    n = v.ambient_dim
    n_zeta = defect_subspaces(v, zeta).n_space
    results = {}
    for name, frame in (("dom", v.dom.basis), ("ran", v.ran_basis)):
        stacked = np.hstack([frame, n_zeta.basis])
        results[name] = nk.injective(stacked) if stacked.shape[1] == n else (False, 0.0)
    return DecompositionCheck(results["dom"][0], results["ran"][0],
                              {"dom_margin": results["dom"][1],
                               "ran_margin": results["ran"][1]})


@dataclass(frozen=True)
class EigenvectorData:
    eigenvalue: complex
    vector: np.ndarray
    defect_residual: float
    shadow_residual_dom: float
    shadow_residual_param: float


def eigen_vector_structure(v: IsometryOp, c: CMatrix, zeta: complex) -> EigenvectorData | None:
    """Eigenvector of the direct sum at 1/zeta with its shadow identities.

    Returns None when 1/zeta is not an eigenvalue.  Otherwise the eigenvector
    lies in the defect space at zeta, the operator carries its domain shadow to
    1/zeta times the range shadow, and the parameter does the same between the
    defect complements; the residuals of these three identities are returned.
    """
    zeta = complex(zeta)
    c = nk.as_cmatrix(c)
    n = v.ambient_dim
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0))
    full = _direct_sum(v, c, n0, ninf)
    target = 1.0 / zeta
    system = full - target * np.eye(n)
    u, s, vh = np.linalg.svd(system)
    if s.size == 0 or s[-1] > nk.EIG_MERGE_GAP:
        return None
    vec = vh.conj().T[:, -1]
    del u
    pair = defect_subspaces(v, zeta)
    defect_res = float(np.linalg.norm(nk.projector(pair.m_space) @ vec))
    p_m0 = nk.projector(v.dom)
    p_minf = nk.projector(Subspace(v.ran_basis))
    dom_res = float(np.linalg.norm(
        v.ambient_partial() @ (p_m0 @ vec) - target * (p_minf @ vec)))
    par_res = float(np.linalg.norm(
        ninf.basis @ c @ (n0.basis.conj().T @ vec) - target * (nk.projector(ninf) @ vec)))
    return EigenvectorData(target, vec, defect_res, dom_res, par_res)


@dataclass(frozen=True)
class BoundednessProbe:
    max_norm: float
    mean_value_residual: float
    bounded: bool


def resolvent_boundedness_probe(r: ResolventModel, region: ArcSpec,
                                grid_size: int = 16) -> BoundednessProbe:
    """Probe a resolvent for boundedness across a region boundary.

    Evaluates at the obstruction points of the region (conjugated for circle
    regions), plus a mean-value test over small circles centered there;
    singular evaluations or exploding norms mean an atom obstructs the region.
    """
    max_norm = 0.0
    residual = 0.0
    for x in region.grid(grid_size):
        if region.kind == "circle":
            center = complex(np.exp(-1j * x))
        else:
            center = complex(x)
        try:
            val = r(center, boundary_ok=True)
            norm = nk.op_norm(val)
            max_norm = max(max_norm, norm)
            ring = [center + 1e-3 * np.exp(2j * np.pi * k / 16) for k in range(16)]
            mean = sum(r(w, boundary_ok=True) for w in ring) / 16.0
            residual = max(residual, nk.op_norm(mean - val) / max(1.0, norm))
        except SingularSystem:
            return BoundednessProbe(np.inf, np.inf, False)
    return BoundednessProbe(max_norm, residual, bool(max_norm < 1e6 and residual < 1e-8))
