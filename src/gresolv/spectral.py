"""Spectral measures of extensions, integral representations, and gap criteria.

The spectral measure of a model is the compression of the eigenprojections of
its big operator; a gap (lacuna) is an open arc of the circle or interval of
the line that carries no atom.  The criteria here decide gaps from the
parameter side and cross-check against the atom side whenever an in-space
extension is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (InternalDisagreement, NotRegularType, NumericalFailure,
                     PointExcluded, PreconditionViolated, SingularSystem)
from .extensions import ExitSpaceModel, PartialMap, neumann_extension
from .numkernel import CMatrix, DEFAULT_TOL, Subspace, TolPolicy
from .operators import (INFINITY, DefectPair, IsometryOp, PartialOperator, SymmetricOp,
                        defect_subspaces, is_regular_type, orthogonal_extension,
                        parameter_frames)
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
        if nk.op_norm(total - np.eye(n)) > 1e-9:
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
        if not self.lo < self.hi:
            raise ValueError("region must be nonempty")
        if self.kind == "circle" and not (0 <= self.lo and self.hi < 2 * np.pi):
            raise ValueError("circle arcs are specified with 0 <= lo < hi < 2pi")

    def contains(self, loc: float) -> bool:
        """Half-open membership [lo, hi), stable after atom clustering."""
        return self.lo <= loc < self.hi

    def grid(self, count: int) -> np.ndarray:
        """Midpoint grid staying inside the open region."""
        step = (self.hi - self.lo) / count
        return self.lo + step * (np.arange(count) + 0.5)


def spectral_measure(model: ExitSpaceModel, tol: TolPolicy = DEFAULT_TOL) -> SpectralAtoms:
    """Compress the eigenprojections of the big operator to the inner space."""
    n = model.inner_dim
    kind = "circle" if model.kind == "unitary" else "line"
    pairs = nk.eig_normal(model.big_op, model.kind, tol)
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
    worst = 0.0
    for point in samples:
        point = complex(point)
        acc = np.zeros((atoms.dim, atoms.dim), dtype=np.complex128)
        for loc, weight in atoms.atoms:
            if atoms.kind == "circle":
                acc += weight / (1.0 - point * np.exp(1j * loc))
            else:
                acc += weight / (loc - point)
        worst = max(worst, nk.op_norm(acc - r(point)))
    return worst


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
    tol: TolPolicy

    @classmethod
    def of(cls, op: PartialOperator, anchor: complex, tol: TolPolicy) -> "_Side":
        if isinstance(op, IsometryOp):
            kind = "circle"
        elif isinstance(op, SymmetricOp):
            if anchor.imag == 0:
                raise ValueError("anchor must be non-real")
            kind = "line"
        else:
            raise TypeError("gap reports need an isometric or symmetric operator")
        return cls(kind, op, anchor, *parameter_frames(op, anchor, tol), tol)

    def point(self, x: float) -> complex:
        """Resolvent-side point whose obstruction sits at the atom location x."""
        return complex(np.exp(-1j * x)) if self.kind == "circle" else complex(x)

    def regular_point(self, point: complex) -> complex:
        return 1.0 / point if self.kind == "circle" else point

    def image_point(self, point: complex) -> complex:
        """Point whose shifted range must cover the partner one."""
        z0 = self.anchor
        if self.kind == "line" or z0 == 0:
            return point
        return (z0 + point) / (1.0 + point * np.conj(z0))

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

    def in_space_model(self, value: CMatrix) -> ExitSpaceModel | None:
        """Model of the extension a unitary parameter value defines inside the
        space; None on the line when that extension is not self-adjoint."""
        op, z = self.op, self.anchor
        if self.kind == "circle":
            ext = orthogonal_extension(op, value, z, self.tol)
            return ExitSpaceModel(op.ambient_dim, 0, "unitary", ext.matrix, op)
        tmap = PartialMap.from_coords(self.src.n_space, self.dst.n_space, value)
        ext, cls = neumann_extension(op, z, tmap, self.tol)
        if not cls.self_adjoint:
            return None
        return ExitSpaceModel(op.ambient_dim, 0, "hermitian", ext.full_matrix(), op)


def _anchored_gap_map(side: _Side, lam: complex) -> PartialMap:
    """The comparison map between the parameter frames of a side.

    Sends the shadow of a lam-defect vector in the source defect space to its
    shadow in the destination one, scaled by the side's factor; defined
    whenever the regular-type point of lam is of regular type.
    """
    reg = side.regular_point(lam)
    ok, bound = is_regular_type(side.op, reg, side.tol)
    if not ok:
        raise NotRegularType(reg, bound)
    src, dst = side.src.n_space, side.dst.n_space
    n_lam = defect_subspaces(side.op, lam, side.tol).n_space
    s_mat = src.basis.conj().T @ n_lam.basis
    q_mat = dst.basis.conj().T @ n_lam.basis
    coords = side.factor(lam) * (q_mat @ nk.inv(s_mat, side.tol))
    result = PartialMap.from_coords(src, dst, coords)
    if result.dim and not result.is_isometric(1e-10):
        raise NumericalFailure("comparison map lost its isometry")
    return result


def comparison_map(v: IsometryOp, zeta: complex,
                   tol: TolPolicy = DEFAULT_TOL) -> PartialMap:
    """Comparison map between the domain-side and range-side defects at a
    unimodular point: the shadow of a zeta-defect vector in the domain
    complement is sent to 1/zeta times its shadow in the range complement."""
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise PointExcluded("the comparison map is defined at unimodular points")
    return _anchored_gap_map(_Side.of(v, 0.0, tol), complex(zeta))


def comparison_map_symmetric(a: SymmetricOp, z: complex, lam: complex,
                             tol: TolPolicy = DEFAULT_TOL) -> PartialMap:
    """Symmetric-side comparison map between the defect spaces at the anchor.

    Sends the shadow of a real-point defect vector in the anchor defect space
    to (lam - conj(z))/(lam - z) times its shadow in the conjugate one.
    """
    return _anchored_gap_map(_Side.of(a, z, tol), complex(lam))


@dataclass(frozen=True)
class GapCriteria:
    """Eigenvalue and surjectivity verdicts at one unimodular point."""

    eigen: bool
    range: bool
    detail: dict


def gap_criteria(v: IsometryOp, c: CMatrix, zeta: complex,
                 tol: TolPolicy = DEFAULT_TOL) -> GapCriteria:
    """Kernel and surjectivity tests of the parameter against the comparison map.

    1/zeta is an eigenvalue of the direct sum exactly when the difference with
    the comparison map has a kernel; the direct sum maps onto the space exactly
    when the difference is onto and the shifted range covers the operator range.
    The eigen verdict is cross-checked against the direct spectrum.
    """
    zeta = complex(zeta)
    c = nk.as_cmatrix(c)
    w = comparison_map(v, zeta, tol)
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0, tol))
    w_coords = ninf.basis.conj().T @ w.matrix
    if c.shape != w_coords.shape:
        raise ValueError(f"parameter shape {c.shape} does not match defects {w_coords.shape}")
    diff = c - w_coords
    if diff.size:
        s = np.linalg.svd(diff, compute_uv=False)
        margin = float(s[-1])
        eigen = margin <= GAP_GATE
        onto_diff = margin > GAP_GATE
    else:
        margin, eigen, onto_diff = np.inf, False, True

    m_zeta = defect_subspaces(v, zeta, tol).m_space
    minf = defect_subspaces(v, INFINITY, tol).m_space
    cover_mat = minf.basis.conj().T @ m_zeta.basis
    if cover_mat.size:
        s_cover = np.linalg.svd(cover_mat, compute_uv=False)
        cover_margin = float(s_cover[-1]) if cover_mat.shape[0] == cover_mat.shape[1] else 0.0
        covers = cover_mat.shape[0] == cover_mat.shape[1] and cover_margin > GAP_GATE
    else:
        cover_margin = np.inf
        covers = minf.dim == 0

    # independent eigenvalue test of the direct sum
    full = v.ambient_partial() + ninf.basis @ c @ n0.basis.conj().T
    target = 1.0 / zeta
    eigs = np.linalg.eigvals(full)
    dist = float(np.min(np.abs(eigs - target))) if eigs.size else np.inf
    direct = dist <= nk.EIG_MERGE_GAP
    if direct != eigen:
        raise InternalDisagreement(
            f"kernel margin {margin:.3e} vs spectrum distance {dist:.3e}")
    return GapCriteria(eigen, bool(onto_diff and covers), {
        "kernel_margin": margin,
        "cover_margin": cover_margin,
        "spectrum_distance": dist,
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


def in_space_atoms(op: PartialOperator, param: ContractionParam, anchor: complex,
                   tol: TolPolicy = DEFAULT_TOL) -> SpectralAtoms | None:
    """Atoms of the extension that a constant unitary parameter defines inside
    the space; None for other parameters and for non-self-adjoint extensions."""
    if param.kind != "constant":
        return None
    value = param.form[1]
    gram = value.conj().T @ value
    if value.shape[0] != value.shape[1] or nk.op_norm(gram - np.eye(value.shape[1])) > nk.STRUCT_GATE:
        return None
    model = _Side.of(op, complex(anchor), tol).in_space_model(value)
    return None if model is None else spectral_measure(model, tol)


def gap_report(op: PartialOperator, param: ContractionParam, anchor: complex,
               region: ArcSpec, grid_size: int = 64,
               tol: TolPolicy = DEFAULT_TOL) -> GapReport:
    """Decide whether the parameter's spectral measure vanishes on a region.

    Per grid point the continued parameter is checked for unitarity and for an
    invertibility margin against the comparison map; the margin function is
    then refined between grid points.  The verdict says the region is free of
    atoms.  For constant unitary parameters the in-space extension provides the
    atom-side ground truth and the verdicts are cross-checked.
    """
    side = _Side.of(op, complex(anchor), tol)
    if region.kind != side.kind:
        raise ValueError(f"gap regions of this operator are {side.kind} regions")

    def margin_at(point: complex, value: CMatrix) -> float:
        w = _anchored_gap_map(side, point)
        return _margin(value, side.dst.n_space.basis.conj().T @ w.matrix)

    records = []
    grid = region.grid(grid_size)
    for x in grid:
        point = side.point(x)
        reg = side.regular_point(point)
        ok, bound = is_regular_type(op, reg, tol)
        if not ok:
            raise NotRegularType(reg, bound)
        m_img = defect_subspaces(op, side.image_point(point), tol).m_space
        cov = side.dst.m_space.basis.conj().T @ m_img.basis
        if cov.shape[0] != cov.shape[1]:
            raise PreconditionViolated(f"shifted ranges do not balance at {x}")
        covering = float(np.linalg.svd(cov, compute_uv=False)[-1]) if cov.size else np.inf
        if covering <= GAP_GATE:
            raise PreconditionViolated(f"range covering fails at {x}")
        value = param(point)
        jump = nk.op_norm(value - param(side.jump_probe(point))) \
            if param.kind == "callback" else 0.0
        gram_l = nk.op_norm(value.conj().T @ value - np.eye(value.shape[1]))
        gram_r = nk.op_norm(value @ value.conj().T - np.eye(value.shape[0]))
        records.append(GapPointRecord(point, bound, covering, margin_at(point, value),
                                      max(gram_l, gram_r), jump))

    def gfun(x: float) -> float:
        point = side.point(x)
        return margin_at(point, param(point))

    _require_regular_region(op, region, grid,
                            np.array([r.regular_bound for r in records]), tol)
    refined, _ = _refine_minima(gfun, grid, np.array([r.margin for r in records]),
                                region.lo, region.hi)
    unit_ok = all(r.unitarity_defect <= GAP_GATE for r in records)
    cont_ok = all(r.continuation_jump <= 1e-4 for r in records)
    analytic = bool(refined > GAP_GATE and unit_ok and cont_ok)

    atoms = in_space_atoms(op, param, anchor, tol)
    atoms_inside = None
    if atoms is not None:
        atoms_inside = any(region.contains(loc) for loc, _ in atoms.atoms)
        if atoms_inside == analytic:
            raise InternalDisagreement(
                f"margin verdict {analytic} vs atoms in region {atoms_inside}")
    return GapReport(region, tuple(records), refined, analytic,
                     param.kind in ("constant", "affine"), atoms, atoms_inside)


def _margin(value: CMatrix, w_coords: CMatrix) -> float:
    diff = value - w_coords
    if diff.size == 0:
        return np.inf
    return float(np.linalg.svd(diff, compute_uv=False)[-1])


def _golden_min(gfun, lo: float, hi: float, iters: int = 90) -> tuple[float, float]:
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
    for _ in range(iters):
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
                            bounds: np.ndarray, tol: TolPolicy) -> None:
    """Certify the regular-type hypothesis on the whole region, not just the grid.

    Points of the operator's own approximate point spectrum inside the region
    are invisible to the parameter-side margins, so the lower-bound function is
    refined between grid points as well.
    """
    if op.dom.dim == 0:
        return

    def rfun(x: float) -> float:
        point = np.exp(1j * x) if region.kind == "circle" else complex(x)
        return is_regular_type(op, point, tol)[1]

    refined, at = _refine_minima(rfun, grid, bounds, region.lo, region.hi)
    if refined <= tol.threshold(2.0, op.ambient_dim):
        point = np.exp(1j * at) if region.kind == "circle" else complex(at)
        raise NotRegularType(point, refined)


@dataclass(frozen=True)
class DecompositionCheck:
    dom_split: bool
    ran_split: bool
    detail: dict


def decomposition_check(v: IsometryOp, zeta: complex,
                        tol: TolPolicy = DEFAULT_TOL) -> DecompositionCheck:
    """Whether domain + defect and range + defect both span the whole space."""
    zeta = complex(zeta)
    ok, bound = is_regular_type(v, 1.0 / zeta, tol)
    if not ok:
        raise NotRegularType(1.0 / zeta, bound)
    n = v.ambient_dim
    n_zeta = defect_subspaces(v, zeta, tol).n_space
    results = {}
    for name, frame in (("dom", v.dom.basis), ("ran", v.ran_basis)):
        stacked = np.hstack([frame, n_zeta.basis])
        if stacked.shape[1] != n:
            results[name] = (False, 0.0)
            continue
        s = np.linalg.svd(stacked, compute_uv=False)
        results[name] = (bool(s[-1] > tol.threshold(max(float(s[0]), 1.0), n)), float(s[-1]))
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


def eigen_vector_structure(v: IsometryOp, c: CMatrix, zeta: complex,
                           tol: TolPolicy = DEFAULT_TOL) -> EigenvectorData | None:
    """Eigenvector of the direct sum at 1/zeta with its shadow identities.

    Returns None when 1/zeta is not an eigenvalue.  Otherwise the eigenvector
    lies in the defect space at zeta, the operator carries its domain shadow to
    1/zeta times the range shadow, and the parameter does the same between the
    defect complements.
    """
    zeta = complex(zeta)
    c = nk.as_cmatrix(c)
    n = v.ambient_dim
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0, tol))
    full = v.ambient_partial() + ninf.basis @ c @ n0.basis.conj().T
    target = 1.0 / zeta
    system = full - target * np.eye(n)
    u, s, vh = np.linalg.svd(system)
    if s.size == 0 or s[-1] > nk.EIG_MERGE_GAP:
        return None
    vec = vh.conj().T[:, -1]
    del u
    pair = defect_subspaces(v, zeta, tol)
    defect_res = float(np.linalg.norm(nk.projector(pair.m_space) @ vec))
    p_m0 = nk.projector(Subspace(n, v.dom.basis))
    p_minf = nk.projector(Subspace(n, v.ran_basis))
    dom_res = float(np.linalg.norm(
        v.ambient_partial() @ (p_m0 @ vec) - target * (p_minf @ vec)))
    par_res = float(np.linalg.norm(
        ninf.basis @ c @ (n0.basis.conj().T @ vec) - target * (nk.projector(ninf) @ vec)))
    checks = (defect_res, dom_res, par_res)
    if max(checks) > 1e-9 * max(1.0, float(np.linalg.norm(vec))):
        raise InternalDisagreement(f"shadow identities violated: {checks}")
    return EigenvectorData(target, vec, defect_res, dom_res, par_res)


@dataclass(frozen=True)
class BoundednessProbe:
    max_norm: float
    mean_value_residual: float
    bounded: bool


def resolvent_boundedness_probe(r: ResolventModel, region: ArcSpec, grid_size: int = 16,
                                norm_cap: float = 1e6) -> BoundednessProbe:
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
            max_norm = max(max_norm, nk.op_norm(val))
            rho = 1e-3
            ring = [center + rho * np.exp(2j * np.pi * k / 16) for k in range(16)]
            mean = sum(r(w, boundary_ok=True) for w in ring) / 16.0
            residual = max(residual, nk.op_norm(mean - val) / max(1.0, nk.op_norm(val)))
        except SingularSystem:
            return BoundednessProbe(np.inf, np.inf, False)
    return BoundednessProbe(max_norm, residual, bool(max_norm < norm_cap and residual < 1e-8))
