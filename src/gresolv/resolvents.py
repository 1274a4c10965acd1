"""Generalized-resolvent evaluation by every parametrization, parameter recovery,
and the cross-formula identities.

A generalized resolvent is the compression to the inner space of the resolvent
of a unitary (isometric case) or self-adjoint (symmetric case) extension in a
possibly larger space.  ``dilation_resolvent`` computes that compression
directly from an explicit model and serves as the independent oracle for
every formula evaluator in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numkernel as nk
from .errors import (NotContraction, NumericalFailure, PointExcluded, Singular,
                     SingularSystem)
from .extensions import (ExitSpaceModel, PartialMap, BlockParam,
                         compressed_extension, is_admissible,
                         neumann_extension, neumann_parameter)
from .numkernel import CMatrix, DEFAULT_TOL, Subspace, TolPolicy
from .operators import (INFINITY, IsometryOp, PartialOperator, SymmetricOp,
                        defect_subspaces, orthogonal_extension, parameter_frames)


def halfplane_to_disk(lam: complex, anchor: complex) -> complex:
    """The fractional map (lam - anchor)/(lam - conj(anchor))."""
    return (lam - anchor) / (lam - np.conj(anchor))


def disk_to_halfplane(zeta: complex, anchor: complex) -> complex:
    """Inverse of ``halfplane_to_disk``."""
    return (anchor - np.conj(anchor) * zeta) / (1.0 - zeta)


def same_halfplane(a: complex, b: complex) -> bool:
    return a.imag * b.imag > 0


@dataclass(frozen=True)
class ContractionParam:
    """A family of contractions between two defect subspaces.

    ``form`` is one of ``('constant', K)``, ``('affine', K0, K1)`` or
    ``('callback', fn)``; coordinates refer to the ``src`` and ``dst`` frames.
    Constant and affine families are certified non-expanding at construction;
    callbacks are checked on every call.  When ``anchor`` is set, the family
    lives on the half-plane of the anchor and the affine variable is the image
    of the evaluation point under the fractional map onto the disk.
    """

    src: Subspace
    dst: Subspace
    form: tuple
    certified_bound: float
    anchor: complex | None = None

    @classmethod
    def constant(cls, src: Subspace, dst: Subspace, k, anchor: complex | None = None):
        k = nk.as_cmatrix(k)
        bound = nk.op_norm(k)
        if bound > 1.0 + 1e-10:
            raise NotContraction(f"constant parameter has norm {bound:.6f}")
        return cls(src, dst, ("constant", k), bound, anchor)

    @classmethod
    def affine(cls, src: Subspace, dst: Subspace, k0, k1, anchor: complex | None = None):
        k0, k1 = nk.as_cmatrix(k0), nk.as_cmatrix(k1)
        bound = nk.op_norm(k0) + nk.op_norm(k1)
        if bound > 1.0 + 1e-10:
            raise NotContraction(f"affine parameter norm bound {bound:.6f} exceeds 1")
        return cls(src, dst, ("affine", k0, k1), bound, anchor)

    @classmethod
    def callback(cls, src: Subspace, dst: Subspace, fn: Callable[[complex], CMatrix],
                 anchor: complex | None = None):
        return cls(src, dst, ("callback", fn), 1.0, anchor)

    @property
    def kind(self) -> str:
        return self.form[0]

    def disk_variable(self, point: complex) -> complex:
        return point if self.anchor is None else halfplane_to_disk(point, self.anchor)

    def __call__(self, point: complex) -> CMatrix:
        if self.kind == "constant":
            return self.form[1]
        if self.kind == "affine":
            w = self.disk_variable(point)
            return self.form[1] + w * self.form[2]
        value = nk.as_cmatrix(self.form[1](point))
        if value.shape != (self.dst.dim, self.src.dim):
            raise ValueError(f"callback returned shape {value.shape}")
        if nk.op_norm(value) > 1.0 + 1e-10:
            raise NotContraction(f"callback value has norm {nk.op_norm(value):.6f}")
        return value

    def boundary_limit(self) -> CMatrix | None:
        """Closed-form limit toward the boundary point 1 of the disk variable
        (the sectorial limit at infinity for half-plane families)."""
        if self.kind == "constant":
            return self.form[1]
        if self.kind == "affine":
            return self.form[1] + self.form[2]
        return None


@dataclass(frozen=True)
class RaySpec:
    """Sample points m * exp(i angle) marching to infinity inside a sector."""

    anchor: complex
    angle: float
    magnitudes: tuple
    epsilon: float = 0.1

    def __post_init__(self):
        if self.anchor.imag == 0:
            raise ValueError("anchor must be non-real")
        if not 0 < self.epsilon < np.pi / 2:
            raise ValueError("sector parameter must lie in (0, pi/2)")
        mags = tuple(float(m) for m in self.magnitudes)
        if any(m <= 0 for m in mags) or any(b <= a for a, b in zip(mags, mags[1:])):
            raise ValueError("magnitudes must be positive and increasing")
        for p in self.points():
            arg = abs(np.angle(p))
            if not (self.epsilon < arg < np.pi - self.epsilon):
                raise ValueError(f"ray point {p} leaves the sector")
            if not same_halfplane(p, self.anchor):
                raise ValueError(f"ray point {p} leaves the anchor half-plane")

    def points(self) -> list[complex]:
        return [complex(m * np.exp(1j * self.angle)) for m in self.magnitudes]

    @classmethod
    def imaginary(cls, anchor: complex = 1j, decades: int = 6) -> "RaySpec":
        angle = np.pi / 2 if anchor.imag > 0 else -np.pi / 2
        return cls(anchor, angle, tuple(10.0 ** k for k in range(1, decades + 1)))


@dataclass(frozen=True)
class ResolventModel:
    """An evaluable generalized resolvent tagged with its provenance."""

    ambient_dim: int
    side: str  # 'isometric' | 'symmetric'
    provenance: str  # 'direct-sum' | 'anchored' | 'extension' | 'dilation'
    operator: PartialOperator
    _eval: Callable[[complex, bool], CMatrix] = field(repr=False)

    def __call__(self, point: complex, boundary_ok: bool = False) -> CMatrix:
        return self._eval(complex(point), boundary_ok)

    @classmethod
    def from_direct_sum(cls, v: IsometryOp, param: ContractionParam,
                        tol: TolPolicy = DEFAULT_TOL) -> "ResolventModel":
        def ev(point, boundary_ok):
            return direct_sum_resolvent(v, param, point, tol, boundary_ok)
        return cls(v.ambient_dim, "isometric", "direct-sum", v, ev)

    @classmethod
    def from_anchored(cls, v: IsometryOp, param: ContractionParam, z0: complex,
                      tol: TolPolicy = DEFAULT_TOL) -> "ResolventModel":
        def ev(point, boundary_ok):
            return anchored_resolvent(v, param, z0, point, tol, boundary_ok)
        return cls(v.ambient_dim, "isometric", "anchored", v, ev)

    @classmethod
    def from_extension_family(cls, a: SymmetricOp, param: ContractionParam,
                              anchor: complex,
                              tol: TolPolicy = DEFAULT_TOL) -> "ResolventModel":
        def ev(point, boundary_ok):
            return extension_resolvent(a, param, anchor, point, tol, boundary_ok)
        return cls(a.ambient_dim, "symmetric", "extension", a, ev)

    @classmethod
    def from_dilation(cls, model: ExitSpaceModel, tol: TolPolicy = DEFAULT_TOL) -> "ResolventModel":
        side = "isometric" if model.kind == "unitary" else "symmetric"

        def ev(point, boundary_ok):
            return dilation_resolvent(model, point, tol)
        return cls(model.inner_dim, side, "dilation", model.embeds, ev)


def _disk_resolvent(n: int, zeta: complex, boundary_ok: bool, tol: TolPolicy,
                    matrix_at: Callable[[complex], CMatrix]) -> CMatrix:
    """Resolvent value [E - zeta T(zeta)]^{-1} of a disk family of operators.

    ``matrix_at`` builds T at interior points.  Exterior points are evaluated
    through the adjoint identity R(zeta)* = E - R(1/conj(zeta)); the value at
    0 is exactly the identity.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) < 1e-14 and not boundary_ok:
        raise PointExcluded(f"unimodular point {zeta}")
    if zeta == 0:
        return np.eye(n, dtype=np.complex128)
    if abs(zeta) > 1.0:
        inner = _disk_resolvent(n, 1.0 / np.conj(zeta), boundary_ok, tol, matrix_at)
        return np.eye(n) - inner.conj().T
    try:
        return nk.solve(np.eye(n) - zeta * matrix_at(zeta), np.eye(n), tol)
    except Singular as exc:
        raise SingularSystem(zeta, exc.smallest_sv) from exc


def direct_sum_resolvent(v: IsometryOp, param: ContractionParam, zeta: complex,
                         tol: TolPolicy = DEFAULT_TOL,
                         boundary_ok: bool = False) -> CMatrix:
    """Resolvent value [E - zeta (V + F(zeta))]^{-1} of the direct-sum family."""
    def matrix_at(point: complex) -> CMatrix:
        return v.ambient_partial() + param.dst.basis @ param(point) @ param.src.basis.conj().T
    return _disk_resolvent(v.ambient_dim, zeta, boundary_ok, tol, matrix_at)


def anchored_resolvent(v: IsometryOp, param: ContractionParam, z0: complex,
                       zeta: complex, tol: TolPolicy = DEFAULT_TOL,
                       boundary_ok: bool = False) -> CMatrix:
    """Resolvent value [E - zeta V_C]^{-1} with the orthogonal extension built
    from the parameter value at zeta and the anchor z0.

    Coincides with ``direct_sum_resolvent`` when z0 = 0.
    """
    def matrix_at(point: complex) -> CMatrix:
        return orthogonal_extension(v, param(point), z0, tol).matrix
    return _disk_resolvent(v.ambient_dim, zeta, boundary_ok, tol, matrix_at)


def dilation_resolvent(model: ExitSpaceModel, point: complex,
                       tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """Upper-left block of the resolvent of the big operator.

    This is the independent oracle for every formula evaluator.  Unimodular
    (unitary case) and real (hermitian case) probes are attempted directly and
    raise ``SingularSystem`` when the point hits the spectrum.
    """
    point = complex(point)
    n, total = model.inner_dim, model.total_dim
    eye = np.eye(total, dtype=np.complex128)
    system = eye - point * model.big_op if model.kind == "unitary" \
        else model.big_op - point * eye
    try:
        big = nk.solve(system, eye, tol)
    except Singular as exc:
        raise SingularSystem(point, exc.smallest_sv) from exc
    return big[:n, :n]


def recover_parameter(r: ResolventModel, zeta: complex,
                      tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """Defect-to-defect block of (1/zeta)(E - R(zeta)^{-1}).

    Recovers the value of the direct-sum parameter at an interior point from
    any generalized resolvent of the isometry carried by the model: the
    anchored recovery at z0 = 0.
    """
    if not isinstance(r.operator, IsometryOp):
        raise TypeError("parameter recovery applies to isometric-side models")
    return recover_anchored_parameter(r, 0.0, zeta, tol)


def recovered_parameter_family(r: ResolventModel, tol: TolPolicy = DEFAULT_TOL) -> ContractionParam:
    """The recovered parameter as an evaluable family (limit taken at 0)."""
    v = r.operator
    n0 = defect_subspaces(v, 0.0, tol).n_space
    ninf = defect_subspaces(v, INFINITY, tol).n_space

    def fn(zeta: complex) -> CMatrix:
        if zeta == 0:
            h = 1e-5
            return 2.0 * recover_parameter(r, h, tol) - recover_parameter(r, 2 * h, tol)
        return recover_parameter(r, zeta, tol)

    return ContractionParam.callback(n0, ninf, fn)


def recover_anchored_parameter(r: ResolventModel, z0: complex, zeta: complex,
                               tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """Anchor-z0 parameter value recovered from a generalized resolvent.

    Inverts the orthogonal-extension correspondence: the full operator
    (1/zeta)(E - R(zeta)^{-1}) is pulled back through the anchored fractional
    identity and compressed to the defect block.
    """
    zeta = complex(zeta)
    if zeta == 0 or abs(zeta) >= 1:
        raise PointExcluded("recovery needs an interior point distinct from 0")
    n = r.ambient_dim
    src, dst = (pair.n_space for pair in parameter_frames(r.operator, z0, tol))
    try:
        t_full = (np.eye(n) - nk.inv(r(zeta), tol)) / zeta
    except Singular as exc:
        raise SingularSystem(zeta, exc.smallest_sv) from exc
    if z0 == 0:
        plus = t_full
    else:
        plus = -np.eye(n) / z0 + (1 - abs(z0) ** 2) / z0 * nk.inv(np.eye(n) - z0 * t_full, tol)
    return dst.basis.conj().T @ plus @ src.basis


DEFAULT_DISK_SAMPLES = tuple(
    complex(r * np.exp(1j * th))
    for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 2.5, 5.0)
    for th in (0.3, 1.1, 2.0, 2.9, 4.1)
)

DEFAULT_HALFPLANE_SAMPLES = tuple(
    complex(re + 1j * im)
    for im in (0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0)
    for re in (-2.0, -0.5, 0.0, 1.0, 3.0)
)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple
    all_passed: bool

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_resolvent_axioms(r: ResolventModel, v: IsometryOp,
                            samples=DEFAULT_DISK_SAMPLES,
                            tol: TolPolicy = DEFAULT_TOL,
                            gate: float = 1e-9) -> AxiomReport:
    """Check the five characterizing conditions of a generalized resolvent.

    1) R(zeta)(E - zeta V) g = g on the domain; 2) R(0) = E and fixes the
    domain complement; 3) the real quadratic form bound on both sides of the
    circle; 4) a mean-value analyticity proxy; 5) the adjoint identity between
    reflected points.  Failures are reported, not raised.
    """
    n = v.ambient_dim
    eye = np.eye(n)
    interior = [z for z in samples if abs(z) < 1]
    exterior = [z for z in samples if abs(z) > 1]

    res1 = 0.0
    if v.dom.dim:
        shifted = {z: v.dom.basis - z * v.ran_basis for z in samples}
        for z in samples:
            res1 = max(res1, nk.op_norm(r(z) @ shifted[z] - v.dom.basis))

    r0 = r(0.0)
    res2 = nk.op_norm(r0 - eye)
    comp = nk.orthogonal_complement(v.dom, tol)
    if comp.dim:
        res2 = max(res2, nk.op_norm(r0 @ comp.basis - comp.basis))

    res3 = 0.0
    for z in interior + exterior:
        # Re R - E/2 is positive inside the circle and negative outside
        w = np.linalg.eigvalsh((r(z) + r(z).conj().T) / 2.0 - eye / 2.0)
        res3 = max(res3, max(0.0, -float(w[0]) if abs(z) < 1 else float(w[-1])))

    res4 = 0.0
    for z in samples:
        radius = 0.05 * max(abs(abs(z) - 1.0), 1e-2)
        ring = [z + radius * np.exp(2j * np.pi * k / 16) for k in range(16)]
        if any(abs(abs(w) - 1.0) < 1e-12 for w in ring):
            continue
        mean = sum(r(w) for w in ring) / 16.0
        res4 = max(res4, nk.op_norm(mean - r(z)))

    res5 = 0.0
    for z in interior:
        if z == 0:
            continue
        res5 = max(res5, nk.op_norm(r(z).conj().T - (eye - r(1.0 / np.conj(z)))))

    checks = (
        AxiomCheck("domain-identity", res1 <= gate, res1),
        AxiomCheck("normalization-at-zero", res2 <= gate, res2),
        AxiomCheck("real-part-bound", res3 <= gate, res3),
        AxiomCheck("analyticity-mean-value", res4 <= gate, res4),
        AxiomCheck("adjoint-reflection", res5 <= gate, res5),
    )
    return AxiomReport(checks, all(c.passed for c in checks))


def cayley_transfer(r_in: ResolventModel, z: complex, direction: str, point: complex,
                    tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """Affine transfer between symmetric-side and isometric-side resolvents.

    'sym->iso' evaluates the resolvent of the transformed isometry at an
    interior/exterior point; 'iso->sym' goes the other way.  Points where the
    fractional map degenerates are rejected.
    """
    point = complex(point)
    eye = np.eye(r_in.ambient_dim)
    if z.imag == 0:
        raise ValueError("transform anchor must be non-real")
    if direction == "sym->iso":
        if point == 0 or abs(abs(point) - 1.0) < 1e-14:
            raise PointExcluded(f"point {point} is degenerate for the transfer")
        lam = disk_to_halfplane(point, z)
        factor = (lam - np.conj(z)) / (z - np.conj(z))
        return factor * eye + factor * (lam - z) * r_in(lam)
    if direction == "iso->sym":
        lam = point
        if lam == z or lam == np.conj(z) or lam.imag == 0:
            raise PointExcluded(f"point {point} is degenerate for the transfer")
        zeta = halfplane_to_disk(lam, z)
        factor = (lam - np.conj(z)) / (z - np.conj(z))
        return (r_in(zeta) - factor * eye) / (factor * (lam - z))
    raise ValueError(f"unknown direction {direction!r}")


def extension_resolvent(a: SymmetricOp, param: ContractionParam, anchor: complex,
                        lam: complex, tol: TolPolicy = DEFAULT_TOL,
                        boundary_ok: bool = False, validate: bool = True) -> CMatrix:
    """Resolvent value (A_{F(lam)} - lam E)^{-1} of the extension family.

    On the anchor half-plane the extension is built from the parameter value
    at lam; on the conjugate half-plane from the adjoint value at conj(lam),
    anchored at conj(anchor).  Admissibility is checked at the evaluated point.
    """
    lam = complex(lam)
    n = a.ambient_dim
    if lam.imag == 0 and not boundary_ok:
        raise PointExcluded(f"real point {lam}")
    if anchor.imag == 0:
        raise ValueError("anchor must be non-real")
    if lam.imag == 0 or same_halfplane(lam, anchor):
        value = param(lam)
        z = anchor
    else:
        value = param(np.conj(lam)).conj().T
        z = np.conj(anchor)
    src, dst = (pair.n_space for pair in parameter_frames(a, z, tol))
    tmap = PartialMap.from_coords(src, dst, value)
    ext, _ = neumann_extension(a, z, tmap, tol, validate=validate)
    if not ext.is_everywhere_defined:
        raise NumericalFailure("full-defect parameter produced a partial extension")
    try:
        return nk.solve(ext.full_matrix() - lam * np.eye(n), np.eye(n), tol)
    except Singular as exc:
        raise SingularSystem(lam, exc.smallest_sv) from exc


def generating_extension(r: ResolventModel, lam: complex,
                         tol: TolPolicy = DEFAULT_TOL) -> PartialOperator:
    """The extension family value R(lam)^{-1} + lam E as an operator record."""
    lam = complex(lam)
    n = r.ambient_dim
    try:
        mat = nk.inv(r(lam), tol) + lam * np.eye(n)
    except Singular as exc:
        raise SingularSystem(lam, exc.smallest_sv) from exc
    return PartialOperator(n, Subspace.full(n), mat)


def defect_block(r: ResolventModel, a: SymmetricOp, anchor: complex, lam: complex,
                 tol: TolPolicy = DEFAULT_TOL, validate: bool = True) -> CMatrix:
    """Defect-block Cayley transform of the extension family at the anchor.

    Returns the coordinates of the contraction from the defect space at the
    anchor into the conjugate one; with ``validate`` the extension is
    reassembled from the result and compared against the family value.
    """
    lam = complex(lam)
    if not same_halfplane(lam, anchor):
        raise PointExcluded("evaluation point must share the anchor half-plane")
    n = a.ambient_dim
    r_val = r(lam)
    # Cayley block computed without forming the extension family explicitly:
    # stays well conditioned even far out on the ray
    core = np.eye(n) + (lam - anchor) * r_val
    try:
        cayley = np.eye(n) + (anchor - np.conj(anchor)) * nk.solve(core, r_val, tol)
    except Singular as exc:
        raise SingularSystem(lam, exc.smallest_sv) from exc
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor, tol))
    image = cayley @ src.basis
    coords = dst.basis.conj().T @ image
    leak = nk.op_norm(image - dst.basis @ coords)
    if leak > 1e-8 * max(1.0, nk.op_norm(image)):
        raise NumericalFailure(f"defect block leaks out of the target space ({leak:.3e})")
    # far out on a ray the formation of the core loses |lam| * eps relative
    # accuracy to cancellation, so the contraction gate grows with the point
    gate = max(1e-10, 256.0 * np.finfo(float).eps * abs(lam))
    if nk.op_norm(coords) > 1.0 + gate:
        raise NotContraction(f"defect block has norm {nk.op_norm(coords):.6f}")
    if validate:
        tmap = PartialMap.from_coords(src, dst, coords)
        ext, _ = neumann_extension(a, anchor, tmap, tol, validate=False)
        res = nk.op_norm((ext.full_matrix() - lam * np.eye(n)) @ r_val - np.eye(n))
        if res > 1e-9 * max(1.0, nk.op_norm(ext.full_matrix() @ r_val)):
            raise NumericalFailure(f"reassembled extension differs ({res:.3e})")
    return coords


def defect_block_family(r: ResolventModel, a: SymmetricOp, anchor: complex,
                        tol: TolPolicy = DEFAULT_TOL,
                        validate: bool = False) -> ContractionParam:
    """The defect-block family of a resolvent model as an evaluable parameter."""
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor, tol))
    return ContractionParam.callback(
        src, dst, lambda lam: defect_block(r, a, anchor, lam, tol, validate=validate),
        anchor=anchor)


def characteristic_function(a: SymmetricOp, anchor: complex, lam: complex,
                            tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """The contraction-valued function encoding a symmetric operator.

    Computed through the skew projection onto the defect space at the anchor
    parallel to the shifted range at lam, scaled by the fractional factor.
    The norm never exceeds the modulus of that factor, and images satisfy the
    shifted-range membership relation.
    """
    lam, z = complex(lam), complex(anchor)
    if z.imag == 0:
        raise ValueError("anchor must be non-real")
    if lam != z and not same_halfplane(lam, z):
        raise PointExcluded("evaluation point must share the anchor half-plane")
    n = a.ambient_dim
    nz, nzbar = (pair.n_space for pair in parameter_frames(a, z, tol))
    if nz.dim == 0 or nzbar.dim == 0:
        return np.zeros((nz.dim, nzbar.dim), dtype=np.complex128)
    # everywhere-defined extension sending f + psi to A f + conj(z) psi
    raw_dom = np.hstack([a.dom.basis, nz.basis])
    raw_img = np.hstack([a.action, np.conj(z) * nz.basis])
    if raw_dom.shape[1] != n:
        raise NumericalFailure("domain and defect do not span the space")
    a_ext = raw_img @ nk.solve(raw_dom, np.eye(n), tol)
    eye = np.eye(n)
    try:
        resolv = nk.solve(a_ext - lam * eye, eye, tol)
    except Singular as exc:
        raise SingularSystem(lam, exc.smallest_sv) from exc
    skew = ((lam - np.conj(z)) / (z - np.conj(z))) * (nk.projector(nz) @ (a_ext - z * eye) @ resolv)
    factor = (lam - z) / (lam - np.conj(z))
    coords = factor * (nz.basis.conj().T @ skew @ nzbar.basis)
    bound = abs(factor)
    if nk.op_norm(coords) > bound + 1e-10:
        raise NumericalFailure(
            f"characteristic value norm {nk.op_norm(coords):.6f} exceeds its bound {bound:.6f}")
    # membership of the images in the shifted range
    mlam = defect_subspaces(a, lam, tol).m_space
    probe = (lam - z) * nzbar.basis - (lam - np.conj(z)) * (nz.basis @ coords)
    res = nk.op_norm(probe - nk.projector(mlam) @ probe)
    if res > 1e-9 * max(1.0, nk.op_norm(probe)):
        raise NumericalFailure(f"characteristic images leave the shifted range ({res:.3e})")
    return coords


def defect_block_via_characteristic(block: BlockParam, exit_op: SymmetricOp,
                                    anchor: complex, lam: complex,
                                    tol: TolPolicy = DEFAULT_TOL) -> CMatrix:
    """Defect-block family computed from the exit-space characteristic function.

    Equals the block recovered from the dilation resolvent of the same model:
    t11 + t12 (E - C_e t22)^{-1} C_e t21 with C_e the characteristic function
    of the exit operator.
    """
    c_e = characteristic_function(exit_op, anchor, lam, tol)
    m_src = c_e.shape[0]
    core = np.eye(m_src) - c_e @ block.t22
    return block.t11 + block.t12 @ nk.solve(core, c_e @ block.t21, tol)


def membership_quantity(values: CMatrix, lam: complex) -> np.ndarray:
    """Per-basis-column values |lam| (1 - ||F psi||) of the domain criterion."""
    norms = np.linalg.norm(values, axis=0)
    return abs(lam) * (1.0 - norms)


@dataclass(frozen=True)
class BoundaryParameterReport:
    """Direct boundary parameter, ray errors, and membership quantities."""

    direct: PartialMap
    ray_points: tuple
    limit_errors: np.ndarray  # (#ray, dim source) per-basis-vector errors
    membership: np.ndarray  # (#ray, dim defect) domain-criterion quantities


def boundary_parameter(a: SymmetricOp, model: ExitSpaceModel, anchor: complex,
                       ray: RaySpec,
                       tol: TolPolicy = DEFAULT_TOL) -> BoundaryParameterReport:
    """Boundary parameter of the compressed big operator and its sectorial limits.

    The direct route reads the parameter off the compression of the model; the
    limit route evaluates the defect-block family along the ray and reports the
    per-vector errors and the membership quantities.  Convergence is reported,
    never extrapolated.
    """
    if model.kind != "hermitian":
        raise ValueError("boundary parameters are defined for hermitian models")
    compressed = compressed_extension(model, tol)
    direct = neumann_parameter(compressed, a, anchor, tol)
    if not direct.is_isometric(1e-8):
        raise NumericalFailure("compressed operator parameter is not isometric")
    if not is_admissible(a, anchor, direct, tol):
        raise NumericalFailure("compressed operator parameter is not admissible")
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor, tol))
    direct_coords = dst.basis.conj().T @ direct.ambient() @ src.basis
    r = ResolventModel.from_dilation(model, tol)
    points = tuple(ray.points())
    errors = np.zeros((len(points), src.dim))
    member = np.zeros((len(points), src.dim))
    for i, lam in enumerate(points):
        fk = defect_block(r, a, anchor, lam, tol, validate=False)
        errors[i] = np.linalg.norm(fk - direct_coords, axis=0)
        member[i] = membership_quantity(fk, lam)
    return BoundaryParameterReport(direct, points, errors, member)


@dataclass(frozen=True)
class ClassVerdict:
    """Admissible-class verdict; ``exact`` is False for sampled callbacks."""

    admissible: bool
    exact: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admissible


def admissible_class_check(param: ContractionParam, a: SymmetricOp, anchor: complex,
                           ray: RaySpec, tol: TolPolicy = DEFAULT_TOL) -> ClassVerdict:
    """Whether a parameter family stays clear of the forbidden operator at infinity.

    A family fails when some non-zero defect vector is carried to its forbidden
    image in the sectorial limit while the norm defect stays summable.  For
    constant and affine forms the limit is closed-form and the verdict exact;
    callbacks are sampled along the ray and flagged approximate.
    """
    from .extensions import forbidden_operator

    x = forbidden_operator(a, anchor, tol)
    if x.dim == 0:
        return ClassVerdict(True, True, "dense domain, every family is admissible")
    n = a.ambient_dim
    limit = param.boundary_limit()
    if limit is not None:
        limit_map = PartialMap.from_coords(param.src, param.dst, limit)
        common = nk.intersect(param.src, x.src, tol)
        if common.dim == 0:
            return ClassVerdict(True, True, "no overlap with the forbidden domain")
        diff = (limit_map.ambient() - x.ambient()) @ common.basis
        s = np.linalg.svd(diff, compute_uv=False)
        ok = bool(s[-1] > tol.threshold(max(float(s[0]), 1.0), n))
        return ClassVerdict(ok, True, f"limit separation {float(s[-1]):.3e}")

    # sampled verdict for callbacks: locate the best candidate for a violating
    # direction at the far end of the ray and track it backwards
    points = ray.points()
    far = points[-1]
    value = param(far)
    vmap = PartialMap.from_coords(param.src, param.dst, value)
    common = nk.intersect(param.src, x.src, tol)
    if common.dim == 0:
        return ClassVerdict(True, False, "no overlap with the forbidden domain")
    diff = (vmap.ambient() - x.ambient()) @ common.basis
    _, s, vh = np.linalg.svd(diff)
    candidate = common.basis @ vh.conj().T[:, -1]
    psi_coords = param.src.basis.conj().T @ candidate
    target = x.ambient() @ candidate
    residuals = []
    quantities = []
    for lam in points:
        val = param(lam)
        img = param.dst.basis @ (val @ psi_coords)
        residuals.append(float(np.linalg.norm(img - target)))
        quantities.append(abs(lam) * (1.0 - float(np.linalg.norm(val @ psi_coords))))
    collides = residuals[-1] < 1e-6
    bounded = abs(quantities[-1]) <= 10.0 * max(1.0, abs(quantities[0]))
    return ClassVerdict(not (collides and bounded), False,
                        f"ray quantities {quantities[0]:.3e} -> {quantities[-1]:.3e}")
