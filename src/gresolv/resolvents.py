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
from .errors import NotContraction, NumericalFailure, PointExcluded, Singular
from .extensions import (ExitSpaceModel, PartialMap, BlockParam, _closed_block,
                         _neumann_extension, _neumann_frame, _neumann_input,
                         compressed_extension, forbidden_operator, neumann_parameter)
from .numkernel import CMatrix, Subspace
from .operators import (IsometryOp, PartialOperator, SymmetricOp, _comparison_coords, _direct_sum,
                        _inv_at, _kept, _orthogonal_extension, parameter_frames, require_nonreal)


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
    ``('callback', fn)``; coordinates refer to the ``src`` and ``dst`` frames
    (``in_frames`` rewrites them into others).  Constant and affine matrices
    are checked for norm and shape at construction, by every constructor.
    When ``anchor`` is set, the family lives on the half-plane of the anchor
    and the affine variable is the image of the point under the fractional map.

    Every value a call returns is a decided contraction: a constant one and
    an affine one inside the closed unit disk of the variable by the checks
    at construction, any other on the call.  Formulas that evaluate a family
    do not check its values again.
    """

    src: Subspace
    dst: Subspace
    form: tuple
    anchor: complex | None = None

    def __post_init__(self):
        if self.kind == "callback":
            return
        if self.kind == "constant":
            nk.check_contraction(self.form[1], "constant parameter norm")
        else:
            nk.check_contraction(nk.op_norm(self.form[1]) + nk.op_norm(self.form[2]),
                                 "affine parameter norm bound")
        shape = (self.dst.dim, self.src.dim)
        for k in self.form[1:]:
            if k.shape != shape:
                raise ValueError(f"parameter shape {k.shape} does not match defects {shape}")

    @classmethod
    def constant(cls, src: Subspace, dst: Subspace, k, anchor: complex | None = None):
        return cls(src, dst, ("constant", nk.as_cmatrix(k)), anchor)

    @classmethod
    def affine(cls, src: Subspace, dst: Subspace, k0, k1, anchor: complex | None = None):
        return cls(src, dst, ("affine", nk.as_cmatrix(k0), nk.as_cmatrix(k1)), anchor)

    @classmethod
    def callback(cls, src: Subspace, dst: Subspace, fn: Callable[[complex], CMatrix],
                 anchor: complex | None = None):
        return cls(src, dst, ("callback", fn), anchor)

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
            value = self.form[1] + w * self.form[2]
            if abs(w) > 1.0:
                # outside the disk where the norm bound decides the value
                nk.check_contraction(value, "affine parameter value norm")
            return value
        value = self._callback_value(point)
        nk.check_contraction(value, "callback value norm")
        return value

    def _callback_value(self, point: complex) -> CMatrix:
        """The callback's value at a point, checked for shape only."""
        value = nk.as_cmatrix(self.form[1](point))
        if value.shape != (self.dst.dim, self.src.dim):
            raise ValueError(f"callback returned shape {value.shape}")
        return value

    def in_frames(self, src: Subspace, dst: Subspace) -> "ContractionParam":
        """The same family in frames ``src`` and ``dst`` of the subspaces of
        ``self.src`` and ``self.dst``; ``self`` when the frames are equal arrays."""
        if np.array_equal(src.basis, self.src.basis) and np.array_equal(dst.basis, self.dst.basis):
            return self
        from_src = self.src.basis.conj().T @ src.basis
        into_dst = dst.basis.conj().T @ self.dst.basis
        if not all(nk.is_unitary(c, nk.STRUCT_GATE) for c in (from_src, into_dst)):
            raise ValueError("the frames span other subspaces than the parameter's")
        if self.kind == "callback":
            # the new family's call decides the rewritten value
            raw = self._callback_value
            return self.callback(src, dst, lambda p: into_dst @ raw(p) @ from_src, self.anchor)
        coords = [into_dst @ k @ from_src for k in self.form[1:]]
        return getattr(self, self.kind)(src, dst, *coords, self.anchor)

    def boundary_limit(self) -> CMatrix | None:
        """Closed-form limit toward the boundary point 1 of the disk variable
        (the sectorial limit at infinity for half-plane families)."""
        if self.kind == "constant":
            return self.form[1]
        if self.kind == "affine":
            return self.form[1] + self.form[2]
        return None


def _imaginary_ray(anchor: complex) -> tuple[complex, ...]:
    """Points 10 ... 1e6 along the imaginary axis of the anchor's half-plane."""
    require_nonreal(anchor)
    angle = np.pi / 2 if anchor.imag > 0 else -np.pi / 2
    return tuple(complex(10.0 ** k * np.exp(1j * angle)) for k in range(1, 7))


@dataclass(frozen=True)
class ResolventModel:
    """An evaluable generalized resolvent of an operator.

    ``_eval`` gives the value at one point; ``_at``, when set, gives the values
    at a list of points at once, as ``_eval`` would one by one.
    """

    operator: PartialOperator
    _eval: Callable[[complex, bool], CMatrix] = field(repr=False)
    _at: Callable[[list], list] | None = field(default=None, repr=False)

    @property
    def ambient_dim(self) -> int:
        return self.operator.ambient_dim

    def __call__(self, point: complex, boundary_ok: bool = False) -> CMatrix:
        return self._eval(complex(point), boundary_ok)

    def at(self, points) -> list:
        """``[self(p) for p in points]``: the values, or the first error, of the
        loop.  Callers pass one fixed point set per call, which bounds the work
        a set evaluator does at once; a single point is evaluated by ``_eval``."""
        points = [complex(p) for p in points]
        if self._at is None or len(points) < 2:
            return [self._eval(p, False) for p in points]
        return self._at(points)

    @classmethod
    def from_direct_sum(cls, v: IsometryOp, param: ContractionParam) -> "ResolventModel":
        def ev(point, boundary_ok):
            return direct_sum_resolvent(v, param, point, boundary_ok)
        return cls(v, ev)

    @classmethod
    def from_extension_family(cls, a: SymmetricOp, param: ContractionParam,
                              anchor: complex) -> "ResolventModel":
        def ev(point, boundary_ok):
            return extension_resolvent(a, param, anchor, point, boundary_ok)
        return cls(a, ev)

    @classmethod
    def from_dilation(cls, model: ExitSpaceModel) -> "ResolventModel":
        """The dilation oracle as a model.  A value at a single point is kept,
        read-only, per (point, policy in force) for as long as the model
        lives; ``at`` sets are computed afresh and not kept."""
        memo = {}

        def ev(point, boundary_ok):
            return _kept(memo, (point,), lambda: dilation_resolvent(model, point))

        def at(points):
            # one stacked inverse for the set: each member bitwise that of
            # dilation_resolvent at its point
            eye = np.eye(model.total_dim, dtype=np.complex128)
            systems = np.empty((len(points),) + eye.shape, dtype=np.complex128)
            for member, point in zip(systems, points):
                member[...] = _dilation_system(model, point, eye)
            try:
                inverses = nk.inv(systems)
            except Singular:
                # the pointwise loop names the first singular point
                return [dilation_resolvent(model, p) for p in points]
            n = model.inner_dim
            return [x[:n, :n].copy() for x in inverses]
        return cls(model.embeds, ev, at)


def _disk_resolvent(n: int, zeta: complex, boundary_ok: bool,
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
        inner = _disk_resolvent(n, 1.0 / np.conj(zeta), boundary_ok, matrix_at)
        return np.eye(n) - inner.conj().T
    return _inv_at(zeta, np.eye(n) - zeta * matrix_at(zeta))


def direct_sum_resolvent(v: IsometryOp, param: ContractionParam, zeta: complex,
                         boundary_ok: bool = False) -> CMatrix:
    """Resolvent value [E - zeta (V + F(zeta))]^{-1} of the direct-sum family."""
    def matrix_at(point: complex) -> CMatrix:
        return _direct_sum(v, param(point), param.src, param.dst)
    return _disk_resolvent(v.ambient_dim, zeta, boundary_ok, matrix_at)


def anchored_resolvent(v: IsometryOp, param: ContractionParam, z0: complex,
                       zeta: complex) -> CMatrix:
    """Resolvent value [E - zeta V_C]^{-1} with the orthogonal extension built
    from the parameter value at zeta and the anchor z0.

    Coincides with ``direct_sum_resolvent`` when z0 = 0.
    """
    param = param.in_frames(*(pair.n_space for pair in parameter_frames(v, z0)))

    def matrix_at(point: complex) -> CMatrix:
        return _orthogonal_extension(v, param(point), z0)
    return _disk_resolvent(v.ambient_dim, zeta, False, matrix_at)


def dilation_resolvent(model: ExitSpaceModel, point: complex) -> CMatrix:
    """Upper-left block of the resolvent of the big operator.

    This is the independent oracle for every formula evaluator.  Unimodular
    (unitary case) and real (hermitian case) probes are attempted directly and
    raise ``SingularSystem`` when the point hits the spectrum.
    """
    point = complex(point)
    n = model.inner_dim
    # the first n columns of the inverse are bitwise those of solving for the
    # first n columns of E; the copy owns no larger buffer
    system = _dilation_system(model, point, np.eye(model.total_dim, dtype=np.complex128))
    return _inv_at(point, system)[:n, :n].copy()


def _dilation_system(model: ExitSpaceModel, point: complex, eye: CMatrix) -> CMatrix:
    """E - point U for a unitary model, H - point E for a Hermitian one."""
    return eye - point * model.big_op if model.kind == "unitary" \
        else model.big_op - point * eye


def recover_parameter(r: ResolventModel, zeta: complex) -> CMatrix:
    """Defect-to-defect block of (1/zeta)(E - R(zeta)^{-1}).

    Recovers the value of the direct-sum parameter at an interior point from
    any generalized resolvent of the isometry carried by the model: the
    anchored recovery at z0 = 0.
    """
    if not isinstance(r.operator, IsometryOp):
        raise TypeError("parameter recovery applies to isometric-side models")
    return recover_anchored_parameter(r, 0.0, zeta)


def recovered_parameter_family(r: ResolventModel) -> ContractionParam:
    """The recovered parameter as an evaluable family (limit taken at 0)."""
    v = r.operator
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0))

    def fn(zeta: complex) -> CMatrix:
        if zeta == 0:
            h = 1e-5
            return 2.0 * recover_parameter(r, h) - recover_parameter(r, 2 * h)
        return recover_parameter(r, zeta)

    return ContractionParam.callback(n0, ninf, fn)


def recover_anchored_parameter(r: ResolventModel, z0: complex, zeta: complex) -> CMatrix:
    """Anchor-z0 parameter value recovered from a generalized resolvent.

    Inverts the orthogonal-extension correspondence: the full operator
    (1/zeta)(E - R(zeta)^{-1}) is pulled back through the anchored fractional
    identity and compressed to the defect block.
    """
    zeta = complex(zeta)
    if zeta == 0 or abs(zeta) >= 1:
        raise PointExcluded("recovery needs an interior point distinct from 0")
    n = r.ambient_dim
    src, dst = (pair.n_space for pair in parameter_frames(r.operator, z0))
    t_full = (np.eye(n) - _inv_at(zeta, r(zeta))) / zeta
    if z0 == 0:
        plus = t_full
    else:
        plus = -np.eye(n) / z0 + (1 - abs(z0) ** 2) / z0 * nk.inv(np.eye(n) - z0 * t_full)
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


def verify_resolvent_axioms(r: ResolventModel, v: IsometryOp) -> AxiomReport:
    """Check the five characterizing conditions of a generalized resolvent
    at ``DEFAULT_DISK_SAMPLES``.

    1) R(zeta)(E - zeta V) g = g on the domain; 2) R(0) = E and fixes the
    domain complement; 3) the real quadratic form bound on both sides of the
    circle; 4) a mean-value analyticity proxy; 5) the adjoint identity between
    reflected points.  Failures are reported, not raised.
    """
    n = v.ambient_dim
    eye = np.eye(n)
    gate = 1e-9
    samples = DEFAULT_DISK_SAMPLES
    interior = [z for z in samples if abs(z) < 1]
    exterior = [z for z in samples if abs(z) > 1]
    # the checks share the sample points; every other point is used once.  Each
    # point set (the samples, a ring, the reflections) is read in one call
    values = dict(zip(samples, r.at(samples)))

    res1 = nk._worst_norm(values[z] @ (v.dom.basis - z * v.ran_basis) - v.dom.basis
                          for z in samples)

    r0 = r(0.0)
    comp = nk.orthogonal_complement(v.dom)
    res2 = nk._worst_norm([r0 - eye, r0 @ comp.basis - comp.basis])

    res3 = 0.0
    for z in interior + exterior:
        # Re R - E/2 is positive inside the circle and negative outside
        w = np.linalg.eigvalsh((values[z] + values[z].conj().T) / 2.0 - eye / 2.0)
        res3 = max(res3, max(0.0, -float(w[0]) if abs(z) < 1 else float(w[-1])))

    mean_residuals = []
    for z in samples:
        radius = 0.05 * abs(abs(z) - 1.0)
        ring = [z + radius * np.exp(2j * np.pi * k / 16) for k in range(16)]
        mean_residuals.append(sum(r.at(ring)) / 16.0 - values[z])
    res4 = nk._worst_norm(mean_residuals)

    inside = [z for z in interior if z != 0]
    res5 = nk._worst_norm(values[z].conj().T - (eye - reflected)
                          for z, reflected in zip(inside, r.at([1.0 / np.conj(z) for z in inside])))

    checks = (
        AxiomCheck("domain-identity", res1 <= gate, res1),
        AxiomCheck("normalization-at-zero", res2 <= gate, res2),
        AxiomCheck("real-part-bound", res3 <= gate, res3),
        AxiomCheck("analyticity-mean-value", res4 <= gate, res4),
        AxiomCheck("adjoint-reflection", res5 <= gate, res5),
    )
    return AxiomReport(checks, all(c.passed for c in checks))


def cayley_transfer(r_in: ResolventModel, z: complex, point: complex) -> CMatrix:
    """Affine transfer between symmetric-side and isometric-side resolvents.

    A model of a symmetric operator gives the resolvent of its Cayley transform
    at an interior/exterior point; a model of an isometry gives the resolvent
    of the inverse transform at a half-plane point.  Points where the
    fractional map degenerates are rejected.
    """
    return _transfer_at(r_in, z, [complex(point)])[0]


def _transfer_at(r_in: ResolventModel, z: complex, points: list) -> list:
    """``[cayley_transfer(r_in, z, p) for p in points]``, reading ``r_in`` at
    the mapped points through one ``at`` call."""
    require_nonreal(z)
    to_disk = isinstance(r_in.operator, SymmetricOp)
    if not to_disk and not isinstance(r_in.operator, IsometryOp):
        raise TypeError("the transfer expects a model of a symmetric operator or an isometry")
    lams = []  # the half-plane side of each point
    for point in points:
        if (point == 0 or abs(abs(point) - 1.0) < 1e-14) if to_disk \
                else (point == z or point == np.conj(z) or point.imag == 0):
            break
        lams.append(disk_to_halfplane(point, z) if to_disk else point)
    # the points before a degenerate one are read first, as a loop would
    values = r_in.at(lams if to_disk else [halfplane_to_disk(lam, z) for lam in lams])
    if len(lams) < len(points):
        raise PointExcluded(f"point {points[len(lams)]} is degenerate for the transfer")
    eye = np.eye(r_in.ambient_dim)
    out = []
    for lam, value in zip(lams, values):
        factor = (lam - np.conj(z)) / (z - np.conj(z))
        out.append(factor * eye + factor * (lam - z) * value if to_disk
                   else (value - factor * eye) / (factor * (lam - z)))
    return out


def extension_resolvent(a: SymmetricOp, param: ContractionParam, anchor: complex, lam: complex,
                        boundary_ok: bool = False, validate: bool = True) -> CMatrix:
    """Resolvent value (A_T - lam E)^{-1} of the extension family, read off as L M^{-1}.

    T is the family's value at lam anchored at z = anchor, or on the conjugate half-plane
    its adjoint value at conj(lam) anchored at z = conj(anchor), frames swapped.  With D
    the domain frame, phi the source frame, L = [D | T phi - phi] and M = (A_T - lam E) L
    = [(A - lam) D | (z - lam) T phi - (conj(z) - lam) phi].  ``_admissible`` decides that
    L is invertible; ``validate`` runs the Neumann build and reassembly tail as a guard."""
    lam = complex(lam)
    if lam.imag == 0 and not boundary_ok:
        raise PointExcluded(f"real point {lam}")
    require_nonreal(anchor)
    if lam.imag == 0 or same_halfplane(lam, anchor):
        value, z, src, dst = param(lam), anchor, param.src, param.dst
    else:
        value, z = param(np.conj(lam)).conj().T, np.conj(anchor)
        src, dst = param.dst, param.src
    t, d, k = PartialMap(src, dst.basis @ value), a.dom.basis, a.ambient_dim - a.dom.dim
    if t.dim < k:
        raise ValueError(f"partial parameter source: {t.dim} of {k} defect dimensions")
    if validate:
        _neumann_extension(a, z, t, True)
    else:
        _neumann_input(a, z, t)
    m = np.hstack([a.action - lam * d, (z - lam) * t.matrix - (np.conj(z) - lam) * src.basis])
    return np.hstack([d, t.matrix - src.basis]) @ _inv_at(lam, m)


def generating_extension(r: ResolventModel, lam: complex) -> PartialOperator:
    """The extension family value R(lam)^{-1} + lam E as an operator record."""
    lam = complex(lam)
    n = r.ambient_dim
    mat = _inv_at(lam, r(lam)) + lam * np.eye(n)
    return PartialOperator(Subspace.full(n), mat)


def defect_block(r: ResolventModel, a: SymmetricOp, anchor: complex, lam: complex,
                 validate: bool = True) -> CMatrix:
    """Defect-block Cayley transform of the extension family at the anchor.

    Returns the coordinates of the contraction from the defect space at the
    anchor into the conjugate one; with ``validate`` the extension is
    reassembled from the result and compared against the family value.
    """
    lam = complex(lam)
    coords, r_val = _defect_block(r, a, anchor, lam)
    # far out on a ray the formation of the core loses |lam| * eps relative
    # accuracy to cancellation, so the contraction gate grows with the point
    gate = max(1e-10, 256.0 * np.finfo(float).eps * abs(lam))
    if not nk._norm_within(coords, 1.0 + gate):
        raise NotContraction(f"defect block has norm {nk.op_norm(coords):.6f}")
    if validate:
        n = a.ambient_dim
        src, dst = (pair.n_space for pair in parameter_frames(a, anchor))
        ext, _ = _neumann_extension(a, anchor, PartialMap(src, dst.basis @ coords), False)
        res = (ext.full_matrix() - lam * np.eye(n)) @ r_val - np.eye(n)
        if not nk._norm_within(res, 1e-9, ext.full_matrix() @ r_val):
            raise NumericalFailure(f"reassembled extension differs ({nk.op_norm(res):.3e})")
    return coords


def _defect_block(r: ResolventModel, a: SymmetricOp, anchor: complex,
                  lam: complex) -> tuple[CMatrix, CMatrix]:
    """``defect_block`` without its contraction gate and reassembly, with the
    resolvent value it read."""
    if not same_halfplane(lam, anchor):
        raise PointExcluded("evaluation point must share the anchor half-plane")
    n = a.ambient_dim
    r_val = r(lam)
    # Cayley block computed without forming the extension family explicitly:
    # stays well conditioned even far out on the ray
    core = np.eye(n) + (lam - anchor) * r_val
    cayley = np.eye(n) + (anchor - np.conj(anchor)) * _inv_at(lam, core, r_val)
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor))
    image = cayley @ src.basis
    coords = dst.basis.conj().T @ image
    # the gates decide by Frobenius bounds first; the exact norms are taken
    # only when the bounds cannot decide, and for the messages
    leak = image - dst.basis @ coords
    if not nk._norm_within(leak, 1e-8, image):
        raise NumericalFailure(
            f"defect block leaks out of the target space ({nk.op_norm(leak):.3e})")
    return coords, r_val


def defect_block_family(r: ResolventModel, a: SymmetricOp, anchor: complex) -> ContractionParam:
    """The defect-block family of a resolvent model as an evaluable parameter.

    Its values are decided by the family's strict contraction check, which
    implies the relaxed gate ``defect_block`` applies far out on a ray.  The
    block at a point is computed once per policy in force and kept, read-only,
    for as long as the family lives; the check still runs on every call."""
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor))
    memo = {}

    def fn(lam):
        lam = complex(lam)
        return _kept(memo, (lam,), lambda: _defect_block(r, a, anchor, lam)[0])

    return ContractionParam.callback(src, dst, fn, anchor=anchor)


def characteristic_function(a: SymmetricOp, anchor: complex, lam: complex) -> CMatrix:
    """The contraction-valued function encoding a symmetric operator.

    At lam in the anchor's half-plane it is c K(lam)*, with K the operator's
    ``_comparison_coords`` at the anchor and c = (lam - z)/(lam - conj(z)):
    a map from the defect space at conj(z) into the one at z, of norm <= |c|.
    """
    lam, z = complex(lam), complex(anchor)
    require_nonreal(z)
    if lam != z and not same_halfplane(lam, z):
        raise PointExcluded("evaluation point must share the anchor half-plane")
    return halfplane_to_disk(lam, z) * _comparison_coords(a, z, lam).conj().T


def defect_block_via_characteristic(block: BlockParam, exit_op: SymmetricOp, anchor: complex,
                                    lam: complex) -> CMatrix:
    """Defect-block family computed from the exit-space characteristic function.

    Equals the block recovered from the dilation resolvent of the same model:
    t11 + t12 (E - C_e t22)^{-1} C_e t21 with C_e the characteristic function
    of the exit operator.
    """
    return _closed_block(block, characteristic_function(exit_op, anchor, lam))


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


def boundary_parameter(a: SymmetricOp, model: ExitSpaceModel,
                       anchor: complex) -> BoundaryParameterReport:
    """Boundary parameter of the compressed big operator and its sectorial limits.

    The direct route reads the parameter off the compression of the model; the
    limit route evaluates the defect-block family along the imaginary axis of
    the anchor's half-plane and reports the per-vector errors and the
    membership quantities.  Convergence is reported, never extrapolated.
    A model that carries its block at this anchor with a trivial-domain exit
    operator gives the family in closed form (``defect_block_via_characteristic``,
    contractions by the block and |c| < 1) at magnitudes 10 ... 1e6 times
    s = max(1, ||(E - t22)^-1||), where its asymptotics hold; other models read
    it off the dilation (``defect_block``) at 10 ... 1e6, before cancellation sets in.
    """
    if model.kind != "hermitian":
        raise ValueError("boundary parameters are defined for hermitian models")
    compressed = compressed_extension(model)
    direct = neumann_parameter(compressed, a, anchor)
    src, dst = (pair.n_space for pair in parameter_frames(a, anchor))
    direct_coords = dst.basis.conj().T @ direct.ambient() @ src.basis
    block, e_op = model.block, model.exit_op
    if block is not None and e_op is not None and e_op.dom.dim == 0 and model.anchor == anchor:
        scale = max(1.0, nk.op_norm(nk.inv(np.eye(len(block.t22)) - block.t22)))
        points = tuple(scale * lam for lam in _imaginary_ray(anchor))
        values = [defect_block_via_characteristic(block, e_op, anchor, lam) for lam in points]
    else:
        r, points = ResolventModel.from_dilation(model), _imaginary_ray(anchor)
        values = [defect_block(r, a, anchor, lam, validate=False) for lam in points]
    errors = np.array([np.linalg.norm(fk - direct_coords, axis=0) for fk in values])
    member = np.array([membership_quantity(fk, lam) for fk, lam in zip(values, points)])
    return BoundaryParameterReport(direct, points, errors, member)


@dataclass(frozen=True)
class ClassVerdict:
    """Admissible-class verdict; ``exact`` is False for sampled callbacks."""

    admissible: bool
    exact: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admissible


def admissible_class_check(param: ContractionParam, a: SymmetricOp,
                           anchor: complex) -> ClassVerdict:
    """Whether a parameter family stays clear of the forbidden operator at infinity.

    A family fails when some non-zero defect vector is carried to its forbidden
    image in the sectorial limit while the norm defect stays summable.  For
    constant and affine forms the limit is closed-form and the verdict exact;
    callbacks are sampled along the imaginary ray of the anchor's half-plane
    and flagged approximate.
    """
    x = forbidden_operator(a, anchor)
    if x.dim == 0:
        return ClassVerdict(True, True, "dense domain, every family is admissible")
    # the forbidden operator by zero and its domain's meet with the source
    fixed = _neumann_frame(a, anchor, param.src)
    limit = param.boundary_limit()
    if fixed.common.shape[1] == 0:
        return ClassVerdict(True, limit is not None, "no overlap with the forbidden domain")
    if limit is not None:
        limit_map = PartialMap.from_coords(param.src, param.dst, limit)
        ok, sigma = nk.injective((limit_map.ambient() - fixed.forbidden) @ fixed.common)
        return ClassVerdict(ok, True, f"limit separation {sigma:.3e}")

    # sampled verdict for callbacks: locate the best candidate for a violating
    # direction at the far end of the ray and track it backwards
    points = _imaginary_ray(anchor)
    far = points[-1]
    value = param(far)
    vmap = PartialMap.from_coords(param.src, param.dst, value)
    diff = (vmap.ambient() - fixed.forbidden) @ fixed.common
    _, s, vh = np.linalg.svd(diff)
    candidate = fixed.common @ vh.conj().T[:, -1]
    psi_coords = param.src.basis.conj().T @ candidate
    target = fixed.forbidden @ candidate
    residuals = []
    quantities = []
    for lam in points:
        val = param(lam)
        img = param.dst.basis @ (val @ psi_coords)
        residuals.append(float(np.linalg.norm(img - target)))
        quantities.append(float(membership_quantity(val @ psi_coords, lam)))
    collides = residuals[-1] < 1e-6
    bounded = abs(quantities[-1]) <= 10.0 * max(1.0, abs(quantities[0]))
    return ClassVerdict(not (collides and bounded), False,
                        f"ray quantities {quantities[0]:.3e} -> {quantities[-1]:.3e}")
