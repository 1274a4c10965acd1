"""Closed isometric and symmetric operators with explicit domains.

An operator is stored as an orthonormal domain frame ``D`` (n x d) together
with the matrix of images of the frame columns.  For an isometry the image
frame is itself orthonormal, so closedness is automatic and defect subspaces
are plain orthogonal complements.  The degenerate case d = 0 (the operator
with trivial domain) is supported everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import FixedPointObstruction, NotContraction, NumericalFailure
from .numkernel import CMatrix, DEFAULT_TOL, Subspace, TolPolicy


class _InfinityPoint:
    """Distinguished flag for the point at infinity (range-side defects)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfinityPoint()


@dataclass(frozen=True)
class PartialOperator:
    """A linear operator given by an orthonormal domain frame and its images.

    The map sends ``dom.basis @ x`` to ``action @ x``.  No structural
    constraint is imposed; subclasses and constructors add those.
    """

    ambient_dim: int
    dom: Subspace
    action: CMatrix

    def __post_init__(self):
        if self.dom.ambient_dim != self.ambient_dim:
            raise ValueError("domain lives in a different ambient space")
        if self.action.shape != (self.ambient_dim, self.dom.dim):
            raise ValueError(f"action shape {self.action.shape} does not match domain")

    @property
    def dom_dim(self) -> int:
        return self.dom.dim

    def ambient_partial(self) -> CMatrix:
        """The everywhere-defined matrix acting as the operator on dom and 0 on dom^perp."""
        return self.action @ self.dom.basis.conj().T

    @property
    def is_everywhere_defined(self) -> bool:
        return self.dom.dim == self.ambient_dim

    def full_matrix(self) -> CMatrix:
        """The n x n matrix of an everywhere-defined operator."""
        if not self.is_everywhere_defined:
            raise ValueError("operator is not everywhere defined")
        return self.action @ self.dom.basis.conj().T

    @classmethod
    def null(cls, n: int):
        """The operator with trivial domain on C^n."""
        return cls(n, Subspace.empty(n), np.zeros((n, 0), dtype=np.complex128))


@dataclass(frozen=True)
class IsometryOp(PartialOperator):
    """A closed isometric operator: the image frame is orthonormal too."""

    def __post_init__(self):
        super().__post_init__()
        gram = self.action.conj().T @ self.action
        if nk.op_norm(gram - np.eye(self.dom.dim)) > nk.STRUCT_GATE:
            raise ValueError("image frame is not orthonormal; not an isometry")

    @property
    def ran_basis(self) -> CMatrix:
        return self.action

    @classmethod
    def random(cls, n: int, d: int, rng: np.random.Generator) -> "IsometryOp":
        return cls(n, Subspace(n, nk.haar_frame(n, d, rng)), nk.haar_frame(n, d, rng))


@dataclass(frozen=True)
class SymmetricOp(PartialOperator):
    """A closed symmetric operator; the domain need not be dense (d < n allowed)."""

    def __post_init__(self):
        super().__post_init__()
        gram = self.dom.basis.conj().T @ self.action
        if nk.op_norm(gram - gram.conj().T) > nk.STRUCT_GATE * max(1.0, nk.op_norm(gram)):
            raise ValueError("operator is not symmetric on its domain")

    @classmethod
    def random(cls, n: int, d: int, rng: np.random.Generator, scale: float = 1.0) -> "SymmetricOp":
        """Random symmetric operator with an orthonormal d-frame domain.

        The action is D G + C R with G Hermitian: the Gram form D* A is then
        Hermitian while the range may stick out of the domain.
        """
        dom = nk.haar_frame(n, d, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = (g + g.conj().T) / 2.0
        comp = nk.orthogonal_complement(Subspace(n, dom))
        r = rng.standard_normal((comp.dim, d)) + 1j * rng.standard_normal((comp.dim, d))
        action = scale * (dom @ g + comp.basis @ r)
        return cls(n, Subspace(n, dom), action)


@dataclass(frozen=True)
class DefectPair:
    """A defect subspace and its orthogonal complement at one point."""

    m_space: Subspace
    n_space: Subspace


@dataclass(frozen=True)
class FullContraction:
    """An everywhere-defined non-expanding operator on C^n."""

    matrix: CMatrix
    norm_bound: float

    def __post_init__(self):
        if self.norm_bound > 1.0 + 1e-10:
            raise NotContraction(f"norm bound {self.norm_bound} exceeds 1")

    @classmethod
    def of(cls, matrix: CMatrix) -> "FullContraction":
        return cls(matrix, nk.op_norm(matrix))


def defect_subspaces(op: PartialOperator, point, tol: TolPolicy = DEFAULT_TOL) -> DefectPair:
    """Defect pair of an isometric or symmetric operator at a point.

    Isometric V: the range of (E - zeta V) on the domain, and its complement;
    ``INFINITY`` selects the range of V itself.  Symmetric A: the range of
    (A - z E) on the domain, and its complement.
    """
    d, a = op.dom.basis, op.action
    if isinstance(op, IsometryOp):
        raw = a if point is INFINITY else d - complex(point) * a
    elif point is INFINITY:
        raise ValueError("infinity defect is defined for isometric operators only")
    else:
        raw = a - complex(point) * d
    m_space = nk.orthonormalize(raw, tol)
    return DefectPair(m_space, nk.orthogonal_complement(m_space, tol))


def parameter_frames(op: PartialOperator, anchor,
                     tol: TolPolicy = DEFAULT_TOL) -> tuple[DefectPair, DefectPair]:
    """Defect pairs at an anchor and at its partner point, between whose
    complements the parameters anchored there act.

    An isometry anchored at z0 partners with 1/conj(z0) (``INFINITY`` when
    z0 = 0); a symmetric operator anchored at z partners with conj(z).
    """
    if isinstance(op, IsometryOp):
        partner = INFINITY if anchor == 0 else 1.0 / np.conj(anchor)
    else:
        partner = np.conj(anchor)
    return defect_subspaces(op, anchor, tol), defect_subspaces(op, partner, tol)


def _transport(raw_dom: CMatrix, raw_ran: CMatrix, n: int, tol: TolPolicy) -> tuple[Subspace, CMatrix]:
    """Orthonormalize a raw domain frame and re-express the images accordingly.

    Requires ``raw_dom`` to have full column rank: the map raw_dom x -> raw_ran x
    becomes Q y -> (raw_ran C^-1) y with Q C = raw_dom.
    """
    if raw_dom.shape[1] == 0:
        return Subspace.empty(n), np.zeros((n, 0), dtype=np.complex128)
    q = nk.orthonormalize(raw_dom, tol)
    if q.dim != raw_dom.shape[1]:
        raise ValueError("raw domain frame is rank deficient")
    coeff = q.basis.conj().T @ raw_dom
    return q, raw_ran @ nk.inv(coeff, tol)


def moebius_transform(v: IsometryOp, z: complex, direction: str = "forward",
                      tol: TolPolicy = DEFAULT_TOL) -> IsometryOp:
    """Fractional transform of an isometry at a disk point.

    Forward sends V to the isometry with domain (E - z V) D(V) that maps
    (E - z V) f to (V - conj(z) E) f.  The inverse is the forward transform
    taken at -z.
    """
    if abs(z) >= 1:
        raise ValueError("transform point must lie in the open unit disk")
    if direction == "inverse":
        return moebius_transform(v, -z, "forward", tol)
    if direction != "forward":
        raise ValueError(f"unknown direction {direction!r}")
    d, r = v.dom.basis, v.ran_basis
    q, images = _transport(d - z * r, r - np.conj(z) * d, v.ambient_dim, tol)
    return IsometryOp(v.ambient_dim, q, nk.symmetric_orthogonalize(images))


def cayley_transform(op: PartialOperator, z: complex, direction: str = "forward",
                     tol: TolPolicy = DEFAULT_TOL) -> PartialOperator:
    """Cayley transform between symmetric operators and isometries without fixed vectors.

    Forward: A maps to the isometry sending (A - z E) f to (A - conj(z) E) f.
    Inverse: an isometry W with no eigenvalue 1 on its domain maps to the
    symmetric operator sending (W - E) g to (z W - conj(z) E) g.
    """
    if z.imag == 0:
        raise ValueError("transform point must be non-real")
    n = op.ambient_dim
    if direction == "forward":
        if not isinstance(op, SymmetricOp):
            raise TypeError("forward transform expects a symmetric operator")
        d, a = op.dom.basis, op.action
        q, images = _transport(a - z * d, a - np.conj(z) * d, n, tol)
        return IsometryOp(n, q, nk.symmetric_orthogonalize(images))
    if direction != "inverse":
        raise ValueError(f"unknown direction {direction!r}")
    if not isinstance(op, IsometryOp):
        raise TypeError("inverse transform expects an isometry")
    d, r = op.dom.basis, op.ran_basis
    raw = r - d
    if raw.shape[1]:
        s = np.linalg.svd(raw, compute_uv=False)
        if s[-1] <= tol.threshold(s[0] if s[0] > 0 else 1.0, n):
            raise FixedPointObstruction("isometry fixes a non-zero vector; no symmetric inverse")
    q, images = _transport(raw, z * r - np.conj(z) * d, n, tol)
    return SymmetricOp(n, q, images)


def is_regular_type(op: PartialOperator, point, tol: TolPolicy = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether (op - point E) is bounded below on the domain, with the bound.

    The bound is the smallest singular value of the restriction; an empty
    domain is vacuously regular with bound +inf.
    """
    if op.dom.dim == 0:
        return True, np.inf
    mat = op.action - complex(point) * op.dom.basis
    s = np.linalg.svd(mat, compute_uv=False)
    return bool(s[-1] > tol.threshold(s[0], op.ambient_dim)), float(s[-1])


def orthogonal_extension(v: IsometryOp, c: CMatrix, z0: complex,
                         tol: TolPolicy = DEFAULT_TOL) -> FullContraction:
    """Everywhere-defined contraction extending V, parametrized at an anchor z0.

    ``c`` is the coordinate matrix of a contraction from the defect space at
    z0 into the defect space at 1/conj(z0) (the range-side defect when z0=0).
    At z0 = 0 the result is the direct sum of V and the parameter; otherwise
    the direct sum is formed for the transformed isometry and pulled back.
    """
    if abs(z0) >= 1:
        raise ValueError("anchor must lie in the open unit disk")
    c = nk.as_cmatrix(c)
    n = v.ambient_dim
    src, dst = (pair.n_space for pair in parameter_frames(v, z0, tol))
    if c.shape != (dst.dim, src.dim):
        raise ValueError(f"parameter shape {c.shape} does not match defects ({dst.dim}, {src.dim})")
    if nk.op_norm(c) > 1.0 + 1e-10:
        raise NotContraction(f"parameter norm {nk.op_norm(c):.3e} exceeds 1")
    vz = v if z0 == 0 else moebius_transform(v, z0, "forward", tol)
    plus = vz.ambient_partial() + dst.basis @ c @ src.basis.conj().T
    if z0 == 0:
        return FullContraction.of(plus)
    eye = np.eye(n)
    v_c = (plus + np.conj(z0) * eye) @ nk.inv(eye + z0 * plus, tol)
    # pull-back identities tying the direct sum to the extension
    res1 = nk.op_norm(v_c - (eye / z0 + (abs(z0) ** 2 - 1) / z0 * nk.inv(eye + z0 * plus, tol)))
    res2 = nk.op_norm(plus - (-eye / z0 + (1 - abs(z0) ** 2) / z0 * nk.inv(eye - z0 * v_c, tol)))
    if max(res1, res2) > 1e-10 * max(1.0, nk.op_norm(v_c)):
        raise NumericalFailure(f"extension identities violated (residual {max(res1, res2):.3e})")
    return FullContraction.of(v_c)


def classify_signs(op: PartialOperator, tol: TolPolicy = DEFAULT_TOL) -> str:
    """Sign classification of the quadratic form Im (B h, h) over the domain.

    Returns 'symmetric' when the form vanishes, 'dissipative'/'accumulative'
    for one-signed forms and 'neither' otherwise.
    """
    if op.dom.dim == 0:
        return "symmetric"
    gram = op.dom.basis.conj().T @ op.action
    imag_part = (gram - gram.conj().T) / 2.0j
    w = np.linalg.eigvalsh((imag_part + imag_part.conj().T) / 2.0)
    gate = max(tol.abs_floor, 1e-12 * max(1.0, nk.op_norm(gram)))
    if np.all(np.abs(w) <= gate):
        return "symmetric"
    if np.all(w >= -gate):
        return "dissipative"
    if np.all(w <= gate):
        return "accumulative"
    return "neither"
