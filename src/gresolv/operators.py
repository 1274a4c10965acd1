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
from .errors import FixedPointObstruction, NumericalFailure, Singular, SingularSystem
from .numkernel import CMatrix, Subspace


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
    constraint is imposed; subclasses and constructors add those.  Values are
    immutable, and the anchor-level builders memoize their results on them.
    """

    dom: Subspace
    action: CMatrix

    def __post_init__(self):
        if self.action.shape != self.dom.basis.shape:
            raise ValueError(f"action shape {self.action.shape} does not match domain")
        object.__setattr__(self, "_memo", {})

    @property
    def ambient_dim(self) -> int:
        return self.dom.ambient_dim

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
        return cls(Subspace.empty(n), np.zeros((n, 0), dtype=np.complex128))


@dataclass(frozen=True)
class IsometryOp(PartialOperator):
    """A closed isometric operator: the image frame is orthonormal too."""

    def __post_init__(self):
        super().__post_init__()
        if not nk.is_isometric(self.action, nk.STRUCT_GATE):
            raise ValueError("image frame is not orthonormal; not an isometry")

    @property
    def ran_basis(self) -> CMatrix:
        return self.action

    @classmethod
    def random(cls, n: int, d: int, rng: np.random.Generator) -> "IsometryOp":
        return cls(Subspace(nk.haar_frame(n, d, rng)), nk.haar_frame(n, d, rng))


@dataclass(frozen=True)
class SymmetricOp(PartialOperator):
    """A closed symmetric operator; the domain need not be dense (d < n allowed)."""

    def __post_init__(self):
        super().__post_init__()
        if not nk.is_hermitian(self.dom.basis.conj().T @ self.action, nk.STRUCT_GATE):
            raise ValueError("operator is not symmetric on its domain")

    @classmethod
    def random(cls, n: int, d: int, rng: np.random.Generator) -> "SymmetricOp":
        """Random symmetric operator with an orthonormal d-frame domain.

        The action is D G + C R with G Hermitian: the Gram form D* A is then
        Hermitian while the range may stick out of the domain.
        """
        dom = nk.haar_frame(n, d, rng)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = (g + g.conj().T) / 2.0
        comp = nk.orthogonal_complement(Subspace(dom))
        r = rng.standard_normal((comp.dim, d)) + 1j * rng.standard_normal((comp.dim, d))
        action = dom @ g + comp.basis @ r
        return cls(Subspace(dom), action)


@dataclass(frozen=True)
class DefectPair:
    """A defect subspace and its orthogonal complement at one point."""

    m_space: Subspace
    n_space: Subspace


def require_nonreal(z: complex) -> None:
    """Reject a real anchor: the symmetric-side formulas need a non-real one."""
    if z.imag == 0:
        raise ValueError(f"anchor {z} must be non-real")


def _read_only(value):
    """Mark every array reachable through tuples and attributes read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    for item in value if isinstance(value, tuple) else getattr(value, "__dict__", {}).values():
        _read_only(item)
    return value


def _memoized(op: PartialOperator, what, point, build):
    """``build()``, run once per (hashable what, point, policy in force) and
    kept on ``op`` with its arrays read-only; a build that raises stores nothing."""
    return _kept(op._memo, (what, point if point is INFINITY else complex(point)), build)


def _kept(memo: dict, key: tuple, build):
    """``build()``, run once per (key, policy in force) and kept in ``memo``
    with its arrays read-only; a build that raises stores nothing."""
    key += (nk._policy(),)
    if key not in memo:
        memo[key] = _read_only(build())
    return memo[key]


def range_frame(op: PartialOperator, point) -> Subspace:
    """The shifted range of an isometric or symmetric operator at a point.

    Isometric V: the range of (E - zeta V) on the domain; ``INFINITY`` selects
    the range of V itself.  Symmetric A: the range of (A - z E) on the domain.
    """
    d, a = op.dom.basis, op.action
    if isinstance(op, IsometryOp):
        raw = a if point is INFINITY else d - complex(point) * a
    elif point is INFINITY:
        raise ValueError("infinity defect is defined for isometric operators only")
    else:
        raw = a - complex(point) * d
    return nk.orthonormalize(raw)


def defect_subspaces(op: PartialOperator, point) -> DefectPair:
    """Defect pair of an isometric or symmetric operator at a point: the
    shifted range of ``range_frame`` and its orthogonal complement."""
    m_space = range_frame(op, point)
    return DefectPair(m_space, nk.orthogonal_complement(m_space))


def parameter_frames(op: PartialOperator, anchor) -> tuple[DefectPair, DefectPair]:
    """Defect pairs at an anchor and at its partner point, between whose
    complements the parameters anchored there act.

    An isometry anchored at z0 partners with 1/conj(z0) (``INFINITY`` when
    z0 = 0); a symmetric operator anchored at z partners with conj(z).
    """
    def build():
        if isinstance(op, IsometryOp):
            partner = INFINITY if anchor == 0 else 1.0 / np.conj(anchor)
        else:
            partner = np.conj(anchor)
        return defect_subspaces(op, anchor), defect_subspaces(op, partner)
    return _memoized(op, "frames", anchor, build)


def _comparison_blocks(op: PartialOperator, anchor) -> tuple:
    """The blocks (P0* M, P1* M, P0* S, P1* S, T* S, T* M) that
    ``_comparison_coords`` reads, kept once per (operator, anchor, policy).
    Raises ``NumericalFailure`` when the defect space at the anchor is not
    n - d dimensional: its shifted range has lost rank."""
    def build():
        src, dst = parameter_frames(op, anchor)
        if src.n_space.dim != op.ambient_dim - op.dom.dim:
            raise NumericalFailure("domain and defect do not span the space")
        p0, p1 = op.dom.basis, op.action
        if not isinstance(op, IsometryOp):
            p0, p1 = p1, p0
        m, s = src.m_space.basis, src.n_space.basis
        t_m, t_s = (dst.n_space.basis.conj().T @ frame for frame in (m, s))
        p0_m, p1_m, p0_s, p1_s = (p.conj().T @ frame for frame in (m, s) for p in (p0, p1))
        return p0_m, p1_m, p0_s, p1_s, t_s, t_m
    return _memoized(op, "blocks", anchor, build)


def _inv_at(point, m: CMatrix, b: CMatrix | None = None) -> CMatrix:
    """``nk.inv(m)``, or ``nk.solve(m, b)`` when ``b`` is given, for a system set
    up at a point; a singular one is reported as ``SingularSystem`` at that point."""
    try:
        return nk.inv(m) if b is None else nk.solve(m, b)
    except Singular as exc:
        raise SingularSystem(point, exc.smallest_sv) from exc


def _comparison_coords(op: PartialOperator, anchor, point) -> CMatrix:
    """K(p): the coordinates, from the n-frame S at the anchor into the n-frame
    T at its partner, of the map sending the S-shadow of a p-defect vector to
    its T-shadow; at ``INFINITY``, their limit.

    With M the m-frame at the anchor and (P0, P1) = (D, action) for an
    isometry, (action, D) for a symmetric operator, the shifted range at p is
    the range of R(p) = P0 - p P1, so v = S c + M w is a p-defect vector
    exactly when R(p)* v = 0: K(p) = T* S - T* M (R(p)* M)^-1 R(p)* S, one
    d x d inverse that raises ``SingularSystem`` at p.  At infinity R(p)*
    reduces to P1*, and K holds a symmetric operator's forbidden operator.
    """
    p0_m, p1_m, p0_s, p1_s, t_s, t_m = _comparison_blocks(op, anchor)
    if not (p0_m.size and t_s.size):
        return t_s
    if point is INFINITY:
        return t_s - t_m @ (_inv_at(point, p1_m) @ p1_s)
    conj = np.conj(point)
    return t_s - t_m @ (_inv_at(point, p0_m - conj * p1_m) @ (p0_s - conj * p1_s))


def _transport(raw_dom: CMatrix, raw_ran: CMatrix) -> tuple[Subspace, CMatrix]:
    """Orthonormalize a raw domain frame and re-express the images accordingly.

    Requires ``raw_dom`` to have full column rank: the map raw_dom x -> raw_ran x
    becomes Q y -> (raw_ran C^-1) y with Q C = raw_dom.
    """
    if raw_dom.shape[1] == 0:
        return Subspace(raw_dom), raw_ran
    q = nk.orthonormalize(raw_dom)
    if q.dim != raw_dom.shape[1]:
        raise NumericalFailure("raw domain frame is rank deficient")
    coeff = q.basis.conj().T @ raw_dom
    return q, raw_ran @ nk.inv(coeff)


def moebius_transform(v: IsometryOp, z: complex) -> IsometryOp:
    """Fractional transform of an isometry at a disk point.

    Sends V to the isometry with domain (E - z V) D(V) that maps (E - z V) f
    to (V - conj(z) E) f.  The inverse is the transform taken at -z.
    """
    if abs(z) >= 1:
        raise ValueError("transform point must lie in the open unit disk")
    def build():
        d, r = v.dom.basis, v.ran_basis
        q, images = _transport(d - z * r, r - np.conj(z) * d)
        return IsometryOp(q, nk.symmetric_orthogonalize(images))
    return _memoized(v, "moebius", z, build)


def cayley_transform(op: PartialOperator, z: complex) -> PartialOperator:
    """Cayley transform between symmetric operators and isometries without fixed vectors.

    A symmetric A maps to the isometry sending (A - z E) f to (A - conj(z) E) f.
    An isometry W with no eigenvalue 1 on its domain maps back to the
    symmetric operator sending (W - E) g to (z W - conj(z) E) g.
    """
    require_nonreal(z)
    if isinstance(op, SymmetricOp):
        def build():
            d, a = op.dom.basis, op.action
            q, images = _transport(a - z * d, a - np.conj(z) * d)
            return IsometryOp(q, nk.symmetric_orthogonalize(images))
        return _memoized(op, "cayley", z, build)
    if not isinstance(op, IsometryOp):
        raise TypeError("the Cayley transform expects a symmetric operator or an isometry")
    if not is_regular_type(op, 1.0)[0]:
        raise FixedPointObstruction("isometry fixes a non-zero vector; no symmetric inverse")
    d, r = op.dom.basis, op.ran_basis
    q, images = _transport(r - d, z * r - np.conj(z) * d)
    return SymmetricOp(q, images)


def is_regular_type(op: PartialOperator, point) -> tuple[bool, float]:
    """Whether (op - point E) is bounded below on the domain, with the bound.

    The bound is the smallest singular value of the restriction; an empty
    domain is vacuously regular with bound +inf.
    """
    if op.dom.dim == 0:
        return True, np.inf
    mat = op.action - complex(point) * op.dom.basis
    s = np.linalg.svd(mat, compute_uv=False)
    return bool(s[-1] > nk._policy().threshold(s[0], op.ambient_dim)), float(s[-1])


def _direct_sum(v: IsometryOp, c: CMatrix, src: Subspace, dst: Subspace) -> CMatrix:
    """The matrix of V on its domain plus the map with coordinates ``c`` from
    ``src`` into ``dst``, everywhere defined."""
    return v.ambient_partial() + dst.basis @ c @ src.basis.conj().T


def orthogonal_extension(v: IsometryOp, c: CMatrix, z0: complex) -> CMatrix:
    """Everywhere-defined contraction extending V, parametrized at an anchor z0.

    ``c`` is the coordinate matrix of a contraction from the defect space at
    z0 into the defect space at 1/conj(z0) (the range-side defect when z0=0).
    At z0 = 0 the result is the direct sum of V and the parameter; otherwise
    the direct sum is formed for the transformed isometry and pulled back.
    """
    c = nk.as_cmatrix(c)
    src, dst = (pair.n_space for pair in parameter_frames(v, z0))
    if c.shape != (dst.dim, src.dim):
        raise ValueError(f"parameter shape {c.shape} does not match defects ({dst.dim}, {src.dim})")
    nk.check_contraction(c, "parameter norm")
    return _orthogonal_extension(v, c, z0)


def _orthogonal_extension(v: IsometryOp, c: CMatrix, z0: complex) -> CMatrix:
    """``orthogonal_extension`` of a decided contraction of the defects' shape.

    The direct sum of the transformed isometry and a contraction is a
    contraction, and the fractional map pulls it back through a certified
    inverse, so the value is not checked again."""
    if abs(z0) >= 1:
        raise ValueError("anchor must lie in the open unit disk")
    src, dst = (pair.n_space for pair in parameter_frames(v, z0))
    vz = v if z0 == 0 else moebius_transform(v, z0)
    plus = _direct_sum(vz, c, src, dst)
    if z0 == 0:
        return plus
    eye = np.eye(v.ambient_dim)
    return (plus + np.conj(z0) * eye) @ nk.inv(eye + z0 * plus)


def classify_signs(op: PartialOperator) -> str:
    """Sign classification of the quadratic form Im (B h, h) over the domain.

    Returns 'symmetric' when the form vanishes, 'dissipative'/'accumulative'
    for one-signed forms and 'neither' otherwise.
    """
    if op.dom.dim == 0:
        return "symmetric"
    gram = op.dom.basis.conj().T @ op.action
    imag_part = (gram - gram.conj().T) / 2.0j
    w = np.linalg.eigvalsh((imag_part + imag_part.conj().T) / 2.0)
    gate = max(nk._policy().abs_floor, 1e-12 * max(1.0, nk.op_norm(gram)))
    if np.all(np.abs(w) <= gate):
        return "symmetric"
    if np.all(w >= -gate):
        return "dissipative"
    if np.all(w <= gate):
        return "accumulative"
    return "neither"
