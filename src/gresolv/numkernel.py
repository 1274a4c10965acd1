"""Dense complex linear algebra and subspace calculus under one tolerance policy.

Every matrix is a 2-D ``numpy.ndarray`` of ``complex128`` (called ``CMatrix``
throughout).  A ``Subspace`` is an orthonormal frame; every rank decision
reads the one ``TolPolicy`` in force (``DEFAULT_TOL`` unless a ``with
tolerance(policy):`` block sets another), so that downstream verdicts are
reproducible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import KindMismatch, NotContraction, Singular

CMatrix = np.ndarray

_EPS = float(np.finfo(np.float64).eps)

#: gap below which two eigenvalues of a normal matrix are merged into one atom
EIG_MERGE_GAP = 1e-8

#: validation gate for "is this frame orthonormal / this matrix unitary" checks
STRUCT_GATE = 1e-8

#: isometry gate for maps the library builds itself
BUILT_GATE = 1e-10

#: a norm up to 1 + CONTRACTION_SLACK still counts as a contraction
CONTRACTION_SLACK = 1e-10


def as_cmatrix(entries) -> CMatrix:
    """Coerce to a finite complex128 2-D array (scalars become 1x1)."""
    m = np.atleast_2d(np.asarray(entries, dtype=np.complex128))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def op_norm(m: CMatrix) -> float:
    """Operator (spectral) norm; 0 for empty matrices.

    The largest singular value, bitwise that of ``np.linalg.norm(m, 2)``
    without the wrapper's cost."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


#: relative margin by which a Frobenius bound must clear a gate to decide it;
#: it covers the rounding of both norms for matrices of up to ~4,000 entries
_FRO_MARGIN = 1e-12


def _fro(m: CMatrix) -> float:
    """Frobenius norm; inf or nan when an entry is not finite."""
    return math.sqrt(np.vdot(m, m).real)


def _fro_bounds(m: CMatrix) -> tuple[float, float]:
    """Lower and upper bound of ``op_norm(m)``:
    ||M||_F / sqrt(min(rows, columns)) <= ||M|| <= ||M||_F."""
    fro = _fro(m)
    return fro / math.sqrt(max(1, min(m.shape))), fro


def _norm_within(m: CMatrix, bound: float, scale: CMatrix | None = None) -> bool:
    """``op_norm(m) <= bound``, or ``op_norm(m) <= bound * max(1, op_norm(scale))``
    when a ``scale`` matrix is given, decided without an SVD whenever the
    Frobenius bounds of both norms settle it."""
    low, high = _fro_bounds(m)
    s_low, s_high = _fro_bounds(scale) if scale is not None else (0.0, 0.0)
    if high <= (1.0 - _FRO_MARGIN) * bound * max(1.0, s_low):
        return True
    if low > (1.0 + _FRO_MARGIN) * bound * max(1.0, s_high):
        return False
    return op_norm(m) <= bound * (1.0 if scale is None else max(1.0, op_norm(scale)))


def _worst_norm(mats) -> float:
    """``max(op_norm(m) for m in mats)``, 0 for none: SVDs in decreasing Frobenius norm
    (a nan one first, to raise) until that norm cannot exceed the largest found."""
    worst = 0.0
    for fro, m in sorted(((_fro(m), m) for m in mats),
                         key=lambda t: -math.inf if math.isnan(t[0]) else -t[0]):
        if (1.0 + _FRO_MARGIN) * fro <= worst:
            break
        worst = max(worst, op_norm(m))
    return worst


def _gram_defect(m: CMatrix) -> CMatrix:
    return m.conj().T @ m - np.eye(m.shape[1])


def isometry_defect(m: CMatrix) -> float:
    """Norm of M* M - E: 0 for a matrix with orthonormal columns (or none)."""
    return op_norm(_gram_defect(m))


def is_isometric(m: CMatrix, gate: float) -> bool:
    """Whether the isometry defect of M is within ``gate``."""
    return _norm_within(_gram_defect(m), gate)


def is_unitary(m: CMatrix, gate: float) -> bool:
    """Whether M is square with isometry defect within ``gate``."""
    return m.shape[0] == m.shape[1] and is_isometric(m, gate)


def is_hermitian(m: CMatrix, gate: float) -> bool:
    """Whether M - M* is within ``gate`` relative to max(1, ||M||)."""
    return _norm_within(m - m.conj().T, gate, m)


def check_contraction(m, what: str) -> None:
    """Raise ``NotContraction`` when the norm of ``m``, a matrix or a norm
    already computed, exceeds 1 beyond ``CONTRACTION_SLACK``."""
    m = np.atleast_2d(m)
    if not _norm_within(m, 1.0 + CONTRACTION_SLACK):
        raise NotContraction(f"{what} {op_norm(m):.6f} exceeds 1")


@dataclass(frozen=True)
class TolPolicy:
    """Tolerance policy for rank and invertibility decisions.

    ``rank_rel=None`` selects the dimension-aware default ``64 * n * eps``.
    """

    abs_floor: float = 1e-10
    rank_rel: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.abs_floor) and self.abs_floor >= 0):
            raise ValueError("abs_floor must be finite and nonnegative")
        if self.rank_rel is not None and not (np.isfinite(self.rank_rel) and self.rank_rel >= 0):
            raise ValueError("rank_rel must be finite and nonnegative")

    def rel_factor(self, n: int) -> float:
        return self.rank_rel if self.rank_rel is not None else 64.0 * max(n, 1) * _EPS

    def threshold(self, sigma_max: float, n: int) -> float:
        """Singular values at or below this are treated as zero."""
        return max(self.abs_floor, self.rel_factor(n) * sigma_max)


DEFAULT_TOL = TolPolicy()

_POLICY: ContextVar[TolPolicy] = ContextVar("gresolv.tolerance", default=DEFAULT_TOL)

#: the policy in force, read where a rank or invertibility decision is made
_policy = _POLICY.get


@contextmanager
def tolerance(policy: TolPolicy):
    """Make ``policy`` the one in force for the block, memoized values
    included; the previous policy is restored on exit, errors included."""
    token = _POLICY.set(policy)
    try:
        yield
    finally:
        _POLICY.reset(token)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n held as an orthonormal n x k column frame (k may be 0)."""

    basis: CMatrix

    def __post_init__(self):
        if not is_isometric(self.basis, STRUCT_GATE):
            raise ValueError("frame columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def empty(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n, dtype=np.complex128))


def _svd_frame(u: CMatrix) -> Subspace:
    """The frame of singular vectors ``u``, phase-fixed, without the Gram check
    of ``Subspace``: an SVD's columns are orthonormal to rounding."""
    frame = object.__new__(Subspace)
    object.__setattr__(frame, "basis", _fix_phases(u))
    return frame


def _fix_phases(q: CMatrix) -> CMatrix:
    """Rotate each column so its largest-modulus entry is real positive.

    Deterministic representative of the frame; does not change the span.
    """
    q = q.copy()
    if q.size == 0:
        return q
    pivots = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    # scalar phases: numpy's array abs and array complex division round
    # differently from the scalar ones, and the frames' bits are kept; a zero
    # column is not multiplied, so its signed zeros keep theirs too
    cols = [j for j, piv in enumerate(pivots) if abs(piv) > 0]
    if cols:
        q[:, cols] *= np.array([np.conj(pivots[j]) / abs(pivots[j]) for j in cols])
    return q


def orthonormalize(m: CMatrix) -> Subspace:
    """Orthonormal basis of the column space of ``m``; rank set by the policy."""
    m = as_cmatrix(m)
    n = m.shape[0]
    if m.shape[1] == 0:
        return Subspace.empty(n)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace.empty(n)
    rank = int(np.sum(s > _policy().threshold(s[0], n)))
    return _svd_frame(u[:, :rank])


def orthogonal_complement(s: Subspace) -> Subspace:
    """Orthonormal basis of the orthogonal complement of ``s``."""
    n, k = s.ambient_dim, s.dim
    if k == 0:
        return Subspace.full(n)
    if k == n:
        return Subspace.empty(n)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return _svd_frame(u[:, k:])


def projector(s: Subspace) -> CMatrix:
    """Orthogonal projection onto ``s`` as an n x n matrix."""
    if s.dim == 0:
        return np.zeros((s.ambient_dim, s.ambient_dim), dtype=np.complex128)
    return s.basis @ s.basis.conj().T


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces via SVD of the projector product.

    Singular values of P1 P2 are cosines of principal angles; directions with
    cosine within 100*abs_floor of 1 are kept.
    """
    n = s1.ambient_dim
    if s2.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.empty(n)
    if s1.dim == n:
        return s2
    if s2.dim == n:
        return s1
    u, s, _ = np.linalg.svd(projector(s1) @ projector(s2))
    keep = s >= 1.0 - 100.0 * _policy().abs_floor
    return _svd_frame(u[:, : int(np.sum(keep))])


def injective(m: CMatrix) -> tuple[bool, float]:
    """Whether ``m`` has a trivial numerical kernel, with its smallest singular value.

    The smallest singular value must exceed the threshold for the row count
    of ``m`` relative to max(sigma_max, 1); a matrix without columns is
    injective with bound +inf.
    """
    if m.shape[1] == 0:
        return True, np.inf
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] > _policy().threshold(max(float(s[0]), 1.0), m.shape[0])), float(s[-1])


def kernel(m: CMatrix) -> CMatrix:
    """Orthonormal columns spanning the numerical kernel of ``m``, under the
    threshold of ``injective``; ``m`` is not empty."""
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > _policy().threshold(max(float(s[0]), 1.0), m.shape[0])))
    return vh.conj().T[:, rank:]


def solve(m: CMatrix, b: CMatrix) -> CMatrix:
    """Solve M X = B for square M, rejecting numerically singular systems."""
    m = as_cmatrix(m)
    b = as_cmatrix(b)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("solve expects a square matrix")
    if n == 0:
        return np.zeros((0, b.shape[1]), dtype=np.complex128)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= _policy().threshold(s[0], n):
        raise Singular(s[-1])
    return np.linalg.solve(m, b)


def _certified(m: CMatrix, x: CMatrix) -> bool:
    """Whether X, the ``np.linalg.inv`` of the square M, certifies that
    ``solve`` accepts M; False when M has a non-finite Frobenius norm.

    With rho >= ||M X - E||_F, M^-1 = X (E + (M X - E))^-1 gives
    sigma_min(M) >= (1 - rho) / ||X||_F.  ``solve`` rejects M when its
    smallest singular value is at most the policy's ``threshold(sigma_max, n)``, and
    sigma_max <= ||M||_F.  ``rounding`` pads every quantity generously for
    the rounding of the norms, of the product M X and of the SVD.
    """
    n, norm = m.shape[0], _fro(m)
    if not norm < np.inf:
        return False
    rounding = 8.0 * (n + 2) ** 2 * _EPS
    need = _policy().threshold(norm * (1.0 + rounding), n) + rounding * norm
    x_norm = _fro(x) * (1.0 + rounding)
    # also rejects a non-finite X, and keeps the entries of M X far from overflow
    if not x_norm * need < 1.0:
        return False
    r = m @ x
    r.flat[:: n + 1] -= 1.0
    rho = _fro(r) * (1.0 + rounding) + rounding * norm * x_norm
    return (1.0 - rho) / x_norm > need


def inv(m: CMatrix) -> CMatrix:
    """Inverse of a square M: ``solve(m, E)``, with its verdicts and bits.

    The inverse comes first and certifies itself (``_certified``);
    ``np.linalg.inv`` returns the bits of ``np.linalg.solve(m, E)``, so a
    certified inverse is returned without the SVD of ``solve``.  Every other
    matrix takes the ``solve`` route, its ``Singular`` value and its
    ``ValueError``s included.

    A ``(k, N, N)`` stack is inverted by one ``np.linalg.inv`` call, whose
    members are bitwise those of k single calls, and gives the stack of the k
    inverses; the uncertified members take the ``solve`` route in order, so
    the first one that fails raises what a loop over the members would.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 3:
        return _inv_stack(m)
    if m.ndim == 2 and m.shape[0] == m.shape[1] > 0:
        try:
            x = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and _certified(m, x):
            return x
    return solve(m, np.eye(m.shape[0], dtype=np.complex128))


def _inv_stack(m: np.ndarray) -> np.ndarray:
    """``inv`` of each member of a ``(k, N, N)`` stack, as one array."""
    try:
        x = np.linalg.inv(m) if m.size else None
    except np.linalg.LinAlgError:
        # an exactly singular or a non-finite member: every member takes the
        # single route
        x = None
    if x is None:
        x = np.empty(m.shape, dtype=np.complex128)
        for i, member in enumerate(m):
            x[i] = inv(member)
        return x
    eye = np.eye(m.shape[1], dtype=np.complex128)
    for i in np.flatnonzero(~_certified_each(m, x)):
        x[i] = solve(m[i], eye)
    return x


def _fro_each(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack."""
    v = m.reshape(len(m), -1).view(np.float64)
    return np.sqrt(np.einsum("ki,ki->k", v, v))


def _certified_each(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_certified`` of each member of a stack and its inverses, from batched
    norms and one batched product.  ``_certified`` stays the body for a single
    matrix, where the fixed cost of the batched calls outweighs the arithmetic."""
    k, n = m.shape[0], m.shape[-1]
    rounding = 8.0 * (n + 2) ** 2 * _EPS
    # a member whose norms or product overflow fails the tests below
    policy = _policy()
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _fro_each(m)
        # ``policy.threshold`` of each member's padded norm
        need = np.maximum(policy.abs_floor, policy.rel_factor(n) * (norm * (1.0 + rounding)))
        need += rounding * norm
        x_norm = _fro_each(x) * (1.0 + rounding)
        r = m @ x
        r.reshape(k, -1)[:, :: n + 1] -= 1.0
        rho = _fro_each(r) * (1.0 + rounding) + rounding * norm * x_norm
        return (norm < np.inf) & (x_norm * need < 1.0) & ((1.0 - rho) / x_norm > need)


def _cluster_sorted(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Group indices of a sorted 1-D real array into chains with step < gap."""
    groups: list[list[int]] = []
    for i in range(values.size):
        if groups and values[i] - values[groups[-1][-1]] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.asarray(g) for g in groups]


def _eig_hermitian(m: CMatrix) -> list[tuple[complex, CMatrix]]:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    out = []
    for idx in _cluster_sorted(w, EIG_MERGE_GAP):
        block = v[:, idx]
        out.append((complex(np.mean(w[idx])), block @ block.conj().T))
    return out


def _eig_unitary(m: CMatrix) -> list[tuple[complex, CMatrix]]:
    # Two-stage Hermitian splitting: eigenspaces of the real part, refined by
    # the imaginary part.  Keeps every projection exactly orthogonal.
    cos_part = (m + m.conj().T) / 2.0
    sin_part = (m - m.conj().T) / 2.0j
    w1, v1 = np.linalg.eigh(cos_part)
    raw: list[tuple[complex, CMatrix]] = []
    for idx in _cluster_sorted(w1, EIG_MERGE_GAP):
        block = v1[:, idx]
        k = block.conj().T @ sin_part @ block
        w2, v2 = np.linalg.eigh((k + k.conj().T) / 2.0)
        for sub in _cluster_sorted(w2, EIG_MERGE_GAP):
            vec = block @ v2[:, sub]
            lam = complex(np.mean(w1[idx])) + 1j * complex(np.mean(w2[sub]))
            lam /= abs(lam)
            raw.append((lam, vec))
    # chordal merge of candidates that the cos/sin split kept apart; the two
    # either side of angle 0 share a cos block, whose sin split keeps them apart
    raw.sort(key=lambda t: np.angle(t[0]) % (2 * np.pi))
    merged: list[tuple[complex, list[CMatrix]]] = []
    for lam, vec in raw:
        if merged and abs(lam - merged[-1][0]) < EIG_MERGE_GAP:
            merged[-1][1].append(vec)
        else:
            merged.append((lam, [vec]))
    out = []
    for lam, vecs in merged:
        block = np.hstack(vecs)
        out.append((lam, block @ block.conj().T))
    return out


def eig_normal(m: CMatrix, kind: str) -> list[tuple[complex, CMatrix]]:
    """Eigenvalues and orthogonal eigenprojections of a unitary or Hermitian matrix.

    Eigenvalues closer than ``EIG_MERGE_GAP`` are merged into one projection so
    that arc/interval membership of an atom is unambiguous.  The result is
    sorted by angle in [0, 2pi) for ``kind='unitary'`` and increasing value for
    ``kind='hermitian'``.

    Raises ``KindMismatch`` if ``m`` fails the declared structure test.
    """
    m = as_cmatrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("eig_normal expects a square matrix")
    if n == 0:
        return []
    gate = max(STRUCT_GATE, _policy().abs_floor)
    if kind == "hermitian":
        if not is_hermitian(m, gate):
            raise KindMismatch("matrix is not Hermitian within tolerance")
        pairs = _eig_hermitian(m)
        pairs.sort(key=lambda t: t[0].real)
        return pairs
    if kind == "unitary":
        if not is_unitary(m, gate):
            raise KindMismatch("matrix is not unitary within tolerance")
        pairs = _eig_unitary(m)
        pairs.sort(key=lambda t: np.angle(t[0]) % (2 * np.pi))
        return pairs
    raise ValueError(f"unknown kind {kind!r}")


def haar_frame(n: int, k: int, rng: np.random.Generator) -> CMatrix:
    """Random n x k orthonormal frame (Haar-distributed column span)."""
    if k == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    # make the distribution exactly Haar: absorb the phases of diag(r)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, rng: np.random.Generator) -> CMatrix:
    return haar_frame(n, n, rng)


def symmetric_orthogonalize(q: CMatrix) -> CMatrix:
    """Closest frame with exactly orthonormal columns (polar correction)."""
    if q.shape[1] == 0:
        return q
    gram = q.conj().T @ q
    w, v = np.linalg.eigh(gram)
    w = np.maximum(w, _EPS)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return q @ inv_sqrt
