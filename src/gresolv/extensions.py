"""Extension calculus for symmetric operators: forbidden operator, admissibility,
generalized Neumann formulas, correcting isometries, and exit-space extensions.

Conventions.  A ``PartialMap`` sends ``src.basis @ x`` to ``matrix @ x``; its
columns are ambient vectors.  Whenever an operator is split over an inner
space and an exit space, block coordinates always refer to the canonical
embedded defect frames produced by ``exit_frames``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import (InternalDisagreement, NotAdmissible, NotContraction,
                     NumericalFailure, T22NotAdmissible)
from .numkernel import CMatrix, DEFAULT_TOL, Subspace, TolPolicy
from .operators import (IsometryOp, PartialOperator, SymmetricOp, cayley_transform,
                        defect_subspaces, parameter_frames)


@dataclass(frozen=True)
class PartialMap:
    """A linear map from a subspace into an ambient space, column by column."""

    src: Subspace
    dst_ambient: int
    matrix: CMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.dst_ambient, self.src.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match source")

    @property
    def dim(self) -> int:
        return self.src.dim

    def ambient(self) -> CMatrix:
        """Extension-by-zero matrix: the map on src, 0 on its complement."""
        return self.matrix @ self.src.basis.conj().T

    def coords(self, dst: Subspace) -> CMatrix:
        """Coordinate matrix with respect to a destination frame."""
        return dst.basis.conj().T @ self.matrix

    def norm(self) -> float:
        return nk.op_norm(self.matrix)

    def is_isometric(self, gate: float = 1e-8) -> bool:
        gram = self.matrix.conj().T @ self.matrix
        return nk.op_norm(gram - np.eye(self.dim)) <= gate

    @classmethod
    def empty(cls, n: int) -> "PartialMap":
        return cls(Subspace.empty(n), n, np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def from_coords(cls, src: Subspace, dst: Subspace, coords: CMatrix) -> "PartialMap":
        coords = nk.as_cmatrix(coords)
        if coords.shape != (dst.dim, src.dim):
            raise ValueError(f"coordinate shape {coords.shape} does not match frames")
        return cls(src, dst.ambient_dim, dst.basis @ coords)


@dataclass(frozen=True)
class BlockParam:
    """Two-by-two block coordinates of a map between split defect spaces.

    ``t11``: inner -> inner, ``t12``: exit -> inner, ``t21``: inner -> exit,
    ``t22``: exit -> exit, with respect to the canonical embedded frames.
    """

    t11: CMatrix
    t12: CMatrix
    t21: CMatrix
    t22: CMatrix
    isometry: bool = False

    def __post_init__(self):
        t = self.assembled()
        if nk.op_norm(t) > 1.0 + 1e-10:
            raise NotContraction(f"assembled block norm {nk.op_norm(t):.6f} exceeds 1")
        if self.isometry and nk.op_norm(t.conj().T @ t - np.eye(t.shape[1])) > nk.STRUCT_GATE:
            raise ValueError("assembled block is not isometric")

    def assembled(self) -> CMatrix:
        top = np.hstack([self.t11, self.t12])
        bottom = np.hstack([self.t21, self.t22])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class ExitSpaceModel:
    """A unitary or self-adjoint extension acting on inner + exit coordinates.

    ``big_op`` is everywhere defined (a plain matrix); its restriction to the
    embedded domain of ``embeds`` reproduces that operator.  ``anchor``,
    ``block`` and ``exit_op`` record how a Hermitian model was assembled and
    enable the compression cross-checks; they are None for models built from
    raw matrices.
    """

    inner_dim: int
    exit_dim: int
    kind: str  # 'unitary' | 'hermitian'
    big_op: CMatrix
    embeds: PartialOperator
    anchor: complex | None = None
    block: BlockParam | None = None
    exit_op: SymmetricOp | None = None

    def __post_init__(self):
        n, m = self.inner_dim, self.exit_dim
        if self.big_op.shape != (n + m, n + m):
            raise ValueError("big operator has the wrong shape")
        if self.kind not in ("unitary", "hermitian"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        big = self.big_op
        if self.kind == "unitary":
            defect = nk.op_norm(big.conj().T @ big - np.eye(n + m))
        else:
            defect = nk.op_norm(big - big.conj().T) / max(1.0, nk.op_norm(big))
        if defect > nk.STRUCT_GATE:
            raise ValueError(f"big operator fails its {self.kind} test ({defect:.3e})")
        emb_dom = embed_inner(self.embeds.dom.basis, m)
        emb_img = embed_inner(self.embeds.action, m)
        res = nk.op_norm(big @ emb_dom - emb_img)
        if res > 1e-10 * max(1.0, nk.op_norm(big)):
            raise ValueError(f"model does not extend the inner operator ({res:.3e})")

    @property
    def total_dim(self) -> int:
        return self.inner_dim + self.exit_dim


def embed_inner(mat: CMatrix, exit_dim: int) -> CMatrix:
    """Pad inner-space columns with zero exit coordinates."""
    return np.vstack([mat, np.zeros((exit_dim, mat.shape[1]), dtype=np.complex128)])


def embed_exit(mat: CMatrix, inner_dim: int) -> CMatrix:
    """Pad exit-space columns with zero inner coordinates."""
    return np.vstack([np.zeros((inner_dim, mat.shape[1]), dtype=np.complex128), mat])


def forbidden_operator(a: SymmetricOp, z: complex, tol: TolPolicy = DEFAULT_TOL) -> PartialMap:
    """The isometry pairing defect vectors that are comparable modulo the domain.

    Every vector orthogonal to the closed domain projects to a source vector in
    the defect space at z and to its image in the defect space at conj(z); the
    map defined this way is isometric.  Parameters colliding with it produce
    no extension.
    """
    if z.imag == 0:
        raise ValueError("the point must be non-real")
    n = a.ambient_dim
    ortho = nk.orthogonal_complement(a.dom, tol)
    if ortho.dim == 0:
        return PartialMap.empty(n)
    p_src, p_dst = (nk.projector(pair.n_space) for pair in parameter_frames(a, z, tol))
    shadow = p_src @ ortho.basis
    src = nk.orthonormalize(shadow, tol)
    if src.dim != ortho.dim:
        raise NumericalFailure("projection of the domain complement lost rank")
    lift, *_ = np.linalg.lstsq(shadow, src.basis, rcond=None)
    matrix = p_dst @ ortho.basis @ lift
    gram = matrix.conj().T @ matrix
    if nk.op_norm(gram - np.eye(src.dim)) > 1e-10:
        raise NumericalFailure("forbidden operator failed its isometry check")
    return PartialMap(src, n, matrix)


def forbidden_lift(a: SymmetricOp, z: complex, x: PartialMap,
                   psi_coords: np.ndarray) -> np.ndarray:
    """Reconstruct the domain-orthogonal vector behind a forbidden-operator pair.

    Given psi in the source of the forbidden map (coordinates with respect to
    ``x.src``), returns the vector h orthogonal to the closed domain whose
    defect shadows are psi and its image under the map.
    """
    psi = x.src.basis @ psi_coords
    phi = x.matrix @ psi_coords
    diff = psi - phi
    coords, *_ = np.linalg.lstsq(a.dom.basis, diff, rcond=None)
    scale = max(1.0, float(np.linalg.norm(diff)))
    if float(np.linalg.norm(a.dom.basis @ coords - diff)) > 1e-8 * scale:
        raise NumericalFailure("pair is not comparable modulo the domain")
    return (a.action @ coords - np.conj(z) * psi + z * phi) / (z - np.conj(z))


def is_admissible(a: SymmetricOp, z: complex, t: PartialMap,
                  tol: TolPolicy = DEFAULT_TOL) -> bool:
    """Whether a defect-space parameter admits an extension (two independent tests).

    Test (a): the difference with the forbidden operator has trivial kernel on
    the common domain.  Test (b): the direct sum of the Cayley transform and
    the parameter has no eigenvalue 1 on its domain.  Both verdicts must agree.
    """
    n = a.ambient_dim
    x = forbidden_operator(a, z, tol)
    common = nk.intersect(t.src, x.src, tol)
    if common.dim == 0:
        verdict_a = True
    else:
        diff = (t.ambient() - x.ambient()) @ common.basis
        s = np.linalg.svd(diff, compute_uv=False)
        verdict_a = bool(s[-1] > tol.threshold(max(s[0], 1.0), n))
    u = cayley_transform(a, z, "forward", tol)
    frame = np.hstack([u.dom.basis, t.src.basis])
    images = np.hstack([u.action, t.matrix])
    if frame.shape[1] == 0:
        verdict_b = True
    else:
        s = np.linalg.svd(images - frame, compute_uv=False)
        verdict_b = bool(s[-1] > tol.threshold(max(s[0], 1.0), n))
    if verdict_a != verdict_b:
        raise InternalDisagreement(
            f"kernel test says {verdict_a}, fixed-point test says {verdict_b}")
    return verdict_a


@dataclass(frozen=True)
class ExtensionClass:
    """Classification tail of a generalized Neumann extension."""

    kind: str  # 'symmetric' | 'dissipative' | 'accumulative'
    closed: bool
    maximal: bool
    self_adjoint: bool


def neumann_extension(a: SymmetricOp, z: complex, t: PartialMap,
                      tol: TolPolicy = DEFAULT_TOL,
                      validate: bool = True) -> tuple[PartialOperator, ExtensionClass]:
    """Extension with domain D(A) + (T - E) D(T) acting by f + T psi - psi
    -> A f + z T psi - conj(z) psi.

    ``t`` must be an admissible contraction from a subspace of the defect
    space at z into the defect space at conj(z); isometric parameters give
    symmetric extensions, strict contractions give dissipative (Im z < 0) or
    accumulative (Im z > 0) ones.
    """
    if z.imag == 0:
        raise ValueError("the anchor must be non-real")
    n = a.ambient_dim
    pair_z, pair_zbar = parameter_frames(a, z, tol)
    if t.dim:
        off_src = nk.op_norm((np.eye(n) - nk.projector(pair_z.n_space)) @ t.src.basis)
        off_dst = nk.op_norm((np.eye(n) - nk.projector(pair_zbar.n_space)) @ t.matrix)
        if max(off_src, off_dst) > nk.STRUCT_GATE:
            raise ValueError("parameter does not map between the defect subspaces")
    if t.norm() > 1.0 + 1e-10:
        raise NotContraction(f"parameter norm {t.norm():.6f} exceeds 1")
    if not is_admissible(a, z, t, tol):
        raise NotAdmissible("parameter")
    isometric = t.is_isometric()

    raw_dom = np.hstack([a.dom.basis, t.matrix - t.src.basis])
    raw_img = np.hstack([a.action, z * t.matrix - np.conj(z) * t.src.basis])
    if raw_dom.shape[1] == 0:
        ext: PartialOperator = PartialOperator(n, Subspace.empty(n), raw_img)
    else:
        q = nk.orthonormalize(raw_dom, tol)
        if q.dim != raw_dom.shape[1]:
            raise NumericalFailure("extension domain sum is not direct")
        coeff = q.basis.conj().T @ raw_dom
        ext = PartialOperator(n, q, raw_img @ nk.inv(coeff, tol))

    full_dom = t.dim == pair_z.n_space.dim
    full_ran = isometric and t.dim == pair_zbar.n_space.dim
    if isometric:
        cls = ExtensionClass("symmetric", True, full_dom or full_ran, full_dom and full_ran)
    else:
        kind = "dissipative" if z.imag < 0 else "accumulative"
        cls = ExtensionClass(kind, True, full_dom, False)

    if validate and t.dim:
        _check_neumann_tail(a, z, t, ext, pair_z, tol)
    return ext, cls


def _check_neumann_tail(a: SymmetricOp, z: complex, t: PartialMap, ext: PartialOperator,
                        pair_z, tol: TolPolicy) -> None:
    # the parameter domain is recovered as defect cap range of (B - z)
    rng = nk.orthonormalize(ext.action - z * ext.dom.basis, tol)
    inter = nk.intersect(pair_z.n_space, rng, tol)
    if inter.dim != t.dim or nk.op_norm(nk.projector(inter) - nk.projector(t.src)) > 1e-8:
        raise InternalDisagreement("recovered parameter domain differs from the input one")
    # and the parameter itself sits inside the Cayley transform of the extension
    shifted = ext.action - z * ext.dom.basis
    sol, *_ = np.linalg.lstsq(shifted, t.src.basis, rcond=None)
    res = nk.op_norm(shifted @ sol - t.src.basis)
    img = (ext.action - np.conj(z) * ext.dom.basis) @ sol
    if res > 1e-8 or nk.op_norm(img - t.matrix) > 1e-8 * max(1.0, t.norm()):
        raise InternalDisagreement("extension does not reproduce the parameter")


def neumann_parameter(b: PartialOperator, a: SymmetricOp, z: complex,
                      tol: TolPolicy = DEFAULT_TOL) -> PartialMap:
    """Recover the defect-space parameter of an extension of ``a`` at anchor z.

    Inverse of ``neumann_extension``: the source is the defect space at z
    intersected with the range of (B - z E), and the map is the Cayley
    transform of B restricted there.
    """
    n = a.ambient_dim
    shifted = b.action - z * b.dom.basis
    rng = nk.orthonormalize(shifted, tol)
    src = nk.intersect(defect_subspaces(a, z, tol).n_space, rng, tol)
    if src.dim == 0:
        return PartialMap.empty(n)
    sol, *_ = np.linalg.lstsq(shifted, src.basis, rcond=None)
    if nk.op_norm(shifted @ sol - src.basis) > 1e-8:
        raise NumericalFailure("defect vectors do not lie in the shifted range")
    return PartialMap(src, n, (b.action - np.conj(z) * b.dom.basis) @ sol)


def build_admissible_isometry(a: SymmetricOp, z: complex, n_src: Subspace, n_dst: Subspace,
                              seed: int, tol: TolPolicy = DEFAULT_TOL) -> PartialMap:
    """Seeded admissible isometry from one defect subspace onto another.

    Restricts the forbidden operator to the part mapping n_src into n_dst,
    corrects it with a rotation on its fixed directions, and completes with a
    random isometry on the left-over directions.  The rotation angle is drawn
    uniformly from (pi/4, 7pi/4), bounded away from the forbidden angle 0.
    """
    if n_src.dim != n_dst.dim:
        raise ValueError("source and destination subspaces must have equal dimension")
    n = a.ambient_dim
    rng = np.random.default_rng(seed)
    if n_src.dim == 0:
        return PartialMap.empty(n)
    x = forbidden_operator(a, z, tol)
    eye = np.eye(n)

    # part of the forbidden operator that stays inside the chosen subspaces
    inside = nk.intersect(x.src, n_src, tol)
    if inside.dim:
        out_of_dst = (eye - nk.projector(n_dst)) @ x.ambient() @ inside.basis
        _, s, vh = np.linalg.svd(out_of_dst)
        thr = tol.threshold(max(float(s[0]) if s.size else 0.0, 1.0), n)
        kernel = vh.conj().T[:, np.sum(s > thr):] if s.size else np.eye(inside.dim)
        core = Subspace(n, inside.basis @ kernel) if kernel.shape[1] else Subspace.empty(n)
    else:
        core = Subspace.empty(n)

    w_rand = n_dst.basis @ nk.haar_unitary(n_src.dim, rng) @ n_src.basis.conj().T
    alpha = rng.uniform(np.pi / 4.0, 7.0 * np.pi / 4.0)

    if core.dim:
        img = nk.orthonormalize(x.ambient() @ core.basis, tol)
        target = nk.orthonormalize(w_rand @ core.basis, tol)
        u0 = target.basis @ img.basis.conj().T
        overlap = nk.intersect(img, target, tol)
        if overlap.dim:
            move = (u0 - eye) @ overlap.basis
            _, s, vh = np.linalg.svd(move)
            thr = tol.threshold(max(float(s[0]) if s.size else 0.0, 1.0), n)
            kern = vh.conj().T[:, np.sum(s > thr):] if s.size else np.eye(overlap.dim)
            fixed = overlap.basis @ kern
        else:
            fixed = np.zeros((n, 0), dtype=np.complex128)
        p_fixed = fixed @ fixed.conj().T
        corrector = np.exp(1j * alpha) * p_fixed + u0 @ (nk.projector(img) - p_fixed)
        corrected = corrector @ x.ambient() @ core.basis
        ran_s = nk.orthonormalize(corrector @ img.basis, tol)
    else:
        corrected = np.zeros((n, 0), dtype=np.complex128)
        ran_s = Subspace.empty(n)

    rem_src = nk.orthonormalize((eye - nk.projector(core)) @ n_src.basis, tol)
    rem_dst = nk.orthonormalize((eye - nk.projector(ran_s)) @ n_dst.basis, tol)
    if rem_src.dim != rem_dst.dim:
        raise NumericalFailure("left-over defect directions do not balance")
    completion = rem_dst.basis @ nk.haar_unitary(rem_src.dim, rng)

    src = Subspace(n, np.hstack([core.basis, rem_src.basis]))
    result = PartialMap(src, n, np.hstack([corrected, completion]))
    if not result.is_isometric(1e-10):
        raise NumericalFailure("constructed map lost its isometry")
    if not is_admissible(a, z, result, tol):
        raise NumericalFailure("constructed map failed the admissibility check")
    return result


def direct_sum(a: SymmetricOp, exit_op: SymmetricOp) -> SymmetricOp:
    """The block-diagonal symmetric operator on inner + exit coordinates."""
    n, m = a.ambient_dim, exit_op.ambient_dim
    dom = np.hstack([embed_inner(a.dom.basis, m), embed_exit(exit_op.dom.basis, n)])
    act = np.hstack([embed_inner(a.action, m), embed_exit(exit_op.action, n)])
    return SymmetricOp(n + m, Subspace(n + m, dom), act)


@dataclass(frozen=True)
class ExitFrames:
    """Canonical embedded defect frames of a split operator at one anchor."""

    coupled: SymmetricOp
    exit_op: SymmetricOp
    src_inner: Subspace
    src_exit: Subspace
    dst_inner: Subspace
    dst_exit: Subspace

    @property
    def src(self) -> Subspace:
        n = self.coupled.ambient_dim
        return Subspace(n, np.hstack([self.src_inner.basis, self.src_exit.basis]))

    @property
    def dst(self) -> Subspace:
        n = self.coupled.ambient_dim
        return Subspace(n, np.hstack([self.dst_inner.basis, self.dst_exit.basis]))


def exit_frames(a: SymmetricOp, exit_op: SymmetricOp, z: complex,
                tol: TolPolicy = DEFAULT_TOL) -> ExitFrames:
    n, m = a.ambient_dim, exit_op.ambient_dim
    nm = n + m
    coupled = direct_sum(a, exit_op)
    nz_a, nzb_a = (pair.n_space for pair in parameter_frames(a, z, tol))
    nz_e, nzb_e = (pair.n_space for pair in parameter_frames(exit_op, z, tol))
    return ExitFrames(
        coupled, exit_op,
        Subspace(nm, embed_inner(nz_a.basis, m)), Subspace(nm, embed_exit(nz_e.basis, n)),
        Subspace(nm, embed_inner(nzb_a.basis, m)), Subspace(nm, embed_exit(nzb_e.basis, n)),
    )


def assemble_block_map(frames: ExitFrames, block: BlockParam) -> PartialMap:
    """The defect-space map of a split operator with the given block coordinates."""
    t = block.assembled()
    expect = (frames.dst_inner.dim + frames.dst_exit.dim,
              frames.src_inner.dim + frames.src_exit.dim)
    if t.shape != expect:
        raise ValueError(f"block shape {t.shape} does not match defect frames {expect}")
    return PartialMap.from_coords(frames.src, frames.dst, t)


def block_param_from_map(tmap: PartialMap, frames: ExitFrames, isometry: bool = False) -> BlockParam:
    """Block coordinates of a defect-space map with respect to canonical frames."""
    amb = tmap.ambient()
    return BlockParam(
        t11=frames.dst_inner.basis.conj().T @ amb @ frames.src_inner.basis,
        t12=frames.dst_inner.basis.conj().T @ amb @ frames.src_exit.basis,
        t21=frames.dst_exit.basis.conj().T @ amb @ frames.src_inner.basis,
        t22=frames.dst_exit.basis.conj().T @ amb @ frames.src_exit.basis,
        isometry=isometry,
    )


def compressed_parameter(a: SymmetricOp, exit_dim: int, z: complex,
                         block: BlockParam, tol: TolPolicy = DEFAULT_TOL,
                         exit_op: SymmetricOp | None = None) -> PartialMap:
    """Compression of a split defect parameter to the inner defect spaces.

    For the trivial-domain exit operator the forbidden operator of the exit
    space is the identity, and the compression reduces to
    t11 + t12 (I - t22)^{-1} t21.  A general symmetric exit operator is
    accepted; the same elimination then runs with its forbidden operator.
    """
    if exit_op is None:
        exit_op = SymmetricOp.null(exit_dim)
    if exit_op.ambient_dim != exit_dim:
        raise ValueError("exit operator dimension mismatch")
    x_e = forbidden_operator(exit_op, z, tol)
    nz_e, nzb_e = (pair.n_space for pair in parameter_frames(exit_op, z, tol))
    # coordinates of the exit forbidden operator inside the exit defect frames
    src_c = nz_e.basis.conj().T @ x_e.src.basis
    img_c = nzb_e.basis.conj().T @ x_e.matrix
    elim = img_c - block.t22 @ src_c
    if elim.shape[1]:
        s = np.linalg.svd(elim, compute_uv=False)
        if s[-1] <= tol.threshold(max(float(s[0]), 1.0), exit_dim):
            raise T22NotAdmissible()
    if elim.shape[0] and elim.shape[1] != elim.shape[0]:
        # partial exit forbidden domain: eliminate by least squares with a
        # solvability check (the full-block case always lands inside)
        sol, *_ = np.linalg.lstsq(elim, block.t21, rcond=None)
        res = nk.op_norm(elim @ sol - block.t21)
        if res > 1e-8 * max(1.0, nk.op_norm(block.t21)):
            raise NumericalFailure("exit elimination is not solvable on the full inner defect")
        psi2 = src_c @ sol
    elif elim.shape[1]:
        psi2 = src_c @ nk.solve(elim, block.t21, tol)
    else:
        psi2 = np.zeros((block.t22.shape[1], block.t21.shape[1]), dtype=np.complex128)
    phi_coords = block.t11 + block.t12 @ psi2
    nz_a, nzb_a = (pair.n_space for pair in parameter_frames(a, z, tol))
    result = PartialMap.from_coords(nz_a, nzb_a, phi_coords)
    if block.isometry and not result.is_isometric(1e-10):
        raise NumericalFailure("compression of an isometric block lost its isometry")
    return result


def exit_space_extension(a: SymmetricOp, exit_dim: int, z: complex, block: BlockParam,
                         kind: str = "selfadjoint",
                         tol: TolPolicy = DEFAULT_TOL,
                         exit_op: SymmetricOp | None = None) -> ExitSpaceModel:
    """Self-adjoint extension of ``a`` acting on inner + exit coordinates.

    The exit operator defaults to the trivial-domain one, which makes the
    exit-space characteristic function closed-form.  The block must assemble
    to a unitary map of the split defect spaces and must be admissible for
    the split operator; admissibility failures name the offending piece.
    """
    if kind != "selfadjoint":
        raise ValueError(f"unsupported model kind {kind!r}")
    if exit_op is None:
        exit_op = SymmetricOp.null(exit_dim)
    frames = exit_frames(a, exit_op, z, tol)
    t = block.assembled()
    if t.shape[0] != t.shape[1] or nk.op_norm(t.conj().T @ t - np.eye(t.shape[1])) > nk.STRUCT_GATE:
        raise ValueError("self-adjoint models need a unitary block between full defect spaces")
    tmap = assemble_block_map(frames, block)
    phi = compressed_parameter(a, exit_dim, z, block, tol, exit_op)
    if not is_admissible(a, z, phi, tol):
        raise NotAdmissible("phi")
    if not is_admissible(frames.coupled, z, tmap, tol):
        raise InternalDisagreement("block passed the split tests but fails jointly")
    iso_block = BlockParam(block.t11, block.t12, block.t21, block.t22, isometry=True) \
        if not block.isometry else block
    ext, cls = neumann_extension(frames.coupled, z, tmap, tol)
    if not cls.self_adjoint or not ext.is_everywhere_defined:
        raise NumericalFailure("unitary block did not produce a self-adjoint extension")
    big = ext.full_matrix()
    big = (big + big.conj().T) / 2.0
    return ExitSpaceModel(a.ambient_dim, exit_dim, "hermitian", big, a,
                          anchor=z, block=iso_block, exit_op=exit_op)


def unitary_exit_extension(v: IsometryOp, exit_dim: int,
                           w_block: CMatrix | None = None,
                           rng: np.random.Generator | None = None,
                           tol: TolPolicy = DEFAULT_TOL) -> ExitSpaceModel:
    """Unitary extension of an isometry acting on inner + exit coordinates.

    ``w_block`` gives the unitary coordinates from the split source defect
    (domain complement + exit) onto the split range defect; a seeded generator
    draws it at random when omitted.
    """
    n, m = v.ambient_dim, exit_dim
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0, tol))
    k = n0.dim
    if ninf.dim != k:
        raise NumericalFailure("defect dimensions of an isometry must balance")
    if w_block is None:
        if rng is None:
            raise ValueError("either a block or a generator must be given")
        w_block = nk.haar_unitary(k + m, rng)
    w_block = nk.as_cmatrix(w_block)
    if w_block.shape != (k + m, k + m):
        raise ValueError(f"block shape {w_block.shape} does not match defects ({k + m})")
    if nk.op_norm(w_block.conj().T @ w_block - np.eye(k + m)) > nk.STRUCT_GATE:
        raise ValueError("block is not unitary")
    src = np.hstack([embed_inner(n0.basis, m), embed_exit(np.eye(m), n)])
    dst = np.hstack([embed_inner(ninf.basis, m), embed_exit(np.eye(m), n)])
    big = np.zeros((n + m, n + m), dtype=np.complex128)
    big[:n, :n] = v.ambient_partial()
    big += dst @ w_block @ src.conj().T
    return ExitSpaceModel(n, m, "unitary", big, v)


def compressed_extension(model: ExitSpaceModel, tol: TolPolicy = DEFAULT_TOL) -> PartialOperator:
    """Compression of a model to the inner space on the inner part of its domain.

    The big operator of a model is everywhere defined, so the domain is all of
    the inner space and the compression is the upper-left block.  When the
    model carries its assembly data the result is checked against the
    extension generated by the compressed parameter.
    """
    n = model.inner_dim
    comp = PartialOperator(n, Subspace.full(n), model.big_op[:n, :n].copy())
    if model.kind == "hermitian" and model.anchor is not None and model.block is not None:
        a = model.embeds
        phi = compressed_parameter(a, model.exit_dim, model.anchor, model.block, tol, model.exit_op)
        ext, _ = neumann_extension(a, model.anchor, phi, tol)
        if not ext.is_everywhere_defined:
            raise InternalDisagreement("compressed parameter lost domain directions")
        res = nk.op_norm(comp.full_matrix() - ext.full_matrix())
        if res > 1e-9 * max(1.0, nk.op_norm(comp.full_matrix())):
            raise InternalDisagreement(
                f"compression differs from the parameter extension ({res:.3e})")
    return comp
