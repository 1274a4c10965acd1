"""Extension calculus for symmetric operators: forbidden operator, admissibility,
generalized Neumann formulas, correcting isometries, and exit-space extensions.

Conventions.  A ``PartialMap`` sends ``src.basis @ x`` to ``matrix @ x``; its
columns are ambient vectors.  Whenever an operator is split over an inner
space and an exit space, block coordinates always refer to the canonical
embedded defect frames produced by ``exit_frames``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .errors import NotAdmissible, NumericalFailure, T22NotAdmissible
from .numkernel import CMatrix, Subspace
from .operators import (INFINITY, IsometryOp, PartialOperator, SymmetricOp, _comparison_coords,
                        _memoized, _transport, parameter_frames, require_nonreal)


@dataclass(frozen=True)
class PartialMap:
    """A linear map from a subspace into an ambient space, column by column."""

    src: Subspace
    matrix: CMatrix

    @property
    def dim(self) -> int:
        return self.src.dim

    def ambient(self) -> CMatrix:
        """Extension-by-zero matrix: the map on src, 0 on its complement."""
        return self.matrix @ self.src.basis.conj().T

    def coords(self, dst: Subspace) -> CMatrix:
        """Coordinate matrix with respect to a destination frame."""
        return dst.basis.conj().T @ self.matrix

    def is_isometric(self, gate: float = nk.STRUCT_GATE) -> bool:
        return nk.is_isometric(self.matrix, gate)

    @classmethod
    def empty(cls, n: int) -> "PartialMap":
        return cls(Subspace.empty(n), np.zeros((n, 0), dtype=np.complex128))

    @classmethod
    def from_coords(cls, src: Subspace, dst: Subspace, coords: CMatrix) -> "PartialMap":
        coords = nk.as_cmatrix(coords)
        if coords.shape != (dst.dim, src.dim):
            raise ValueError(f"coordinate shape {coords.shape} does not match frames")
        return cls(src, dst.basis @ coords)


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
        nk.check_contraction(t, "assembled block norm")
        if self.isometry and not nk.is_isometric(t, nk.STRUCT_GATE):
            raise ValueError("assembled block is not isometric")

    def assembled(self) -> CMatrix:
        top = np.hstack([self.t11, self.t12])
        bottom = np.hstack([self.t21, self.t22])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class ExitSpaceModel:
    """A unitary or self-adjoint extension acting on inner + exit coordinates.

    ``big_op`` is everywhere defined (a plain matrix); its restriction to the
    embedded domain of ``embeds`` reproduces that operator.  The kind and the
    dimensions are read off ``embeds`` and ``big_op``.  ``anchor``,
    ``block`` and ``exit_op`` record how a Hermitian model was assembled, so
    its compressed parameter can be recomputed; they are None for models
    built from raw matrices.
    """

    big_op: CMatrix
    embeds: PartialOperator
    anchor: complex | None = None
    block: BlockParam | None = None
    exit_op: SymmetricOp | None = None

    def __post_init__(self):
        big, m = self.big_op, self.exit_dim
        if big.shape[0] != big.shape[1] or m < 0:
            raise ValueError("big operator has the wrong shape")
        test = nk.is_unitary if self.kind == "unitary" else nk.is_hermitian
        if not test(big, nk.STRUCT_GATE):
            raise ValueError(f"big operator fails its {self.kind} test")
        emb_dom = embed_inner(self.embeds.dom.basis, m)
        emb_img = embed_inner(self.embeds.action, m)
        res = big @ emb_dom - emb_img
        if not nk._norm_within(res, 1e-10, big):
            raise ValueError(f"model does not extend the inner operator ({nk.op_norm(res):.3e})")

    @property
    def kind(self) -> str:
        """'unitary' for a model of an isometry, 'hermitian' otherwise."""
        return "unitary" if isinstance(self.embeds, IsometryOp) else "hermitian"

    @property
    def inner_dim(self) -> int:
        return self.embeds.ambient_dim

    @property
    def total_dim(self) -> int:
        return self.big_op.shape[0]

    @property
    def exit_dim(self) -> int:
        return self.total_dim - self.inner_dim


def embed_inner(mat: CMatrix, exit_dim: int) -> CMatrix:
    """Pad inner-space columns with zero exit coordinates."""
    return np.vstack([mat, np.zeros((exit_dim, mat.shape[1]), dtype=np.complex128)])


def embed_exit(mat: CMatrix, inner_dim: int) -> CMatrix:
    """Pad exit-space columns with zero inner coordinates."""
    return np.vstack([np.zeros((inner_dim, mat.shape[1]), dtype=np.complex128), mat])


def forbidden_operator(a: SymmetricOp, z: complex) -> PartialMap:
    """The isometry pairing defect vectors that are comparable modulo the domain.

    Every vector orthogonal to the closed domain projects to a source vector in
    the defect space at z and to its image in the defect space at conj(z); the
    map defined this way is isometric.  Parameters colliding with it produce
    no extension.
    """
    require_nonreal(z)

    def build():
        n = a.ambient_dim
        ortho = nk.orthogonal_complement(a.dom)
        if ortho.dim == 0:
            return PartialMap.empty(n)
        p_src, p_dst = (nk.projector(pair.n_space) for pair in parameter_frames(a, z))
        shadow = p_src @ ortho.basis
        src = nk.orthonormalize(shadow)
        if src.dim != ortho.dim:
            raise NumericalFailure("projection of the domain complement lost rank")
        lift, *_ = np.linalg.lstsq(shadow, src.basis, rcond=None)
        return PartialMap(src, p_dst @ ortho.basis @ lift)
    return _memoized(a, "forbidden", z, build)


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


@dataclass(frozen=True)
class _NeumannFrame:
    """What the Neumann formula and its admissibility test read of (operator,
    anchor z, parameter source frame) alone; the per-value work reads these
    arrays."""

    src_in_defect: bool  # the source frame passes the off-defect gate at z
    off_dst: CMatrix  # E - P, P the projection onto the defect space at conj(z)
    forbidden: CMatrix  # the forbidden operator, extended by zero
    common: CMatrix  # frame of the source meet the forbidden operator's domain


def _neumann_frame(a: SymmetricOp, z: complex, src: Subspace) -> _NeumannFrame:
    """The ``_NeumannFrame`` of a source frame, memoized on ``a`` by the
    frame's shape and bytes, so a second frame of the same subspace gets its own."""
    def build():
        n = a.ambient_dim
        pair_z, pair_zbar = parameter_frames(a, z)
        x = forbidden_operator(a, z)
        off_src = (np.eye(n) - nk.projector(pair_z.n_space)) @ src.basis
        # the meet can be the caller's own frame, which the memo must not freeze
        common = nk.intersect(src, x.src).basis.copy(order="K")
        return _NeumannFrame(nk._norm_within(off_src, nk.STRUCT_GATE),
                             np.eye(n) - nk.projector(pair_zbar.n_space), x.ambient(), common)
    return _memoized(a, ("neumann", src.basis.shape, src.basis.tobytes()), z, build)


def is_admissible(a: SymmetricOp, z: complex, t: PartialMap) -> bool:
    """Whether a defect-space parameter admits an extension: the difference
    with the forbidden operator has trivial kernel on the common domain.

    Equivalently, the direct sum of the Cayley transform and the parameter
    has no eigenvalue 1 on its domain; that form is not computed here.
    """
    return _admissible(t, _neumann_frame(a, z, t.src))


def _admissible(t: PartialMap, fixed: _NeumannFrame) -> bool:
    """``is_admissible`` of ``t`` on the arrays of its source frame."""
    return nk.injective((t.ambient() - fixed.forbidden) @ fixed.common)[0]


@dataclass(frozen=True)
class ExtensionClass:
    """Classification tail of a generalized Neumann extension."""

    kind: str  # 'symmetric' | 'dissipative' | 'accumulative'
    closed: bool
    maximal: bool
    self_adjoint: bool


def neumann_extension(a: SymmetricOp, z: complex,
                      t: PartialMap) -> tuple[PartialOperator, ExtensionClass]:
    """Extension with domain D(A) + (T - E) D(T) acting by f + T psi - psi
    -> A f + z T psi - conj(z) psi.

    ``t`` must be an admissible contraction from a subspace of the defect
    space at z into the defect space at conj(z); isometric parameters give
    symmetric extensions, strict contractions give dissipative (Im z < 0) or
    accumulative (Im z > 0) ones.
    """
    nk.check_contraction(t.matrix, "parameter norm")
    return _neumann_extension(a, z, t, True)


def _neumann_input(a: SymmetricOp, z: complex, t: PartialMap) -> None:
    """The Neumann formula's input checks: the off-defect gate, then ``_admissible``."""
    require_nonreal(z)
    fixed = _neumann_frame(a, z, t.src)
    if t.dim and not (fixed.src_in_defect
                      and nk._norm_within(fixed.off_dst @ t.matrix, nk.STRUCT_GATE)):
        raise ValueError("parameter does not map between the defect subspaces")
    if not _admissible(t, fixed):
        raise NotAdmissible("parameter")


def _neumann_extension(a: SymmetricOp, z: complex, t: PartialMap,
                       validate: bool) -> tuple[PartialOperator, ExtensionClass]:
    """``neumann_extension`` of a decided contraction; ``validate`` runs the
    reassembly tail."""
    _neumann_input(a, z, t)
    pair_z, pair_zbar = parameter_frames(a, z)
    isometric = t.is_isometric()

    ext = PartialOperator(*_transport(
        np.hstack([a.dom.basis, t.matrix - t.src.basis]),
        np.hstack([a.action, z * t.matrix - np.conj(z) * t.src.basis])))

    full_dom = t.dim == pair_z.n_space.dim
    full_ran = isometric and t.dim == pair_zbar.n_space.dim
    if isometric:
        cls = ExtensionClass("symmetric", True, full_dom or full_ran, full_dom and full_ran)
    else:
        kind = "dissipative" if z.imag < 0 else "accumulative"
        cls = ExtensionClass(kind, True, full_dom, False)

    if validate and t.dim:
        _check_neumann_tail(a, z, t, ext)
    return ext, cls


def _check_neumann_tail(a: SymmetricOp, z: complex, t: PartialMap, ext: PartialOperator) -> None:
    """The parameter recovered from the extension must be the input one."""
    back = neumann_parameter(ext, a, z)
    if back.dim != t.dim or not nk._norm_within(
            nk.projector(back.src) - nk.projector(t.src), 1e-8):
        raise NumericalFailure("recovered parameter domain differs from the input one")
    if not nk._norm_within(back.ambient() - t.ambient(), 1e-8, t.matrix):
        raise NumericalFailure("extension does not reproduce the parameter")


def neumann_parameter(b: PartialOperator, a: SymmetricOp, z: complex) -> PartialMap:
    """Recover the defect-space parameter of an extension of ``a`` at anchor z.

    Inverse of ``neumann_extension``: the source is the defect space at z
    intersected with the range of (B - z E), and the map is the Cayley
    transform of B restricted there.
    """
    n = a.ambient_dim
    shifted = b.action - z * b.dom.basis
    rng = nk.orthonormalize(shifted)
    src = nk.intersect(parameter_frames(a, z)[0].n_space, rng)
    if src.dim == 0:
        return PartialMap.empty(n)
    sol, *_ = np.linalg.lstsq(shifted, src.basis, rcond=None)
    if not nk._norm_within(shifted @ sol - src.basis, 1e-8):
        raise NumericalFailure("defect vectors do not lie in the shifted range")
    return PartialMap(src, (b.action - np.conj(z) * b.dom.basis) @ sol)


def build_admissible_isometry(a: SymmetricOp, z: complex, n_src: Subspace, n_dst: Subspace,
                              seed: int) -> PartialMap:
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
    x = forbidden_operator(a, z)
    eye = np.eye(n)

    # part of the forbidden operator that stays inside the chosen subspaces
    # x's source is the whole defect space at z, so it meets n_src in n_src
    inside = nk.intersect(x.src, n_src)
    kernel = nk.kernel((eye - nk.projector(n_dst)) @ x.ambient() @ inside.basis)
    core = Subspace(inside.basis @ kernel)

    w_rand = n_dst.basis @ nk.haar_unitary(n_src.dim, rng) @ n_src.basis.conj().T
    alpha = rng.uniform(np.pi / 4.0, 7.0 * np.pi / 4.0)

    # an empty core passes through with empty frames and a zero corrector
    img = nk.orthonormalize(x.ambient() @ core.basis)
    target = nk.orthonormalize(w_rand @ core.basis)
    u0 = target.basis @ img.basis.conj().T
    overlap = nk.intersect(img, target)
    if overlap.dim:
        fixed = overlap.basis @ nk.kernel((u0 - eye) @ overlap.basis)
    else:
        fixed = np.zeros((n, 0), dtype=np.complex128)
    p_fixed = fixed @ fixed.conj().T
    corrector = np.exp(1j * alpha) * p_fixed + u0 @ (nk.projector(img) - p_fixed)
    corrected = corrector @ x.ambient() @ core.basis
    ran_s = nk.orthonormalize(corrector @ img.basis)

    rem_src = nk.orthonormalize((eye - nk.projector(core)) @ n_src.basis)
    rem_dst = nk.orthonormalize((eye - nk.projector(ran_s)) @ n_dst.basis)
    completion = rem_dst.basis @ nk.haar_unitary(rem_src.dim, rng)

    src = Subspace(np.hstack([core.basis, rem_src.basis]))
    return PartialMap(src, np.hstack([corrected, completion]))


def direct_sum(a: SymmetricOp, exit_op: SymmetricOp) -> SymmetricOp:
    """The block-diagonal symmetric operator on inner + exit coordinates."""
    n, m = a.ambient_dim, exit_op.ambient_dim
    dom = np.hstack([embed_inner(a.dom.basis, m), embed_exit(exit_op.dom.basis, n)])
    act = np.hstack([embed_inner(a.action, m), embed_exit(exit_op.action, n)])
    return SymmetricOp(Subspace(dom), act)


@dataclass(frozen=True)
class ExitFrames:
    """Canonical embedded defect frames of a split operator at one anchor."""

    coupled: SymmetricOp
    src_inner: Subspace
    src_exit: Subspace
    dst_inner: Subspace
    dst_exit: Subspace

    @functools.cached_property
    def src(self) -> Subspace:
        return Subspace(np.hstack([self.src_inner.basis, self.src_exit.basis]))

    @functools.cached_property
    def dst(self) -> Subspace:
        return Subspace(np.hstack([self.dst_inner.basis, self.dst_exit.basis]))


def exit_frames(a: SymmetricOp, exit_op: SymmetricOp, z: complex) -> ExitFrames:
    n, m = a.ambient_dim, exit_op.ambient_dim
    coupled = direct_sum(a, exit_op)
    nz_a, nzb_a = (pair.n_space for pair in parameter_frames(a, z))
    nz_e, nzb_e = (pair.n_space for pair in parameter_frames(exit_op, z))
    return ExitFrames(
        coupled,
        Subspace(embed_inner(nz_a.basis, m)), Subspace(embed_exit(nz_e.basis, n)),
        Subspace(embed_inner(nzb_a.basis, m)), Subspace(embed_exit(nzb_e.basis, n)),
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


def _closed_block(block: BlockParam, c: CMatrix) -> CMatrix:
    """t11 + t12 (E - C t22)^-1 C t21, for C from the exit defect at conj(z)
    into the one at z."""
    core = np.eye(c.shape[0]) - c @ block.t22
    return block.t11 + block.t12 @ nk.solve(core, c @ block.t21)


def compressed_parameter(a: SymmetricOp, z: complex, block: BlockParam,
                         exit_op: SymmetricOp | None = None) -> PartialMap:
    """Compression of a split defect parameter to the inner defect spaces.

    It is t11 + t12 (E - C t22)^{-1} C t21 with C = K_e(INFINITY)*, the
    adjoint of the exit operator's forbidden operator in its defect frames;
    the trivial-domain exit operator (the default, on the columns of t22) has
    C = E.  E - C t22 has the singular values of t22 minus the exit forbidden
    operator: ``T22NotAdmissible`` when it is not injective.
    """
    require_nonreal(z)
    if exit_op is None:
        exit_op = SymmetricOp.null(block.t22.shape[1])
    c = _comparison_coords(exit_op, z, INFINITY).conj().T
    if not nk.injective(np.eye(c.shape[0]) - c @ block.t22)[0]:
        raise T22NotAdmissible()
    nz_a, nzb_a = (pair.n_space for pair in parameter_frames(a, z))
    return PartialMap.from_coords(nz_a, nzb_a, _closed_block(block, c))


def exit_space_extension(a: SymmetricOp, exit_dim: int, z: complex, block: BlockParam,
                         exit_op: SymmetricOp | None = None) -> ExitSpaceModel:
    """Self-adjoint extension of ``a`` acting on inner + exit coordinates.

    The exit operator defaults to the trivial-domain one, which makes the
    exit-space characteristic function closed-form.  The block must assemble
    to a unitary map of the split defect spaces and must be admissible for
    the split operator.  The joint Neumann build decides admissibility; when
    it fails, the elimination of the exit block names the offending piece:
    ``T22NotAdmissible`` when t22 collides with the exit forbidden operator,
    otherwise ``NotAdmissible("phi")``.
    """
    if exit_op is None:
        exit_op = SymmetricOp.null(exit_dim)
    if exit_op.ambient_dim != exit_dim:
        raise ValueError("exit operator dimension mismatch")
    return _exit_space_extension(a, exit_op, z, block, exit_frames(a, exit_op, z))


def _exit_space_extension(a: SymmetricOp, exit_op: SymmetricOp, z: complex, block: BlockParam,
                          frames: ExitFrames) -> ExitSpaceModel:
    """``exit_space_extension`` on the frames ``exit_frames(a, exit_op, z)``
    that the caller already holds."""
    t = block.assembled()
    if t.shape[0] != t.shape[1]:
        raise ValueError("self-adjoint models need a unitary block between full defect spaces")
    if not block.isometry:
        block = BlockParam(block.t11, block.t12, block.t21, block.t22, isometry=True)
    try:
        ext, _ = _neumann_extension(frames.coupled, z, assemble_block_map(frames, block), True)
    except NotAdmissible as exc:
        # the joint build has decided; the elimination only names the piece
        compressed_parameter(a, z, block, exit_op)
        raise NotAdmissible("phi") from exc
    big = ext.full_matrix()
    big = (big + big.conj().T) / 2.0
    return ExitSpaceModel(big, a, anchor=z, block=block, exit_op=exit_op)


def unitary_exit_extension(v: IsometryOp, exit_dim: int,
                           w_block: CMatrix | None = None,
                           rng: np.random.Generator | None = None) -> ExitSpaceModel:
    """Unitary extension of an isometry acting on inner + exit coordinates.

    ``w_block`` gives the unitary coordinates from the split source defect
    (domain complement + exit) onto the split range defect; a seeded generator
    draws it at random when omitted.
    """
    n, m = v.ambient_dim, exit_dim
    n0, ninf = (pair.n_space for pair in parameter_frames(v, 0.0))
    k = n0.dim
    if w_block is None:
        if rng is None:
            raise ValueError("either a block or a generator must be given")
        w_block = nk.haar_unitary(k + m, rng)
    w_block = nk.as_cmatrix(w_block)
    if w_block.shape != (k + m, k + m):
        raise ValueError(f"block shape {w_block.shape} does not match defects ({k + m})")
    if not nk.is_unitary(w_block, nk.STRUCT_GATE):
        raise ValueError("block is not unitary")
    src = np.hstack([embed_inner(n0.basis, m), embed_exit(np.eye(m), n)])
    dst = np.hstack([embed_inner(ninf.basis, m), embed_exit(np.eye(m), n)])
    big = np.zeros((n + m, n + m), dtype=np.complex128)
    big[:n, :n] = v.ambient_partial()
    big += dst @ w_block @ src.conj().T
    return ExitSpaceModel(big, v)


def compressed_extension(model: ExitSpaceModel) -> PartialOperator:
    """Compression of a model to the inner space on the inner part of its domain.

    The big operator of a model is everywhere defined, so the domain is all of
    the inner space and the compression is the upper-left block.  For a
    Hermitian model it is the extension that the compressed parameter
    generates.
    """
    n = model.inner_dim
    return PartialOperator(Subspace.full(n), model.big_op[:n, :n].copy())
