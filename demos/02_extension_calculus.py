"""Extension calculus for a symmetric operator with a non-dense domain.

When the domain of a symmetric operator is not dense, not every contraction
between its defect subspaces yields an extension: directions colliding with
the forbidden operator must be avoided.  This script walks through the whole
calculus on a small example:

  * the forbidden operator and the admissibility test,
  * extensions from defect parameters (self-adjoint and dissipative ones),
  * a self-adjoint extension with exit dimensions, its compression back to
    the inner space, and the identity tying the compression to the
    compressed parameter,
  * the boundary parameter as the limit of the defect-block family along a
    ray to infinity.
"""

import numpy as np

import gresolv as g
from gresolv.extensions import block_param_from_map, exit_frames

rng = np.random.default_rng(7)
anchor = 1j

# a symmetric operator on C^4 with a 2-dimensional (non-dense) domain
a = g.SymmetricOp.random(4, 2, rng)
nz = g.defect_subspaces(a, anchor).n_space
nzbar = g.defect_subspaces(a, np.conj(anchor)).n_space
x = g.forbidden_operator(a, anchor)
print("domain dim:", a.dom.dim, "| defect dims:", nz.dim, nzbar.dim,
      "| forbidden operator dim:", x.dim)

# the forbidden operator itself is never admissible; rotating it away is
forbidden_coords = nzbar.basis.conj().T @ x.ambient() @ nz.basis
print("forbidden coordinates admissible?",
      g.is_admissible(a, anchor, g.PartialMap.from_coords(nz, nzbar, forbidden_coords)))
good = g.build_admissible_isometry(a, anchor, nz, nzbar, seed=42)
print("corrected isometry admissible?  ", g.is_admissible(a, anchor, good))

# a unitary defect parameter gives a self-adjoint extension in C^4 itself
ext, cls = g.neumann_extension(a, anchor, good)
print("\nfull-defect isometric parameter ->", cls)
print("extension is Hermitian:",
      np.linalg.norm(ext.full_matrix() - ext.full_matrix().conj().T, 2) < 1e-10)

# a strict contraction gives a maximal accumulative extension at this anchor
strict = g.PartialMap.from_coords(nz, nzbar, 0.5 * (nzbar.basis.conj().T @ good.matrix))
ext2, cls2 = g.neumann_extension(a, anchor, strict)
print("strict contraction parameter   ->", cls2, "| signs:", g.classify_signs(ext2))

# exit-space extension: couple the operator to 2 extra dimensions
frames = exit_frames(a, g.SymmetricOp.null(2), anchor)
tmap = g.build_admissible_isometry(frames.coupled, anchor, frames.src, frames.dst, seed=5)
block = block_param_from_map(tmap, frames, isometry=True)
model = g.exit_space_extension(a, 2, anchor, block)
print("\nexit model big operator is", model.big_op.shape, model.kind)

# the compression of the big operator equals the extension generated by the
# compressed parameter (checked internally), and its defect-space parameter
# is the limit of the defect-block family along the imaginary ray
compressed = g.compressed_extension(model)
report = g.boundary_parameter(a, model, anchor)
direct = nzbar.basis.conj().T @ report.direct.ambient() @ nz.basis
print("boundary parameter coordinates:\n", np.round(direct, 6))
print("\n|lam|      worst column error of the defect block vs its limit")
for lam, row in zip(report.ray_points, report.limit_errors):
    print(f"{abs(lam):>9.0f}  {row.max():.3e}")
print("\nmembership quantities stay bounded for every defect direction:")
print(np.round(report.membership, 4))
