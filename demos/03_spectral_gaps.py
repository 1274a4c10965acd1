"""Spectral atoms, the integral representation, and gap detection.

The spectral measure of an extension compresses its eigenprojections to the
inner space; the resolvent is the Cauchy-kernel integral against those atoms.
A gap is a region free of atoms; on the parameter side it is detected by the
invertibility of the difference between the defect parameter and a comparison
map built from shadows of boundary defect vectors.  The two views must agree,
and the report cross-checks them whenever the extension stays in-space.
"""

import numpy as np

import gresolv as g

rng = np.random.default_rng(11)

# an isometry on C^4 with a 2-dimensional defect, extended in-space by a
# random unitary defect parameter: the extension is unitary on C^4
v = g.IsometryOp.random(4, 2, rng)
n0 = g.defect_subspaces(v, 0.0).n_space
ninf = g.defect_subspaces(v, g.INFINITY).n_space
c = g.numkernel.haar_unitary(2, rng)
param = g.ContractionParam.constant(n0, ninf, c)
ext = g.orthogonal_extension(v, c, 0.0)
model = g.ExitSpaceModel(ext, v)

atoms = g.spectral_measure(model)
print("atoms (angle, trace of weight):")
for loc, weight in atoms.atoms:
    print(f"  {loc:7.4f}   {weight.trace().real:6.4f}")

oracle = g.ResolventModel.from_dilation(model)
residual = g.verify_integral_representation(
    atoms, oracle, [0.3, -0.4j, 0.2 + 0.5j, 2.5, 1.5j])
print(f"integral representation residual: {residual:.2e}")

# pick the widest atom-free arc and an arc around an atom; the margin-based
# verdicts must match the atom count in each region
locs = list(atoms.locations())
spans = list(zip(locs, locs[1:] + [locs[0] + 2 * np.pi]))
lo, hi = max(spans, key=lambda ab: ab[1] - ab[0])
gap_arc = g.ArcSpec("circle", lo + 0.25 * (hi - lo), min(hi - 0.25 * (hi - lo), 2 * np.pi - 1e-9))
atom_arc = g.ArcSpec("circle", max(locs[0] - 0.15, 0.0), locs[0] + 0.15)

for label, arc in (("atom-free arc", gap_arc), ("arc around an atom", atom_arc)):
    report = g.gap_report(v, param, 0.0, arc, grid_size=48)
    print(f"\n{label} ({arc.lo:.3f}, {arc.hi:.3f}):")
    print("  verdict analytic:", report.analytic,
          "| atoms inside:", report.atoms_in_region,
          f"| refined margin {report.refined_min_margin:.2e}")

# pointwise criteria at one obstruction: the kernel of (C - W) flags the
# eigenvalue, and the eigenvector of the extension lives in the defect space
zeta = complex(np.exp(-1j * locs[0]))
crit = g.gap_criteria(v, c, zeta)
print("\nat the reciprocal of the first atom:")
print("  eigenvalue detected:", crit.eigen, "| onto:", crit.range,
      f"| kernel margin {crit.detail['kernel_margin']:.2e}")
data = g.eigen_vector_structure(v, c, zeta)
print("  eigenvector defect residual:", f"{data.defect_residual:.2e}",
      "| shadow identities:", f"{data.shadow_residual_dom:.2e}",
      f"{data.shadow_residual_param:.2e}")

# the symmetric-side analogue on a real interval
a = g.SymmetricOp.random(3, 1, rng)
src = g.defect_subspaces(a, 1j).n_space
dst = g.defect_subspaces(a, -1j).n_space
pmap = g.build_admissible_isometry(a, 1j, src, dst, seed=3)
f_param = g.ContractionParam.constant(src, dst, dst.basis.conj().T @ pmap.matrix, anchor=1j)
ext_a, _ = g.neumann_extension(a, 1j, pmap)
line_atoms = g.spectral_measure(g.ExitSpaceModel(ext_a.full_matrix(), a))
t_locs = line_atoms.locations()
print("\nline atoms:", np.round(t_locs, 4))
mid = 0.5 * (t_locs[0] + t_locs[1]) if len(t_locs) > 1 else t_locs[0] + 1.0
width = 0.2 * (t_locs[1] - t_locs[0]) if len(t_locs) > 1 else 0.5
report = g.gap_report(a, f_param, 1j, g.ArcSpec("line", mid - width, mid + width), 48)
print(f"interval between the first two atoms -> analytic: {report.analytic},"
      f" atoms inside: {report.atoms_in_region}")
