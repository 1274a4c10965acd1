"""Numerical guards on valid inputs.

Each guard left in ``src/`` fires on the seeded input here: an anchor or a
probe next to the operator's own spectrum on the real line, or a parameter
next to the forbidden operator, where the quantity the guard tests is exact
only in exact arithmetic.
"""

import json

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv import cli
from gresolv.errors import NumericalFailure, PreconditionViolated, SingularSystem
from gresolv.extensions import forbidden_lift
from gresolv.fixtures import partial_identity_symmetric
from gresolv.operators import parameter_frames
from gresolv.resolvents import characteristic_function


def _near_gram_eigenvalue(height):
    """``SymmetricOp.random(4, 2, default_rng(1))``, and the anchor ``height``
    above the lowest eigenvalue of its Gram form D* A."""
    a = g.SymmetricOp.random(4, 2, np.random.default_rng(1))
    return a, float(np.linalg.eigvalsh(a.dom.basis.conj().T @ a.action)[0]) + 1j * height


def _lift_all(a, z):
    x = g.forbidden_operator(a, z)
    return [forbidden_lift(a, z, x, coords) for coords in np.eye(x.dim, dtype=complex)]


def _gap_near_eigenvalue(seed, scale, which):
    """``gap_report`` on (x0 - 1e-3, x0 + 1e-3) with grid 1, for the operator
    ``SymmetricOp.random(3, 2, default_rng(seed))`` draws, with its off-domain
    part C R scaled; x0 is eigenvalue ``which`` of its Hermitian part G."""
    rng = np.random.default_rng(seed)
    dom = nk.haar_frame(3, 2, rng)
    gram = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gram = (gram + gram.conj().T) / 2.0
    comp = nk.orthogonal_complement(g.Subspace(dom))
    off = rng.standard_normal((comp.dim, 2)) + 1j * rng.standard_normal((comp.dim, 2))
    a = g.SymmetricOp(g.Subspace(dom), dom @ gram + scale * comp.basis @ off)
    x0 = float(np.linalg.eigvalsh(gram)[which])
    src, dst = (pair.n_space for pair in parameter_frames(a, 1j))
    param = g.ContractionParam.constant(src, dst, np.eye(dst.dim, src.dim), 1j)
    return g.gap_report(a, param, 1j, g.ArcSpec("line", x0 - 1e-3, x0 + 1e-3), 1)


def _near_collision_extension(seed):
    """``neumann_extension`` of ``SymmetricOp.random(n, d, default_rng(seed))`` at
    z = i, with n and d drawn first, for the parameter X exp(1e-6 i H / ||H||):
    X the forbidden operator's coordinates, H a Hermitian drawn next."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    a = g.SymmetricOp.random(n, int(rng.integers(1, n)), rng)
    src, dst = (pair.n_space for pair in parameter_frames(a, 1j))
    x = dst.basis.conj().T @ g.forbidden_operator(a, 1j).ambient() @ src.basis
    h = rng.standard_normal((src.dim, src.dim)) + 1j * rng.standard_normal((src.dim, src.dim))
    w, v = np.linalg.eigh((h + h.conj().T) / nk.op_norm(h + h.conj().T))
    turn = v @ np.diag(np.exp(1e-6j * w)) @ v.conj().T
    return g.neumann_extension(a, 1j, g.PartialMap.from_coords(src, dst, x @ turn))


#: guard -> (call on a valid input, error, message)
FIRING = {
    # the domain complement's shadow in the defect space loses rank as the
    # anchor nears an eigenvalue of the Gram form; at 1e-9 it keeps it
    "forbidden-operator-rank": (
        lambda: g.forbidden_operator(*_near_gram_eigenvalue(1e-10)),
        NumericalFailure, "projection of the domain complement lost rank"),
    "forbidden-lift": (
        lambda: _lift_all(*_near_gram_eigenvalue(1e-9)),
        NumericalFailure, "pair is not comparable modulo the domain"),
    # e1 is an eigenvector of the operator: (A - zE)D is 1e-12 for z = 1 + 1e-12i
    "transport-rank": (
        lambda: g.cayley_transform(partial_identity_symmetric(), 1 + 1e-12j),
        NumericalFailure, "raw domain frame is rank deficient"),
    "characteristic-span": (
        lambda: characteristic_function(partial_identity_symmetric(), 1 + 1e-12j, 2j),
        NumericalFailure, "domain and defect do not span the space"),
    # a near-eigen direction of G with a small off-domain part
    "comparison-map-isometry": (
        lambda: _gap_near_eigenvalue(0, 1e-3, 0),
        NumericalFailure, "comparison map lost its isometry"),
    "range-covering": (
        lambda: _gap_near_eigenvalue(3, 1e-8, 1),
        PreconditionViolated, "range covering fails at 0.71426"),
    # the comparison map's d x d inverse at the lowest eigenvalue of G
    "comparison-map-singular": (
        lambda: _gap_near_eigenvalue(3, 1e-8, 0),
        SingularSystem, r"resolvent system singular at point \(-1.38634938"),
    # an admissible parameter 1e-6 from the forbidden operator: the extension
    # has norm 1e9, and the parameter read back from it misses by 2e-8
    "neumann-reassembly": (
        lambda: _near_collision_extension(2),
        NumericalFailure, "defect vectors do not lie in the shifted range"),
}


@pytest.mark.parametrize("guard", FIRING)
def test_guard_fires_on_a_valid_input(guard):
    call, error, message = FIRING[guard]
    with pytest.raises(error, match=message):
        call()


def test_forbidden_guards_pass_one_decade_further_from_the_real_line():
    assert g.forbidden_operator(*_near_gram_eigenvalue(1e-9)).dim == 2
    assert len(_lift_all(*_near_gram_eigenvalue(1e-8))) == 2


def test_neumann_parameter_guard_fires_in_verify(tmp_path, capsys):
    # the n = 4, d = 2 file of seed 3 with its exit anchor 1e-8 above the real line
    path = tmp_path / "inst.json"
    obj = cli.generate_instance("symmetric", 4, 2, 1, seed=3).to_json()
    obj["exit"]["anchor"] = [0.0, 1e-8]
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    assert "error: defect vectors do not lie in the shifted range" in capsys.readouterr().err
