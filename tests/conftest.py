"""Shared builders for randomized instances used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import gresolv as g
import gresolv.numkernel as nk
from gresolv.extensions import block_param_from_map, exit_frames


def random_isometric_model(rng, n_max=8, m_max=8, n_min=1):
    """Random isometry with a random unitary exit model around it."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        d = int(rng.integers(0, n + 1))
        m = int(rng.integers(0, m_max + 1))
        if (n - d) + m > 0:
            break
    v = g.IsometryOp.random(n, d, rng)
    model = g.unitary_exit_extension(v, m, rng=rng)
    return v, model


def random_symmetric_model(rng, n_max=8, m_max=8, anchor=1j, dense_ok=False,
                           exit_op=None, min_margin=None):
    """Random symmetric operator with an admissible unitary coupling block.

    ``min_margin`` filters out couplings whose unitary sits close to a fixed
    vector (those produce extensions with huge norms, useless for asymptotic
    checks).
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        d_hi = n + 1 if dense_ok else n
        d = int(rng.integers(0, d_hi))
        m = int(rng.integers(0 if d == n else 1, m_max + 1))
        a = g.SymmetricOp.random(n, d, rng)
        e_op = exit_op if exit_op is not None else g.SymmetricOp.null(m)
        if e_op.ambient_dim != m:
            m = e_op.ambient_dim
        frames = exit_frames(a, e_op, anchor)
        if frames.src.dim != frames.dst.dim:
            continue
        if frames.src.dim == 0:
            block = g.BlockParam(
                np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)),
                isometry=True)
            model = g.exit_space_extension(a, m, anchor, block, exit_op=e_op)
            return a, model, block
        seed = int(rng.integers(0, 2**63 - 1))
        tmap = g.build_admissible_isometry(frames.coupled, anchor, frames.src,
                                           frames.dst, seed)
        if min_margin is not None:
            u_z = g.cayley_transform(frames.coupled, anchor)
            full = np.hstack([u_z.action, tmap.matrix])
            frame = np.hstack([u_z.dom.basis, tmap.src.basis])
            eigs = np.linalg.eigvals(full @ frame.conj().T)
            if float(np.min(np.abs(eigs - 1.0))) < min_margin:
                continue
        block = block_param_from_map(tmap, frames, isometry=True)
        model = g.exit_space_extension(a, m, anchor, block, exit_op=e_op)
        return a, model, block


def near_identity(rng, k, eps):
    """A random k x k unitary exp(i eps H / ||H||) with H Hermitian: it is
    within eps of the identity in norm."""
    h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    return (q * np.exp(1j * eps * w / np.max(np.abs(w)))) @ q.conj().T


def fixed_point_free(a, z, t):
    """The fixed-point form of admissibility: the direct sum of the Cayley
    transform at z and the parameter ``t`` has no eigenvalue 1 on its domain."""
    u = g.cayley_transform(a, z)
    return nk.injective(np.hstack([u.action, t.matrix]) - np.hstack([u.dom.basis, t.src.basis]))[0]


def zeta_samples():
    return g.resolvents.DEFAULT_DISK_SAMPLES


def lambda_samples():
    return g.resolvents.DEFAULT_HALFPLANE_SAMPLES


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
