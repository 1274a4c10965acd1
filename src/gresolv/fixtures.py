"""Worked low-dimensional instances used across demos and the verification suite.

All values are exact: the models are small enough that every resolvent,
parameter and atom has a closed scalar form.
"""

from __future__ import annotations

import numpy as np

from .extensions import BlockParam, ExitSpaceModel
from .numkernel import Subspace
from .operators import IsometryOp, SymmetricOp


def flip_dilation_isometric() -> tuple[IsometryOp, ExitSpaceModel]:
    """Trivial-domain isometry on C^1 with the flip dilation on C^2.

    Its resolvent is 1/(1 - zeta^2), the recovered parameter is zeta, and the
    spectral atoms sit at angles 0 and pi with weight 1/2 each.
    """
    v = IsometryOp.null(1)
    u = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    return v, ExitSpaceModel(u, v)


def flip_dilation_symmetric() -> tuple[SymmetricOp, ExitSpaceModel, complex, BlockParam]:
    """Trivial-domain symmetric operator on C^1 with the flip extension on C^2.

    With anchor i: the resolvent at 2i equals 2i/5, the extension family is
    1/lam, the defect block at 2i is -1/3, the coupling block is
    [[0, i], [i, 0]], and the boundary parameter is -1.
    """
    a = SymmetricOp.null(1)
    big = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    anchor = 1j
    block = BlockParam(
        t11=np.zeros((1, 1), dtype=np.complex128),
        t12=np.array([[1j]], dtype=np.complex128),
        t21=np.array([[1j]], dtype=np.complex128),
        t22=np.zeros((1, 1), dtype=np.complex128),
        isometry=True,
    )
    model = ExitSpaceModel(big, a, anchor=anchor, block=block, exit_op=SymmetricOp.null(1))
    return a, model, anchor, block


def partial_identity_symmetric() -> SymmetricOp:
    """Symmetric operator on C^2 fixing e1, with domain span{e1}."""
    basis = np.array([[1.0], [0.0]], dtype=np.complex128)
    return SymmetricOp(Subspace(basis), basis.copy())


def partial_identity_isometry() -> IsometryOp:
    """Isometry on C^2 fixing e1, with domain span{e1}."""
    basis = np.array([[1.0], [0.0]], dtype=np.complex128)
    return IsometryOp(Subspace(basis), basis.copy())
