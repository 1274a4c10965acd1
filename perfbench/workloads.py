"""The three benchmark workloads: instance pools and one checked op each.

Every op is checked before it counts as a success: a formula value must agree
with the dilation oracle within the acceptance gate, and a ``verify`` call
must exit with code 0.  The checks use numpy directly, so the per-layer
counts of a traced run hold only the library's own work.

Library calls go through module attributes (``g.direct_sum_resolvent``) at
call time, so a traced run, which rebinds those attributes, sees them.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gresolv as g
import gresolv.cli
from gresolv.resolvents import DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES

from . import instances

#: acceptance gate of criteria 1 and 2 for |formula - oracle| in operator norm
ORACLE_GATE = 1e-9

_RESIDUAL_LINE = re.compile(r"\] \S+-vs-dilation\s+residual=(\S+)")


@dataclass(frozen=True)
class OpResult:
    ok: bool
    residual: float  # worst formula-vs-oracle residual seen by the op


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, scratch directory, pool size) -> instance pool, in the order ops use it
    build: Callable[[int, Path, int], list]
    pool_size: int
    run_op: Callable[[object], OpResult]
    #: first pool entries run as warm-up after each pool build, as part of set-up
    warmup_ops: int
    #: pool entries in one pass of a traced run
    trace_ops: int


def _op_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def _gated(worst: float) -> OpResult:
    return OpResult(bool(worst < ORACLE_GATE), worst)


def oracle_iso_op(inst: instances.OracleInstance) -> OpResult:
    """Criterion 1: recovered direct-sum parameter against the dilation oracle."""
    oracle = g.ResolventModel.from_dilation(inst.model)
    family = g.recovered_parameter_family(oracle)
    worst = 0.0
    for zeta in DEFAULT_DISK_SAMPLES:
        worst = max(worst, _op_norm(g.direct_sum_resolvent(inst.op, family, zeta) - oracle(zeta)))
    return _gated(worst)


def oracle_sym_op(inst: instances.OracleInstance) -> OpResult:
    """Criterion 2: defect-block family through the extension formula."""
    anchor = instances.SYMMETRIC_ANCHOR
    oracle = g.ResolventModel.from_dilation(inst.model)
    family = g.resolvents.defect_block_family(oracle, inst.op, anchor)
    worst = 0.0
    for lam in DEFAULT_HALFPLANE_SAMPLES:
        value = g.extension_resolvent(inst.op, family, anchor, lam, validate=False)
        worst = max(worst, _op_norm(value - oracle(lam)))
    return _gated(worst)


def verify_cli_op(inst: instances.CliInstance) -> OpResult:
    """``gresolv verify <file> --suite all`` in process; the exit code is the verdict."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gresolv.cli.main(["verify", str(inst.path), "--suite", "all"])
    residuals = [float(x) for x in _RESIDUAL_LINE.findall(out.getvalue())]
    return OpResult(code == 0, max(residuals, default=0.0))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "oracle-iso",
            lambda seed, _dir, size: instances.isometric_instances(seed, size), 400,
            oracle_iso_op, warmup_ops=8, trace_ops=32),
        Workload(
            "oracle-sym",
            lambda seed, _dir, size: instances.symmetric_instances(seed, size), 96,
            oracle_sym_op, warmup_ops=4, trace_ops=16),
        Workload(
            "verify-cli",
            lambda seed, directory, size: instances.cli_instances(seed, size, directory), 60,
            verify_cli_op, warmup_ops=2, trace_ops=6),
    )
}
