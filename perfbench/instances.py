"""Seeded instance recipes for the benchmark workloads.

The recipes mirror the acceptance builders (criteria 1 and 2) and
``gresolv.cli.generate_instance`` but live here, so that an edit to the test
suite cannot silently change a workload.  Every draw comes from the seed
passed in; the library only ever sees the generated operators and files.

Sizes are drawn in balanced blocks rather than one at a time: the oracle
workloads cycle through every inner dimension n = 1..8 in each block of eight
instances and, for each n, through every domain dimension d, and the CLI
workload draws (d, m) by Latin-hypercube sampling inside each (kind, n)
stratum.  The distribution matches the acceptance builders, but the mix of
sizes, which sets most of an op's cost (an empty domain, d = 0, halves the
cost of a symmetric op), no longer varies from seed to seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gresolv as g
import gresolv.cli
from gresolv.extensions import block_param_from_map, exit_frames

#: inner dimensions of the oracle workloads (the acceptance builders' n_max = 8)
ORACLE_DIMS = tuple(range(1, 9))
#: largest exit dimension of the oracle workloads (the builders' m_max = 8)
ORACLE_EXIT_MAX = 8
#: anchor of the symmetric workload (acceptance criterion 2)
SYMMETRIC_ANCHOR = 1j
#: inner dimensions and kinds of the CLI workload
CLI_DIMS = (4, 8, 16)
CLI_KINDS = ("isometric", "symmetric")


@dataclass(frozen=True)
class OracleInstance:
    """An inner operator with an exit-space model whose dilation is the oracle."""

    op: g.PartialOperator
    model: g.ExitSpaceModel
    shape: tuple  # (n, d, m)


@dataclass(frozen=True)
class CliInstance:
    """An instance file written by ``gresolv.cli.save_instance``."""

    path: Path
    shape: tuple  # (n, d, m)


class _Balanced:
    """Seeded draws from a finite set: every block of len(values) draws holds
    each value once, so the sample frequencies are exact, not binomial."""

    def __init__(self, rng: np.random.Generator, values):
        self._rng = rng
        self._values = np.asarray(values)
        self._queue: list[int] = []

    def draw(self) -> int:
        if not self._queue:
            self._queue = [int(x) for x in self._rng.permutation(self._values)]
        return self._queue.pop()


def _balanced_shapes(rng: np.random.Generator, count: int, dense_ok: bool):
    """(n, d) pairs: n balanced over ``ORACLE_DIMS``, d balanced over 0..n
    (0..n-1 unless ``dense_ok``) separately for each n."""
    dims = _Balanced(rng, ORACLE_DIMS)
    domains = {n: _Balanced(rng, range(n + 1 if dense_ok else n)) for n in ORACLE_DIMS}
    for _ in range(count):
        n = dims.draw()
        yield n, domains[n].draw()


def isometric_instances(seed: int, count: int) -> list[OracleInstance]:
    """Random isometries with random unitary exit models (criterion 1 recipe)."""
    rng = np.random.default_rng(seed)
    pool = []
    for n, d in _balanced_shapes(rng, count, dense_ok=True):
        while True:
            m = int(rng.integers(0, ORACLE_EXIT_MAX + 1))
            if (n - d) + m > 0:
                break
        v = g.IsometryOp.random(n, d, rng)
        model = g.unitary_exit_extension(v, m, rng=rng)
        pool.append(OracleInstance(v, model, (n, d, m)))
    return pool


def symmetric_instances(seed: int, count: int) -> list[OracleInstance]:
    """Random non-densely defined symmetric operators with an admissible
    unitary coupling to a null exit operator (criterion 2 recipe)."""
    rng = np.random.default_rng(seed)
    anchor = SYMMETRIC_ANCHOR
    pool = []
    for n, d in _balanced_shapes(rng, count, dense_ok=False):
        while True:
            m = int(rng.integers(1, ORACLE_EXIT_MAX + 1))
            a = g.SymmetricOp.random(n, d, rng)
            e_op = g.SymmetricOp.null(m)
            frames = exit_frames(a, e_op, anchor)
            if frames.src.dim == frames.dst.dim:
                break
        if frames.src.dim == 0:
            empty = np.zeros((0, 0))
            block = g.BlockParam(empty, empty, empty, empty, isometry=True)
        else:
            sub_seed = int(rng.integers(0, 2**63 - 1))
            tmap = g.build_admissible_isometry(frames.coupled, anchor, frames.src,
                                               frames.dst, sub_seed)
            block = block_param_from_map(tmap, frames, isometry=True)
        model = g.exit_space_extension(a, m, anchor, block, exit_op=e_op)
        pool.append(OracleInstance(a, model, (n, d, m)))
    return pool


def cli_instances(seed: int, count: int, directory: Path) -> list[CliInstance]:
    """``count`` instance files spread evenly over the (kind, n) strata.

    Within a stratum, one instance has a trivial domain (d = 0), which costs
    about half of any other; the others draw 1 <= d < n and all draw
    1 <= m <= n as Latin-hypercube samples.  A fixed share of trivial domains
    keeps that cost step from moving with the seed.  The files are ordered
    round-robin over the strata, one round holding one file of each, so every
    prefix of the list keeps the strata balanced.  The trivial domains sit in
    rounds spread evenly over rounds 1..per_stratum-1, so every long enough
    prefix, however many ops a timed window reaches, holds about the pool's
    share of them; round 0, which warm-up and traced runs start with, holds
    none.
    """
    rng = np.random.default_rng(seed)
    strata = [(kind, n) for n in CLI_DIMS for kind in CLI_KINDS]
    per_stratum = max(2, count // len(strata))
    cells = per_stratum - 1
    draws = {}
    for k, (kind, n) in enumerate(strata):
        d_cells = rng.permutation(cells) + rng.random(cells)
        d_all = [int(d) for d in 1 + (d_cells * (n - 1) / cells).astype(int)]
        d_all.insert(1 + k * cells // len(strata), 0)
        m_cells = rng.permutation(per_stratum) + rng.random(per_stratum)
        draws[kind, n] = (
            d_all,
            1 + (m_cells * n / per_stratum).astype(int),
            rng.integers(0, 2**31 - 1, per_stratum),
        )
    directory.mkdir(parents=True, exist_ok=True)
    pool = []
    for j in range(per_stratum):
        for kind, n in strata:
            d_all, m_all, seeds = draws[kind, n]
            d, m = int(d_all[j]), int(m_all[j])
            inst = gresolv.cli.generate_instance(kind, n, d, m, int(seeds[j]))
            path = directory / f"{j:03d}-{kind}-{n}.json"
            gresolv.cli.save_instance(inst, path)
            pool.append(CliInstance(path, (n, d, m)))
    return pool


def shape_histogram(shapes) -> dict:
    """Counts of (n, d, m) shapes, keyed "n,d,m" and sorted."""
    counts = Counter(shapes)
    return {f"{n},{d},{m}": counts[n, d, m] for n, d, m in sorted(counts)}
