"""Count the LAPACK calls and kernel gates of one warm op of each benchmark workload.

    PYTHONPATH=src python tools/lapack_counts.py [--seed 3] [--pool 20] [--workloads NAME ...]

For each workload of ``perfbench/workloads.py`` the seeded instance pool of
``perfbench/instances.py`` is built and every op runs once, which fills the
operators' memos as the benchmark's warm-up and earlier passes do.  A second
pass over the same pool is then counted, and each count is printed per op:

- the numpy calls ``svd`` (the one inside ``np.linalg.norm(m, 2)`` included),
  ``inv``, ``solve`` and ``lstsq``;
- the kernel calls ``nk.op_norm``, ``nk.intersect``, ``nk.projector``,
  ``nk.check_contraction`` and ``nk.injective`` (each rank test, the
  admissibility verdict's among them);
- the point values computed: ``dilation_resolvent`` (the oracle at one point;
  a value its model already keeps is not counted) and ``_defect_block`` (the
  defect-block family's block at one point, likewise).

The counts cover the whole op as the benchmark runs it, its own check against
the oracle included.  They are deterministic for a given seed and pool, so two
checkouts can be compared by running the tool in each.  The benchmark modules
are imported, never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import numpy.linalg._linalg as _linalg  # noqa: E402

import gresolv.numkernel as nk  # noqa: E402
import gresolv.resolvents as resolvents  # noqa: E402
from perfbench import workloads  # noqa: E402

#: numpy.linalg functions counted; each is rebound in ``numpy.linalg`` and in
#: its implementation module, where ``norm`` looks up ``svd``
NUMPY_CALLS = ("svd", "inv", "solve", "lstsq")
#: kernel functions counted, under every name a gresolv module binds them to
KERNEL_CALLS = ("op_norm", "intersect", "projector", "check_contraction", "injective")
#: point-value builders counted, likewise under every gresolv name
POINT_CALLS = ("dilation_resolvent", "_defect_block")
COLUMNS = NUMPY_CALLS + KERNEL_CALLS + POINT_CALLS


@contextlib.contextmanager
def counting(counts: Counter):
    """Rebind the counted functions to counting wrappers; restore them on exit."""
    def wrap(fn):
        def counted(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    targets = [(module, name, getattr(np.linalg, name))
               for name in NUMPY_CALLS for module in (np.linalg, _linalg)]
    for home, name in [(nk, n) for n in KERNEL_CALLS] + [(resolvents, n) for n in POINT_CALLS]:
        original = getattr(home, name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "gresolv"]:
            targets += [(module, attr, original) for attr, obj in vars(module).items()
                        if obj is original]
    wrappers = {}
    rebound = []
    try:
        for module, attr, original in targets:
            if id(original) not in wrappers:
                wrappers[id(original)] = wrap(original)
            setattr(module, attr, wrappers[id(original)])
            rebound.append((module, attr, original))
        yield counts
    finally:
        for module, attr, original in reversed(rebound):
            setattr(module, attr, original)


def warm_counts(name: str, seed: int, pool_size: int) -> dict:
    """Per-op counts of the second pass over a workload's pool of ``pool_size``."""
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as scratch:
        pool = workload.build(seed, Path(scratch), pool_size)[:pool_size]
        for inst in pool:
            workload.run_op(inst)
        counts = Counter()
        with counting(counts):
            results = [workload.run_op(inst) for inst in pool]
    ops = len(pool)
    out = {column: counts[column] / ops for column in COLUMNS}
    out["ops"] = ops
    out["failed"] = sum(not r.ok for r in results)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--pool", type=int, default=20)
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    if args.pool < 1:
        parser.error("--pool must be positive")
    print(f"per warm op, seed {args.seed}, pool of {args.pool}")
    header = ["workload", "ops", "failed", *COLUMNS]
    print("  ".join(f"{h:>12}" for h in header))
    for name in args.workloads:
        row = warm_counts(name, args.seed, args.pool)
        cells = [name, str(row["ops"]), str(row["failed"])]
        cells += [f"{row[column]:.2f}" for column in COLUMNS]
        print("  ".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
