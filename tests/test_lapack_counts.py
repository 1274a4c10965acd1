"""Smoke test of ``tools/lapack_counts.py`` on pools of two."""

import math

import numpy as np

import gresolv as g
import gresolv.numkernel as nk
from gresolv import resolvents
from perfbench import workloads
from tools import lapack_counts


def test_counts_every_workload_and_restores_what_it_rebinds():
    def bound():
        return [np.linalg.svd, nk.op_norm, nk.intersect, nk.check_contraction,
                resolvents.dilation_resolvent, g.dilation_resolvent, resolvents._defect_block]

    originals = bound()
    for name in workloads.WORKLOADS:
        row = lapack_counts.warm_counts(name, seed=3, pool_size=2)
        assert row["ops"] == 2 and row["failed"] == 0
        assert all(math.isfinite(row[c]) and row[c] >= 0 for c in lapack_counts.COLUMNS)
        assert row["svd"] > 0 and row["check_contraction"] > 0
        assert row["dilation_resolvent"] > 0
        assert (row["_defect_block"] > 0) == (name != "oracle-iso")
    assert bound() == originals
