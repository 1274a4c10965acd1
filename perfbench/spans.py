"""Span tracing of the library's layers from outside the library.

A traced pass swaps every public function of the six layers (plus the few
private ones a metric needs) for a wrapper that records a span: name, start,
end, parent span and op id.  Modules call each other both as ``nk.solve`` and
through ``from .operators import defect_subspaces`` copies, so a wrapper is
bound under every name that holds the original, in every ``gresolv`` module
namespace, and the originals are put back when the pass ends.  Spans stay in
memory in flat arrays and are written out once, when the run ends.

A span's self time is its duration minus the durations of its children; the
library is single-threaded, so children never overlap.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("numkernel", "operators", "extensions", "resolvents", "spectral", "cli")

#: private functions traced because a metric needs them: on the circle the gap
#: report builds its comparison maps through ``_anchored_gap_map`` directly
PRIVATE_TRACED = {"spectral": ("_anchored_gap_map",)}

ROOT_SPAN = "bench.op"
FORMULAS = ("resolvents.direct_sum_resolvent", "resolvents.anchored_resolvent",
            "resolvents.extension_resolvent")
ORACLE = "resolvents.dilation_resolvent"
#: the parameter callbacks the formulas evaluate at every point
PARAM_CALLBACKS = ("resolvents.recover_parameter", "resolvents.defect_block")
COMPARISON_MAPS = ("spectral._anchored_gap_map", "spectral.comparison_map_symmetric")
SOLVE = "numkernel.solve"


def solve_flop(n: int, k: int) -> float:
    """Real flops of ``numkernel.solve`` on an n x n complex system with k
    right-hand sides, computed from the shapes: singular values by
    bidiagonalization (32/3 n^3), LU (8/3 n^3) and two triangular solves
    (8 n^2 k), complex arithmetic counted as four real flops per operation."""
    return (40.0 / 3.0) * n ** 3 + 8.0 * n * n * k


def _library_functions():
    """(layer, qualified name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"gresolv.{layer}"]
        extra = PRIVATE_TRACED.get(layer, ())
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            out.append((layer, f"{layer}.{attr}", module, attr, obj))
    nk = sys.modules["gresolv.numkernel"]
    out.append(("numkernel", "numkernel.subspace_init", nk.Subspace, "__post_init__",
                nk.Subspace.__dict__["__post_init__"]))
    return out


class Tracer:
    """Records spans of the library's calls while a traced pass is active."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.solve_flop = 0.0
        self._stack = [-1]
        self.op_id = -1
        self._root_id = self._name_id(ROOT_SPAN, "bench")
        self._bindings = []  # (owner, attribute, original, wrapper)
        for layer, qualname, owner, attr, original in _library_functions():
            self._bindings.append((owner, attr, original,
                                   self._wrap(original, self._name_id(qualname, layer))))

    def _name_id(self, qualname: str, layer: str) -> int:
        self.names.append(qualname)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int):
        clock = time.perf_counter
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack = self._stack
        tracer = self
        is_solve = self.names[name_id] == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            if is_solve:
                n = np.shape(args[0])[0]
                rhs = np.shape(args[1])
                tracer.solve_flop += solve_flop(n, rhs[1] if len(rhs) > 1 else 1)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    @contextmanager
    def active(self):
        """Bind the wrappers wherever the originals are bound; restore on exit."""
        originals = {id(orig): wrapper for _, _, orig, wrapper in self._bindings}
        rebound = []
        for owner, attr, orig, wrapper in self._bindings:
            if not inspect.ismodule(owner):
                setattr(owner, attr, wrapper)
                rebound.append((owner, attr, orig))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gresolv" and not mod_name.startswith("gresolv."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    rebound.append((module, attr, obj))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(rebound):
                setattr(owner, attr, orig)

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; library spans of the op become its descendants."""
        self.op_id = op_id
        idx = len(self.start)
        self.name.append(self._root_id)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans as an uncompressed ``.npz`` (one array per field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 op=np.frombuffer(self.op, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics, each normalised per op (or per call or point)."""
        names = self.names
        nid = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        ids = {name: i for i, name in enumerate(names)}

        def mask(*qualnames):
            wanted = [ids[q] for q in qualnames if q in ids]
            return np.isin(nid, wanted)

        # spans nested in a formula call / in a parameter callback
        formula_ids = {ids[q] for q in FORMULAS}
        param_ids = {ids[q] for q in PARAM_CALLBACKS}
        in_formula = np.zeros(dur.size, dtype=bool)
        in_param = np.zeros(dur.size, dtype=bool)
        nid_list, parent_list = nid.tolist(), parent.tolist()
        for i, p in enumerate(parent_list):
            if p >= 0:
                in_formula[i] = in_formula[p] or nid_list[p] in formula_ids
                in_param[i] = in_param[p] or nid_list[p] in param_ids

        def count(*qualnames):
            return int(mask(*qualnames).sum())

        def per_op(value):
            return value / ops

        def mean_ms(selected):
            n = int(selected.sum())
            return 1e3 * float(dur[selected].sum()) / n if n else 0.0

        formula = mask(*FORMULAS) & ~in_formula
        points = int(formula.sum())
        formula_ms = mean_ms(formula)
        oracle_ms = mean_ms(mask(ORACLE) & ~in_formula)
        param = mask(*PARAM_CALLBACKS) & in_formula & ~in_param
        gap_reports = count("spectral.gap_report")

        out = {}
        for qual in ("operators.defect_subspaces", "extensions.is_admissible",
                     "extensions.forbidden_operator", "extensions.neumann_extension",
                     "numkernel.subspace_init", "numkernel.solve",
                     "numkernel.orthonormalize", "numkernel.op_norm"):
            out[f"{qual}.calls_per_op"] = per_op(count(qual))
        for qual in ("numkernel.subspace_init", "numkernel.solve", "numkernel.orthonormalize"):
            out[f"{qual}.self_ms_per_op"] = per_op(1e3 * float(self_time[mask(qual)].sum()))
        out["numkernel.solve.computed_mflop_per_op"] = per_op(self.solve_flop / 1e6)
        out["resolvents.formula_ms_per_point"] = formula_ms
        out["resolvents.oracle_ms_per_point"] = oracle_ms
        out["resolvents.formula_to_oracle_ratio"] = formula_ms / oracle_ms if oracle_ms else 0.0
        out["resolvents.param_ms_per_point"] = \
            1e3 * float(dur[param].sum()) / points if points else 0.0
        out["spectral.gap_report.ms_per_call"] = mean_ms(mask("spectral.gap_report"))
        out["spectral.comparison_map.calls_per_gap_report"] = \
            count(*COMPARISON_MAPS) / gap_reports if gap_reports else 0.0
        out["spectral.spectral_measure.ms_per_call"] = mean_ms(mask("spectral.spectral_measure"))
        out["resolvents.boundary_parameter.ms_per_call"] = \
            mean_ms(mask("resolvents.boundary_parameter"))
        out["cli.load_instance.ms_per_call"] = mean_ms(mask("cli.load_instance"))
        layer_of = np.array(self.layers)[nid] if nid.size else np.array([], dtype=str)
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = \
                per_op(1e3 * float(self_time[layer_of == layer].sum()))
        return out
