"""Batch front-end: generate instances, run verification suites, sample
resolvents, export spectral measures and gap reports.

Instance files are UTF-8 JSON with an explicit schema version; complex numbers
are encoded as two-element [re, im] arrays so fixtures stay portable.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import numkernel as nk
from .errors import GresolvError, NotRegularType, PreconditionViolated
from .extensions import (block_param_from_map, build_admissible_isometry,
                         exit_frames, ExitSpaceModel, PartialMap,
                         _exit_space_extension, unitary_exit_extension)
from .numkernel import CMatrix, Subspace, TolPolicy
from .operators import IsometryOp, SymmetricOp, cayley_transform, parameter_frames
from .resolvents import (ContractionParam, ResolventModel,
                         DEFAULT_DISK_SAMPLES, DEFAULT_HALFPLANE_SAMPLES,
                         _transfer_at, direct_sum_resolvent, defect_block_family,
                         boundary_parameter, recovered_parameter_family,
                         extension_resolvent, verify_resolvent_axioms)
from .spectral import (ArcSpec, _integral_residual, gap_report, in_space_atoms,
                       spectral_measure)

SCHEMA_VERSION = 1


class IoError(GresolvError):
    """Raised when an instance or report file cannot be read or written."""


class ParseError(GresolvError):
    """Raised when an instance file does not match the schema."""


def _c_to_json(value: complex) -> list:
    return [float(np.real(value)), float(np.imag(value))]


def _c_from_json(value, field: str = "value") -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ParseError(f"{field}: expected [re, im], got {value!r}")
    z = complex(_number(value[0], field), _number(value[1], field))
    if not cmath.isfinite(z):
        raise ParseError(f"{field}: non-finite entry {value!r}")
    return z


def _number(value, field: str) -> float:
    """A JSON number; a bool or a string is not one."""
    if type(value) not in (int, float):
        raise ParseError(f"{field}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError(f"{field}: number out of range") from exc


def _integer(value, field: str) -> int:
    """A JSON integer; a bool, a float or a string is not one."""
    if type(value) is not int:
        raise ParseError(f"{field}: expected an integer, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{field}: expected an object, got {type(value).__name__}")
    return value


#: matrix entries each parameter form needs
_PARAM_FORMS = {"constant": ("value",), "affine": ("k0", "k1")}


def _m_to_json(mat: CMatrix) -> list:
    return [[_c_to_json(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])]


def _m_from_json(rows, shape_hint=None, field: str = "matrix") -> CMatrix:
    try:
        data = [[_c_from_json(cell, f"{field}[{i}][{j}]") for j, cell in enumerate(row)]
                for i, row in enumerate(rows)]
    except TypeError as exc:
        raise ParseError(f"bad {field} encoding: {exc}") from exc
    if len({len(row) for row in data}) > 1:
        raise ParseError(f"{field}: rows of different lengths")
    if not data:
        # only a shape with no rows is written as []
        if shape_hint is None or shape_hint[0]:
            raise ParseError(f"{field}: empty matrix where shape {shape_hint} was expected")
        return np.zeros(shape_hint, dtype=np.complex128)
    return np.array(data, dtype=np.complex128)


@dataclass
class InstanceFile:
    """Parsed instance: an operator, an optional exit block, an optional parameter."""

    kind: str
    domain_basis: CMatrix
    action_or_range: CMatrix
    exit_block: CMatrix | None = None
    anchor: complex = 1j
    parameter: dict | None = None
    seed: int = 0

    @property
    def exit_dim(self) -> int:
        """Exit block size less the inner defect dimension n - d; read only
        with a block."""
        n, d = self.domain_basis.shape
        return self.exit_block.shape[0] - (n - d)

    @functools.cached_property
    def operator(self):
        """Built once, so every consumer shares the operator and its anchor memo."""
        sub = Subspace(self.domain_basis)
        if self.kind == "isometric":
            return IsometryOp(sub, self.action_or_range)
        if self.kind == "symmetric":
            return SymmetricOp(sub, self.action_or_range)
        raise ParseError(f"unknown instance kind {self.kind!r}")

    def model(self) -> ExitSpaceModel | None:
        if self.exit_block is None:
            return None
        op = self.operator
        if self.kind == "isometric":
            return unitary_exit_extension(op, self.exit_dim, w_block=self.exit_block)
        exit_op = SymmetricOp.null(self.exit_dim)
        frames = exit_frames(op, exit_op, self.anchor)
        tmap = PartialMap.from_coords(frames.src, frames.dst, self.exit_block)
        block = block_param_from_map(tmap, frames, isometry=True)
        return _exit_space_extension(op, exit_op, self.anchor, block, frames)

    def parameter_anchor(self) -> complex:
        """Anchor of the parameter block: z0 in the disk (0 when not given) on
        the isometric side, the exit anchor on the symmetric side."""
        if self.kind == "symmetric":
            return self.anchor
        return _c_from_json((self.parameter or {}).get("z0", [0.0, 0.0]), "parameter.z0")

    def parameter_family(self) -> ContractionParam | None:
        if self.parameter is None:
            return None
        par = self.parameter
        src, dst = (pair.n_space for pair in
                    parameter_frames(self.operator, self.parameter_anchor()))
        anchor = self.anchor if self.kind == "symmetric" else None
        hint = (dst.dim, src.dim)
        mats = [_m_from_json(par[key], hint, f"parameter.{key}")
                for key in _PARAM_FORMS[par["form"]]]
        return getattr(ContractionParam, par["form"])(src, dst, *mats, anchor)

    def to_json(self) -> dict:
        n, d = self.domain_basis.shape
        obj = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "ambient_dim": n,
            "domain_dim": d,
            "domain_basis": _m_to_json(self.domain_basis),
            "action_or_range": _m_to_json(self.action_or_range),
            "seed": self.seed,
        }
        if self.exit_block is not None:
            obj["exit"] = {
                "dim": self.exit_dim,
                "block": _m_to_json(self.exit_block),
                "anchor": _c_to_json(self.anchor),
            }
        else:
            obj["exit"] = None
        obj["parameter"] = self.parameter
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "InstanceFile":
        obj = _object(obj, "instance")
        try:
            version = _integer(obj.get("schema_version"), "schema_version")
            if version != SCHEMA_VERSION:
                raise ParseError(f"schema_version: unsupported version {version}")
            n = _integer(obj["ambient_dim"], "ambient_dim")
            if n < 1:
                raise ParseError(f"ambient_dim: expected a positive dimension, got {n}")
            d = _integer(obj["domain_dim"], "domain_dim")
            dom = _m_from_json(obj["domain_basis"], (n, d), "domain_basis")
            act = _m_from_json(obj["action_or_range"], (n, d), "action_or_range")
            for name, (rows, cols) in (("domain_basis", dom.shape), ("action_or_range", act.shape)):
                if rows != n:
                    raise ParseError(f"ambient_dim: {n} does not match the {rows} rows of {name}")
                if cols != d:
                    raise ParseError(f"domain_dim: {d} does not match the {cols} columns of {name}")
            exit_obj = obj.get("exit")
            kwargs = {}
            if exit_obj is not None:
                m = _integer(_object(exit_obj, "exit")["dim"], "exit.dim")
                if m < 0:
                    raise ParseError(f"exit.dim: expected a nonnegative dimension, got {m}")
                defect = (n - d) + m
                block = _m_from_json(exit_obj["block"], (defect, defect), "exit.block")
                if block.shape != (defect, defect):
                    raise ParseError(f"exit.dim: {m} needs an exit.block of shape "
                                     f"({defect}, {defect}), got {block.shape}")
                kwargs["exit_block"] = block
                kwargs["anchor"] = _c_from_json(exit_obj["anchor"], "exit.anchor")
            # the parameter block is kept raw and decoded on use; check it now
            par = obj.get("parameter")
            if par is not None:
                form = _object(par, "parameter").get("form")
                keys = _PARAM_FORMS.get(form) if isinstance(form, str) else None
                if keys is None:
                    raise ParseError(f"parameter.form: expected constant or affine, got {form!r}")
                for key in keys:
                    if key not in par:
                        raise ParseError(f"parameter.{key}: missing for form {form!r}")
                    _m_from_json(par[key], (0, 0), f"parameter.{key}")
                _c_from_json(par.get("z0", [0.0, 0.0]), "parameter.z0")
            return cls(kind=obj["kind"], domain_basis=dom,
                       action_or_range=act, parameter=obj.get("parameter"),
                       seed=_integer(obj.get("seed", 0), "seed"), **kwargs)
        except KeyError as exc:
            raise ParseError(f"missing instance field {exc}") from exc


def save_instance(inst: InstanceFile, path) -> None:
    text = json.dumps(inst.to_json(), sort_keys=True, indent=2) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_instance(path) -> InstanceFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return InstanceFile.from_json(obj)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    residual: float
    tag: str


@dataclass
class Report:
    suite: str
    records: list = field(default_factory=list)

    def add(self, name: str, passed: bool, residual: float, tag: str) -> None:
        self.records.append(CheckRecord(name, bool(passed), float(residual), tag))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {"name": r.name, "passed": r.passed, "residual": r.residual, "tag": r.tag}
                for r in self.records
            ],
            "summary": {
                "total": len(self.records),
                "passed": sum(1 for r in self.records if r.passed),
                "all_passed": self.all_passed,
            },
        }

    def render(self) -> str:
        lines = [f"suite: {self.suite}"]
        for r in self.records:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.name}  residual={r.residual:.3e}  ({r.tag})")
        lines.append(f"  => {'all checks passed' if self.all_passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def generate_instance(kind: str, n: int, d: int, m: int, seed: int) -> InstanceFile:
    """Random valid instance with an admissible unitary exit block and a
    constant unitary in-space parameter."""
    if n < 1 or not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n and n >= 1")
    if m < 0:
        raise ValueError("exit dimension must be nonnegative")
    rng = np.random.default_rng(seed)
    if kind == "isometric":
        op = IsometryOp.random(n, d, rng)
        k = n - d
        block = nk.haar_unitary(k + m, rng) if k + m else np.zeros((0, 0), dtype=np.complex128)
        param = {"form": "constant", "value": _m_to_json(nk.haar_unitary(k, rng)),
                 "z0": _c_to_json(0.0)}
        return InstanceFile("isometric", op.dom.basis, op.ran_basis, block, 1j, param, seed)
    if kind == "symmetric":
        if d == n:
            print("warning: self-adjoint, defects (0,0)", file=sys.stderr)
        op = SymmetricOp.random(n, d, rng)
        anchor = 1j
        frames = exit_frames(op, SymmetricOp.null(m), anchor)
        sub_seed = int(rng.integers(0, 2**63 - 1))
        tmap = build_admissible_isometry(frames.coupled, anchor, frames.src, frames.dst, sub_seed)
        block_coords = frames.dst.basis.conj().T @ tmap.ambient() @ frames.src.basis
        param_seed = int(rng.integers(0, 2**63 - 1))
        src, dst = (pair.n_space for pair in parameter_frames(op, anchor))
        pmap = build_admissible_isometry(op, anchor, src, dst, param_seed)
        pm_coords = dst.basis.conj().T @ pmap.ambient() @ src.basis
        param = {"form": "constant", "value": _m_to_json(pm_coords)}
        inst = InstanceFile("symmetric", op.dom.basis, op.action, block_coords,
                            anchor, param, seed)
        inst.model()  # admissibility verified post-generation
        return inst
    raise ValueError(f"unknown kind {kind!r}")


def _required(model: ExitSpaceModel | None) -> ExitSpaceModel:
    if model is None:
        raise ParseError("instance carries no exit block, so no exit-space model is defined")
    return model


def run_suite(inst: InstanceFile, suite: str) -> Report:
    report = Report(suite)
    wanted = ("axioms", "oracle", "gap", "limits") if suite == "all" else (suite,)
    op = inst.operator
    # one exit-space model per run, built only when a suite reads it
    model = inst.model() if {"axioms", "oracle", "limits"} & set(wanted) else None
    if "axioms" in wanted:
        _suite_axioms(inst, op, _required(model), report)
    if "oracle" in wanted:
        _suite_oracle(inst, op, _required(model), report)
    if "gap" in wanted:
        _suite_gap(inst, op, report)
    if "limits" in wanted:
        _suite_limits(inst, op, model, report)
    return report


def _suite_axioms(inst: InstanceFile, op: IsometryOp | SymmetricOp, model: ExitSpaceModel,
                  report: Report) -> None:
    r = ResolventModel.from_dilation(model)
    if inst.kind == "isometric":
        axioms = verify_resolvent_axioms(r, op)
        for check in axioms.checks:
            report.add(f"axiom-{check.name}", check.passed, check.residual, "resolvent-axioms")
        return
    # symmetric side: transfer to the transformed isometry and check there
    z = inst.anchor
    u = cayley_transform(op, z)

    def transferred_at(points):
        # the transfer leaves the points 0 and 1 to continuity; 0 maps to the
        # anchor, where every generalized resolvent equals the identity
        values = iter(_transfer_at(r, z, [p for p in points if p != 0]))
        return [np.eye(op.ambient_dim, dtype=np.complex128) if p == 0 else next(values)
                for p in points]

    transferred = ResolventModel(u, lambda point, boundary_ok=False: transferred_at([point])[0],
                                 transferred_at)
    axioms = verify_resolvent_axioms(transferred, u)
    for check in axioms.checks:
        report.add(f"axiom-{check.name}", check.passed, check.residual,
                   "resolvent-axioms-transferred")
    lams = [2j, 1 + 1j, -0.5 - 2j, 3 - 0.25j]
    worst = nk._worst_norm(x - y.conj().T for x, y in zip(r.at(np.conj(lams)), r.at(lams)))
    report.add("conjugate-symmetry", worst <= 1e-9, worst, "resolvent-axioms")


def _suite_oracle(inst: InstanceFile, op: IsometryOp | SymmetricOp, model: ExitSpaceModel,
                  report: Report) -> None:
    r = ResolventModel.from_dilation(model)
    if inst.kind == "isometric":
        family = recovered_parameter_family(r)
        worst = nk._worst_norm(direct_sum_resolvent(op, family, zeta) - oracle for zeta, oracle
                               in zip(DEFAULT_DISK_SAMPLES, r.at(DEFAULT_DISK_SAMPLES)))
        report.add("direct-sum-formula-vs-dilation", worst <= 1e-9, worst, "oracle-equivalence")
        return
    family = defect_block_family(r, op, inst.anchor)
    oracles = r.at(DEFAULT_HALFPLANE_SAMPLES)
    worst = nk._worst_norm(
        extension_resolvent(op, family, inst.anchor, lam, validate=False) - oracle
        for lam, oracle in zip(DEFAULT_HALFPLANE_SAMPLES, oracles))
    report.add("extension-formula-vs-dilation", worst <= 1e-9, worst, "oracle-equivalence")
    atoms = spectral_measure(model)
    res = _integral_residual(atoms, DEFAULT_HALFPLANE_SAMPLES, oracles)
    report.add("atomic-integral-representation", res <= 1e-10, res, "oracle-equivalence")


def _suite_gap(inst: InstanceFile, op: IsometryOp | SymmetricOp, report: Report) -> None:
    param = inst.parameter_family()
    if param is None:
        report.add("gap-parameter-present", False, np.inf, "gap-criteria")
        return
    anchor = inst.parameter_anchor()
    atoms = in_space_atoms(op, param, anchor)
    if atoms is None:
        raise PreconditionViolated("gap checks need a unitary parameter with an in-space extension")
    locs = [loc for loc, _ in atoms.atoms]  # increasing
    kind = atoms.kind
    wrap = 2 * np.pi if kind == "circle" else None
    # widest atom-free region: expect an analytic verdict there
    if len(locs) == 1:
        lo, hi = (locs[0] + 0.5, locs[0] + 1.5) if wrap is None else \
            (locs[0] + 0.1, locs[0] + wrap - 0.1)
    else:
        spans = list(zip(locs, locs[1:] + ([locs[0] + wrap] if wrap else [locs[-1] + 2.0])))
        lo, hi = max(spans, key=lambda ab: ab[1] - ab[0])
        lo, hi = lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)
    if wrap is not None and hi >= wrap:
        # keep the probe arc inside one chart
        if lo >= wrap:
            lo, hi = lo - wrap, hi - wrap
        else:
            hi = wrap - 1e-6
    region_free = ArcSpec(kind, float(lo), float(hi))
    rep_free = gap_report(op, param, anchor, region_free, 32)
    report.add("gap-verdict-on-atom-free-region", rep_free.analytic,
               rep_free.refined_min_margin, "gap-criteria")
    # a region containing the first atom: expect an obstruction, either a
    # vanishing margin or a failed regular-type / covering hypothesis
    lo2, hi2 = locs[0] - 0.2, locs[0] + 0.2
    if kind == "circle":
        lo2, hi2 = max(lo2, 0.0), min(hi2, wrap - 1e-9)
    region_atom = ArcSpec(kind, float(lo2), float(hi2))
    try:
        rep_atom = gap_report(op, param, anchor, region_atom, 32)
        obstructed, margin = not rep_atom.analytic, rep_atom.refined_min_margin
    except (NotRegularType, PreconditionViolated):
        obstructed, margin = True, 0.0
    report.add("gap-verdict-on-atom-region", obstructed, margin, "gap-criteria")


def _suite_limits(inst: InstanceFile, op: IsometryOp | SymmetricOp, model: ExitSpaceModel | None,
                  report: Report) -> None:
    if inst.kind != "symmetric":
        report.add("limits-not-applicable-isometric", True, 0.0, "boundary-limits")
        return
    if model is None:
        report.add("limits-model-present", False, np.inf, "boundary-limits")
        return
    rep = boundary_parameter(op, model, inst.anchor)
    errs = rep.limit_errors
    if errs.size:
        # below 1e-9 the curve is machine noise: converged, jitter tolerated
        settled = np.maximum(errs[1:-1] + 1e-12, 1e-9)
        monotone = bool(np.all(errs[2:] <= settled))
        final = float(errs[-1].max())
    else:
        monotone, final = True, 0.0
    report.add("boundary-limit-monotone", monotone,
               float(np.max(errs[1:] - errs[:-1])) if errs.size else 0.0, "boundary-limits")
    report.add("boundary-limit-final-error", final < 1e-3, final, "boundary-limits")
    member = rep.membership
    growth = float(np.max(np.abs(member[-1]))) if member.size else 0.0
    bound = 10.0 * max(1.0, float(np.max(np.abs(member[1])))) if member.size else 1.0
    report.add("membership-quantity-bounded", growth <= bound, growth, "boundary-limits")


def _sample_points(inst: InstanceFile, count: int) -> list[complex]:
    if inst.kind == "isometric":
        radii = (0.2, 0.5, 0.8, 1.25, 2.0)
        return [complex(radii[j % len(radii)] * np.exp(2j * np.pi * j / count))
                for j in range(count)]
    res = (-2.0, -0.5, 0.0, 1.0, 3.0)
    ims = (0.5, 1.0, 2.0, -0.5, -1.0)
    return [complex(res[j % len(res)] + 1j * ims[j % len(ims)]) for j in range(count)]


def cmd_gen(args) -> int:
    inst = generate_instance(args.kind, args.n, args.d, args.m, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.kind} instance n={args.n} d={args.d} m={args.m} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    report = run_suite(inst, args.suite)
    print(report.render())
    if args.out:
        _write_text(args.out, json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    return 0 if report.all_passed else 1


def _cells(mat: CMatrix) -> str:
    """Tab-separated ``re,im`` cells of a matrix in row-major order."""
    return "\t".join(f"{x.real:.12e},{x.imag:.12e}" for x in mat.ravel())


def cmd_resolvent(args) -> int:
    inst = load_instance(args.instance)
    r = ResolventModel.from_dilation(_required(inst.model()))
    lines = ["# re(point)\tim(point)\tentries re,im row-major"]
    for point in _sample_points(inst, args.grid):
        lines.append(f"{point.real:.12e}\t{point.imag:.12e}\t{_cells(r(point))}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    inst = load_instance(args.instance)
    atoms = spectral_measure(_required(inst.model()))
    label = "angle" if atoms.kind == "circle" else "location"
    lines = [f"# {label}\tweight entries re,im row-major"]
    for loc, weight in atoms.atoms:
        lines.append(f"{loc:.12e}\t{_cells(weight)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_gap(args) -> int:
    inst = load_instance(args.instance)
    param = inst.parameter_family()
    if param is None:
        raise ParseError("gap reports need a parameter block in the instance")
    kind = "circle" if inst.kind == "isometric" else "line"
    region = ArcSpec(kind, args.region[0], args.region[1])
    report = gap_report(inst.operator, param, inst.parameter_anchor(), region, args.grid)
    lines = [f"# gap report on {kind} region ({region.lo}, {region.hi})",
             f"verdict: {'analytic' if report.analytic else 'not analytic'}",
             f"refined min margin: {report.refined_min_margin:.6e}"]
    if report.atoms is not None:
        inside = [loc for loc, _ in report.atoms.atoms if region.contains(loc)]
        lines.append("atoms in region: " + (", ".join(f"{x:.9g}" for x in inside) or "none"))
    lines.append("# point\tmargin\tunitarity defect\tside margin")
    for rec in report.records:
        lines.append(f"{rec.point:.9g}\t{rec.margin:.6e}\t{rec.unitarity_defect:.6e}"
                     f"\t{rec.side_margin:.6e}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gresolv",
        description="generalized-resolvent laboratory: instances, verification, exports")
    parser.add_argument("--abs-floor", type=float, default=1e-10,
                        help="absolute singular-value floor for rank decisions")
    parser.add_argument("--rank-rel", type=float, default=None,
                        help="relative rank threshold (default: dimension-aware)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random valid instance")
    p_gen.add_argument("--kind", choices=("isometric", "symmetric"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("instance")
    p_verify.add_argument("--suite", choices=("axioms", "oracle", "gap", "limits", "all"),
                          default="all")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_res = sub.add_parser("resolvent", help="sample the model resolvent")
    p_res.add_argument("instance")
    p_res.add_argument("--grid", type=_positive_int, default=20)
    p_res.add_argument("--out", default=None)
    p_res.set_defaults(func=cmd_resolvent)

    p_spec = sub.add_parser("spectrum", help="export the atomic spectral measure")
    p_spec.add_argument("instance")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_gap = sub.add_parser("gap", help="gap report for the instance parameter")
    p_gap.add_argument("instance")
    p_gap.add_argument("--region", type=float, nargs=2, required=True,
                       metavar=("LO", "HI"))
    p_gap.add_argument("--grid", type=_positive_int, default=64)
    p_gap.add_argument("--out", default=None)
    p_gap.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with nk.tolerance(TolPolicy(abs_floor=args.abs_floor, rank_rel=args.rank_rel)):
            return args.func(args)
    except (GresolvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
