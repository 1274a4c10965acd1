"""Instance file round trips, report determinism, command exit codes."""

import json
import re
import runpy
import sys

import numpy as np
import pytest

import gresolv as g
from gresolv import cli
from gresolv.fixtures import flip_dilation_isometric


def test_instance_roundtrip_byte_identical(tmp_path):
    inst = cli.generate_instance("symmetric", 3, 1, 2, seed=42)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    cli.save_instance(inst, p1)
    cli.save_instance(cli.load_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_is_deterministic(tmp_path):
    a = cli.generate_instance("isometric", 4, 2, 3, seed=9)
    b = cli.generate_instance("isometric", 4, 2, 3, seed=9)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    cli.save_instance(a, pa)
    cli.save_instance(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_warns_on_self_adjoint(capsys):
    cli.generate_instance("symmetric", 2, 2, 1, seed=0)
    assert "self-adjoint, defects (0,0)" in capsys.readouterr().err


def test_complex_encoding_roundtrip():
    value = 1.25 - 3.5j
    assert cli._c_from_json(cli._c_to_json(value)) == value
    mat = np.array([[1 + 2j, 0], [0.5j, -1]], dtype=complex)
    np.testing.assert_allclose(cli._m_from_json(cli._m_to_json(mat)), mat)


def test_parse_error_on_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99}', encoding="utf-8")
    with pytest.raises(cli.ParseError):
        cli.load_instance(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(cli.ParseError):
        cli.load_instance(path)
    with pytest.raises(cli.IoError):
        cli.load_instance(tmp_path / "missing.json")


def test_verify_all_suites_pass(tmp_path):
    for kind, d in (("isometric", 1), ("symmetric", 1)):
        path = tmp_path / f"{kind}.json"
        cli.save_instance(cli.generate_instance(kind, 3, d, 2, seed=5), path)
        code = cli.main(["verify", str(path), "--suite", "all",
                         "--out", str(tmp_path / f"{kind}-report.json")])
        assert code == 0
        report = json.loads((tmp_path / f"{kind}-report.json").read_text())
        assert report["summary"]["all_passed"]


def test_report_is_deterministic(tmp_path):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("symmetric", 3, 1, 2, seed=11), path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(["verify", str(path), "--suite", "oracle", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_spectrum_output_fixture(tmp_path):
    v, model = flip_dilation_isometric()
    inst = cli.InstanceFile("isometric", v.dom.basis, v.ran_basis,
                            np.array([[0, 1], [1, 0]], dtype=complex), 1j, None, 0)
    path = tmp_path / "i1.json"
    cli.save_instance(inst, path)
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", str(path), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 2
    assert abs(float(rows[0][0]) - 0.0) < 1e-12
    assert abs(float(rows[1][0]) - np.pi) < 1e-12
    for row in rows:
        re, im = row[1].split(",")
        assert abs(float(re) - 0.5) < 1e-12 and abs(float(im)) < 1e-12


def test_resolvent_output_values(tmp_path):
    from gresolv.fixtures import flip_dilation_symmetric
    _, model, _, _ = flip_dilation_symmetric()
    a = model.embeds
    inst = cli.InstanceFile("symmetric", a.dom.basis, a.action,
                            np.array([[0, 1j], [1j, 0]], dtype=complex), 1j, None, 0)
    path = tmp_path / "i2.json"
    cli.save_instance(inst, path)
    out = tmp_path / "resolvent.txt"
    assert cli.main(["resolvent", str(path), "--grid", "5", "--out", str(out)]) == 0
    r = g.ResolventModel.from_dilation(model)
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        point = complex(float(fields[0]), float(fields[1]))
        re, im = (float(x) for x in fields[2].split(","))
        expected = r(point)[0, 0]
        assert abs(complex(re, im) - expected) < 1e-10


def test_gap_command_lists_atom(tmp_path):
    # quarter-turn parameter on the fixture: the atom at pi/2 blocks the arc
    from gresolv.fixtures import partial_identity_isometry
    v = partial_identity_isometry()
    param = {"form": "constant", "value": cli._m_to_json(np.array([[1j]], dtype=complex)),
             "z0": [0.0, 0.0]}
    inst = cli.InstanceFile("isometric", v.dom.basis, v.ran_basis, None, 1j, param, 0)
    inst.exit_block = None
    path = tmp_path / "i4.json"
    cli.save_instance(inst, path)
    out = tmp_path / "gap.txt"
    assert cli.main(["gap", str(path), "--region", str(np.pi / 4), str(3 * np.pi / 4),
                     "--grid", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert "not analytic" in text
    assert "1.5707963" in text


def test_gap_on_affine_parameter_matches_constant(tmp_path):
    # k0 = the constant value, k1 = 0: the same family in affine form
    for kind, region in (("isometric", ("0.5", "2.5")), ("symmetric", ("-1.0", "1.0"))):
        path = tmp_path / f"{kind}.json"
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, seed=4), path)
        obj = json.loads(path.read_text())
        value = obj["parameter"].pop("value")
        obj["parameter"].update(form="affine", k0=value,
                                k1=cli._m_to_json(np.zeros((len(value), len(value[0])))))
        affine = tmp_path / f"{kind}-affine.json"
        affine.write_text(json.dumps(obj), encoding="utf-8")
        outputs = []
        for source in (path, affine):
            out = tmp_path / f"{source.stem}.txt"
            assert cli.main(["gap", str(source), "--region", *region, "--out", str(out)]) == 0
            outputs.append([line for line in out.read_text().splitlines()
                            if not line.startswith("atoms in region")])
        assert outputs[0] == outputs[1]


def test_verify_detects_tampered_instance(tmp_path):
    # breaking the exit block unitarity must be caught at load time
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 3, 1, 1, seed=2), path)
    obj = json.loads(path.read_text())
    obj["exit"]["block"][0][0] = [2.0, 0.0]
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["verify", str(path), "--suite", "axioms"]) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        cli.generate_instance("weird", 2, 1, 1, seed=0)


def test_verify_suites_on_trivial_defect_instances(tmp_path):
    # unitary / self-adjoint operators with no exit: every suite stays green
    for kind in ("isometric", "symmetric"):
        path = tmp_path / f"{kind}-full.json"
        cli.save_instance(cli.generate_instance(kind, 2, 2, 0, seed=4), path)
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0


def test_verify_suites_with_in_space_extension(tmp_path):
    # nontrivial defect but no exit dimensions: the defect block is constant
    # and the limits suite must treat the noise plateau as converged
    for kind in ("isometric", "symmetric"):
        path = tmp_path / f"{kind}-inspace.json"
        cli.save_instance(cli.generate_instance(kind, 3, 1, 0, seed=12), path)
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0


def test_verify_gap_suite_at_stated_scale(tmp_path):
    # n = 16 is the top of the stated scale; d = 8 leaves an 8-dim defect
    for kind in ("isometric", "symmetric"):
        path = tmp_path / f"{kind}-16.json"
        cli.save_instance(cli.generate_instance(kind, 16, 8, 2, seed=16), path)
        assert cli.main(["verify", str(path), "--suite", "gap"]) == 0


def test_cli_tolerance_reaches_every_defect_computation(tmp_path, monkeypatch):
    paths = []
    for kind in ("isometric", "symmetric"):
        paths.append(tmp_path / f"{kind}.json")
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, seed=3), paths[-1])
    seen = []

    def spy(name, real):
        def read(op, point):
            seen.append((name, g.numkernel._policy()))
            return real(op, point)
        return read

    # the gap grid's covering test reads range frames without a defect pair
    names = ("defect_subspaces", "range_frame")
    for name in names:
        read = spy(name, getattr(g.operators, name))
        for module in (g.operators, g.extensions, g.resolvents, g.spectral, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, read)
    policy = g.TolPolicy(abs_floor=1e-9)
    for path in paths:
        cli.main(["--abs-floor", "1e-9", "verify", str(path), "--suite", "all"])
    assert {name for name, _ in seen} == set(names)
    assert all(tol == policy for _, tol in seen)


def test_non_finite_entry_rejected_at_parse_time(tmp_path):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 3, 1, 1, seed=2), path)
    obj = json.loads(path.read_text())
    obj["domain_basis"][0][0] = [float("nan"), 0.0]
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(cli.ParseError, match="domain_basis"):
        cli.load_instance(path)


def test_numerical_failure_exits_with_code_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 3, 1, 1, seed=2), path)

    def failing_suite(*args, **kwargs):
        raise g.NumericalFailure("identity violated")

    monkeypatch.setattr(cli, "run_suite", failing_suite)
    assert cli.main(["verify", str(path)]) == 2
    assert "error: identity violated" in capsys.readouterr().err


#: edits of a valid instance object, keyed by the field the parse error names
def _ragged(rows):
    """The rows with one cell cut from the last one."""
    return rows[:-1] + [rows[-1][:-1]]


def _first_cell_as_strings(rows):
    """The rows with the parts of their first cell written as JSON strings."""
    return [[[str(part) for part in rows[0][0]]] + rows[0][1:]] + rows[1:]


MALFORMED = {
    "parameter": lambda obj: {**obj, "parameter": [1]},
    "parameter.form": lambda obj: {**obj, "parameter": {
        key: value for key, value in obj["parameter"].items() if key != "form"}},
    "parameter.value": lambda obj: {**obj, "parameter": {"form": "constant"}},
    "exit": lambda obj: {**obj, "exit": [1]},
    "instance": lambda obj: [obj],
    "ambient_dim": lambda obj: {**obj, "ambient_dim": [4]},
    "seed": lambda obj: {**obj, "seed": [1]},
    "exit.dim": lambda obj: {**obj, "exit": {**obj["exit"], "dim": [1]}},
    "exit.anchor": lambda obj: {**obj, "exit": {**obj["exit"], "anchor": [[0.0], 1.0]}},
    "exit.anchor=[0.0]": lambda obj: {**obj, "exit": {**obj["exit"], "anchor": [0.0]}},
    # a JSON integer that no float holds
    "exit.anchor=[10**400, 0]": lambda obj: {
        **obj, "exit": {**obj["exit"], "anchor": [10**400, 0]}},
    # dimension fields that disagree with the arrays; the key names the field
    # the error must name, then the edit
    "ambient_dim=5": lambda obj: {**obj, "ambient_dim": 5},
    "domain_dim=-1": lambda obj: {**obj, "domain_dim": -1},
    "domain_dim=9": lambda obj: {**obj, "domain_dim": 9},
    "exit.dim=-1": lambda obj: {**obj, "exit": {**obj["exit"], "dim": -1}},
    "exit.dim=5": lambda obj: {**obj, "exit": {**obj["exit"], "dim": 5}},
    # integer fields that are not JSON integers, though int() of each gives
    # the value the arrays of the n = 3, d = 1, m = 1 file need
    'ambient_dim="3"': lambda obj: {**obj, "ambient_dim": "3"},
    "ambient_dim=3.9": lambda obj: {**obj, "ambient_dim": 3.9},
    "domain_dim=1.5": lambda obj: {**obj, "domain_dim": 1.5},
    "exit.dim=1.7": lambda obj: {**obj, "exit": {**obj["exit"], "dim": 1.7}},
    'seed="7"': lambda obj: {**obj, "seed": "7"},
    "seed=true": lambda obj: {**obj, "seed": True},
    "schema_version=true": lambda obj: {**obj, "schema_version": True},
    "schema_version=1.0": lambda obj: {**obj, "schema_version": 1.0},
    # complex parts that are not JSON numbers, though float() of each is one
    'exit.anchor=["0", true]': lambda obj: {**obj, "exit": {**obj["exit"], "anchor": ["0", True]}},
    "domain_basis[0][0]=strings": lambda obj: {
        **obj, "domain_basis": _first_cell_as_strings(obj["domain_basis"])},
    # matrices whose rows differ in length
    "domain_basis=ragged": lambda obj: {**obj, "domain_basis": _ragged(obj["domain_basis"])},
    "exit.block=ragged": lambda obj: {
        **obj, "exit": {**obj["exit"], "block": _ragged(obj["exit"]["block"])}},
    "parameter.value=ragged": lambda obj: {
        **obj, "parameter": {**obj["parameter"], "value": _ragged(obj["parameter"]["value"])}},
}


@pytest.mark.parametrize("field", MALFORMED)
def test_malformed_instance_rejected_with_code_2(tmp_path, field):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 3, 1, 1, seed=2), path)
    edited = MALFORMED[field](json.loads(path.read_text()))
    path.write_text(json.dumps(edited), encoding="utf-8")
    with pytest.raises(cli.ParseError, match=f"^{re.escape(field.split('=')[0])}:"):
        cli.load_instance(path)
    assert cli.main(["verify", str(path), "--suite", "gap"]) == 2


def test_verify_builds_one_model_per_run(tmp_path, monkeypatch):
    paths = []
    for kind in ("isometric", "symmetric"):
        paths.append(tmp_path / f"{kind}.json")
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, seed=8), paths[-1])
    builds, reported = [], []
    for name in ("_exit_space_extension", "unitary_exit_extension"):
        def spy(*args, _real=getattr(cli, name), **kwargs):
            builds.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)

    def gap_spy(op, *args, _real=cli.gap_report):
        reported.append(op)
        return _real(op, *args)
    monkeypatch.setattr(cli, "gap_report", gap_spy)
    for path in paths:
        builds.clear()
        reported.clear()
        assert cli.main(["verify", str(path), "--suite", "all"]) == 0
        assert len(builds) == 1
        # one operator per instance file: the model and the gap checks share it
        assert reported and all(op is builds[0] for op in reported)
        builds.clear()
        assert cli.main(["verify", str(path), "--suite", "gap"]) == 0
        assert builds == []


def test_parameter_of_wrong_shape_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 4, 2, 1, seed=3), path)
    obj = json.loads(path.read_text())
    obj["parameter"] = {"form": "affine", "k0": [[[0, 1]]], "k1": [[[0, 0]]], "z0": [0, 0]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["gap", str(path), "--region", "0.3", "2.5", "--grid", "4"]) == 2
    assert "parameter shape (1, 1) does not match defects (2, 2)" in capsys.readouterr().err
    # an empty matrix is not the zero matrix of a non-empty shape
    for kind in ("symmetric", "isometric"):
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, seed=4), path)
        obj = json.loads(path.read_text())
        for par, field in (({**obj["parameter"], "value": []}, "parameter.value"),
                           ({"form": "affine", "k0": [], "k1": []}, "parameter.k0")):
            path.write_text(json.dumps({**obj, "parameter": par}), encoding="utf-8")
            assert cli.main(["gap", str(path), "--region", "0.2", "0.9", "--grid", "4"]) == 2
            assert f"error: {field}: empty matrix" in capsys.readouterr().err


def test_instance_without_ambient_dimensions_exits_2(tmp_path, capsys):
    for kind in ("isometric", "symmetric"):
        out = tmp_path / f"{kind}.json"
        assert cli.main(["gen", "--kind", kind, "--n", "0", "--d", "0", "--m", "1",
                         "--out", str(out)]) == 2
        assert not out.exists()
    empty = np.zeros((0, 0), dtype=complex)
    path = tmp_path / "n0.json"
    cli.save_instance(cli.InstanceFile("isometric", empty, empty, np.eye(1), 1j,
                                       {"form": "constant", "value": []}, 0), path)
    with pytest.raises(cli.ParseError, match="^ambient_dim:"):
        cli.load_instance(path)
    assert cli.main(["verify", str(path)]) == 2
    assert "ambient_dim" in capsys.readouterr().err


def test_gap_grid_must_be_positive(tmp_path, capsys):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 4, 2, 2, seed=4), path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["gap", str(path), "--region", "0.5", "2.5", "--grid", "0"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    with pytest.raises(ValueError, match="grid count"):
        g.ArcSpec("circle", 0.5, 2.5).grid(0)


def test_non_finite_tolerance_rejected(tmp_path):
    for field in ("abs_floor", "rank_rel"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                g.TolPolicy(**{field: value})
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance("isometric", 4, 2, 2, seed=4), path)
    assert cli.main(["--rank-rel", "nan", "verify", str(path)]) == 2


def test_gen_command_writes_the_generated_instance(tmp_path, capsys):
    for kind in ("isometric", "symmetric"):
        out, ref = tmp_path / f"{kind}.json", tmp_path / f"{kind}-ref.json"
        assert cli.main(["gen", "--kind", kind, "--n", "4", "--d", "2", "--m", "2",
                         "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {kind} instance n=4 d=2 m=2 to {out}\n"
        cli.save_instance(cli.generate_instance(kind, 4, 2, 2, 7), ref)
        assert out.read_bytes() == ref.read_bytes()


def test_resolvent_command_on_the_circle(tmp_path):
    path, out = tmp_path / "iso.json", tmp_path / "resolvent.txt"
    inst = cli.generate_instance("isometric", 3, 1, 2, seed=6)
    cli.save_instance(inst, path)
    assert cli.main(["resolvent", str(path), "--grid", "10", "--out", str(out)]) == 0
    r = g.ResolventModel.from_dilation(inst.model())
    rows = [line.split("\t") for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 10
    points = []
    for row in rows:
        points.append(complex(float(row[0]), float(row[1])))
        cells = [complex(*(float(x) for x in cell.split(","))) for cell in row[2:]]
        np.testing.assert_allclose(np.reshape(cells, (3, 3)), r(points[-1]),
                                   rtol=1e-11, atol=1e-12)
    assert {round(abs(p), 9) for p in points} == {0.2, 0.5, 0.8, 1.25, 2.0}


def test_verify_fails_without_the_block_a_suite_reads(tmp_path, capsys):
    path = tmp_path / "inst.json"
    for kind, suite, field, check in (("symmetric", "limits", "exit", "limits-model-present"),
                                      ("symmetric", "gap", "parameter", "gap-parameter-present"),
                                      ("isometric", "gap", "parameter", "gap-parameter-present")):
        obj = cli.generate_instance(kind, 3, 1, 2, seed=5).to_json()
        path.write_text(json.dumps({**obj, field: None}), encoding="utf-8")
        assert cli.main(["verify", str(path), "--suite", suite]) == 1
        assert f"[FAIL] {check}" in capsys.readouterr().out


def test_exit_dim_is_read_only_with_a_block(tmp_path, monkeypatch):
    # InstanceFile.exit_dim has no value without an exit block: loading,
    # saving and every command on a file without one never read it
    read = cli.InstanceFile.exit_dim.fget

    def with_block(inst):
        assert inst.exit_block is not None, "exit_dim read without an exit block"
        return read(inst)

    monkeypatch.setattr(cli.InstanceFile, "exit_dim", property(with_block))
    path = tmp_path / "inst.json"
    for kind in ("isometric", "symmetric"):
        obj = cli.generate_instance(kind, 3, 1, 2, seed=5).to_json()
        path.write_text(json.dumps({**obj, "exit": None}), encoding="utf-8")
        inst = cli.load_instance(path)
        assert inst.model() is None and inst.to_json()["exit"] is None
        cli.save_instance(inst, tmp_path / "saved.json")
        region = ["0.3", "2.5"] if kind == "isometric" else ["-1.5", "1.5"]
        for argv in (["verify", str(path)], ["verify", str(path), "--suite", "gap"],
                     ["verify", str(path), "--suite", "limits"], ["resolvent", str(path)],
                     ["spectrum", str(path)], ["gap", str(path), "--region", *region]):
            assert cli.main(argv) in (0, 1, 2)


def test_module_entry_runs_main(tmp_path, monkeypatch, capsys):
    out = tmp_path / "inst.json"
    monkeypatch.setattr(sys, "argv", ["gresolv", "gen", "--kind", "isometric", "--n", "2",
                                      "--d", "1", "--out", str(out)])
    monkeypatch.delitem(sys.modules, "gresolv.cli")
    with pytest.raises(SystemExit) as done:
        runpy.run_module("gresolv.cli", run_name="__main__")
    assert done.value.code == 0 and out.exists()
    assert "wrote isometric instance n=2 d=1 m=1" in capsys.readouterr().out


def test_verify_gap_suite_with_a_single_atom(tmp_path):
    # on the circle the atom-free arc starts past the atom and is clamped below 2 pi
    for kind, atom in (("isometric", 0.679), ("symmetric", 0.352)):
        path = tmp_path / f"{kind}.json"
        inst = cli.generate_instance(kind, 1, 0, 1, seed=1)
        cli.save_instance(inst, path)
        atoms = g.spectral.in_space_atoms(inst.operator, inst.parameter_family(),
                                          inst.parameter_anchor())
        np.testing.assert_allclose(atoms.locations(), [atom], atol=1e-3)
        assert cli.main(["verify", str(path), "--suite", "gap"]) == 0


def test_gap_next_to_an_atom_reports_both_sides(tmp_path, capsys):
    # a region starting just above the first atom: the margin there is below
    # the gate, no atom lies in the region, and the report prints both facts
    for kind, offset, margin in (("isometric", 1e-9, "2.814849e-09"),
                                 ("symmetric", 1e-7, "4.220507e-10")):
        path = tmp_path / f"{kind}.json"
        inst = cli.generate_instance(kind, 4, 2, 1, seed=3)
        cli.save_instance(inst, path)
        atoms = g.spectral.in_space_atoms(inst.operator, inst.parameter_family(),
                                          inst.parameter_anchor())
        lo = atoms.atoms[0][0] + offset
        assert cli.main(["gap", str(path), "--region", repr(lo), repr(lo + 0.5),
                         "--grid", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "verdict: not analytic"
        assert lines[2] == f"refined min margin: {margin}"
        assert lines[3] == "atoms in region: none"


def _gap_file(tmp_path, kind="isometric"):
    path = tmp_path / f"{kind}.json"
    cli.save_instance(cli.generate_instance(kind, 4, 2, 1, seed=3), path)
    return path


def _edited_file(tmp_path, **fields):
    path = _gap_file(tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}), encoding="utf-8")
    return path


def _file_without(tmp_path, field):
    path = _gap_file(tmp_path)
    obj = json.loads(path.read_text())
    del obj[field]
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


#: a constant parameter of the n = 4, d = 2 file whose value, half the
#: identity, is no unitary, so it has no in-space extension
_HALF = {"form": "constant", "value": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
         "z0": [0.0, 0.0]}


#: command lines that reach a raise of the input checks, each with the message
#: its exit 2 prints; each command line is built in the test's temporary directory
REJECTED = {
    "region-non-finite": (lambda tmp: ["gap", str(_gap_file(tmp)), "--region", "0", "inf"],
                          "region (0.0, inf) has a non-finite bound"),
    "region-nan": (lambda tmp: ["gap", str(_gap_file(tmp, "symmetric")), "--region", "nan", "1"],
                   "region (nan, 1.0) has a non-finite bound"),
    "region-empty": (lambda tmp: ["gap", str(_gap_file(tmp)), "--region", "2", "1"],
                     "region must be nonempty"),
    "arc-past-2pi": (lambda tmp: ["gap", str(_gap_file(tmp)), "--region", "0", "7"],
                     "circle arcs are specified with 0 <= lo < hi < 2pi"),
    "unknown-kind": (lambda tmp: ["verify", str(_edited_file(tmp, kind="foo"))],
                     "unknown instance kind 'foo'"),
    "gen-out-missing-dir": (lambda tmp: ["gen", "--kind", "isometric", "--n", "2", "--d", "1",
                                         "--out", str(tmp / "missing" / "inst.json")],
                            "No such file or directory"),
    "verify-out-missing-dir": (lambda tmp: ["verify", str(_gap_file(tmp)), "--suite", "gap",
                                            "--out", str(tmp / "missing" / "report.json")],
                               "No such file or directory"),
    "spectrum-without-exit": (lambda tmp: ["spectrum", str(_edited_file(tmp, exit=None))],
                              "instance carries no exit block"),
    "missing-field": (lambda tmp: ["verify", str(_file_without(tmp, "domain_basis"))],
                      "missing instance field 'domain_basis'"),
    "matrix-not-rows": (lambda tmp: ["verify", str(_edited_file(tmp, domain_basis=5))],
                        "bad domain_basis encoding"),
    "gen-negative-exit": (lambda tmp: ["gen", "--kind", "isometric", "--n", "2", "--d", "1",
                                       "--m", "-1", "--out", str(tmp / "inst.json")],
                          "exit dimension must be nonnegative"),
    "gap-without-parameter": (lambda tmp: ["gap", str(_edited_file(tmp, parameter=None)),
                                           "--region", "0.3", "2.5"],
                              "gap reports need a parameter block in the instance"),
    "gap-suite-contraction": (lambda tmp: ["verify", str(_edited_file(tmp, parameter=_HALF)),
                                           "--suite", "gap"],
                              "gap checks need a unitary parameter with an in-space extension"),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejected_input_exits_2_with_its_message(tmp_path, capsys, case):
    argv, message = REJECTED[case]
    assert cli.main(argv(tmp_path)) == 2
    assert message in capsys.readouterr().err


#: a sample of the grid kind x n in {1, 2, 4, 8, 16} x d in {0, n/2, n - 1, n}
#: x m in {0, 1, 4, 8, 16}: every (kind, n, d) twice, with two exit sizes and
#: seeds 1 and 2
SWEEP = [(kind, n, d, (0, 1, 4, 8, 16)[(i + 2 * j) % 5], 1 + j)
         for i, (kind, n, d) in enumerate(
             (kind, n, d) for kind in ("isometric", "symmetric") for n in (1, 2, 4, 8, 16)
             for d in sorted({0, n // 2, n - 1, n}))
         for j in (0, 1)]
#: symmetric files whose boundary limits start before the asymptotic regime on
#: the unscaled ray 10 ... 1e6, and failed `limits` there
SWEEP += [("symmetric", 16, 15, 1, 1493746996), ("symmetric", 4, 3, 1, 2074306116),
          ("symmetric", 1, 0, 8, 1943781588), ("symmetric", 4, 3, 1, 1069842143)]


@pytest.mark.parametrize("kind, n, d, m, seed", SWEEP,
                         ids=[f"{k}-n{n}-d{d}-m{m}-s{s}" for k, n, d, m, s in SWEEP])
def test_verify_all_passes_on_generated_files(tmp_path, capsys, kind, n, d, m, seed):
    path = tmp_path / "inst.json"
    cli.save_instance(cli.generate_instance(kind, n, d, m, seed), path)
    code = cli.main(["verify", str(path), "--suite", "all"])
    assert code == 0, capsys.readouterr().out
