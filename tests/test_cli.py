"""Instance file round trips, report determinism, command exit codes."""

import json

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
    inst = cli.InstanceFile("isometric", 1, v.dom.basis, v.ran_basis, 1,
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
    inst = cli.InstanceFile("symmetric", 1, a.dom.basis, a.action, 1,
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
    inst = cli.InstanceFile("isometric", 2, v.dom.basis, v.ran_basis, 0, None, 1j, param, 0)
    inst.exit_block = None
    path = tmp_path / "i4.json"
    cli.save_instance(inst, path)
    out = tmp_path / "gap.txt"
    assert cli.main(["gap", str(path), "--region", str(np.pi / 4), str(3 * np.pi / 4),
                     "--grid", "16", "--out", str(out)]) == 0
    text = out.read_text()
    assert "not analytic" in text
    assert "1.5707963" in text


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
    real = g.operators.defect_subspaces

    def spy(op, point, tol=g.DEFAULT_TOL):
        seen.append(tol)
        return real(op, point, tol)

    for module in (g.operators, g.extensions, g.resolvents, g.spectral, cli):
        if hasattr(module, "defect_subspaces"):
            monkeypatch.setattr(module, "defect_subspaces", spy)
    policy = g.TolPolicy(abs_floor=1e-9)
    for path in paths:
        cli.main(["--abs-floor", "1e-9", "verify", str(path), "--suite", "all"])
    assert seen and all(tol == policy for tol in seen)


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
