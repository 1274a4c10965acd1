"""The tolerance policy in force: ``tolerance(policy)`` sets it for a block,
every rank decision reads it when it is made, and the CLI flags set it for
one command."""

import pytest

import gresolv as g
from gresolv import cli, operators
from gresolv.fixtures import flip_dilation_isometric
from gresolv.numkernel import DEFAULT_TOL, _policy

LOOSE = g.TolPolicy(abs_floor=1e-5)


def test_tolerance_restores_the_previous_policy():
    assert _policy() == DEFAULT_TOL
    with g.tolerance(LOOSE):
        assert _policy() is LOOSE
        inner = g.TolPolicy(abs_floor=0.0, rank_rel=1e-8)
        with g.tolerance(inner):
            assert _policy() is inner
        assert _policy() is LOOSE
    assert _policy() == DEFAULT_TOL
    with pytest.raises(g.SingularSystem):
        with g.tolerance(LOOSE):
            raise g.SingularSystem(0.5, 0.0)
    assert _policy() == DEFAULT_TOL


def test_cli_restores_the_default_policy(tmp_path):
    path = tmp_path / "inst.json"
    flags = ["--abs-floor", "1e-9"]
    assert cli.main(flags + ["gen", "--kind", "isometric", "--n", "3", "--d", "1",
                             "--out", str(path)]) == 0
    assert _policy() == DEFAULT_TOL
    assert cli.main(flags + ["verify", str(path), "--suite", "gap"]) == 0
    assert _policy() == DEFAULT_TOL
    path.write_text("{}", encoding="utf-8")
    assert cli.main(flags + ["verify", str(path)]) == 2
    assert _policy() == DEFAULT_TOL
    with pytest.raises(SystemExit):
        cli.main(flags + ["verify", str(path), "--no-such-flag"])
    assert _policy() == DEFAULT_TOL


def test_evaluation_reads_the_policy_in_force():
    # E - zeta U of the flip dilation has singular values |1 - zeta| and |1 + zeta|
    _, model = flip_dilation_isometric()
    oracle = g.ResolventModel.from_dilation(model)
    near = 1.0 - 1e-6
    oracle(near)
    oracle.at([near, 0.5])
    with g.tolerance(LOOSE):
        with pytest.raises(g.SingularSystem):
            oracle(near)
        with pytest.raises(g.SingularSystem):
            oracle.at([0.5, near])
    oracle(near)


def test_gen_follows_the_tolerance_flags(tmp_path, monkeypatch):
    argv = ["gen", "--kind", "symmetric", "--n", "4", "--d", "2", "--m", "2", "--seed", "3"]
    plain = tmp_path / "plain.json"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    library = tmp_path / "library.json"
    cli.save_instance(cli.generate_instance("symmetric", 4, 2, 2, 3), library)
    assert plain.read_bytes() == library.read_bytes()

    seen = []
    real = operators.defect_subspaces

    def spy(op, point):
        seen.append(_policy())
        return real(op, point)

    monkeypatch.setattr(operators, "defect_subspaces", spy)
    assert cli.main(["--abs-floor", "1e-9"] + argv + ["--out", str(tmp_path / "loose.json")]) == 0
    assert seen and all(policy == g.TolPolicy(abs_floor=1e-9) for policy in seen)
