"""The narrative demos run to completion."""

import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_run_to_completion(capsys):
    assert DEMOS
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out, f"{demo.name} printed nothing"
