"""Smoke test of ``tools/untested_lines.py`` on one test module."""

import re
import subprocess
import sys
from pathlib import Path

from tools import untested_lines

ROOT = Path(__file__).resolve().parents[1]


def test_ranges_join_runs_of_lines():
    assert untested_lines._ranges([10, 9, 3, 1, 2, 7]) == "1-3, 7, 9-10"


def test_reports_every_module_of_a_traced_run():
    done = subprocess.run(
        [sys.executable, "tools/untested_lines.py", "-q", "-p", "no:cacheprovider",
         "tests/test_numkernel.py"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    counts = dict((m.group(1), (int(m.group(2)), int(m.group(3)))) for m in re.finditer(
        r"^(\w+\.py): (\d+) of (\d+)", done.stdout, re.MULTILINE))
    assert set(counts) == {path.name for path in untested_lines.PKG.glob("*.py")}
    for name, (untested, total) in counts.items():
        assert total == len(untested_lines.executable_lines(untested_lines.PKG / name))
    missed, total = counts["numkernel.py"]
    assert 0 < missed < total / 2
