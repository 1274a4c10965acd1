"""Source scan: the structural tests are written once, in ``numkernel``.

Any other module under ``src/gresolv/`` that spells out a Gram-minus-identity
test or the contraction slack by hand fails here; it should call
``is_isometric``/``is_unitary`` or ``check_contraction`` instead.  So does a
line that compares an ``op_norm``: a gate on a spectral norm is decided by
``_norm_within``, and ``op_norm`` outside ``numkernel`` only words a failure
or gives a value that is printed or stored."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gresolv"

HAND_WRITTEN = (re.compile(r"\.conj\(\)\.T @ .*- np\.eye\("), re.compile(r"1\.0 \+ 1e-10"),
                re.compile(r"op_norm\(.*(?<!-)[<>]|(?<!-)[<>].*op_norm\("))


def test_structural_tests_are_not_written_by_hand():
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "numkernel.py"
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if any(pattern.search(line) for pattern in HAND_WRITTEN)]
    assert found == [], f"hand-written structural tests: {found}"
