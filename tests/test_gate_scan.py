"""Source scan: the structural tests are written once, in ``numkernel``.

Any other module under ``src/gresolv/`` that spells out a Gram-minus-identity
test or the contraction slack by hand fails here; it should call
``is_isometric``/``is_unitary`` or ``check_contraction`` instead.  So does a
line that compares an ``op_norm``: a gate on a spectral norm is decided by
``_norm_within``, and ``op_norm`` outside ``numkernel`` only words a failure
or gives a value that is printed or stored.  So does a running maximum over
``op_norm``: the worst residual of a sample set is ``_worst_norm`` of its
residuals, which takes an SVD only where a Frobenius bound cannot rule a
sample out.  The one exemption is the boundedness probe's relative residual,
a maximum of ratios, each of which needs its own exact norm.

A contraction is decided by whatever makes the value: a ``ContractionParam``,
a ``BlockParam``, or the public entries ``neumann_extension`` and
``orthogonal_extension`` for raw input.  The private cores these call never
decide it again, nor check the value they build from it."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gresolv"

HAND_WRITTEN = (re.compile(r"\.conj\(\)\.T @ .*- np\.eye\("), re.compile(r"1\.0 \+ 1e-10"),
                re.compile(r"op_norm\(.*(?<!-)[<>]|(?<!-)[<>].*op_norm\("),
                re.compile(r"max\(\w+, nk\.op_norm\(|max\(map\(nk\.op_norm"))

#: (file, stripped line) of the lines the scan lets through
EXEMPT = {("spectral.py", "residual = max(residual, nk.op_norm(mean - val) / max(1.0, norm))")}


def test_structural_tests_are_not_written_by_hand():
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "numkernel.py"
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if any(pattern.search(line) for pattern in HAND_WRITTEN)
             and (path.name, line.strip()) not in EXEMPT]
    assert found == [], f"hand-written structural tests: {found}"


#: the functions outside ``numkernel`` that may call ``check_contraction``
DECIDERS = {"ContractionParam.__post_init__", "ContractionParam.__call__",
            "BlockParam.__post_init__", "neumann_extension", "orthogonal_extension"}


def _calls_by_function(tree, name):
    """Qualified names of the functions of a module that call ``name``."""
    scopes = [("", tree.body)] + [(f"{node.name}.", node.body)
                                  for node in tree.body if isinstance(node, ast.ClassDef)]
    return [f"{prefix}{fn.name}" for prefix, body in scopes
            for fn in body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == name]


def test_contractions_are_decided_by_what_makes_the_value():
    callers = [f"{path.name}:{fn}" for path in sorted(SRC.glob("*.py"))
               if path.name != "numkernel.py"
               for fn in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")),
                                            "check_contraction")]
    assert callers and {c.split(":")[1] for c in callers} <= DECIDERS, callers
