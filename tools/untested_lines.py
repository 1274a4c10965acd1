"""Print the lines of ``src/gresolv/`` that no test runs.

    python tools/untested_lines.py [PYTEST_ARGS ...]

pytest runs in this process, with the arguments given (the whole suite when
there are none), under a ``sys.settrace`` line tracer limited to the package's
own files; ``coverage`` is not needed.  A line counts as executable when a code
object compiled from the module's source gives it instructions (``co_lines``),
so the module's top-level lines, definitions included, count too; the package
is imported under the tracer for that reason.  Per module, the tool prints the
number of executable lines and the ranges of those that no test ran.  The
exit code is pytest's.  The tracer adds about a third to the suite's run time.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "gresolv"


def executable_lines(path: Path) -> set[int]:
    """Lines that hold instructions of any code object compiled from ``path``."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, ``3-5, 9``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(pytest_args) -> tuple[int, dict]:
    """pytest's exit code, and the lines run per package file path."""
    files = {str(path) for path in PKG.glob("*.py")}
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if any(name == "gresolv" or name.startswith("gresolv.") for name in sys.modules):
        raise RuntimeError("gresolv was imported before the tracer started")
    import pytest

    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
    imported = sys.modules.get("gresolv")
    if imported is not None and Path(imported.__file__).resolve().parent != PKG:
        raise RuntimeError(f"tests imported gresolv from {imported.__file__}, not from {PKG}")
    return int(code), hits


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, hits = run_traced(args or [str(ROOT / "tests")])
    print(f"untested lines of {PKG.relative_to(ROOT)}/ (executable lines per module)")
    total = missed = 0
    for path in sorted(PKG.glob("*.py")):
        lines = executable_lines(path)
        untested = lines - hits[str(path)]
        total, missed = total + len(lines), missed + len(untested)
        print(f"{path.name}: {len(untested)} of {len(lines)}"
              + (f": {_ranges(untested)}" if untested else ""))
    print(f"total: {missed} of {total}")
    return code


if __name__ == "__main__":
    sys.exit(main())
