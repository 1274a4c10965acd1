"""Compare two ``output_snapshot.py`` directories, number by number.

    python tools/snapshot_diff.py OLD NEW

Prints every differing line pair, then the largest relative and absolute
move of the numbers per line kind.  A number here is a float or complex
literal (``3.104e-15``, ``0.2928455155774876``, ``0.93-0.36j``, ``inf``);
integers are read as words, so an exit code, a count or a dimension that
changes is a non-numeric change.  A line kind is the line with its numbers
blanked, prefixed with the output it comes from (``gap.txt``, ``report``,
a demo) and, in a JSON report, with the name of the check it belongs to.

Exits 0 when only numbers moved, and 1 when any other token differs (a
verdict, pass/FAIL, an exit code, a check name), when a file is present on
one side only, or when two files differ in their number of lines.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_FLOAT = r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
#: a complex literal, a float or a non-finite value, not glued to a word
_NUMBER = re.compile(
    rf"(?<![\w.])(?:{_FLOAT}(?:[-+]{_FLOAT})?j|{_FLOAT}|[-+]?(?:inf|nan))(?![\w.])")
_CHECK_NAME = re.compile(r'^\s*"name": "(.*)",?$')


def _is_measurement(token: str) -> bool:
    return not token.lstrip("+-").isdigit()


def _split(line: str) -> tuple[str, list[complex]]:
    """The line with its measurements blanked to ``#``, and the measurements."""
    values = []

    def blank(match: re.Match) -> str:
        token = match.group(0)
        if not _is_measurement(token):
            return token
        values.append(complex(token))
        return "#"
    return _NUMBER.sub(blank, line), values


def _output_of(name: str) -> str:
    """The command or demo a snapshot file holds the output of."""
    return name.split(".json.", 1)[1] if ".json." in name else name


def compare(old_dir: Path, new_dir: Path, out=sys.stdout) -> bool:
    """Print the differences of two snapshot directories; True when only
    measurements moved."""
    numeric_only = True
    moves: dict[str, list] = {}  # kind -> [lines, largest relative, largest absolute]
    old_names = {p.name for p in old_dir.iterdir() if p.is_file()}
    new_names = {p.name for p in new_dir.iterdir() if p.is_file()}
    for name in sorted(old_names ^ new_names):
        print(f"NON-NUMERIC {name}: only in {old_dir if name in old_names else new_dir}",
              file=out)
        numeric_only = False
    for name in sorted(old_names & new_names):
        old = (old_dir / name).read_text(encoding="utf-8").splitlines()
        new = (new_dir / name).read_text(encoding="utf-8").splitlines()
        if len(old) != len(new):
            print(f"NON-NUMERIC {name}: {len(old)} lines against {len(new)}", file=out)
            numeric_only = False
            continue
        check = ""
        for number, (a, b) in enumerate(zip(old, new), 1):
            named = _CHECK_NAME.match(a)
            check = named.group(1) if named else check
            if a == b:
                continue
            (skel_a, vals_a), (skel_b, vals_b) = _split(a), _split(b)
            same = skel_a == skel_b
            numeric_only &= same
            print(f"{'' if same else 'NON-NUMERIC '}{name}:{number}\n- {a}\n+ {b}", file=out)
            if not same:
                continue
            kind = " | ".join(filter(None, (_output_of(name), check, " ".join(skel_a.split()))))
            entry = moves.setdefault(kind, [0, 0.0, 0.0])
            entry[0] += 1
            for x, y in zip(vals_a, vals_b):
                if x == y:
                    continue
                gap = abs(x - y)
                entry[1] = max(entry[1], gap / max(abs(x), abs(y)))
                entry[2] = max(entry[2], gap)
    if moves:
        print("\nlargest moves per line kind (lines, relative, absolute):", file=out)
        for kind, (lines, rel, absolute) in sorted(moves.items()):
            print(f"{lines:5d}  {rel:.2e}  {absolute:.2e}  {kind}", file=out)
    print("only numbers moved" if numeric_only else "NON-NUMERIC differences found", file=out)
    return numeric_only


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return 0 if compare(Path(argv[0]), Path(argv[1])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
