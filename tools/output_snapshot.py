"""Snapshot the CLI and demo outputs of one checkout, for byte-identity checks.

Run it with the checkout's ``src`` on ``PYTHONPATH``, as a relative or an
absolute path; the demos are taken from the same checkout as the imported
package and run with its ``src`` on ``PYTHONPATH`` as an absolute path:

    PYTHONPATH=src python tools/output_snapshot.py OUTDIR

OUTDIR receives every generated instance file, one ``<file>.<command>.txt``
per command (exit code, stdout and stderr), the ``verify --out`` reports and
one ``demo-<name>.txt`` per demo.  Two checkouts give the same outputs exactly
when ``diff -r`` of their snapshots prints nothing.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import traceback
from pathlib import Path

import gresolv
from gresolv import cli

#: (kind, n, d, m, seed) of every instance file the commands run on
FILES = [(kind, n, n // 2, 2, n) for kind in ("isometric", "symmetric") for n in (4, 8, 16)]
FILES += [(kind, n, d, m, n) for kind in ("isometric", "symmetric")
          for n, d, m in ((3, 1, 0), (5, 0, 1), (6, 3, 3))]
#: symmetric files whose boundary limits set in far out on the ray
FILES += [("symmetric", 16, 15, 1, 1493746996), ("symmetric", 4, 3, 1, 2074306116),
          ("symmetric", 1, 0, 8, 1943781588), ("symmetric", 4, 3, 1, 1069842143)]

REGIONS = {"isometric": ("0.3", "2.5"), "symmetric": ("-1.5", "1.5")}


def _run(argv: list[str]) -> str:
    """Exit code, stdout and stderr of ``gresolv`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error is an output too
            traceback.print_exc(limit=0)
            code = 1
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _commands(kind: str, name: str) -> dict[str, list[str]]:
    region = ["--region", *REGIONS[kind], "--grid", "16"]
    return {
        "verify": ["verify", name, "--suite", "all", "--out", f"{name}.report"],
        "resolvent": ["resolvent", name, "--grid", "6"],
        "spectrum": ["spectrum", name],
        "gap": ["gap", name, *region],
        "floor-verify": ["--abs-floor", "1e-9", "verify", name, "--suite", "all",
                         "--out", f"{name}.floor-report"],
        "floor-gap": ["--abs-floor", "1e-9", "gap", name, *region],
    }


def snapshot(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)  # relative names keep the printed paths the same everywhere
    for kind, n, d, m, seed in FILES:
        name = f"{kind}-n{n}-d{d}-m{m}-s{seed}.json"
        gen = ["gen", "--kind", kind, "--n", str(n), "--d", str(d), "--m", str(m),
               "--seed", str(seed), "--out", name]
        Path(f"{name}.gen.txt").write_text(_run(gen), encoding="utf-8")
        for label, argv in _commands(kind, name).items():
            Path(f"{name}.{label}.txt").write_text(_run(argv), encoding="utf-8")
    src = Path(gresolv.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for demo in sorted((src.parent / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
        Path(f"demo-{demo.stem}.txt").write_text(
            f"exit: {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}",
            encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: output_snapshot.py OUTDIR")
    snapshot(Path(sys.argv[1]).resolve())
