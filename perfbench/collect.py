"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/collect.py --workloads oracle-iso oracle-sym verify-cli \
        --seeds 10 --trace 0 --save perfbench/out/steady.json

Runs ``perfbench/run.py`` once per (workload, seed) for seeds 1..``--seeds``,
one run at a time, with the run length ``run_seconds`` from ``BENCHMARK.json``.  For every metric it reports the
median and the quartiles (``statistics.quantiles(values, n=4)``) of the
per-run values, and the quartile spread as a share of the median against the
metric's bound.  ``--save`` writes the summary and every run's metrics as
JSON; ``perfbench/baseline.json`` is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCH["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["log"] = [line for line in lines[:-1] if line.split(":", 1)[0] in
                     ("env", "setup", "timed", "drift", "traced", "checks")]
    return result


def summarise(runs: list, declared: dict) -> dict:
    summary = {}
    for name, spec in declared.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        summary[name] = {
            "unit": spec["unit"], "runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": spec.get("bound"),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)

    mode = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in BENCH[mode]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, args.trace)
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: wall {result['wall_s']:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}; "
                  + "; ".join(result["log"][1:3]), flush=True)
        summary = summarise(runs, declared)
        report[workload] = {
            "env": runs[0]["log"][0],
            "summary": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"], "log": r["log"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for r in runs],
        }
        print(f"== {workload}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} ops")
        for name, s in summary.items():
            bound = s["bound"]
            verdict = "" if bound is None else \
                (" ok" if s["spread"] < bound / 3 else " WITHIN BOUND" if s["spread"] <= bound
                 else " OVER BOUND")
            print(f"  {name:48s} median {s['median']:.6g} {s['unit']} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.3f}"
                  + ("" if bound is None else f" (bound {bound})") + verdict, flush=True)
    if args.save:
        # one file holds both modes; a save replaces only its own mode's workloads
        saved = json.loads(args.save.read_text(encoding="utf-8")) if args.save.exists() else {}
        saved.setdefault(mode, {"workloads": {}})["run_seconds"] = RUN_SECONDS
        saved[mode]["workloads"].update(report)
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
