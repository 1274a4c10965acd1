"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle-iso --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process; the next op starts
when the previous one returns, as in an acceptance loop or a ``gresolv
verify`` call that waits for its verdict.  BLAS runs on one thread.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates an untraced and a traced pass over the same ops, and reports the
per-layer metrics of the traced passes and the traced-to-untraced wall-time
ratio.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the workload's instance mix and the checks.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads it
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3


def load_library() -> float:
    """Import numpy and gresolv from the checkout's ``src``; return seconds since start."""
    if not (ROOT / "src" / "gresolv" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gresolv sources under {ROOT / 'src'}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import numpy  # noqa: F401
    import gresolv.cli  # noqa: F401
    return time.perf_counter() - _T0


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Tally:
    """Every op's verdict: nothing is dropped from ``attempted`` or ``failed``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_residual = 0.0
        self.first_error = None

    def run(self, workload, inst) -> None:
        self.attempted += 1
        try:
            result = workload.run_op(inst)
        except Exception:  # an op that raises is a failed op; the loop goes on
            self.failed += 1
            self.first_error = self.first_error or traceback.format_exc()
            return
        if not result.ok:
            self.failed += 1
            self.first_error = self.first_error or f"check failed (residual {result.residual:.3e})"
        if not result.residual <= self.worst_residual:
            self.worst_residual = result.residual


def _setup(workload, seed: int, directory: Path, pool_size: int, tally: Tally):
    """Build the instance pool and run the warm-up ops, ``SETUP_REPEATS`` times;
    return the pool and the median time of one repetition."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = workload.build(seed, directory, pool_size)
        for inst in pool[:workload.warmup_ops]:
            tally.run(workload, inst)
        times.append(time.perf_counter() - start)
    return pool, statistics.median(times)


def _timed_window(workload, pool, seconds: float, tally: Tally):
    """Closed loop over the pool until ``seconds`` have passed; per-op latencies."""
    latencies, shapes = [], []
    start = time.perf_counter()
    i = 0
    while True:
        inst = pool[i % len(pool)]
        i += 1
        t0 = time.perf_counter()
        tally.run(workload, inst)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        shapes.append(inst.shape)
        if t1 - start >= seconds:
            return latencies, shapes, t1 - start


def _traced_passes(workload, pool, seconds: float, tally: Tally, tracer):
    """Alternate untraced and traced passes over the same ops until ``seconds``
    have passed (at least one pair); return traced ops, untraced and traced time."""
    subset = pool[:workload.trace_ops]
    plain = traced = 0.0
    ops = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for inst in subset:
            tally.run(workload, inst)
        t1 = time.perf_counter()
        with tracer.active():
            t2 = time.perf_counter()
            for inst in subset:
                with tracer.op_span(ops):
                    tally.run(workload, inst)
                ops += 1
            t3 = time.perf_counter()
        plain += t1 - t0
        traced += t3 - t2
        elapsed = time.perf_counter() - start
        if elapsed + (t1 - t0) + (t3 - t2) > seconds:
            return ops, plain, traced, [inst.shape for inst in subset]


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        pool_size: int | None = None, out=sys.stdout) -> dict:
    """Run one workload and return the result object (also printed as the last line)."""
    import_s = load_library()
    import numpy as np
    from perfbench import instances, spans
    from perfbench.workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise LookupError(f"unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload.name]
    pool_size = pool_size or workload.pool_size

    def say(text: str) -> None:
        print(text, file=out, flush=True)

    say(f"perfbench: workload={workload.name} seed={seed} seconds={seconds} trace={int(trace)}")
    say("env: " + json.dumps(environment(seed), sort_keys=True))
    say(f"why: {why}")
    say("load: closed loop, 1 client, 1 process; each op starts when the previous returns")
    directory = OUT_DIR / f"instances-{workload.name}-{os.getpid()}"
    tally = Tally()
    try:
        pool, prepare_s = _setup(workload, seed, directory, pool_size, tally)
        setup_s = import_s + prepare_s
        say(f"setup: imports {import_s:.3f} s + {prepare_s:.3f} s to build {len(pool)} "
            f"instances and run {min(workload.warmup_ops, len(pool))} warm-up ops "
            f"(median of {SETUP_REPEATS}) = {setup_s:.3f} s")

        if trace:
            tracer = spans.Tracer()
            ops, plain_s, traced_s, shapes = _traced_passes(workload, pool, seconds,
                                                            tally, tracer)
            metrics = tracer.layer_metrics(ops)
            metrics["trace_overhead_ratio"] = traced_s / plain_s
            metrics["resolvents.worst_residual"] = tally.worst_residual
            trace_path = OUT_DIR / f"trace-{workload.name}.npz"
            tracer.write(trace_path)
            say(f"traced: {ops} ops in {ops // len(shapes)} passes of {len(shapes)}; "
                f"{len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}; "
                f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
            say("waiting: not applicable; one thread, no queues, so no op waits for another")
            idle = sorted(name for name, value in metrics.items() if value == 0.0)
            if idle:
                say("not run on this workload, reported as 0: " + ", ".join(idle))
        else:
            latencies, shapes, window_s = _timed_window(workload, pool, seconds, tally)
            n = len(latencies)
            half = n // 2
            p50, p90 = np.percentile(latencies, [50, 90])
            metrics = {
                "ops_per_s": n / window_s,
                "latency_p50_ms": 1e3 * float(p50),
                "latency_p90_ms": 1e3 * float(p90),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            say(f"timed: {n} ops in {window_s:.3f} s; latency samples {n}, "
                f"{n - math.ceil(0.9 * n)} beyond p90")
            if half:
                say(f"drift: p50 {1e3 * np.median(latencies[:half]):.3f} ms in the first "
                    f"half of the window, {1e3 * np.median(latencies[half:]):.3f} ms "
                    f"in the second")
        say(f"ops: {len(shapes)}; (n,d,m) histogram: "
            + json.dumps(instances.shape_histogram(shapes)))
        say(f"checks: {tally.attempted} ops checked, {tally.failed} failed, error_rate "
            f"{tally.failed / tally.attempted:.6g}; worst formula-vs-oracle residual "
            f"{tally.worst_residual:.3e} (informational; each op is gated at 1e-9)")
        if tally.first_error:
            say("first failure: " + tally.first_error.strip().replace("\n", "\n  "))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    say(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError, LookupError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
