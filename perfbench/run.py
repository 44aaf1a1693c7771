"""Benchmark of the dirac_soliton package.

    python3 perfbench/run.py --workload evolve_n64 --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process (worker.py), one after
another, with the BLAS and OpenMP thread caps pinned in the child's
environment. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones (setup_s, run_s, peak_rss_mb); with --trace 1
they are the per-layer ones. With --workload all every metric name is
prefixed by its workload's name.

The package is built from the ``src`` directory beside this benchmark;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("evolve_n64", "scatter_n32", "spectral_sweep")
# One thread per library: timings stay steady on a small shared machine
# and reductions stay bit-identical between reruns.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process and return its result."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    cmd = [sys.executable, str(WORKER), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        setup_s = result["setup_end_monotonic"] - start
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
    return result


def _report(name: str, result: dict) -> None:
    failing = [k for k, (_, _, ok) in result["checks"].items() if not ok]
    rounds = ", ".join(f"{r:.3f}" for r in result["rounds"])
    print(f"{name}: rounds [{rounds}] s, {result['attempted']} operations, "
          f"{result['failed']} failed, reruns identical: "
          f"{result['reruns_identical']}", file=sys.stderr)
    for check, (value, bound, ok) in result["checks"].items():
        print(f"  {'ok  ' if ok else 'FAIL'} {check}: {value:.3e} "
              f"(bound {bound:.1e})", file=sys.stderr)
    if failing:
        print(f"{name}: failing checks: {', '.join(failing)}",
              file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dirac_soliton benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "dirac_soliton" / "__init__.py").is_file():
        print(f"package source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    print(f"thread caps: {THREADS} ({', '.join(THREAD_VARS)}); "
          f"nproc {os.cpu_count()}", file=sys.stderr)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _report(name, result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            summary["metrics"][prefix + metric] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
