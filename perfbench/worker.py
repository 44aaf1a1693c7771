"""Runs one workload in this process and prints its result as one JSON line.

run.py starts this script in a child process with the BLAS and OpenMP
thread caps already in the environment, so that they hold before numpy
loads. The package is imported from the ``src`` directory next to this
benchmark, never from an installed copy.

With ``--trace 0`` every round runs untraced. With ``--trace 1`` untraced
and traced rounds alternate, and the per-layer metrics come from the
traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _import_package():
    if not (SOURCE / "dirac_soliton" / "__init__.py").is_file():
        raise SystemExit(f"package source not found under {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import dirac_soliton

    where = Path(dirac_soliton.__file__).resolve()
    if SOURCE.resolve() not in where.parents:
        raise SystemExit(f"dirac_soliton was imported from {where}, "
                         f"not from {SOURCE}")


def _measure(wl, inputs, seconds, tracer, work):
    """Run whole rounds until the next one would end past the budget
    (at least one round; with a tracer, at least one of each kind)."""
    rounds = []           # (traced, seconds, extras, digest)
    attempted = failed = 0
    result = round_dir = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if round_dir is not None:
            shutil.rmtree(round_dir)
        result = None
        round_dir = work / f"round-{k}"
        round_dir.mkdir()
        context = tracer.recording(f"round-{k}") if traced else nullcontext()
        t0 = time.perf_counter()
        with context:
            result = wl.run_round(inputs, round_dir)
        duration = time.perf_counter() - t0
        n_attempted, n_failed = wl.operations(inputs, result)
        attempted += n_attempted
        failed += n_failed
        rounds.append((traced, duration,
                       wl.extras(inputs, result, round_dir),
                       wl.digest(result)))
        k += 1
        elapsed = time.perf_counter() - start
        longest = max(r[1] for r in rounds)
        kinds = {r[0] for r in rounds}
        if elapsed + longest > seconds and (tracer is None or len(kinds) == 2):
            return rounds, attempted, failed, result, round_dir


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    _import_package()
    from perfbench import tracer as tracing
    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    with tracer.recording("setup") if tracer else nullcontext():
        inputs = wl.setup(args.seed)
    setup_end = time.monotonic()

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        rounds, attempted, failed, result, round_dir = _measure(
            wl, inputs, args.seconds, tracer, work)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        checks = wl.check(inputs, result, round_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reruns_identical = len({r[3] for r in rounds}) == 1
    correct = reruns_identical and all(c.ok for c in checks.values())
    plain = [r[1] for r in rounds if not r[0]]
    if tracer is None:
        metrics = {
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        }
    else:
        traced = [(k, r) for k, r in enumerate(rounds) if r[0]]
        per_round = [tracing.layer_metrics(tracer.spans,
                                           {"setup", f"round-{k}"}, r[2])
                     for k, r in traced]
        metrics = {name: {"value": statistics.median(m[name]
                                                     for m in per_round),
                          "unit": tracing.UNITS[name]}
                   for name in per_round[0]}
        overhead = (statistics.median(r[1] for _, r in traced)
                    - statistics.median(plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": [[k, r[0], r[1]]
                                 for k, r in enumerate(rounds)]})

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_end_monotonic": setup_end,
        "rounds": [r[1] for r in rounds],
        "reruns_identical": reruns_identical,
        "checks": {name: [c.value, c.bound, c.ok]
                   for name, c in checks.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
