#!/usr/bin/env python3
"""Benchmark of the rtfdoa tracker.

    python3 perfbench/run.py --workload {sweep-static,moving-track,estimate-long}
        --seed N --seconds S --trace {0,1} [--quick]

Run from the root of a source checkout. Set-up runs ``prepare.py`` in a
fresh process several times and reports the median wall time. The timed
part is a closed loop: each round starts when the previous one returned,
until ``--seconds`` have passed (at least two rounds). The reference
kernel of ``speed.py`` runs between set-ups and between in-process
operations, and samples the core a child-process operation is pinned to
while it runs; each set-up time, and the throughput of each operation, is
scaled to the kernel's nominal speed before the medians are taken. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the first round
untraced, the rest with the timing hooks of ``tracing.py``, and reports
the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
SETUP_TIMEOUT_S = 120.0
# one BLAS thread per process: at the tracker's 4x4 and 5x5 matrices more
# threads gain nothing, and the other cores stay free for worker processes
BLAS_THREADS = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-static", "moving-track", "estimate-long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args, work: Path, kernel) -> tuple[list, list]:
    """Write the workload's inputs SETUP_REPEATS times; return the wall
    times and the reference-kernel times taken before, between and after."""
    from workloads import run_child

    cmd = [sys.executable, str(HERE / "prepare.py"), args.workload,
           str(args.seed), str(work)] + (["--quick"] if args.quick else [])
    times, refs = [], [kernel.seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _ = run_child(cmd, dict(os.environ), work / "prepare.err",
                            SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}:\n"
                               + (work / "prepare.err").read_text()[-2000:])
        refs.append(kernel.seconds())
    return times, refs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rtfdoa" / "__init__.py").is_file():
        print(f"no rtfdoa sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from speed import NOMINAL_S, ReferenceKernel
    from tracing import Tracer
    from workloads import WORKLOADS

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    kernel = ReferenceKernel()
    kernel.seconds()
    setup_times, setup_refs = set_up(args, work, kernel)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.load(work)
    workload.warm_up()

    tracer = Tracer() if args.trace else None
    # one entry per operation: (round, outcome, wall time); refs[j] and
    # refs[j + 1] are the kernel times right before and after operation j
    calls, refs, n_rounds = [], [kernel.seconds()], 0
    t_start = time.perf_counter()
    try:
        while True:
            if tracer is not None and n_rounds > 0:
                tracer.round = n_rounds
                if workload.in_process and n_rounds == 1:
                    tracer.install()
            traced = tracer if tracer is not None and n_rounds > 0 else None
            for op in workload.operations(traced):
                t0 = time.perf_counter()
                outcome = op()
                calls.append((n_rounds, outcome, time.perf_counter() - t0))
                refs.append(kernel.seconds())
            n_rounds += 1
            if (time.perf_counter() - t_start >= args.seconds
                    and n_rounds >= MIN_ROUNDS):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    rounds = [[c for c in calls if c[0] == i] for i in range(n_rounds)]
    walls = [sum(c[2] for c in r) for r in rounds]
    check = workload.check([c[1].output for c in rounds[0]])
    problems = list(check.problems)
    if all(c[1].audio_s == 0 for c in calls):
        problems.append("every operation failed")
    prints = [[c[1].fingerprint for c in r] for r in rounds]
    changed = [i for i, p in enumerate(prints) if p != prints[0]]
    if changed:
        problems.append(f"outputs of rounds {changed} differ from the first round"
                        + (" (round 0 untraced, the rest traced)" if tracer else ""))

    done = [j for j, c in enumerate(calls) if c[1].audio_s > 0]
    throughput = [calls[j][1].audio_s / calls[j][2] for j in done]
    info = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "rounds": n_rounds, "round_wall_s": walls, "setup_runs_s": setup_times,
        "operation_wall_s": [c[2] for c in calls],
        "operation_audio_s": [c[1].audio_s for c in calls],
        "operation_gauge_slowdown": [c[1].slowdown for c in calls],
        "reference_s": {"setup": setup_refs, "operations": refs,
                        "nominal": NOMINAL_S},
        "unscaled": {"setup_s": statistics.median(setup_times),
                     "throughput_x": statistics.median(throughput or [0.0])},
        "environment": {
            "blas_threads": int(BLAS_THREADS), "cores": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
    }
    if tracer is not None:
        overhead = statistics.median(walls[1:]) - walls[0]
        metrics = tracer.metrics(list(range(1, n_rounds)), overhead)
        info["missing_hooks"] = sorted(tracer.missing)
    else:
        if workload.in_process:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_mb = statistics.median(
                [c[1].peak_rss_mb for c in calls if c[1].peak_rss_mb] or [0.0])
        # a child process's core is gauged while it runs (speed.Gauge)
        slowdown = [(refs[j] + refs[j + 1]) / (2.0 * NOMINAL_S)
                    if workload.in_process else calls[j][1].slowdown for j in done]
        setup_slowdown = [(a + b) / (2.0 * NOMINAL_S)
                          for a, b in zip(setup_refs, setup_refs[1:])]
        metrics = {
            "setup_s": {"value": statistics.median(
                t / f for t, f in zip(setup_times, setup_slowdown)), "unit": "s"},
            "throughput_x": {"value": statistics.median(
                [x * f for x, f in zip(throughput, slowdown)] or [0.0]), "unit": "x"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "rms_error_deg": {"value": (check.rms_error_deg
                                        if np.isfinite(check.rms_error_deg)
                                        else None), "unit": "deg"},
        }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c[1].attempted for c in calls),
        "failed": sum(c[1].failed for c in calls),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
