"""Benchmark of boxdet: one workload in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs closed-loop rounds of
its operations until S seconds have passed (whole rounds only), checks every
output, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced (even) and traced (odd) rounds and reports
the per-layer metrics of the traced ones, with their slowdown against the
untraced ones.  Workloads, metrics and checks: README.md next to this file.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "boxdet"
OUT_PARENT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep_empirical", "theory_uniform", "fixed_patterns")
FRESH_SETUPS = 4
SETUP_TIMEOUT_S = 60
SHOWN_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one boxdet workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once, print the seconds it took, exit")
    return parser.parse_args(argv)


def log(message):
    print(message, file=sys.stderr, flush=True)


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        log(f"perfbench: no boxdet package at {PACKAGE}; run from a checkout")
        return 2
    sys.path[:0] = [str(PACKAGE.parent), str(HERE)]
    OUT_PARENT.mkdir(exist_ok=True)
    import numpy
    import scipy

    import boxdet
    import workloads
    from boxdet import _parallel
    import_s = time.perf_counter() - _START
    if Path(boxdet.__file__).resolve().parent != PACKAGE:
        log(f"perfbench: imported boxdet from {boxdet.__file__}, not {PACKAGE}")
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT_PARENT) as workdir:
            prepare(workload_cls, args.seed, workdir)
        print(time.perf_counter() - _START)
        return 0
    log(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} workers={_parallel.worker_count()} "
        f"BOXDET_THREADS={os.environ.get('BOXDET_THREADS', '(unset)')} "
        f"cores={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}")

    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT_PARENT)
    try:
        result = measure(args, workload_cls, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


def prepare(workload_cls, seed, workdir):
    workload = workload_cls(seed, workdir)
    workload.warm_up()
    return workload


def setup_in_fresh_process(args):
    """Seconds a fresh process of this benchmark needs to become ready."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def measure(args, workload_cls, workdir, import_s):
    import spans

    # Set-up happens once here and again in FRESH_SETUPS new processes; the
    # median of them is setup_s, so one slow start moves it less (README.md
    # compares its spread with that of the in-process set-up alone).
    start = time.perf_counter()
    workload = prepare(workload_cls, args.seed, workdir)
    setups_s = [import_s + time.perf_counter() - start]
    if not args.trace:  # setup_s is an end-to-end metric
        setups_s += [setup_in_fresh_process(args) for _ in range(FRESH_SETUPS)]
    setup_s = statistics.median(setups_s)
    log("perfbench: set-ups took " + " ".join(f"{t:.3f}" for t in setups_s) + " s")

    # With --trace 1, odd rounds run traced and even rounds untraced, so
    # that drift in the machine's speed falls on both alike.
    tracer = spans.Tracer() if args.trace else None
    rounds = []
    seconds = {True: 0.0, False: 0.0}  # traced? -> time spent in its rounds
    ops = {True: 0, False: 0}
    round_s = []
    round_cpu = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        began, began_cpu = time.perf_counter(), time.process_time()
        try:
            results = workload.run_round()
        finally:
            if traced:
                tracer.restore()
        round_s.append(time.perf_counter() - began)
        round_cpu.append(time.process_time() - began_cpu)
        rounds.append(results)
        seconds[traced] += round_s[-1]
        ops[traced] += workload.ops_per_round
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(rounds) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    failures = workload.check(rounds)
    check_s = time.perf_counter() - start
    failed = [f for f in failures if f]
    for messages in failed[:SHOWN_FAILURES]:
        log("perfbench: FAILED " + "; ".join(messages))

    if tracer is not None:
        metrics = tracer.metrics(ops[True])
        metrics["trace.wall_s"] = (seconds[True], "s")
        metrics["trace.slowdown"] = (
            (seconds[True] / ops[True]) / (seconds[False] / ops[False]), "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (workload.ops_per_round / statistics.median(round_s), "ops/s"),
            **workload.quality(rounds),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        log(f"perfbench: {name} = {value:.6g} {unit}")
    log("perfbench: measured rounds took " + " ".join(f"{t:.3f}" for t in round_s) + " s, cpu "
        + " ".join(f"{t:.3f}" for t in round_cpu) + " s")
    log(f"perfbench: {len(rounds)} rounds, {elapsed:.2f} s measured, "
        f"{len(failed)} of {len(failures)} operations failed, checked in {check_s:.2f} s")
    return {
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
