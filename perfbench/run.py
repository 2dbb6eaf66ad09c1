#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the optmech CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the repository root. Each op is one in-process
`optmech.cli.main(argv)` call on an input file written during set-up from
`--seed`; one client runs ops back to back (a closed loop) for `--seconds` of
op time and at least P90_MIN_OPS ops. Every output is checked; a failed or
wrong op counts in `failed`.

`--trace 0` reports the end-to-end metrics, with times scaled to reference
machine speed (see `calibrate`). `--trace 1` instead runs a fixed number of
ops (set by `--seconds` and the workload's nominal rate) untraced, traced
with spans around every layer-entry function, and untraced again, and
reports per-op layer metrics plus the tracing overhead. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
above it give the environment and every metric in readable form.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("certify", "solve", "reduction", "budgeted")
# Ops per second at the commit that introduced the benchmark; only used to
# size the traced run, so its op list (and every count) is fixed by the seed.
NOMINAL_OPS_PER_S = {"certify": 20, "solve": 3.3, "reduction": 35, "budgeted": 250}
SETUP_REPEATS = 9
# Machine speed on a shared host drifts by 10-20% over seconds. A calibration
# (a fixed Fraction sum, under 2 ms) runs after every CALIBRATION_EVERY_S of
# op time, and each op's latency is divided by the local slowdown: the median
# of the CALIBRATION_WINDOW samples on either side over CALIBRATION_REF_S,
# the median calibration time seen during runs on a 2-vCPU reference VM
# (Python 3.11.7), so scaled and measured times agree there on average.
CALIBRATION_TERMS = 400
CALIBRATION_EVERY_S = 0.02
CALIBRATION_WINDOW = 3
CALIBRATION_REF_S = 1.35e-3
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it

CERTIFY_LINE = "oracle: revenue matches the full program optimum"
BUDGETED_LINE = "oracle: revenue matches the oracle optimum"


def output_ok(workload: str, op: inputs.Op, out: str) -> bool:
    """The correctness gate for one op that exited 0."""
    lines = out.splitlines()
    if workload == "certify":
        return any(line.startswith(CERTIFY_LINE) for line in lines) and "violations=0" in out
    if workload == "solve":
        return any(line.startswith("verification:") and "violations=0" in line for line in lines)
    if workload == "reduction":
        expected = "decision: YES" if op.expect["yes"] else "decision: NO"
        return expected in lines
    return (
        any(line.startswith(BUDGETED_LINE) for line in lines)
        and f"expected revenue: {op.expect['revenue']}" in lines
    )


def load_cli():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "optmech", "cli.py")):
        raise SystemExit(f"benchmark: no package source at {SRC}/optmech")
    sys.path.insert(0, SRC)
    import optmech.cli

    if not os.path.abspath(optmech.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported optmech from {optmech.cli.__file__}")
    return optmech.cli


def calibrate() -> float:
    """Seconds for a fixed exact-rational workload that does not use the
    package; the cyclic GC is off, so the heap the program built adds nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdowns(samples: list[float]) -> list[float]:
    """Machine slowdown at each calibration sample: the median of the samples
    within CALIBRATION_WINDOW positions, over the reference time."""
    w = CALIBRATION_WINDOW
    return [
        statistics.median(samples[max(0, i - w): i + w + 1]) / CALIBRATION_REF_S
        for i in range(len(samples))
    ]


def measure_setup_s(directory: str) -> tuple[float, float]:
    """Median over fresh interpreters of start -> `optmech.cli` imported, as
    measured and at reference speed (each sample scaled by the median of
    calibrations taken just before and after it).

    The children keep compiled bytecode in a cache under `directory`, filled
    by one untimed child first, so every timed child imports from bytecode as
    an installed CLI does, whatever the environment says about writing it.
    Each child reports the system-wide monotonic clock once the import is
    done, so interpreter teardown is not counted."""
    code = (
        f"import sys, time; sys.path.insert(0, {SRC!r}); "
        "import optmech.cli; print(time.monotonic())"
    )
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(directory, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child():
        return subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        )

    child()
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        around = [calibrate() for _ in range(3)]
        start = time.monotonic()
        done = child()
        seconds = float(done.stdout.split()[-1]) - start
        around += [calibrate() for _ in range(3)]
        slowdown = statistics.median(around) / CALIBRATION_REF_S
        measured.append(seconds)
        scaled.append(seconds / slowdown)
    return statistics.median(measured), statistics.median(scaled)


def clear_package_caches() -> None:
    for key, module in list(sys.modules.items()):
        if key == "optmech" or key.startswith("optmech."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Loop:
    """Runs ops through `main` and checks each output."""

    def __init__(self, main, workload: str):
        self.main = main
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def run(self, op: inputs.Op, tracer=None) -> float:
        out, err = io.StringIO(), io.StringIO()
        rc = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = tracer.enter(spans.ROOT) if tracer else None
            try:
                rc = self.main(list(op.argv))
            except Exception as exc:  # a crash is a failed op, not a failed run
                err.write(f"{type(exc).__name__}: {exc}\n")
            if tracer:
                tracer.exit(root, raised=rc is None)
                tracer.end_op()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc != 0 or not output_ok(self.workload, op, out.getvalue()):
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = (op.argv, rc, out.getvalue()[-2000:], err.getvalue()[-2000:])
        return elapsed


def timed_phase(loop: Loop, ops, seconds: float):
    """Closed loop for `seconds` of op time (and at least P90_MIN_OPS ops),
    calibrating after any op that ends CALIBRATION_EVERY_S of op time after
    the last calibration.

    Returns per-op latencies scaled to reference speed, and as measured."""
    latencies, calibrations, owner = [], [], []
    total = since = 0.0
    while total < seconds or len(latencies) < P90_MIN_OPS:
        latency = loop.run(ops[len(latencies) % len(ops)])
        latencies.append(latency)
        total += latency
        since += latency
        if since >= CALIBRATION_EVERY_S or not calibrations:
            calibrations.append(calibrate())
            since = 0.0
        owner.append(len(calibrations) - 1)
    slow = slowdowns(calibrations)
    return [lat / slow[j] for lat, j in zip(latencies, owner)], latencies


def counted_phase(loop: Loop, ops, count: int, tracer=None) -> float:
    clear_package_caches()
    start = time.perf_counter()
    for i in range(count):
        loop.run(ops[i % len(ops)], tracer)
    return time.perf_counter() - start


def repeat_share(ops) -> float:
    """Share of reduction queries whose (|C|, |S|, k) came earlier in the list."""
    seen, repeats = set(), 0
    for op in ops:
        if "k" in op.expect:
            key = (op.expect["n"], op.expect["s"], op.expect["k"])
            repeats += key in seen
            seen.add(key)
    return repeats / len(ops)


def commit_hash() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def latency_metrics(latencies: list[float]) -> dict:
    ms = sorted(x * 1e3 for x in latencies)
    return {
        "ops_per_s": (len(ms) / sum(latencies), "ops/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
    }


def end_to_end(loop: Loop, ops, seconds: float, directory: str) -> dict:
    """Times at reference machine speed; the same figures as measured are
    printed with a `measured.` prefix."""
    setup_measured, setup_scaled = measure_setup_s(directory)
    scaled, latencies = timed_phase(loop, ops, seconds)
    print(f"fail_frac = {loop.failed / loop.attempted:.6g} ratio "
          f"({loop.failed} failed of {loop.attempted} ops)")
    for name, (value, unit) in latency_metrics(latencies).items():
        print(f"measured.{name} = {value:.6g} {unit}")
    print(f"measured.setup_s = {setup_measured:.6g} s")
    return {
        **latency_metrics(scaled),
        "setup_s": (setup_scaled, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced(loop: Loop, ops, seconds: float) -> dict:
    """Untraced, traced, untraced again over the same op list; the overhead
    compares the traced pass with the mean of the two around it, which
    cancels drift in machine speed that is linear in time."""
    count = math.ceil(NOMINAL_OPS_PER_S[loop.workload] * seconds / 3)
    before_s = counted_phase(loop, ops, count)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        traced_s = counted_phase(loop, ops, count, tracer)
    finally:
        restore()
    after_s = counted_phase(loop, ops, count)
    plain_s = (before_s + after_s) / 2
    run_ops = [ops[i % len(ops)] for i in range(count)]
    print(f"traced ops: {count} (untraced {before_s:.3f} s and {after_s:.3f} s, "
          f"traced {traced_s:.3f} s)")
    return spans.layer_metrics(tracer, repeat_share(run_ops), traced_s / plain_s - 1)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        ops = inputs.write_pool(args.workload, args.seed, directory)
        loop = Loop(cli.main, args.workload)
        if args.trace:
            metrics = traced(loop, ops, args.seconds)
        else:
            metrics = end_to_end(loop, ops, args.seconds, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if loop.first_failure is not None:
        argv_, rc, out, err = loop.first_failure
        print(f"first failure: argv={list(argv_)} exit={rc}\n{out}\n{err}", file=sys.stderr)
    print("env: " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
