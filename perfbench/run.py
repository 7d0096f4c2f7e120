#!/usr/bin/env python3
"""Layered benchmark of the delayed closed loop.

One workload, in this process:

    python3 perfbench/run.py --workload deep-window --seed 1 --seconds 15 --trace 0

runs the workload's operations back to back for ``--seconds``, checks every
operation's output outside the timed region, and prints as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics from a traced run.

All workloads, each in a fresh process, with a summary table:

    python3 perfbench/run.py [--seed 1] [--seconds 15]

See perfbench/README.md for the workloads, the metrics and the seed baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cli-run", "deep-window", "margin-sweep", "nodelay-loop")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 180

END_TO_END_UNITS = {"wall_s": "s", "step_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}


class Run:
    """Outcome of the operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.walls = {False: [], True: []}  # traced? -> op wall seconds
        self.steps = {False: 0, True: 0}
        self.csv_bytes = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_op(workload, rng, workdir, counter, run: Run, patch=None) -> None:
    """Draw inputs, time one operation, then check its output."""
    inputs = workload.draw(rng)
    op, check = workload.prepare(inputs, workdir)
    run.attempted += 1
    counter.steps = 0
    try:
        with patch or nullcontext():
            start = time.perf_counter()
            result = op()
            wall = time.perf_counter() - start
    except Exception as exc:  # any raise is a failed operation, reported and counted
        run.fail(f"{type(exc).__name__}: {exc}")
        return
    try:
        info = check(result)
    except Exception as exc:  # a failed check, or a check that cannot read the output
        run.fail(f"check: {type(exc).__name__}: {exc}")
        return
    if counter.steps == 0:
        run.fail("no simulated steps observed through delaycomp.sim.run")
        return
    traced = patch is not None
    run.walls[traced].append(wall)
    run.steps[traced] += counter.steps
    if traced:
        run.csv_bytes += info.get("csv_bytes", 0)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time from SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "delaycomp").is_dir():
        print(f"error: no delaycomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads  # puts src/ on sys.path before layers imports delaycomp
    import layers

    workload = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    setup = [] if trace else setup_seconds(name, seed)
    counter = layers.StepCounter()
    tracer = None
    run = Run()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp, counter.patch:
            workdir = Path(tmp)
            if trace:
                # Built while the step counter is in place, so the sim.run
                # span wraps the counting wrapper and both stay consistent.
                tracer = layers.Tracer()
            deadline = time.perf_counter() + seconds
            while True:
                # The traced run alternates untraced and traced operations, so
                # trace.overhead_frac compares like with like.
                run_op(workload, rng, workdir, counter, run)
                if trace:
                    run_op(workload, rng, workdir, counter, run, patch=tracer.patch)
                if time.perf_counter() >= deadline:
                    break
    finally:
        if not any(scratch.iterdir()):
            scratch.rmdir()

    print("env " + json.dumps(environment()))
    for error in run.errors:
        print(f"failure: {error}")
    fail_frac = run.failed / run.attempted
    print(f"{name} seed={seed} trace={int(trace)}: {run.attempted} operations, "
          f"{run.failed} failed, fail_frac {fail_frac}")
    if not run.walls[False] or (trace and not run.walls[True]):
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if trace:
        micro, missing = layers.microbenchmarks(seed)
        for target in tracer.patch.unwrapped + missing:
            print(f"unwrapped: {target}")
        metrics = layers.layer_metrics(tracer, run, micro)
    else:
        # Ratios of run totals, not medians of operations: on a shared host,
        # per-operation times are bimodal (contention episodes of ~1.6x), and
        # their median jumps between the modes from run to run.
        walls = run.walls[False]
        metrics = {
            "wall_s": (sum(walls) / len(walls), "s"),
            "step_us": (sum(walls) / run.steps[False] * 1e6, "us"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced; prints a table."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            if not results:
                print(lines[0])  # environment block
            results[name, trace] = json.loads(lines[-1])
            for line in lines[1:-1]:
                if line.startswith(("failure:", "unwrapped:")):
                    print(f"{name} trace={trace} {line}")

    header = ["workload"] + [f"{k} [{u}]" for k, u in END_TO_END_UNITS.items()] + ["fail_frac", "correct"]
    rows = []
    for name in WORKLOAD_NAMES:
        res = results[name, 0]
        row = [name] + [f"{res['metrics'][k]['value']:.5g}" for k in END_TO_END_UNITS]
        row += [f"{res['failed'] / res['attempted']:.3g} ({res['failed']}/{res['attempted']})",
                str(res["correct"] and results[name, 1]["correct"])]
        rows.append(row)
    _print_table(header, rows)

    print()
    layer_keys = list(results[WORKLOAD_NAMES[0], 1]["metrics"])
    _print_table(
        ["per-layer metric"] + list(WORKLOAD_NAMES),
        [[key + f" [{results[WORKLOAD_NAMES[0], 1]['metrics'][key]['unit']}]"]
         + [f"{results[name, 1]['metrics'].get(key, {}).get('value', float('nan')):.4g}"
            for name in WORKLOAD_NAMES]
         for key in layer_keys],
    )
    return 0 if all(res["correct"] for res in results.values()) else 1


def _print_table(header, rows) -> None:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
