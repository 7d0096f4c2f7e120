"""Per-layer instrumentation, installed from outside the program.

Wrappers replace public functions at every name their callers look up: a
function imported with ``from .smallmat import mat_exp`` is bound in
``delaycomp.sim``, ``delaycomp.control`` and ``delaycomp.smallmat`` alike, so
each binding of the same object gets the wrapper. A name that no longer
exists is reported as unwrapped instead of failing the run.

Spans are aggregated in memory per name: calls, inclusive time and self time
(inclusive time minus the time covered by child spans).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np
from delaycomp import control, smallmat
from delaycomp.robot import params_to_lti

from workloads import DT, ROBOT

# (module, attribute path, span name). Span names start with the layer.
# predict_state and predict_deviation are both the predictor; a call from
# one into the other is counted once.
TRACE_TARGETS = (
    ("smallmat", "mat_exp", "smallmat.mat_exp"),
    ("smallmat", "zoh_discretize", "smallmat.zoh_discretize"),
    ("smallmat", "solve", "smallmat.solve"),
    ("robot", "integrate_pose", "robot.integrate_pose"),
    ("control", "predict_deviation", "control.predict"),
    ("control", "predict_state", "control.predict"),
    ("control", "naive_control", "control.naive_control"),
    ("control", "DelayLine.push", "control.delay_line.push"),
    ("control", "DelayLine.lookup", "control.delay_line.lookup"),
    ("sim", "run", "sim.run"),
    ("sim", "sweep_delay", "sim.sweep_delay"),
    ("sim", "step_plant", "sim.step_plant"),
    ("sim", "matched_gain", "sim.matched_gain"),
    ("sim", "compute_metrics", "sim.compute_metrics"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "build_scenario", "cli.build_scenario"),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
)
LAYERS = ("smallmat", "robot", "control", "sim", "cli")


def _bindings(module: str, path: str):
    """Every (owner, attribute) in the loaded package bound to the target.

    Returns None when the target does not exist.
    """
    owner = sys.modules.get(f"delaycomp.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    target = getattr(owner, attr, None)
    if owner is None or not callable(target):
        return None
    if parents:  # a method: the class attribute is the only lookup site
        return [(owner, attr, target)]
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "delaycomp" or name.startswith("delaycomp.")):
            continue
        for key, value in vars(mod).items():
            if value is target:
                sites.append((mod, key, target))
    return sites


class Patch:
    """A set of wrappers that can be put in place and taken out again."""

    def __init__(self):
        self._sites = []  # (owner, attribute, original, wrapper)
        self.unwrapped = []

    def add(self, module: str, path: str, make_wrapper) -> None:
        sites = _bindings(module, path)
        if not sites:
            self.unwrapped.append(f"delaycomp.{module}.{path}")
            return
        wrapper = make_wrapper(sites[0][2])
        self._sites.extend((owner, attr, original, wrapper) for owner, attr, original in sites)

    def __enter__(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)


class StepCounter:
    """Counts simulated steps as the samples of every trajectory ``run`` returns.

    It wraps ``sim.run`` once per scenario, not per step, so it stays on
    during the untraced runs.
    """

    def __init__(self):
        self.steps = 0
        self.patch = Patch()
        self.patch.add("sim", "run", self._wrap)

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.steps += len(result[0].t)
            return result
        return counted


class Tracer:
    """Span aggregation at the layer boundaries in TRACE_TARGETS."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self._stack = []  # [name, child seconds] per open span
        self.patch = Patch()
        for module, path, span in TRACE_TARGETS:
            self.patch.add(module, path, lambda fn, span=span: self._wrap(span, fn))

    def _wrap(self, span: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats[span]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
        return traced


def layer_metrics(tracer: Tracer, run, micro: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run, per traced operation unless named
    per call or step. ``run`` is the run's outcome record (see run.py)."""
    ops = len(run.walls[True])
    wall = sum(run.walls[True])
    stats = tracer.stats  # a span that never ran reads as zeros

    def calls(span):
        return stats[span][0] / ops

    def seconds(span, self_time=False):
        return stats[span][2 if self_time else 1] / ops

    def us_per_call(span):
        n, total, _ = stats[span]
        return total / n * 1e6 if n else 0.0

    m = {}
    for span in ("smallmat.mat_exp", "smallmat.zoh_discretize", "smallmat.solve"):
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.s"] = (seconds(span), "s")
    for span in ("robot.integrate_pose", "control.predict"):
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.s"] = (seconds(span), "s")
        m[f"{span}.us_per_call"] = (us_per_call(span), "us")
    for span in ("control.delay_line.push", "control.delay_line.lookup", "control.naive_control",
                 "sim.step_plant", "sim.matched_gain", "sim.compute_metrics",
                 "cli.parse_config", "cli.build_scenario", "cli.write_trajectory_csv"):
        m[f"{span}.s"] = (seconds(span), "s")
    steps = run.steps[True]
    m["sim.steps"] = (steps / ops, "count")
    m["sim.run.calls"] = (calls("sim.run"), "count")
    m["sim.run.self_s"] = (seconds("sim.run", self_time=True), "s")
    m["sim.loop_self_us_per_step"] = (stats["sim.run"][2] / steps * 1e6 if steps else 0.0, "us")
    m["cli.csv_bytes"] = (run.csv_bytes / ops, "bytes")
    write_s = stats["cli.write_trajectory_csv"][1]
    m["cli.csv_mb_per_s"] = (run.csv_bytes / write_s / 1e6 if write_s else 0.0, "MB/s")
    for layer in LAYERS:
        own = sum(s[2] for span, s in stats.items() if span.split(".")[0] == layer)
        m[f"share.{layer}"] = (own / wall, "frac")
    for name, value in micro.items():
        m[name] = (value, "us")
    untraced = run.walls[False]
    overhead = wall / ops / (sum(untraced) / len(untraced)) - 1.0
    m["trace.overhead_frac"] = (overhead, "frac")
    m["trace.unwrapped"] = (float(len(tracer.patch.unwrapped)), "count")
    return m


def per_call_us(fn, target_s: float = 0.01, repeats: int = 5) -> float:
    """Median time of one call over ``repeats`` batches of about ``target_s``."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= target_s:
            break
        loops *= 2
    samples = [elapsed / loops]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples) * 1e6


def microbenchmarks(seed: int) -> tuple[dict[str, float], list[str]]:
    """Single-layer timings in µs per call, and the names that could not run.

    ``n`` is the plant dimension: ``mat_exp_general`` times the (2n x 2n)
    augmented matrix that ``zoh_discretize`` exponentiates (a 1 x 1 matrix is
    always diagonal). The predictor ladder runs on the default robot with a
    DelayLine pre-filled with seeded controls.
    """
    rng = np.random.default_rng(seed)
    out, missing = {}, []

    def record(name, fn):
        try:
            fn()
        except (AttributeError, TypeError, ValueError) as exc:
            missing.append(f"{name} ({type(exc).__name__}: {exc})")
            out[name] = 0.0
            return
        out[name] = per_call_us(fn)

    for n in (1, 2):
        A = -np.diag(rng.uniform(0.5, 2.0, n))
        B = np.diag(rng.uniform(0.5, 2.0, n))
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n], aug[:n, n:] = A, B
        M = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n)
        record(f"smallmat.mat_exp_diag_us.n{n}", lambda: smallmat.mat_exp(A, DT))
        record(f"smallmat.mat_exp_general_us.n{n}", lambda: smallmat.mat_exp(aug, DT))
        record(f"smallmat.zoh_us.n{n}", lambda: smallmat.zoh_discretize(A, B, DT))
        record(f"smallmat.solve_us.n{n}", lambda: smallmat.solve(M.copy(), b))

    for depth in (10, 30, 100, 1000):
        name = f"control.predict_us.N{depth}"
        try:
            plant = params_to_lti(ROBOT, depth * DT)
            setpoint = control.make_setpoint(plant, [1.0, 0.5])
            line = control.DelayLine(DT, depth, fill=setpoint.u_star)
            for u in rng.uniform(-2.0, 2.0, (depth + 1, 2)):
                line.push(u)
            disc = smallmat.zoh_discretize(plant.A, plant.B, DT)
            x = rng.uniform(-0.5, 0.5, 2)
        except (AttributeError, TypeError, ValueError) as exc:
            missing.append(f"{name} ({type(exc).__name__}: {exc})")
            out[name] = 0.0
            continue
        record(name, lambda: control.predict_deviation(plant, setpoint, x, None, line, disc=disc))
    return out, missing
