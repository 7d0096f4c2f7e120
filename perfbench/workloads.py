"""Benchmark workloads: seeded inputs, one timed operation each, and the
correctness checks that run outside the timed region.

Every workload is a closed loop driven from one process and thread: the next
operation starts only after the previous one has returned and been checked.
The seed draws the initial state x0 and, on the robot, the (v_ref, w_ref)
setpoint of each operation from fixed ranges; the program sees only those
generated values.

Importing this module imports ``delaycomp`` from ``src/`` of the checkout
that holds this file.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from delaycomp import cli, sim  # noqa: E402
from delaycomp.control import Gain, design_gain, make_setpoint  # noqa: E402
from delaycomp.robot import LtiPlant, RobotParams, params_to_lti  # noqa: E402

DT = 0.01
# 10 s is the documented horizon of configs/robot.cfg; it stays below the two
# known long-horizon defects (delay-line clock drift at t = 91.39 s with
# dt = 0.01, z-form overflow at about 355 s), which no workload here reaches.
ROBOT_HORIZON = 10.0
POLES = (-5.0, -5.0)
ROBOT = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)

# The scalar channel of scripts/delay_sweep.py: dx/dt = u(t - h), gain -8.
SWEEP_GAIN = -8.0
SWEEP_GRID = tuple(round(0.05 + 0.01 * i, 2) for i in range(21))  # 0.05 .. 0.25
# Naive feedback at h = 0.19 s, just inside the pi/16 margin, settles at
# 23.49 s; 25 s is the shortest round horizon on which the margin check holds.
SWEEP_HORIZON = 25.0
DELAY_MARGIN = math.pi / 16.0

PAIR_TOL = 1e-9  # prediction-pair error, as in the ROADMAP's exactness aim
CLOSED_FORM_TOL = 1e-9

CONFIG_TEMPLATE = """\
mass        = 1
inertia     = 1
friction_v  = 1
friction_w  = 2
wheel_base  = 0.5
gain_force  = 2
gain_torque = 4
delay   = 0.3
dt      = 0.01
horizon = 10
v0    = {v0!r}
w0    = {w0!r}
v_ref = {v_ref!r}
w_ref = {w_ref!r}
poles      = -5,-5
controller = predictor-window
"""


class CheckError(Exception):
    """An operation's output failed its correctness check."""


@dataclass(frozen=True)
class Inputs:
    x0: tuple[float, ...]
    ref: tuple[float, ...]


def robot_inputs(rng: random.Random) -> Inputs:
    x0 = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    ref = (rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
    return Inputs(x0, ref)


def scalar_inputs(rng: random.Random) -> Inputs:
    return Inputs((rng.uniform(0.5, 1.5),), (0.0,))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _pair_error(predictions: np.ndarray, states: np.ndarray, depth: int) -> float:
    """Largest inf-norm gap between the forecast issued at k and the state at k + N."""
    issued, realized = predictions[: len(states) - depth], states[depth:]
    _require(len(issued) > 0, "trajectory shorter than the delay")
    return float(np.max(np.abs(issued - realized)))


class RobotRun:
    """In-memory ``sim.run`` of the default robot at delay ``h``."""

    draw = staticmethod(robot_inputs)

    def __init__(self, controller: str, h: float):
        self.controller = controller
        self.h = h
        self.depth = round(h / DT)

    def scenario(self, inp: Inputs, T: float = ROBOT_HORIZON):
        plant = params_to_lti(ROBOT, self.h)
        return sim.Scenario(
            plant=plant,
            gain=design_gain(plant, POLES),
            setpoint=make_setpoint(plant, inp.ref),
            controller=self.controller,
            x0=np.array(inp.x0),
            dt=DT,
            T=T,
        )

    def first_step(self, inp: Inputs) -> None:
        sim.run(self.scenario(inp, T=DT))

    def prepare(self, inp: Inputs, workdir: Path):
        scenario = self.scenario(inp)

        def op():
            return sim.run(scenario)

        def check(result) -> dict:
            traj, metrics = result
            steps = round(ROBOT_HORIZON / DT) + 1
            _require(traj.status == "completed", f"status {traj.status!r}")
            _require(len(traj.t) == steps, f"{len(traj.t)} samples, expected {steps}")
            _require(metrics.settled, "run did not settle")
            if self.controller == "nodelay":
                # The matched gain makes the sampled loop equal e^{(A+BK)t}
                # at sample instants; A + BK = diag(POLES).
                ref, x0 = np.array(inp.ref), np.array(inp.x0)
                exact = ref + np.exp(np.outer(traj.t, POLES)) * (x0 - ref)
                err = float(np.max(np.abs(traj.states - exact)))
                _require(err <= CLOSED_FORM_TOL, f"closed-form error {err:.3e}")
            else:
                err = _pair_error(traj.predictions, traj.states, self.depth)
                _require(err <= PAIR_TOL, f"prediction-pair error {err:.3e}")
            return {}

        return op, check


class MarginSweep:
    """``sim.sweep_delay`` over 21 delays on the scalar channel: 42 scenarios."""

    draw = staticmethod(scalar_inputs)

    def base(self, inp: Inputs, T: float = SWEEP_HORIZON):
        plant = LtiPlant(np.array([[0.0]]), np.array([[1.0]]), SWEEP_GRID[0])
        return sim.Scenario(
            plant=plant,
            gain=Gain.for_plant(np.array([[SWEEP_GAIN]]), plant),
            setpoint=make_setpoint(plant, inp.ref),
            controller="naive",
            x0=np.array(inp.x0),
            dt=DT,
            T=T,
        )

    def first_step(self, inp: Inputs) -> None:
        sim.sweep_delay(self.base(inp, T=DT), SWEEP_GRID)

    def prepare(self, inp: Inputs, workdir: Path):
        base = self.base(inp)

        def op():
            return sim.sweep_delay(base, SWEEP_GRID)

        def check(results) -> dict:
            _require(len(results) == len(SWEEP_GRID), f"{len(results)} sweep rows")
            for h, naive, pred in results:
                _require(pred.settled and not pred.diverged, f"predictor did not settle at h={h}")
                err = pred.max_prediction_error
                _require(err is not None and err <= PAIR_TOL, f"prediction-pair error {err} at h={h}")
                below = h < DELAY_MARGIN
                _require(naive.settled == below,
                         f"naive settled={naive.settled} at h={h}, margin {DELAY_MARGIN:.5f}")
            return {}

        return op, check


class CliRun:
    """``delaycomp run`` through ``cli.main`` on the robot.cfg settings."""

    draw = staticmethod(robot_inputs)
    depth = 30  # delay 0.3 s at dt 0.01

    @staticmethod
    def config_text(inp: Inputs) -> str:
        (v0, w0), (v_ref, w_ref) = inp.x0, inp.ref
        return CONFIG_TEMPLATE.format(v0=v0, w0=w0, v_ref=v_ref, w_ref=w_ref)

    def first_step(self, inp: Inputs) -> None:
        config = cli.parse_config(self.config_text(inp))
        scenario = cli.build_scenario(config)
        sim.run(replace(scenario, T=config.dt))

    def prepare(self, inp: Inputs, workdir: Path):
        cfg = workdir / "bench.cfg"
        out = workdir / "out"
        cfg.write_text(self.config_text(inp))
        argv = ["run", "--config", str(cfg), "--out-dir", str(out), "--name", "bench"]

        def op():
            return cli.main(argv)

        def check(code) -> dict:
            _require(code == 0, f"exit code {code}")
            csv = out / "bench.csv"
            text = csv.read_text()
            lines = text.splitlines()
            _require(lines[0] == cli.CSV_HEADER, "unexpected CSV header")
            steps = round(ROBOT_HORIZON / DT) + 1
            _require(len(lines) - 1 == steps, f"{len(lines) - 1} CSV rows, expected {steps}")
            cols = lines[0].split(",")
            rows = [line.split(",") for line in lines[1:]]

            def column(name):
                i = cols.index(name)
                return [float(r[i]) for r in rows]

            states = np.column_stack([column("v"), column("omega")])
            preds = np.column_stack([column("v_pred"), column("omega_pred")])
            err = _pair_error(preds, states, self.depth)
            _require(err <= PAIR_TOL, f"prediction-pair error {err:.3e} in the CSV")
            metrics = (out / "bench.metrics.txt").read_text().splitlines()
            _require("settled = true" in metrics, "metrics file does not report settled")
            return {"csv_bytes": len(text.encode())}

        return op, check


WORKLOADS = {
    "cli-run": CliRun(),
    "deep-window": RobotRun("predictor-window", h=1.0),
    "margin-sweep": MarginSweep(),
    "nodelay-loop": RobotRun("nodelay", h=0.3),
}
