"""Print one digest per seeded run of ``sim.run``, so that two trees' outputs can be compared bit for bit.

    PYTHONPATH=src python tests/digest_runs.py SEED COUNT

Each line is ``SEED INDEX KIND STATUS ROWS DIGEST CONTROLLER N E_MAX``; the
digest hashes the run's t, states, controls, predictions, status, t_d and
metrics, or names the exception its set-up raised, N is the delay depth h/dt
and E_MAX the clip limit, None when unset ("-" for what a raising set-up did
not build). Point PYTHONPATH at another tree's ``src`` and diff the two
outputs: equal lines are bitwise-equal runs.

Even indices are mixed runs: random plants with n <= 3 (half diagonal, half
coupled; B square or not), any of the four controllers, e_max in
{None, 0.5, 3} and thresholds {0.9, 1e6, inf}. Odd indices are threshold-inf
probes: diagonal plants with n <= 2 under strong feedback, started from x0
up to 1e308, whose whole-block spans fail on overflow and are stepped again.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from delaycomp.control import Gain, Setpoint, delay_steps
from delaycomp.robot import LtiPlant
from delaycomp.sim import CONTROLLERS, Scenario, run


def mixed(rng) -> Scenario:
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    A = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
    if rng.random() < 0.5:
        A = np.diag(np.diag(A))
    B = rng.standard_normal((n, m))
    K = rng.standard_normal((m, n)) * rng.uniform(0.1, 5.0)
    if m == n and np.linalg.cond(B) < 1e3:  # place A + B K at -diag(U(0.5, 6))
        K = np.linalg.solve(B, -np.diag(rng.uniform(0.5, 6.0, n)) - A)
    dt = float(rng.choice([0.005, 0.01, 0.02, 0.05]))
    N = int(rng.choice([0, 1, 3, int(rng.integers(1, 121))]))
    steps = int(rng.integers(20, 1500))
    x_star = rng.standard_normal(n) if rng.random() < 0.5 else np.zeros(n)
    return Scenario(
        plant=LtiPlant(A, B, N * dt), gain=Gain(K), setpoint=Setpoint(x_star, np.zeros(m)),
        controller=str(rng.choice(CONTROLLERS)), x0=rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3),
        dt=dt, T=steps * dt, divergence_threshold=float(rng.choice([0.9, 1e6, np.inf])),
        e_max=[None, 0.5, 3.0][int(rng.integers(3))],
    )


def probe(rng) -> Scenario:
    n = int(rng.integers(1, 3))
    A = np.diag(rng.uniform(-2.0, 2.0, n))
    K = -np.diag(rng.uniform(0.5, 60.0, n)) * 10.0 ** rng.uniform(0, 1)
    dt = float(rng.choice([0.01, 0.02, 0.05]))
    N = int(rng.choice([0, 1, int(rng.integers(1, 61))]))
    steps = int(rng.integers(50, 3000))
    controller = str(rng.choice(["nodelay", "naive", "predictor-window", "predictor-zform"], p=[0.2, 0.5, 0.2, 0.1]))
    return Scenario(
        plant=LtiPlant(A, np.eye(n), N * dt), gain=Gain(K), setpoint=Setpoint(np.zeros(n), np.zeros(n)),
        controller=controller, x0=rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(rng.choice([0, 250]), 308, n),
        dt=dt, T=steps * dt, divergence_threshold=np.inf,
    )


def digest(scenario_of, rng) -> tuple[str, ...]:
    """(status, rows, digest, controller, N, e_max) of one run, with the name of the exception that its
    set-up raised in place of the digest."""
    controller = N = e_max = "-"
    try:
        scenario = scenario_of(rng)
        controller, N = scenario.controller, str(delay_steps(scenario.plant.h, scenario.dt))
        e_max = str(scenario.e_max)
        traj, metrics = run(scenario)
    except ValueError as exc:
        return "raised", "-", type(exc).__name__, controller, N, e_max
    h = hashlib.sha256()
    for a in (traj.t, traj.states, traj.controls, traj.predictions):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((traj.status, traj.t_d, metrics)).encode())
    return traj.status, str(len(traj.t)), h.hexdigest()[:20], controller, N, e_max


def main(seed: int, count: int) -> None:
    for i in range(count):
        kind, scenario_of = ("probe", probe) if i % 2 else ("mixed", mixed)
        print(seed, i, kind, *digest(scenario_of, np.random.default_rng([seed, i])))


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
