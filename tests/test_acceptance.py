"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from delaycomp import cli
from delaycomp.control import Gain, design_gain, make_setpoint, origin_setpoint
from delaycomp.robot import LtiPlant, RobotParams, params_to_lti
from delaycomp.sim import Scenario, run, sweep_delay
from delaycomp.smallmat import is_hurwitz, mat_exp

from conftest import plant_window, random_matrix, rk4_zoh_oracle, window_forecast

ROBOT_PARAMS = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)


@contextmanager
def criterion(number, description, max_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[acceptance] criterion {number} ({description}): PASS ({elapsed:.2f}s)")
    assert elapsed < max_seconds, f"criterion {number} took {elapsed:.2f}s, budget {max_seconds}s"


def robot_scenario(controller, h=0.3, dt=0.01, T=10.0):
    plant = params_to_lti(ROBOT_PARAMS, h)
    gain = design_gain(plant, [-5.0, -5.0])
    setpoint = make_setpoint(plant, [1.0, 0.5])
    return Scenario(plant=plant, gain=gain, setpoint=setpoint, controller=controller,
                    x0=np.zeros(2), dt=dt, T=T)


def test_criterion_1_matrix_exponential_oracles():
    with criterion(1, "matrix-exponential identities", 1.0):
        rng = np.random.default_rng(1)
        for _ in range(50):
            for n in (2, 4):
                a = random_matrix(rng, n, 2.0)
                s, t = rng.uniform(-2.0, 2.0, 2)
                semigroup = mat_exp(a, s + t) - mat_exp(a, s) @ mat_exp(a, t)
                assert np.max(np.abs(semigroup)) <= 1e-10
                inverse = mat_exp(a, t) @ mat_exp(a, -t) - np.eye(n)
                assert np.max(np.abs(inverse)) <= 1e-10
                det = np.linalg.det(mat_exp(a, t))
                assert abs(det - math.exp(np.trace(a) * t)) <= 1e-9 * max(1.0, abs(det))
        # diagonal cases against scalar exponentials
        for _ in range(20):
            d = rng.uniform(-3.0, 3.0, 2)
            t = rng.uniform(-2.0, 2.0)
            out = np.diagonal(mat_exp(np.diag(d), t))
            np.testing.assert_allclose(out, np.exp(d * t), rtol=1e-12)


def test_criterion_2_prediction_exactness():
    with criterion(2, "prediction matches brute-force integration", 5.0):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            a = random_matrix(rng, n, 1.5)
            b = random_matrix(rng, n, 1.5)
            dt = float(rng.uniform(0.02, 0.08))
            depth = 10
            plant = LtiPlant(a, b, depth * dt)
            holds = rng.uniform(-1.0, 1.0, (depth, n))
            x = rng.uniform(-1.0, 1.0, n)
            predicted = window_forecast(plant_window(plant, dt), x, holds)
            reference = rk4_zoh_oracle(a, b, x, holds, dt, substeps=1000)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(predicted - reference)) <= 1e-9 * scale


def test_criterion_3_compensation_identity():
    with criterion(3, "delayed loop equals undelayed loop shifted by h", 1.0):
        sc = robot_scenario("predictor-window")
        traj, metrics = run(sc)
        h = 0.3
        shift = round(h / sc.dt)
        acl = sc.plant.A + sc.plant.B @ sc.gain.K
        x_h = traj.states[shift] - sc.setpoint.x_star
        for k in range(shift, len(traj.t)):
            reference = sc.setpoint.x_star + mat_exp(acl, traj.t[k] - h) @ x_h
            assert np.max(np.abs(traj.states[k] - reference)) <= 1e-8
        assert metrics.max_prediction_error is not None
        assert metrics.max_prediction_error <= 1e-9 * (1.0 + float(np.max(np.abs(traj.states))))


def test_criterion_4_instability_and_recovery():
    with criterion(4, "naive loses stability past the delay margin, predictor does not", 5.0):
        plant = lambda h: LtiPlant(np.array([[0.0]]), np.array([[1.0]]), h)
        gain = Gain.for_plant(np.array([[-8.0]]), plant(0.0))

        def scenario(h, controller, T):
            return Scenario(plant=plant(h), gain=gain, setpoint=origin_setpoint(plant(h)),
                            controller=controller, x0=np.array([1.0]), dt=0.01, T=T)

        _, m = run(scenario(0.3, "naive", 25.0))
        assert m.diverged and not m.settled
        _, m = run(scenario(0.1, "naive", 25.0))
        assert m.settled and not m.diverged
        for h in (0.1, 0.3):
            _, m = run(scenario(h, "predictor-window", 25.0))
            assert m.settled and not m.diverged

        grid = [round(0.16 + 0.01 * i, 2) for i in range(8)]  # 0.16 .. 0.23
        results = sweep_delay(scenario(grid[0], "naive", 40.0), grid)
        settled = [m_naive.settled for _, m_naive, _ in results]
        assert all(m_pred.settled for _, _, m_pred in results)
        # the settled flags flip exactly once, bracketing the margin
        assert settled[0] and not settled[-1]
        flip = next(i for i in range(len(settled)) if not settled[i])
        assert settled[flip:] == [False] * (len(settled) - flip)
        margin = math.pi / 16.0
        low, high = grid[flip - 1], grid[flip]
        assert low - 0.01 <= margin <= high + 0.01


def test_criterion_5_regulator_mode_equivalence():
    with criterion(5, "z-form and window-form controls agree", 1.0):
        window, _ = run(robot_scenario("predictor-window", T=3.0))
        zform, _ = run(robot_scenario("predictor-zform", T=3.0))
        scale = 1.0 + np.abs(window.controls)
        assert np.max(np.abs(zform.controls - window.controls) / scale) <= 1e-6


def test_criterion_6_setpoint_steady_state():
    with criterion(6, "terminal state and control at the setpoint", 1.0):
        traj, metrics = run(robot_scenario("predictor-window"))
        assert metrics.settled
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.5], atol=1e-6)
        np.testing.assert_allclose(traj.controls[-1], [0.5, 0.25], atol=1e-6)


def test_criterion_7_gain_design():
    with criterion(7, "pole placement and Hurwitz predicate", 1.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = np.diag(rng.uniform(-3.0, 1.0, 2))
            b = np.diag(rng.uniform(0.5, 3.0, 2) * rng.choice([-1.0, 1.0], 2))
            poles = rng.uniform(-6.0, -0.5, 2)
            plant = LtiPlant(a, b, 0.0)
            g = design_gain(plant, poles)
            placed = np.sort(np.linalg.eigvals(a + b @ g.K).real)
            assert np.max(np.abs(placed - np.sort(poles))) <= 1e-10
        for l1 in (-2.0, -1.0, 0.0, 1.0):
            for l2 in (-2.0, -1.0, 0.0, 1.0):
                assert is_hurwitz(np.diag([l1, l2])) == (l1 < 0 and l2 < 0)


def test_criterion_8_cli_contract(tmp_path, capsys):
    with criterion(8, "CLI config/CSV/exit-code contract", 1.0):
        base = (
            "mass = 1\ninertia = 1\nfriction_v = 1\nfriction_w = 2\n"
            "wheel_base = 0.5\ngain_force = 2\ngain_torque = 4\n"
            "delay = 0.3\nv_ref = 1\nw_ref = 0.5\n"
        )
        cfg = tmp_path / "robot.cfg"
        out = tmp_path / "out"

        # config validation names the offending key
        cfg.write_text(base + "poles = -5,1\n")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "poles" in capsys.readouterr().err
        cfg.write_text(base.replace("delay = 0.3", "delay = 0.25") + "dt = 0.1\n")
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "delay" in capsys.readouterr().err

        # success path: bit-exact header, full-precision reload
        cfg.write_text(base + "horizon = 1\n")
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_OK
        lines = (out / "predictor-window.csv").read_text().splitlines()
        assert lines[0] == "t,v,omega,e_m,e_d,v_pred,omega_pred,x,y,heading"
        from delaycomp.cli import build_scenario, parse_config

        traj, _ = run(build_scenario(parse_config(cfg.read_text())))
        loaded = np.genfromtxt(out / "predictor-window.csv", delimiter=",", names=True)
        assert np.array_equal(loaded["v"], traj.states[:, 0])
        assert np.array_equal(loaded["e_d"], traj.controls[:, 1])

        # divergence exit code
        cfg.write_text(
            base.replace("friction_v = 1", "friction_v = 0").replace("friction_w = 2", "friction_w = 0")
            + "controller = naive\npoles = -8,-8\nhorizon = 30\n"
        )
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == cli.EXIT_DIVERGED

        # I/O and usage exit codes
        assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == cli.EXIT_IO
        cfg.write_text(base)
        assert cli.main(["sweep", "--config", str(cfg), "--h-min", "0.3", "--h-max", "0.1",
                         "--steps", "2"]) == cli.EXIT_USAGE
        capsys.readouterr()
