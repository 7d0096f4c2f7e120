import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp import control
from delaycomp.control import (
    Gain,
    Predictor,
    UnsupportedStructureError,
    delay_steps,
    design_gain,
    equilibrium_input,
    make_setpoint,
    origin_setpoint,
)
from delaycomp.robot import LtiPlant
from delaycomp.sim import Scenario, _zform_factors, matched_gain, run
from delaycomp.smallmat import SingularMatrixError, mat_exp, zoh_discretize

from conftest import random_matrix, rk4_zoh_oracle, window_forecast

ROBOT = LtiPlant(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]), 0.3)


def scalar_plant(a, b, h):
    return LtiPlant(np.array([[a]]), np.array([[b]]), h)


class TestDesignGain:
    def test_scalar_channel(self):
        g = design_gain(scalar_plant(-0.5, 2.0, 0.0), [-3.0])
        assert g.K[0, 0] == pytest.approx(-1.25, abs=1e-15)

    def test_already_at_pole(self):
        g = design_gain(scalar_plant(-1.0, 1.0, 0.0), [-1.0])
        assert g.K[0, 0] == 0.0

    def test_robot(self):
        g = design_gain(ROBOT, [-5.0, -5.0])
        np.testing.assert_allclose(g.K, np.diag([-2.0, -0.75]), atol=1e-15)

    def test_rejects_nonnegative_pole(self):
        with pytest.raises(ValueError):
            design_gain(ROBOT, [-5.0, 1.0])
        with pytest.raises(ValueError):
            design_gain(ROBOT, [-5.0, 0.0])

    def test_rejects_nondiagonal(self):
        plant = LtiPlant(np.array([[-1.0, 0.5], [0.0, -2.0]]), np.diag([2.0, 4.0]), 0.0)
        with pytest.raises(UnsupportedStructureError):
            design_gain(plant, [-5.0, -5.0])

    def test_placed_poles(self, rng):
        for _ in range(25):
            a = np.diag(rng.uniform(-3.0, 1.0, 2))
            b = np.diag(rng.uniform(0.5, 3.0, 2) * rng.choice([-1.0, 1.0], 2))
            poles = rng.uniform(-6.0, -0.5, 2)
            g = design_gain(LtiPlant(a, b, 0.0), poles)
            placed = np.sort(np.linalg.eigvals(a + b @ g.K).real)
            np.testing.assert_allclose(placed, np.sort(poles), atol=1e-10)

    def test_gain_for_plant_rejects_unstable(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            Gain.for_plant(np.zeros((2, 2)), LtiPlant(np.zeros((2, 2)), np.eye(2), 0.0))


class TestEquilibrium:
    def test_example(self):
        u = equilibrium_input(ROBOT, [1.0, 0.5])
        np.testing.assert_allclose(u, [0.5, 0.25], atol=1e-14)

    def test_origin(self):
        np.testing.assert_array_equal(equilibrium_input(ROBOT, [0.0, 0.0]), [0.0, 0.0])

    def test_frictionless(self):
        plant = LtiPlant(np.zeros((2, 2)), np.eye(2), 0.0)
        np.testing.assert_array_equal(equilibrium_input(plant, [3.0, -1.0]), [0.0, 0.0])

    def test_singular_input_matrix(self):
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.ones((2, 2)), 0.0)
        with pytest.raises(SingularMatrixError):
            equilibrium_input(plant, [1.0, 0.5])

    def test_make_setpoint_identity(self):
        sp = make_setpoint(ROBOT, [1.0, 0.5])
        residual = ROBOT.A @ sp.x_star + ROBOT.B @ sp.u_star
        assert np.linalg.norm(residual, np.inf) <= 1e-10

    def test_make_setpoint_origin_past_float_range(self):
        # a row of |A| sums past the float range; x* = 0 has u* = 0 and a zero residual, which passes
        plant = LtiPlant(np.array([[1e308, 1e308], [0.0, -1.0]]), np.eye(2), 0.0)
        assert make_setpoint(plant, [0.0, 0.0]).u_star.tolist() == [0.0, 0.0]

    def test_make_setpoint_rejects_wrong_input(self, monkeypatch):
        # u* = (0.5, 0.25) holds the robot at (1, 0.5); one off by 1e-8 relative fails the residual check
        monkeypatch.setattr(control, "equilibrium_input", lambda plant, x: np.array([0.5, 0.25 * (1 + 1e-8)]))
        with pytest.raises(ValueError, match="steady-state identity violated"):
            make_setpoint(ROBOT, [1.0, 0.5])


def loop_scenario(plant, controller, dt, T, x0, ref=None, K=None):
    gain = design_gain(plant, [-5.0] * plant.n) if K is None else Gain.for_plant(K, plant)
    setpoint = origin_setpoint(plant) if ref is None else make_setpoint(plant, ref)
    return Scenario(plant=plant, gain=gain, setpoint=setpoint, controller=controller,
                    x0=np.asarray(x0, dtype=float), dt=dt, T=T)


def control_record(scenario, traj):
    """The run's step-indexed control record: N rows of u*, then the controls."""
    depth = delay_steps(scenario.plant.h, scenario.dt)
    return np.vstack([np.tile(scenario.setpoint.u_star, (depth, 1)), traj.controls])


class TestDelayLine:
    """The delay line is the run's control record, indexed by step."""

    def test_push_then_read_in_order(self):
        # the plant consumes the controls in the order they were issued,
        # N steps after issue
        sc = loop_scenario(ROBOT, "naive", 0.05, 2.0, [0.3, -0.2], ref=[1.0, 0.5])
        traj, _ = run(sc)
        ad, bd = zoh_discretize(ROBOT.A, ROBOT.B, sc.dt)
        depth = delay_steps(ROBOT.h, sc.dt)
        for k in range(depth, len(traj.t) - 1):
            expected = ad @ traj.states[k] + bd @ traj.controls[k - depth]
            np.testing.assert_allclose(traj.states[k + 1], expected, rtol=1e-14, atol=1e-15)

    def test_prefill(self):
        # over [0, h) the plant consumes u*, the record's first N rows
        sc = loop_scenario(ROBOT, "naive", 0.05, 1.0, [0.0, 0.0], ref=[1.0, 0.5])
        traj, _ = run(sc)
        ad, bd = zoh_discretize(ROBOT.A, ROBOT.B, sc.dt)
        x = sc.x0
        for k in range(delay_steps(ROBOT.h, sc.dt)):
            x = ad @ x + bd @ sc.setpoint.u_star
            np.testing.assert_allclose(traj.states[k + 1], x, rtol=1e-14, atol=1e-15)

    def test_lookup_piecewise_constant_right_open(self):
        # the control issued at t_k is held over [t_k, t_k + dt); the nodelay
        # controller reads it at once (lag 0)
        sc = loop_scenario(ROBOT, "nodelay", 0.05, 1.0, [0.3, -0.2], ref=[1.0, 0.5])
        traj, _ = run(sc)
        ad, bd = zoh_discretize(ROBOT.A, ROBOT.B, sc.dt)
        for k in range(len(traj.t) - 1):
            expected = ad @ traj.states[k] + bd @ traj.controls[k]
            np.testing.assert_allclose(traj.states[k + 1], expected, rtol=1e-14, atol=1e-15)

    def test_invariants(self):
        assert delay_steps(0.3, 0.1) == 3
        assert delay_steps(0.0, 0.1) == 0
        assert delay_steps(0.3, 0.001) == 300
        with pytest.raises(ValueError, match="multiple"):
            delay_steps(0.25, 0.1)
        assert Predictor(ROBOT, 0.01).depth == 30

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 30))
    def test_window_reproduces_last_pushes(self, depth, steps):
        # the forecast at step k uses the last N issued controls, oldest
        # first, padded at the start with u*
        dt = 0.05
        plant = scalar_plant(-1.0, 1.0, depth * dt)
        sc = loop_scenario(plant, "predictor-window", dt, steps * dt, [0.5], ref=[0.2])
        traj, _ = run(sc)
        record = control_record(sc, traj)
        pred = Predictor(plant, dt)
        for k in range(len(traj.t)):
            np.testing.assert_allclose(window_forecast(pred, traj.states[k], record[k:k + depth]),
                                       traj.predictions[k], rtol=1e-14, atol=1e-15)


class TestPredictState:
    def test_zero_delay(self):
        plant = scalar_plant(-1.0, 1.0, 0.0)
        out = window_forecast(Predictor(plant, 0.1), np.array([1.0]), np.empty((0, 1)))
        assert out[0] == 1.0

    def test_zero_history_is_homogeneous(self):
        plant = LtiPlant(np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]), 0.3)
        out = window_forecast(Predictor(plant, 0.05), np.array([1.0, 1.0]), np.zeros((6, 2)))
        expected = mat_exp(plant.A, 0.3) @ np.array([1.0, 1.0])
        np.testing.assert_allclose(out, expected, rtol=1e-13)

    def test_constant_input_closed_form(self):
        h = math.log(2.0)
        n = 8
        plant = scalar_plant(-1.0, 1.0, h)
        out = window_forecast(Predictor(plant, h / n), np.array([1.0]), np.full((n, 1), 2.0))
        assert out[0] == pytest.approx(1.5, abs=1e-12)

    def test_mismatched_history(self):
        # the window length comes from (plant, dt), so a delay that no whole
        # number of samples covers is rejected when the predictor is built
        with pytest.raises(ValueError, match="multiple"):
            Predictor(scalar_plant(-1.0, 1.0, 0.25), 0.1)

    def test_exact_against_brute_force(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = random_matrix(rng, n, 1.5)
            b = random_matrix(rng, n, 1.5)
            dt = float(rng.uniform(0.02, 0.08))
            depth = 10
            plant = LtiPlant(a, b, depth * dt)
            holds = rng.uniform(-1.0, 1.0, (depth, n))
            x = rng.uniform(-1.0, 1.0, n)
            predicted = window_forecast(Predictor(plant, dt), x, holds)
            reference = rk4_zoh_oracle(a, b, x, holds, dt, substeps=200)
            np.testing.assert_allclose(predicted, reference, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 31, 100, 1000])
    @pytest.mark.parametrize("kind", ["unstable", "non-normal"])
    def test_doubling_matches_sequential_product(self, rng, depth, kind):
        # G's blocks are exponentials at grid times; the reference is one
        # Ad @ block per step
        if kind == "unstable":
            a = random_matrix(rng, 3, 2.0) + 0.5 * np.eye(3)
            b = random_matrix(rng, 3, 1.5)[:, :2]
        else:
            a, b = np.array([[0.3, 20.0], [0.0, 0.3]]), np.array([[0.0], [1.0]])
        dt = 0.01
        pred = Predictor(LtiPlant(a, b, depth * dt), dt)
        (n, m), block = b.shape, pred.Bd
        expected = np.empty((n, depth * m))
        for i in reversed(range(depth)):
            expected[:, i * m:(i + 1) * m] = block
            block = pred.Ad @ block
        assert pred.G.shape == expected.shape
        scale = np.max(np.abs(expected), initial=0.0)
        assert np.max(np.abs(pred.G - expected), initial=0.0) <= 1e-12 * scale


class TestRegulator:
    def test_fixed_point_at_setpoint(self):
        sp = make_setpoint(ROBOT, [1.0, 0.5])
        out = window_forecast(Predictor(ROBOT, 0.01), sp.x_star, np.tile(sp.u_star, (30, 1)))
        np.testing.assert_allclose(out, sp.x_star, atol=1e-12)
        traj, _ = run(loop_scenario(ROBOT, "predictor-window", 0.01, 0.5, sp.x_star, ref=sp.x_star))
        np.testing.assert_allclose(traj.controls, np.tile(sp.u_star, (len(traj.t), 1)), atol=1e-12)

    def test_zero_delay_reduces_to_state_feedback(self):
        plant = LtiPlant(ROBOT.A, ROBOT.B, 0.0)
        pred, _ = run(loop_scenario(plant, "predictor-window", 0.01, 1.0, [0.2, -0.4], ref=[1.0, 0.5]))
        naive, _ = run(loop_scenario(plant, "naive", 0.01, 1.0, [0.2, -0.4], ref=[1.0, 0.5]))
        np.testing.assert_allclose(pred.controls, naive.controls, atol=1e-15)
        np.testing.assert_allclose(pred.predictions, pred.states, atol=1e-15)

    def test_scalar_chain(self):
        # x* = 2 gives u* = 2: a constant history 2 on a log(2)-second window
        # predicts 1.5 from x = 1, and the first control is u* + Kd (1.5 - 2)
        h = math.log(2.0)
        plant = scalar_plant(-1.0, 1.0, h)
        K = np.array([[-1.0]])
        sc = loop_scenario(plant, "predictor-window", h / 8, h, [1.0], ref=[2.0], K=K)
        traj, _ = run(sc)
        assert traj.predictions[0, 0] == pytest.approx(1.5, abs=1e-12)
        kd = matched_gain(plant, K, sc.dt)[0, 0]
        assert traj.controls[0, 0] == pytest.approx(2.0 - 0.5 * kd, abs=1e-12)

    def test_step_scalar_integral(self):
        plant = scalar_plant(-1.0, 1.0, 0.3)
        exp_t, z_gain = _zform_factors(plant.A, plant.B, 0.1, np.array([0.0, 0.1]))
        assert z_gain[0] @ np.array([1.0]) == pytest.approx([math.e**0.1 - 1.0], rel=1e-12)
        # dz = e^{-At} dz(0) on a later interval
        later = (z_gain[1] @ np.array([1.0]))[0]
        assert later == pytest.approx(math.e**0.1 * (math.e**0.1 - 1.0), rel=1e-12)
        np.testing.assert_allclose(exp_t[:, 0, 0], [1.0, math.e**-0.1], rtol=1e-15)

    def test_step_zero_input(self):
        plant = scalar_plant(-1.0, 1.0, 0.3)
        _, z_gain = _zform_factors(plant.A, plant.B, 0.1, np.array([0.4]))
        assert (z_gain[0] @ np.zeros(1))[0] == 0.0

    def test_factors_come_from_each_time(self, rng):
        # one batched call gives, for every t_k, exactly the exponentials
        # computed from t_k on its own
        plant = LtiPlant(np.array([[-1.0, 0.5], [0.0, 0.3]]), np.array([[1.0], [0.5]]), 0.2)
        t = np.sort(rng.uniform(0.0, 40.0, 50))
        exp_t, z_gain = _zform_factors(plant.A, plant.B, 0.05, t)
        gamma = zoh_discretize(-plant.A, plant.B, 0.05)[1]
        for k in range(len(t)):
            np.testing.assert_array_equal(exp_t[k], mat_exp(plant.A, t[k]))
            np.testing.assert_allclose(z_gain[k], mat_exp(plant.A, -t[k]) @ gamma, rtol=1e-14)

    def test_modes_agree_on_random_history(self, rng):
        # feed both realizations the same applied-control sequence, indexed by
        # step as in the run loop, and check their forecasts coincide
        plant = LtiPlant(np.array([[-1.0, 0.5], [0.0, 0.3]]), np.array([[1.0], [0.5]]), 0.2)
        dt, steps = 0.05, 40
        pred = Predictor(plant, dt)
        depth = pred.depth
        record = np.zeros((depth + steps, 1))
        record[depth:] = rng.uniform(-1.0, 1.0, (steps, 1))
        z = np.zeros((depth + steps + 1, 2))
        exp_t, z_gain = _zform_factors(plant.A, plant.B, dt, np.arange(steps) * dt)
        for k in range(steps):
            x = rng.uniform(-1.0, 1.0, 2)
            window = window_forecast(pred, x, record[k:depth + k])
            zform = pred.exp_h @ x + exp_t[k] @ (z[depth + k] - z[k])
            np.testing.assert_allclose(zform, window, rtol=1e-9, atol=1e-12)
            z[depth + k + 1] = z[depth + k] + z_gain[k] @ record[depth + k]

    def test_naive_control(self):
        # plain state feedback through the discrete-matched gain, ignoring the delay
        sc = loop_scenario(ROBOT, "naive", 0.01, 1.0, [0.0, 0.0], ref=[1.0, 0.5])
        traj, _ = run(sc)
        kd = matched_gain(ROBOT, sc.gain.K, sc.dt)
        expected = sc.setpoint.u_star + (traj.states - sc.setpoint.x_star) @ kd.T
        np.testing.assert_allclose(traj.controls, expected, atol=1e-15)
        zero_gain = Scenario(plant=sc.plant, gain=Gain(np.zeros((2, 2))), setpoint=sc.setpoint,
                             controller="naive", x0=np.array([9.0, -9.0]), dt=0.01, T=0.1)
        traj, _ = run(zero_gain)
        np.testing.assert_allclose(traj.controls, np.tile(sc.setpoint.u_star, (len(traj.t), 1)))


# (1, 1) K on an n = 2, m = 1 plant: unchecked, A + B K would broadcast to 2 x 2
TWO_STATES_ONE_INPUT = LtiPlant(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]), 0.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: Gain(np.array([[-1.0, np.inf]])), ValueError, "non-finite"),
    (lambda: Gain(np.array([[np.nan]])), ValueError, "non-finite"),
    (lambda: Gain.for_plant(np.array([[-1.0]]), TWO_STATES_ONE_INPUT), ValueError, r"gain shape \(1, 1\)"),
    (lambda: equilibrium_input(TWO_STATES_ONE_INPUT, [1.0, 0.0]), UnsupportedStructureError, "square input"),
])
def test_boundary_checks_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
