import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delaycomp.control import (
    Gain,
    Setpoint,
    design_gain,
    make_setpoint,
    origin_setpoint,
)
from delaycomp import cli, sim, smallmat
from delaycomp.robot import LtiPlant, params_to_lti, RobotParams
from delaycomp.sim import (
    CONTROLLERS,
    Metrics,
    Scenario,
    Trajectory,
    _LIFT_COLS,
    _SCAN_BLOCK,
    _block_length,
    compute_metrics,
    matched_gain,
    run,
    sweep_delay,
)
from delaycomp.smallmat import mat_exp, solve, zoh_discretize

from conftest import run_oracle, step_plant_exact, step_plant_rk4

ROBOT_PARAMS = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)
# two states, one input: Bd is not square
SINGLE_INPUT = LtiPlant(np.array([[-1.0, 0.5], [0.0, 0.3]]), np.array([[1.0], [0.5]]), 0.2)


def robot_scenario(controller, h=0.3, dt=0.01, T=10.0, x0=(0.0, 0.0), ref=(1.0, 0.5), params=ROBOT_PARAMS,
                   poles=(-5.0, -5.0)):
    plant = params_to_lti(params, h)
    gain = design_gain(plant, list(poles))
    setpoint = make_setpoint(plant, list(ref))
    return Scenario(plant=plant, gain=gain, setpoint=setpoint, controller=controller,
                    x0=np.array(x0, dtype=float), dt=dt, T=T)


def scalar_scenario(controller, a=0.0, b=1.0, k=-8.0, h=0.3, dt=0.01, T=10.0):
    plant = LtiPlant(np.array([[a]]), np.array([[b]]), h)
    gain = Gain.for_plant(np.array([[k]]), plant)
    return Scenario(plant=plant, gain=gain, setpoint=origin_setpoint(plant),
                    controller=controller, x0=np.array([1.0]), dt=dt, T=T)


def fold_overflow_scenario(x0, T=6000.0):
    """A nodelay run whose closed-loop powers overflow before its state.

    B is not square, so the loop keeps the design gain, and at dt = 20
    rho(Ad + Bd K) = 457: the 128th power of the closed loop overflows long
    before the state does."""
    plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 0.0)
    return Scenario(plant=plant, gain=Gain.for_plant(np.array([[-2.0, -3.0]]), plant),
                    setpoint=origin_setpoint(plant), controller="nodelay", x0=np.array(x0),
                    dt=20.0, T=T, divergence_threshold=math.inf)


class TestExactZohStep:
    """The exact ZOH step the run loop takes, x+ = Ad x + Bd u."""

    def test_equilibrium(self):
        plant = params_to_lti(ROBOT_PARAMS, 0.0)
        sp = make_setpoint(plant, [1.0, 0.5])
        out = step_plant_exact(plant, sp.x_star, sp.u_star, 0.5)
        np.testing.assert_allclose(out, sp.x_star, atol=1e-14)

    def test_homogeneous_decay(self):
        plant = params_to_lti(ROBOT_PARAMS, 0.0)
        out = step_plant_exact(plant, [1.0, 1.0], [0.0, 0.0], 0.5)
        np.testing.assert_allclose(out, [0.6065306597126334, 0.36787944117144233], rtol=1e-12)

    def test_pure_integrator(self):
        plant = LtiPlant(np.zeros((2, 2)), np.eye(2), 0.0)
        out = step_plant_exact(plant, [0.0, 0.0], [1.0, 2.0], 0.1)
        np.testing.assert_allclose(out, [0.1, 0.2], rtol=1e-14)


class TestMatchedGain:
    def test_reproduces_continuous_closed_loop(self):
        plant = params_to_lti(ROBOT_PARAMS, 0.3)
        K = design_gain(plant, [-5.0, -5.0]).K
        dt = 0.01
        ad, bd = step = zoh_discretize(plant.A, plant.B, dt)
        kd = matched_gain(plant, K, dt, step)
        np.testing.assert_allclose(ad + bd @ kd, mat_exp(plant.A + plant.B @ K, dt), atol=1e-14)

    def test_converges_to_design_gain(self):
        plant = params_to_lti(ROBOT_PARAMS, 0.0)
        K = design_gain(plant, [-5.0, -5.0]).K
        for dt, tol in ((1e-3, 1e-1), (1e-5, 1e-3)):
            assert np.max(np.abs(matched_gain(plant, K, dt, zoh_discretize(plant.A, plant.B, dt)) - K)) < tol

    def test_non_square_input_keeps_design_gain(self):
        K = np.array([[-2.0, -3.0]])
        step = zoh_discretize(SINGLE_INPUT.A, SINGLE_INPUT.B, 0.01)
        np.testing.assert_array_equal(matched_gain(SINGLE_INPUT, K, 0.01, step), K)

    def test_singular_input_keeps_design_gain(self):
        plant = LtiPlant(SINGLE_INPUT.A, np.array([[1.0, 1.0], [0.0, 0.0]]), 0.2)
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matched_gain(plant, K, 0.01, zoh_discretize(plant.A, plant.B, 0.01)), K)

    def test_overflowing_diagonal_loop_raises(self):
        # e^{(A + B K) dt} overflows: the diagonal path leaves the loop to
        # solve, which rejects the non-finite right-hand side
        plant = LtiPlant(np.eye(2), np.eye(2), 0.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            matched_gain(plant, np.diag([1000.0, 0.0]), 1.0, zoh_discretize(plant.A, plant.B, 1.0))

    def test_diagonal_loop_matches_solve(self, rng):
        # a diagonal Bd and A + B K give Kd entry by entry; it must be the
        # general solve's answer to rounding, for rates a_i < 0, = 0 and > 0
        robot = params_to_lti(ROBOT_PARAMS, 0.3)
        loops = [(robot, design_gain(robot, [-5.0, -5.0]).K, 0.01)]
        for dt in np.r_[1e-3, 1.0, 10.0 ** rng.uniform(-3.0, 0.0, 38)]:
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
            a[:3] = [-1.5, 0.0, 2.0][:n]
            b = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
            k = (-rng.uniform(0.5, 6.0, n) - a) / b
            loops.append((LtiPlant(np.diag(a), np.diag(b), 0.0), np.diag(k), float(dt)))
        for plant, K, dt in loops:
            ad, bd = step = zoh_discretize(plant.A, plant.B, dt)
            expected = np.linalg.solve(bd, mat_exp(plant.A + plant.B @ K, dt) - ad)
            assert np.max(np.abs(matched_gain(plant, K, dt, step) - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_diagonal_singular_input_keeps_design_gain(self):
        # min |bd| < 1e-12 max |bd|: solve's singular rule holds on the
        # diagonal path too
        plant = LtiPlant(-np.eye(2), np.diag([1.0, 1e-14]), 0.0)
        K = np.diag([-1.0, 0.0])
        np.testing.assert_array_equal(matched_gain(plant, K, 0.01, zoh_discretize(plant.A, plant.B, 0.01)), K)


def same_bits(x, y):
    """Equal shape, dtype and bytes: NaN-equal, and a signed zero counts."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestScenarioLoop:
    """Scenario.loop is the public pair (zoh_discretize, matched_gain) without
    zoh_discretize's checks, which the Scenario's plant already ran."""

    def test_diagonal_loops_match_public_pair(self, monkeypatch):
        rng = np.random.default_rng(19)
        public, checked, counts = zoh_discretize, [], {"same": 0, "raised": 0, "kept K": 0}

        def counted(*args):
            checked.append(args)
            return public(*args)
        monkeypatch.setattr(smallmat, "zoh_discretize", counted)
        for i in range(600):
            n = i % 3 + 1
            a = rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
            if i % 4 == 0:
                a[rng.integers(n)] = 0.0
            b = 10.0 ** rng.uniform(-14.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
            dt = float(10.0 ** rng.uniform(-4.0, 3.0))
            # a Hurwitz design, or any gain: an unstable loop overflows at long dt
            k = (-rng.uniform(0.1, 10.0, n) - a) / b if i % 3 else rng.uniform(-5.0, 5.0, n)
            plant = LtiPlant(np.diag(a), np.diag(b), 0.0)
            sc = Scenario(plant=plant, gain=Gain(np.diag(k)), setpoint=origin_setpoint(plant),
                          controller="nodelay", x0=np.zeros(n), dt=dt, T=dt)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    step = public(plant.A, plant.B, dt)
                    want = step + (matched_gain(plant, sc.gain.K, dt, step),)
                except ValueError as exc:
                    with pytest.raises(type(exc)):
                        sc.loop
                    counts["raised"] += 1
                    continue
            got = sc.loop  # under the loop's own errstate: no warning fails the test
            assert all(map(same_bits, got, want)), (a, b, k, dt)
            counts["same"] += 1
            counts["kept K"] += got[2] is sc.gain.K  # Bd singular by solve's rule
        assert counts["same"] >= 500 and counts["raised"] > 0 and counts["kept K"] > 0
        # no diagonal loop, raising or not, goes through the checked discretization
        assert not checked

    def test_robot_skips_zoh_checks(self, monkeypatch):
        sc = robot_scenario("nodelay")
        step = zoh_discretize(sc.plant.A, sc.plant.B, sc.dt)
        want = step + (matched_gain(sc.plant, sc.gain.K, sc.dt, step),)
        monkeypatch.setattr(smallmat, "zoh_discretize", None)
        assert all(map(same_bits, sc.loop, want))


class TestRun:
    def test_constant_at_setpoint(self):
        sc = robot_scenario("nodelay", x0=(1.0, 0.5), T=1.0)
        traj, metrics = run(sc)
        np.testing.assert_allclose(traj.states, np.tile([1.0, 0.5], (len(traj.t), 1)), atol=1e-12)
        assert metrics.settled and metrics.settling_time == 0.0

    def test_nodelay_matches_exponential_oracle(self):
        sc = robot_scenario("nodelay", h=0.0, x0=(0.5, -0.25), ref=(0.0, 0.0), T=2.0)
        traj, _ = run(sc)
        acl = sc.plant.A + sc.plant.B @ sc.gain.K
        for k in range(len(traj.t)):
            expected = mat_exp(acl, traj.t[k]) @ sc.x0
            np.testing.assert_allclose(traj.states[k], expected, atol=1e-10)

    def test_predictor_matches_nodelay_shifted(self):
        # from t = h on, the compensated loop is the undelayed loop started
        # from x(h)
        h, dt = 0.3, 0.01
        pred, _ = run(robot_scenario("predictor-window", h=h, dt=dt, T=5.0))
        shift = round(h / dt)
        node, _ = run(robot_scenario("nodelay", h=0.0, dt=dt, T=5.0, x0=tuple(pred.states[shift])))
        m = len(pred.states) - shift
        np.testing.assert_allclose(pred.states[shift:], node.states[:m], atol=1e-8)

    def test_prediction_pairs_exact(self):
        traj, metrics = run(robot_scenario("predictor-window"))
        assert metrics.max_prediction_error is not None
        assert metrics.max_prediction_error <= 1e-9 * (1.0 + np.max(np.abs(traj.states)))

    def test_naive_beyond_margin_diverges(self):
        _, naive = run(scalar_scenario("naive", h=0.3, T=25.0))
        assert naive.diverged and not naive.settled
        _, pred = run(scalar_scenario("predictor-window", h=0.3))
        assert pred.settled and not pred.diverged

    def test_determinism(self):
        t1, _ = run(robot_scenario("predictor-zform", T=2.0))
        t2, _ = run(robot_scenario("predictor-zform", T=2.0))
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.controls, t2.controls)

    def test_saturation_clips_controls(self):
        sc = robot_scenario("predictor-window", T=2.0)
        sc_sat = Scenario(plant=sc.plant, gain=sc.gain, setpoint=sc.setpoint,
                          controller=sc.controller, x0=sc.x0, dt=sc.dt, T=sc.T, e_max=0.6)
        traj, _ = run(sc_sat)
        assert np.max(np.abs(traj.controls)) <= 0.6 + 1e-15

    def test_affine_equivariance(self):
        shifted, _ = run(robot_scenario("predictor-window", x0=(0.0, 0.0), ref=(1.0, 0.5), T=2.0))
        plant = params_to_lti(ROBOT_PARAMS, 0.3)
        sp = make_setpoint(plant, [1.0, 0.5])
        origin, _ = run(robot_scenario("predictor-window", x0=(-1.0, -0.5), ref=(0.0, 0.0), T=2.0))
        np.testing.assert_allclose(shifted.states - sp.x_star, origin.states, atol=1e-12)
        np.testing.assert_allclose(shifted.controls - sp.u_star, origin.controls, atol=1e-12)

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_single_input_plant(self, controller):
        # Bd is 2 x 1, so the loop runs on the design gain K
        gain = Gain.for_plant(np.array([[-2.0, -3.0]]), SINGLE_INPUT)
        sc = Scenario(plant=SINGLE_INPUT, gain=gain, setpoint=origin_setpoint(SINGLE_INPUT),
                      controller=controller, x0=np.array([1.0, -0.5]), dt=0.01, T=5.0)
        traj, metrics = run(sc)
        assert len(traj.t) == 501 and traj.status == "completed"
        if controller.startswith("predictor"):
            assert metrics.max_prediction_error <= 1e-12
        else:
            assert metrics.max_prediction_error is None

    def test_scalar_initial_state(self):
        # a 0-d x0 is a scalar plant's state, as a 1-vector is
        sc = scalar_scenario("predictor-window", a=2.0)
        (a, _), (b, _) = run(replace(sc, x0=1.0)), run(replace(sc, x0=[1.0]))
        for name in ("t", "states", "controls", "predictions"):
            assert same_bits(getattr(a, name), getattr(b, name)), name

    def test_delay_must_align_with_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            robot_scenario("naive", h=0.25, dt=0.1)

    @pytest.mark.parametrize("field,value", [
        ("controller", "magic"),
        ("dt", 0.0),
        ("divergence_threshold", 0.0),
        ("e_max", -1.0),
        ("gain", Gain(np.eye(3))),
        ("setpoint", Setpoint(np.zeros(3), np.zeros(2))),
        # x0 must be finite and of the state's length
        *[("x0", x0) for x0 in ([np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0, 0.0], [0.0])],
    ])
    def test_rejects_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(robot_scenario("naive"), **{field: value})


class TestOffGridDelay:
    """A delay within 1e-9 s of N dt is accepted, then simulated and forecast
    as N dt, so each forecast still matches the state realized N steps on."""

    @pytest.mark.parametrize("controller", ["predictor-window", "predictor-zform"])
    def test_robot(self, controller):
        traj, metrics = run(robot_scenario(controller, h=0.3000000009, ref=(10.0, 5.0)))
        assert traj.status == "completed"
        assert metrics.max_prediction_error <= 1e-9

    @pytest.mark.parametrize("gap", [-9e-10, 9e-10])
    def test_unstable_scalar(self, gap):
        # dx/dt = 3 x + u(t - h): the forecast's e^{3 h} magnifies a gap
        # between h and N dt
        traj, metrics = run(scalar_scenario("predictor-window", a=3.0, h=0.3 + gap, T=5.0))
        assert traj.status == "completed"
        assert metrics.max_prediction_error <= 1e-9 * (1.0 + np.max(np.abs(traj.states)))


class TestLongHorizon:
    """The delay line is indexed by step, so no clock can drift at any horizon."""

    @pytest.mark.parametrize("controller", ["naive", "predictor-window"])
    @pytest.mark.parametrize("dt,T,h", [(0.01, 100.0, 0.3), (0.001, 10.0, 0.3), (0.007, 90.0, 0.294)])
    def test_completes_past_former_clock_drift(self, controller, dt, T, h):
        traj, metrics = run(robot_scenario(controller, h=h, dt=dt, T=T))
        assert traj.status == "completed"
        assert len(traj.t) == round(T / dt) + 1
        if controller == "predictor-window":
            assert metrics.max_prediction_error <= 1e-9

    def test_zform_horizon_bound(self):
        # ||A||_inf T = 800 on the robot: e^{+-At} would overflow, but the
        # z form's factors span one block, so it has no horizon bound
        window, _ = run(robot_scenario("predictor-window", dt=0.1, T=400.0))
        traj, metrics = run(robot_scenario("predictor-zform", dt=0.1, T=400.0))
        assert (traj.status, len(traj.t)) == (window.status, len(window.t)) == ("completed", 4001)
        assert metrics.max_prediction_error <= 1e-9

    def test_nonfinite_state_ends_as_diverged(self):
        plant = LtiPlant(np.array([[50.0]]), np.array([[1.0]]), 1.0)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-51.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="naive", x0=np.array([1.0]),
                      dt=0.01, T=30.0, divergence_threshold=math.inf)
        traj, metrics = run(sc)
        assert traj.status == "diverged" and metrics.diverged
        assert np.all(np.isfinite(traj.states))
        # t_d is the time of the first non-finite state, one step after the
        # last recorded one
        assert traj.t_d == pytest.approx(len(traj.t) * sc.dt)
        ad, bd = zoh_discretize(plant.A, plant.B, sc.dt)
        with np.errstate(over="ignore", invalid="ignore"):
            first_nonfinite = ad @ traj.states[-1] + bd @ traj.controls[len(traj.t) - 1 - 100]
        assert not np.all(np.isfinite(first_nonfinite))

    @pytest.mark.parametrize("controller,h", [
        ("nodelay", 0.1), ("naive", 0.0), ("predictor-window", 0.0),
    ])
    def test_control_overflow_ends_as_diverged(self, controller, h):
        # Kd x0 overflows from a finite x0, so u_0 = -inf and the plant step
        # would make x_1 non-finite, though e^{(A + B K) dt} x0 is finite
        sc = replace(scalar_scenario(controller, h=h, T=1.0), x0=np.array([5e307]),
                     divergence_threshold=math.inf)
        traj, metrics = run(sc)
        assert (traj.status, traj.t_d, len(traj.t)) == ("diverged", 0.01, 1)
        assert metrics.diverged
        np.testing.assert_array_equal(traj.controls, [[-np.inf]])
        # a finite control keeps the run going
        traj, _ = run(replace(sc, x0=np.array([1e307])))
        assert (traj.status, len(traj.t)) == ("completed", 101)

    def test_dt_past_float_range_raises_no_warning(self):
        # a_i dt = -2e308 overflows to -inf in the set-up: Ad = 0, Bd = -B / a
        # and Kd = 0, so every form reaches x_1 = 0 with zero controls; none
        # may warn, in run or in sweep_delay
        plant = LtiPlant(np.diag([-2.0, -1.0]), np.eye(2), 0.0)
        base = Scenario(plant=plant, gain=Gain.for_plant(-np.eye(2), plant), setpoint=origin_setpoint(plant),
                        controller="nodelay", x0=np.array([1.0, -1.0]), dt=1e308, T=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = {c: run(replace(base, controller=c))[0] for c in CONTROLLERS}
            [(_, m_naive, m_pred)] = sweep_delay(base, [0.0])
        for controller, traj in runs.items():
            assert (traj.status, len(traj.t)) == ("completed", 2)
            np.testing.assert_array_equal(traj.states, [[1.0, -1.0], [0.0, 0.0]])
            np.testing.assert_array_equal(traj.controls, np.zeros((2, 2)))
        assert not (m_naive.diverged or m_pred.diverged)

    @pytest.mark.parametrize("x0,status,samples,t_d", [
        ((0.0, 0.0), "completed", 301, None),
        ((1e-300, 0.0), "diverged", 229, 4580.0),
        ((1.0, 0.0), "diverged", 116, 2320.0),
    ])
    def test_fold_power_overflow(self, x0, status, samples, t_d):
        # a power block past the first infinite power would multiply x0 = 0
        # by inf and end every run as diverged after 116 samples; the run
        # must end where one closed-loop product per step ends it, without a
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, metrics = run(fold_overflow_scenario(x0))
        assert (traj.status, len(traj.t), traj.t_d) == (status, samples, t_d)
        assert metrics.diverged == (status == "diverged")

    @staticmethod
    def stepped_rows(monkeypatch) -> list:
        """The lengths of the runs of rows that sim._steps steps one at a time."""
        rows, steps = [], sim._steps

        def counted(*args):
            step = steps(*args)

            def counting(k0, k1):
                rows.append(k1 - k0)
                step(k0, k1)
            return counting
        monkeypatch.setattr(sim, "_steps", counted)
        return rows

    @pytest.mark.parametrize("T", [6000.0, 60000.0])
    @pytest.mark.parametrize("x0", [(1e-300, 0.0), (1.0, 0.0)])
    def test_fold_restep_within_scan_block(self, monkeypatch, x0, T):
        # a failed fold block is stepped again from the _SCAN_BLOCK window
        # holding its first failing row, and the blocks after it are no
        # longer than _SCAN_BLOCK, so a diverging run steps at most
        # _SCAN_BLOCK rows one at a time
        rows = self.stepped_rows(monkeypatch)
        traj, _ = run(fold_overflow_scenario(x0, T))
        assert traj.status == "diverged"
        assert 0 < sum(rows) <= _SCAN_BLOCK

    @pytest.mark.parametrize("T", [6000.0, 60000.0])
    def test_fold_restep_once_on_completing_run(self, monkeypatch, T):
        # x0 = 0 completes, but F^128 overflows, and 0 * inf = NaN fails every
        # fold block that reaches it; the first failure passed rows built from
        # F .. F^64 alone, so the blocks after it stop there and one _SCAN_BLOCK
        # window is stepped one row at a time
        rows = self.stepped_rows(monkeypatch)
        traj, metrics = run(fold_overflow_scenario((0.0, 0.0), T))
        assert (traj.status, len(traj.t)) == ("completed", round(T / 20.0) + 1)
        assert not metrics.diverged and np.all(traj.states == 0.0)
        assert 0 < sum(rows) <= _SCAN_BLOCK

    @pytest.mark.parametrize("controller,h", [("nodelay", 0.0), ("naive", 0.3)])
    def test_state_past_threshold_after_horizon(self, monkeypatch, controller, h):
        # dx/dt = x with K = 0: x_k = e^{k dt} first passes the threshold at row 1001 = steps + 1,
        # which is not recorded, so the run completes as it does at threshold inf. Its fold
        # (nodelay) or lifted (naive) spans pass their checks, and no row is stepped one at a time
        plant = LtiPlant(np.array([[1.0]]), np.array([[1.0]]), h)
        sc = Scenario(plant=plant, gain=Gain(np.array([[0.0]])), setpoint=origin_setpoint(plant),
                      controller=controller, x0=np.array([1.0]), dt=0.01, T=10.0, divergence_threshold=math.inf)
        rows = self.stepped_rows(monkeypatch)
        traj, metrics = run(replace(sc, divergence_threshold=math.exp(10.0) * 1.004))
        assert (traj.status, len(traj.t), sum(rows)) == ("completed", 1001, 0)
        unbounded, unbounded_metrics = run(sc)
        for got, want in ((traj.states, unbounded.states), (traj.controls, unbounded.controls),
                          (traj.predictions, unbounded.predictions)):
            np.testing.assert_array_equal(got, want)
        assert metrics == unbounded_metrics

    def test_lifted_rows_within_twice_the_run(self, monkeypatch):
        # robot.cfg without friction and with poles at -8 is past naive feedback's delay margin:
        # the 400 s run diverges at row 1496. Lifted runs are checked once per span of L, 2L,
        # 4L, ... rows, and a failed span is stepped again block by block, so the rows the
        # lifted stepper steps stay within twice the rows up to the first failing block
        rows, lift = [], sim._lift

        def counted(*args):
            block, step = lift(*args)

            def counting(k0, k1):
                rows.append(k1 - k0)
                step(k0, k1)
            return block, counting
        monkeypatch.setattr(sim, "_lift", counted)
        params = replace(ROBOT_PARAMS, B_v=0.0, B_omega=0.0)
        traj, _ = run(robot_scenario("naive", T=400.0, params=params, poles=(-8.0, -8.0)))
        assert (traj.status, len(traj.t)) == ("diverged", 1497)
        L = min(_SCAN_BLOCK, _LIFT_COLS // 4)  # A = 0; n + m = 4
        assert sum(rows) <= 2 * L * math.ceil(1496 / L)


@st.composite
def general_plants(draw):
    """(A, B, K) with n <= 4 states: A = randn * U(0.1, 2), often unstable,
    B = randn, and K placing A + B K at -diag(U(1, 6))."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) * rng.uniform(0.1, 2.0)
    B = rng.standard_normal((n, n))
    assume(np.linalg.cond(B) < 1e3)
    return A, B, solve(B, -np.diag(rng.uniform(1.0, 6.0, n)) - A)


class TestForecastForms:
    """Both forecast forms are exact at any horizon, and the z form ends
    each run as the window form does."""

    @pytest.mark.parametrize("friction_v", [1e5, 1e6])
    def test_fast_stable_mode(self, friction_v):
        # ||A||_inf dt = 1000 and 10000, so the z form's blocks are one step long; its input
        # factor e^{-A dt} Gamma would overflow, and each block's last step writes z's next
        # row through Bd instead
        params = replace(ROBOT_PARAMS, B_v=friction_v)
        window, _ = run(robot_scenario("predictor-window", params=params))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, metrics = run(robot_scenario("predictor-zform", params=params))
        assert (traj.status, len(traj.t)) == (window.status, len(window.t))
        assert metrics.max_prediction_error <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        plant=general_plants(),
        dt=st.sampled_from([0.01, 0.05, 0.1]),
        h=st.floats(0.0, 0.6),
        T=st.floats(0.1, 60.0),
    )
    # a z form integrating from t = 0 errs by 1.8e-2 at T = 10 on the first,
    # and its e^{+-At} overflow on the others
    @example(plant=(np.array([[3.0]]), np.array([[1.0]]), np.array([[-8.0]])), dt=0.01, h=0.3, T=10.0)
    @example(plant=(np.array([[2.0]]), np.array([[1.0]]), np.array([[-4.0]])), dt=0.1, h=0.3, T=400.0)
    @example(plant=(np.array([[6.0]]), np.array([[1.0]]), np.array([[-8.0]])), dt=0.05, h=0.5, T=200.0)
    def test_pairs_exact(self, plant, dt, h, T):
        A, B, K = plant
        lti = LtiPlant(A, B, round(h / dt) * dt)
        sc = Scenario(plant=lti, gain=Gain.for_plant(K, lti), setpoint=origin_setpoint(lti),
                      controller="predictor-window", x0=np.ones(len(A)), dt=dt, T=T)
        window, _ = run(sc)
        for controller in ("predictor-window", "predictor-zform"):
            traj, metrics = run(replace(sc, controller=controller))
            assert (traj.status, len(traj.t)) == (window.status, len(window.t))
            if metrics.max_prediction_error is not None:
                assert metrics.max_prediction_error <= 1e-9 * (1.0 + np.max(np.abs(traj.states)))

    @pytest.mark.parametrize("controller", ["predictor-zform", "naive", "nodelay"])
    def test_only_window_form_builds_its_factors(self, monkeypatch, controller):
        # the z form forms its own factors, never the window form's (criterion 5 checks one against
        # the other), and naive and nodelay forecast nothing: with _window_factors refused, each run
        # is bitwise the run without the refusal, and a window run fails
        want, _ = run(robot_scenario(controller))

        def refused(*args):
            raise LookupError("window factors refused")
        monkeypatch.setattr(sim, "_window_factors", refused)
        got, _ = run(robot_scenario(controller))
        assert (got.status, got.t_d) == (want.status, want.t_d)
        for field in ("t", "states", "controls", "predictions"):
            assert same_bits(getattr(got, field), getattr(want, field)), field
        with pytest.raises(LookupError, match="refused"):
            run(robot_scenario("predictor-window"))


def assert_matches_oracle(traj, reference):
    """Same status, length and t_d as the reference loop; states, controls
    and forecasts within 1e-12 of the run's scale."""
    t, states, controls, predictions, status, t_d = reference
    assert (traj.status, len(traj.t), traj.t_d) == (status, len(t), t_d)
    np.testing.assert_array_equal(traj.t, t)
    for got, want in ((traj.states, states), (traj.controls, controls),
                      (traj.predictions, predictions)):
        scale = 1.0 + np.max(np.abs(want), initial=0.0, where=np.isfinite(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, equal_nan=True)


# Slow loops approached from below (x0 = 0.1 x*), so the state's inf-norm
# still grows, step by step, at the end of a 6 s run: a decoupled plant, and
# a coupled one, which takes the general (non-diagonal) exponential path.
_PLANTS = {
    "diagonal": (np.diag([-1.0, -2.0]), np.diag([2.0, 4.0]), np.diag([-0.25, -0.25])),
    "coupled": (np.array([[-1.0, 0.5], [0.0, -2.0]]), np.eye(2), -0.5 * np.eye(2)),
}


class TestReferenceLoop:
    """sim.run against the step-at-a-time loop of conftest.run_oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        controller=st.sampled_from(CONTROLLERS),
        plant_kind=st.sampled_from(sorted(_PLANTS)),
        dt=st.sampled_from([0.005, 0.01, 0.02]),
        depth=st.integers(0, 120),
        steps=st.integers(1, 300),
        e_max=st.sampled_from([None, 0.6, 2.0]),
        trip=st.sampled_from([None, 0, 127, 128, 129, "L-1", "L", "L+1", "last"]),
    )
    # delays past the lifted block length L (64 and 50 steps here)
    @example(controller="predictor-window", plant_kind="coupled", dt=0.005, depth=110, steps=300,
             e_max=None, trip="L+1")
    @example(controller="naive", plant_kind="diagonal", dt=0.01, depth=60, steps=200, e_max=None, trip="L")
    # an undelayed run steps as one block: trips deep inside it, one at the
    # start of a _SCAN_BLOCK window (640 = 5 * 128)
    @example(controller="nodelay", plant_kind="diagonal", dt=0.005, depth=0, steps=1001, e_max=None, trip=300)
    @example(controller="nodelay", plant_kind="coupled", dt=0.005, depth=30, steps=1200, e_max=None, trip=700)
    @example(controller="nodelay", plant_kind="coupled", dt=0.005, depth=0, steps=1001, e_max=None, trip=640)
    def test_matches_reference_loop(self, controller, plant_kind, dt, depth, steps, e_max, trip):
        A, B, K = _PLANTS[plant_kind]
        plant = LtiPlant(A, B, depth * dt)
        setpoint = make_setpoint(plant, [1.0, 0.5])
        sc = Scenario(plant=plant, gain=Gain.for_plant(K, plant), setpoint=setpoint,
                      controller=controller, x0=np.array([0.1, 0.05]), dt=dt, T=steps * dt,
                      e_max=e_max)
        if trip is not None:
            # a threshold between the largest norm before row j and row j's,
            # which the run first exceeds at row j (row j - 1's norm on a
            # growing run; a long delay can make it overshoot and fall back);
            # runs may differ in the last bits, so no row's norm may lie
            # within 1e-9 of it
            L = min(_block_length(A, dt), _LIFT_COLS // 4)  # n + m = 4
            j = min({"last": steps, "L-1": L - 1, "L": L, "L+1": L + 1}.get(trip, trip), steps)
            norms = np.max(np.abs(run_oracle(sc)[1]), axis=1)
            below = norms[:j].max(initial=0.0)
            limit = (below + norms[j]) / 2.0
            assume(norms[j] > below and np.all(np.abs(norms - limit) > 1e-9 * limit))
            sc = replace(sc, divergence_threshold=limit)
        traj, _ = run(sc)
        assert_matches_oracle(traj, run_oracle(sc))
        if trip is not None:
            assert (traj.status, len(traj.t)) == ("diverged", j + 1)

    def test_nonfinite_state(self):
        # naive feedback on the unstable plant of
        # TestLongHorizon.test_nonfinite_state_ends_as_diverged; its forecast
        # forms are left out, as they cancel terms near e^{50} and so amplify
        # last-bit differences far beyond 1e-12
        plant = LtiPlant(np.array([[50.0]]), np.array([[1.0]]), 1.0)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-51.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="naive", x0=np.array([1.0]),
                      dt=0.01, T=30.0, divergence_threshold=math.inf)
        traj, _ = run(sc)
        assert traj.status == "diverged"
        assert_matches_oracle(traj, run_oracle(sc))

    @pytest.mark.parametrize("depth,controller,row", [
        pytest.param(depth, controller, (1, 25), id=f"{depth}-{controller}")
        for depth in (1, 5, 60) for controller in ("naive", "predictor-window")
    ] + [
        # spans of L, 2L, 4L and 8L rows: the third is rows 3L..7L, the fourth 7L..15L; a
        # block's first state row, and its last (7L and 15L end a span). Naive feedback
        # overshoots x* at depth 60, so its norm is not the largest so far at these rows
        pytest.param(depth, controller, row, id=f"{depth}-{controller}-{row[0]}L{row[1]:+d}")
        for depth, controller in ((1, "naive"), (5, "naive"), (1, "predictor-window"), (60, "predictor-window"))
        for row in ((4, 1), (7, 0), (9, 1), (15, 0))
    ])
    def test_trip_in_second_lifted_block(self, depth, controller, row):
        # the threshold first trips at row j = q L + r for row = (q, r): half-way into the
        # second lifted block, or in a later span, which is then stepped again block by
        # block, and the failing block one step at a time from its first row
        A, B, K = _PLANTS["diagonal"]
        dt = 0.01
        L = _block_length(A, dt)
        assert L == 50
        j = row[0] * L + row[1]
        plant = LtiPlant(A, B, depth * dt)
        sc = Scenario(plant=plant, gain=Gain.for_plant(K, plant), setpoint=make_setpoint(plant, [1.0, 0.5]),
                      controller=controller, x0=np.array([0.1, 0.05]), dt=dt, T=max(3, row[0] + 1) * L * dt)
        norms = np.max(np.abs(run_oracle(sc)[1]), axis=1)
        assert norms[j] > norms[:j].max()
        sc = replace(sc, divergence_threshold=(norms[:j].max() + norms[j]) / 2.0)
        traj, _ = run(sc)
        assert_matches_oracle(traj, run_oracle(sc))
        assert (traj.status, len(traj.t)) == ("diverged", j + 1)

    @pytest.mark.parametrize("q", [5, 14])
    def test_control_overflow_in_later_span(self, q):
        # the run's first non-finite control is u_j, j = q L - 1, the last control of a block
        # in the third or fourth span, while every state up to row j is finite: before row
        # N = 400 the plant runs open loop on u* = 0, so x_k = e^{4 k dt} x0 and naive
        # feedback's Kd x_k passes the float range first at row j. The -inf control would
        # reach the state N steps later; the state's own overflow, 51 rows after row j, ends
        # the run first
        plant = LtiPlant(np.array([[4.0]]), np.array([[1.0]]), 4.0)
        dt = 0.01
        L = _block_length(plant.A, dt)
        K = np.array([[-8.0]])
        j, kd = q * L - 1, abs(matched_gain(plant, K, dt, zoh_discretize(plant.A, plant.B, dt))[0, 0])
        x0 = np.finfo(float).max / kd * math.exp(-4.0 * dt * (j - 0.5))
        sc = Scenario(plant=plant, gain=Gain.for_plant(K, plant), setpoint=origin_setpoint(plant),
                      controller="naive", x0=np.array([x0]), dt=dt, T=20 * L * dt,
                      divergence_threshold=math.inf)
        reference = run_oracle(sc)
        controls, states = reference[2][:, 0], reference[1][:, 0]
        assert L == 25 and np.all(np.isfinite(controls[:j])) and controls[j] == -np.inf
        assert np.all(np.isfinite(states[:j + 1])) and reference[4] == "diverged"
        traj, _ = run(sc)
        assert_matches_oracle(traj, reference)

    def test_nonfinite_state_in_lifted_block(self):
        # naive feedback past its delay margin at dt = 0.05, where a lifted
        # block has L = 40 steps; the state overflows after about 4200 steps
        plant = LtiPlant(np.array([[0.5]]), np.array([[1.0]]), 0.25)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-60.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="naive", x0=np.array([1.0]),
                      dt=0.05, T=400.0, divergence_threshold=math.inf)
        assert _block_length(plant.A, sc.dt) == 40
        traj, _ = run(sc)
        assert traj.status == "diverged" and np.all(np.isfinite(traj.states))
        assert_matches_oracle(traj, run_oracle(sc))

    def test_lifted_control_overflow(self):
        # from x0 = 1e307 the state stays finite and the controls, -8 x_k,
        # reach the float limit; the lifted passes of the second and third
        # blocks (N = 200 > L = 128, so every held input is known) overflow,
        # and those blocks are stepped again, where naive feedback reads x_k
        # alone
        sc = replace(scalar_scenario("naive", h=2.0, T=3.0), x0=np.array([1e307]),
                     divergence_threshold=math.inf)
        traj, _ = run(sc)
        assert (traj.status, len(traj.t)) == ("completed", 301)
        assert_matches_oracle(traj, run_oracle(sc))

    @pytest.mark.parametrize("depth", [1, 5, 60])
    def test_window_overflow_in_lifted_block(self, depth):
        # B is not square, so the loop keeps the design gain, and at dt = 0.05
        # Ad + Bd K is unstable: the state overflows inside a lifted block of
        # L = 20 steps. That block is stepped again from its first row, where
        # the forecast map must not read the block's lifted states; the last
        # control of the reference loop is inf where run's is NaN, so the
        # controls are not compared
        plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), depth * 0.05)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-1e4, -200.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="predictor-window",
                      x0=np.array([1.0, 0.0]), dt=0.05, T=100.0, divergence_threshold=math.inf)
        assert _block_length(plant.A, sc.dt) == 20
        traj, _ = run(sc)
        t, states, _, _, status, t_d = run_oracle(sc)
        assert (traj.status, len(traj.t), traj.t_d) == (status, len(t), t_d)
        assert status == "diverged"
        np.testing.assert_allclose(traj.states, states, rtol=1e-12)

    @pytest.mark.parametrize("x0,controller", [
        (3.16e304, "predictor-window"), (3.16e304, "naive"), (3.16e304, "predictor-zform"),
        (1e305, "naive"), (1e305, "predictor-zform"),
    ])
    def test_float_range_edge(self, x0, controller):
        # B is not square, so the loop keeps the design gain K = (-625, -50); at N = 5 and
        # threshold inf the states and controls come near the float limit, and each path ends
        # as the reference loop does (naive feedback overflows: at row 14, t = 0.56 s, from
        # 3.16e304). From 1e305 the window form's folded map Kd @ forecast overflows where the
        # reference's forecast-then-gain does not, so that case is left out (see the README)
        plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 5 * 0.04)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-625.0, -50.0]]), plant),
                      setpoint=origin_setpoint(plant), controller=controller, x0=np.array([x0, 0.0]),
                      dt=0.04, T=8.0, divergence_threshold=math.inf)
        traj, _ = run(sc)
        t, _, _, _, status, t_d = run_oracle(sc)
        assert (traj.status, len(traj.t), traj.t_d) == (status, len(t), t_d)
        assert status == ("diverged" if controller == "naive" else "completed")

    @pytest.mark.parametrize("controller", ["naive", "predictor-window"])
    @pytest.mark.parametrize("h,L", [(100.0, 41), (300.0, None)])
    def test_lift_bytes_cap(self, monkeypatch, controller, h, L):
        # at N = 10000 a lifted block's record windows are 8 (N + 1) 5 bytes
        # wide, so _LIFT_BYTES caps the robot's blocks at 41 steps; at
        # N = 30000 the cap gives 13 < _LIFT_MIN, and the run steps one row at
        # a time
        lifts, lift = [], sim._lift
        monkeypatch.setattr(sim, "_lift", lambda *args: lifts.append(lift(*args)) or lifts[-1])
        sc = robot_scenario(controller, h=h, T=1.0)
        traj, _ = run(sc)
        [(block, step)] = lifts
        assert (block, step is None) == ((L, False) if L else (_SCAN_BLOCK, True))
        assert_matches_oracle(traj, run_oracle(sc))

    @pytest.mark.parametrize("depth", [1, 5])
    def test_marginal_loop_in_lifted_blocks(self, depth):
        # B is not square, so the loop keeps the design gain, and at dt = 0.05
        # Ad + Bd K has eigenvalues 0.5 and -1: the -1 mode keeps every
        # rounding error of the 2000 steps. Lifted in blocks of L = 20 steps,
        # one pass of the block map ends 1e-11 of the run's scale from the
        # reference loop at depth 5; that map's defect is past
        # sim._ONE_PASS_DEFECT, so the gate keeps its refining pass, which
        # keeps it within the per-step loop's 2.5e-13
        plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), depth * 0.05)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-400.0, -40.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="predictor-window",
                      x0=np.array([1.0, 0.0]), dt=0.05, T=100.0, divergence_threshold=math.inf)
        assert _block_length(plant.A, sc.dt) == 20
        traj, _ = run(sc)
        assert_matches_oracle(traj, run_oracle(sc))


class TestOnePassGate:
    """sim._defect, the rule by which a lifted run takes one pass per block
    (defect <= sim._ONE_PASS_DEFECT) or two, on the maps that runs build.
    Each pinned map is at least 8 times from the constant, so that a BLAS
    that rounds differently does not move it across."""

    @staticmethod
    def _defects(monkeypatch):
        """The (defect, arguments) of each _defect call, in run order."""
        seen, defect = [], sim._defect
        monkeypatch.setattr(sim, "_defect", lambda *args: seen.append((defect(*args), args)) or seen[-1][0])
        return seen

    @staticmethod
    def _dense_defect(tau, p, N):
        """||(I - T) M - I||_inf with T and M written out block by block."""
        L, b = (len(p) + 1) // 2, p.shape[1]
        T, M = np.zeros((L * b, L * b)), np.zeros((L * b, L * b))
        for i in range(L):
            for s in range(i + 1):
                M[i * b:(i + 1) * b, s * b:(s + 1) * b] = p[L - 1 + i - s]
                if 1 <= i - s <= N:
                    T[i * b:(i + 1) * b, s * b:(s + 1) * b] = tau[i - s]
        return np.linalg.norm((np.eye(L * b) - T) @ M - np.eye(L * b), np.inf)

    def test_marginal_loop_keeps_two_passes(self, monkeypatch):
        # the marginal loop of TestReferenceLoop.test_marginal_loop_in_lifted_blocks at depth 5
        plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 0.25)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-400.0, -40.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="predictor-window",
                      x0=np.array([1.0, 0.0]), dt=0.05, T=100.0, divergence_threshold=math.inf)
        seen = self._defects(monkeypatch)
        run(sc)
        [(defect, args)] = seen
        assert defect >= 8 * sim._ONE_PASS_DEFECT
        assert defect == pytest.approx(self._dense_defect(*args), rel=1e-3)

    def test_margin_sweep_maps_take_one_pass(self, monkeypatch):
        # the 42 runs of perfbench's margin-sweep: naive and window feedback
        # on dx/dt = u(t - h), gain -8, at h = 0.05 .. 0.25 (N = 5 .. 25)
        seen = self._defects(monkeypatch)
        grid = [round(0.05 + 0.01 * i, 2) for i in range(21)]
        sweep_delay(scalar_scenario("naive", h=0.05, T=25.0), grid)
        assert len(seen) == 42
        for defect, args in seen:
            assert defect <= sim._ONE_PASS_DEFECT / 8
            assert self._dense_defect(*args) <= sim._ONE_PASS_DEFECT / 8

    @pytest.mark.parametrize("controller", ["naive", "predictor-window"])
    @pytest.mark.parametrize("h", [0.3, 1.0])
    def test_robot_maps_take_one_pass(self, monkeypatch, controller, h):
        seen = self._defects(monkeypatch)
        run(robot_scenario(controller, h=h))
        [(defect, _)] = seen
        assert defect <= sim._ONE_PASS_DEFECT / 8

    def test_one_pass_run_matches_reference(self, monkeypatch):
        # naive feedback at h = 1 s is past the robot's delay margin: the run
        # is lifted in one pass per block until its state passes 1e6 at row 3516
        seen = self._defects(monkeypatch)
        sc = robot_scenario("naive", h=1.0, T=400.0)
        traj, _ = run(sc)
        [(defect, _)] = seen
        assert defect <= sim._ONE_PASS_DEFECT / 8
        assert (traj.status, len(traj.t)) == ("diverged", 3517)
        assert_matches_oracle(traj, run_oracle(sc))


def margin_scenario(controller, h):
    """A run of perfbench's margin-sweep: dx/dt = u(t - h), gain -8, x* = 0, from x0 = 1.2 over 25 s."""
    plant = LtiPlant(np.array([[0.0]]), np.array([[1.0]]), h)
    return Scenario(plant=plant, gain=Gain.for_plant(np.array([[-8.0]]), plant),
                    setpoint=make_setpoint(plant, [0.0]), controller=controller, x0=np.array([1.2]),
                    dt=0.01, T=25.0)


class TestLiftSteppers:
    """Which of sim._lift's two steppers a map takes: the basis stepper, one
    product of H per block from the block's boundary state, for one-pass maps
    with K (n + N m) < steps + 1, K = min(N, L); else the residual stepper."""

    @staticmethod
    def _steppers(monkeypatch):
        """The name of each _lift call's stepper, in run order."""
        names, lift = [], sim._lift

        def named(*args):
            block, step = lift(*args)
            names.append(step.__name__)
            return block, step
        monkeypatch.setattr(sim, "_lift", named)
        return names

    @pytest.mark.parametrize("controller", ["naive", "predictor-window"])
    @pytest.mark.parametrize("h", [0.05, 0.19, 0.25])
    def test_margin_sweep_matches_reference(self, monkeypatch, controller, h):
        # naive feedback at h = 0.25 s is past the pi/16 margin: its span of rows 1920..2500
        # fails at row 2219, where the state passes 1e6, and is stepped again one step at a time
        names = self._steppers(monkeypatch)
        sc = margin_scenario(controller, h)
        traj, _ = run(sc)
        assert names == ["basis_step"]
        assert_matches_oracle(traj, run_oracle(sc))
        if (controller, h) == ("naive", 0.25):
            assert (traj.status, len(traj.t), traj.t_d) == ("diverged", 2220, pytest.approx(22.19))

    def test_margin_sweep_maps_take_basis_stepper(self, monkeypatch):
        names = self._steppers(monkeypatch)
        sweep_delay(margin_scenario("naive", 0.05), [round(0.05 + 0.01 * i, 2) for i in range(21)])
        assert names == ["basis_step"] * 42

    @pytest.mark.parametrize("controller", ["naive", "predictor-window"])
    def test_robot_at_depth_5_takes_basis_stepper(self, monkeypatch, controller):
        names = self._steppers(monkeypatch)
        sc = robot_scenario(controller, h=0.05)
        traj, _ = run(sc)
        assert names == ["basis_step"]
        assert_matches_oracle(traj, run_oracle(sc))

    @pytest.mark.parametrize("h", [
        0.3,  # robot.cfg's window run: K (n + N m) = 30 * 62 > 1001
        1.0,  # perfbench's deep-window: N = 100 >= L = 50
    ])
    def test_robot_window_keeps_residual_stepper(self, monkeypatch, h):
        names = self._steppers(monkeypatch)
        run(robot_scenario("predictor-window", h=h))
        assert names == ["residual_step"]

    def test_two_pass_map_keeps_residual_stepper(self, monkeypatch):
        # the marginal map of TestReferenceLoop.test_marginal_loop_in_lifted_blocks at depth 5
        # takes two passes, though K (n + N m) = 5 * 7 < 2001
        names = self._steppers(monkeypatch)
        plant = LtiPlant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 0.25)
        run(Scenario(plant=plant, gain=Gain.for_plant(np.array([[-400.0, -40.0]]), plant),
                     setpoint=origin_setpoint(plant), controller="predictor-window",
                     x0=np.array([1.0, 0.0]), dt=0.05, T=100.0, divergence_threshold=math.inf))
        assert names == ["residual_step"]


class TestZeroDelay:
    """At h = 0 a forecast is the state, so every controller runs the
    undelayed loop: the [Kd c] control map, in one fold block when unclipped
    and one step at a time when clipped."""

    @staticmethod
    def _taken(monkeypatch):
        """The names of the helpers whose steppers step a run."""
        taken = set()
        for name in ("_steps", "_fold", "_lift", "_zform"):
            def wrapped(*args, name=name, helper=getattr(sim, name)):
                made = helper(*args)
                block, step = (None, made) if name == "_steps" else made
                if step is None:
                    return made

                def stepping(k0, k1):
                    taken.add(name)
                    step(k0, k1)
                return stepping if name == "_steps" else (block, stepping)
            monkeypatch.setattr(sim, name, wrapped)
        return taken

    @pytest.mark.parametrize("e_max", [None, 0.6])
    def test_controllers_equal(self, e_max):
        runs = [run(replace(robot_scenario(c, h=0.0, T=5.0), e_max=e_max))[0] for c in CONTROLLERS]
        for traj in runs[1:]:
            assert same_bits(traj.states, runs[0].states) and same_bits(traj.controls, runs[0].controls)

    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("e_max,helper", [(None, "_fold"), (0.6, "_steps")])
    def test_route(self, monkeypatch, controller, e_max, helper):
        taken = self._taken(monkeypatch)
        traj, _ = run(replace(robot_scenario(controller, h=0.0, T=5.0), e_max=e_max))
        assert traj.status == "completed"
        assert taken == {helper}

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_predictions_are_states(self, controller):
        traj, metrics = run(robot_scenario(controller, h=0.0, T=5.0))
        if controller.startswith("predictor"):
            np.testing.assert_array_equal(traj.predictions, traj.states)
            assert metrics.max_prediction_error == 0.0
        else:
            assert traj.predictions.shape == traj.states.shape and np.isnan(traj.predictions).all()

    @pytest.mark.parametrize("e_max", [None, 0.6])
    def test_zform_matches_reference(self, e_max):
        sc = replace(robot_scenario("predictor-zform", h=0.0, T=5.0), e_max=e_max)
        assert_matches_oracle(run(sc)[0], run_oracle(sc))


# Completed, saturated, diverged and saturated-and-diverged robot runs: the
# state climbs from the origin to x* = (1, 0.5), so it crosses either
# threshold below 1.
_RUN_ENDS = [
    (None, 1e6, "completed"),
    (0.6, 1e6, "completed"),
    (None, 0.9, "diverged"),
    (0.6, 0.7, "diverged"),
]


class TestForecastControl:
    """Every recorded row of a run is the exact plant step from the row
    before under the input held over that step, and every recorded control
    is the clipped feedback of the recorded forecast (of the state, for
    naive and nodelay)."""

    @staticmethod
    def _run(controller, e_max, threshold, status, h=0.3):
        sc = replace(robot_scenario(controller, h=h, T=5.0), e_max=e_max,
                     divergence_threshold=threshold)
        traj, _ = run(sc)
        assert traj.status == status
        return sc, traj

    @staticmethod
    def _assert_feedback_of(sc, traj, fed):
        sp, e_max = sc.setpoint, sc.e_max
        step = zoh_discretize(sc.plant.A, sc.plant.B, sc.dt)
        u = sp.u_star + (fed - sp.x_star) @ matched_gain(sc.plant, sc.gain.K, sc.dt, step).T
        if e_max is not None:
            u = np.clip(u, -e_max, e_max)
            assert np.any(np.abs(traj.controls) == e_max)
        assert np.all(np.abs(traj.controls - u) <= 1e-12 * (1.0 + np.abs(u)))

    @pytest.mark.parametrize("e_max,threshold,status", _RUN_ENDS)
    def test_control_is_feedback_of_forecast(self, e_max, threshold, status):
        sc, traj = self._run("predictor-window", e_max, threshold, status)
        self._assert_feedback_of(sc, traj, traj.predictions)

    def test_forecasts_beside_a_nonfinite_state(self):
        # saturated feedback cannot hold the unstable plant of
        # TestLongHorizon.test_nonfinite_state_ends_as_diverged, so the state
        # overflows; the windows of the last N recorded forecasts reach the
        # row of the first non-finite state, which they must not read
        plant = LtiPlant(np.array([[50.0]]), np.array([[1.0]]), 1.0)
        sc = Scenario(plant=plant, gain=Gain.for_plant(np.array([[-51.0]]), plant),
                      setpoint=origin_setpoint(plant), controller="predictor-window",
                      x0=np.array([1.0]), dt=0.01, T=30.0, divergence_threshold=math.inf,
                      e_max=1.0)
        traj, _ = run(sc)
        assert traj.status == "diverged"
        assert not np.any(np.isnan(traj.predictions))
        kd = matched_gain(plant, sc.gain.K, sc.dt, zoh_discretize(plant.A, plant.B, sc.dt))
        with np.errstate(over="ignore"):
            u = np.clip(traj.predictions @ kd.T, -1.0, 1.0)
        np.testing.assert_array_equal(traj.controls, u)

    @pytest.mark.parametrize("controller", ["naive", "nodelay"])
    @pytest.mark.parametrize("e_max,threshold,status", _RUN_ENDS)
    def test_control_is_feedback_of_state(self, controller, e_max, threshold, status):
        sc, traj = self._run(controller, e_max, threshold, status)
        self._assert_feedback_of(sc, traj, traj.states)

    @pytest.mark.parametrize("controller,h", [pytest.param(c, h, id=c if h else f"{c}-h0")
                                              for h in (0.3, 0.0) for c in CONTROLLERS])
    @pytest.mark.parametrize("e_max,threshold,status", _RUN_ENDS)
    def test_state_is_step_under_held_input(self, controller, e_max, threshold, status, h):
        # the input held over step k is the control issued lag steps before
        # (u* before the first one), lag = N or 0 for nodelay
        sc, traj = self._run(controller, e_max, threshold, status, h)
        lag = 0 if controller == "nodelay" else round(sc.plant.h / sc.dt)
        held = np.vstack([np.tile(sc.setpoint.u_star, (lag, 1)), traj.controls])
        ad, bd = zoh_discretize(sc.plant.A, sc.plant.B, sc.dt)
        expected = traj.states[:-1] @ ad.T + held[:len(traj.t) - 1] @ bd.T
        assert np.all(np.abs(traj.states[1:] - expected) <= 1e-12 * (1.0 + np.abs(expected)))


class TestOrderCheck:
    def test_rk4_halving_ratio(self, rng):
        plant = params_to_lti(ROBOT_PARAMS, 0.0)
        holds = [rng.uniform(-1.0, 1.0, 2) for _ in range(10)]
        x0 = np.array([0.3, -0.2])

        def deviation(substeps):
            dt = 0.1
            x_exact = x0.copy()
            x_rk4 = x0.copy()
            worst = 0.0
            for u in holds:
                x_exact = step_plant_exact(plant, x_exact, u, dt)
                for _ in range(substeps):
                    x_rk4 = step_plant_rk4(plant, x_rk4, u, dt / substeps)
                worst = max(worst, float(np.max(np.abs(x_rk4 - x_exact))))
            return worst

        ratio = deviation(1) / deviation(2)
        assert 12.0 <= ratio <= 20.0


class TestMetrics:
    def _trajectory(self, t, states, controller="naive", status="completed", h=0.0, dt=None):
        states = np.asarray(states, dtype=float)
        m = len(t)
        return Trajectory(
            t=np.asarray(t, dtype=float),
            states=states,
            controls=np.zeros((m, states.shape[1])),
            predictions=np.full_like(states, np.nan),
            status=status,
            t_d=t[-1] if status == "diverged" else None,
            dt=dt if dt is not None else (t[1] - t[0] if m > 1 else 1.0),
            h=h,
            controller=controller,
        )

    def test_exponential_settling_time(self):
        dt = 0.001
        t = np.arange(0, 2.0 + dt / 2, dt)
        traj = self._trajectory(t, np.exp(-5.0 * t)[:, None])
        sp = Setpoint(np.zeros(1), np.zeros(1))
        m = compute_metrics(traj, sp)
        assert m.settled
        assert m.settling_time == pytest.approx(math.log(50.0) / 5.0, abs=dt)
        assert m.max_excursion == pytest.approx(1.0)

    def test_constant_at_setpoint(self):
        t = np.arange(0, 1.0, 0.1)
        traj = self._trajectory(t, np.full((len(t), 1), 2.0))
        sp = Setpoint(np.array([2.0]), np.zeros(1))
        m = compute_metrics(traj, sp)
        assert m.settled and m.settling_time == 0.0 and m.max_excursion == 0.0
        # an empty trajectory has no initial offset: it reads as settled at once
        assert compute_metrics(self._trajectory([], np.zeros((0, 1))), sp) == m

    def test_largest_component_switches_columns(self):
        dt, x_star = 0.1, np.array([1.0, -2.0, 0.5])
        t = np.arange(7) * dt
        offsets = np.array([[3.0, 0.0, 1.0], [0.5, 0.1, -2.5], [0.2, -4.0, 0.1], [-0.3, 0.2, 0.01],
                            [0.01, 0.05, -0.02], [0.0, -0.03, 0.01], [0.01, 0.0, -0.02]])
        traj = self._trajectory(t, x_star + offsets)
        m = compute_metrics(traj, Setpoint(x_star, np.zeros(3)))
        err = np.linalg.norm(traj.states - x_star, np.inf, axis=1)  # the row-wise formula
        assert m.max_excursion == err.max() == 4.0
        # the last offset past 2% of 3 is row 3's 0.3, so it settles at row 4
        assert m.settled and m.settling_time == t[np.nonzero(err > 0.06)[0][-1] + 1] == t[4]

    def test_nan_forecast_gives_nan_pair_error(self):
        # a NaN in a late row of the second forecast column; a maximum that
        # drops NaN (Python's max) would report 0.25
        dt, depth = 0.1, 2
        t = np.arange(8) * dt
        states = np.column_stack([np.exp(-t), 0.5 * np.exp(-2.0 * t)])
        traj = self._trajectory(t, states, controller="predictor-window", h=depth * dt, dt=dt)
        traj.predictions = np.vstack([states[depth:], np.zeros((depth, 2))])
        traj.predictions[0, 0] += 0.25
        sp = Setpoint(np.zeros(2), np.zeros(2))

        def by_rows():
            return np.max(np.abs(traj.predictions[:len(t) - depth] - traj.states[depth:]))

        assert compute_metrics(traj, sp).max_prediction_error == by_rows() == pytest.approx(0.25)
        traj.predictions[5, 1] = np.nan
        assert math.isnan(by_rows()) and math.isnan(compute_metrics(traj, sp).max_prediction_error)

    @pytest.mark.parametrize("controller", CONTROLLERS)
    def test_run_metrics_match_public(self, controller):
        # the returned trajectory gives run's figures again: its first state is the Scenario's x0
        for sc in (robot_scenario(controller, x0=(0.3, -0.2)), replace(scalar_scenario(controller, a=2.0), T=30.0)):
            traj, metrics = run(sc)
            assert metrics == compute_metrics(traj, sc.setpoint)

    def test_diverged(self):
        t = np.arange(0, 1.0, 0.1)
        traj = self._trajectory(t, np.exp(5.0 * t)[:, None], status="diverged")
        sp = Setpoint(np.zeros(1), np.zeros(1))
        m = compute_metrics(traj, sp)
        assert m.diverged and not m.settled and m.settling_time is None


def far_setpoint_scenario(controller):
    """A run that stays near x0 = 1.7e308 while x* = -1.7e308: the initial
    offset, and every state's distance to x*, overflows to inf."""
    plant = LtiPlant(np.zeros((1, 1)), np.ones((1, 1)), 0.0)
    return Scenario(plant=plant, gain=Gain(np.array([[-1e-10]])), setpoint=Setpoint([-1.7e308], [0.0]),
                    controller=controller, x0=np.array([1.7e308]), dt=0.01, T=1.0, divergence_threshold=math.inf)


class TestFarSetpoint:
    @pytest.mark.parametrize("controller", ["nodelay", "naive"])
    def test_not_settled(self, controller):
        # an infinite initial offset leaves no 2% band: a run that never comes
        # near x* is not settled at t = 0
        traj, metrics = run(far_setpoint_scenario(controller))
        assert (traj.status, len(traj.t)) == ("completed", 101)
        assert np.all(traj.states > 1.69e308)
        assert (metrics.settled, metrics.settling_time, metrics.max_excursion) == (False, None, math.inf)

    def test_metrics_raise_no_warning(self):
        # the metrics' distances to x* overflow under run's errstate, and under compute_metrics's own
        sc = far_setpoint_scenario("nodelay")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, metrics = run(sc)
            [(_, m_naive, m_pred)] = sweep_delay(sc, [0.05])
            public = compute_metrics(traj, sc.setpoint)
        assert public == metrics and not (m_naive.settled or m_pred.settled)


class TestSharedDiscretization:
    """Runs that differ only in delay or controller share one (Ad, Bd, Kd)."""

    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("e_max", [None, 0.6])
    def test_shared_equals_own(self, controller, e_max):
        # a run on a kept loop, or on one set from another scenario as sweep_delay sets it, equals a run
        # of a fresh copy, which forms its own
        sc = replace(robot_scenario(controller), e_max=e_max)
        sc.loop
        shared = replace(sc)
        object.__setattr__(shared, "loop", robot_scenario("naive", h=1.0).loop)
        fresh = replace(sc)
        assert "loop" in vars(sc) and "loop" not in vars(fresh)
        own, _ = run(fresh)
        for traj, _ in (run(sc), run(shared)):
            for name in ("t", "states", "controls", "predictions"):
                assert same_bits(getattr(traj, name), getattr(own, name)), name

    def test_loop_formed_once(self, monkeypatch, tmp_path):
        # every binding of matched_gain is counted, as perfbench's tracer counts it
        calls, gain = [], sim.matched_gain
        for module in (sim, cli):
            monkeypatch.setattr(module, "matched_gain", lambda *args: calls.append(args) or gain(*args), raising=False)
        cfg = Path(__file__).resolve().parents[1] / "configs" / "robot.cfg"
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        assert len(calls) == 1  # build_scenario forms the loop, and its run keeps it
        calls.clear()
        assert len(sweep_delay(scalar_scenario("naive", h=0.1, T=3.0), [0.0, 0.05, 0.15])) == 3
        assert len(calls) == 1

    def test_sweep_equals_separate_runs(self):
        base = scalar_scenario("naive", h=0.1, T=30.0)
        for h, m_naive, m_pred in sweep_delay(base, [0.0, 0.05, 0.15, 0.25]):
            plant = LtiPlant(base.plant.A, base.plant.B, h)
            assert m_naive == run(replace(base, plant=plant))[1]
            assert m_pred == run(replace(base, plant=plant, controller="predictor-window"))[1]


class TestSweep:
    def test_runs_through_module_run(self, monkeypatch):
        # perfbench counts a sweep's samples by wrapping the module-level
        # sim.run, so each scenario of a sweep goes through it
        calls = []
        monkeypatch.setattr(sim, "run", lambda sc, **kw: calls.append(sc.controller) or run(sc, **kw))
        h_values = [0.0, 0.05, 0.15]
        assert len(sweep_delay(scalar_scenario("naive", h=0.1, T=3.0), h_values)) == len(h_values)
        assert calls == ["naive", "predictor-window"] * len(h_values)

    def test_zero_delay_pair_identical(self):
        base = scalar_scenario("naive", h=0.0, T=3.0)
        [(h, m_naive, m_pred)] = sweep_delay(base, [0.0])
        assert h == 0.0
        assert m_naive.settled == m_pred.settled
        assert abs(m_naive.settling_time - m_pred.settling_time) <= 1e-9
        assert abs(m_naive.max_excursion - m_pred.max_excursion) <= 1e-9

    def test_monotone_in_delay(self):
        base = scalar_scenario("naive", h=0.1, T=30.0)
        results = sweep_delay(base, [0.05, 0.10, 0.15, 0.25, 0.30])
        naive_settled = [m.settled for _, m, _ in results]
        assert naive_settled == sorted(naive_settled, reverse=True)
        assert naive_settled[0] and not naive_settled[-1]
        assert all(m.settled for _, _, m in results)
