import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delaycomp.control import (
    ZFORM_MAX_EXPONENT,
    Gain,
    Setpoint,
    design_gain,
    make_setpoint,
    origin_setpoint,
)
from delaycomp.robot import LtiPlant, params_to_lti, RobotParams
from delaycomp.sim import (
    CONTROLLERS,
    Metrics,
    Scenario,
    Trajectory,
    _discretize,
    compute_metrics,
    matched_gain,
    run,
    sweep_delay,
)
from delaycomp.smallmat import mat_exp, zoh_discretize

from conftest import run_oracle, step_plant_exact, step_plant_rk4

ROBOT_PARAMS = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)


def robot_scenario(controller, h=0.3, dt=0.01, T=10.0, x0=(0.0, 0.0), ref=(1.0, 0.5)):
    plant = params_to_lti(ROBOT_PARAMS, h)
    gain = design_gain(plant, [-5.0, -5.0])
    setpoint = make_setpoint(plant, list(ref))
    return Scenario(plant=plant, gain=gain, setpoint=setpoint, controller=controller,
                    x0=np.array(x0, dtype=float), dt=dt, T=T)


def scalar_scenario(controller, a=0.0, b=1.0, k=-8.0, h=0.3, dt=0.01, T=10.0):
    plant = LtiPlant(np.array([[a]]), np.array([[b]]), h)
    gain = Gain.for_plant(np.array([[k]]), plant)
    return Scenario(plant=plant, gain=gain, setpoint=origin_setpoint(plant),
                    controller=controller, x0=np.array([1.0]), dt=dt, T=T)


class TestStepPlant:
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
        kd = matched_gain(plant, K, dt)
        ad, bd = zoh_discretize(plant.A, plant.B, dt)
        np.testing.assert_allclose(ad + bd @ kd, mat_exp(plant.A + plant.B @ K, dt), atol=1e-14)

    def test_converges_to_design_gain(self):
        plant = params_to_lti(ROBOT_PARAMS, 0.0)
        K = design_gain(plant, [-5.0, -5.0]).K
        for dt, tol in ((1e-3, 1e-1), (1e-5, 1e-3)):
            assert np.max(np.abs(matched_gain(plant, K, dt) - K)) < tol


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

    def test_delay_must_align_with_dt(self):
        with pytest.raises(ValueError, match="multiple"):
            robot_scenario("naive", h=0.25, dt=0.1)


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
        # ||A||_inf = 2 on the default robot; only the z form is bounded
        longest = ZFORM_MAX_EXPONENT / 2.0
        traj, metrics = run(robot_scenario("predictor-zform", dt=0.1, T=longest))
        assert traj.status == "completed"
        assert metrics.max_prediction_error <= 1e-9
        with pytest.raises(ValueError, match="predictor-zform horizon"):
            robot_scenario("predictor-zform", dt=0.1, T=longest + 0.1)
        robot_scenario("predictor-window", dt=0.1, T=longest + 0.1)

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
        depth=st.integers(0, 12),
        steps=st.integers(1, 300),
        e_max=st.sampled_from([None, 0.6, 2.0]),
        trip=st.sampled_from([None, 0, 127, 128, 129, "last"]),
    )
    def test_matches_reference_loop(self, controller, plant_kind, dt, depth, steps, e_max, trip):
        A, B, K = _PLANTS[plant_kind]
        plant = LtiPlant(A, B, depth * dt)
        setpoint = make_setpoint(plant, [1.0, 0.5])
        sc = Scenario(plant=plant, gain=Gain.for_plant(K, plant), setpoint=setpoint,
                      controller=controller, x0=np.array([0.1, 0.05]), dt=dt, T=steps * dt,
                      e_max=e_max)
        if trip is not None:
            # a threshold between the norms of rows j - 1 and j, which a
            # growing run first exceeds at row j; runs may differ in the last
            # bits, so no row's norm may lie within 1e-9 of it
            j = steps if trip == "last" else min(trip, steps)
            norms = np.max(np.abs(run_oracle(sc)[1]), axis=1)
            limit = norms[0] / 2.0 if j == 0 else (norms[j - 1] + norms[j]) / 2.0
            assume(np.all(np.abs(norms - limit) > 1e-9 * limit))
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
    def _run(controller, e_max, threshold, status):
        sc = replace(robot_scenario(controller, T=5.0), e_max=e_max,
                     divergence_threshold=threshold)
        traj, _ = run(sc)
        assert traj.status == status
        return sc, traj

    @staticmethod
    def _assert_feedback_of(sc, traj, fed):
        sp, e_max = sc.setpoint, sc.e_max
        u = sp.u_star + (fed - sp.x_star) @ matched_gain(sc.plant, sc.gain.K, sc.dt).T
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
        with np.errstate(over="ignore"):
            u = np.clip(traj.predictions @ matched_gain(plant, sc.gain.K, sc.dt).T, -1.0, 1.0)
        np.testing.assert_array_equal(traj.controls, u)

    @pytest.mark.parametrize("controller", ["naive", "nodelay"])
    @pytest.mark.parametrize("e_max,threshold,status", _RUN_ENDS)
    def test_control_is_feedback_of_state(self, controller, e_max, threshold, status):
        sc, traj = self._run(controller, e_max, threshold, status)
        self._assert_feedback_of(sc, traj, traj.states)

    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("e_max,threshold,status", _RUN_ENDS)
    def test_state_is_step_under_held_input(self, controller, e_max, threshold, status):
        # the input held over step k is the control issued lag steps before
        # (u* before the first one), lag = N or 0 for nodelay
        sc, traj = self._run(controller, e_max, threshold, status)
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
        m = compute_metrics(traj, sp, np.array([1.0]))
        assert m.settled
        assert m.settling_time == pytest.approx(math.log(50.0) / 5.0, abs=dt)
        assert m.max_excursion == pytest.approx(1.0)

    def test_constant_at_setpoint(self):
        t = np.arange(0, 1.0, 0.1)
        traj = self._trajectory(t, np.full((len(t), 1), 2.0))
        sp = Setpoint(np.array([2.0]), np.zeros(1))
        m = compute_metrics(traj, sp, np.array([2.0]))
        assert m.settled and m.settling_time == 0.0 and m.max_excursion == 0.0

    def test_diverged(self):
        t = np.arange(0, 1.0, 0.1)
        traj = self._trajectory(t, np.exp(5.0 * t)[:, None], status="diverged")
        sp = Setpoint(np.zeros(1), np.zeros(1))
        m = compute_metrics(traj, sp, np.array([1.0]))
        assert m.diverged and not m.settled and m.settling_time is None


class TestSharedDiscretization:
    """Runs that differ only in delay or controller share one (Ad, Bd, Kd)."""

    @pytest.mark.parametrize("controller", CONTROLLERS)
    @pytest.mark.parametrize("e_max", [None, 0.6])
    def test_shared_equals_own(self, controller, e_max):
        sc = replace(robot_scenario(controller), e_max=e_max)
        shared = _discretize(robot_scenario("naive", h=1.0))
        own, _ = run(sc)
        given, _ = run(sc, _shared=shared)
        for name in ("states", "controls", "predictions"):
            np.testing.assert_array_equal(getattr(given, name), getattr(own, name))

    def test_sweep_equals_separate_runs(self):
        base = scalar_scenario("naive", h=0.1, T=30.0)
        for h, m_naive, m_pred in sweep_delay(base, [0.0, 0.05, 0.15, 0.25]):
            plant = LtiPlant(base.plant.A, base.plant.B, h)
            assert m_naive == run(replace(base, plant=plant))[1]
            assert m_pred == run(replace(base, plant=plant, controller="predictor-window"))[1]


class TestSweep:
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
