import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaycomp.robot import (
    RobotParams,
    actuator_forces,
    params_to_lti,
    pose_path,
)
from delaycomp.smallmat import is_hurwitz

from conftest import pose_oracle, wrap_angle

DEFAULT = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)


class TestRobotParams:
    @pytest.mark.parametrize("field,value", [
        ("m", 0.0), ("m", -1.0), ("J", 0.0), ("l", -0.5),
        ("B_v", -0.1), ("B_omega", -1.0), ("k_m", 0.0), ("k_d", 0.0),
    ])
    def test_invalid(self, field, value):
        kwargs = dict(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            RobotParams(**kwargs)


class TestParamsToLti:
    def test_default(self):
        plant = params_to_lti(DEFAULT, 0.3)
        np.testing.assert_array_equal(plant.A, np.diag([-1.0, -2.0]))
        np.testing.assert_array_equal(plant.B, np.diag([2.0, 4.0]))
        assert plant.h == 0.3
        assert plant.n == 2 and plant.m_in == 2

    def test_frictionless(self):
        p = RobotParams(m=1.0, J=1.0, B_v=0.0, B_omega=0.0, l=0.5, k_m=2.0, k_d=4.0)
        plant = params_to_lti(p, 0.0)
        np.testing.assert_array_equal(plant.A, np.zeros((2, 2)))

    def test_mass_scaling(self):
        p = RobotParams(m=2.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)
        assert params_to_lti(p, 0.0).A[0, 0] == -0.5

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            params_to_lti(DEFAULT, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    def test_friction_gives_hurwitz(self, m, J, bv, bw):
        p = RobotParams(m=m, J=J, B_v=bv, B_omega=bw, l=0.5, k_m=2.0, k_d=4.0)
        assert is_hurwitz(params_to_lti(p, 0.0).A)

    def test_zero_friction_marginal(self):
        p = RobotParams(m=1.0, J=1.0, B_v=0.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=4.0)
        assert not is_hurwitz(params_to_lti(p, 0.0).A)


class TestActuatorForces:
    def test_example(self):
        p = RobotParams(m=1.0, J=1.0, B_v=1.0, B_omega=2.0, l=0.5, k_m=2.0, k_d=1.0)
        wf = actuator_forces(p, 3.0, 1.0)
        assert (wf.F, wf.T, wf.F_R, wf.F_L) == (6.0, 1.0, 4.0, 2.0)

    def test_zero(self):
        wf = actuator_forces(DEFAULT, 0.0, 0.0)
        assert (wf.F, wf.T, wf.F_R, wf.F_L) == (0.0, 0.0, 0.0, 0.0)

    def test_symmetric_drive(self):
        wf = actuator_forces(DEFAULT, 1.0, 0.0)
        assert wf.F_R == wf.F_L == DEFAULT.k_m / 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    def test_round_trip(self, e_m, e_d):
        wf = actuator_forces(DEFAULT, e_m, e_d)
        assert wf.F_R + wf.F_L == pytest.approx(wf.F, abs=1e-14 * (1 + abs(wf.F)))
        assert DEFAULT.l * (wf.F_R - wf.F_L) == pytest.approx(wf.T, abs=1e-14 * (1 + abs(wf.T)))


class TestPose:
    def test_straight_line(self):
        path = pose_path([[1.0, 0.0]], dt=2.0)
        assert path.tolist() == [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]

    def test_spin_in_place(self):
        x, y, heading = pose_path([[0.0, 1.0]], dt=math.pi)[-1]
        assert x == 0.0 and y == 0.0
        assert heading == pytest.approx(math.pi, abs=1e-12)

    def test_unit_circle_arc(self):
        steps = 2000
        dt = (math.pi / 2) / steps
        path = pose_path(np.ones((steps, 2)), dt=dt)
        assert path.shape == (steps + 1, 3)
        x, y, heading = path[-1]
        assert x == pytest.approx(1.0, abs=1e-6)
        assert y == pytest.approx(1.0, abs=1e-6)
        assert heading == pytest.approx(math.pi / 2, abs=1e-6)

    def test_zero_omega_exact_heading(self):
        # turn to about 0.7 rad in place, then drive straight at v = 2
        path = pose_path([[0.0, 0.7 / 0.25], [2.0, 0.0]], dt=0.25)
        turned = path[1, 2]
        assert turned == pytest.approx(0.7, abs=1e-12)
        assert path[2, 2] == pytest.approx(turned, abs=1e-15)
        assert path[2, 0] == pytest.approx(0.5 * math.cos(turned), abs=1e-12)
        assert path[2, 1] == pytest.approx(0.5 * math.sin(turned), abs=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            pose_path([[1.0, 0.0]], 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            pose_path([1.0, 0.0], 0.1)

    def test_empty_path_is_origin(self):
        assert pose_path(np.empty((0, 2)), 0.1).tolist() == [[0.0, 0.0, 0.0]]

    def test_matches_scalar_recurrence(self, rng):
        # long enough for the heading to wrap many times
        velocities = np.column_stack([rng.uniform(-3.0, 3.0, 1000), rng.uniform(-20.0, 20.0, 1000)])
        path = pose_path(velocities, 0.05)
        expected = pose_oracle(velocities, 0.05)
        assert path.shape == (1001, 3)
        np.testing.assert_allclose(path, expected, rtol=0, atol=1e-12)

    def test_heading_is_stepwise_wrap(self):
        # the heading recurrence is the per-step wrap_angle loop, bit for bit,
        # up to turn rates of 1e6 rad/s
        for seed in range(20):
            r = np.random.default_rng(seed)
            omega = r.uniform(-1.0, 1.0, 500) * 10.0 ** r.uniform(0.0, 6.0, 500)
            heading = [0.0]
            for w in omega.tolist():
                heading.append(wrap_angle(heading[-1] + 0.01 / 6.0 * (w + 2 * w + 2 * w + w)))
            path = pose_path(np.column_stack([r.uniform(-2.0, 2.0, 500), omega]), 0.01)
            assert np.array_equal(path[:, 2], heading)

    def test_steady_turn_heading_does_not_drift(self):
        # 20000 steps of one turn rate: a heading summed without wrapping
        # drifts by rounding as the sum grows past 1000 rad
        velocities = np.column_stack([np.ones(20001), np.full(20001, 7.3)])
        heading = pose_path(velocities, 0.01)[:, 2]
        expected = pose_oracle(velocities, 0.01)[:, 2]
        gap = (heading - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert np.max(np.abs(gap)) <= 1e-9


class TestWrapAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3 * math.pi, math.pi),
        (2 * math.pi, 0.0),
        (-0.5, -0.5),
    ])
    def test_wrap(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)
        assert -math.pi < wrap_angle(a) <= math.pi
