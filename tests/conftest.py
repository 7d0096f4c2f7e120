import math

import numpy as np
import pytest

from delaycomp.control import delay_steps
from delaycomp.sim import _window_factors, matched_gain
from delaycomp.smallmat import mat_exp, zoh_discretize


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


def random_matrix(rng, n, max_norm):
    """Random matrix scaled to a prescribed inf-norm."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    norm = np.linalg.norm(a, np.inf)
    if norm > 0:
        a *= rng.uniform(0.1, 1.0) * max_norm / norm
    return a


def plant_window(plant, dt):
    """``sim._window_factors`` (e^{Ah}, G) of ``plant`` at step ``dt``, from
    its own ZOH step and delay depth."""
    return _window_factors(plant.A, zoh_discretize(plant.A, plant.B, dt)[1], dt, delay_steps(plant.h, dt))


def window_forecast(factors, x, window):
    """The window-form forecast e^{Ah} x + G w from the ``factors``
    (e^{Ah}, G), the state ``x`` and the ``(N, m)`` window w of held inputs,
    oldest first."""
    exp_h, G = factors
    return exp_h @ x + G @ np.ravel(window)


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]: one step of the heading wrap that
    ``robot.pose_path`` applies in sequence."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def rk4_zoh_oracle(A, B, x0, holds, dt, substeps=1000):
    """Brute-force propagation of dx/dt = A x + B u over consecutive hold
    intervals of length dt, via classical RK4 at dt/substeps.

    For a linear field one RK4 substep of length s is the matrix polynomial
    x+ = x + D x + Q B u with D = sA + (sA)^2/2 + (sA)^3/6 + (sA)^4/24 and
    Q = s (I + sA/2 + (sA)^2/6 + (sA)^3/24), so each substep applies D and Q
    in place of the four stage evaluations. D leaves out the identity, so
    the increment keeps its precision as it does in the stage form.
    Independent of the package's exponential-based stepping; used as the
    reference for prediction-exactness checks.
    """
    x = np.array(x0, dtype=float)
    hsub = dt / substeps
    M = hsub * np.asarray(A, dtype=float)
    I = np.eye(len(M))
    series = I + M @ (I / 2 + M @ (I / 6 + M / 24))  # I + M/2 + M^2/6 + M^3/24
    D, Q = M @ series, hsub * series
    for u in holds:
        q = Q @ (B @ u)
        for _ in range(substeps):
            x = x + (D @ x + q)
    return x


def step_plant_exact(plant, x, u_delayed, dt):
    """One exact ZOH step, x+ = Ad x + Bd u with the delayed input held,
    discretizing the plant on every call."""
    Ad, Bd = zoh_discretize(plant.A, plant.B, dt)
    return Ad @ np.asarray(x, dtype=float) + Bd @ np.asarray(u_delayed, dtype=float)


def step_plant_rk4(plant, x, u_delayed, dt):
    """One classical Runge-Kutta step with the input held constant.

    Order-check oracle for the exact stepper; the closed loop itself always
    uses the exact zero-order-hold step.
    """
    A, B = plant.A, plant.B
    bu = B @ np.asarray(u_delayed, dtype=float)

    def f(xi):
        return A @ xi + bu

    x = np.asarray(x, dtype=float)
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def pose_oracle(velocities, dt):
    """Planar poses by the scalar RK4 recurrence, one step at a time.

    Row k is the pose after the first k (v, omega) steps from the origin;
    the heading is wrapped to (-pi, pi] after every step. Reference for the
    vectorized ``robot.pose_path``.
    """
    x = y = psi = 0.0
    rows = [(x, y, psi)]
    for v, omega in np.asarray(velocities, dtype=float):

        def deriv(p):
            return v * math.cos(p), v * math.sin(p), omega

        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1[2])
        k3 = deriv(psi + 0.5 * dt * k2[2])
        k4 = deriv(psi + dt * k3[2])
        x = x + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y = y + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        psi = psi + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        psi = wrap_angle(psi)
        rows.append((x, y, psi))
    return np.array(rows)


def run_oracle(scenario):
    """The run loop as one step at a time: forecast, control, record, a
    divergence test on every state, then one exact ZOH step.

    Reference for ``sim.run``, which folds the setpoint and gain into one
    affine map, scans for divergence per block and fills the window-form
    forecasts after the loop. The window form's factors are its own, one
    exponential per grid time: e^{Ah} and G's blocks e^{A (N-1-i) dt} Bd,
    oldest first. Returns ``(t, states, controls, predictions, status,
    t_d)``.
    """
    plant, sp, controller = scenario.plant, scenario.setpoint, scenario.controller
    dt, n = scenario.dt, plant.n
    steps = round(scenario.T / dt)
    N = delay_steps(plant.h, dt)
    Ad, Bd = zoh_discretize(plant.A, plant.B, dt)
    exp_h = mat_exp(plant.A, N * dt)
    G = np.hstack([np.zeros((n, 0))] + [mat_exp(plant.A, (N - 1 - i) * dt) @ Bd for i in range(N)])
    lag = 0 if controller == "nodelay" else N
    Kd = matched_gain(plant, scenario.gain.K, dt, (Ad, Bd))
    gamma = zoh_discretize(-plant.A, plant.B, dt)[1]
    x_star, u_star, e_max = sp.x_star, sp.u_star, scenario.e_max
    limit = min(scenario.divergence_threshold, np.finfo(float).max)

    history = np.empty((N + steps + 1, plant.m_in))
    history[:N] = u_star
    z = np.zeros((N + steps + 1, n))
    t_arr = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, n))
    predictions = np.full((steps + 1, n), np.nan)

    x = scenario.x0.copy()
    status, t_d = "completed", None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if controller == "predictor-window":
                xhat = window_forecast((exp_h, G), x, history[k:N + k])
                dev = xhat - x_star
            elif controller == "predictor-zform":
                dev = exp_h @ (x - x_star) + mat_exp(plant.A, t_arr[k]) @ (z[N + k] - z[k])
                xhat = x_star + dev
            else:
                xhat = None
                dev = x - x_star
            u = u_star + Kd @ dev
            if e_max is not None:
                u = np.clip(u, -e_max, e_max)

            history[N + k] = u
            states[k] = x
            if xhat is not None:
                predictions[k] = xhat

            if not (np.abs(x).max() <= limit):
                status, t_d = "diverged", k * dt
                break
            if k == steps:
                break

            z[N + k + 1] = z[N + k] + mat_exp(plant.A, -t_arr[k]) @ (gamma @ (u - u_star))
            x = Ad @ x + Bd @ history[N + k - lag]
        recorded = k + 1 if np.all(np.isfinite(x)) else k
    return (t_arr[:recorded], states[:recorded], history[N:N + recorded],
            predictions[:recorded], status, t_d)
