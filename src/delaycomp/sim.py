"""Deterministic fixed-step closed-loop simulation of the delayed plant.

The plant is propagated by its exact zero-order-hold discretization, so the
delay-compensation claim becomes a machine-checkable identity rather than an
O(dt^k) approximation: with exact prediction, the control applied at t - h
equals the undelayed feedback evaluated at x(t), and the t >= h trajectory is
the undelayed closed-loop trajectory shifted by h.

To make the sampled loop agree with the continuous-time design at sample
instants, the loop applies the discrete-matched gain
Kd = Bd^{-1} (e^{(A + B K) dt} - Ad): then Ad + Bd Kd = e^{(A + B K) dt}
exactly, i.e. holding u = u* + Kd (x_k - x*) over one sample reproduces the
continuous closed loop dx/dt = (A + B K)(x - x*) at every sample time. For
small dt, Kd -> K. Plants whose Bd is not square-invertible fall back to the
raw design gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import ZFORM_MAX_EXPONENT, Gain, Predictor, Setpoint, delay_steps
from .robot import LtiPlant, Pose, integrate_pose
from .smallmat import SingularMatrixError, as_vector, mat_exp, solve, zoh_discretize

CONTROLLERS = ("nodelay", "naive", "predictor-zform", "predictor-window")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One closed-loop run: plant, controller selection and sampling grid.

    Every field is validated here, so :func:`run` works on raw arrays.
    """

    plant: LtiPlant
    gain: Gain
    setpoint: Setpoint
    controller: str
    x0: np.ndarray
    dt: float
    T: float
    divergence_threshold: float = 1e6
    e_max: float | None = None

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}; choose from {CONTROLLERS}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.dt <= self.T < math.inf:
            raise ValueError(f"horizon T must be finite and >= dt, got T={self.T}, dt={self.dt}")
        if not self.divergence_threshold > 0:
            raise ValueError("divergence_threshold must be > 0")
        if self.e_max is not None and not self.e_max > 0:
            raise ValueError("e_max must be > 0 when set")
        delay_steps(self.plant.h, self.dt)
        n, m = self.plant.n, self.plant.m_in
        if self.gain.K.shape != (m, n):
            raise ValueError(f"gain shape {self.gain.K.shape} does not match plant ({m}, {n})")
        if self.setpoint.x_star.shape != (n,) or self.setpoint.u_star.shape != (m,):
            raise ValueError(f"setpoint sizes do not match plant (n={n}, m={m})")
        if self.controller == "predictor-zform":
            exponent = float(np.linalg.norm(self.plant.A, np.inf)) * self.T
            if exponent > ZFORM_MAX_EXPONENT:
                raise ValueError(
                    f"predictor-zform horizon T={self.T:g} too long: ||A||_inf T = {exponent:g} "
                    f"exceeds {ZFORM_MAX_EXPONENT:g}, the z form's overflow bound; "
                    "use predictor-window"
                )
        x0 = as_vector(self.x0, n, "x0")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop record.

    ``predictions[k]`` is the forecast of the state at t_k + h issued at t_k
    (NaN rows for non-predictor controllers). ``controls`` is the tail of the
    run's step-indexed control record. ``poses`` holds the integrated planar
    pose for two-state (v, omega) plants and zeros otherwise. ``t_d`` is the
    time of the state that ended a diverged run.
    """

    t: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    predictions: np.ndarray
    poses: np.ndarray
    status: str  # "completed" | "diverged"
    t_d: float | None
    dt: float
    h: float
    controller: str


@dataclass
class Metrics:
    """Settling and prediction-accuracy summary of one trajectory."""

    settled: bool
    settling_time: float | None
    max_excursion: float
    max_prediction_error: float | None
    diverged: bool


def step_plant(plant: LtiPlant, x, u_delayed, dt: float) -> np.ndarray:
    """One exact ZOH step: x+ = Ad x + Bd u with the delayed input held."""
    x = as_vector(x, plant.n, "state")
    u = as_vector(u_delayed, plant.m_in, "control")
    Ad, Bd = zoh_discretize(plant.A, plant.B, dt)
    return Ad @ x + Bd @ u


def matched_gain(plant: LtiPlant, K: np.ndarray, dt: float) -> np.ndarray:
    """Discrete-matched feedback gain for the sampling period ``dt``.

    Solves Bd Kd = e^{(A + B K) dt} - Ad so the sampled loop reproduces the
    continuous closed loop exactly at sample instants. Returns K unchanged
    when Bd is not square or is singular.
    """
    Ad, Bd = zoh_discretize(plant.A, plant.B, dt)
    if Bd.shape[0] != Bd.shape[1]:
        return np.asarray(K, dtype=float)
    target = mat_exp(plant.A + plant.B @ K, dt) - Ad
    try:
        cols = [solve(Bd.copy(), target[:, j]) for j in range(target.shape[1])]
    except SingularMatrixError:
        return np.asarray(K, dtype=float)
    return np.column_stack(cols)


def run(scenario: Scenario) -> tuple[Trajectory, Metrics]:
    """Simulate one scenario; returns the trajectory and its metrics.

    The delay line is the control record ``history``, indexed by step: rows
    0..N-1 hold u* over [-h, 0) and row N + k holds the control issued at t_k,
    so no clock can drift. Per sample k: forecast x(t_k + h) from x(t_k) and
    the window history[k:N+k] (z form: from its running integral, kept in a
    step-indexed array of the same kind), apply u = u* + Kd (xhat - x*),
    record, let the plant consume row N + k - lag (lag = N, or 0 for the
    nodelay controller), integrate the pose and take one exact ZOH step.
    Stops early, as diverged, on a state whose inf-norm exceeds the divergence
    threshold or is not finite; a non-finite state is not recorded.
    """
    plant, sp, controller = scenario.plant, scenario.setpoint, scenario.controller
    dt, n = scenario.dt, plant.n
    steps = round(scenario.T / dt)
    pred = Predictor(plant, dt)
    N, Ad, Bd = pred.depth, pred.Ad, pred.Bd
    lag = 0 if controller == "nodelay" else N
    Kd = matched_gain(plant, scenario.gain.K, dt)
    x_star, u_star, e_max = sp.x_star, sp.u_star, scenario.e_max
    # capped so that a threshold of inf still stops on an infinite state
    limit = min(scenario.divergence_threshold, np.finfo(float).max)

    history = np.empty((N + steps + 1, plant.m_in))
    history[:N] = u_star
    z = np.zeros((N + steps + 1, n)) if controller == "predictor-zform" else None
    t_arr = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, n))
    predictions = np.full((steps + 1, n), np.nan)
    poses = np.zeros((steps + 1, 3))

    x = scenario.x0.copy()
    pose = Pose()
    status, t_d = "completed", None
    # overflow is not an error here: it ends the run as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if controller == "predictor-window":
                xhat = pred(x, history[k:N + k])
                dev = xhat - x_star
            elif z is not None:
                dev = pred.from_integral(x - x_star, t_arr[k], z[N + k] - z[k])
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
            poses[k] = (pose.x_pos, pose.y_pos, pose.heading)

            if not (np.abs(x).max() <= limit):
                status, t_d = "diverged", k * dt
                break
            if k == steps:
                break

            if z is not None:
                z[N + k + 1] = z[N + k] + pred.integral_step(t_arr[k], u - u_star)
            if n == 2:
                pose = integrate_pose(pose, x[0], x[1], dt)
            x = Ad @ x + Bd @ history[N + k - lag]
    recorded = k + 1 if np.all(np.isfinite(x)) else k

    traj = Trajectory(
        t=t_arr[:recorded],
        states=states[:recorded],
        controls=history[N:N + recorded],
        predictions=predictions[:recorded],
        poses=poses[:recorded],
        status=status,
        t_d=t_d,
        dt=dt,
        h=plant.h,
        controller=scenario.controller,
    )
    return traj, compute_metrics(traj, sp, scenario.x0)


def compute_metrics(traj: Trajectory, setpoint: Setpoint, x0) -> Metrics:
    """Settling (2% band on the inf-norm of the initial offset) and
    prediction-pair accuracy."""
    x0 = as_vector(x0, name="x0")
    diverged = traj.status == "diverged"
    err = np.linalg.norm(traj.states - setpoint.x_star, np.inf, axis=1)
    max_excursion = float(np.max(err)) if len(err) else 0.0

    offset0 = float(np.linalg.norm(x0 - setpoint.x_star, np.inf))
    if diverged:
        settled, settling_time = False, None
    elif offset0 == 0.0:
        settled, settling_time = True, 0.0
    else:
        band = 0.02 * offset0
        violations = np.nonzero(err > band)[0]
        if len(violations) == 0:
            settled, settling_time = True, 0.0
        elif violations[-1] == len(err) - 1:
            settled, settling_time = False, None
        else:
            settled, settling_time = True, float(traj.t[violations[-1] + 1])

    max_prediction_error = None
    if traj.controller in ("predictor-zform", "predictor-window"):
        n_delay = delay_steps(traj.h, traj.dt)
        pairs = max(len(traj.states) - n_delay, 0)  # none on a run shorter than h
        issued, realized = traj.predictions[:pairs], traj.states[n_delay:]
        max_prediction_error = float(np.max(np.abs(issued - realized), initial=0.0))
    return Metrics(
        settled=settled,
        settling_time=settling_time,
        max_excursion=max_excursion,
        max_prediction_error=max_prediction_error,
        diverged=diverged,
    )


def sweep_delay(base_scenario: Scenario, h_values) -> list[tuple[float, Metrics, Metrics]]:
    """Run naive vs. predictor-window pairs over a list of delays.

    Each h must be an integer multiple of the scenario's dt. Results keep the
    input order.
    """
    out = []
    for h in h_values:
        plant = LtiPlant(base_scenario.plant.A, base_scenario.plant.B, float(h))
        naive = replace(base_scenario, plant=plant, controller="naive")
        pred = replace(base_scenario, plant=plant, controller="predictor-window")
        _, m_naive = run(naive)
        _, m_pred = run(pred)
        out.append((float(h), m_naive, m_pred))
    return out
