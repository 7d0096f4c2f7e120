"""Deterministic fixed-step closed-loop simulation of the delayed plant.

The plant is propagated by its exact zero-order-hold discretization, so the
delay-compensation claim becomes a machine-checkable identity rather than an
O(dt^k) approximation: with exact prediction, the control applied at t - h
equals the undelayed feedback evaluated at x(t), and the t >= h trajectory is
the undelayed closed-loop trajectory shifted by h.

The loop applies the discrete-matched gain Kd of :func:`matched_gain`:
Ad + Bd Kd = e^{(A + B K) dt}, so holding u = u* + Kd (x_k - x*) over one
sample reproduces the continuous closed loop dx/dt = (A + B K)(x - x*) at
every sample time. For small dt, Kd -> K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .control import ZFORM_MAX_EXPONENT, Gain, Predictor, Setpoint, delay_steps
from .robot import LtiPlant
from .smallmat import SingularMatrixError, as_vector, mat_exp, solve, zoh_discretize

CONTROLLERS = ("nodelay", "naive", "predictor-zform", "predictor-window")

# Steps between two divergence scans of the recorded states.
_SCAN_BLOCK = 128
# Bytes of record windows that one product of the forecast fill copies; kept
# small, as the copy and BLAS's packing of it add to a run's peak memory.
_FILL_BYTES = 1 << 16


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
        if not (self.T >= self.dt and math.isfinite(self.T / self.dt)):
            raise ValueError(f"horizon T={self.T:g} must be >= dt and a finite number of dt={self.dt:g} steps")
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
    (NaN rows for non-predictor controllers). ``controls[k]`` is the control
    issued at t_k, which the plant receives at t_k + h (at once for nodelay).
    ``t_d`` is the time of the state that ended a diverged run.
    ``states`` and ``controls`` are strided views of the run's record.
    """

    t: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    predictions: np.ndarray
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


def matched_gain(plant: LtiPlant, K: np.ndarray, dt: float, step=None) -> np.ndarray:
    """Discrete-matched feedback gain for the sampling period ``dt``.

    Solves Bd Kd = e^{(A + B K) dt} - Ad, with the plant's (Ad, Bd) at dt
    from ``step`` when given, so the sampled loop reproduces the continuous
    closed loop exactly at sample instants. Returns K unchanged when Bd is
    not square or is singular.
    """
    Ad, Bd = step or zoh_discretize(plant.A, plant.B, dt)
    if Bd.shape[0] != Bd.shape[1]:
        return np.asarray(K, dtype=float)
    target = mat_exp(plant.A + plant.B @ K, dt) - Ad
    try:
        return solve(Bd, target)
    except SingularMatrixError:
        return np.asarray(K, dtype=float)


def _discretize(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ad, Bd, Kd) for the scenario's plant, gain and dt, from one ZOH
    discretization; the delay and controller do not change them."""
    step = zoh_discretize(scenario.plant.A, scenario.plant.B, scenario.dt)
    return step + (matched_gain(scenario.plant, scenario.gain.K, scenario.dt, step),)


def run(scenario: Scenario, _shared=None) -> tuple[Trajectory, Metrics]:
    """Simulate one scenario; returns the trajectory and its metrics.

    The run lives in one record indexed by step, so no clock can drift. Row r
    holds (x_r, 1, v_r): the state, a constant 1 and the input held over step
    r, v_r = u_{r-lag} (lag = N, or 0 for nodelay; u* for r < lag). Over row
    views of the record taken before the loop, a step is two in-place
    matrix-vector products:

    1. control: one affine map (setpoint and gain folded in, c = u* - Kd x*
       on the constant slot) writes u_k into row k + lag's input slot. The
       window form's map is Kd times the forecast over rows k..k+N-1, zero on
       the state slots of rows not yet reached; naive and nodelay apply
       [Kd c] to (x_k, 1). The z form computes its forecast from the running
       integral z, its exponentials taken per block in one batched call.
    2. plant: the exact ZOH step [Ad 0 Bd] maps row k to row k + 1's state.

    The products stay separate: one over a wider slice would multiply zero
    coefficients by past controls, and 0 * inf = NaN once a control has
    overflowed. Divergence is scanned once per ``_SCAN_BLOCK`` steps, and the
    run is cut where a per-step test would cut it: at the first state whose
    inf-norm exceeds the threshold or is not finite, as diverged at that
    state's time; a non-finite state is not recorded. After the loop, the
    window form's forecasts are the forecast map over the recorded rows.
    """
    # sweep_delay hands in the (Ad, Bd, Kd) its runs share
    Ad, Bd, Kd = _shared or _discretize(scenario)
    plant, sp, controller = scenario.plant, scenario.setpoint, scenario.controller
    dt, n, m = scenario.dt, plant.n, plant.m_in
    steps = round(scenario.T / dt)
    pred = Predictor(plant, dt, (Ad, Bd))
    N = pred.depth
    lag = 0 if controller == "nodelay" else N
    window, zform = controller == "predictor-window", controller == "predictor-zform"
    x_star, u_star, e_max = sp.x_star, sp.u_star, scenario.e_max
    c = u_star - Kd @ x_star
    # capped so that a threshold of inf still stops on an infinite state
    limit = min(scenario.divergence_threshold, np.finfo(float).max)

    d = n + 1 + m
    # the last control goes to row steps + lag; the plant step after the last
    # sample writes row steps + 1, which is not recorded
    rec = np.zeros((steps + 1 + max(lag, 1), d))
    rec[:, n] = 1.0
    rec[:lag, n + 1:] = u_star
    rec[0, :n] = scenario.x0
    plant_map = np.hstack([Ad, np.zeros((n, 1)), Bd])
    if window:
        forecast = _forecast_map(pred, d)
        control_map = Kd @ forecast
    else:
        control_map = np.hstack([Kd, np.zeros((m, 1))])
    control_map[:, n] = c
    # the loop walks four row views in step; row k of each is the control
    # map's input (the record's next w values from row k on, at most N rows,
    # so within the record), u_k's slot, row k itself and x_{k+1}'s slots
    ctl_in = as_strided(rec, (steps + 1, control_map.shape[1]), rec.strides, writeable=False)
    u_out, x_out = rec[lag:, n + 1:], rec[1:, :n]
    cdot, pdot = control_map.dot, plant_map.dot
    t_arr = np.arange(steps + 1) * dt
    if zform:
        exp_h = pred.exp_h
        z = np.zeros((N + steps + 2, n))
        predictions = np.empty((steps + 1, n))
        offset = x_star - exp_h @ x_star  # xhat = e^{Ah} x + offset + e^{At} dz

    status, t_d, recorded = "completed", None, steps + 1
    # overflow is not an error here: it ends the run as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, steps + 1, _SCAN_BLOCK):
            k1 = min(k0 + _SCAN_BLOCK, steps + 1)
            if zform:
                exp_t, z_gain = pred.integral_factors(t_arr[k0:k1])
            rows = zip(range(k0, k1), ctl_in[k0:k1], u_out[k0:k1], rec[k0:k1], x_out[k0:k1])
            for k, win, u, row, x_next in rows:
                if zform:
                    j, z_now = k - k0, z[N + k]
                    xhat = exp_h.dot(row[:n]) + offset + exp_t[j].dot(z_now - z[k])
                    predictions[k] = xhat
                    np.add(c, Kd.dot(xhat), out=u)
                else:
                    cdot(win, out=u)
                if e_max is not None:
                    u.clip(-e_max, e_max, out=u)
                if zform:
                    z[N + k + 1] = z_now + z_gain[j].dot(u - u_star)
                pdot(row, out=x_next)
            ok = np.abs(rec[k0:k1, :n]).max(axis=1) <= limit
            if not ok.all():
                k = k0 + int(np.argmin(ok))
                status, t_d = "diverged", k * dt
                recorded = k + 1 if np.all(np.isfinite(rec[k, :n])) else k
                break
        states, controls = rec[:recorded, :n], u_out[:recorded]
        if window:
            # the forecast map is zero on state slots past row k, but 0 * inf
            # is NaN: clear the rows the run did not record
            rec[recorded:, :n] = 0.0
            predictions = _forecasts(forecast, ctl_in, recorded)
        elif zform:
            predictions = predictions[:recorded]
        else:
            predictions = np.full((recorded, n), np.nan)

    traj = Trajectory(
        t=t_arr[:recorded],
        states=states,
        controls=controls,
        predictions=predictions,
        status=status,
        t_d=t_d,
        dt=dt,
        h=plant.h,
        controller=scenario.controller,
    )
    return traj, compute_metrics(traj, sp, scenario.x0)


def _forecast_map(pred: Predictor, d: int) -> np.ndarray:
    """The window-form forecast as one map over the flat record rows
    k..k+N-1 of width d: e^{Ah} on row k's state slot, G's blocks on the
    input slots, zeros elsewhere; over (x_k, 1) alone when N = 0."""
    (n, m), N = pred.Bd.shape, pred.depth
    out = np.zeros((n, max(N * d, n + 1)))
    if N:
        out.reshape(n, N, d)[:, :, n + 1:] = pred.G.reshape(n, N, m)
    out[:, :n] = pred.exp_h
    return out


def _forecasts(forecast: np.ndarray, windows: np.ndarray, rows: int) -> np.ndarray:
    """Row k is ``forecast`` applied to ``windows[k]``, for k < rows, a chunk
    of windows at a time so that the copy BLAS needs stays small."""
    out = np.empty((rows, forecast.shape[0]))
    chunk = max(1, _FILL_BYTES // (8 * forecast.shape[1]))
    for r0 in range(0, rows, chunk):
        r1 = min(r0 + chunk, rows)
        np.dot(windows[r0:r1], forecast.T, out=out[r0:r1])
    return out


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

    Each h must be an integer multiple of the scenario's dt. All runs share
    one discretization of the plant and gain. Results keep the input order.
    """
    shared = _discretize(base_scenario)
    out = []
    for h in h_values:
        plant = LtiPlant(base_scenario.plant.A, base_scenario.plant.B, float(h))
        _, m_naive = run(replace(base_scenario, plant=plant, controller="naive"), _shared=shared)
        _, m_pred = run(replace(base_scenario, plant=plant, controller="predictor-window"), _shared=shared)
        out.append((float(h), m_naive, m_pred))
    return out
