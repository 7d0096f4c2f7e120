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
from functools import reduce

import numpy as np

from .control import Gain, Predictor, Setpoint, delay_steps
from .robot import LtiPlant
from .smallmat import SingularMatrixError, as_vector, is_diagonal, mat_exp, solve, zoh_discretize

CONTROLLERS = ("nodelay", "naive", "predictor-zform", "predictor-window")

# Steps between two divergence scans of the recorded states.
_SCAN_BLOCK = 128
# A lifted block's map has at most _LIFT_COLS columns and it copies at most
# _LIFT_BYTES of record windows; a run whose blocks would be shorter than
# _LIFT_MIN steps is not lifted, as such blocks measured no faster than steps.
_LIFT_COLS, _LIFT_BYTES, _LIFT_MIN = 256, 1 << 24, 16
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
    not square or is singular by :func:`solve`'s rule. For diagonal Bd and
    A + B K, Kd's row i is e^{(A + B K) dt} - Ad's row i over Bd_ii.
    """
    Ad, Bd = step or zoh_discretize(plant.A, plant.B, dt)
    if Bd.shape[0] != Bd.shape[1]:
        return np.asarray(K, dtype=float)
    acl = plant.A + plant.B @ K
    # the nonzero count turns a full Bd away before is_diagonal, which also fails on inf and NaN
    if np.count_nonzero(Bd) <= len(Bd) and is_diagonal(Bd) and is_diagonal(acl):
        bd, target = np.diagonal(Bd), np.diag(np.exp(np.diagonal(acl) * dt)) - Ad
        if np.isfinite(target).all():  # else solve raises, as for any loop
            singular = np.abs(bd).min() < 1e-12 * (np.abs(bd).max() or 1.0)  # |bd| are Bd's singular values
            return np.asarray(K, dtype=float) if singular else target / bd[:, None]
    try:
        return solve(Bd, mat_exp(acl, dt) - Ad)
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
       integral z, kept relative to the first step a of its block of L
       steps: its factors at (k - a) dt come once per run from one batched
       call, and at each block start the N + 1 rows still read move on to
       the new anchor with one product, (z - z_a) e^{A L dt}^T.
    2. plant: the exact ZOH step [Ad 0 Bd] maps row k to row k + 1's state.

    The products stay separate: one over a wider slice would multiply zero
    coefficients by past controls, and 0 * inf = NaN once a control has
    overflowed. Divergence is scanned once per block of L steps (at most
    ``_SCAN_BLOCK``), and the run is cut where a per-step test would cut
    it: at the first state whose inf-norm exceeds the threshold or is not
    finite, as diverged at that state's time; a non-finite state is not
    recorded. After the loop, the window form's forecasts are the forecast
    map over the recorded rows.

    Unclipped (no ``e_max``) runs of any form but the z form step whole
    blocks. When u_k acts at once (lag = 0: nodelay, or naive and
    predictor-window at h = 0), one block spans the run: its states
    x_{k0+j} = F^j (x_{k0}, 1), F the closed loop [Ad + Bd Kd | Bd c], come
    by doubling (F^(2^i) maps the first 2^i rows to the next 2^i), its
    controls by one product of the control map. At lag N >= 1 (naive,
    predictor-window), a block of the z form's L steps is lifted (see
    ``_LIFT_COLS``): ``_lifted_map`` takes the residuals of the two per-step
    products to the block's controls and states, from slots still 0 and once
    more to refine them, which keeps the rounding near the per-step loop's.

    Both kinds of block are checked alike: a block whose controls are all
    finite and whose states from row k0 to row k1 are within the limit
    stands. Any other is cleared from the ``_SCAN_BLOCK`` window holding its
    first failing row and stepped again by the per-step loop, whose scan ends
    the run; the run goes on in blocks of at most ``_SCAN_BLOCK``.
    """
    plant, sp, controller = scenario.plant, scenario.setpoint, scenario.controller
    dt, n, m = scenario.dt, plant.n, plant.m_in
    steps = round(scenario.T / dt)
    N = delay_steps(plant.h, dt)
    lag = 0 if controller == "nodelay" else N
    window, zform = controller == "predictor-window", controller == "predictor-zform"
    x_star, u_star, e_max = sp.x_star, sp.u_star, scenario.e_max
    fold = lag == 0 and e_max is None and not zform
    lifted = lag > 0 and e_max is None and not zform
    # capped at the largest float so that a threshold of inf still stops on an infinite state
    limit = min(scenario.divergence_threshold, 1.7976931348623157e308)

    d = n + 1 + m
    # overflow is no error: it ends the run as diverged (a dt past the float range gives 0 or inf exponentials)
    with np.errstate(over="ignore", invalid="ignore"):
        # sweep_delay hands in the (Ad, Bd, Kd) its runs share
        Ad, Bd, Kd = _shared or _discretize(scenario)
        c = u_star - Kd @ x_star
        # the last control goes to row steps + lag; the plant step after the last
        # sample writes row steps + 1, which is not recorded
        try:
            rec = np.zeros((steps + 1 + max(lag, 1), d))
        except ValueError as exc:
            # numpy refuses a shape past its dimension limit (about 9.2e18) with
            # ValueError, not MemoryError; such a record does not fit either
            raise MemoryError(str(exc)) from exc
        rec[:, n] = 1.0
        rec[:lag, n + 1:] = u_star
        rec[0, :n] = scenario.x0
        plant_map = np.zeros((n, d))
        plant_map[:, :n], plant_map[:, n + 1:] = Ad, Bd
        if window or zform:
            pred = Predictor(plant, dt, (Ad, Bd))
        if window:
            forecast = _forecast_map(pred, d)
            control_map = Kd @ forecast
            control_map[:, n] = c
        else:
            control_map = np.concatenate((Kd, c[:, None]), axis=1)
        # the loop walks four row views in step; row k of each is the control
        # map's input (the record's next w values from row k on, at most N rows,
        # so within the record), u_k's slot, row k itself and x_{k+1}'s slots
        ctl_in = np.ndarray((steps + 1, control_map.shape[1]), float, rec, 0, rec.strides)
        u_out, x_out = rec[lag:, n + 1:], rec[1:, :n]
        cdot, pdot = control_map.dot, plant_map.dot
        block = steps + 1 if fold else _block_length(plant.A, dt) if zform or lifted else _SCAN_BLOCK
        if lifted:
            block = min(block, steps + 1, _LIFT_COLS // (m + n), _LIFT_BYTES // (8 * (N + 1) * d))
            lifted = block >= _LIFT_MIN
            block = block if lifted else _SCAN_BLOCK
        if zform:
            # factors at times from the block start; the last moves z on
            exp_t, z_gain = pred.integral_factors(dt * np.arange(block + 1))
            exp_h, anchor_move = pred.exp_h, exp_t[block].T
            z = np.zeros((N + steps + 2, n))
            predictions = np.empty((steps + 1, n))
            offset = x_star - exp_h @ x_star  # xhat = e^{Ah} x + offset + e^{A j dt} dz

        status, t_d, recorded, k1 = "completed", None, steps + 1, 0
        if fold:
            # F^(2^i)'s state rows, transposed (a view of F by rows: the layout sets the squares' rounding),
            # F the closed loop made square by a last row (0 .. 0 1); an overflowing power fails its block's check
            Ft, squares = np.zeros((n + 1, n + 1)).T, []
            Ft[:, :n], Ft[n, n] = (plant_map[:, :n + 1] + Bd @ control_map).T, 1.0
            for _ in range(block.bit_length()):
                squares.append(Ft[:, :n])
                Ft = Ft.dot(Ft)
        if lifted:
            # the residuals of both per-step products over rows k..k+N: the
            # control map less u_k's slot, the plant map less x_{k+1}'s
            b, flat = m + n, rec.reshape(-1)
            wide = np.ndarray((steps + 1, (N + 1) * d), float, rec, 0, rec.strides)
            own = np.r_[N * d + n + 1:(N + 1) * d, d:d + n]  # u_k's, x_{k+1}'s slots
            res_map = np.zeros((b, (N + 1) * d))
            res_map[:m, :control_map.shape[1]], res_map[m:, :d] = control_map, plant_map
            res_map[np.arange(b), own] = -1.0
            M, res_map = _lifted_map(res_map.reshape(b, N + 1, d), n, block), res_map.T
            slots = own + d * np.arange(block)[:, None]
        while k1 <= steps:
            k0, k1 = k1, min(k1 + block, steps + 1)
            if fold:
                for i in range((k1 - k0).bit_length()):  # rows k0 + 1 .. k1
                    a = k0 + (1 << i)
                    more = min(1 << i, k1 + 1 - a)
                    np.matmul(rec[k0:k0 + more, :n + 1], squares[i], out=rec[a:a + more, :n])
                np.matmul(ctl_in[k0:k1], control_map.T, out=u_out[k0:k1])
            elif lifted:
                # the block's slots start at 0: pass 1 solves, pass 2 refines
                at, size = slots[:k1 - k0].reshape(-1) + k0 * d, (k1 - k0) * b
                for _ in range(2):
                    np.add.at(flat, at, M[:size, :size].dot(wide[k0:k1].dot(res_map).reshape(-1)))
            if fold or lifted:
                ok = _peaks(rec[k0:k1 + 1, :n].T) <= limit
                ok[:-1] &= np.isfinite(_peaks(u_out[k0:k1].T))
                if ok.all():
                    continue  # rows k0..k1 pass the scan
                # else re-step from the _SCAN_BLOCK window holding the first failing row r (r - 1 if r
                # starts it); blocks stay within _SCAN_BLOCK, as an overflowed power fails longer ones
                r, block = int(np.argmin(ok)), min(block, _SCAN_BLOCK)
                k0 += max(0, min(r - 1, r - r % _SCAN_BLOCK))
                x_out[k0:k1] = 0.0  # the forecast map reads state slots past row k
                k1 = min(k0 + block, steps + 1)
            if zform:
                # re-anchor the rows still read at this block's start
                kept = z[k0:N + k0 + 1]
                np.matmul(kept - kept[0], anchor_move, out=kept)
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
            ok = _peaks(rec[k0:k1, :n].T) <= limit
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
        t=np.arange(recorded) * dt,
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


def _block_length(A: np.ndarray, dt: float) -> int:
    """Steps per z-form or lifted block: ``_SCAN_BLOCK``, or fewer so that
    ||A||_inf L dt <= 1, which bounds e^{A j dt}, j <= L, by e."""
    rate = float(np.linalg.norm(A, np.inf)) * dt
    return _SCAN_BLOCK if rate * _SCAN_BLOCK <= 1 else max(1, int(1 / rate))


def _toeplitz(seq: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The block-Toeplitz matrix with block (i, s) = seq[i - s + cols - 1],
    copied from a view of the blocks reversed, in which each row is one run."""
    length, a, b = seq.shape
    rev = np.ascontiguousarray(seq[::-1].transpose(1, 0, 2))
    step = rev.strides[1]
    view = np.ndarray((rows, a, cols * b), rev.dtype, rev, (length - cols) * step,
                      (-step, rev.strides[0], rev.itemsize))
    return view.copy().reshape(rows * a, cols * b)


def _lifted_map(res_map: np.ndarray, n: int, L: int) -> np.ndarray:
    """(I - T)^{-1} for L steps of a delayed unclipped loop, in the unknowns
    y_i = (u_{k0+i}, x_{k0+1+i}) of a block from row k0.

    ``res_map`` gives y_i's residuals from the rows k0+i .. k0+i+N; off y_i's
    own slots it holds T's blocks tau_e: u_{k0+i-e} is in row N - e's input
    slot, x_{k0+1+i-e} in row 1 - e's state slot. The map is block Toeplitz;
    its first block column comes by doubling: with P_K the inverse over K
    blocks, the next K are P_K T[K:2K, :K] p_{:K}.
    """
    b, N = res_map.shape[0], res_map.shape[1] - 1
    tau = np.zeros((L + N, b, b))  # tau_e at row e
    tau[N:0:-1, :, :b - n] = res_map[:, :N, n + 1:].transpose(1, 0, 2)
    tau[1, :, b - n:] = res_map[:, 0, :n]
    p, K = np.zeros((2 * L - 1, b, b)), 1  # p_l at row L - 1 + l
    p[L - 1] = np.eye(b)
    while K < L:
        k = min(K, L - K)
        w = _toeplitz(tau[1:K + k], k, K) @ p[L - 1:L - 1 + K].reshape(K * b, b)
        p[L - 1 + K:L - 1 + K + k] = (_toeplitz(p[L - k:L - 1 + k], k, k) @ w).reshape(k, b, b)
        K += k
    return _toeplitz(p, L, L)


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


def _peaks(columns) -> np.ndarray:
    """Max |column| by row, NaN where one is NaN: numpy maps or reduces along short rows a row at a time."""
    return reduce(np.maximum, map(np.abs, columns))


def compute_metrics(traj: Trajectory, setpoint: Setpoint, x0) -> Metrics:
    """Settling (2% band on the inf-norm of the initial offset) and
    prediction-pair accuracy."""
    x0 = as_vector(x0, len(setpoint.x_star), "x0")
    diverged = traj.status == "diverged"
    err = _peaks(col - x for col, x in zip(traj.states.T, setpoint.x_star))
    max_excursion = float(err.max()) if len(err) else 0.0

    offset0 = float(np.abs(x0 - setpoint.x_star).max())
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
        pairs = len(traj.states) - n_delay
        if pairs > 0:  # none on a run that ends before h
            issued, realized = traj.predictions[:pairs].T, traj.states[n_delay:].T
            max_prediction_error = float(np.max(_peaks(p - x for p, x in zip(issued, realized))))
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
    with np.errstate(over="ignore", invalid="ignore"):  # as in run
        shared = _discretize(base_scenario)
    out = []
    for h in h_values:
        plant = LtiPlant(base_scenario.plant.A, base_scenario.plant.B, float(h))
        _, m_naive = run(replace(base_scenario, plant=plant, controller="naive"), _shared=shared)
        _, m_pred = run(replace(base_scenario, plant=plant, controller="predictor-window"), _shared=shared)
        out.append((float(h), m_naive, m_pred))
    return out
