"""Deterministic fixed-step closed-loop simulation of the delayed plant.

The plant is propagated by its exact zero-order-hold discretization, so the
delay-compensation claim becomes a machine-checkable identity rather than an
O(dt^k) approximation: with exact prediction, the control applied at t - h
equals the undelayed feedback evaluated at x(t), and the t >= h trajectory is
the undelayed closed-loop trajectory shifted by h. The loop feeds back
through the discrete-matched gain of :func:`matched_gain`, which makes the
sampled loop the continuous closed loop at every sample time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .control import Gain, Setpoint, delay_steps
from .robot import LtiPlant
from .smallmat import SingularMatrixError, as_vector, is_diagonal, mat_exp, solve, zoh_unchecked

CONTROLLERS = ("nodelay", "naive", "predictor-zform", "predictor-window")

# Steps between two divergence scans of the recorded states.
_SCAN_BLOCK = 128
# A lifted block's map has at most _LIFT_COLS columns and it copies at most
# _LIFT_BYTES of record windows; a run whose blocks would be shorter than
# _LIFT_MIN steps is not lifted, as such blocks measured no faster than steps.
_LIFT_COLS, _LIFT_BYTES, _LIFT_MIN = 256, 1 << 24, 16
# A lifted block map whose defect (``_defect``) is at most this takes one pass per block, not two.
_ONE_PASS_DEFECT = 2.0 ** -40
# Bytes of input windows that one product of the forecast fill copies; kept
# well under a run's memory, as the copy adds to its peak.
_FILL_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class Scenario:
    """One closed-loop run: plant, controller selection and sampling grid.

    Every field is validated here, and ``loop`` formed once, so :func:`run` works on raw arrays. The
    grid is kept as two ints that the constructor does not take, the delay depth ``N`` from
    :func:`delay_steps` and the step count ``steps``, T/dt rounded; :func:`run` reads them, and
    ``dataclasses.replace`` forms both again.
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
    N: int = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}; choose from {CONTROLLERS}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (self.T >= self.dt and math.isfinite(self.T / self.dt)):
            raise ValueError(f"horizon T={self.T:g} must be >= dt and a finite number of dt={self.dt:g} steps")
        object.__setattr__(self, "steps", round(self.T / self.dt))
        if not self.divergence_threshold > 0:
            raise ValueError("divergence_threshold must be > 0")
        if self.e_max is not None and not self.e_max > 0:
            raise ValueError("e_max must be > 0 when set")
        object.__setattr__(self, "N", delay_steps(self.plant.h, self.dt))
        n, m = self.plant.n, self.plant.m_in
        if self.gain.K.shape != (m, n):
            raise ValueError(f"gain shape {self.gain.K.shape} does not match plant ({m}, {n})")
        if self.setpoint.x_star.shape != (n,) or self.setpoint.u_star.shape != (m,):
            raise ValueError(f"setpoint sizes do not match plant (n={n}, m={m})")
        x0 = as_vector(self.x0, n, "x0")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    @cached_property
    def loop(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampled loop (Ad, Bd, Kd), which depends on neither h nor the controller: the ZOH step without
        the checks that ran above, then :func:`matched_gain`, which raises ValueError if it is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # a dt past the float range gives 0 or inf exponentials
            step = zoh_unchecked(self.plant.A, self.plant.B, self.dt)
            return step + (matched_gain(self.plant, self.gain.K, self.dt, step),)


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop record.

    ``predictions[k]`` is the forecast of the state at t_k + h issued at t_k
    (NaN rows for non-predictor controllers). ``controls[k]`` is the control
    issued at t_k, which the plant receives at t_k + h (at once for nodelay).
    ``t_d`` is the time of the state that ended a diverged run, and ``N``
    the delay depth simulated, the scenario's (a forecast pairs row k with
    row k + N). ``states`` and ``controls`` are strided views of the run's
    record.
    """

    t: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    predictions: np.ndarray
    status: str  # "completed" | "diverged"
    t_d: float | None
    dt: float
    N: int
    controller: str


@dataclass
class Metrics:
    """Settling and prediction-accuracy summary of one trajectory."""

    settled: bool
    settling_time: float | None
    max_excursion: float
    max_prediction_error: float | None
    diverged: bool


def matched_gain(plant: LtiPlant, K: np.ndarray, dt: float, step: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Discrete-matched feedback gain Kd for the sampling period ``dt``, which solves
    Bd Kd = e^{(A + B K) dt} - Ad (so Ad + Bd Kd = e^{(A + B K) dt}, and Kd -> K as dt -> 0),
    with the plant's (Ad, Bd) from ``step``. K when Bd is not square or is singular by
    :func:`solve`'s rule; ValueError when Bd or the target is not finite. For A + B K = diag(r) and a
    non-singular Bd = diag(bd) (the robot), Kd = (diag(e^{r dt}) - Ad) / bd by rows, with no mat_exp or solve.
    """
    Ad, Bd = step
    K = np.asarray(K, dtype=float)
    if Bd.shape[0] != Bd.shape[1]:
        return K
    acl = plant.A + plant.B @ K
    diagonal = is_diagonal(Bd) and is_diagonal(acl)  # is_diagonal fails on inf and NaN
    target = (np.diag(np.exp(acl.diagonal() * dt)) if diagonal else mat_exp(acl, dt)) - Ad
    if not all(map(math.isfinite, target.ravel().tolist() + Bd.ravel().tolist())):
        raise ValueError(f"Bd or e^{{(A + B K) dt}} - Ad is not finite at dt={dt:g}")
    size = np.abs(Bd.diagonal()).tolist()  # a diagonal Bd's singular values
    if diagonal and min(size) >= 1e-12 * (max(size) or 1.0):  # else solve's rule finds Bd singular
        return target / Bd.diagonal()[:, None]
    try:
        return solve(Bd, target)
    except SingularMatrixError:
        return K


def run(scenario: Scenario) -> tuple[Trajectory, Metrics]:
    """Simulate one scenario; returns the trajectory and its metrics. It
    reads the step count and the delay depth N from the scenario, and
    derives neither from h or T.

    The run lives in one record indexed by step, so no clock can drift. Row r
    holds (x_r, 1, v_r): the state, a constant 1 and the input held over step
    r, v_r = u_{r-lag} (lag = N, or 0 for nodelay; u* for r < lag). A step is
    two affine maps over row views of the record taken before the loop:

    1. control: one map (setpoint and gain folded in, c = u* - Kd x* on the
       constant slot) writes u_k into row k + lag's input slot. The window
       form's map is Kd times its forecast (``_window_factors``) over rows
       k..k+N-1, zero on the state slots of rows not yet reached; naive and
       nodelay apply [Kd c] to (x_k, 1). The z form forecasts from a running
       integral (``_zform``). At N = 0 the forecast is the state, so every
       controller applies [Kd c], and a forecast controller's predictions
       are its states.
    2. plant: the exact ZOH step [Ad 0 Bd] maps row k to row k + 1's state.

    The rows go in blocks. Each kind of stepping has a helper that builds its
    maps once per run and returns a stepper: ``_fold`` and ``_lift`` step
    whole blocks unless the first control fails the check below (at lag 0, and
    at lag N >= 1 by one product per block from its first N rows where that
    pays for its set-up, else in one pass per block, or two where the block
    map is not an inverse to rounding), ``_steps`` and ``_zform`` (N >= 1) one
    step at a time, with the clip. ``_schedule`` names the spans of rows each
    stepper takes, and the rows to clear before them; its docstring gives the
    span, re-step and end rules. ``run`` clears and steps each span, checks it
    and sends the schedule its first failing row: a state whose inf-norm
    exceeds the threshold or is not finite, among rows k0 to k1 - 1, and for a
    span of whole blocks also row k1 (but not the unrecorded row steps + 1)
    and a control whose size is not below e_max (inf if unset). The run ends
    at the last failure sent, as diverged at that state's time, or completes
    if there is none; a non-finite state is not recorded. After the loop, the
    window form's forecasts are filled in from the recorded states and inputs.
    """
    plant, sp, controller = scenario.plant, scenario.setpoint, scenario.controller
    dt, n, m, steps, N = scenario.dt, plant.n, plant.m_in, scenario.steps, scenario.N
    lag = 0 if controller == "nodelay" else N
    # at N = 0 a forecast is the state, so every controller runs the undelayed loop
    window, zform = N > 0 and controller == "predictor-window", N > 0 and controller == "predictor-zform"
    # capped at the largest float so that a threshold of inf still stops on an infinite state
    limit = min(scenario.divergence_threshold, 1.7976931348623157e308)
    u_limit = math.inf if scenario.e_max is None else scenario.e_max  # a whole span's controls stay below it

    d = n + 1 + m
    Ad, Bd, Kd = scenario.loop
    # overflow is no error: it ends the run as diverged, and its metrics hold inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        c = sp.u_star - Kd @ sp.x_star
        # the last control goes to row steps + lag; the plant step after the last
        # sample writes row steps + 1, which is not recorded
        try:
            rec = np.zeros((steps + 1 + max(lag, 1), d))
        except ValueError as exc:
            # numpy refuses a shape past its dimension limit (about 9.2e18) with
            # ValueError, not MemoryError; such a record does not fit either
            raise MemoryError(str(exc)) from exc
        rec[:, n] = 1.0
        rec[:lag, n + 1:] = sp.u_star
        rec[0, :n] = scenario.x0
        plant_map = np.zeros((n, d))
        plant_map[:, :n], plant_map[:, n + 1:] = Ad, Bd
        if window:
            # the forecast as one map over the flat record rows k..k+N-1: e^{Ah} on row k's state slot,
            # G's blocks on the input slots, zeros elsewhere
            exp_h, G = _window_factors(plant.A, Bd, dt, N)
            forecast = np.zeros((n, N, d))
            forecast[:, :, n + 1:] = G.reshape(n, N, m)
            forecast[:, 0, :n] = exp_h
            control_map = Kd @ forecast.reshape(n, N * d)
            control_map[:, n] = c
        else:
            control_map = np.concatenate((Kd, c[:, None]), axis=1)
        # row k of the steppers' views: the control map's input (the record's next w values
        # from row k on, at most N rows, so within the record), u_k's slot and x_{k+1}'s slots
        ctl_in = np.ndarray((steps + 1, control_map.shape[1]), float, rec, 0, rec.strides)
        u_out, x_out = rec[lag:, n + 1:], rec[1:, :n]
        # the z form's forecasts, NaN for naive and nodelay; at N = 0 a forecast controller's are its states
        predictions = (None if window else rec[:, :n] if N == 0 and controller.startswith("predictor")
                       else np.full((steps + 1, n), np.nan))
        block, block_step = _SCAN_BLOCK, None
        if zform:
            block, row_step = _zform(scenario, c, rec, u_out, x_out, plant_map, predictions)
        else:
            row_step = _steps(ctl_in, u_out, rec, x_out, control_map, plant_map, scenario.e_max)
            if all(abs(u) < u_limit for u in control_map.dot(ctl_in[0]).tolist()):  # else row 0 fails its check
                block, block_step = (_fold(rec, ctl_in, u_out, control_map, plant_map, Bd) if lag == 0 else
                                     _lift(rec, control_map, plant_map, _block_length(plant.A, dt), N))

        failure, schedule = None, _schedule(steps, block, block_step is not None)
        while span := schedule.send(failure):
            k0, k1, whole, clear = span
            if clear > k0:  # the lifted passes add to their slots, and the control map reads state slots past row k
                x_out[k0:clear] = u_out[k0:clear] = 0.0
            (block_step if whole else row_step)(k0, k1)
            # a whole span checks its last state and its controls too; row steps + 1 is not recorded
            ok = _peaks(rec[k0:min(k1 + whole, steps + 1), :n].T) <= limit
            if whole:
                ok[:k1 - k0] &= _peaks(u_out[k0:k1].T) < u_limit
            r = int(np.argmin(ok))
            failure = None if ok[r] else (k0 + r, bool(np.abs(rec[k0 + r, :n]).max() <= limit))
        status, t_d, recorded = "completed", None, steps + 1
        if failure:  # the schedule ends a run only at a span stepped one at a time, on its first failing state
            k = failure[0]
            status, t_d = "diverged", k * dt
            recorded = k + 1 if np.all(np.isfinite(rec[k, :n])) else k
        states, controls = rec[:recorded, :n], u_out[:recorded]
        predictions = _forecasts(exp_h, G, rec, recorded) if window else predictions[:recorded]
        traj = Trajectory(
            t=np.arange(recorded) * dt,
            states=states,
            controls=controls,
            predictions=predictions,
            status=status,
            t_d=t_d,
            dt=dt,
            N=N,
            controller=scenario.controller,
        )
        return traj, compute_metrics(traj, sp)


def _schedule(steps: int, block: int, whole: bool):
    """The block schedule of a run over rows 0..steps, a generator driven by
    ``send``. It yields spans (k0, k1, whole, clear), and () once the run is
    stepped: clear the rows k0..clear - 1 (none but on a span stepped again
    after a failed one), then take the steps k0..k1 - 1, in the whole-block
    stepper's blocks of ``block`` rows if ``whole``, else one step at a time.
    Each span is sent back None if it passed its check, else (row, passed):
    its first failing row, and whether that row's state passed, so that only
    its control failed. A failed span stepped one at a time ends the
    schedule: it yields () next, and the run ends at that span's first
    failing state, as a per-step test would end it.

    Spans of whole blocks double from one block while every check passes (a
    lag-0 run is one block, the whole run). A failed span is cleared from the
    block that wrote its first failing value (the blocks before it pass a
    check of their own) and stepped again: one step at a time over at most
    ``_SCAN_BLOCK`` rows from the ``_SCAN_BLOCK`` window holding the failing
    row r (from r - 1 if r starts a window), then in spans of whole blocks
    that no longer double, at most r - 1 rows long with r counted from the
    failing block's start, as the rows before r used only finite parts of the
    block map; or one step at a time to the end, if r - 1 is below
    ``_LIFT_MIN``. So no failing lifted block is lifted twice, and a run lifts
    at most twice the rows a check per block would, 2 L ceil(r / L), before
    its first failure at row r. A fold block that reaches an overflowing
    power of F fails on the first row that uses it (0 * inf = NaN even on a
    zero state), and its later blocks stop at the last finite power, so the
    overflow costs such a run one ``_SCAN_BLOCK`` of rows stepped one at a
    time."""
    k1, span, grow = 0, block, 2 if whole else 1
    while k1 <= steps:
        k0, k1, clear, span = k1, min(k1 + span, steps + 1), k1, span * grow  # the next span, if this one passes
        if whole:
            failure = yield k0, k1, True, k0
            if failure is None:
                continue
            r = failure[0] - k0
            skip = block * max(0, (r if failure[1] else r - 1) // block)  # the block that wrote the failing value
            block, r, grow, clear = min(block, _SCAN_BLOCK), r - skip, 1, k1
            k0 += skip + max(0, min(r - 1, r - r % _SCAN_BLOCK))
            k1, whole = min(k0 + block, steps + 1), r > _LIFT_MIN
            span = block = min(block, r - 1) if whole else block
        if (yield k0, k1, False, clear) is not None:
            break
    yield ()


def _steps(ctl_in, u_out, rec, x_out, control_map, plant_map, e_max):
    """Stepper of one step at a time, for every span where the clip acts: the
    control map writes u_k, clipped to +-``e_max`` when set, the ZOH step
    x_{k+1}. The products stay separate: one over a wider slice would multiply
    zero coefficients by past controls, and 0 * inf = NaN once one overflows."""
    cdot, pdot = control_map.dot, plant_map.dot

    def step(k0, k1):
        for win, u, row, x_next in zip(ctl_in[k0:k1], u_out[k0:k1], rec[k0:k1], x_out[k0:k1]):
            cdot(win, out=u)
            if e_max is not None:
                u.clip(-e_max, e_max, out=u)
            pdot(row, out=x_next)
    return step


def _fold(rec, ctl_in, u_out, control_map, plant_map, Bd):
    """(run length, stepper) for a lag-0 run, whose state is x alone, without
    the clip. With F the closed loop [Ad + Bd Kd | Bd c], a block's states
    x_{k0+j} = F^j (x_{k0}, 1) come by doubling (F^(2^i) maps the first 2^i
    rows to the next 2^i), its controls by one product of the control map."""
    n, block = len(Bd), len(ctl_in)
    # F^(2^i)'s state rows, transposed (a view of F by rows: the layout sets the squares' rounding),
    # F made square by a last row (0 .. 0 1); an overflowing power fails its block's check
    Ft = np.zeros((n + 1, n + 1)).T
    Ft[:, :n], Ft[n, n] = (plant_map[:, :n + 1] + Bd @ control_map).T, 1.0
    squares = [Ft[:, :n]]
    for _ in range(block.bit_length() - 1):
        squares.append((Ft := Ft.dot(Ft))[:, :n])

    def step(k0, k1):
        for i in range((k1 - k0).bit_length()):  # rows k0 + 1 .. k1
            a = k0 + (1 << i)
            more = min(1 << i, k1 + 1 - a)
            np.matmul(rec[k0:k0 + more, :n + 1], squares[i], out=rec[a:a + more, :n])
        np.matmul(ctl_in[k0:k1], control_map.T, out=u_out[k0:k1])
    return block, step


def _lift(rec, control_map, plant_map, L, N):
    """(block length, stepper) for a run at lag N >= 1, in blocks of up to L
    steps within the ``_LIFT_*`` caps, or (``_SCAN_BLOCK``, None). A block
    solves for its unknowns y_i = (u_{k0+i}, x_{k0+1+i}) together. The
    residual map R takes rows k..k+N to the residuals of the two per-step
    products (the control map less u_k's slot, the plant map less x_{k+1}'s);
    off those slots it holds the blocks tau_e of the coupling T (u_{k0+i-e} is
    in row N - e's input slot, x_{k0+1+i-e} in row 1 - e's state slot).
    M = (I - T)^{-1} is block Toeplitz; its first block column comes by
    doubling: with P_K the inverse over K blocks, the next k are
    P_k T[K:K+k, :K] p_{:K}, in which, as tau_e = 0 for e > N, only the last
    min(K, N) blocks of p_{:K} and the first min(k, N) block rows of T enter.

    The stepper walks rows k0..k1 in blocks of L from k0, and adds each
    block's y into its slots, which start at 0. It is one of two:

    - The basis stepper (Bamieh, Pearson, Francis & Tannenbaum, Systems &
      Control Letters 17, 1991, from the block's boundary state). A block's
      residuals from slots at 0 are g = R s + r1: s holds what is known when
      the block starts at row a, the state x_a and the inputs held over rows
      a..a+N-1 (the controls u_{a-N}..u_{a-1}), and r1 is the constant
      slots' part, c on each control. Block row i's window starts at row
      a + i, so only the first K = min(N, L) rows read s, through x_a (row 0)
      and the taps tau_e that reach back past row a. Then y = M g = H s + h0,
      with H = M[:, :K b] R_known and h0 = M r1 formed once per run, h0 on
      the column of row a's constant slot, which holds 1. A block costs one
      product of H, (L b) x (N d), over the record rows a..a+N-1, in place
      of R over its L windows and then M, (L b) x (L b). H costs
      L b K b (n + N m) to form and saves about ((steps + 1) / L) (L b)^2
      over the run, so a map takes this stepper when it takes one pass
      (below) and K (n + N m) < steps + 1; every other map takes the
      residual stepper. As M is block lower triangular, H's first i block
      rows are those of a block of i steps, so a block cut short at ``rows``
      steps uses them alone.
    - The residual stepper forms g from each block's windows and adds M g.
      A map whose defect (``_defect``) is at the rounding level does this
      once; any other does it once more from the slots so written, a step
      of iterative refinement, which keeps the rounding near the per-step
      loop's where M is not an inverse of I - T to rounding.

    Only the per-step maps enter either stepper, never a power of the
    closed loop: T and R hold the control and plant maps' coefficients, M
    inverts I - T over one block, and H = M R_known maps one block's
    boundary state, so every block starts again from the recorded rows
    before it and no map spans more than L steps. The pair-error checks and
    the delayed-equals-shifted identity therefore do not depend on how the
    states are computed."""
    (n, d), steps = plant_map.shape, len(rec) - 1 - N
    b, m = d - 1, d - 1 - n
    L = min(L, steps + 1, _LIFT_COLS // b, _LIFT_BYTES // (8 * (N + 1) * d))
    if L < _LIFT_MIN:
        return _SCAN_BLOCK, None
    own = np.r_[N * d + n + 1:(N + 1) * d, d:d + n]  # u_k's, x_{k+1}'s slots
    res_map = np.zeros((b, (N + 1) * d))
    res_map[:m, :control_map.shape[1]], res_map[m:, :d] = control_map, plant_map
    res_map[np.arange(b), own] = -1.0
    by_row = res_map.reshape(b, N + 1, d)
    tau = np.zeros((L + N, b, b))  # tau_e at row e
    tau[N:0:-1, :, :m] = by_row[:, :N, n + 1:].transpose(1, 0, 2)
    tau[1, :, m:] = by_row[:, 0, :n]
    p, K = np.zeros((2 * L - 1, b, b)), 1  # p_l at row L - 1 + l
    p[L - 1] = np.eye(b)
    while K < L:
        k = min(K, L - K)
        r, c = min(k, N), min(K, N)  # the block rows and columns of T[K:K+k, :K] that hold taps
        w = _toeplitz(tau[1:r + c], r, c) @ p[L - 1 + K - c:L - 1 + K].reshape(c * b, b)
        p[L - 1 + K:L - 1 + K + k] = (_toeplitz(p[L - r:L - 1 + k], k, r) @ w).reshape(k, b, b)
        K += k
    flat, slots = rec.reshape(-1), (own + d * np.arange(L)[:, None]).reshape(-1)
    one_pass = _defect(tau, p, N) <= _ONE_PASS_DEFECT  # a NaN defect keeps two passes
    K = min(N, L)
    if one_pass and K * (n + N * m) < steps + 1:
        # H over rows a..a+N-1: x_a's slots, read by block row 0 through tau_1, and the input slot of
        # row a + r, read by block row i <= r through tau_{N+i-r}; zero on the later rows' state slots
        col = p[L - 1:].reshape(L * b, b)  # M's first block column
        H = np.zeros((L * b, N, d))
        H[:, 0, :n] = col @ tau[1, :, m:]
        H[:, :, n + 1:] = (_toeplitz(p[L - K:], L, K) @ _toeplitz(tau[1:K + N, :, :m], K, N)).reshape(L * b, N, m)
        H[:, 0, n] = np.cumsum((col @ by_row[:, :, n].sum(axis=1)).reshape(L, b), axis=0).reshape(-1)  # M r1
        H = H.reshape(L * b, N * d)

        def basis_step(k0, k1):
            for a in range(k0, k1, L):  # blocks of L rows from k0
                rows = min(L, k1 - a) * b
                np.add.at(flat, slots[:rows] + a * d, H[:rows].dot(flat[a * d:(a + N) * d]))
        return L, basis_step

    wide = np.ndarray((steps + 1, (N + 1) * d), float, rec, 0, rec.strides)
    M, res_map, passes = _toeplitz(p, L, L), res_map.T, range(1 if one_pass else 2)

    def residual_step(k0, k1):
        for a in range(k0, k1, L):  # blocks of L rows from k0
            rows = min(L, k1 - a)
            win, at, block_map = wide[a:a + rows], slots[:rows * b] + a * d, M[:rows * b, :rows * b]
            for _ in passes:  # the block's slots start at 0: pass 1 solves, pass 2 (if any) refines
                np.add.at(flat, at, block_map.dot(win.dot(res_map).reshape(-1)))
    return L, residual_step


def _defect(tau: np.ndarray, p: np.ndarray, N: int) -> float:
    """||(I - T) M - I||_inf for ``_lift``'s block map M over L blocks, from
    its taps ``tau`` (tau_e at row e) and first block column ``p`` (p_l at
    row L - 1 + l, zeros before). The defect is block lower Toeplitz with
    blocks D_l = p_l - sum_{e=1..K} tau_e p_{l-e}, K = min(N, L - 1), so its
    norm is the largest row sum of |D_1| .. |D_{L-1}|. Item l - 1 of one
    stacked product is [tau_K .. tau_1] times the K blocks of ``p`` before
    p_l, a view; nothing of M's size is formed.

    One pass sets a block's unknowns to y = M g, g the residuals from slots
    at 0, which leaves the residual g - (I - T) y = -E g, E the defect; a
    second pass removes it to first order. The doubling forms M in
    ceil(log2 L) <= 7 rounds (L <= ``_SCAN_BLOCK``) of products of at most
    ``_LIFT_COLS`` = 2^8 terms, so an M that is an inverse of I - T to
    rounding has ||E|| up to about 7 * 2^8 * 2^-53 ||(|I - T| |M|)|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3): below 2^-42
    where |I - T| |M| is of size 1. ``_ONE_PASS_DEFECT`` = 2^-40 allows 4
    times that. A larger defect comes from a large |M|, as on a loop mode at
    -1, which no block damps; such a map keeps its second pass."""
    L, b = (len(p) + 1) // 2, p.shape[1]
    K = min(N, L - 1)
    taps = tau[K:0:-1].transpose(1, 0, 2).reshape(b, K * b)
    before = np.ndarray((L - 1, K * b, b), p.dtype, p, (L - K) * p.strides[0], p.strides)
    return float(np.abs(p[L:] - np.matmul(taps, before)).sum(axis=(0, 2)).max())


def _zform(scenario, c, rec, u_out, x_out, plant_map, predictions):
    """(L, stepper) for the z form at N >= 1, the literal dynamic-regulator
    realization xhat(t+h) = e^{Ah} x(t) + e^{At} [z(t) - z(t-h)] through the
    running integral z(t) = integral_0^t e^{-As} B (u(s) - u*) ds, zero on
    [-h, 0]. z is kept relative to the first step a of its block of L
    (``_block_length``) steps, so its factors are e^{+-A (k - a) dt}, from one
    batched call per run that also gives e^{Ah}, at h = N dt: no factor of
    the window form enters. A block's last step writes z's next row in the
    next block's frame, through Bd, and at each block start the N rows before
    it move on to the new anchor with one product, (z - z_a) e^{A L dt}^T; so
    at L = 1 no e^{-A dt} factor is used, and no factor grows with the
    horizon. The stepper writes each row's forecast into ``predictions``."""
    A, dt, x_star, u_star = scenario.plant.A, scenario.dt, scenario.setpoint.x_star, scenario.setpoint.u_star
    (_, Bd, Kd), N, e_max, pdot = scenario.loop, scenario.N, scenario.e_max, plant_map.dot
    block, n = _block_length(A, dt), len(A)
    # factors at times j dt from the block start, then at h; e^{A L dt} moves z on. Only the input factors at
    # j < L - 1 are read: none at L = 1, where they overflow (under run's errstate) once ||A||_inf dt passes 709
    exp_t, z_gain = _zform_factors(A, scenario.plant.B, dt, dt * np.append(np.arange(block + 1), N))
    move, exp_h = exp_t[block], exp_t[-1]
    z = np.zeros((N + len(predictions) + 1, n))
    offset = x_star - exp_h @ x_star  # xhat = e^{Ah} x + offset + e^{A j dt} dz

    def step(k0, k1):
        kept = z[k0:N + k0]  # the rows still read, but row N + k0, which is in this block's frame
        np.matmul(kept - z[k0], move.T, out=kept)
        for k, u, row, x_next in zip(range(k0, k1), u_out[k0:k1], rec[k0:k1], x_out[k0:k1]):
            j, z_now = k - k0, z[N + k]
            xhat = exp_h.dot(row[:n]) + offset + exp_t[j].dot(z_now - z[k])
            predictions[k] = xhat
            np.add(c, Kd.dot(xhat), out=u)
            if e_max is not None:
                u.clip(-e_max, e_max, out=u)
            if j < block - 1:
                z[N + k + 1] = z_now + z_gain[j].dot(u - u_star)
            else:  # a block's last step writes the next row in the next block's frame:
                # e^{A L dt} e^{-A (L - 1) dt} Gamma = e^{A dt} Gamma = Bd
                z[N + k + 1] = move.dot(z_now - z[k + 1]) + Bd.dot(u - u_star)
            pdot(row, out=x_next)
    return block, step


def _zform_factors(A: np.ndarray, B: np.ndarray, dt: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z-form factors at the sample times ``t``, one batched exponential per
    sign: ``e^{A t_k}``, which maps dz = z(t_k) - z(t_k - h) into the forecast,
    and ``e^{-A t_k} (integral_0^dt e^{-As} ds) B``, which maps the input held
    over [t_k, t_k + dt) to z(t_k + dt) - z(t_k). Each factor comes from its
    own t_k, never from a product of step exponentials."""
    return mat_exp(A, t), mat_exp(A, -t) @ zoh_unchecked(-A, B, dt)[1]


def _window_factors(A: np.ndarray, Bd: np.ndarray, dt: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The window form's factors (e^{Ah}, G) at h = N dt, G = [e^{A (N-1) dt} Bd ... Bd]: its forecast is
    e^{Ah} x + G w, w the inputs held over the last N steps, oldest first. Every exponential comes from its own
    grid time in one batched call, so none has an argument past h."""
    (n, m), exps = Bd.shape, mat_exp(A, dt * np.arange(N + 1))
    return exps[N], (exps[:N] @ Bd)[::-1].transpose(1, 0, 2).reshape(n, N * m)


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


def _forecasts(exp_h: np.ndarray, G: np.ndarray, rec: np.ndarray, rows: int) -> np.ndarray:
    """Row k is the window forecast e^{Ah} x_k + G w_k for k < rows, with
    (e^{Ah}, G) from :func:`_window_factors` and w_k the inputs held over
    steps k..k+N-1 (N >= 1): X e^{Ah}^T + W G^T. W's rows are overlapping
    views of one contiguous copy of the record's input column, so a row is
    N m wide and reads no state slot; they are taken a chunk at a time so
    that the copy BLAS needs stays small."""
    (n, width), m = G.shape, rec.shape[1] - 1 - len(G)
    out = rec[:rows, :n].dot(exp_h.T)
    inputs = np.ascontiguousarray(rec[:rows + width // m - 1, n + 1:])
    windows = np.ndarray((rows, width), float, inputs, 0, (inputs.strides[0], inputs.itemsize))
    chunk, gt = max(1, _FILL_BYTES // (8 * width)), G.T
    for r0 in range(0, rows, chunk):
        out[r0:r0 + chunk] += windows[r0:r0 + chunk].dot(gt)
    return out


def _peaks(columns) -> np.ndarray:
    """Max |column| by row, NaN where one is NaN: numpy maps or reduces along short rows a row at a time."""
    return reduce(np.maximum, map(np.abs, columns))


def compute_metrics(traj: Trajectory, setpoint: Setpoint) -> Metrics:
    """Settling (2% band on the inf-norm of the initial offset, the first recorded state's from x*, which is a
    run's x0) and prediction-pair accuracy. An empty trajectory has offset 0 and is settled at t = 0."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in run: an overflow reads as inf or NaN
        diverged = traj.status == "diverged"
        err = _peaks(col - x for col, x in zip(traj.states.T, setpoint.x_star))
        max_excursion, offset0 = (float(err.max()), float(err[0])) if len(err) else (0.0, 0.0)
        if diverged or not math.isfinite(offset0):  # an infinite offset leaves no band to settle in
            settled, settling_time = False, None
        elif offset0 == 0.0:
            settled, settling_time = True, 0.0
        else:  # row 0 is outside the band, so some row is
            after = int(np.nonzero(err > 0.02 * offset0)[0][-1]) + 1
            settled = after < len(err)
            settling_time = float(traj.t[after]) if settled else None

        max_prediction_error = None
        if traj.controller in ("predictor-zform", "predictor-window"):
            pairs = len(traj.states) - traj.N
            if pairs > 0:  # none on a run that ends before h
                issued, realized = traj.predictions[:pairs].T, traj.states[traj.N:].T
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

    Each h must be an integer multiple of the scenario's dt. The base
    scenario's loop is formed once and set on every run's scenario, since it
    depends on neither h nor the controller. Results keep the input order.
    """
    loop, out = base_scenario.loop, []
    for h in h_values:
        plant = LtiPlant(base_scenario.plant.A, base_scenario.plant.B, float(h))
        pair = [replace(base_scenario, plant=plant, controller=c) for c in ("naive", "predictor-window")]
        for scenario in pair:
            object.__setattr__(scenario, "loop", loop)
        out.append((float(h), *(run(scenario)[1] for scenario in pair)))
    return out
