"""Gain design, setpoint handling and the state predictor.

The controller for the delayed plant dx/dt = A x + B u(t-h) is predictor
feedback: apply the stabilizing state feedback not to the measured state but
to its exact h-second-ahead forecast

    xhat(t+h) = e^{Ah} x(t) + integral_{t-h}^{t} e^{A(t-theta)} B u(theta) dtheta,

which under zero-order-hold inputs collapses to the finite sum
xhat(t+h) = Ad^N x + sum_i Ad^{N-1-i} Bd u_i over the last N = h/dt applied
controls. The sum is the exact forecast, not a quadrature of the distributed
delay, so the instability of approximated distributed-delay laws does not
apply. :class:`Predictor` precomputes Ad^N and G = [Ad^{N-1} Bd ... Bd] once
per (plant, dt) and offers two realizations of the same forecast:

- window form (default): Ad^N x + G w, where w is the contiguous window of
  the last N rows of the run's step-indexed control record; every
  exponential argument is bounded by h;
- z form: the literal dynamic-regulator realization through the auxiliary
  running integral z(t) = integral_0^t e^{-A theta} B u(theta) dtheta, with
  xhat(t+h) = e^{Ah} x(t) + e^{At} [z(t) - z(t-h)] and z identically zero on
  [-h, 0]. The separate e^{At} / e^{-At} factors grow without bound for
  non-neutral A, so the z form is limited to horizons with
  ||A||_inf T <= ZFORM_MAX_EXPONENT; it is kept because the window form is
  validated against it.

:func:`delay_steps` is the one place that turns a delay h into the step count
N, and rejects a delay that is not an integer multiple of dt.

Nonzero setpoints are handled by an affine shift: with u* = -B^{-1} A x*, the
shifted pair (x - x*, u - u*) satisfies the origin-stabilization problem, so
the control record starts with N rows of u* and the feedback acts on
deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .robot import LtiPlant
from .smallmat import as_vector, is_diagonal, is_hurwitz, mat_exp, solve, zoh_discretize

# Largest ||A||_inf T a z-form scenario may have. It keeps e^{+-At} below
# e^600 ~ 4e260, and bounds |z(t)| <= ||B|| max|u - u*| t e^{||A|| t}, so
# neither overflows while ||B|| max|u - u*| T stays below e^109 ~ 2e47. The
# float limit itself is log(float max) ~ 709.78.
ZFORM_MAX_EXPONENT = 600.0


class UnsupportedStructureError(ValueError):
    """Plant structure outside what the closed-form design handles."""


@dataclass(frozen=True, eq=False)
class Gain:
    """State-feedback gain u = K x (m_in x n). Build via :meth:`for_plant`
    or :func:`design_gain` so the closed-loop stability check runs."""

    K: np.ndarray

    def __post_init__(self):
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        if not np.all(np.isfinite(K)):
            raise ValueError("gain matrix has non-finite entries")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @classmethod
    def for_plant(cls, K, plant: LtiPlant) -> "Gain":
        g = cls(np.asarray(K, dtype=float))
        if g.K.shape != (plant.m_in, plant.n):
            raise ValueError(f"gain shape {g.K.shape} does not match plant ({plant.m_in}, {plant.n})")
        if not is_hurwitz(plant.A + plant.B @ g.K):
            raise ValueError("A + B K is not Hurwitz for this plant")
        return g


@dataclass(frozen=True, eq=False)
class Setpoint:
    """Target state x* and the matching equilibrium control u*.

    Build via :func:`make_setpoint`, which enforces A x* + B u* = 0.
    """

    x_star: np.ndarray
    u_star: np.ndarray

    def __post_init__(self):
        x = as_vector(self.x_star, name="x_star")
        u = as_vector(self.u_star, name="u_star")
        x.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "x_star", x)
        object.__setattr__(self, "u_star", u)


def design_gain(plant: LtiPlant, desired_poles) -> Gain:
    """Pole placement for decoupled diagonal plants.

    Per channel k_i = (lambda_i - a_ii) / b_ii so A + B K = diag(lambda). Only
    diagonal A and B are supported; for anything else supply K directly via
    ``Gain.for_plant``.
    """
    poles = as_vector(desired_poles, plant.n, "desired_poles")
    if np.any(poles >= 0):
        raise ValueError(f"all desired poles must be < 0, got {poles.tolist()}")
    A, B = plant.A, plant.B
    diag_ok = (
        plant.m_in == plant.n
        and is_diagonal(A)
        and is_diagonal(B)
        and np.all(np.diagonal(B) != 0)
    )
    if not diag_ok:
        raise UnsupportedStructureError(
            "pole placement implemented for diagonal A, B with nonzero input gains only; "
            "supply K manually via Gain.for_plant"
        )
    k = (poles - np.diagonal(A)) / np.diagonal(B)
    return Gain.for_plant(np.diag(k), plant)


def equilibrium_input(plant: LtiPlant, x_star) -> np.ndarray:
    """Control holding the plant at x*: u* = -B^{-1} A x* (square B)."""
    x_star = as_vector(x_star, plant.n, "x_star")
    if plant.m_in != plant.n:
        raise UnsupportedStructureError("equilibrium input needs a square input matrix")
    return solve(plant.B, -plant.A @ x_star)


def make_setpoint(plant: LtiPlant, x_star) -> Setpoint:
    """Build a validated setpoint from the target state."""
    x_star = as_vector(x_star, plant.n, "x_star")
    u_star = equilibrium_input(plant, x_star)
    residual = np.linalg.norm(plant.A @ x_star + plant.B @ u_star, np.inf)
    if residual > 1e-10 * (1.0 + np.linalg.norm(x_star, np.inf)):
        raise ValueError(f"steady-state identity violated, residual {residual:g}")
    return Setpoint(x_star, u_star)


def origin_setpoint(plant: LtiPlant) -> Setpoint:
    return Setpoint(np.zeros(plant.n), np.zeros(plant.m_in))


def delay_steps(h: float, dt: float) -> int:
    """Delay depth N = h/dt; raises ValueError unless h is an integer
    multiple of dt (to 1e-9 s)."""
    n = round(h / dt)
    if abs(n * dt - h) > 1e-9:
        raise ValueError(f"delay h={h:g} is not an integer multiple of dt={dt:g}")
    return n


class Predictor:
    """Exact h-second-ahead state forecast for one plant and sample period.

    ``depth`` is N = h/dt, ``Ad, Bd`` the exact one-step discretization,
    ``exp_h`` = Ad^N = e^{Ah} and ``G`` = [Ad^{N-1} Bd ... Ad Bd  Bd], so a
    forecast costs two matrix-vector products. The forecast is linear in
    (x, u), so it applies unchanged to deviations from an equilibrium.
    """

    def __init__(self, plant: LtiPlant, dt: float):
        n, m = plant.n, plant.m_in
        self.depth = delay_steps(plant.h, dt)
        self.A, self.B, self.dt = plant.A, plant.B, dt
        self.Ad, self.Bd = zoh_discretize(plant.A, plant.B, dt)
        self.exp_h = mat_exp(plant.A, plant.h)
        self.G = np.empty((n, self.depth * m))
        block = self.Bd
        for i in reversed(range(self.depth)):
            self.G[:, i * m:(i + 1) * m] = block
            block = self.Ad @ block

    def __call__(self, x: np.ndarray, window: np.ndarray) -> np.ndarray:
        """Window form: forecast from state ``x`` and the C-contiguous
        ``(N, m)`` window of held inputs, oldest first."""
        return self.exp_h @ x + self.G @ window.ravel()

    def from_integral(self, x: np.ndarray, t: float, dz: np.ndarray) -> np.ndarray:
        """z form: e^{Ah} x + e^{At} dz, with dz = z(t) - z(t - h)."""
        return self.exp_h @ x + mat_exp(self.A, t) @ dz

    @cached_property
    def _gamma(self) -> np.ndarray:
        """integral_0^dt e^{-As} ds B, the z form's per-step input map."""
        return zoh_discretize(-self.A, self.B, self.dt)[1]

    def integral_step(self, t: float, u: np.ndarray) -> np.ndarray:
        """z(t + dt) - z(t) for the input ``u`` held over [t, t + dt):
        e^{-At} (integral_0^dt e^{-As} ds) B u."""
        return mat_exp(self.A, -t) @ (self._gamma @ u)
