"""Gain design, setpoint handling and the delay depth.

The controller for the delayed plant dx/dt = A x + B u(t-h) is predictor
feedback: apply the stabilizing state feedback not to the measured state but
to its exact h-second-ahead forecast

    xhat(t+h) = e^{Ah} x(t) + integral_{t-h}^{t} e^{A(t-theta)} B u(theta) dtheta,

which under zero-order-hold inputs collapses to the finite sum
xhat(t+h) = e^{A N dt} x + sum_i e^{A (N-1-i) dt} Bd u_i over the last
N = h/dt applied controls. The sum is the exact forecast, not a quadrature of
the distributed delay, so the instability of approximated distributed-delay
laws does not apply. Both forms of the forecast live in :mod:`delaycomp.sim`
beside the loop that runs them: the window form of the sum, whose factors
``sim._window_factors`` forms and the simulation folds into its control map,
and the z form, which the window form is validated against and which builds
its own factors.

:func:`delay_steps` is the one place that turns a delay h into the step count
N, and rejects a delay that is not an integer multiple of dt. A delay it
accepts within 1e-9 s of N dt is simulated and forecast as N dt.
``sim.Scenario`` calls it once and keeps N, which the run, its trajectory and
its metrics read; ``cli.build_scenario`` also calls it, to name the ``delay``
key before the plant is built.

Nonzero setpoints are handled by an affine shift: with u* = -B^{-1} A x*, the
shifted pair (x - x*, u - u*) satisfies the origin-stabilization problem, so
the inputs held over [-h, 0) are u* and the feedback acts on deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .robot import LtiPlant
from .smallmat import as_vector, is_diagonal, is_hurwitz, solve

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
    """Build a validated setpoint from the target state. ValueError unless the residual
    ||A x* + B u*|| is at most 1e-10 (||A|| ||x*|| + ||B|| ||u*||), in inf-norms: the rule scales with
    the two products, whose rounding it bounds on a stiff plant too, and a NaN residual fails it."""
    sp = Setpoint(x_star, equilibrium_input(plant, x_star))
    norm = lambda a: float(np.linalg.norm(a, np.inf))  # a Python float: a product past the range is inf
    residual = norm(plant.A @ sp.x_star + plant.B @ sp.u_star)
    # 0 passes unscaled: a norm past the float range times a zero x* or u* would be NaN
    if residual and not residual <= 1e-10 * (norm(plant.A) * norm(sp.x_star) + norm(plant.B) * norm(sp.u_star)):
        raise ValueError(f"steady-state identity violated, residual {residual:g}")
    return sp


def origin_setpoint(plant: LtiPlant) -> Setpoint:
    return Setpoint(np.zeros(plant.n), np.zeros(plant.m_in))


def delay_steps(h: float, dt: float) -> int:
    """Delay depth N = h/dt; raises ValueError unless h/dt is finite and h
    is an integer multiple of dt (to 1e-9 s)."""
    ratio = h / dt
    if not np.isfinite(ratio):
        raise ValueError(f"delay h={h:g} is not a finite number of dt={dt:g} steps")
    n = round(ratio)
    if abs(n * dt - h) > 1e-9:
        raise ValueError(f"delay h={h:g} is not an integer multiple of dt={dt:g}")
    return n

