import math

import numpy as np
import pytest


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


def rk4_zoh_oracle(A, B, x0, holds, dt, substeps=1000):
    """Brute-force propagation of dx/dt = A x + B u over consecutive hold
    intervals of length dt, via classical RK4 at dt/substeps.

    Independent of the package's exponential-based stepping; used as the
    reference for prediction-exactness checks.
    """
    x = np.array(x0, dtype=float)
    hsub = dt / substeps
    for u in holds:
        bu = B @ u
        for _ in range(substeps):
            k1 = A @ x + bu
            k2 = A @ (x + 0.5 * hsub * k1) + bu
            k3 = A @ (x + 0.5 * hsub * k2) + bu
            k4 = A @ (x + hsub * k3) + bu
            x = x + hsub / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


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
        psi = math.pi - (math.pi - psi) % (2.0 * math.pi)
        rows.append((x, y, psi))
    return np.array(rows)
