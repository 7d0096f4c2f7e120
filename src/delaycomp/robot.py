"""Two-wheel robot model: physical parameters, LTI reduction, pose kinematics.

The robot's longitudinal and rotational dynamics are

    m dv/dt     = F - B_v v,        F = k_m e_m,
    J domega/dt = T - B_omega omega, T = k_d e_d,

which reduce to a decoupled 2x2 LTI system in the state (v, omega) driven by
the mean and differential motor voltages (e_m, e_d). The planar pose is an
output diagnostic: :func:`pose_path` integrates it from the recorded
velocities after a run, and it never feeds back into control. The wheel-force
split (:func:`actuator_forces`) maps commanded voltages to per-wheel forces
for callers that want them; the simulation does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smallmat import as_matrix


@dataclass(frozen=True)
class RobotParams:
    """Physical constants of the differential-drive robot.

    m        mass [kg]
    J        moment of inertia [kg m^2]
    B_v      translational friction coefficient [N s/m]
    B_omega  rotational friction coefficient [N m s/rad]
    l        wheel separation [m]
    k_m      force per volt of mean voltage [N/V]
    k_d      torque per volt of differential voltage [N m/V]
    """

    m: float
    J: float
    B_v: float
    B_omega: float
    l: float
    k_m: float
    k_d: float

    def __post_init__(self):
        for name in ("m", "J", "l"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("B_v", "B_omega"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("k_m", "k_d"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")
        for name in ("m", "J", "B_v", "B_omega", "l", "k_m", "k_d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class LtiPlant:
    """State-space plant dx/dt = A x + B u(t - h) with constant input delay h."""

    A: np.ndarray
    B: np.ndarray
    h: float

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B row count {B.shape[0]} does not match A dimension {A.shape[0]}")
        if not np.all(np.isfinite(B)):
            raise ValueError("B has non-finite entries")
        if not (math.isfinite(self.h) and self.h >= 0):
            raise ValueError(f"delay h must be >= 0, got {self.h}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m_in(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class WheelForces:
    """Net force/torque and their split into right/left wheel forces."""

    F: float
    T: float
    F_R: float
    F_L: float


def params_to_lti(p: RobotParams, h: float) -> LtiPlant:
    """Reduce the physical parameters to the delayed LTI plant.

    A = diag(-B_v/m, -B_omega/J), B = diag(k_m/m, k_d/J). The damping signs
    come from the physics: non-negative friction always yields a stable or
    marginally stable A.
    """
    A = np.diag([-p.B_v / p.m, -p.B_omega / p.J])
    B = np.diag([p.k_m / p.m, p.k_d / p.J])
    return LtiPlant(A, B, h)


def actuator_forces(p: RobotParams, e_m: float, e_d: float) -> WheelForces:
    """Per-wheel forces realizing the mean and differential voltages [V].

    F = k_m e_m and T = k_d e_d; inverting the force/torque aggregation gives
    F_R = (F + T/l)/2 and F_L = (F - T/l)/2, so F_R + F_L = F and
    l (F_R - F_L) = T hold by construction.
    """
    F = p.k_m * e_m
    T = p.k_d * e_d
    half_diff = T / p.l / 2.0
    return WheelForces(F=F, T=T, F_R=F / 2.0 + half_diff, F_L=F / 2.0 - half_diff)


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def pose_path(velocities, dt: float) -> np.ndarray:
    """Poses (x, y, heading) from the origin under (v, omega) held per step.

    ``velocities`` is (K, 2); row k of the (K + 1, 3) result is the pose after
    steps 0..k-1 of classical RK4 on the unicycle kinematics. The heading is
    wrapped to (-pi, pi] step by step, in sequence, as each step starts from
    the wrapped value; the x/y increments then follow as arrays.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    vel = np.asarray(velocities, dtype=float)
    if vel.ndim != 2 or vel.shape[1] != 2:
        raise ValueError(f"velocities must have shape (K, 2), got {vel.shape}")
    v, omega = vel[:, 0], vel[:, 1]
    heading = [0.0]
    for d in (dt / 6.0 * (omega + 2 * omega + 2 * omega + omega)).tolist():
        heading.append(wrap_angle(heading[-1] + d))
    out = np.zeros((len(vel) + 1, 3))
    out[:, 2] = heading
    psi = out[:-1, 2]
    # k2 and k3 coincide: both evaluate at psi + dt/2 * omega
    mid, end = psi + 0.5 * dt * omega, psi + dt * omega
    for col, f in ((0, np.cos), (1, np.sin)):
        k1, k2, k4 = v * f(psi), v * f(mid), v * f(end)
        np.cumsum(dt / 6.0 * (k1 + 2 * k2 + 2 * k2 + k4), out=out[1:, col])
    return out
