"""Predictor-feedback compensation of a constant input delay for a linear
differential-drive robot model."""

from .control import (
    Gain,
    Predictor,
    Setpoint,
    UnsupportedStructureError,
    delay_steps,
    design_gain,
    equilibrium_input,
    make_setpoint,
)
from .robot import (
    LtiPlant,
    RobotParams,
    WheelForces,
    actuator_forces,
    params_to_lti,
    pose_path,
)
from .sim import (
    CONTROLLERS,
    Metrics,
    Scenario,
    Trajectory,
    compute_metrics,
    run,
    step_plant,
    sweep_delay,
)
from .smallmat import SingularMatrixError, is_hurwitz, mat_exp, solve, zoh_discretize

__version__ = "0.1.0"
