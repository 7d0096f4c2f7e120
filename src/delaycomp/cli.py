"""Command-line front end: config parsing, scenario execution, CSV output.

Config files are flat ``key = value`` text with ``#`` comments. Trajectories
are written as CSV with full round-trip precision so downstream checks can be
run on the emitted files.

Exit codes: 0 success, 1 I/O error, 2 divergence (run only), 64 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from dataclasses import dataclass, replace
from functools import cache, reduce

import numpy as np

from .control import delay_steps, design_gain, make_setpoint
from .robot import RobotParams, params_to_lti, pose_path
from .sim import CONTROLLERS, Metrics, Scenario, Trajectory, matched_gain, run, sweep_delay
from .smallmat import SingularMatrixError

EXIT_OK = 0
EXIT_IO = 1
EXIT_DIVERGED = 2
EXIT_USAGE = 64

CSV_HEADER = "t,v,omega,e_m,e_d,v_pred,omega_pred,x,y,heading"
SWEEP_HEADER = "h,naive_settled,naive_settling_time,predictor_settled,predictor_settling_time,max_pred_error"

_REQUIRED = object()  # the default of a key the config must give
_POSITIVE = (lambda v: v > 0, "must be > 0, got {:g}")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0, got {:g}")
_NONZERO = (lambda v: v != 0, "must be nonzero")
_FINITE = (lambda v: True, "")

# Every numeric key: its default and the rule its finite value must pass. The
# first seven are RobotParams's fields, in its order.
_NUMBERS = {
    "mass": (_REQUIRED, _POSITIVE),
    "inertia": (_REQUIRED, _POSITIVE),
    "friction_v": (_REQUIRED, _NON_NEGATIVE),
    "friction_w": (_REQUIRED, _NON_NEGATIVE),
    "wheel_base": (_REQUIRED, _POSITIVE),
    "gain_force": (_REQUIRED, _NONZERO),
    "gain_torque": (_REQUIRED, _NONZERO),
    "delay": (_REQUIRED, _NON_NEGATIVE),
    "dt": (0.01, _POSITIVE),
    "horizon": (10.0, _FINITE),  # and >= dt, checked once dt is known
    "v0": (0.0, _FINITE),
    "w0": (0.0, _FINITE),
    "v_ref": (_REQUIRED, _FINITE),
    "w_ref": (_REQUIRED, _FINITE),
    "e_max": (None, _POSITIVE),
}
# the keys that set the plant's A and B, and those that set B alone
_PLANT_KEYS = ("mass", "inertia", "friction_v", "friction_w", "gain_force", "gain_torque")
_INPUT_KEYS = ("gain_force", "gain_torque", "mass", "inertia")


class ConfigError(ValueError):
    """Config problem; always names the offending key, or the keys (a tuple)
    that together make it."""

    def __init__(self, key: str | tuple[str, ...], message: str):
        keys = (key,) if isinstance(key, str) else key
        names = "/".join(f"'{k}'" for k in keys)
        super().__init__(f"config key{'s' if len(keys) > 1 else ''} {names}: {message}")
        self.key = key


@dataclass(frozen=True)
class Config:
    """Validated run configuration (robot, delay, sampling, setpoint, output)."""

    params: RobotParams
    delay: float
    dt: float
    horizon: float
    v0: float
    w0: float
    v_ref: float
    w_ref: float
    poles: tuple[float, float]
    controller: str
    e_max: float | None
    out_dir: str


def parse_config(text: str) -> Config:
    """Parse and validate flat key = value config text."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], f"line {lineno} is not a 'key = value' pair")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _NUMBERS and key not in ("poles", "controller", "out_dir"):
            raise ConfigError(key, "unknown key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        if not value:
            raise ConfigError(key, "empty value")
        raw[key] = value

    numbers = {}
    for key, (default, (holds, rule)) in _NUMBERS.items():
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(key, "required key is missing")
            numbers[key] = default
            continue
        try:
            value = float(raw[key])
        except ValueError:
            raise ConfigError(key, f"non-numeric value {raw[key]!r}") from None
        if not math.isfinite(value):
            raise ConfigError(key, f"must be finite, got {raw[key]!r}")
        if not holds(value):
            raise ConfigError(key, rule.format(value))
        numbers[key] = value
    if not numbers["horizon"] >= numbers["dt"]:
        raise ConfigError("horizon", f"must be >= dt, got {numbers['horizon']:g}")

    poles_text = raw.get("poles", "-5,-5")
    parts = [p.strip() for p in poles_text.split(",")]
    if len(parts) != 2:
        raise ConfigError("poles", f"expected two comma-separated values, got {poles_text!r}")
    try:
        poles = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError("poles", f"non-numeric value {poles_text!r}") from None
    for p in poles:
        if not -math.inf < p < 0:
            raise ConfigError("poles", f"pole must be finite and negative, got {p:g}")

    controller = raw.get("controller", "predictor-window")
    if controller not in CONTROLLERS:
        raise ConfigError("controller", f"unknown controller {controller!r}; choose from {CONTROLLERS}")

    params = RobotParams(*(numbers.pop(key) for key in list(_NUMBERS)[:7]))
    return Config(params=params, poles=poles, controller=controller,
                  out_dir=raw.get("out_dir", "out"), **numbers)


def build_scenario(config: Config, controller: str | None = None) -> Scenario:
    """Assemble the simulation scenario a config describes.

    ``parse_config`` checks each value on its own; what only the model can
    tell fails here, as one :class:`ConfigError` naming the keys of the first
    stage that fails: ``delay`` (its step count), the keys that set A and B
    (an entry not finite), ``poles`` (A + B K not Hurwitz, or K not finite),
    ``v_ref``/``w_ref`` (u* not finite) or, if B is singular, the keys that
    set B, ``dt`` (the sampled loop's Bd or e^{(A + B K) dt} not finite, as
    when Bd = dt B overflows on a frictionless channel), and ``horizon`` (too
    many steps of dt).
    """
    key = "delay"
    try:
        delay_steps(config.delay, config.dt)
        key = _PLANT_KEYS
        plant = params_to_lti(config.params, config.delay)
        key = "poles"
        gain = design_gain(plant, config.poles)
        key = ("v_ref", "w_ref")
        setpoint = make_setpoint(plant, [config.v_ref, config.w_ref])
        key = "dt"
        matched_gain(plant, gain.K, config.dt)
        key = "horizon"
        return Scenario(
            plant=plant,
            gain=gain,
            setpoint=setpoint,
            controller=controller or config.controller,
            x0=np.array([config.v0, config.w0]),
            dt=config.dt,
            T=config.horizon,
            e_max=config.e_max,
        )
    except ValueError as exc:  # only the setpoint solves with B
        raise ConfigError(_INPUT_KEYS if isinstance(exc, SingularMatrixError) else key, str(exc)) from None


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# One row template with the prediction fields and one that leaves them empty
# (rows whose prediction is NaN, i.e. non-predictor controllers).
_ROW = ",".join(["%.17g"] * 10)
_ROW_NO_PRED = ",".join(["%.17g"] * 5 + ["", ""] + ["%.17g"] * 3)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """One row per sample; row k's x, y, heading is the pose after steps 0..k-1."""
    poses = pose_path(traj.states[:-1], traj.dt)
    table = np.column_stack([traj.t, traj.states, traj.controls, traj.predictions, poses])
    has_pred = ~reduce(np.logical_or, map(np.isnan, traj.predictions.T))  # per column: rows are short
    lines = [CSV_HEADER]
    for row, full in zip(table.tolist(), has_pred.tolist()):
        lines.append(_ROW % tuple(row) if full else _ROW_NO_PRED % tuple(row[:5] + row[7:]))
    path.write_text("\n".join(lines) + "\n")


def _metrics_lines(m: Metrics) -> list[str]:
    return [
        f"settled = {'true' if m.settled else 'false'}",
        f"settling_time = {_fmt(m.settling_time) if m.settling_time is not None else 'none'}",
        f"max_excursion = {_fmt(m.max_excursion)}",
        f"max_prediction_error = {_fmt(m.max_prediction_error) if m.max_prediction_error is not None else 'none'}",
        f"diverged = {'true' if m.diverged else 'false'}",
    ]


def _run_and_write(config: Config, controller: str, name: str) -> Metrics:
    """Build and run one controller's scenario, then make the directory and write <name>.csv."""
    traj, metrics = run(build_scenario(config, controller=controller))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / f"{name}.csv", traj)
    return metrics


def cmd_run(config: Config, name: str | None = None, controller: str | None = None) -> int:
    """Run one scenario; write <name>.csv and <name>.metrics.txt."""
    controller = controller or config.controller
    name = name or controller
    metrics = _run_and_write(config, controller, name)
    (Path(config.out_dir) / f"{name}.metrics.txt").write_text("\n".join(_metrics_lines(metrics)) + "\n")
    return EXIT_DIVERGED if metrics.diverged else EXIT_OK


def cmd_compare(config: Config) -> int:
    """Run naive and predictor-window side by side and report both."""
    rows = [(controller, _run_and_write(config, controller, controller))
            for controller in ("naive", "predictor-window")]

    header = f"{'controller':<18}{'settled':<9}{'settling_time':<15}{'max_excursion':<15}{'max_pred_error':<16}{'diverged':<9}"
    lines = [header, "-" * len(header)]
    for controller, m in rows:
        lines.append(
            f"{controller:<18}"
            f"{('yes' if m.settled else 'no'):<9}"
            f"{(f'{m.settling_time:.4f}' if m.settling_time is not None else '-'):<15}"
            f"{m.max_excursion:<15.6g}"
            f"{(f'{m.max_prediction_error:.3e}' if m.max_prediction_error is not None else '-'):<16}"
            f"{('yes' if m.diverged else 'no'):<9}"
        )
    report = "\n".join(lines) + "\n"
    (Path(config.out_dir) / "compare.txt").write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_sweep(config: Config, h_min: float, h_max: float, steps: int) -> int:
    """Sweep the delay over a grid and tabulate naive vs. predictor metrics."""
    # a NaN fails this form of the check
    if not (steps >= 1 and 0 <= h_min <= h_max):
        raise _UsageError(f"invalid sweep range: h_min={h_min}, h_max={h_max}, steps={steps}")
    # every run sets its own delay, so the config's is not checked
    base = build_scenario(replace(config, delay=0.0), controller="naive")
    if not math.isfinite(h_max / config.dt):
        raise _UsageError(f"--h-max {h_max:g} is not a finite number of dt={config.dt:g} steps")
    # grid points rounded to whole steps, deduplicated in order; below a
    # spacing of dt every depth in range is on the grid, so more points add none
    steps = min(steps, math.ceil((h_max - h_min) / config.dt) + 2)
    depths = dict.fromkeys(round(h / config.dt) for h in np.linspace(h_min, h_max, steps))
    results = sweep_delay(base, [depth * config.dt for depth in depths])

    lines = [SWEEP_HEADER]
    for h, m_naive, m_pred in results:
        lines.append(",".join([
            _fmt(h),
            "true" if m_naive.settled else "false",
            _fmt(m_naive.settling_time) if m_naive.settling_time is not None else "",
            "true" if m_pred.settled else "false",
            _fmt(m_pred.settling_time) if m_pred.settling_time is not None else "",
            _fmt(m_pred.max_prediction_error) if m_pred.max_prediction_error is not None else "",
        ]))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@cache  # one tree per process: parsing leaves it unchanged, and _Parser.error raises
def _build_parser() -> _Parser:
    parser = _Parser(prog="delaycomp", description="Input-delay compensation for a differential-drive robot model")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--controller", choices=CONTROLLERS)
    p_run.add_argument("--name", help="output basename (default: controller name)")
    p_run.add_argument("--out-dir")

    p_cmp = sub.add_parser("compare", help="naive vs. predictor on identical settings")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out-dir")

    p_swp = sub.add_parser("sweep", help="delay sweep for naive and predictor")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--h-min", type=float, required=True)
    p_swp.add_argument("--h-max", type=float, required=True)
    p_swp.add_argument("--steps", type=int, required=True)
    p_swp.add_argument("--out-dir")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        config = parse_config(text)
        if args.out_dir:
            config = replace(config, out_dir=args.out_dir)
        with np.errstate(all="ignore"):  # an overflow ends as a non-finite value the checks report
            if args.command == "run":
                return cmd_run(config, name=args.name, controller=args.controller)
            if args.command == "compare":
                return cmd_compare(config)
            return cmd_sweep(config, args.h_min, args.h_max, args.steps)  # the only other subcommand
    except (_UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        # a run holds N + steps rows: name whichever of the two is larger
        steps = round(config.horizon / config.dt)
        depth = round((args.h_max if args.command == "sweep" else config.delay) / config.dt)
        if depth <= steps:
            where, fix = "config keys 'horizon'/'dt'", "shorten horizon"
        elif args.command == "sweep":
            where, fix = "option --h-max", "lower --h-max"
        else:
            where, fix = "config key 'delay'", "shorten delay"
        print(f"usage error: {where}: {max(depth, steps):.3g} steps do not fit in memory; "
              f"{fix} or raise dt", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
