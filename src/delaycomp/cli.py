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

import numpy as np

from .control import delay_steps, design_gain, make_setpoint
from .robot import RobotParams, params_to_lti
from .sim import CONTROLLERS, Metrics, Scenario, Trajectory, run, sweep_delay

EXIT_OK = 0
EXIT_IO = 1
EXIT_DIVERGED = 2
EXIT_USAGE = 64

CSV_HEADER = "t,v,omega,e_m,e_d,v_pred,omega_pred,x,y,heading"
SWEEP_HEADER = "h,naive_settled,naive_settling_time,predictor_settled,predictor_settling_time,max_pred_error"

_NUMERIC_KEYS = {
    "mass", "inertia", "friction_v", "friction_w", "wheel_base",
    "gain_force", "gain_torque", "delay", "dt", "horizon",
    "v0", "w0", "v_ref", "w_ref", "e_max",
}
_ALL_KEYS = _NUMERIC_KEYS | {"poles", "controller", "out_dir"}
_REQUIRED_KEYS = {
    "mass", "inertia", "friction_v", "friction_w", "wheel_base",
    "gain_force", "gain_torque", "delay", "v_ref", "w_ref",
}


class ConfigError(ValueError):
    """Config problem; always names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
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
        if key not in _ALL_KEYS:
            raise ConfigError(key, "unknown key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        if not value:
            raise ConfigError(key, "empty value")
        raw[key] = value

    for key in sorted(_REQUIRED_KEYS - raw.keys()):
        raise ConfigError(key, "required key is missing")

    def number(key: str, default: float | None = None) -> float | None:
        if key not in raw:
            return default
        try:
            value = float(raw[key])
        except ValueError:
            raise ConfigError(key, f"non-numeric value {raw[key]!r}") from None
        if not math.isfinite(value):
            raise ConfigError(key, f"must be finite, got {raw[key]!r}")
        return value

    def positive(key: str, value: float) -> float:
        if not value > 0:
            raise ConfigError(key, f"must be > 0, got {value:g}")
        return value

    def non_negative(key: str, value: float) -> float:
        if not value >= 0:
            raise ConfigError(key, f"must be >= 0, got {value:g}")
        return value

    def nonzero(key: str, value: float) -> float:
        if value == 0:
            raise ConfigError(key, "must be nonzero")
        return value

    params = RobotParams(
        m=positive("mass", number("mass")),
        J=positive("inertia", number("inertia")),
        B_v=non_negative("friction_v", number("friction_v")),
        B_omega=non_negative("friction_w", number("friction_w")),
        l=positive("wheel_base", number("wheel_base")),
        k_m=nonzero("gain_force", number("gain_force")),
        k_d=nonzero("gain_torque", number("gain_torque")),
    )

    delay = non_negative("delay", number("delay"))
    dt = positive("dt", number("dt", 0.01))
    horizon = number("horizon", 10.0)
    if not horizon >= dt:
        raise ConfigError("horizon", f"must be >= dt, got {horizon:g}")
    try:
        delay_steps(delay, dt)
    except ValueError as exc:
        raise ConfigError("delay", str(exc)) from None

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

    e_max = number("e_max")
    if e_max is not None:
        e_max = positive("e_max", e_max)

    return Config(
        params=params,
        delay=delay,
        dt=dt,
        horizon=horizon,
        v0=number("v0", 0.0),
        w0=number("w0", 0.0),
        v_ref=number("v_ref"),
        w_ref=number("w_ref"),
        poles=poles,
        controller=controller,
        e_max=e_max,
        out_dir=raw.get("out_dir", "out"),
    )


def build_scenario(config: Config, controller: str | None = None) -> Scenario:
    """Assemble the simulation scenario a config describes."""
    plant = params_to_lti(config.params, config.delay)
    gain = design_gain(plant, config.poles)
    setpoint = make_setpoint(plant, [config.v_ref, config.w_ref])
    try:
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
    except ValueError as exc:
        # parse_config has validated every other field, so what is left is
        # the horizon: the z form's bound on it, or too many steps of dt
        raise ConfigError("horizon", str(exc)) from None


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# One row template with the prediction fields and one that leaves them empty
# (rows whose prediction is NaN, i.e. non-predictor controllers).
_ROW = ",".join(["%.17g"] * 10)
_ROW_NO_PRED = ",".join(["%.17g"] * 5 + ["", ""] + ["%.17g"] * 3)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    table = np.column_stack([traj.t, traj.states, traj.controls, traj.predictions, traj.poses])
    has_pred = ~np.any(np.isnan(traj.predictions), axis=1)
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


def cmd_run(config: Config, name: str | None = None, controller: str | None = None) -> int:
    """Run one scenario; write <name>.csv and <name>.metrics.txt."""
    scenario = build_scenario(config, controller=controller)
    name = name or scenario.controller
    traj, metrics = run(scenario)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / f"{name}.csv", traj)
    (out / f"{name}.metrics.txt").write_text("\n".join(_metrics_lines(metrics)) + "\n")
    return EXIT_DIVERGED if metrics.diverged else EXIT_OK


def cmd_compare(config: Config) -> int:
    """Run naive and predictor-window side by side and report both."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for controller in ("naive", "predictor-window"):
        traj, metrics = run(build_scenario(config, controller=controller))
        write_trajectory_csv(out / f"{controller}.csv", traj)
        rows.append((controller, metrics))

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
    (out / "compare.txt").write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_sweep(config: Config, h_min: float, h_max: float, steps: int) -> int:
    """Sweep the delay over a grid and tabulate naive vs. predictor metrics."""
    if steps < 1 or h_max < h_min or h_min < 0:
        raise _UsageError(f"invalid sweep range: h_min={h_min}, h_max={h_max}, steps={steps}")
    base = build_scenario(config, controller="naive")
    if not math.isfinite(h_max / config.dt):
        raise _UsageError(f"--h-max {h_max:g} is not a finite number of dt={config.dt:g} steps")
    # grid points rounded to whole steps, deduplicated in order
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
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        text = open(args.config, encoding="utf-8").read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.out_dir:
        config = replace(config, out_dir=args.out_dir)

    try:
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
        sweep = args.command == "sweep"
        depth = round((args.h_max if sweep else config.delay) / config.dt)
        if depth <= steps:
            where, fix = "config keys 'horizon'/'dt'", "shorten horizon"
        elif sweep:
            where, fix = "option --h-max", "lower --h-max"
        else:
            where, fix = "config key 'delay'", "shorten delay"
        print(f"usage error: {where}: {max(depth, steps):.3g} steps do not fit in memory; "
              f"{fix} or raise dt", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())
