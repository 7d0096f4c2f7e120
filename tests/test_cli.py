import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delaycomp import cli
from delaycomp.cli import (
    CSV_HEADER,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    build_scenario,
    parse_config,
)
from delaycomp.robot import pose_path
from delaycomp.sim import run as sim_run

from conftest import pose_oracle

MINIMAL = """\
mass = 1
inertia = 1
friction_v = 1
friction_w = 2
wheel_base = 0.5
gain_force = 2
gain_torque = 4
delay = 0.3
v_ref = 1
w_ref = 0.5
"""


def write_config(tmp_path, text=MINIMAL, extra=""):
    path = tmp_path / "robot.cfg"
    path.write_text(text + extra)
    return path


ROBOT_CFG = (Path(__file__).resolve().parents[1] / "configs" / "robot.cfg").read_text()
ROBOT_KEYS = ["mass", "inertia", "friction_v", "friction_w", "wheel_base", "gain_force",
              "gain_torque", "delay", "dt", "horizon", "v0", "w0", "v_ref", "w_ref", "poles"]
PLANT_KEYS = ("mass", "inertia", "friction_v", "friction_w", "gain_force", "gain_torque")
INPUT_KEYS = ("gain_force", "gain_torque", "mass", "inertia")
SWEEP_GRID = ["--h-min", "0.05", "--h-max", "0.25", "--steps", "3"]


def robot_cfg(values):
    """configs/robot.cfg with each key's value replaced; a poles value sets
    the first pole and keeps the second at -5."""
    text = ROBOT_CFG
    for key, value in values.items():
        value = f"{value!r},-5" if key == "poles" else repr(value)
        text, count = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    return text


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dt == 0.01
        assert cfg.horizon == 10.0
        assert cfg.poles == (-5.0, -5.0)
        assert cfg.controller == "predictor-window"
        assert cfg.v0 == 0.0 and cfg.w0 == 0.0
        assert cfg.e_max is None
        assert cfg.params.m == 1.0 and cfg.params.k_d == 4.0
        assert cfg.delay == 0.3 and cfg.v_ref == 1.0 and cfg.w_ref == 0.5

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# heading\n\n" + MINIMAL + "dt = 0.02  # fast\n")
        assert cfg.dt == 0.02

    @pytest.mark.parametrize("extra,key", [
        ("unknown_thing = 3\n", "unknown_thing"),
        ("dt = fast\n", "dt"),
        ("dt = 0.1\ndelay2 = 1\n", "delay2"),
        ("poles = -5,1\n", "poles"),
        ("poles = -5\n", "poles"),
        ("controller = magic\n", "controller"),
        ("e_max = -2\n", "e_max"),
        ("dt = -0.01\n", "dt"),
        ("horizon = 0.001\n", "horizon"),
        ("horizon = inf\n", "horizon"),
        ("v0 = nan\n", "v0"),
        ("poles = -5,-inf\n", "poles"),
        ("poles = -5,fast\n", "poles"),
    ])
    def test_errors_name_the_key(self, extra, key):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + extra)
        assert err.value.key == key
        assert key in str(err.value)

    @pytest.mark.parametrize("key", ["gain_force", "gain_torque"])
    def test_zero_actuator_gain(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace(f"{key} = ", f"{key} = 0 #"))
        assert err.value.key == key

    def test_delay_integrality(self):
        # checked where a scenario is built: sweep sets every run's delay itself
        config = parse_config(MINIMAL.replace("delay = 0.3", "delay = 0.25") + "dt = 0.1\n")
        with pytest.raises(ConfigError) as err:
            build_scenario(config)
        assert err.value.key == "delay"
        assert "not an integer multiple of dt" in str(err.value)

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("mass = 1\n", ""))
        assert err.value.key == "mass"

    def test_physical_invariant_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("mass = 1", "mass = -1"))
        assert err.value.key == "mass"

    def test_parse_is_total_on_garbage(self):
        for text in ("= 5\n", "mass\n", "mass = \n", "mass = 1\nmass = 2\n"):
            with pytest.raises(ConfigError):
                parse_config(text)


class TestRunCommand:
    def test_run_writes_csv_and_metrics(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        csv_path = out / "predictor-window.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        metrics = (out / "predictor-window.metrics.txt").read_text()
        assert "settled = true" in metrics
        assert "diverged = false" in metrics

    def test_csv_round_trip_full_precision(self, tmp_path):
        cfg_path = write_config(tmp_path, extra="horizon = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == EXIT_OK
        loaded = np.genfromtxt(out / "predictor-window.csv", delimiter=",", names=True)

        config = parse_config((tmp_path / "robot.cfg").read_text())
        traj, _ = sim_run(build_scenario(config))
        np.testing.assert_array_equal(loaded["t"], traj.t)
        np.testing.assert_array_equal(loaded["v"], traj.states[:, 0])
        np.testing.assert_array_equal(loaded["omega"], traj.states[:, 1])
        np.testing.assert_array_equal(loaded["e_m"], traj.controls[:, 0])
        np.testing.assert_array_equal(loaded["v_pred"], traj.predictions[:, 0])
        np.testing.assert_array_equal(loaded["heading"], pose_path(traj.states[:-1], traj.dt)[:, 2])

    @pytest.mark.parametrize("controller", ["predictor-window", "naive"])
    def test_csv_text_matches_per_field_format(self, tmp_path, controller):
        cfg_path = write_config(tmp_path, extra="horizon = 2\n")
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--controller", controller, "--out-dir", str(out)]
        assert cli.main(argv) == EXIT_OK
        config = parse_config(cfg_path.read_text())
        traj, _ = sim_run(build_scenario(config, controller=controller))
        poses = pose_path(traj.states[:-1], traj.dt)

        def fields(values):
            return [format(v, ".17g") for v in values]

        lines = [CSV_HEADER]
        for k in range(len(traj.t)):
            pred = traj.predictions[k]
            pred_fields = ["", ""] if np.any(np.isnan(pred)) else fields(pred)
            lines.append(",".join(
                fields([traj.t[k], *traj.states[k], *traj.controls[k]]) + pred_fields + fields(poses[k])
            ))
        assert (out / f"{controller}.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("controller,delay,horizon,x0,code", [
        ("predictor-window", 0.3, 10.0, (0.0, 0.0), EXIT_OK),
        ("naive", 1.0, 60.0, (0.3, -2.0), EXIT_DIVERGED),
    ])
    def test_poses_follow_recorded_states(self, tmp_path, controller, delay, horizon, x0, code):
        text = MINIMAL.replace("delay = 0.3", f"delay = {delay}")
        cfg = write_config(tmp_path, text=text,
                           extra=f"controller = {controller}\nhorizon = {horizon}\nv0 = {x0[0]}\nw0 = {x0[1]}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == code
        data = np.genfromtxt(out / f"{controller}.csv", delimiter=",", names=True)
        poses = np.column_stack([data["x"], data["y"], data["heading"]])
        # row k is the pose after steps 0..k-1
        expected = pose_oracle(np.column_stack([data["v"], data["omega"]])[:-1], 0.01)
        np.testing.assert_allclose(poses, expected, rtol=1e-12, atol=1e-12)

    def test_config_file_closed(self, tmp_path):
        cfg = write_config(tmp_path, extra="horizon = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_nonpredictor_leaves_prediction_columns_empty(self, tmp_path):
        cfg = write_config(tmp_path, extra="controller = naive\nhorizon = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        row = (out / "naive.csv").read_text().splitlines()[1].split(",")
        assert row[5] == "" and row[6] == ""

    def test_divergence_exit_code(self, tmp_path):
        # frictionless plant with aggressive poles and a large delay destabilizes
        # the naive controller
        text = MINIMAL.replace("friction_v = 1", "friction_v = 0").replace("friction_w = 2", "friction_w = 0")
        cfg = write_config(tmp_path, text=text,
                           extra="controller = naive\npoles = -8,-8\nhorizon = 30\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_DIVERGED
        metrics = (out / "naive.metrics.txt").read_text()
        assert "diverged = true" in metrics
        assert (out / "naive.csv").exists()  # trajectory still written

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO

    def test_bad_config_usage_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="poles = -5,1\n")
        assert cli.main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "poles" in capsys.readouterr().err

    def test_unknown_flag(self):
        assert cli.main(["run", "--bogus"]) == EXIT_USAGE

    def test_output_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra="horizon = 1\n")
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(blocker)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("I/O error:")

    def test_long_horizon(self, tmp_path):
        cfg = write_config(tmp_path, extra="horizon = 120\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        lines = (out / "predictor-window.csv").read_text().splitlines()
        assert len(lines) - 1 == 12001

    def test_zform_horizon_too_long(self, tmp_path, capsys):
        # ||A||_inf T = 800: the z form's factors span one block, not t
        cfg = write_config(tmp_path, extra="horizon = 400\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg), "--controller", "predictor-zform",
                         "--out-dir", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        lines = (out / "predictor-zform.csv").read_text().splitlines()
        assert len(lines) - 1 == 40001
        metrics = (out / "predictor-zform.metrics.txt").read_text()
        assert float(re.search(r"^max_prediction_error = (.*)$", metrics, re.M)[1]) <= 1e-9

    # 1e17 steps: numpy refuses the allocation at once; 1e22 steps are past
    # its dimension limit, which it reports as a ValueError
    @pytest.mark.parametrize("horizon", ["1e15", "1e20"])
    def test_horizon_too_large_for_memory(self, tmp_path, capsys, horizon):
        cfg = write_config(tmp_path, extra=f"horizon = {horizon}\n")
        code = cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'horizon'/'dt'" in err

    # N = 1e14 rows of delay: numpy refuses the allocation at once; N = 1e22
    # is past its dimension limit
    @pytest.mark.parametrize("command,delay", [
        ("run", "1e12"), ("compare", "1e12"), ("run", "1e20"), ("compare", "1e20"),
    ], ids=["run", "compare", "run-1e20", "compare-1e20"])
    def test_delay_too_large_for_memory(self, tmp_path, capsys, command, delay):
        cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", f"delay = {delay}"))
        code = cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'delay'" in err and "horizon" not in err

    # sweep sets the delay of every run itself and never checks the config's:
    # it names the horizon, or --h-max where only the grid overflows
    @pytest.mark.parametrize("command,delay,dt,horizon,key", [
        (command, delay, dt, horizon, sweep_key if command == "sweep" else key)
        for command in ("run", "compare", "sweep")
        for delay, dt, horizon, key, sweep_key in [
            ("0.3", "1e-320", "10", "'delay'", "'horizon'"),  # h/dt overflows
            ("0", "1e-320", "10", "'horizon'", "'horizon'"),  # T/dt overflows
            ("0.3", "1e-310", "1e-300", "'delay'", "--h-max"),
        ]
    ])
    def test_step_count_beyond_float_range(self, tmp_path, capsys, command, delay, dt, horizon, key):
        text = MINIMAL.replace("delay = 0.3", f"delay = {delay}")
        cfg = write_config(tmp_path, text=text, extra=f"dt = {dt}\nhorizon = {horizon}\n")
        sweep = ["--h-min", "0", "--h-max", "0.5", "--steps", "3"] if command == "sweep" else []
        code = cli.main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")] + sweep)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err and "finite number of dt=" in err
        if command == "sweep":
            assert "'delay'" not in err

    def test_controller_override(self, tmp_path):
        cfg = write_config(tmp_path, extra="horizon = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--controller", "nodelay",
                         "--out-dir", str(out)]) == EXIT_OK
        assert (out / "nodelay.csv").exists()


class TestCompareCommand:
    def test_unbuildable_config_writes_nothing(self, tmp_path, capsys):
        # both commands build their scenarios before they make the directory
        cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", "delay = 0.305"))
        for command in ("run", "compare"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
            assert "'delay'" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_delay_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path.joinpath(), text=MINIMAL.replace("delay = 0.3", "delay = 0"),
                           extra="horizon = 3\n")
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        naive = np.genfromtxt(out / "naive.csv", delimiter=",", names=True)
        pred = np.genfromtxt(out / "predictor-window.csv", delimiter=",", names=True)
        np.testing.assert_allclose(pred["v"], naive["v"], atol=1e-9)
        np.testing.assert_allclose(pred["omega"], naive["omega"], atol=1e-9)
        assert (out / "compare.txt").exists()

    def test_setpoint_equals_initial_state(self, tmp_path):
        cfg = write_config(tmp_path, extra="v0 = 1\nw0 = 0.5\nhorizon = 1\n")
        out = tmp_path / "out"
        assert cli.main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        for name in ("naive", "predictor-window"):
            report = (out / "compare.txt").read_text()
            assert "yes" in report  # both settled
            data = np.genfromtxt(out / f"{name}.csv", delimiter=",", names=True)
            np.testing.assert_allclose(data["v"], 1.0, atol=1e-12)


class TestSweepCommand:
    def test_single_zero_delay(self, tmp_path):
        cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", "delay = 0"),
                           extra="horizon = 3\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--h-min", "0", "--h-max", "0",
                         "--steps", "1", "--out-dir", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[1] == fields[3] == "true"
        assert fields[2] == fields[4]

    def test_invalid_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # a NaN bound fails every comparison, so it must fail the range check too
        for h_min, h_max, steps in [("0.3", "0.1", "3"), ("0", "0.1", "0"), ("nan", "0.1", "3"),
                                    ("0", "nan", "3")]:
            assert cli.main(["sweep", "--config", str(cfg), "--h-min", h_min, "--h-max", h_max,
                             "--steps", steps]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "invalid sweep range" in err

    def test_config_delay_not_checked(self, tmp_path, capsys):
        # no swept run uses the config's delay, so one off the dt grid is harmless
        sweep = ["--h-min", "0", "--h-max", "0.3", "--steps", "4"]
        written = []
        for delay in ("0.3", "0.305"):
            cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", f"delay = {delay}"),
                               extra="horizon = 3\n")
            out = tmp_path / delay
            assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)] + sweep) == EXIT_OK
            written.append((out / "sweep.csv").read_text())
        assert written[0] == written[1]
        assert cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == EXIT_USAGE
        assert "'delay'" in capsys.readouterr().err

    @pytest.mark.parametrize("h_min,h_max,dt", [
        ("0.05", "0.25", "0.01"),
        ("0.125", "1.875", "0.25"),  # grid points dt apart fall on half steps
    ])
    def test_grid_capped_at_distinct_depths(self, tmp_path, h_min, h_max, dt):
        cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", "delay = 0"),
                           extra=f"dt = {dt}\nhorizon = 2\n")
        written = []
        for steps in ("1000000000000000", "51"):
            out = tmp_path / steps
            assert cli.main(["sweep", "--config", str(cfg), "--h-min", h_min, "--h-max", h_max,
                             "--steps", steps, "--out-dir", str(out)]) == EXIT_OK
            written.append((out / "sweep.csv").read_text())
        assert written[0] == written[1]
        # every depth from the first to the last is swept
        depths = [round(float(line.split(",")[0]) / float(dt)) for line in written[0].splitlines()[1:]]
        assert depths == list(range(depths[0], depths[-1] + 1))

    # the grid's last point is N = 1e14 rows of delay, or past numpy's
    # dimension limit
    @pytest.mark.parametrize("h_max", ["1e12", "1e20", "1e300"])
    def test_delay_too_large_for_memory(self, tmp_path, capsys, h_max):
        cfg = write_config(tmp_path)
        code = cli.main(["sweep", "--config", str(cfg), "--h-min", "0", "--h-max", h_max,
                         "--steps", "2", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "--h-max" in err and "horizon" not in err

    def test_grid_beyond_float_range(self, tmp_path, capsys):
        # 1e10 steps of horizon fit in a float; the grid's 0.5 s / 1e-310 do not
        cfg = write_config(tmp_path, text=MINIMAL.replace("delay = 0.3", "delay = 0"),
                           extra="dt = 1e-310\nhorizon = 1e-300\n")
        code = cli.main(["sweep", "--config", str(cfg), "--h-min", "0", "--h-max", "0.5",
                         "--steps", "3", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "--h-max" in err and "finite number of dt=" in err

    def test_grid_rounded_and_deduplicated(self, tmp_path):
        cfg = write_config(tmp_path, extra="horizon = 2\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--h-min", "0.004", "--h-max", "0.016",
                         "--steps", "4", "--out-dir", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        hs = [float(line.split(",")[0]) for line in lines]
        assert hs == sorted(set(hs))
        for h in hs:
            assert abs(round(h / 0.01) * 0.01 - h) < 1e-12


class TestNoPredictionPair:
    def test_error_reported_as_missing(self, tmp_path):
        # u* - Kd x* overflows, so every run diverges one step in, before a
        # forecast issued at t = 0 is realized h later: there is no error to
        # report, and 0 would claim a perfect forecast
        cfg = tmp_path / "robot.cfg"
        cfg.write_text(robot_cfg({"v_ref": -1e308}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg), "--out-dir", str(out)]
        assert cli.main(["run"] + argv) == EXIT_DIVERGED
        assert "max_prediction_error = none" in (out / "predictor-window.metrics.txt").read_text().splitlines()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compare"] + argv) == EXIT_OK
        predictor = (out / "compare.txt").read_text().splitlines()[-1].split()
        assert predictor[0] == "predictor-window" and predictor[4] == "-"
        assert cli.main(["sweep"] + argv + SWEEP_GRID) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[5] == "" for row in rows)


class TestUnbuildableConfig:
    """Configs whose every value passes parse_config but which the model
    cannot build end as one usage error naming the keys at fault."""

    @pytest.mark.parametrize("values,key", [
        ({"poles": -1e-300}, "poles"),  # A + B K not Hurwitz to working precision
        ({"mass": 1e-300}, "poles"),
        ({"friction_v": 1e300}, "poles"),
        ({"inertia": 1e300, "gain_torque": 1e-300}, "poles"),  # B underflows to 0
        ({"friction_w": 1e308, "inertia": 1e-308}, PLANT_KEYS),  # A overflows
        ({"gain_force": 1e-300}, INPUT_KEYS),  # B singular to working precision
        ({"inertia": 3e12}, INPUT_KEYS),
        ({"w_ref": 1e308}, ("v_ref", "w_ref")),  # A x* overflows
        # Bd = dt B overflows on the frictionless channel, where a = 0
        ({"friction_v": 0.0, "delay": 0.0, "dt": 1e308, "horizon": 1e308}, "dt"),
        ({"friction_v": 0.0, "gain_force": 1e308, "gain_torque": 1e308, "delay": 0.0, "dt": 10.0}, "dt"),
    ])
    def test_names_the_keys(self, tmp_path, capsys, values, key):
        with pytest.raises(ConfigError) as err, np.errstate(over="ignore"):  # as in cli.main
            build_scenario(parse_config(robot_cfg(values)))
        assert err.value.key == key
        keys = (key,) if isinstance(key, str) else key
        named = "config key" + ("s " if len(keys) > 1 else " ") + "/".join(f"'{k}'" for k in keys) + ":"
        cfg = tmp_path / "robot.cfg"
        cfg.write_text(robot_cfg(values))
        for command in ("run", "compare", "sweep"):
            argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
            assert cli.main(argv + (SWEEP_GRID if command == "sweep" else [])) == EXIT_USAGE
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith(f"usage error: {named} ")
        assert not (tmp_path / "out").exists()

    # examples past this many steps of horizon or delay are skipped: the
    # too-large-for-memory path has tests of its own
    STEP_BOUND = 2e4

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(ROBOT_KEYS),
            st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                      st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 308.0)),
            min_size=1, max_size=2,
        ),
        st.sampled_from(["run", "compare", "sweep", "run --controller predictor-zform"]),
    )
    @example({"poles": -1e-300}, "run")
    @example({"mass": 1e-300}, "compare")
    @example({"friction_v": 1e300}, "sweep")
    @example({"inertia": 1e300, "gain_torque": 1e-300}, "run")
    @example({"friction_w": 1e308, "inertia": 1e-308}, "compare")
    @example({"gain_force": 1e-300}, "sweep")
    @example({"inertia": 3e12}, "run")
    # the z form's block: one step (||A||_inf dt = 100), one step with
    # e^{-A dt} overflowing, and the full block at A ~ 0
    @example({"friction_v": 1e4}, "run --controller predictor-zform")
    @example({"friction_v": 1e6}, "run --controller predictor-zform")
    @example({"friction_v": 1e-320, "friction_w": 1e-320}, "run --controller predictor-zform")
    # ||A dt|| and the exponential's squaring count past the float range
    @example({"dt": 1e308, "horizon": 1e308}, "sweep")
    # Bd = dt B past the float range on a frictionless channel
    @example({"friction_v": 0.0, "delay": 0.0, "dt": 1e308, "horizon": 1e308}, "run")
    @example({"friction_v": 0.0, "delay": 0.0, "dt": 1e308, "horizon": 1e308}, "compare")
    @example({"friction_v": 0.0, "delay": 0.0, "dt": 1e308, "horizon": 1e308}, "sweep")
    @example({"friction_v": 0.0, "gain_force": 1e308, "gain_torque": 1e308, "delay": 0.0, "dt": 10.0}, "run")
    @example({"friction_v": 0.0, "gain_force": 1e308, "gain_torque": 1e308, "delay": 0.0, "dt": 10.0}, "compare")
    @example({"friction_v": 0.0, "gain_force": 1e308, "gain_torque": 1e308, "delay": 0.0, "dt": 10.0}, "sweep")
    def test_no_traceback(self, values, command):
        """Any finite value of one or two keys exits 0, 2 or 64, with one
        line on stderr on 64 and none otherwise."""
        dt = values.get("dt", 0.01)
        delay = 0.25 if command == "sweep" else values.get("delay", 0.3)  # sweep's --h-max
        assume(values.get("horizon", 10.0) / dt <= self.STEP_BOUND and delay / dt <= self.STEP_BOUND)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "robot.cfg"
            cfg.write_text(robot_cfg(values))
            argv = command.split() + ["--config", str(cfg), "--out-dir", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv + (SWEEP_GRID if command == "sweep" else []))
        assert code in (EXIT_OK, EXIT_DIVERGED, EXIT_USAGE)
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) == (1 if code == EXIT_USAGE else 0)
        assert not caught  # a console run would print each warning to stderr
