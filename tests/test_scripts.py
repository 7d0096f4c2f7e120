import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_compare_demo(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "compare_demo.py"), run_name="__main__")
    assert exc.value.code == 0
    rows = {}
    for line in (tmp_path / "out" / "compare.txt").read_text().splitlines()[2:]:
        fields = line.split()
        rows[fields[0]] = (fields[1], fields[-1])  # (settled, diverged)
    assert rows == {"naive": ("no", "yes"), "predictor-window": ("yes", "no")}


def test_delay_sweep(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "delay_sweep.py"), run_name="__main__")
    assert exc.value.code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [float(h) for h, _, _ in rows] == [round(0.05 + 0.01 * i, 2) for i in range(21)]
    assert all(pred == "settled" for _, _, pred in rows)
    # the naive loop's delay margin is pi/16 ~ 0.196 s
    assert [naive == "settled" for _, naive, _ in rows] == [float(h) <= 0.19 for h, _, _ in rows]
