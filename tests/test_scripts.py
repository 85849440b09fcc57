"""Smoke tests of the example scripts: each one's main runs end to end on a
small grid over a short span and prints its table."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_main(monkeypatch, name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *args])
    module.main()


def test_standing_wave(monkeypatch, capsys):
    run_main(monkeypatch, "run_standing_wave", "--n-y", "16", "--n-z", "24",
             "--periods", "1", "--steps-per-period", "20")
    lines = dict(line.split(" : ") for line in capsys.readouterr().out.splitlines())
    assert float(lines["relative error   "]) < 0.02
    assert float(lines["energy drift     "]) < 1e-3


def test_epsilon_sweep(monkeypatch, capsys):
    run_main(monkeypatch, "run_epsilon_sweep", "--n-y", "16", "--n-z", "24",
             "--periods", "0.25")
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "eps"
    assert [float(row.split()[0]) for row in rows] == [1e-2, 1e-3, 1e-4, 0.0]
    # the distance to the inviscid member shrinks with eps
    dist = [float(row.split()[1]) for row in rows[:-1]]
    assert dist == sorted(dist, reverse=True)
    assert all(d > 0.0 for d in dist) and rows[-1].split()[1] == "-"
