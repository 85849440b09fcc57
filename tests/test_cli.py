import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavetank
from wavetank.cli import main
from wavetank.diagnostics import linear_frequency


def run_cli(*argv):
    return main(list(argv))


def read_status(out):
    """status.json as strict JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"status.json holds {constant}")
    return json.loads((out / "status.json").read_text(), parse_constant=refuse)


# the standing wave's period on the default 2 pi x 2 pi strip
PERIOD = float(2.0 * np.pi / linear_frequency(1.0, 1.0, 1.0, 2.0 * np.pi))


BASE = [
    "--override", "n_y=16",
    "--override", "n_z=24",
    "--override", "t_final=0.1",
    "--override", "dt=0.02",
]


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli("run", "--out", str(out), *BASE)
        assert code == 0
        assert (out / "series.csv").exists()
        assert (out / "effective_config.txt").exists()
        assert (out / "snapshot_final.wtk").exists()
        status = json.loads((out / "status.json").read_text())
        assert status["status"] == "ok"
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header.startswith("t,kinetic,gravitational,capillary")

    def test_equilibrium_series_zero(self, tmp_path):
        out = tmp_path / "eq"
        code = run_cli(
            "run", "--out", str(out), "--override", "preset=equilibrium", *BASE
        )
        assert code == 0
        rows = (out / "series.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert float(fields[4]) == 0.0  # total energy

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for rep in range(2):
            out = tmp_path / f"rep{rep}"
            assert run_cli("run", "--out", str(out), "--seed", "9", *BASE) == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_effective_config_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli("run", "--out", str(first), *BASE) == 0
        second = tmp_path / "second"
        code = run_cli(
            "run",
            "--config", str(first / "effective_config.txt"),
            "--out", str(second),
        )
        assert code == 0
        a = (first / "series.csv").read_bytes()
        b = (second / "series.csv").read_bytes()
        assert a == b

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eps = -3\n")
        code = run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "eps" in capsys.readouterr().err

    def test_non_finite_override_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--out", str(tmp_path / "o"), *BASE,
                       "--override", "t_final=nan")
        assert code == 1
        assert "key 't_final'" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code = run_cli("audit", "--out", str(tmp_path / "o"), "--seed", "-1")
        assert code == 1
        assert "key 'seed'" in capsys.readouterr().err

    def test_handler_error_printed(self, tmp_path, capsys):
        # dt = 5 is clipped to t_final = 1, still past the stability limit
        out = tmp_path / "o"
        code = run_cli("run", "--out", str(out), "--override", "dt=5")
        assert code == 1
        assert capsys.readouterr().err.startswith("StepSizeError: dt = ")
        status = json.loads((out / "status.json").read_text())
        assert status["error_class"] == "StepSizeError"

    def test_standing_wave_frequency_and_energy_drift(self, tmp_path):
        # one period at 20 steps a period on the 16x24 grid
        out = tmp_path / "wave"
        code = run_cli("run", "--out", str(out), *BASE[:4],
                       "--override", f"t_final={PERIOD!r}",
                       "--override", f"dt={PERIOD / 20.0!r}")
        assert code == 0
        status = read_status(out)
        omega = status["omega_linear"]
        assert abs(status["omega_measured"] - omega) / omega < 0.02
        assert status["energy_drift"] < 1e-3

    def test_unformed_values_are_null(self, tmp_path):
        # t_final = 1 is short of the wave's first zero crossing
        out = tmp_path / "default"
        assert run_cli("run", "--out", str(out)) == 0
        assert '"omega_measured": null' in (out / "status.json").read_text()
        status = read_status(out)
        assert status["omega_linear"] == linear_frequency(1.0, 1.0, 1.0,
                                                          2.0 * np.pi)
        assert 0.0 < status["energy_drift"] < 1e-3
        # a wave of amplitude 0 has no energy to drift from
        flat = tmp_path / "flat"
        assert run_cli("run", "--out", str(flat), *BASE,
                       "--override", "amplitude=0") == 0
        status = read_status(flat)
        assert status["omega_measured"] is None and status["energy_drift"] is None

    def test_snapshots_at_cadence(self, tmp_path):
        out = tmp_path / "snaps"
        code = run_cli(
            "run", "--out", str(out), "--override", "snapshot_every=2", *BASE
        )
        assert code == 0
        snaps = sorted(out.glob("snapshot_0*.wtk"))
        assert len(snaps) >= 2


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep",
            "--out", str(out),
            "--override", "n_y=16",
            "--override", "n_z=24",
            "--override", "t_final=0.12",
            "--override", "dt=0.02",
            "--override", "eps_list=0.01,0.001,0.0",
            "--override", "output_every=2",
        )
        assert code == 0
        table = (out / "sweep.csv").read_text().splitlines()
        assert table[0].startswith("eps,")
        assert len(table) == 4
        for eps_name in ("eps_0.01", "eps_0.001", "eps_0"):
            assert (out / eps_name / "series.csv").exists()
        assert (out / "eps_0.01" / "layer_profile.csv").exists()
        status = json.loads((out / "status.json").read_text())
        assert status["status"] == "ok"

    def test_sweep_table_printed_and_distances_decrease(self, tmp_path, capsys):
        # a quarter period at the automatic dt on the 16x24 grid
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--out", str(out), *BASE[:4],
                       "--override", "stretch_gamma=3.5",
                       "--override", f"t_final={PERIOD / 4.0!r}")
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == (out / "sweep.csv").read_text()
        header, *rows = [line.split(",") for line in printed.splitlines()]
        assert header[0] == "eps"
        assert [float(row[0]) for row in rows] == [1e-2, 1e-3, 1e-4, 0.0]
        # the distance to the inviscid member shrinks with eps
        dist = [float(row[1]) for row in rows[:-1]]
        assert all(a > b for a, b in zip(dist, dist[1:]))
        assert all(d > 0.0 for d in dist) and rows[-1][1] == "0.0"
        amps = [float(row[header.index("layer_amplitude")]) for row in rows]
        assert all(a > 0.0 for a in amps[:-1]) and np.isnan(amps[-1])

    def test_default_viscosities_are_declared(self, tmp_path, capsys):
        # the effective config names the four members a default sweep runs;
        # an explicit empty list is refused, not replaced
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--out", str(out), *BASE[:4],
            "--override", "t_final=0.06", "--override", "dt=0.02",
        )
        assert code == 0
        assert "eps_list = 0.01,0.001,0.0001,0.0\n" in (
            out / "effective_config.txt").read_text()
        assert len((out / "sweep.csv").read_text().splitlines()) == 5
        empty = tmp_path / "empty"
        code = run_cli("sweep", "--out", str(empty), "--override", "eps_list=",
                       *BASE)
        assert code == 1
        assert capsys.readouterr().err == (
            "ConfigurationError: sweep needs at least three viscosities\n"
        )

    def test_failed_reference_member_reported(self, tmp_path, capsys):
        # dt = 5 breaks the stability limit in every member, the eps = 0
        # reference too: nothing is compared and every row is nan
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--out", str(out), *BASE[:4],
                       "--override", "dt=5")
        assert code == 1
        assert capsys.readouterr().err == (
            "WavetankError: sweep members failed: 0.01, 0.001, 0.0001, 0\n"
        )
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.01", "0.001", "0.0001",
                                                       "0.0"]
        for row in rows:
            assert row.split(",")[1:] == ["nan"] * 6 + ["1"]
        assert json.loads((out / "status.json").read_text())["status"] == "error"


class TestAuditCommand:
    def test_audit_table(self, tmp_path, capsys):
        out = tmp_path / "audit"
        code = run_cli(
            "audit",
            "--out", str(out),
            "--seed", "3",
            "--override", "n_y=24",
            "--override", "n_z=32",
        )
        assert code == 0
        text = (out / "audit.csv").read_text()
        for name in (
            "extension_gain_s0",
            "extension_gain_s1",
            "extension_gain_s2",
            "anisotropic_embedding",
            "trace_inequality",
            "korn_lambda0",
            "dn_coercivity_min_c",
        ):
            assert name in text
        values = [
            float(line.split(",")[1])
            for line in text.splitlines()[1:]
        ]
        assert all(np.isfinite(v) and v >= 0 for v in values)


class TestCheckCommand:
    def test_check_ok(self, tmp_path, capsys):
        code = run_cli(
            "check", "--out", str(tmp_path / "chk"),
            "--override", "n_y=16", "--override", "n_z=24",
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "compatibility residual" in captured

    def test_check_warns_incompatible_shear(self, tmp_path, capsys):
        code = run_cli(
            "check", "--out", str(tmp_path / "chk2"),
            "--override", "preset=sheared_layer",
            "--override", "n_y=16", "--override", "n_z=24",
            "--override", "shear_delta=0.3",
        )
        assert code == 0
        assert "WARNING" in capsys.readouterr().out

    @pytest.mark.parametrize("n_y", [7, 2])
    def test_bad_grid_key_reported_before_output(self, tmp_path, capsys, n_y):
        out = tmp_path / "chk"
        code = run_cli("check", "--out", str(out), "--override", f"n_y={n_y}")
        assert code == 1
        assert capsys.readouterr().err == (
            f"configuration error: n_y must be even and >= 8, got {n_y}\n"
        )
        assert not out.exists()

    def test_floor_above_extension_slope_named(self, tmp_path, capsys):
        # a flat surface meets c0 = A = 1 and no surface meets c0 > A
        code = run_cli("check", "--out", str(tmp_path / "chk"), *BASE[:4],
                       "--override", "preset=equilibrium", "--override", "c0=1.5")
        assert code == 1
        assert capsys.readouterr().err == (
            "ConfigurationError: c0 = 1.5 exceeds the extension slope A = 1.0\n"
        )

    def test_floor_above_given_slope_reported_before_output(self, tmp_path, capsys):
        # a given slope_A bounds c0 before any output; with slope_A = auto
        # the bound depends on the surface (the test above)
        out = tmp_path / "chk"
        code = run_cli("check", "--out", str(out), "--override", "slope_A=1.0",
                       "--override", "c0=1.5")
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: c0 = 1.5 exceeds the extension slope A = 1.0 "
            "(key 'c0')\n"
        )
        assert not out.exists()

    def test_cfl_factor_above_one_reported_before_output(self, tmp_path, capsys):
        # the step's guard is the limit at cfl_factor 1 on the same state
        out = tmp_path / "chk"
        code = run_cli("check", "--out", str(out), "--override", "cfl_factor=1.2")
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: cfl_factor must be in (0, 1] (key 'cfl_factor')\n"
        )
        assert not out.exists()
        code = run_cli("check", "--out", str(out), "--override", "cfl_factor=1")
        assert code == 0
        assert "resolved dt: 0.0473596\n" in capsys.readouterr().out

    def test_coincident_grid_nodes_reported_before_output(self, tmp_path, capsys):
        out = tmp_path / "chk"
        code = run_cli("check", "--out", str(out), "--override", "stretch_gamma=40")
        assert code == 1
        assert capsys.readouterr().err.startswith("configuration error: stretch_gamma")
        assert not out.exists()


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_snapshot_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Two steps of a 96x128 viscous run write the same snapshot with the
    BLAS thread variables unset as with them at 1.  The 96x128 products are
    large enough that a threaded BLAS rounds them differently; on a 1-core
    runner both runs take one thread, and this test cannot fail there."""
    src = str(Path(wavetank.__file__).resolve().parents[1])
    snapshots = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREADS, threads))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-m", "wavetank.cli", "run", "--out", str(out),
             "--override", "n_y=96", "--override", "n_z=128",
             "--override", "eps=0.001", "--override", "dt=0.008",
             "--override", "t_final=0.016"],
            env=env, check=True, timeout=300, capture_output=True,
        )
        snapshots.append((out / "snapshot_final.wtk").read_bytes())
    assert snapshots[0] == snapshots[1]
