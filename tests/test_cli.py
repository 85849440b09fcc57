import json

import numpy as np

from wavetank.cli import main


def run_cli(*argv):
    return main(list(argv))


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
