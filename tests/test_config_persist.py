import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.config import (
    SimulationConfig,
    apply_overrides,
    initial_state,
    parse_config,
    serialize_config,
)
from wavetank.diagnostics import SweepResult
from wavetank.errors import CheckpointError, ConfigurationError, StepSizeError
from wavetank.evolution import make_flow_state, run
from wavetank.grid import make_grid
from wavetank.persist import (
    SERIES_COLUMNS,
    restore_checkpoint,
    save_checkpoint,
    write_series_csv,
    write_sweep_csv,
)


class TestParseConfig:
    def test_minimal_document_applies_defaults(self):
        config = parse_config("preset = equilibrium\n")
        assert config.preset == "equilibrium"
        assert config.n_y == SimulationConfig().n_y
        text = serialize_config(config)
        assert "n_y = " in text and "eps = " in text and "seed = " in text

    def test_negative_eps_names_key(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config("eps = -1\n")
        assert "eps" in str(excinfo.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config("vorticity_flavor = 3\n")
        assert "vorticity_flavor" in str(excinfo.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("eps = 0.1\neps = 0.2\n")

    def test_comments_and_blanks(self):
        config = parse_config("# comment\n\neps = 0.25  # inline\n")
        assert config.eps == 0.25

    def test_bad_value_type(self):
        with pytest.raises(ConfigurationError):
            parse_config("n_y = lots\n")

    def test_auto_keywords(self):
        config = parse_config("dt = auto\nslope_A = auto\n")
        assert config.dt is None and config.slope_A is None

    def test_eps_list_roundtrip(self):
        config = parse_config("eps_list = 0.01,0.001,0.0001,0.0\n")
        assert config.eps_list == (1e-2, 1e-3, 1e-4, 0.0)

    def test_full_roundtrip_identity(self):
        config = SimulationConfig(
            n_y=24, eps=1e-3, dt=0.02, eps_list=(1e-2, 0.0), preset="equilibrium",
            out_dir="somewhere", seed=42,
        )
        text = serialize_config(config)
        reparsed = parse_config(text)
        assert reparsed == config
        assert serialize_config(reparsed) == text

    @settings(max_examples=25, deadline=None)
    @given(
        n_y=st.sampled_from([16, 24, 48]),
        eps=st.floats(0, 0.5),
        sigma=st.floats(0, 3),
        t_final=st.floats(0.1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_property(self, n_y, eps, sigma, t_final, seed):
        config = SimulationConfig(
            n_y=n_y, eps=eps, sigma=sigma, t_final=t_final, seed=seed
        )
        assert parse_config(serialize_config(config)) == config

    def test_overrides(self):
        config = apply_overrides(SimulationConfig(), ["eps=0.5", "n_y=16"])
        assert config.eps == 0.5 and config.n_y == 16
        with pytest.raises(ConfigurationError):
            apply_overrides(SimulationConfig(), ["nonsense"])
        with pytest.raises(ConfigurationError):
            apply_overrides(SimulationConfig(), ["bogus_key=1"])

    def test_validation_for_other_keys(self):
        for doc in ("t_final = 0\n", "c0 = -1\n", "preset = tsunami\n",
                    "output_every = 0\n", "dt = -0.1\n"):
            with pytest.raises(ConfigurationError):
                parse_config(doc)
        # each cadence key is named with its own bound
        for doc, message in (("output_every = 0\n", "output_every must be >= 1"),
                             ("snapshot_every = -1\n", "snapshot_every must be >= 0")):
            with pytest.raises(ConfigurationError) as excinfo:
                parse_config(doc)
            key = doc.split(" =")[0]
            assert message in str(excinfo.value)
            assert f"key '{key}'" in str(excinfo.value)
        # non-finite values, a non-finite sweep entry, a CFL factor outside
        # (0, 1] and a non-positive shear decay length are each rejected by
        # key, before any run starts
        for doc in ("t_final = nan\n", "eps = inf\n", "amplitude = nan\n",
                    "dt = nan\n", "slope_A = inf\n", "cfl_factor = -1\n",
                    "cfl_factor = 0\n", "cfl_factor = nan\n", "cfl_factor = 1.2\n",
                    "shear_delta = 0\n",
                    "eps_list = 0.01,nan\n", "eps_list = inf\n", "seed = -1\n"):
            with pytest.raises(ConfigurationError) as excinfo:
                parse_config(doc)
            key = doc.split(" =")[0]
            assert f"key '{key}'" in str(excinfo.value)

    @pytest.mark.parametrize("mode_k", [0, -1, 8, 9])
    def test_mode_k_outside_resolved_modes_rejected(self, mode_k):
        # on n_y = 16, mode 8 is the Nyquist mode, which dy_c annihilates (a
        # frozen wave); mode 9 aliases to mode 7 and mode 0 is a flat lift
        with pytest.raises(ConfigurationError, match="key 'mode_k'"):
            SimulationConfig(n_y=16, n_z=24, mode_k=mode_k)
        assert SimulationConfig(n_y=16, n_z=24, mode_k=7).mode_k == 7

    @pytest.mark.parametrize("key, value", [("mode_k", 1.5), ("snapshot_every", 2.5)])
    def test_non_integer_value_of_an_integer_key_rejected(self, key, value):
        # parse_config coerces with int(); a direct caller is checked here
        with pytest.raises(ConfigurationError,
                           match=f"{key} must be an integer.*key '{key}'"):
            SimulationConfig(n_y=16, n_z=24, **{key: value})
        config = SimulationConfig(n_y=16, n_z=24, **{key: np.int64(2)})
        assert getattr(config, key) == 2


class TestPresets:
    def test_equilibrium_zero(self):
        config = SimulationConfig(preset="equilibrium", n_y=16, n_z=24)
        st0 = initial_state(config)
        assert np.max(np.abs(st0.h.h_values)) == 0.0
        assert np.max(np.abs(st0.v.values)) == 0.0

    def test_standing_wave_amplitude_and_mode(self):
        config = SimulationConfig(n_y=16, n_z=24, amplitude=0.002, mode_k=2)
        st0 = initial_state(config)
        g = make_grid(16, 24, config.length_y, config.depth_H)
        assert np.allclose(st0.h.h_values, 0.002 * np.cos(2 * g.y_nodes))

    def test_sheared_layer_profile(self):
        config = SimulationConfig(
            preset="sheared_layer", n_y=16, n_z=24, shear_u0=0.2, shear_delta=0.4
        )
        st0 = initial_state(config)
        assert np.max(np.abs(st0.h.h_values)) == 0.0
        assert st0.v.values[0, 0, -1] == pytest.approx(0.2, rel=1e-6)

    def test_eps_override_for_sweeps(self):
        config = SimulationConfig(n_y=16, n_z=24, eps=0.1)
        st0 = initial_state(config, eps=0.0)
        assert st0.eps == 0.0


class TestCheckpoint:
    def test_save_load_save_bytes_identical(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        rng = np.random.default_rng(3)
        from wavetank.evolution import make_flow_state

        state = make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes),
            1e-3 * rng.standard_normal((2, g.n_y, g.n_z)),
            t=0.7, eps=1e-3,
        )
        p1 = tmp_path / "a.wtk"
        p2 = tmp_path / "b.wtk"
        save_checkpoint(p1, state)
        restored = restore_checkpoint(p1)
        save_checkpoint(p2, restored)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(restored.v.values, state.v.values)
        assert np.array_equal(restored.h.h_values, state.h.h_values)
        assert restored.t == state.t and restored.eps == state.eps

    def test_corrupted_header_rejected(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        from wavetank.evolution import make_flow_state

        state = make_flow_state(
            g, np.zeros(g.n_y), np.zeros((2, g.n_y, g.n_z))
        )
        path = tmp_path / "snap.wtk"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())

        bad_magic = tmp_path / "bad_magic.wtk"
        bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
        with pytest.raises(CheckpointError):
            restore_checkpoint(bad_magic)

        truncated = tmp_path / "trunc.wtk"
        truncated.write_bytes(bytes(raw[: len(raw) // 2]))
        with pytest.raises(CheckpointError):
            restore_checkpoint(truncated)

        short = tmp_path / "short.wtk"
        short.write_bytes(b"WT")
        with pytest.raises(CheckpointError):
            restore_checkpoint(short)

        bad_version = tmp_path / "bad_version.wtk"
        chunk = bytearray(raw)
        chunk[4] = 99
        bad_version.write_bytes(bytes(chunk))
        with pytest.raises(CheckpointError):
            restore_checkpoint(bad_version)

        # header slots: 2 header size, 11 clustering code
        from wavetank.grid import CLUSTERINGS
        from wavetank.persist import _HEADER

        header = _HEADER.unpack(bytes(raw[:_HEADER.size]))
        for slot, value, message in ((2, _HEADER.size + 8, "header size mismatch"),
                                     (11, len(CLUSTERINGS), "unknown clustering")):
            fields = list(header)
            fields[slot] = value
            bad = tmp_path / f"slot_{slot}.wtk"
            bad.write_bytes(_HEADER.pack(*fields) + bytes(raw[_HEADER.size:]))
            with pytest.raises(CheckpointError, match=message):
                restore_checkpoint(bad)

    def test_invalid_state_rejected(self, tmp_path):
        # a header or payload that parses but rebuilds no valid grid or state
        import struct

        from wavetank.persist import _HEADER

        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        save_checkpoint(tmp_path / "ok.wtk", make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=1e-3
        ))
        raw = (tmp_path / "ok.wtk").read_bytes()
        header = list(_HEADER.unpack(raw[:_HEADER.size]))

        def with_header(slot, value):
            fields = list(header)
            fields[slot] = value
            return _HEADER.pack(*fields) + raw[_HEADER.size:]

        # header slots: 5 length_y, 7 t, 8 eps, 13 A, 14 c0; the stored A
        # is 1, which no floor c0 above it can meet
        cases = {
            "nan_payload": raw[:-8] + struct.pack("<d", float("nan")),
            "length_y": with_header(5, -1.0),
            "c0": with_header(14, 0.0),
            "c0 above A": with_header(14, 1.5),
            "eps": with_header(8, -1.0),
            "t": with_header(7, float("nan")),
            "A": with_header(13, float("nan")),
        }
        for name, data in cases.items():
            path = tmp_path / f"{name}.wtk"
            path.write_bytes(data)
            with pytest.raises(CheckpointError) as excinfo:
                restore_checkpoint(path)
            assert isinstance(excinfo.value.__cause__, ConfigurationError), name

    def test_restart_matches_uninterrupted_exactly(self):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        from wavetank.evolution import make_flow_state

        st0 = make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=1e-3
        )
        dt = 0.02
        full = run(st0, t_final=10 * dt, dt=dt)
        assert full.failure is None

        import tempfile, os

        mid = full.states[5]
        with tempfile.TemporaryDirectory() as tdir:
            path = os.path.join(tdir, "mid.wtk")
            save_checkpoint(path, mid)
            resumed_state = restore_checkpoint(path)
        resumed = run(resumed_state, t_final=10 * dt, dt=dt)
        assert resumed.failure is None
        for s_resumed, s_full in zip(resumed.states, full.states[5:]):
            assert np.array_equal(s_resumed.v.values, s_full.v.values)
            assert np.array_equal(s_resumed.h.h_values, s_full.h.h_values)


class TestSeriesCsv:
    def test_rerun_byte_identical(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        from wavetank.evolution import make_flow_state

        outputs = []
        for rep in range(2):
            st0 = make_flow_state(
                g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)),
                eps=1e-3,
            )
            traj = run(st0, t_final=0.1, dt=0.02)
            path = tmp_path / f"series_{rep}.csv"
            write_series_csv(path, traj)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_per_solve_iteration_columns(self, tmp_path):
        import csv

        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        from wavetank.evolution import make_flow_state

        st0 = make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=1e-3,
        )
        traj = run(st0, t_final=0.06, dt=0.02)
        path = tmp_path / "series.csv"
        write_series_csv(path, traj)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        columns = ("viscous_iterations", "projection_iterations",
                   "reprojection_iterations")
        for row in rows:
            counts = [int(row[name]) for name in columns]
            assert sum(counts) == int(row["solver_iterations"])
        # the first step starts from rest, so its viscous solve has zero data
        assert all(int(rows[-1][name]) > 0 for name in columns)

    def test_header_and_rows_follow_the_column_table(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        st0 = make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=1e-3,
        )
        traj = run(st0, t_final=0.06, dt=0.02)
        path = tmp_path / "series.csv"
        write_series_csv(path, traj)
        header, *rows = path.read_text().splitlines()
        assert header.split(",") == [name for name, _ in SERIES_COLUMNS]
        assert len(rows) == len(traj.times)
        assert all(len(row.split(",")) == len(SERIES_COLUMNS) for row in rows)


def _sweep_rows(tmp_path, result):
    import csv

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


COMPARISONS = ("sup_v_l2", "sup_h_h1", "conormal_max", "dz_norm_max",
               "dzz_top_max", "layer_amplitude")


class TestSweepCsv:
    EPS = [1e-2, 1e-3, 1e-4, 0.0]

    def _compared(self, members):
        """A sweep result whose comparisons ran for the given members."""
        result = SweepResult(eps_list=self.EPS)
        for eps in members:
            result.conormal_max[eps] = 1.0 + eps
            result.dz_norm_max[eps] = 2.0 + eps
            result.dzz_top_max[eps] = 3.0 + eps
            if eps > 0.0:
                result.sup_v_l2[eps] = eps
                result.sup_h_h1[eps] = 2.0 * eps
                result.layer_amplitude[eps] = 4.0 * eps
        return result

    def test_failed_member_reads_nan(self, tmp_path):
        result = self._compared([1e-2, 1e-4, 0.0])
        result.failed[1e-3] = StepSizeError("dt exceeds the limit")
        rows = {float(r["eps"]): r for r in _sweep_rows(tmp_path, result)}
        assert all(rows[1e-3][name] == "nan" for name in COMPARISONS)
        assert rows[1e-3]["failed"] == "1"
        assert float(rows[1e-2]["sup_v_l2"]) == 1e-2
        assert float(rows[1e-4]["sup_h_h1"]) == 2e-4
        # the reference against itself
        assert rows[0.0]["sup_v_l2"] == rows[0.0]["sup_h_h1"] == "0.0"
        assert rows[0.0]["layer_amplitude"] == "nan"
        assert float(rows[1e-4]["layer_amplitude"]) == 4e-4
        assert float(rows[0.0]["conormal_max"]) == 1.0
        assert all(rows[eps]["failed"] == "0" for eps in (1e-2, 1e-4, 0.0))

    def test_failed_reference_leaves_every_comparison_nan(self, tmp_path):
        result = self._compared([])
        result.failed[0.0] = StepSizeError("dt exceeds the limit")
        rows = _sweep_rows(tmp_path, result)
        assert [float(r["eps"]) for r in rows] == self.EPS
        for row in rows:
            assert all(row[name] == "nan" for name in COMPARISONS)
        assert [r["failed"] for r in rows] == ["0", "0", "0", "1"]


@pytest.mark.parametrize("doc, message", [
    ("slope_A = -1\n", r"^slope_A must be positive or auto \(key 'slope_A'\)"),
    ("n_y 16\n", "^line 1: expected 'key = value'"),
], ids=["slope_A", "no-equals"])
def test_guards_name_their_input(doc, message):
    with pytest.raises(ConfigurationError, match=message):
        parse_config(doc)
