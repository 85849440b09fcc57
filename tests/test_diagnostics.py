import numpy as np
import pytest

from wavetank.diagnostics import (
    energy_identity_residual,
    epsilon_sweep,
    korn_audit,
    layer_profile,
    linear_frequency,
    measured_frequency,
    sn_reconstruction_audit,
)
from wavetank.errors import ConfigurationError, HistoryDepthError
from wavetank.evolution import make_flow_state, metric_ops, run
from wavetank.grid import (
    Field,
    horizontal_derivative_values,
    integrate_volume,
    make_grid,
    vertical_derivative_values,
)
from wavetank.persist import write_series_csv
from wavetank.surface import SurfaceState, build_diffeomorphism
from conftest import flat_diffeo


def zero_state(g, eps=0.0):
    return make_flow_state(
        g, np.zeros(g.n_y), np.zeros((2, g.n_y, g.n_z)), eps=eps
    )


class TestEnergyResidual:
    def test_equilibrium_identically_zero(self, wave_grid_small):
        traj = run(zero_state(wave_grid_small), t_final=0.3, dt=0.03)
        _, residual, worst = energy_identity_residual(traj)
        assert worst == 0.0
        assert residual.shape[0] == len(traj.times) - 2

    def test_needs_three_levels(self, wave_grid_small):
        traj = run(zero_state(wave_grid_small), t_final=0.06, dt=0.03)
        traj.times = traj.times[:2]
        traj.energy = traj.energy[:2]
        with pytest.raises(HistoryDepthError):
            energy_identity_residual(traj)

    def test_series_column_is_the_residual(self, wave_grid_small, tmp_path):
        import csv

        g = wave_grid_small
        st = make_flow_state(
            g, 1e-3 * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=1e-2
        )
        traj = run(st, t_final=0.3, dt=0.03)
        _, residual, _ = energy_identity_residual(traj)
        path = tmp_path / "series.csv"
        write_series_csv(path, traj)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        column = [row["identity_residual"] for row in rows]
        # repr round-trips, so the comparison is bit for bit
        assert np.array_equal(np.array(column[1:-1], dtype=float), residual)
        # no centered difference exists at the ends
        assert column[0] == column[-1] == "nan"
        assert np.any(residual != 0.0)
        # the initial row was produced by no step
        for name in ("projection_residual", "kinematic_residual",
                     "tangential_stress_residual"):
            assert rows[0][name] == "nan"
            assert np.all(np.isfinite([float(row[name]) for row in rows[1:]]))
        assert rows[0]["solver_iterations"] == "0"

        traj.times, traj.states, traj.energy = (
            traj.times[:2], traj.states[:2], traj.energy[:2]
        )
        traj.step_reports = traj.step_reports[:1]
        write_series_csv(path, traj)
        with open(path, newline="") as fh:
            column = [row["identity_residual"] for row in csv.DictReader(fh)]
        assert column == ["nan", "nan"]


class TestKornAudit:
    def test_constant_velocity_ratio_zero(self, grid, flat_metric):
        v = Field(grid, np.stack([np.full(grid.shape, 1.0), np.zeros(grid.shape)]))
        assert korn_audit([(v, flat_metric)]) < 1e-25

    def test_flat_stretch_closed_form(self, grid, flat_metric):
        # v = (0, -z): grad norms and strain integral in closed form
        z = np.broadcast_to(grid.z_nodes[None, :], grid.shape)
        v = Field(grid, np.stack([np.zeros(grid.shape), -z]))
        measured = korn_audit([(v, flat_metric)])
        vol = grid.length_y * grid.depth_H
        grad_sq = vol  # |d_z v2|^2 = 1
        strain_sq = vol  # S22 = -1
        vel_sq = integrate_volume(grid, z**2)
        expected = grad_sq / (strain_sq + vel_sq)
        assert abs(measured - expected) < 1e-6 * expected

    def test_shear_has_positive_finite_ratio(self, grid, flat_metric):
        z = np.broadcast_to(grid.z_nodes[None, :], grid.shape)
        v = Field(grid, np.stack([-z, np.zeros(grid.shape)]))
        measured = korn_audit([(v, flat_metric)])
        assert np.isfinite(measured) and measured > 0.0

    def test_stable_under_refinement(self):
        from wavetank.conormal import evaluate_smooth_field, smooth_field_params

        params = [
            (smooth_field_params(np.random.default_rng(s)),
             smooth_field_params(np.random.default_rng(s + 50)))
            for s in range(8)
        ]
        values = []
        for n in (24, 48):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
            h = SurfaceState(
                g, 0.05 * np.cos(g.y_nodes) + 0.03 * np.sin(2 * g.y_nodes)
            )
            d = build_diffeomorphism(h, A=None, c0=0.25)
            corpus = [
                (
                    Field(g, 0.3 * np.stack([
                        evaluate_smooth_field(g, p1),
                        evaluate_smooth_field(g, p2),
                    ])),
                    d,
                )
                for p1, p2 in params
            ]
            values.append(korn_audit(corpus))
        assert 0.8 <= values[1] / values[0] <= 1.25


class TestSnReconstruction:
    def test_zero_velocity(self, grid, curved_metric):
        v = Field(grid, np.zeros((2, grid.n_y, grid.n_z)))
        assert sn_reconstruction_audit(v, curved_metric) == 0.0

    def test_zero_flow_state(self, wave_grid_small):
        st = zero_state(wave_grid_small)
        assert sn_reconstruction_audit(st.v, st.d) == 0.0

    def test_flat_solenoidal_fd_order(self):
        # continuum-solenoidal analytic samples: the discrete divergence
        # residual (and hence the reconstruction gap) shrinks at FD order
        gaps = []
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            d = flat_diffeo(g)
            prof = np.exp(1.2 * g.z_nodes)[None, :]
            v1 = 1.2 * np.cos(2 * g.y_nodes)[:, None] * prof
            v2 = 2.0 * np.sin(2 * g.y_nodes)[:, None] * prof
            gaps.append(
                sn_reconstruction_audit(Field(g, np.stack([v1, v2])), d)
            )
        assert gaps[1] < gaps[0] / 2.5

    def test_curved_projected_velocity_refinement(self):
        gaps = []
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                          stretch_gamma=2.0)
            h = SurfaceState(g, 0.1 * np.cos(g.y_nodes))
            d = build_diffeomorphism(h, A=1.0, c0=0.5)
            psi = np.cos(2 * g.y_nodes)[:, None] * np.exp(1.2 * g.z_nodes)[None, :]
            raw = np.stack([
                vertical_derivative_values(g, psi),
                -horizontal_derivative_values(g, psi),
            ])
            v = metric_ops(d).project(raw)
            gaps.append(sn_reconstruction_audit(Field(g, v), d))
        assert gaps[1] < gaps[0] / 1.8


class TestLinearWave:
    def test_measured_frequency_of_a_cosine(self):
        # 20 samples a period put every crossing at the same phase of the
        # sampling, so the interpolation errors cancel in the spacings
        omega = 1.3
        t = np.arange(41) * (2.0 * np.pi / omega / 20.0)
        measured = measured_frequency(t, np.cos(omega * t + 0.3))
        assert measured == pytest.approx(omega, rel=1e-12, abs=0.0)
        quarter = t[:6]
        with pytest.raises(HistoryDepthError, match="found 1$"):
            measured_frequency(quarter, np.cos(omega * quarter + 0.3))

    @pytest.mark.parametrize("samples, omega", [
        ([1, 0, -1, 0, 1, 0, -1, 0, 1], np.pi / 2),
        ([2, 1, 0, -1, -2, -1, 0, 1, 2], np.pi / 4),
        # a run of zeros crosses at its first zero; a zero between samples of
        # one sign does not cross
        ([1, 0, 0, -1, 0, -1, 0, 0, 1], np.pi / 5),
    ], ids=["alternating", "through-zero", "runs"])
    def test_exact_zero_samples_cross_once(self, samples, omega):
        # the zeros are the crossings themselves: counting one twice would
        # put a zero spacing into the mean
        measured = measured_frequency(np.arange(9.0), samples)
        assert measured == pytest.approx(omega, rel=1e-12, abs=0.0)

    def test_linear_frequency_on_the_criterion_5_grid(self):
        # the value the tests' own expression gave before it moved here
        g = make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
        omega = linear_frequency(2.0 * np.pi / g.length_y, 1.0, 1.0, g.depth_H)
        assert omega == 1.4142086305348378


class TestSweep:
    def test_validation(self, wave_grid_small):
        mk = lambda eps: zero_state(wave_grid_small, eps)
        with pytest.raises(ConfigurationError):
            epsilon_sweep(mk, [1e-2, 1e-3], 0.1, 0.02)
        with pytest.raises(ConfigurationError):
            epsilon_sweep(mk, [1e-3, 1e-2, 0.0], 0.1, 0.02)
        with pytest.raises(ConfigurationError):
            epsilon_sweep(mk, [1e-2, 1e-3, 1e-4], 0.1, 0.02)

    def test_zero_data_all_differences_zero(self, wave_grid_small):
        result = epsilon_sweep(
            lambda eps: zero_state(wave_grid_small, eps),
            [1e-2, 1e-3, 0.0],
            t_final=0.2,
            dt=0.02,
            output_every=2,
        )
        assert result.complete
        assert all(v == 0.0 for v in result.sup_v_l2.values())
        assert all(v == 0.0 for v in result.sup_h_h1.values())
        assert result.layer_amplitude == {1e-2: 0.0, 1e-3: 0.0}

    def test_layer_profile_zero_for_equal_states(self, wave_grid_small):
        st = zero_state(wave_grid_small)
        zeta, profile = layer_profile(st, st, eps=1e-2)
        assert np.max(np.abs(profile)) == 0.0
        assert zeta[-1] == 0.0
        with pytest.raises(ConfigurationError):
            layer_profile(st, st, eps=0.0)


@pytest.fixture(scope="module")
def wave_grid_small():
    return make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                     stretch_gamma=3.0)
