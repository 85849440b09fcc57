import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, zpbtrf

from wavetank import evolution, grid as grid_module
from wavetank.conormal import FieldHistory
from wavetank.diagnostics import (
    epsilon_sweep,
    layer_profile,
    linear_frequency,
    measured_frequency,
)
from wavetank.elliptic import (
    EllipticOperator,
    capillary_trace,
    decompose_pressure,
    viscous_boundary_trace,
)
from wavetank.errors import ConfigurationError, SolverFailureError, StepSizeError
from wavetank.evolution import (
    EnergyReport,
    FlowState,
    StepReport,
    advance,
    cfl_dt,
    check_compatibility,
    energy_report,
    kinematic_rhs,
    make_flow_state,
    metric_ops,
    run,
)
from wavetank.grid import Field, fourier_basis, l2_norm, make_grid
from wavetank.persist import restore_checkpoint, save_checkpoint, write_series_csv
from wavetank.surface import build_diffeomorphism, surface_from_values

from conftest import random_valid_metric, smooth_vector


def standing_wave_state(g, a=1e-3, k=1, eps=0.0, g_grav=1.0, sigma=1.0):
    return make_flow_state(
        g, a * np.cos(k * g.y_nodes), np.zeros((2, g.n_y, g.n_z)),
        eps=eps, g=g_grav, sigma=sigma,
    )


def dispersion_omega(g):
    return linear_frequency(2.0 * np.pi / g.length_y, 1.0, 1.0, g.depth_H)


@pytest.fixture(scope="module")
def wave_grid():
    return make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                     stretch_gamma=3.0)


class TestEquilibrium:
    def test_zero_state_is_fixed_point(self, wave_grid):
        st = make_flow_state(
            wave_grid,
            np.zeros(wave_grid.n_y),
            np.zeros((2, wave_grid.n_y, wave_grid.n_z)),
            eps=1e-2,
        )
        new, report = advance(st, 0.02)
        assert np.max(np.abs(new.h.h_values)) < 1e-12
        assert np.max(np.abs(new.v.values)) < 1e-12
        assert report.projection_residual < 1e-12

    def test_zero_run_stays_zero(self, wave_grid):
        st = make_flow_state(
            wave_grid,
            np.zeros(wave_grid.n_y),
            np.zeros((2, wave_grid.n_y, wave_grid.n_z)),
        )
        traj = run(st, t_final=0.5, dt=0.025)
        assert traj.failure is None
        assert all(e.total == 0.0 for e in traj.energy)


class TestCompatibility:
    def test_zero_velocity(self, wave_grid):
        st = standing_wave_state(wave_grid)
        report = check_compatibility(st)
        assert report["residual"] < 1e-10
        assert report["ok"]

    def test_shear_with_flat_top_derivative(self, wave_grid):
        g = wave_grid
        profile = np.cos(np.pi * g.z_nodes / (2.0 * g.depth_H))  # u'(0) = 0
        v = np.zeros((2, g.n_y, g.n_z))
        v[0] = np.tile(profile, (g.n_y, 1))
        st = make_flow_state(g, np.zeros(g.n_y), v, project=False)
        report = check_compatibility(st)
        assert report["residual"] < 5e-3  # FD-level zero

    def test_linear_shear_residual_half(self, wave_grid):
        g = wave_grid
        v = np.zeros((2, g.n_y, g.n_z))
        v[0] = np.tile(g.z_nodes, (g.n_y, 1))
        st = make_flow_state(g, np.zeros(g.n_y), v, project=False)
        report = check_compatibility(st)
        assert abs(report["residual"] - 0.5) < 1e-10
        assert not report["ok"]


class TestCfl:
    def test_rest_state_capillary_gravity_limit(self, wave_grid):
        st = standing_wave_state(wave_grid, a=0.0)
        dt = cfl_dt(st, cfl_factor=0.5)
        dy = wave_grid.dy
        expected = 0.5 * min(np.sqrt(dy**3 / 1.0), np.sqrt(dy / 1.0))
        assert abs(dt - expected) < 1e-12

    def test_advection_scaling(self, wave_grid):
        g = wave_grid
        v = np.zeros((2, g.n_y, g.n_z))
        v[0] = 50.0  # strongly advection-dominated
        st = make_flow_state(g, np.zeros(g.n_y), v, sigma=0.0, g=0.0, project=False)
        dt1 = cfl_dt(st)
        v2 = v.copy()
        v2[0] *= 2.0
        st2 = make_flow_state(g, np.zeros(g.n_y), v2, sigma=0.0, g=0.0, project=False)
        dt2 = cfl_dt(st2)
        assert abs(dt1 / dt2 - 2.0) < 1e-9

    def test_no_limit_at_rest_gives_a_hundredth_of_the_span(self, wave_grid):
        # at rest with g = sigma = 0 no limit applies: cfl_dt is inf
        g = wave_grid
        st = make_flow_state(g, np.zeros(g.n_y), np.zeros((2, g.n_y, g.n_z)),
                             g=0.0, sigma=0.0)
        assert cfl_dt(st) == np.inf
        assert evolution.resolve_dt(st, 2.0, None, 0.5) == 0.02
        assert evolution.resolve_dt(st, 2.0, 0.3, 0.5) == 0.3

    def test_factor_above_one_refused(self, wave_grid):
        # advance guards with the limit at factor 1 on the same state
        st = standing_wave_state(wave_grid)
        assert cfl_dt(st, cfl_factor=1.0) > 0
        with pytest.raises(ConfigurationError, match="^cfl_factor must be"):
            cfl_dt(st, cfl_factor=1.2)
        with pytest.raises(ConfigurationError, match="^cfl_factor must be"):
            evolution.resolve_dt(st, 1.0, None, 1.2)

    def test_oversized_step_rejected(self, wave_grid):
        st = standing_wave_state(wave_grid)
        with pytest.raises(StepSizeError):
            advance(st, 10.0)

    def test_run_preserves_trajectory_up_to_failure(self, wave_grid):
        st = standing_wave_state(wave_grid)
        traj = run(st, t_final=1.0, dt=0.9)  # violates the capillary limit
        assert traj.failure is not None
        assert isinstance(traj.failure, StepSizeError)
        assert len(traj.states) == 1  # the initial state is preserved


class TestStandingWave:
    def test_dispersion_within_two_percent(self, wave_grid):
        st = standing_wave_state(wave_grid)
        omega = dispersion_omega(wave_grid)
        period = 2.0 * np.pi / omega
        traj = run(st, t_final=3.0 * period, dt=period / 80.0)
        assert traj.failure is None
        amp = [np.real(np.fft.rfft(s.h.h_values)[1]) for s in traj.states]
        measured = measured_frequency(traj.times, amp)
        assert abs(measured - omega) / omega < 0.02

    def test_viscous_amplitude_decay_matches_linearized_oracle(self):
        # oracle: numerically linearized one-step propagator of the same
        # scheme, restricted to the mode-k subspace
        g = make_grid(16, 28, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                      stretch_gamma=3.0)
        eps, k = 2e-2, 1
        omega = dispersion_omega(g)
        period = 2.0 * np.pi / omega
        dt = period / 40.0

        def step_from(h_pert, v_pert):
            st = make_flow_state(g, h_pert, v_pert, eps=eps, project=False)
            new, _ = advance(st, dt)
            return new

        delta = 1e-6
        nz = g.n_z
        dim = 2 + 4 * nz  # h (cos, sin) and per-level v components
        columns = []
        basis = []
        cy, sy = np.cos(g.y_nodes), np.sin(g.y_nodes)
        basis.append((cy.copy(), np.zeros((2, g.n_y, nz))))
        basis.append((sy.copy(), np.zeros((2, g.n_y, nz))))
        for comp in range(2):
            for trig in (cy, sy):
                for i in range(nz):
                    v = np.zeros((2, g.n_y, nz))
                    v[comp, :, i] = trig
                    basis.append((np.zeros(g.n_y), v))

        def project_coords(state):
            coords = np.zeros(dim)
            hh = np.fft.rfft(state.h.h_values)[k]
            coords[0] = 2.0 * np.real(hh) / g.n_y
            coords[1] = -2.0 * np.imag(hh) / g.n_y
            pos = 2
            for comp in range(2):
                vh = np.fft.rfft(state.v.values[comp], axis=0)[k]
                coords[pos : pos + nz] = 2.0 * np.real(vh) / g.n_y
                pos += nz
                coords[pos : pos + nz] = -2.0 * np.imag(vh) / g.n_y
                pos += nz
            return coords

        M = np.zeros((dim, dim))
        for j, (h_b, v_b) in enumerate(basis):
            new = step_from(delta * h_b, delta * v_b)
            M[:, j] = project_coords(new) / delta
        eigvals = np.linalg.eigvals(M)
        # dominant oscillatory pair = the wave mode; its modulus sets decay
        osc = eigvals[np.abs(np.imag(eigvals)) > 0.1 * dt]
        lam = np.max(np.abs(osc))
        oracle_rate = -np.log(lam) / dt

        st = standing_wave_state(g, eps=eps)
        traj = run(st, t_final=4.0 * period, dt=dt)
        assert traj.failure is None
        ts = np.array(traj.times)
        amp = np.abs(
            np.array([np.fft.rfft(s.h.h_values)[k] for s in traj.states])
        )
        # fit decay of the oscillation envelope through successive extrema
        peaks = [
            i
            for i in range(1, len(amp) - 1)
            if amp[i] >= amp[i - 1] and amp[i] >= amp[i + 1]
        ]
        assert len(peaks) >= 3
        t_pk = ts[peaks]
        a_pk = amp[peaks]
        fit_rate = -np.polyfit(t_pk, np.log(a_pk), 1)[0]
        assert a_pk[-1] < a_pk[0]  # monotone decay of the envelope
        assert abs(fit_rate - oracle_rate) / oracle_rate < 0.2

    def test_stable_over_five_periods_at_cfl(self, wave_grid):
        st = standing_wave_state(wave_grid)
        omega = dispersion_omega(wave_grid)
        period = 2.0 * np.pi / omega
        dt = cfl_dt(st, cfl_factor=0.5)
        traj = run(st, t_final=5.0 * period, dt=dt, output_every=10)
        assert traj.failure is None
        assert max(np.max(np.abs(s.v.values)) for s in traj.states) < 1.0


class TestStepInvariants:
    def test_divergence_and_residuals(self, wave_grid):
        # the kinematic residual is the trapezoid rule for h against the
        # endpoint states; over t <= 0.15 its max is first order in dt
        # (measured 5.6e-9 at dt = 0.03 and 2.8e-9 at dt = 0.015)
        worst = []
        for dt in (0.03, 0.015):
            current = standing_wave_state(wave_grid, a=5e-3, eps=1e-3)
            kin = 0.0
            for _ in range(int(round(0.15 / dt))):
                current, report = advance(current, dt)
                vnorm = l2_norm(wave_grid, current.v.values)
                assert report.projection_residual <= 1e-8 * vnorm + 1e-12
                assert np.isfinite(report.tangential_stress_residual)
                kin = max(kin, report.kinematic_residual)
            worst.append(kin)
        assert worst[0] < 1e-8
        assert 1.8 < worst[0] / worst[1] < 2.2

    def test_trace_kick_matches_fe_pressure_kick(self, grid, rng):
        # the projection removes G psi for every psi vanishing on top, so the
        # FE pressure and its surface trace held constant in z kick alike
        eps, g_grav, sigma, dt = 1e-2, 1.0, 1.0, 0.05
        for _ in range(3):
            d = random_valid_metric(grid, rng)
            v = smooth_vector(grid, rng)
            mops = metric_ops(d)
            q_fe = decompose_pressure(v, d, eps, g_grav, sigma).q_total.values
            q_top = (
                g_grav * d.h.h_values
                + viscous_boundary_trace(v, d, eps)
                + capillary_trace(d.h, sigma)
            )
            q_lift = np.repeat(q_top[:, None], grid.n_z, axis=1)
            fe = mops.project(v.values - dt * mops.gradient(q_fe))
            lift = mops.project(v.values - dt * mops.gradient(q_lift))
            assert np.max(np.abs(fe - lift)) < 1e-10 * np.max(np.abs(fe))

    def test_step_runs_no_elliptic_solve(self, wave_grid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("advance built an FE elliptic operator")

        monkeypatch.setattr("wavetank.elliptic.EllipticOperator.__init__", refuse)
        for eps in (0.0, 1e-3):
            new, _ = advance(standing_wave_state(wave_grid, a=5e-3, eps=eps), 0.03)
            assert np.all(np.isfinite(new.v.values))

    def test_step_lifts_the_surface_velocity_once(self, wave_grid, monkeypatch):
        # the CFL guard and the advection read one lift of dt h, eta_t
        calls = []
        lift = evolution.cutoff_lift

        def counted(*args):
            calls.append(None)
            return lift(*args)

        monkeypatch.setattr(evolution, "cutoff_lift", counted)
        for eps in (0.0, 1e-3):
            calls.clear()
            advance(standing_wave_state(wave_grid, a=5e-3, eps=eps), 0.03)
            assert len(calls) == 1

    def test_mass_conservation(self, wave_grid):
        a = 5e-3
        st = standing_wave_state(wave_grid, a=a)
        traj = run(st, t_final=1.5, dt=0.03)
        assert traj.failure is None
        means = np.array([np.mean(s.h.h_values) for s in traj.states])
        drift = np.max(np.abs(means - means[0]))
        # the discrete surface flux of the projected field is not an exact
        # perfect derivative; the drift floor is spatial and quadratic in
        # the wave amplitude, far below the wave scale
        assert drift < 1e-4 * a

    def test_time_reversal_symmetry(self, wave_grid):
        # (v, h) -> (-v, h) conjugates forward and backward steps at eps=0
        st = standing_wave_state(wave_grid, a=2e-3)
        dt = 0.03
        fwd, _ = advance(st, dt)
        flipped = FlowState(
            t=0.0, v=Field(wave_grid, -fwd.v.values), h=fwd.h,
            eps=0.0, g=st.g, sigma=st.sigma, A=st.A, c0=st.c0,
        )
        back, _ = advance(flipped, dt)
        h_gap = np.max(np.abs(back.h.h_values - st.h.h_values))
        v_gap = np.max(np.abs(back.v.values + st.v.values))
        scale_h = np.max(np.abs(st.h.h_values))
        # one-step defect of an adjoint-reversible scheme is O(dt^2) per field
        assert h_gap < 20.0 * dt**2 * scale_h
        assert v_gap < 20.0 * dt**2 * max(np.max(np.abs(fwd.v.values)), scale_h)

    def test_metric_rebuild_marks_new_state(self, wave_grid):
        st = standing_wave_state(wave_grid, a=2e-3)
        new, _ = advance(st, 0.02)
        assert new.d is not st.d
        assert new.t == pytest.approx(0.02)
        assert new.d.c0_observed >= st.c0


def _rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _pinned(M, fixed):
    """keep M keep + identity on the fixed rows (symmetric elimination)."""
    keep = np.ones(M.shape[0])
    keep[fixed] = 0.0
    return sp.diags(keep) @ M @ sp.diags(keep) + sp.diags(1.0 - keep)


class TestMatrixFreeOperators:
    """Dual route: every matrix-free metric operator against the sparse
    matrix assembled from the fixed grid matrices and the metric vectors."""

    @pytest.fixture
    def assembled(self, grid, curved_metric):
        mops = metric_ops(curved_metric)
        ops = mops.ops
        c = curved_metric.dzphi.values.ravel()
        b = curved_metric.grad_y_phi.values.ravel()
        inv_c = sp.diags(1.0 / c)
        Wc = sp.diags(c * ops.weights)
        G1 = inv_c @ (sp.diags(c) @ ops.dy_c - sp.diags(b) @ ops.dz_sbp)
        G2 = inv_c @ ops.dz_sbp
        D1 = inv_c @ (ops.dy_c @ sp.diags(c) - ops.dz_sbp @ sp.diags(b))
        A1 = ops.dy_c - sp.diags(b / c) @ ops.dz_3pt
        A2 = inv_c @ ops.dz_3pt
        n = grid.n_y * grid.n_z
        Z = sp.csr_matrix((n, n))
        S11 = sp.hstack([A1, Z])
        S22 = sp.hstack([Z, A2])
        S12 = 0.5 * sp.hstack([A2, A1])
        K = S11.T @ Wc @ S11 + S22.T @ Wc @ S22 + 2.0 * (S12.T @ Wc @ S12)
        # node j * n_z + i is row i of column j: the surface is i = n_z - 1
        node = np.arange(n).reshape(grid.shape)
        return dict(
            mops=mops, ops=ops, Wc=Wc, G1=G1, G2=G2, D1=D1,
            S=(S11, S12, S22), K=K, n=n, top=node[:, -1], bottom=node[:, 0],
            interior=node[:, 1:-1].ravel(),
        )

    def test_gradient_and_gram(self, grid, assembled, rng):
        mops, ops = assembled["mops"], assembled["ops"]
        G1, G2, Wc = assembled["G1"], assembled["G2"], assembled["Wc"]
        q = rng.standard_normal(assembled["n"])
        grad = mops.gradient(q.reshape(grid.shape))
        assert _rel_gap(grad[0].ravel(), G1 @ q) < 1e-12
        assert _rel_gap(grad[1].ravel(), G2 @ q) < 1e-12
        P = _pinned(G1.T @ Wc @ G1 + G2.T @ Wc @ G2, assembled["top"])
        assert _rel_gap(mops.gram(q), P @ q) < 1e-12

    def test_viscous_operator(self, assembled, rng):
        mops, ops = assembled["mops"], assembled["ops"]
        eps, dt = 1e-2, 0.05
        n, bottom = assembled["n"], assembled["bottom"]
        mass = sp.diags(np.tile(mops.c * ops.weights, 2))
        M = _pinned(mass + 2.0 * eps * dt * assembled["K"],
                    np.concatenate([bottom, bottom + n]))
        u = rng.standard_normal(2 * n)
        assert _rel_gap(mops.viscous_operator(u, eps, dt), M @ u) < 1e-12

    def test_divergence_and_dissipation(self, grid, assembled, rng):
        mops, ops = assembled["mops"], assembled["ops"]
        v = rng.standard_normal((2,) + grid.shape)
        v1, v2 = v[0].ravel(), v[1].ravel()
        div = assembled["D1"] @ v1 + assembled["G2"] @ v2
        interior = assembled["interior"]
        ref = np.sqrt(np.sum(ops.weights[interior] * div[interior] ** 2))
        assert abs(mops.divergence_residual(v) - ref) < 1e-12 * ref
        u = np.concatenate([v1, v2])
        w = mops.c * ops.weights
        S11, S12, S22 = assembled["S"]
        ref = 4.0 * 1e-2 * np.sum(
            w * ((S11 @ u) ** 2 + (S22 @ u) ** 2 + 2.0 * (S12 @ u) ** 2)
        )
        assert abs(mops.strain_dissipation(v, 1e-2) - ref) < 1e-12 * ref


def _solve_iterations(grid, d, rng):
    mops = metric_ops(d)
    v = rng.standard_normal((2,) + grid.shape)
    _, it_proj = mops.project(v, return_iterations=True)
    _, it_visc = mops.viscous_solve(v, 1e-2, 0.05)
    return it_proj, it_visc


def _flat_viscous_bands(grid, A, tau, coupling):
    """Upper band storage (B0, B1, B2) of the flat viscous operator's z
    block B0 + s B1 + s^2 B2 at the dy_c factor s, cut from its dense
    (2 n_z)^2 blocks with (u_j, w_j) interleaved and the bottom rows
    pinned; B1's u-w block is coupling * tau / 2 D3^T W, its w-u block the
    conjugate transpose."""
    nz = grid.n_z
    W = A * grid.dy * grid.quadrature_weights_z
    D3 = grid.vertical_derivative_matrix() / A
    L3 = D3.T @ (W[:, None] * D3)
    DW = D3.T * W[None, :]
    dtype = np.result_type(coupling, float)

    def interleave(uu, uw, ww):
        M = np.zeros((2 * nz, 2 * nz), dtype=dtype)
        M[0::2, 0::2] = uu
        M[0::2, 1::2] = uw
        M[1::2, 0::2] = np.conj(uw).T
        M[1::2, 1::2] = ww
        M[:2, :] = 0.0
        M[:, :2] = 0.0
        return M

    M0 = interleave(np.diag(W) + 0.5 * tau * L3, 0.0, np.diag(W) + tau * L3)
    M0[0, 0] = M0[1, 1] = 1.0
    M1 = interleave(0.0, coupling * (0.5 * tau * DW), 0.0)
    M2 = interleave(tau * np.diag(W), 0.0, 0.5 * tau * np.diag(W))
    rows, cols = np.nonzero(M0 + M1 + M2)
    kd = int(np.max(np.abs(rows - cols)))

    def band(M):
        ab = np.zeros((kd + 1, 2 * nz), dtype=dtype)
        for off in range(kd + 1):
            ab[kd - off, off:] = np.diagonal(M, off)
        return ab

    return band(M0), band(M1), band(M2)


def _per_mode_flat_viscous(grid, A, tau):
    """Upper band storage, one complex array per rfft mode k, where dy_c
    is i sigma_k."""
    sigma = np.sin(2.0 * np.pi * np.arange(grid.n_y // 2 + 1) / grid.n_y) / grid.dy
    sigma[-1] = 0.0
    B0, B1, B2 = _flat_viscous_bands(grid, A, tau, 1j)
    return [B0 + s * B1 + s2 * B2 for s, s2 in zip(sigma, sigma ** 2)]


def _partner_columns(n_y):
    """The basis column of the same wavenumber: cos ky <-> sin ky; the
    constant and Nyquist columns are their own partners."""
    partner = np.arange(n_y)
    for i in range(1, n_y - 1):
        partner[i] = i + 1 if i % 2 else i - 1
    return partner


def _per_column_flat_viscous(grid, A, tau):
    """Upper band storage, one real array per column i of the real Fourier
    basis, with u on column i and w on its partner: dy_c maps cos ky to
    -sigma sin ky and sin ky to sigma cos ky, so the block is
    B0 + s_i sigma_i B1 + sigma_i^2 B2, s_i = +1 on cos columns."""
    sigma = evolution.SolverOps(grid).sigma
    signed = np.where(np.arange(grid.n_y) % 2, sigma, -sigma)
    B0, B1, B2 = _flat_viscous_bands(grid, A, tau, 1.0)
    return [B0 + s * B1 + s2 * B2 for s, s2 in zip(signed, sigma ** 2)]


def _kron_derivative_matrices(grid):
    """The five stepper matrices built the long way: Kronecker products of
    the 1-D operators, in CSR."""
    ny, nz = grid.n_y, grid.n_z
    Dy1 = np.diag(np.ones(ny - 1), 1) - np.diag(np.ones(ny - 1), -1)
    Dy1[0, -1], Dy1[-1, 0] = -1.0, 1.0
    eye_y, eye_z = sp.identity(ny), sp.identity(nz)
    dz_sbp = sp.kron(eye_y, sp.csr_matrix(grid.sbp_derivative_matrix()), format="csr")
    dz_3pt = sp.kron(eye_y, sp.csr_matrix(grid.vertical_derivative_matrix()),
                     format="csr")
    return {
        "dy_c": sp.kron(sp.csr_matrix(Dy1) / (2.0 * grid.dy), eye_z, format="csr"),
        "dz_sbp": dz_sbp,
        "dz_3pt": dz_3pt,
        "dz_sbp_t": dz_sbp.T.tocsr(),
        "dz_3pt_t": dz_3pt.T.tocsr(),
    }


class TestDiagonalStorage:
    """The stepper's derivative matrices are stored by diagonal and built
    from their stencils; they must equal the Kronecker-product matrices
    entry for entry, and their matvecs must be bit-identical to CSR's."""

    @pytest.mark.parametrize("dims", [(8, 8, "uniform"), (10, 11, "uniform"),
                                      (16, 24, "tanh"), (48, 64, "tanh")])
    def test_matches_the_kronecker_route(self, dims, rng):
        n_y, n_z, clustering = dims
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi, clustering=clustering)
        ops = evolution.SolverOps(g)
        vectors = rng.standard_normal((4, n_y * n_z))
        for name, ref in _kron_derivative_matrices(g).items():
            M = getattr(ops, name)
            # adding or subtracting DIA matrices quietly returns CSR
            assert M.format == "dia", name
            assert np.array_equal(M.toarray(), ref.toarray()), name
            for x in vectors:
                assert np.array_equal(M @ x, ref @ x), name


class TestStackedViscousFactor:
    """The flat viscous factor is one band matrix holding every column of
    the real Fourier basis; it must reproduce a factorization and solve per
    column bit for bit, and invert the flat viscous operator."""

    @pytest.mark.parametrize("dims", [(16, 24, "uniform", 0.0),
                                      (32, 72, "tanh", 3.5)])
    @pytest.mark.parametrize("A, tau", [(1.0, 1e-4), (1.3, 0.7)])
    def test_solve_matches_the_per_mode_route(self, dims, A, tau, rng):
        n_y, n_z, clustering, gamma = dims
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi,
                      clustering=clustering, stretch_gamma=gamma)
        r = rng.standard_normal(2 * n_y * n_z)
        C, partner = fourier_basis(g), _partner_columns(n_y)
        coefficients = C.T @ r.reshape(2, n_y, n_z)
        x = np.empty((n_y, 2 * n_z))
        x[:, 0::2] = coefficients[0]
        x[:, 1::2] = coefficients[1, partner]
        for i, ab in enumerate(_per_column_flat_viscous(g, A, tau)):
            factor, info = dpbtrf(ab, lower=0)
            assert info == 0
            x[i] = dpbtrs(factor, x[i], lower=0)[0]
        ref = C @ np.stack([x[:, 0::2], x[partner, 1::2]])
        out = evolution.SolverOps(g).flat_viscous_solve(r, A, tau)
        assert np.array_equal(out, ref.ravel())

    @pytest.mark.parametrize("n_y, n_z", [(16, 24), (32, 72)])
    @pytest.mark.parametrize("A, tau", [(1.0, 1e-4), (1.3, 0.7)])
    def test_inverts_the_flat_viscous_operator(self, n_y, n_z, A, tau, rng):
        # the gap is measured against |M| |x|, the size of the terms that
        # cancel in M x; on the flat strip the strain pair is
        # (dy_c, dz_3pt / A) and W_c = A W
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi)
        d = build_diffeomorphism(surface_from_values(g, np.zeros(n_y)), A=A, c0=0.5)
        mops = metric_ops(d)
        ops = mops.ops
        r = rng.standard_normal(2 * n_y * n_z)
        x = ops.flat_viscous_solve(r, A, tau)
        gap = mops.viscous_operator(x, 0.5 * tau, 1.0) - r
        gap[ops.bottom] = 0.0
        ax = np.abs(x)
        ax[ops.bottom] = 0.0
        dy, dz, wc = abs(ops.dy_c), abs(ops.dz_3pt) / A, A * ops.weights
        u1, u2 = ax.reshape(2, -1)
        y11, y22 = wc * (dy @ u1), wc * (dz @ u2)
        y12 = 0.5 * wc * (dz @ u1 + dy @ u2)
        strain = np.concatenate([dy.T @ y11 + dz.T @ y12, dz.T @ y22 + dy.T @ y12])
        scale = np.concatenate([wc, wc]) * ax + tau * strain
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(scale)

    def test_failure_names_the_failing_mode(self):
        # a short, shallow period: sigma_k^2 tau W turns the u block
        # indefinite from some mode k > 0 on while mode 0 stays definite
        g = make_grid(64, 8, 1.0, 2.0 * np.pi, clustering="uniform",
                      stretch_gamma=0.0)
        tau = -1e-2
        first = next(k for k, ab in enumerate(_per_mode_flat_viscous(g, 1.0, tau))
                     if zpbtrf(ab, lower=0)[1] != 0)
        assert first > 0
        with pytest.raises(SolverFailureError, match=f"at mode {first} "):
            evolution.SolverOps(g).flat_viscous_solve(
                np.ones(2 * g.n_y * g.n_z), 1.0, tau
            )


class TestPreconditionedSolves:
    def test_flat_metric_is_solved_exactly(self, grid, rng):
        # the flat-metric factors are the exact inverses there, so one
        # iteration meets the tolerance; an inexact factor (say, a band too
        # narrow for the u-w coupling of the modes k >= 1) needs many more
        h = surface_from_values(grid, np.zeros(grid.n_y))
        for A in (1.0, 1.7):
            d = build_diffeomorphism(h, A=A, c0=0.5)
            assert max(_solve_iterations(grid, d, rng)) <= 2

    def test_failed_band_factorization_is_a_solver_failure(self, grid, rng):
        ops = metric_ops(random_valid_metric(grid, rng)).ops
        r = rng.standard_normal(2 * grid.n_y * grid.n_z)
        with pytest.raises(SolverFailureError):
            ops.flat_viscous_solve(r, 1.0, -1e3)  # W - 1e3 K is indefinite

    @pytest.mark.parametrize("n_y,n_z", [(16, 24), (32, 48), (48, 64)])
    def test_iterations_bounded_on_a_curved_surface(self, n_y, n_z, rng):
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi)
        y = g.y_nodes
        h = surface_from_values(g, 0.2 * np.cos(y) + 0.06 * np.sin(3.0 * y))
        d = build_diffeomorphism(h, A=None, c0=0.25)
        assert max(_solve_iterations(g, d, rng)) <= 20

    # n_y = 10 and 18 split into chains of odd length
    @pytest.mark.parametrize("n_y, n_z", [(16, 24), (48, 64), (10, 11), (18, 24)])
    @pytest.mark.parametrize("A", [1.0, 1.7])
    def test_flat_gram_solve_inverts_the_flat_gram(self, n_y, n_z, A, rng):
        # the gap is measured against |G| |x|, the size of the terms that
        # cancel in G x; on the flat strip G = Dz^T (w / A) Dz + Dy^T (w A) Dy
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi)
        d = build_diffeomorphism(surface_from_values(g, np.zeros(n_y)), A=A, c0=0.5)
        mops = metric_ops(d)
        ops = mops.ops
        r = rng.standard_normal(n_y * n_z)
        x = ops.flat_gram_solve(r, A)
        gap = mops.gram(x) - r
        gap[ops.top] = 0.0
        ax = np.abs(x)
        ax[ops.top] = 0.0
        dz, dy = abs(ops.dz_sbp), abs(ops.dy_c)
        scale = (dz.T @ (ops.weights / A * (dz @ ax))
                 + dy.T @ (ops.weights * A * (dy @ ax)))
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(scale)

    def test_flat_gram_spectra_follow_A(self, grid, rng):
        # the stored denominators are rebuilt when A changes and back
        ops = evolution.SolverOps(grid)
        r = rng.standard_normal(grid.n_y * grid.n_z)
        for A in (1.0, 1.7, 1.0):
            fresh = evolution.SolverOps(grid).flat_gram_solve(r, A)
            assert np.array_equal(ops.flat_gram_solve(r, A), fresh)


class TestChainGramInverse:
    """dy_c^T dy_c never couples even and odd y-nodes, so the flat Gram
    inverse runs on two chains of n_y / 2 nodes; it must agree with the
    inverse through the full grid's real Fourier basis, where column i
    carries dy_c^T dy_c's symbol sigma_i^2."""

    @pytest.mark.parametrize("n_y", [8, 10, 16, 18, 48])
    @pytest.mark.parametrize("A", [1.0, 1.7])
    def test_matches_the_full_basis_route(self, n_y, A, rng):
        g = make_grid(n_y, 24, 2.0 * np.pi, 2.0 * np.pi)
        ops = evolution.SolverOps(g)
        C, V, m = fourier_basis(g), ops._gram_vectors, g.n_z - 1
        inverse = 1.0 / (g.dy * (A * ops.sigma[:, None] ** 2
                                 + ops._gram_values[None, :] / A))
        r = rng.standard_normal(g.shape)
        ref = r.copy()
        ref[:, :m] = C @ ((C.T @ r[:, :m] @ V) * inverse) @ V.T
        out = ops.flat_gram_solve(r.ravel(), A).reshape(g.shape)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(out[:, m:], r[:, m:])


def test_euler_steps_never_build_the_strain_pair(monkeypatch):
    # only the viscous strain applies dz_3pt and its transpose
    monkeypatch.setattr(evolution, "_OPS_CACHE", {})
    g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
    state = standing_wave_state(g, a=1e-2, eps=0.0)
    dt = cfl_dt(state)
    for _ in range(3):
        state, _ = advance(state, dt)
    ops = evolution.solver_ops(g)
    assert "dz_3pt" not in vars(ops) and "dz_3pt_t" not in vars(ops)
    metric_ops(state.d).viscous_operator(np.zeros(2 * g.n_y * g.n_z), 0.1, 1.0)
    assert "dz_3pt" in vars(ops) and "dz_3pt_t" in vars(ops)


class TestSolveWork:
    """A solve that reports k iterations applies its operator and its
    preconditioner k times each, plus one operator application for the
    viscous solve's nonzero first guess."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for owner, attr in ((evolution.MetricOps, "gram"),
                            (evolution.SolverOps, "flat_gram_solve"),
                            (evolution.MetricOps, "viscous_operator"),
                            (evolution.SolverOps, "flat_viscous_solve")):
            counts[attr] = 0

            def counted(self, *args, _inner=getattr(owner, attr), _attr=attr):
                counts[_attr] += 1
                return _inner(self, *args)

            monkeypatch.setattr(owner, attr, counted)
        return counts

    def test_projection(self, grid, curved_metric, rng, calls):
        v = rng.standard_normal((2,) + grid.shape)
        _, k = metric_ops(curved_metric).project(v, return_iterations=True)
        assert k > 0
        assert calls["gram"] == calls["flat_gram_solve"] == k
        assert calls["viscous_operator"] == calls["flat_viscous_solve"] == 0

    def test_viscous_solve(self, grid, curved_metric, rng, calls):
        v = rng.standard_normal((2,) + grid.shape)
        _, k = metric_ops(curved_metric).viscous_solve(v, 1e-2, 0.05)
        assert k > 0
        assert (calls["viscous_operator"], calls["flat_viscous_solve"]) == (k + 1, k)

    def test_zero_data_returns_at_once(self, grid, curved_metric, calls):
        mops = metric_ops(curved_metric)
        zero = np.zeros((2,) + grid.shape)
        assert mops.project(zero, return_iterations=True)[1] == 0
        assert mops.viscous_solve(zero, 1e-2, 0.05)[1] == 0
        # the viscous solve's first guess costs its one operator application
        assert calls == {"gram": 0, "flat_gram_solve": 0,
                         "viscous_operator": 1, "flat_viscous_solve": 0}

    def test_euler_step_transforms(self, monkeypatch):
        # every transform in y is a product with the real Fourier basis:
        # once the first step has built it, neither an Euler step nor a
        # viscous one (whose second step runs the flat viscous inverse)
        # calls the FFT
        monkeypatch.setattr(grid_module, "_VERTICAL_CACHE", {})
        counts = {"rfft": 0, "irfft": 0}
        for name in counts:
            def counted(*args, _inner=getattr(np.fft, name), _name=name, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        for eps in (0.0, 1e-3):
            state = standing_wave_state(g, a=1e-2, eps=eps)
            dt = cfl_dt(state)
            state, _ = advance(state, dt)
            counts.update(rfft=0, irfft=0)
            _, report = advance(state, dt)
            assert report.viscous_iterations > 0 or eps == 0.0
            assert counts == {"rfft": 0, "irfft": 0}, (eps, counts)


class TestEnergyReport:
    def test_components_nonnegative(self, wave_grid):
        st = standing_wave_state(wave_grid, a=5e-3, eps=1e-2)
        traj = run(st, t_final=0.6, dt=0.03)
        for e in traj.energy:
            assert e.kinetic >= 0.0
            assert e.gravitational >= 0.0
            assert e.capillary >= 0.0
            assert e.dissipation_rate >= 0.0

    def test_initial_energy_matches_linear_theory(self, wave_grid):
        a = 1e-3
        st = standing_wave_state(wave_grid, a=a)
        e = energy_report(st)
        # g int h^2 = g a^2 pi; capillary ~ sigma int h_y^2 = sigma a^2 k^2 pi
        assert abs(e.gravitational - np.pi * a**2) < 1e-3 * np.pi * a**2
        assert abs(e.capillary - np.pi * a**2) < 1e-3 * np.pi * a**2
        assert e.kinetic == 0.0


class TestStoredOutputs:
    def test_run_keeps_no_solver_operators_alive(self, monkeypatch):
        # a stored state holds its fields; the solver operators built for
        # it at each step and output must be free once they are used
        built = []

        def recording_metric_ops(d):
            mops = metric_ops(d)
            built.append(weakref.ref(mops))
            return mops

        monkeypatch.setattr(evolution, "metric_ops", recording_metric_ops)
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        st = standing_wave_state(g, a=1e-2, eps=1e-3)
        traj = run(st, t_final=0.6, dt=0.03)
        assert traj.failure is None and len(traj.states) == 21
        gc.collect()
        alive = sum(ref() is not None for ref in built)
        assert built and alive == 0, f"{alive} of {len(built)} MetricOps alive"


class TestStoredMetric:
    """A stored or restored state keeps (t, h, v) and its parameters; its
    metric and its surface-velocity lift are rebuilt, bit for bit, when
    something asks for them."""

    def test_stored_and_restored_states_hold_no_metric(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        st = standing_wave_state(g, a=1e-2, eps=1e-3)
        traj = run(st, t_final=0.3, dt=0.03)
        assert traj.failure is None
        write_series_csv(tmp_path / "series.csv", traj)
        restored = []
        for k, state in enumerate(traj.states):
            save_checkpoint(tmp_path / f"{k}.wtk", state)
            restored.append(restore_checkpoint(tmp_path / f"{k}.wtk"))
        sweep = epsilon_sweep(lambda eps: standing_wave_state(g, a=1e-2, eps=eps),
                              [1e-2, 1e-3, 0.0], t_final=0.12, dt=0.03,
                              output_every=1)
        assert sweep.complete and sweep.conormal_max
        members = [s for t in sweep.trajectories.values() for s in t.states]
        for name, states in (("stored", traj.states), ("restored", restored),
                             ("sweep", members)):
            for attr in ("d", "eta_t", "w"):
                held = sum(attr in vars(s) for s in states)
                assert held == 0, f"{held} of {len(states)} {name} states hold {attr}"
            for s in states:
                assert set(vars(s.h)) == {"grid", "h_values"}, name

    def test_metric_builds_per_run(self, monkeypatch, tmp_path):
        # fresh: one build for the starting state, two per step; resumed:
        # restore's validation build, then the restored state's own
        calls = []
        build = evolution.build_diffeomorphism

        def counted(*args, **kwargs):
            calls.append(None)
            return build(*args, **kwargs)

        monkeypatch.setattr(evolution, "build_diffeomorphism", counted)
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        st = standing_wave_state(g, a=1e-2, eps=1e-3)
        fresh = run(st, t_final=0.18, dt=0.03)
        steps = len(fresh.step_reports)
        assert fresh.failure is None and steps == 6
        assert len(calls) == 2 * steps + 1
        save_checkpoint(tmp_path / "mid.wtk", fresh.states[-1])
        calls.clear()
        resumed = run(restore_checkpoint(tmp_path / "mid.wtk"), t_final=0.36,
                      dt=0.03)
        steps = len(resumed.step_reports)
        assert resumed.failure is None and steps > 0
        assert len(calls) == 2 * steps + 2

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_two_steps_reuse_the_surface_rate(self, monkeypatch, eps):
        # w = dt h of each state is computed once and serves the CFL guard,
        # the predictor and the residual, and the next step reuses the new
        # state's; the kick takes no gradient, as q is constant in z
        calls = {"kinematic_rhs": 0, "gradient": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        st = standing_wave_state(make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi),
                                 a=1e-2, eps=eps)
        counted(evolution, "kinematic_rhs")
        counted(evolution.MetricOps, "gradient")
        advance(advance(st, 0.03)[0], 0.03)
        assert calls == {"kinematic_rhs": 5, "gradient": 4}

    def test_memory_per_stored_output_is_the_state(self):
        # beyond v and h, one output keeps about 1.2 KB of objects (array
        # headers, the state, surface, field and report objects and their
        # floats); a kept metric would add 2 n_y n_z floats
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        st = standing_wave_state(g, a=1e-2, eps=1e-3)
        run(st, t_final=0.09, dt=0.03)  # fills the solver caches
        gc.collect()
        tracemalloc.start()
        try:
            traj = run(standing_wave_state(g, a=1e-2, eps=1e-3), t_final=0.6,
                       dt=0.03)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            n = len(traj.states)
            last = traj.states[-1]
            data = last.v.values.nbytes + last.h.h_values.nbytes
            del traj, last
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n == 21
        assert held / n <= data + 2048, f"{held / n:.0f} B per output"

    def test_restored_metric_is_bit_identical(self, tmp_path):
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        state, _ = advance(standing_wave_state(g, a=1e-2, eps=1e-3), 0.03)
        assert "d" in vars(state)  # the metric the step built
        save_checkpoint(tmp_path / "s.wtk", state)
        back = restore_checkpoint(tmp_path / "s.wtk")
        assert back.d.A == state.d.A
        for name in ("dzphi", "grad_y_phi"):
            saved = getattr(state.d, name).values
            assert np.array_equal(getattr(back.d, name).values, saved), name


def _flat(g):
    return surface_from_values(g, np.zeros(g.n_y))


# one argument per case, NaN or inf, each passed where it is checked
_NON_FINITE_CASES = {
    "c0": lambda g: build_diffeomorphism(_flat(g), A=1.0, c0=np.nan),
    "extension slope A": lambda g: build_diffeomorphism(_flat(g), np.nan, 0.25),
    "tolerance": lambda g: EllipticOperator(
        build_diffeomorphism(_flat(g), A=1.0, c0=0.25)
    ).solve(np.zeros(g.n_y), np.nan),
    "length_y": lambda g: make_grid(16, 16, np.nan, 1.0),
    "depth_H": lambda g: make_grid(16, 16, 1.0, np.inf),
    "stretch_gamma": lambda g: make_grid(16, 16, 1.0, 1.0, stretch_gamma=np.nan),
    "dt": lambda g: advance(standing_wave_state(g), np.nan),
    "history dt": lambda g: FieldHistory(g, [np.zeros(g.shape)], dt=np.nan),
    "cfl_factor": lambda g: cfl_dt(standing_wave_state(g), cfl_factor=np.nan),
}


# NaN fails an eps > 0 test without a word, and inf passes it
_NON_FINITE_EPS = {
    "decompose_pressure": lambda st, eps: decompose_pressure(st.v, st.d, eps, 1.0, 1.0),
    "layer_profile": lambda st, eps: layer_profile(st, st, eps),
}


class TestValidation:
    def test_negative_parameters_rejected(self, wave_grid):
        with pytest.raises(ConfigurationError):
            make_flow_state(
                wave_grid,
                np.zeros(wave_grid.n_y),
                np.zeros((2, wave_grid.n_y, wave_grid.n_z)),
                eps=-1.0,
            )

    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name in ("t", "eps", "g", "sigma", "A", "c0")
        for value in (np.nan, np.inf, -np.inf)
    ] + [("A", 0.0), ("A", -1.0), ("c0", 0.0), ("c0", -0.25)])
    def test_bad_parameters_rejected(self, wave_grid, name, value):
        st = standing_wave_state(wave_grid)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(st, **{name: value})

    def test_bad_velocity_shape(self, wave_grid):
        with pytest.raises(ConfigurationError):
            make_flow_state(
                wave_grid, np.zeros(wave_grid.n_y),
                np.zeros((3, wave_grid.n_y, wave_grid.n_z)),
            )

    def test_kinematic_rhs_uses_metric_slope(self, wave_grid, rng):
        st = standing_wave_state(wave_grid, a=0.05)
        v = rng.standard_normal((2, wave_grid.n_y, wave_grid.n_z))
        w = kinematic_rhs(v, st.d)
        b_top = st.d.grad_y_phi.values[:, -1]
        expected = v[1, :, -1] - b_top * v[0, :, -1]
        assert np.allclose(w, expected)

    @pytest.mark.parametrize("t_final, dt", [
        (0.2, -0.1), (0.2, 0.0), (0.2, np.nan), (0.2, np.inf),
        (-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
    ])
    def test_run_rejects_bad_times(self, wave_grid, t_final, dt):
        st = standing_wave_state(wave_grid)
        with pytest.raises(ConfigurationError):
            run(st, t_final=t_final, dt=dt)

    @pytest.mark.parametrize("t_final", [0.5, 0.3])
    def test_run_rejects_end_not_after_start(self, wave_grid, t_final):
        # both t_final and dt are finite and > 0: only the start time refuses
        st = dataclasses.replace(standing_wave_state(wave_grid), t=0.5)
        with pytest.raises(ConfigurationError, match="^t_final must exceed"):
            run(st, t_final=t_final, dt=0.1)

    def test_run_takes_only_an_integer_output_cadence(self, wave_grid):
        # 0 divided by zero, -1 recorded every step, 2.5 recorded wrong steps
        st = standing_wave_state(wave_grid)
        for bad in (0, -1, 2.5):
            with pytest.raises(ConfigurationError,
                               match=f"^output_every must be an integer >= 1, got {bad}$"):
                run(st, t_final=0.2, dt=0.05, output_every=bad)
        traj = run(st, t_final=0.15, dt=0.05, output_every=np.int64(2))
        assert traj.failure is None
        assert np.allclose(traj.times, [0.0, 0.1, 0.15])

    def test_sweep_rejects_a_bad_output_cadence(self, wave_grid):
        with pytest.raises(ConfigurationError, match="^output_every must be an integer"):
            epsilon_sweep(lambda eps: standing_wave_state(wave_grid, eps=eps),
                          [1e-2, 1e-3, 0.0], t_final=0.2, dt=0.05, output_every=0)

    @pytest.mark.parametrize("key", _NON_FINITE_CASES)
    def test_non_finite_argument_named(self, wave_grid, key):
        # NaN fails every x <= 0 test, so each guard asks for finite and > 0
        with pytest.raises(ConfigurationError, match=f"^{key} must be finite and > 0"):
            _NON_FINITE_CASES[key](wave_grid)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    @pytest.mark.parametrize("call", _NON_FINITE_EPS)
    def test_non_finite_viscosity_named(self, wave_grid, call, eps):
        st = standing_wave_state(wave_grid)
        with pytest.raises(ConfigurationError, match="^eps must be finite"):
            _NON_FINITE_EPS[call](st, eps)


@pytest.mark.parametrize("bad, message", [
    (lambda: StepReport(dt=0.1, projection_residual=0.0, kinematic_residual=np.nan,
                        tangential_stress_residual=0.0, viscous_iterations=0,
                        projection_iterations=1, reprojection_iterations=1),
     "^step report contains non-finite residuals"),
    (lambda: EnergyReport(t=0.0, kinetic=1.0, gravitational=-1e-3, capillary=0.0,
                          dissipation_rate=0.0),
     "^energy components must be finite and >= 0"),
], ids=["step-report", "energy-report"])
def test_reports_reject_impossible_values(bad, message):
    with pytest.raises(ConfigurationError, match=message):
        bad()
