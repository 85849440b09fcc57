import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank import grid as grid_module
from wavetank.errors import ConfigurationError, MetricValidityError
from wavetank.grid import fourier_basis, make_grid, vertical_derivative_values
from wavetank.surface import (
    CutoffSpec,
    SurfaceState,
    build_diffeomorphism,
    cutoff_lift,
    extension_gain_audit,
    grad_eta_sobolev_norm,
    random_surface,
)


class TestCutoff:
    def test_plateau_and_support(self):
        r = np.array([-2.5, -2.0, -1.0, -0.3, 0.0, 0.7, 1.0, 1.4, 2.0, 3.0])
        chi = CutoffSpec.evaluate(r)
        assert np.all(chi[np.abs(r) <= 1.0] == 1.0)
        assert np.all(chi[np.abs(r) >= 2.0] == 0.0)
        assert np.all((chi >= 0.0) & (chi <= 1.0))

    def test_derivatives_match_sympy(self):
        s = sympy.Symbol("s")
        chi_expr = 1 / (1 + sympy.exp(1 / (1 - s) - 1 / s))
        points = np.array([0.15, 0.4, 0.62, 0.85])
        for order in (1, 2, 3):
            d_expr = sympy.diff(chi_expr, s, order)
            oracle = np.array(
                [float(d_expr.subs(s, p)) for p in points]
            )
            ours = CutoffSpec.evaluate(points + 1.0, order=order)
            assert np.allclose(ours, oracle, rtol=1e-10, atol=1e-12)

    def test_flat_junctions_all_orders(self):
        # every derivative vanishes where the bump meets the plateaus
        near = np.array([1.0 + 1e-9, 2.0 - 1e-9])
        for order in (1, 2, 3):
            assert np.max(np.abs(CutoffSpec.evaluate(near, order=order))) < 1e-6

    def test_odd_even_symmetry(self):
        r = np.linspace(0.05, 1.95, 17)
        assert np.allclose(
            CutoffSpec.evaluate(-r, order=1), -CutoffSpec.evaluate(r, order=1)
        )
        assert np.allclose(
            CutoffSpec.evaluate(-r, order=2), CutoffSpec.evaluate(r, order=2)
        )


class TestExtendSurface:
    def test_constant_surface_extends_constant(self, grid):
        eta = cutoff_lift(grid, np.full(grid.n_y, 0.37))
        assert np.max(np.abs(eta - 0.37)) < 1e-12

    def test_single_mode_profile(self, grid):
        k = 2
        eta = cutoff_lift(grid, np.cos(k * grid.y_nodes))
        expected = (
            CutoffSpec.evaluate(grid.z_nodes * k)[None, :]
            * np.cos(k * grid.y_nodes)[:, None]
        )
        assert np.max(np.abs(eta - expected)) < 1e-12

    def test_stored_profile_is_the_evaluated_one(self, monkeypatch, rng):
        # grids that share their z nodes but not n_y or length_y each get
        # their own stored profile
        monkeypatch.setattr(grid_module, "_VERTICAL_CACHE", {})
        for n_y, length_y in ((32, 2.0 * np.pi), (48, 2.0 * np.pi), (32, 3.0)):
            g = make_grid(n_y, 40, length_y, 2.0 * np.pi)
            h = random_surface(g, rng, amplitude=0.3)
            prof = CutoffSpec.evaluate(np.outer(g.wavenumbers, g.z_nodes))
            C = fourier_basis(g)
            expected = C @ (prof * (C.T @ h.h_values)[:, None])
            for _ in range(2):  # built, then read back
                assert np.array_equal(cutoff_lift(g, h.h_values), expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_trace_identity(self, grid, seed):
        h = random_surface(grid, np.random.default_rng(seed), amplitude=0.5)
        eta = cutoff_lift(grid, h.h_values)
        assert np.max(np.abs(eta[:, -1] - h.h_values)) < 1e-10

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_transform_roundtrip(self, grid, seed):
        h = random_surface(grid, np.random.default_rng(seed), amplitude=1.0)
        C = fourier_basis(grid)
        back = C @ (C.T @ h.h_values)
        assert np.max(np.abs(back - h.h_values)) < 1e-12

    def test_linf_bound_constant_across_refinement(self, rng):
        ratios = []
        for n_y in (32, 64):
            g = make_grid(n_y, 40, 2.0 * np.pi, 2.0 * np.pi)
            worst = 0.0
            for _ in range(20):
                h = random_surface(g, rng, amplitude=0.3)
                eta = cutoff_lift(g, h.h_values)
                worst = max(worst, np.max(np.abs(eta)) / h.max_abs())
            ratios.append(worst)
        assert all(np.isfinite(r) for r in ratios)
        assert ratios[1] < ratios[0] * 1.5

    def test_half_derivative_gain_bounded_and_stable(self, rng):
        coarse = make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi)
        fine = make_grid(64, 48, 2.0 * np.pi, 2.0 * np.pi)
        gains_coarse = extension_gain_audit(coarse, np.random.default_rng(5))
        gains_fine = extension_gain_audit(fine, np.random.default_rng(5))
        for s in (0, 1, 2):
            assert np.isfinite(gains_coarse[s])
            # no growth under horizontal refinement (10% slack)
            assert gains_fine[s] <= gains_coarse[s] * 1.1


class TestBuildDiffeomorphism:
    def test_flat_surface(self, grid):
        h = SurfaceState(grid, np.zeros(grid.n_y))
        d = build_diffeomorphism(h, A=1.0, c0=0.5)
        phi = d.A * grid.z_nodes[None, :] + cutoff_lift(grid, d.h.h_values)
        assert np.max(np.abs(phi - grid.z_nodes[None, :])) < 1e-12
        assert np.max(np.abs(d.dzphi.values - 1.0)) < 1e-12
        n = d.n_boundary
        assert np.allclose(n[0], 0.0) and np.allclose(n[1], 1.0)

    def test_moderate_wave_succeeds(self, grid):
        h = SurfaceState(grid, 0.1 * np.cos(grid.y_nodes))
        d = build_diffeomorphism(h, A=1.0, c0=0.5)
        assert d.c0_observed >= 0.5
        assert d.c0_observed == np.min(d.dzphi.values)

    def test_steep_wave_rejected(self, grid):
        h = SurfaceState(grid, 10.0 * np.cos(grid.y_nodes))
        with pytest.raises(MetricValidityError) as excinfo:
            build_diffeomorphism(h, A=1.0, c0=0.5)
        assert excinfo.value.observed_min is not None
        assert excinfo.value.observed_min < 0.5

    def test_monotone_in_slope_constant(self, grid):
        h = SurfaceState(grid, 0.3 * np.cos(grid.y_nodes))
        d1 = build_diffeomorphism(h, A=1.0, c0=0.2)
        d2 = build_diffeomorphism(h, A=2.5, c0=0.2)
        assert abs((d2.c0_observed - d1.c0_observed) - 1.5) < 1e-12

    @pytest.mark.parametrize("amplitude", [0.0, 0.3])
    def test_floor_above_extension_slope_rejected(self, grid, amplitude):
        # d_z eta has mean 0 in y, so min(dz_phi) <= A on every surface and
        # a floor c0 > A is unmeetable: a configuration error, not a steep
        # surface; c0 = A is met by the flat surface
        h = SurfaceState(grid, amplitude * np.cos(grid.y_nodes))
        for A in (1.0, None):
            with pytest.raises(ConfigurationError,
                               match="^c0 = 1.5 exceeds the extension slope A = "):
                build_diffeomorphism(h, A=A, c0=1.5)
        if amplitude == 0.0:
            assert build_diffeomorphism(h, A=1.0, c0=1.0).c0_observed == 1.0

    def test_auto_slope_gives_margin(self, grid):
        h = SurfaceState(grid, 0.4 * np.cos(grid.y_nodes))
        d = build_diffeomorphism(h, A=None, c0=0.5)
        assert d.c0_observed >= 0.5
        assert d.A >= 1.0

    def test_trace_of_eta_is_h(self, grid, rng):
        h = random_surface(grid, rng, amplitude=0.2)
        d = build_diffeomorphism(h, A=None, c0=0.25)
        eta = cutoff_lift(grid, d.h.h_values)
        assert np.max(np.abs(eta[:, -1] - h.h_values)) < 1e-10
        # the stored metric is the derivative of phi = A z + eta
        phi = d.A * grid.z_nodes[None, :] + eta
        dz_phi = vertical_derivative_values(grid, phi)
        assert np.max(np.abs(dz_phi - d.dzphi.values)) < 1e-12 * d.A


class TestSurfaceGeometry:
    def test_flat(self, grid):
        h = SurfaceState(grid, np.zeros(grid.n_y))
        assert np.max(np.abs(h.curvature())) < 1e-13

    def test_small_amplitude_linearization(self, grid):
        k = 2
        errs = []
        for a in (1e-2, 1e-3):
            h = SurfaceState(grid, a * np.cos(k * grid.y_nodes))
            kappa = h.curvature()
            linear = -a * k**2 * np.cos(k * grid.y_nodes)
            errs.append(np.max(np.abs(kappa - linear)))
        # cubic in amplitude: shrinking a by 10 shrinks the gap by ~1000
        assert errs[1] < errs[0] * 2e-2

    def test_finite_amplitude_symbolic_oracle(self):
        # resolve the full Fourier tail of the curvature nonlinearity
        g = make_grid(128, 16, 2.0 * np.pi, 2.0 * np.pi)
        a, k = 0.2, 2
        y = g.y_nodes
        h = SurfaceState(g, a * np.cos(k * y))
        kappa = h.curvature()
        slope = -a * k * np.sin(k * y)
        exact = -a * k**2 * np.cos(k * y) * (1.0 + slope**2) ** (-1.5)
        assert np.max(np.abs(kappa - exact)) < 1e-10


@pytest.mark.parametrize("bad, message", [
    (lambda g: SurfaceState(g, np.zeros(g.n_y + 1)),
     r"^surface shape \(33,\) does not match n_y=32"),
    (lambda g: SurfaceState(g, np.full(g.n_y, np.inf)),
     "^surface contains non-finite values"),
    (lambda g: CutoffSpec.evaluate(1.5, order=4),
     "^cutoff derivative order 4 unsupported"),
    (lambda g: grad_eta_sobolev_norm(SurfaceState(g, np.zeros(g.n_y)), 3),
     r"^extension audit supports s in 0..2, got 3"),
], ids=["shape", "non-finite", "cutoff-order", "audit-order"])
def test_guards_name_their_input(grid, bad, message):
    with pytest.raises(ConfigurationError, match=message):
        bad(grid)


@pytest.mark.parametrize("max_mode", [8, 0, -1, 2.5])
def test_random_surface_refuses_a_mode_off_the_grid(max_mode):
    # at n_y = 16, mode 8 and 2.5 raised IndexError; 0 and -1 gave a flat surface
    g = make_grid(16, 16, 2.0 * np.pi, 1.0)
    message = f"^max_mode must be an integer >= 1 and < n_y / 2 = 8, got {max_mode}$"
    with pytest.raises(ConfigurationError, match=message):
        random_surface(g, np.random.default_rng(0), amplitude=0.1, max_mode=max_mode)
