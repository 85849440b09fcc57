import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.errors import ConfigurationError, MetricValidityError
from wavetank.grid import (
    Field,
    _real_fourier_basis,
    d_horizontal,
    d_vertical,
    horizontal_derivative_values,
    integrate_dVt,
    make_grid,
)


class TestMakeGrid:
    def test_uniform_spacing_and_weights(self):
        g = make_grid(8, 8, 2.0 * np.pi, 1.0, clustering="uniform")
        spacings = np.diff(g.z_nodes)
        assert np.allclose(spacings, 1.0 / 7.0, rtol=1e-14)
        assert abs(np.sum(g.quadrature_weights_z) - 1.0) < 1e-12

    def test_tanh_endpoints_pinned(self):
        g = make_grid(16, 32, 2.0 * np.pi, 2.0, clustering="tanh")
        assert g.z_nodes[-1] == 0.0
        assert g.z_nodes[0] == -2.0

    def test_tanh_clusters_near_surface(self):
        g = make_grid(64, 64, 2.0 * np.pi, 1.0, clustering="tanh")
        uniform_spacing = 1.0 / 63.0
        top_spacing = g.z_nodes[-1] - g.z_nodes[-2]
        assert top_spacing < uniform_spacing
        assert np.argmin(np.diff(g.z_nodes)) == g.n_z - 2

    def test_monotone_nodes_positive_weights(self):
        for clustering in ("uniform", "tanh"):
            g = make_grid(16, 24, 1.0, 3.0, clustering=clustering)
            assert np.all(np.diff(g.z_nodes) > 0)
            assert np.all(g.quadrature_weights_z > 0)
            assert abs(np.sum(g.quadrature_weights_z) - 3.0) < 1e-12 * 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_y=7, n_z=16),
            dict(n_y=6, n_z=16),
            dict(n_y=16, n_z=4),
            dict(n_y=16, n_z=16, depth_H=-1.0),
            dict(n_y=16, n_z=16, clustering="cosine"),
            dict(n_y=16, n_z=16, length_y=0.0),
            # tanh(gamma xi) rounds to 1 at the top nodes: coincident z nodes
            dict(n_y=16, n_z=16, stretch_gamma=40.0),
            dict(n_y=48, n_z=64, stretch_gamma=20.0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        full = dict(n_y=16, n_z=16, length_y=2.0 * np.pi, depth_H=1.0)
        full.update(kwargs)
        with pytest.raises(ConfigurationError):
            make_grid(**full)


    @pytest.mark.parametrize("name", ["n_y", "n_z"])
    def test_non_integer_size_rejected(self, name):
        full = dict(n_y=16, n_z=16, length_y=2.0 * np.pi, depth_H=1.0)
        full[name] = 16.0
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            make_grid(**full)
        full[name] = np.int64(16)
        assert make_grid(**full).shape == (16, 16)


class TestRealFourierBasis:
    @pytest.mark.parametrize("n", [5, 9, 24])
    def test_orthonormal_with_the_column_wavenumbers(self, n):
        C = _real_fourier_basis(n)
        assert np.max(np.abs(C.T @ C - np.eye(n))) <= 1e-14
        # column i carries mode k = ceil(i / 2) at angle t = 2 pi k / n per
        # node: the neighbour mean scales it by cos t, and the centred
        # difference maps cos to -sin t times sin and sin to sin t times cos
        t = 2.0 * np.pi * ((np.arange(n) + 1) // 2) / n
        up, down = np.roll(C, -1, axis=0), np.roll(C, 1, axis=0)
        assert np.max(np.abs(0.5 * (up + down) - C * np.cos(t))) <= 1e-14
        pairs = (n - 1) // 2
        cos, sin = slice(1, 2 * pairs, 2), slice(2, 2 * pairs + 1, 2)
        diff = 0.5 * (up - down)
        assert np.max(np.abs(diff[:, cos] + np.sin(t[cos]) * C[:, sin])) <= 1e-14
        assert np.max(np.abs(diff[:, sin] - np.sin(t[sin]) * C[:, cos])) <= 1e-14
        assert np.max(np.abs(diff[:, 0])) <= 1e-14


class TestHorizontalDerivative:
    def test_single_mode_exact(self, grid):
        k = 3
        f = Field(grid, np.tile(np.sin(k * grid.y_nodes)[:, None], (1, grid.n_z)))
        df = d_horizontal(f)
        exact = k * np.cos(k * grid.y_nodes)[:, None]
        rel = np.max(np.abs(df.values - exact)) / k
        assert rel < 1e-10

    def test_constant_maps_to_zero(self, grid):
        f = Field(grid, np.full(grid.shape, 2.5))
        assert np.max(np.abs(d_horizontal(f).values)) < 1e-13

    def test_against_fd4_oracle_refinement(self):
        # fixed band-limited profile; 4th-order centered differences converge
        # to the spectral derivative at O(dy^4)
        coeffs = [(1, 0.7, 0.3), (2, -0.4, 0.1), (3, 0.2, -0.5)]

        def profile(y):
            out = np.zeros_like(y)
            for k, a, b in coeffs:
                out += a * np.cos(k * y) + b * np.sin(k * y)
            return out

        errors = []
        for n in (32, 64, 128):
            g = make_grid(n, 8, 2.0 * np.pi, 1.0, clustering="uniform")
            y = g.y_nodes
            f = Field(g, np.tile(profile(y)[:, None], (1, g.n_z)))
            spectral = d_horizontal(f).values[:, 0]
            dy = g.dy
            fd4 = (
                -np.roll(profile(y), -2)
                + 8.0 * np.roll(profile(y), -1)
                - 8.0 * np.roll(profile(y), 1)
                + np.roll(profile(y), 2)
            ) / (12.0 * dy)
            errors.append(np.max(np.abs(spectral - fd4)))
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert order1 > 3.5 and order2 > 3.5

    @pytest.mark.parametrize("n_y", [8, 16, 48, 96])
    def test_matrix_matches_the_fft_route(self, n_y):
        # d/dy is one product with the Fourier differentiation matrix; it
        # must agree with rfft, i k, irfft on fields and on surface samples
        g = make_grid(n_y, 8, 3.0, 1.0, clustering="uniform")
        k = 2.0 * np.pi * np.arange(n_y // 2 + 1)[:, None] / g.length_y
        rng = np.random.default_rng(n_y)
        for values in (rng.standard_normal((2,) + g.shape),
                       rng.standard_normal(g.shape),
                       rng.standard_normal(n_y)):
            cols = values if values.ndim > 1 else values[:, None]
            ref = np.fft.irfft(1j * k * np.fft.rfft(cols, axis=-2), n=n_y,
                               axis=-2).reshape(values.shape)
            gap = np.max(np.abs(horizontal_derivative_values(g, values) - ref))
            assert gap <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_y", [8, 16, 48, 96])
    def test_nyquist_mode_has_zero_derivative(self, n_y):
        g = make_grid(n_y, 8, 3.0, 1.0, clustering="uniform")
        nyquist = np.cos(np.pi * np.arange(n_y))
        scale = g.wavenumbers[-1]
        assert np.max(np.abs(horizontal_derivative_values(g, nyquist))) < 1e-13 * scale
        field = np.tile(nyquist[:, None], (1, g.n_z))
        assert np.max(np.abs(horizontal_derivative_values(g, field))) < 1e-13 * scale


class TestVerticalDerivative:
    def test_linear_exact(self, grid):
        f = Field(grid, np.tile(grid.z_nodes, (grid.n_y, 1)))
        df = d_vertical(f)
        assert np.max(np.abs(df.values - 1.0)) < 1e-10

    def test_constant_zero(self, grid):
        f = Field(grid, np.full(grid.shape, -3.0))
        assert np.max(np.abs(d_vertical(f).values)) < 1e-12

    def test_exponential_order_two(self):
        errors = []
        for n_z in (24, 48, 96):
            g = make_grid(8, n_z, 2.0 * np.pi, 2.0, clustering="tanh")
            f = Field(g, np.tile(np.exp(g.z_nodes), (g.n_y, 1)))
            df = d_vertical(f)
            errors.append(np.max(np.abs(df.values - np.exp(g.z_nodes)[None, :])))
        order1 = np.log2(errors[0] / errors[1])
        order2 = np.log2(errors[1] / errors[2])
        assert order1 > 1.9 and order2 > 1.9


class TestIntegrateDVt:
    def test_measure_of_box(self):
        g = make_grid(16, 16, 2.0 * np.pi, 1.0, clustering="uniform")
        one = Field(g, np.ones(g.shape))
        assert abs(integrate_dVt(one, one) - 2.0 * np.pi) < 1e-12

    def test_zero_integrand(self, grid):
        zero = Field(grid, np.zeros(grid.shape))
        one = Field(grid, np.ones(grid.shape))
        assert integrate_dVt(zero, one) == 0.0

    def test_closed_form_oracle(self):
        # integral of cos^2(y) e^z over [0,2pi) x [-H,0] = pi (1 - e^-H)
        errors = []
        for n_z in (32, 64):
            g = make_grid(32, n_z, 2.0 * np.pi, 2.0, clustering="uniform")
            f = Field(
                g, np.cos(g.y_nodes)[:, None] ** 2 * np.exp(g.z_nodes)[None, :]
            )
            one = Field(g, np.ones(g.shape))
            exact = np.pi * (1.0 - np.exp(-g.depth_H))
            errors.append(abs(integrate_dVt(f, one) - exact))
        assert errors[0] / errors[1] > 3.0  # second-order quadrature

    def test_nonpositive_weight_rejected(self, grid):
        f = Field(grid, np.ones(grid.shape))
        bad = Field(grid, np.zeros(grid.shape))
        with pytest.raises(MetricValidityError):
            integrate_dVt(f, bad)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity_and_positivity(self, seed, a, b):
        g = make_grid(16, 16, 2.0 * np.pi, 1.0, clustering="tanh")
        r = np.random.default_rng(seed)
        f1 = r.standard_normal(g.shape)
        f2 = r.standard_normal(g.shape)
        dz = Field(g, 1.0 + 0.5 * r.uniform(size=g.shape))
        lhs = integrate_dVt(Field(g, a * f1 + b * f2), dz)
        rhs = a * integrate_dVt(Field(g, f1), dz) + b * integrate_dVt(Field(g, f2), dz)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs) + abs(rhs))
        positive = Field(g, np.abs(f1) + 0.1)
        assert integrate_dVt(positive, dz) > 0.0


class TestField:
    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            Field(grid, np.zeros((grid.n_y + 1, grid.n_z)))

    def test_nonfinite_rejected(self, grid):
        bad = np.zeros(grid.shape)
        bad[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            Field(grid, bad)

    def test_vector_components(self, grid):
        v = Field(grid, np.zeros((2, grid.n_y, grid.n_z)))
        assert v.components == 2


def test_integrate_dvt_rejects_a_vector_field(grid):
    ones = np.ones(grid.shape)
    with pytest.raises(ConfigurationError, match="^integrate_dVt expects scalar fields"):
        integrate_dVt(Field(grid, np.stack([ones, ones])), Field(grid, ones))
