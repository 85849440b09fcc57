import numpy as np
import pytest
import sympy

from wavetank.conormal import FieldHistory, MultiIndex, apply_z3
from wavetank.errors import ConfigurationError
from wavetank.grid import (
    Field,
    horizontal_derivative_values,
    make_grid,
    vertical_derivative_values,
)
from wavetank.operators import (
    commutator_residual,
    div_phi,
    div_phi_matrix,
    divergence_form_matrix,
    flux_load,
    grad_phi,
    grad_phi_matrix,
    jacobian_phi,
    laplacian_phi,
    laplacian_phi_composed,
    laplacian_phi_weak_form,
    strain_phi,
    strain_squared,
    vorticity_phi,
)
from wavetank.surface import cutoff_lift
from conftest import (
    analytic_metric,
    flat_diffeo,
    random_valid_metric,
    smooth_scalar,
    smooth_vector,
)

TOL = 1e-12


def _scaled_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / scale


class TestDualRoutes:
    def test_gradient_routes_machine_equal(self, grid, rng):
        for _ in range(10):
            d = random_valid_metric(grid, rng)
            f = smooth_scalar(grid, rng)
            assert _scaled_gap(grad_phi(f, d).values, grad_phi_matrix(f, d).values) < TOL

    def test_divergence_routes_machine_equal(self, grid, rng):
        for _ in range(10):
            d = random_valid_metric(grid, rng)
            v = smooth_vector(grid, rng)
            assert _scaled_gap(div_phi(v, d).values, div_phi_matrix(v, d).values) < TOL

    def test_laplacian_routes_machine_equal(self, grid, rng):
        for _ in range(10):
            d = random_valid_metric(grid, rng)
            f = smooth_scalar(grid, rng)
            composed = div_phi(grad_phi(f, d), d).values
            matrix = laplacian_phi_composed(f, d).values
            assert _scaled_gap(composed, matrix) < TOL

    def test_strain_and_vorticity_routes_machine_equal(self, grid, rng):
        # matrix route: the transformed gradient of each velocity component
        for _ in range(10):
            d = random_valid_metric(grid, rng)
            v = smooth_vector(grid, rng)
            g1 = grad_phi_matrix(Field(grid, v.values[0]), d).values
            g2 = grad_phi_matrix(Field(grid, v.values[1]), d).values
            strain = np.stack([g1[0], 0.5 * (g2[0] + g1[1]), g2[1]])
            assert _scaled_gap(strain_phi(v, d).values, strain) < TOL
            assert _scaled_gap(vorticity_phi(v, d).values, g2[0] - g1[1]) < TOL

    def test_self_derivative_of_phi(self, grid, rng):
        d = random_valid_metric(grid, rng)
        phi = d.A * grid.z_nodes[None, :] + cutoff_lift(grid, d.h.h_values)
        assert np.max(np.abs(jacobian_phi(phi, d)[1] - 1.0)) < TOL


class TestFlatReduction:
    def test_gradient_divergence_flat(self, grid, rng, flat_metric):
        f = smooth_scalar(grid, rng)
        v = smooth_vector(grid, rng)
        gf = grad_phi(f, flat_metric).values
        assert _scaled_gap(gf[0], horizontal_derivative_values(grid, f.values)) < TOL
        assert _scaled_gap(gf[1], vertical_derivative_values(grid, f.values)) < TOL
        dv = div_phi(v, flat_metric).values
        plain = horizontal_derivative_values(grid, v.values[0]) + \
            vertical_derivative_values(grid, v.values[1])
        assert _scaled_gap(dv, plain) < TOL

    def test_flat_divergence_of_plane_wave(self, grid, flat_metric):
        v = Field(grid, np.stack([
            np.tile(np.cos(grid.y_nodes)[:, None], (1, grid.n_z)),
            np.zeros(grid.shape),
        ]))
        dv = div_phi(v, flat_metric)
        exact = -np.sin(grid.y_nodes)[:, None]
        assert np.max(np.abs(dv.values - exact)) < 1e-10

    def test_constant_vector_divergence_free(self, grid, flat_metric):
        v = Field(grid, np.stack([np.full(grid.shape, 1.3), np.full(grid.shape, -0.4)]))
        assert np.max(np.abs(div_phi(v, flat_metric).values)) < 1e-11


class TestStrainAndVorticity:
    def test_rigid_translation_strain_free(self, grid, curved_metric):
        v = Field(grid, np.stack([np.full(grid.shape, 0.8), np.full(grid.shape, 0.5)]))
        assert np.max(np.abs(strain_phi(v, curved_metric).values)) < 1e-11

    def test_antisymmetric_jacobian_strain_free(self, grid, flat_metric):
        # linear-in-y rotation fields do not fit the periodic strip; the
        # rotation example's content is that antisymmetric Jacobians carry
        # no strain, which the z-linear part probes exactly
        z = np.broadcast_to(grid.z_nodes[None, :], grid.shape)
        v = Field(grid, np.stack([-z, np.zeros(grid.shape)]))
        s = strain_phi(v, flat_metric).values
        assert np.max(np.abs(s[0])) < 1e-12          # S11
        assert np.max(np.abs(s[2])) < 1e-12          # S22
        assert np.max(np.abs(s[1] + 0.5)) < 1e-10    # S12 = -1/2: pure shear
        # its antisymmetric complement is rotation; adding the transposed
        # shear (0, w) with d_y w = band-limited partner cancels the strain
        w = np.broadcast_to(np.sin(grid.y_nodes)[:, None], grid.shape)
        v2 = Field(grid, np.stack([
            -np.broadcast_to(np.cos(grid.y_nodes)[:, None], grid.shape)
            * np.broadcast_to(grid.z_nodes[None, :], grid.shape),
            w * 0.0,
        ]))
        s2 = strain_phi(v2, flat_metric).values
        exact_s12 = 0.5 * np.cos(grid.y_nodes)[:, None] * (-1.0)
        assert np.max(np.abs(s2[1] - exact_s12)) < 1e-10

    def test_flat_stretch_strain(self, grid, flat_metric):
        # diag(1,-1) stretch: the vertical leg is exact; the horizontal leg
        # uses a band-limited stand-in for y since a sawtooth is not periodic
        z = np.broadcast_to(grid.z_nodes[None, :], grid.shape)
        v = Field(grid, np.stack([np.zeros(grid.shape), -z]))
        s = strain_phi(v, flat_metric).values
        assert np.max(np.abs(s[2] + 1.0)) < 1e-10
        assert np.max(np.abs(s[1])) < 1e-10
        assert np.max(np.abs(s[0])) < 1e-12

    def test_flat_rotation_vorticity(self, grid, flat_metric):
        z = np.broadcast_to(grid.z_nodes[None, :], grid.shape)
        v = Field(grid, np.stack([-z, np.zeros(grid.shape)]))
        # v = (-z, 0): curl = d1 v2 - d3 v1 = 0 - (-1) = 1
        assert np.max(np.abs(vorticity_phi(v, flat_metric).values - 1.0)) < 1e-10

    def test_gradient_field_vorticity_free_refinement(self):
        # fixed physical window: the one-sided closure contaminates a few
        # rows next to the surface at first order, but those rows shrink
        # with the mesh; inside a fixed band the residual is second order
        errors = []
        for n in (48, 96):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            d = analytic_metric(g)
            f = Field(
                g,
                np.cos(2 * g.y_nodes)[:, None]
                * np.exp(g.z_nodes)[None, :]
                * np.ones(g.shape),
            )
            w = vorticity_phi(grad_phi(f, d), d)
            band = (g.z_nodes > -g.depth_H + 0.5) & (g.z_nodes < -0.3)
            errors.append(np.max(np.abs(w.values[:, band])))
        assert errors[1] < errors[0] / 2.5

    def test_zero_field(self, grid, curved_metric):
        v = Field(grid, np.zeros((2, grid.n_y, grid.n_z)))
        assert np.max(np.abs(vorticity_phi(v, curved_metric).values)) == 0.0
        assert np.max(np.abs(strain_phi(v, curved_metric).values)) == 0.0


class TestStiffnessMatrix:
    def test_symmetry_is_structural(self, rng):
        # the cross term enters as k_yz + k_yz^T, so the stiffness matrix is
        # symmetric to the last bit
        g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
        A = divergence_form_matrix(random_valid_metric(g, rng))
        assert abs(A - A.T).max() == 0.0


class TestSolenoidalConstruction:
    def test_divergence_of_discrete_curl_shrinks(self):
        # v with P v = (d_z psi, -d_y psi): div_phi v -> 0 at FD order
        errors = []
        for n in (48, 96):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            d = analytic_metric(g)
            psi = (
                np.sin(2 * g.y_nodes)[:, None]
                * np.exp(1.5 * g.z_nodes)[None, :]
                * np.ones(g.shape)
            )
            c = d.dzphi.values
            b = d.grad_y_phi.values
            dz_psi = vertical_derivative_values(g, psi)
            dy_psi = horizontal_derivative_values(g, psi)
            v1 = dz_psi / c
            v2 = -dy_psi + b * dz_psi / c
            dv = div_phi(Field(g, np.stack([v1, v2])), d)
            band = (g.z_nodes > -g.depth_H + 0.5) & (g.z_nodes < -0.3)
            errors.append(np.max(np.abs(dv.values[:, band])))
        assert errors[1] < errors[0] / 2.5


class TestLaplacian:
    def test_flat_harmonic_small_residual(self):
        errors = []
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0, clustering="uniform")
            d = flat_diffeo(g)
            k = 2
            f = Field(
                g,
                np.cos(k * g.y_nodes)[:, None] * np.exp(k * g.z_nodes)[None, :],
            )
            lap = laplacian_phi(f, d)
            errors.append(np.max(np.abs(lap.values[:, 1:-1])))
        assert errors[1] < errors[0] / 3.0

    def test_weak_symmetry(self, grid, rng):
        d = random_valid_metric(grid, rng)
        f = smooth_scalar(grid, rng).values
        g2 = smooth_scalar(grid, rng).values
        # zero both fields near the boundaries so no boundary flux enters
        mask = np.ones(grid.n_z)
        mask[:3] = 0.0
        mask[-3:] = 0.0
        f = f * mask[None, :]
        g2 = g2 * mask[None, :]
        ab = laplacian_phi_weak_form(f, g2, d)
        ba = laplacian_phi_weak_form(g2, f, d)
        assert abs(ab - ba) < 1e-12 * max(abs(ab), 1.0)

    def test_manufactured_curved_metric_sympy_oracle(self):
        # metric eta = delta cos(y) exp(2 z); the divergence-form operator
        # must reproduce the symbolic Delta_phi f on the interior
        y_s, z_s = sympy.symbols("y z")
        delta = 0.12
        eta_s = delta * sympy.cos(y_s) * sympy.exp(2 * z_s)
        c_s = 1 + sympy.diff(eta_s, z_s)
        b_s = sympy.diff(eta_s, y_s)
        f_s = sympy.cos(y_s) * (1 + z_s) * sympy.exp(z_s)
        E11, E12, E22 = c_s, -b_s, (1 + b_s**2) / c_s
        flux_y = E11 * sympy.diff(f_s, y_s) + E12 * sympy.diff(f_s, z_s)
        flux_z = E12 * sympy.diff(f_s, y_s) + E22 * sympy.diff(f_s, z_s)
        lap_s = (sympy.diff(flux_y, y_s) + sympy.diff(flux_z, z_s)) / c_s
        lap_fn = sympy.lambdify((y_s, z_s), lap_s, "numpy")
        f_fn = sympy.lambdify((y_s, z_s), f_s, "numpy")

        errors = []
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            Y = g.y_nodes[:, None]
            Z = g.z_nodes[None, :]
            d = analytic_metric(g, delta=delta)
            lap = laplacian_phi(Field(g, f_fn(Y, Z) * np.ones(g.shape)), d)
            exact = lap_fn(Y, Z) * np.ones(g.shape)
            band = (g.z_nodes > -g.depth_H + 0.5) & (g.z_nodes < -0.3)
            errors.append(np.max(np.abs(lap.values[:, band] - exact[:, band])))
        order = np.log2(errors[0] / errors[1])
        assert order > 1.6


class TestKroneckerAssembly:
    """The cell integrals built from 1-D element matrices against a 2x2
    Gauss-point assembly of the bilinear shape-function gradients, which
    integrates every cell term exactly."""

    @staticmethod
    def gauss_reference(grid, E11, E12, E22, F1, F2):
        _GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)
        # corners sw, se, nw, ne as (y sign, z sign)
        _CORNER_SIGNS = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=float)
        pts = [(x, z) for z in _GAUSS for x in _GAUSS]
        ref_y = np.array([[0.25 * sy * (1.0 + sz * z) for sy, sz in _CORNER_SIGNS]
                          for x, z in pts])
        ref_z = np.array([[0.25 * sz * (1.0 + sy * x) for sy, sz in _CORNER_SIGNS]
                          for x, z in pts])
        ny, nz = grid.n_y, grid.n_z
        A = np.zeros((ny * nz, ny * nz))
        load = np.zeros(ny * nz)
        for j in range(ny):
            jp = (j + 1) % ny
            for i in range(nz - 1):
                dz = grid.z_nodes[i + 1] - grid.z_nodes[i]
                jac = grid.dy * dz / 4.0
                nodes = [j * nz + i, jp * nz + i, j * nz + i + 1, jp * nz + i + 1]

                def mean(f):
                    return 0.25 * (f[j, i] + f[jp, i] + f[j, i + 1] + f[jp, i + 1])

                e11, e12, e22 = mean(E11), mean(E12), mean(E22)
                for gy, gz in zip(ref_y * 2.0 / grid.dy, ref_z * 2.0 / dz):
                    A[np.ix_(nodes, nodes)] += jac * (
                        e11 * np.outer(gy, gy)
                        + e12 * (np.outer(gy, gz) + np.outer(gz, gy))
                        + e22 * np.outer(gz, gz)
                    )
                    load[nodes] -= jac * (mean(F1) * gy + mean(F2) * gz)
        return A, load

    def test_matches_gauss_point_assembly(self, grid, curved_metric, rng):
        # the oracle's E is (1/c) P P^T with P = [[c, 0], [-b, 1]], not the
        # closed form that divergence_form_matrix assembles
        c, b = curved_metric.dzphi.values, curved_metric.grad_y_phi.values
        P = np.array([[c, np.zeros_like(c)], [-b, np.ones_like(c)]])
        E = np.einsum("ik...,jk...->ij...", P, P) / c
        F1, F2 = rng.standard_normal((2,) + grid.shape)
        A_ref, load_ref = self.gauss_reference(grid, E[0, 0], E[0, 1], E[1, 1], F1, F2)
        A = divergence_form_matrix(curved_metric).toarray()
        load = flux_load(grid, F1, F2)
        assert np.max(np.abs(A - A_ref)) <= 1e-14 * np.max(np.abs(A_ref))
        assert np.max(np.abs(load - load_ref)) <= 1e-14 * np.max(np.abs(load_ref))


class TestCommutator:
    def test_flat_metric_horizontal_commutes(self, grid, rng, flat_metric):
        f = smooth_scalar(grid, rng)
        res = commutator_residual(f, MultiIndex(alpha=(1, 1)), 1, flat_metric)
        assert np.max(np.abs(res.values)) < 1e-10

    def test_rejects_direction_two(self, grid, rng, flat_metric):
        f = smooth_scalar(grid, rng)
        with pytest.raises(ConfigurationError):
            commutator_residual(f, MultiIndex(alpha=(0, 1)), 2, flat_metric)

    def test_constant_field(self, grid, curved_metric):
        f = Field(grid, np.full(grid.shape, 2.0))
        res = commutator_residual(f, MultiIndex(alpha=(0, 1)), 3, curved_metric)
        assert np.max(np.abs(res.values)) < 1e-11

    def test_m1_term_by_term_assembly(self, grid, rng):
        # Prop-style expansion with the trilinear bracket kept exact:
        # C_3(f) = [Z, 1/c, d_z f] + (Z(1/c)) d_z f + (1/c)[Z, d_z] f
        d = random_valid_metric(grid, rng)
        f = smooth_scalar(grid, rng)
        idx = MultiIndex(alpha=(0, 1))
        res = commutator_residual(f, idx, 3, d)

        c = d.dzphi.values
        u = 1.0 / c
        dzf = vertical_derivative_values(grid, f.values)
        z3 = lambda arr: apply_z3(grid, arr)
        tri = z3(u * dzf) - z3(u) * dzf - u * z3(dzf)
        term2 = z3(u) * dzf
        term3 = u * (z3(dzf) - vertical_derivative_values(grid, z3(f.values)))
        assembled = tri + term2 + term3
        scale = max(np.max(np.abs(res.values)), 1.0)
        assert np.max(np.abs(assembled - res.values)) / scale < 1e-10

    def test_m2_leibniz_assembly_fd_order(self):
        # the fully Leibniz-expanded assembly differs from the operator
        # difference by discrete product-rule error, shrinking at FD order
        gaps = []
        for n in (24, 48, 96):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            d = analytic_metric(g)
            f = Field(
                g,
                np.cos(2 * g.y_nodes)[:, None]
                * np.exp(g.z_nodes)[None, :]
                * np.ones(g.shape),
            )
            idx = MultiIndex(alpha=(0, 2))
            res = commutator_residual(f, idx, 3, d)

            c = d.dzphi.values
            u = 1.0 / c
            z3 = lambda arr: apply_z3(g, arr)
            dz = lambda arr: vertical_derivative_values(g, arr)
            dzf = dz(f.values)
            # Z^2(u p) ~ u Z^2 p + 2 (Z u)(Z p) + (Z^2 u) p  (discrete Leibniz)
            comm_z2_dz = z3(z3(dzf)) - dz(z3(z3(f.values)))
            assembled = (
                2.0 * z3(u) * z3(dzf)
                + z3(z3(u)) * dzf
                + u * comm_z2_dz
            )
            scale = max(np.max(np.abs(res.values)), 1e-30)
            gaps.append(np.max(np.abs(assembled - res.values)) / scale)
        assert gaps[1] < gaps[0] / 2.5
        assert gaps[2] < gaps[1] / 2.5

    def test_time_commutator_with_static_metric(self, grid, rng):
        d = random_valid_metric(grid, rng)
        base = smooth_scalar(grid, rng).values
        hist = FieldHistory(grid, [base * (1 + 0.1 * k) for k in range(3)], 0.05)
        res = commutator_residual(hist, MultiIndex(k=1), 3, d)
        # static metric: dt commutes with d3_phi exactly
        assert np.max(np.abs(res.values)) < 1e-9


@pytest.mark.parametrize("operator, components, message", [
    (grad_phi, 2, "^grad_phi expects a scalar field"),
    (div_phi, 1, "^div_phi expects a two-component field"),
    (strain_phi, 1, "^strain_phi expects a two-component field"),
], ids=["grad_phi", "div_phi", "strain_phi"])
def test_operators_reject_the_wrong_field_rank(grid, flat_metric, operator,
                                               components, message):
    shape = grid.shape if components == 1 else (components,) + grid.shape
    with pytest.raises(ConfigurationError, match=message):
        operator(Field(grid, np.ones(shape)), flat_metric)
