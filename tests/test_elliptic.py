import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from wavetank import elliptic
from wavetank.elliptic import (
    EllipticOperator,
    _pcg,
    decompose_pressure,
    dn_coercivity_ratio,
    flat_strip_solve,
    qE_inner_split,
)
from wavetank.errors import (
    ConfigurationError,
    MetricValidityError,
    SolverFailureError,
)
from wavetank.grid import Field, fourier_basis, l2_norm, make_grid
from wavetank.operators import jacobian_phi
from wavetank.surface import (
    Diffeomorphism,
    build_diffeomorphism,
    random_surface,
    surface_from_values,
)
from conftest import analytic_metric, random_valid_metric, smooth_vector


def flat_diffeo(g):
    return build_diffeomorphism(
        surface_from_values(g, np.zeros(g.n_y)), A=1.0, c0=0.5
    )


class TestSolveElliptic:
    def test_separable_oracle_and_order(self):
        errors = []
        for n in (24, 48, 96):
            g = make_grid(n, n, 2.0 * np.pi, 2.0, clustering="uniform")
            d = flat_diffeo(g)
            k = 2
            q, _ = EllipticOperator(d, "dirichlet_zero").solve(
                np.cos(k * g.y_nodes), 1e-11
            )
            exact = (
                np.cos(k * g.y_nodes)[:, None]
                * np.sinh(k * (g.z_nodes + g.depth_H))[None, :]
                / np.sinh(k * g.depth_H)
            )
            errors.append(np.max(np.abs(q - exact)))
        assert np.log2(errors[0] / errors[1]) > 1.8
        assert np.log2(errors[1] / errors[2]) > 1.8

    def test_zero_data_zero_solution(self, grid, flat_metric):
        q, _ = EllipticOperator(flat_metric).solve(np.zeros(grid.n_y), 1e-11)
        assert np.max(np.abs(q)) < 1e-12

    def test_manufactured_curved_metric_order(self):
        # q* with q*(-H) = 0 and arbitrary top trace; rhs from sympy
        y_s, z_s = sympy.symbols("y z")
        delta = 0.12
        eta_s = delta * sympy.cos(y_s) * sympy.exp(2 * z_s)
        c_s = 1 + sympy.diff(eta_s, z_s)
        b_s = sympy.diff(eta_s, y_s)
        H = 2.0 * np.pi
        q_s = sympy.cos(2 * y_s) * sympy.sin(sympy.pi * (z_s + H) / (2 * H))
        E11, E12, E22 = c_s, -b_s, (1 + b_s**2) / c_s
        flux_y = E11 * sympy.diff(q_s, y_s) + E12 * sympy.diff(q_s, z_s)
        flux_z = E12 * sympy.diff(q_s, y_s) + E22 * sympy.diff(q_s, z_s)
        rhs_s = -(sympy.diff(flux_y, y_s) + sympy.diff(flux_z, z_s)) / c_s
        q_fn = sympy.lambdify((y_s, z_s), q_s, "numpy")
        rhs_fn = sympy.lambdify((y_s, z_s), rhs_s, "numpy")

        errors = []
        for n in (32, 64, 128):
            g = make_grid(n, n, 2.0 * np.pi, H, clustering="uniform")
            d = analytic_metric(g, delta=delta)
            Y, Z = g.y_nodes[:, None], g.z_nodes[None, :]
            q, _ = EllipticOperator(d, "dirichlet_zero").solve(
                q_fn(Y, Z)[:, -1],
                1e-11,
                rhs=rhs_fn(Y, Z) * np.ones(g.shape),
            )
            errors.append(l2_norm(g, q - q_fn(Y, Z) * np.ones(g.shape)))
        assert np.log2(errors[0] / errors[1]) > 1.8
        assert np.log2(errors[1] / errors[2]) > 1.8

    def test_superposition(self, grid, rng):
        op = EllipticOperator(random_valid_metric(grid, rng))
        tol = 1e-11
        f1 = np.cos(grid.y_nodes)
        f2 = np.sin(2 * grid.y_nodes)
        a, b = 2.0, -0.7
        q1, _ = op.solve(f1, tol)
        q2, _ = op.solve(f2, tol)
        q12, _ = op.solve(a * f1 + b * f2, tol)
        gap = np.max(np.abs(q12 - a * q1 - b * q2))
        assert gap < 50.0 * tol

    def test_maximum_principle(self, rng):
        g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi)
        for seed in range(8):
            d = random_valid_metric(g, np.random.default_rng(seed), amplitude=0.08)
            data = random_surface(g, np.random.default_rng(seed + 100),
                                  amplitude=1.0).h_values
            q, _ = EllipticOperator(d).solve(data, 1e-11)
            assert np.max(np.abs(q)) <= np.max(np.abs(data)) + 1e-8

    def test_indefinite_metric_rejected(self, grid):
        # dz_phi < 0 everywhere: E is negative definite
        c = -np.ones(grid.shape)
        d = Diffeomorphism(
            grid=grid, A=1.0, h=surface_from_values(grid, np.zeros(grid.n_y)),
            dzphi=Field(grid, c), grad_y_phi=Field(grid, np.zeros(grid.shape)),
            c0_observed=-1.0,
        )
        with pytest.raises(MetricValidityError):
            EllipticOperator(d)

    @pytest.mark.parametrize("lowest", [0.0, -0.3])
    def test_one_non_positive_node_rejected(self, grid, rng, lowest):
        # det E = 1, so E is indefinite exactly where dz_phi <= 0; the error
        # reports that dz_phi, not an eigenvalue of E
        c = 1.0 + 0.1 * rng.random(grid.shape)
        c[5, 7] = lowest
        d = Diffeomorphism(
            grid=grid, A=1.0, h=surface_from_values(grid, np.zeros(grid.n_y)),
            dzphi=Field(grid, c), grad_y_phi=Field(grid, 0.2 * np.ones(grid.shape)),
            c0_observed=lowest,
        )
        with pytest.raises(MetricValidityError) as info:
            EllipticOperator(d)
        assert info.value.observed_min == lowest

    def test_bad_tolerance_or_bottom(self, grid, flat_metric):
        with pytest.raises(ConfigurationError):
            EllipticOperator(flat_metric, "robin")
        op = EllipticOperator(flat_metric)
        top = np.zeros(grid.n_y)
        for tol in (0.0, -1e-10):
            with pytest.raises(ConfigurationError):
                op.solve(top, tol)

    def test_non_finite_flux_rhs_rejected(self, grid, flat_metric):
        op = EllipticOperator(flat_metric)
        F = np.zeros(grid.shape)
        F[3, 5] = np.nan
        for flux in ((F, np.zeros(grid.shape)), (np.zeros(grid.shape), F)):
            with pytest.raises(ConfigurationError):
                op.solve(np.zeros(grid.n_y), 1e-10, flux_rhs=flux)

    @pytest.mark.parametrize("name", ["rhs", "dirichlet_top", "flux_rhs"])
    def test_misshapen_data_rejected(self, name):
        # a length-n_y rhs would broadcast as a z-profile on a square grid
        g = make_grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
        bad = {"rhs": np.ones(16), "dirichlet_top": np.ones(17),
               "flux_rhs": (np.ones(16), np.ones(16))}
        data = {"dirichlet_top": np.zeros(g.n_y), name: bad[name]}
        with pytest.raises(ConfigurationError, match=name):
            EllipticOperator(flat_diffeo(g)).solve(tol=1e-10, **data)

    def test_iteration_budget_enforced(self, monkeypatch):
        # a hard SPD system and a tiny budget must fail loudly
        n = 400
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1]).tocsr()
        b = np.ones(n)
        monkeypatch.setattr(elliptic, "CG_BUDGET", 3)
        with pytest.raises(SolverFailureError) as excinfo:
            _pcg(A.__matmul__, b, np.zeros(n), lambda r: r / 2.0, 1e-14)
        assert excinfo.value.residual is not None
        assert excinfo.value.iterations == 3

    def test_stopping_rule_ignores_the_scale_of_the_data(self):
        # the solve of s f is s times the solve of f: the stopping target
        # scales with |b| until the floor at rounding level binds
        g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi)
        rng = np.random.default_rng(5)
        op = EllipticOperator(random_valid_metric(g, rng))
        f = rng.standard_normal(g.n_y)
        q, iters = op.solve(f, 1e-8)
        q_small, iters_small = op.solve(1e-7 * f, 1e-8)
        assert iters_small == iters
        assert np.max(np.abs(q_small - 1e-7 * q)) <= 1e-12 * 1e-7 * np.max(np.abs(q))
        flux = op.dirichlet_neumann(f, 1e-8)
        flux_small = op.dirichlet_neumann(1e-7 * f, 1e-8)
        gap = np.max(np.abs(flux_small - 1e-7 * flux))
        assert gap <= 1e-12 * 1e-7 * np.max(np.abs(flux))


BOTTOMS = ("neumann_zero", "dirichlet_zero")


class TestFlatStripPreconditioner:
    """The FE solves are preconditioned by the exact flat-strip inverse."""

    @pytest.mark.parametrize("clustering", ["tanh", "uniform"])
    @pytest.mark.parametrize("A", [1.0, 1.7])
    @pytest.mark.parametrize("bottom", BOTTOMS)
    def test_flat_strip_one_iteration(self, clustering, A, bottom, rng):
        g = make_grid(24, 30, 2.0 * np.pi, 3.0, clustering=clustering)
        d = build_diffeomorphism(
            surface_from_values(g, np.zeros(g.n_y)), A=A, c0=0.5
        )
        op = EllipticOperator(d, bottom)
        problems = (
            dict(dirichlet_top=rng.standard_normal(g.n_y)),
            dict(dirichlet_top=np.zeros(g.n_y), rhs=rng.standard_normal(g.shape)),
            dict(
                dirichlet_top=rng.standard_normal(g.n_y),
                flux_rhs=tuple(rng.standard_normal((2,) + g.shape)),
            ),
        )
        for data in problems:
            _, iters = op.solve(tol=1e-10, **data)
            assert iters == 1

    @pytest.mark.parametrize("amplitude", [0.05, 0.2])
    @pytest.mark.parametrize("bottom", BOTTOMS)
    def test_iterations_bounded_on_refinement(self, amplitude, bottom):
        # the same continuum surface and data on three nested grids; Jacobi CG
        # took 160-700 iterations here, doubling with each refinement
        counts = []
        for n_y, n_z in ((32, 40), (64, 80), (128, 160)):
            g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi)
            d = random_valid_metric(g, np.random.default_rng(4), amplitude=amplitude)
            top = np.cos(g.y_nodes) + 0.5 * np.sin(5.0 * g.y_nodes)
            _, iters = EllipticOperator(d, bottom).solve(top, 1e-10)
            counts.append(iters)
        assert max(counts) <= 12, counts
        assert counts[2] <= counts[0] + 1 and counts[1] <= counts[0] + 1, counts

    @pytest.mark.parametrize("n_y, m, pinned", [(8, 5, 1), (16, 9, 0), (48, 20, 2)])
    def test_solve_matches_an_rfft_oracle(self, n_y, m, pinned, rng):
        # any z basis and any positive spectrum per (rfft mode, z column)
        g = make_grid(n_y, 8, 2.0 * np.pi, 1.0)
        V = rng.standard_normal((m, m))
        denominator = rng.uniform(0.5, 2.0, (n_y // 2 + 1, m))
        r = rng.standard_normal((n_y, m + pinned))
        modes = np.fft.rfft(r[:, :m] @ V, axis=0) / denominator
        ref = np.fft.irfft(modes, n=n_y, axis=0) @ V.T
        # basis column i carries rfft mode (i + 1) // 2
        inverse = 1.0 / denominator[(np.arange(n_y) + 1) // 2]
        out = flat_strip_solve(r, fourier_basis(g), V, inverse)
        assert np.max(np.abs(out[:, :m] - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(out[:, m:], r[:, m:])

    @pytest.mark.parametrize("A", [1.0, 1.7])
    @pytest.mark.parametrize("bottom", BOTTOMS)
    def test_inverts_the_flat_stiffness(self, A, bottom, rng):
        # the gap is measured against |A| |x|, the size of the terms that
        # cancel in A x
        g = make_grid(24, 30, 2.0 * np.pi, 3.0)
        d = build_diffeomorphism(
            surface_from_values(g, np.zeros(g.n_y)), A=A, c0=0.5
        )
        op = EllipticOperator(d, bottom)
        r = rng.standard_normal((g.n_y, op._V.shape[0]))
        x = flat_strip_solve(r, op._C, op._V, op._inverse).ravel()
        gap = op._A_ff @ x - r.ravel()
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(abs(op._A_ff) @ np.abs(x))


class TestDirichletNeumann:
    def test_flat_surface_tanh_oracle(self):
        rel_errors = {}
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0, clustering="uniform")
            op = EllipticOperator(flat_diffeo(g))
            for k in (1, 2):
                flux = op.dirichlet_neumann(np.cos(k * g.y_nodes), 1e-12)
                exact = k * np.tanh(k * g.depth_H) * np.cos(k * g.y_nodes)
                rel_errors[(n, k)] = np.max(np.abs(flux - exact)) / k
        for k in (1, 2):
            assert rel_errors[(64, k)] < rel_errors[(32, k)] / 3.0
            assert rel_errors[(64, k)] < 5e-3

    def test_constant_data_zero_flux(self, uniform_grid):
        d = flat_diffeo(uniform_grid)
        flux = EllipticOperator(d).dirichlet_neumann(np.ones(uniform_grid.n_y), 1e-12)
        assert np.max(np.abs(flux)) < 1e-10

    def test_one_assembly_answers_every_question(self, grid, rng, monkeypatch):
        # a solve, the DN map, its form and its coercivity ratio on one
        # metric all read the one stiffness matrix the operator assembled
        calls = []
        assemble = elliptic.divergence_form_matrix
        monkeypatch.setattr(elliptic, "divergence_form_matrix",
                            lambda d: calls.append(d) or assemble(d))
        op = EllipticOperator(random_valid_metric(grid, rng))
        f = rng.standard_normal(grid.n_y)
        f -= f.mean()
        op.solve(f, 1e-10)
        flux = op.dirichlet_neumann(f, 1e-10)
        form = op.dn_quadratic_form(f, f, 1e-10)
        assert form == float(np.sum(flux * f) * grid.dy)
        assert dn_coercivity_ratio(op, f, 1e-10) > 0
        assert len(calls) == 1

    @pytest.mark.parametrize("value", [0.0, 0.7])
    def test_coercivity_ratio_rejects_constant_data(self, grid, rng, value):
        op = EllipticOperator(random_valid_metric(grid, rng))
        with pytest.raises(ConfigurationError, match="^f_b is constant"):
            dn_coercivity_ratio(op, np.full(grid.n_y, value), 1e-12)

    def test_self_adjointness(self, grid, rng):
        op = EllipticOperator(random_valid_metric(grid, rng))
        for _ in range(5):
            f = rng.standard_normal(grid.n_y)
            g2 = rng.standard_normal(grid.n_y)
            f -= f.mean()
            g2 -= g2.mean()
            ab = op.dn_quadratic_form(f, g2, 1e-13)
            ba = op.dn_quadratic_form(g2, f, 1e-13)
            assert abs(ab - ba) < 1e-9 * max(abs(ab), 1.0)

    def test_coercivity_positive_stable(self):
        def measured_c(g, seeds):
            worst = np.inf
            for seed in seeds:
                r = np.random.default_rng(seed)
                h = random_surface(g, r, amplitude=0.06, max_mode=6)
                op = EllipticOperator(build_diffeomorphism(h, A=None, c0=0.25))
                f = r.standard_normal(g.n_y)
                f -= f.mean()
                worst = min(worst, dn_coercivity_ratio(op, f, 1e-12))
            return worst

        g1 = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi)
        g2 = make_grid(64, 80, 2.0 * np.pi, 2.0 * np.pi)
        c1 = measured_c(g1, range(15))
        c2 = measured_c(g2, range(15))
        assert c1 > 0 and c2 > 0
        assert 0.8 <= c2 / c1 <= 1.25


class TestPressureDecomposition:
    def test_zero_state_all_zero(self, grid, flat_metric):
        v = Field(grid, np.zeros((2, grid.n_y, grid.n_z)))
        split = decompose_pressure(v, flat_metric, eps=0.1, g=1.0, sigma=1.0)
        for part in (split.qE, split.qNS, split.qS, split.q_total):
            assert np.max(np.abs(part.values)) < 1e-12

    def test_capillary_trace_exact_on_boundary_rows(self, grid, rng):
        from wavetank.elliptic import capillary_trace

        d = random_valid_metric(grid, rng, amplitude=0.06)
        v = smooth_vector(grid, rng, scale=0.1)
        sigma = 0.7
        split = decompose_pressure(v, d, eps=0.0, g=1.0, sigma=sigma)
        expected = capillary_trace(d.h, sigma)
        assert np.max(np.abs(split.qS.values[:, -1] - expected)) < 1e-13
        assert np.max(np.abs(split.qE.values[:, -1] - d.h.h_values)) < 1e-13

    def test_small_amplitude_separable_profiles(self):
        # v = 0, h = a cos(ky): qE ~ g a cos(ky) cosh(k(z+H))/cosh(kH),
        # qS ~ sigma a k^2 cos(ky) times the same bottom-Neumann profile
        g = make_grid(48, 64, 2.0 * np.pi, 2.0, clustering="uniform")
        a, k, grav, sigma = 1e-4, 2, 1.3, 0.8
        h = surface_from_values(g, a * np.cos(k * g.y_nodes))
        d = build_diffeomorphism(h, A=1.0, c0=0.5)
        v = Field(g, np.zeros((2, g.n_y, g.n_z)))
        split = decompose_pressure(v, d, eps=0.0, g=grav, sigma=sigma)
        profile = np.cosh(k * (g.z_nodes + g.depth_H)) / np.cosh(k * g.depth_H)
        mode = np.cos(k * g.y_nodes)[:, None] * profile[None, :]
        qE_exact = grav * a * mode
        qS_exact = sigma * a * k**2 * mode
        scale_E = np.max(np.abs(qE_exact))
        scale_S = np.max(np.abs(qS_exact))
        assert np.max(np.abs(split.qE.values - qE_exact)) / scale_E < 2e-2
        assert np.max(np.abs(split.qS.values - qS_exact)) / scale_S < 2e-2
        assert np.max(np.abs(split.qNS.values)) == 0.0

    def test_parts_match_three_explicit_solves(self, grid, rng):
        # each part, and the iteration total, is exactly one Dirichlet solve
        from wavetank.elliptic import (
            advection_term,
            capillary_trace,
            viscous_boundary_trace,
        )

        d = random_valid_metric(grid, rng, amplitude=0.05)
        v = smooth_vector(grid, rng, scale=0.1)
        eps, grav, sigma, tol = 1e-2, 1.3, 0.7, 1e-11
        split = decompose_pressure(v, d, eps=eps, g=grav, sigma=sigma, tol=tol)
        op = EllipticOperator(d)
        adv = advection_term(v, d)
        flux = (d.dzphi.values * adv[0], -d.grad_y_phi.values * adv[0] + adv[1])
        expected, total = [], 0
        for top, rhs in (
            (grav * d.h.h_values, flux),
            (viscous_boundary_trace(v, d, eps), None),
            (capillary_trace(d.h, sigma), None),
        ):
            q, its = op.solve(top, tol, flux_rhs=rhs)
            expected.append(q)
            total += its
        for part, q in zip((split.qE, split.qNS, split.qS), expected):
            assert np.array_equal(part.values, q)
        assert split.iterations == total
        assert total > 0 and np.any(split.qNS.values != 0.0)

    def test_superposition_against_combined_solve(self, grid, rng):
        tol = 1e-11
        for seed in range(5):
            r = np.random.default_rng(seed)
            d = random_valid_metric(grid, r, amplitude=0.05)
            v = smooth_vector(grid, r, scale=0.1)
            split = decompose_pressure(v, d, eps=1e-2, g=1.0, sigma=1.0, tol=tol)
            op = EllipticOperator(d)
            from wavetank.elliptic import (
                advection_term,
                capillary_trace,
                viscous_boundary_trace,
            )

            adv = advection_term(v, d)
            c = d.dzphi.values
            b = d.grad_y_phi.values
            combined_top = (
                1.0 * d.h.h_values
                + viscous_boundary_trace(v, d, 1e-2)
                + capillary_trace(d.h, 1.0)
            )
            q_direct, _ = op.solve(
                combined_top, tol, flux_rhs=(c * adv[0], -b * adv[0] + adv[1])
            )
            gap = l2_norm(grid, split.q_total.values - q_direct)
            scale = max(l2_norm(grid, q_direct), 1.0)
            assert gap / scale < 10.0 * tol


class TestQEInnerSplit:
    def test_zero_velocity(self, grid, curved_metric):
        v = Field(grid, np.zeros((2, grid.n_y, grid.n_z)))
        qE1, qE2 = qE_inner_split(v, curved_metric, g=1.0)
        assert np.max(np.abs(qE2.values)) < 1e-12
        assert np.max(np.abs(qE1.values[:, -1] - curved_metric.h.h_values)) < 1e-12

    def test_dual_source_assembly_fd_order(self):
        # for solenoidal v the flux-form and Tr((grad v)^2) sources agree
        errors = []
        for n in (32, 64):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
            d = flat_diffeo(g)
            k = 2
            psi = np.cos(k * g.y_nodes)[:, None] * np.exp(
                1.5 * (g.z_nodes + 0.3 * g.z_nodes**2 / g.depth_H)
            )[None, :]
            from wavetank.grid import (
                horizontal_derivative_values,
                vertical_derivative_values,
            )

            v1 = vertical_derivative_values(g, psi)
            v2 = -horizontal_derivative_values(g, psi)
            v = Field(g, np.stack([v1, v2]))
            from wavetank.elliptic import advection_term

            adv = advection_term(v, d)
            div_route = jacobian_phi(adv[0], d)[0] + jacobian_phi(adv[1], d)[1]
            j11 = jacobian_phi(v1, d)[0]
            j12 = jacobian_phi(v2, d)[0]
            j21 = jacobian_phi(v1, d)[1]
            j22 = jacobian_phi(v2, d)[1]
            trace_route = j11**2 + 2.0 * j12 * j21 + j22**2
            band = (g.z_nodes > -g.depth_H + 0.5) & (g.z_nodes < -0.3)
            errors.append(np.max(np.abs((div_route - trace_route)[:, band])))
        assert errors[1] < errors[0] / 2.5

    def test_split_matches_combined_solve(self, grid, rng):
        tol = 1e-11
        d = random_valid_metric(grid, rng, amplitude=0.05)
        v = smooth_vector(grid, rng, scale=0.1)
        qE1, qE2 = qE_inner_split(v, d, g=1.0, tol=tol)
        op = EllipticOperator(d)
        j11 = jacobian_phi(v.values[0], d)[0]
        j12 = jacobian_phi(v.values[1], d)[0]
        j21 = jacobian_phi(v.values[0], d)[1]
        j22 = jacobian_phi(v.values[1], d)[1]
        source = j11**2 + 2.0 * j12 * j21 + j22**2
        q_direct, _ = op.solve(1.0 * d.h.h_values, tol, rhs=source)
        gap = l2_norm(grid, qE1.values + qE2.values - q_direct)
        assert gap < 10.0 * tol * max(l2_norm(grid, q_direct), 1.0)


def test_cg_breakdown_is_a_solver_failure():
    # -I is negative definite, so the first p.Ap is -|b|^2; without the
    # check CG would step to x = -b and report convergence
    b = np.ones(5)
    with pytest.raises(SolverFailureError, match=r"^CG breakdown \(p.Ap = -5") as exc:
        _pcg(np.negative, b, None, np.copy, 1e-12)
    assert exc.value.iterations == 0
    assert exc.value.residual == np.linalg.norm(b)
