"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also asserts, so a plain pytest run enforces every criterion.
"""

import numpy as np
import pytest
import sympy

from wavetank.config import SimulationConfig, initial_state
from wavetank.conormal import (
    anisotropic_embedding_audit,
    evaluate_smooth_field,
    smooth_field_params,
    trace_inequality_audit,
    MultiIndex,
    apply_z3,
)
from wavetank.diagnostics import (
    epsilon_sweep,
    korn_audit,
    linear_frequency,
    measured_frequency,
)
from wavetank.elliptic import (
    EllipticOperator,
    decompose_pressure,
    dn_coercivity_ratio,
)
from wavetank.evolution import make_flow_state, run
from wavetank.grid import (
    Field,
    horizontal_derivative_values,
    l2_norm,
    make_grid,
    vertical_derivative_values,
)
from wavetank.operators import (
    commutator_residual,
    div_phi,
    div_phi_matrix,
    grad_phi,
    grad_phi_matrix,
    laplacian_phi_composed,
)
from wavetank.persist import save_checkpoint, restore_checkpoint, write_series_csv
from wavetank.surface import (
    build_diffeomorphism,
    extension_gain_audit,
    random_surface,
    surface_from_values,
)
from conftest import analytic_metric, random_valid_metric, smooth_scalar, smooth_vector


def verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def standing_wave(g, a=1e-3, eps=0.0):
    return make_flow_state(
        g, a * np.cos(g.y_nodes), np.zeros((2, g.n_y, g.n_z)), eps=eps
    )


def wave_period(g):
    omega = linear_frequency(2.0 * np.pi / g.length_y, 1.0, 1.0, g.depth_H)
    return 2.0 * np.pi / omega, omega


def residual_max(traj):
    ts = np.asarray(traj.times)
    E = np.array([e.total for e in traj.energy])
    D = np.array([e.dissipation_rate for e in traj.energy])
    return float(np.max(np.abs((E[2:] - E[:-2]) / (ts[2:] - ts[:-2]) + D[1:-1])))


def test_criterion_01_operator_cross_validation():
    g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        d = random_valid_metric(g, rng)
        f = smooth_scalar(g, rng)
        v = smooth_vector(g, rng)

        def gap(x, y):
            scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1.0)
            return np.max(np.abs(x - y)) / scale

        worst = max(worst, gap(grad_phi(f, d).values, grad_phi_matrix(f, d).values))
        worst = max(worst, gap(div_phi(v, d).values, div_phi_matrix(v, d).values))
        worst = max(
            worst,
            gap(
                div_phi(grad_phi(f, d), d).values,
                laplacian_phi_composed(f, d).values,
            ),
        )
    # flat reduction
    d0 = build_diffeomorphism(surface_from_values(g, np.zeros(g.n_y)), A=1.0, c0=0.5)
    f = smooth_scalar(g, rng)
    v = smooth_vector(g, rng)
    flat_gap = max(
        np.max(np.abs(grad_phi(f, d0).values[0] - horizontal_derivative_values(g, f.values))),
        np.max(np.abs(grad_phi(f, d0).values[1] - vertical_derivative_values(g, f.values))),
        np.max(np.abs(
            div_phi(v, d0).values
            - horizontal_derivative_values(g, v.values[0])
            - vertical_derivative_values(g, v.values[1])
        )),
    )
    verdict(
        1,
        worst < 1e-12 and flat_gap < 1e-12,
        f"dual-route gap {worst:.2e}, flat reduction gap {flat_gap:.2e} (tol 1e-12)",
    )


def test_criterion_02_elliptic_solver_order():
    y_s, z_s = sympy.symbols("y z")
    delta = 0.12
    H = 2.0 * np.pi
    eta_s = delta * sympy.cos(y_s) * sympy.exp(2 * z_s)
    c_s = 1 + sympy.diff(eta_s, z_s)
    b_s = sympy.diff(eta_s, y_s)
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
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]

    # superposition and maximum principle on a random corpus
    g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi)
    rng = np.random.default_rng(7)
    tol = 1e-11
    super_ok, max_ok = True, True
    for seed in range(10):
        d = random_valid_metric(g, np.random.default_rng(seed))
        op = EllipticOperator(d)
        f1 = rng.standard_normal(g.n_y)
        f2 = rng.standard_normal(g.n_y)
        q1 = op.solve(f1, tol)[0]
        q2 = op.solve(f2, tol)[0]
        q12 = op.solve(2.0 * f1 - 0.5 * f2, tol)[0]
        if np.max(np.abs(q12 - 2.0 * q1 + 0.5 * q2)) > 100 * tol:
            super_ok = False
        if np.max(np.abs(q1)) > np.max(np.abs(f1)) + 1e-8:
            max_ok = False
    ok = min(orders) >= 1.8 and super_ok and max_ok
    verdict(
        2,
        ok,
        f"manufactured orders {orders[0]:.2f}, {orders[1]:.2f} (>= 2 expected); "
        f"superposition {'ok' if super_ok else 'violated'}; "
        f"max principle {'ok' if max_ok else 'violated'}",
    )


def test_criterion_03_pressure_decomposition():
    g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
    tol = 1e-11
    worst = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        d = random_valid_metric(g, r, amplitude=0.05)
        v = smooth_vector(g, r, scale=0.1)
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
        combined = (
            d.h.h_values
            + viscous_boundary_trace(v, d, 1e-2)
            + capillary_trace(d.h, 1.0)
        )
        direct = op.solve(
            combined, tol, flux_rhs=(c * adv[0], -b * adv[0] + adv[1])
        )[0]
        gap = l2_norm(g, split.q_total.values - direct)
        worst = max(worst, gap / max(l2_norm(g, direct), 1.0))
    verdict(3, worst <= 10 * tol, f"max |q_total - direct| = {worst:.2e} (tol {10 * tol:.0e})")


def test_criterion_04_energy_identity():
    g = make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
    period, _ = wave_period(g)
    residuals = []
    for nsub in (60, 120, 240):
        traj = run(standing_wave(g), t_final=period, dt=period / nsub)
        assert traj.failure is None
        residuals.append(residual_max(traj))
    r12 = residuals[0] / residuals[1]
    r23 = residuals[1] / residuals[2]
    p = int(round(np.log2(r12)))
    factor = 2.0**p
    ratios_ok = abs(r12 - factor) <= 0.3 * factor and abs(r23 - factor) <= 0.3 * factor

    drift_traj = run(
        standing_wave(g), t_final=5 * period, dt=period / 240, output_every=8
    )
    assert drift_traj.failure is None
    E = np.array([e.total for e in drift_traj.energy])
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    verdict(
        4,
        ratios_ok and drift <= 0.01,
        f"refinement ratios {r12:.2f}, {r23:.2f} vs 2^p={factor:.0f} (30% window); "
        f"5-period drift at finest dt {drift:.2e} (<= 1%)",
    )


def test_criterion_05_dispersion_oracle():
    g = make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
    period, omega = wave_period(g)
    traj = run(standing_wave(g, a=1e-3), t_final=5 * period, dt=period / 80)
    assert traj.failure is None
    amp = [np.real(np.fft.rfft(s.h.h_values)[1]) for s in traj.states]
    measured = measured_frequency(traj.times, amp)
    rel = abs(measured - omega) / omega
    verdict(5, rel < 0.02, f"omega measured {measured:.5f} vs theory {omega:.5f} ({rel:.2%})")


def test_criterion_06_dirichlet_neumann():
    rel_errors = {}
    for n in (32, 64):
        g = make_grid(n, n, 2.0 * np.pi, 2.0, clustering="uniform")
        d = build_diffeomorphism(
            surface_from_values(g, np.zeros(g.n_y)), A=1.0, c0=0.5
        )
        k = 2
        flux = EllipticOperator(d).dirichlet_neumann(np.cos(k * g.y_nodes), 1e-12)
        exact = k * np.tanh(k * g.depth_H) * np.cos(k * g.y_nodes)
        rel_errors[n] = np.max(np.abs(flux - exact)) / k
    fd_ok = rel_errors[64] < rel_errors[32] / 3.0 and rel_errors[64] < 5e-3

    g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi)
    coercive = []
    sym_gap = 0.0
    for seed in range(30):
        r = np.random.default_rng(seed)
        h = random_surface(g, r, amplitude=0.06, max_mode=6)
        op = EllipticOperator(build_diffeomorphism(h, A=None, c0=0.25))
        f = r.standard_normal(g.n_y)
        f -= f.mean()
        coercive.append(dn_coercivity_ratio(op, f, 1e-12))
        g2 = r.standard_normal(g.n_y)
        g2 -= g2.mean()
        ab = op.dn_quadratic_form(f, g2, 1e-13)
        ba = op.dn_quadratic_form(g2, f, 1e-13)
        sym_gap = max(sym_gap, abs(ab - ba) / max(abs(ab), 1.0))
    c_measured = min(coercive)
    verdict(
        6,
        fd_ok and c_measured > 0 and sym_gap < 1e-8,
        f"flat DN rel err {rel_errors[64]:.2e} (refining), coercivity c "
        f"{c_measured:.3f} > 0 over 30 pairs, symmetry gap {sym_gap:.1e}",
    )


def test_criterion_07_extension_regularity_gain():
    coarse = make_grid(32, 48, 2.0 * np.pi, 2.0 * np.pi)
    fine = make_grid(64, 48, 2.0 * np.pi, 2.0 * np.pi)
    gains_c = extension_gain_audit(coarse, np.random.default_rng(5))
    gains_f = extension_gain_audit(fine, np.random.default_rng(5))
    bounded = all(np.isfinite(gains_c[s]) for s in (0, 1, 2))
    nongrowing = all(gains_f[s] <= gains_c[s] * 1.1 for s in (0, 1, 2))
    verdict(
        7,
        bounded and nongrowing,
        "ratios " + ", ".join(f"s={s}: {gains_c[s]:.2f}" for s in (0, 1, 2))
        + " (non-growing under refinement)",
    )


def test_criterion_08_korn_trace_embedding_audits():
    params = [smooth_field_params(np.random.default_rng(s)) for s in range(12)]
    vec_params = [
        (smooth_field_params(np.random.default_rng(s)),
         smooth_field_params(np.random.default_rng(s + 50)))
        for s in range(8)
    ]
    stats = {}
    for label, n in (("coarse", 24), ("fine", 48)):
        g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
        corpus = [evaluate_smooth_field(g, p) for p in params]
        h = surface_from_values(
            g, 0.05 * np.cos(g.y_nodes) + 0.03 * np.sin(2 * g.y_nodes)
        )
        d = build_diffeomorphism(h, A=None, c0=0.25)
        korn_corpus = [
            (
                Field(g, 0.3 * np.stack([
                    evaluate_smooth_field(g, p1), evaluate_smooth_field(g, p2)
                ])),
                d,
            )
            for p1, p2 in vec_params
        ]
        stats[label] = dict(
            korn=korn_audit(korn_corpus),
            trace=trace_inequality_audit(g, corpus, s=1.0, s1=1.0, s2=1.0),
            embed=anisotropic_embedding_audit(g, corpus, s1=2.0, s2=1.0),
        )
    ok = True
    for key in ("korn", "trace", "embed"):
        c, f = stats["coarse"][key], stats["fine"][key]
        if not (np.isfinite(c) and np.isfinite(f) and 0.8 <= f / c <= 1.2):
            ok = False
    verdict(
        8,
        ok,
        "constants (coarse->fine) "
        + ", ".join(
            f"{k}: {stats['coarse'][k]:.3f}->{stats['fine'][k]:.3f}"
            for k in ("korn", "trace", "embed")
        )
        + " all stable within 20%",
    )


def test_criterion_09_commutator_identity():
    # m = 1: trilinear-exact assembly telescopes to the operator difference
    g = make_grid(32, 40, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh")
    rng = np.random.default_rng(13)
    worst_m1 = 0.0
    for _ in range(5):
        d = random_valid_metric(g, rng)
        f = smooth_scalar(g, rng)
        res = commutator_residual(f, MultiIndex(alpha=(0, 1)), 3, d)
        c = d.dzphi.values
        u = 1.0 / c
        dzf = vertical_derivative_values(g, f.values)
        z3 = lambda arr: apply_z3(g, arr)
        tri = z3(u * dzf) - z3(u) * dzf - u * z3(dzf)
        term2 = z3(u) * dzf
        term3 = u * (z3(dzf) - vertical_derivative_values(g, z3(f.values)))
        assembled = tri + term2 + term3
        scale = max(np.max(np.abs(res.values)), 1.0)
        worst_m1 = max(worst_m1, np.max(np.abs(assembled - res.values)) / scale)

    # m = 2: Leibniz-expanded assembly agrees at FD order under refinement
    gaps = []
    for n in (24, 48, 96):
        gg = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi, clustering="uniform")
        d = analytic_metric(gg)
        f = Field(
            gg,
            np.cos(2 * gg.y_nodes)[:, None]
            * np.exp(gg.z_nodes)[None, :]
            * np.ones(gg.shape),
        )
        res = commutator_residual(f, MultiIndex(alpha=(0, 2)), 3, d)
        c = d.dzphi.values
        u = 1.0 / c
        z3 = lambda arr: apply_z3(gg, arr)
        dz = lambda arr: vertical_derivative_values(gg, arr)
        dzf = dz(f.values)
        assembled = (
            2.0 * z3(u) * z3(dzf)
            + z3(z3(u)) * dzf
            + u * (z3(z3(dzf)) - dz(z3(z3(f.values))))
        )
        gaps.append(np.max(np.abs(assembled - res.values)) / np.max(np.abs(res.values)))
    fd_ok = gaps[1] < gaps[0] / 2.5 and gaps[2] < gaps[1] / 2.5
    verdict(
        9,
        worst_m1 < 1e-10 and fd_ok,
        f"m=1 gap {worst_m1:.1e} (tol 1e-10); m=2 Leibniz gaps "
        f"{gaps[0]:.1e} -> {gaps[1]:.1e} -> {gaps[2]:.1e} (FD order)",
    )


def test_criterion_10_inviscid_limit_sweep():
    config = SimulationConfig(
        n_y=32, n_z=72, stretch_gamma=3.5, amplitude=1e-3, preset="standing_wave"
    )
    period, _ = wave_period(make_grid(32, 72, 2.0 * np.pi, 2.0 * np.pi))
    eps_list = [1e-2, 1e-3, 1e-4, 0.0]
    result = epsilon_sweep(
        lambda eps: initial_state(config, eps=eps),
        eps_list,
        t_final=2.0 * period,
        dt=0.04,
    )
    all_finish = result.complete
    sups = [result.sup_v_l2[eps] for eps in eps_list[:-1]]
    strictly_decreasing = all(a > b for a, b in zip(sups, sups[1:]))
    conormals = [result.conormal_max[eps] for eps in eps_list]
    conormal_ratio = max(conormals) / min(conormals)
    amp_vals = [result.layer_amplitude[eps] for eps in eps_list[:-1]]
    amp_spread = max(amp_vals) / min(amp_vals)

    # stretched profiles collapse (relative L2 after sqrt(eps) normalization)
    # and decay away from the surface
    zgrid = np.linspace(-8.0, 0.0, 60)
    normalized = {}
    decay_ok = True
    for eps in eps_list[:-1]:
        zeta, prof = result.profiles[eps]
        normalized[eps] = np.interp(zgrid, zeta, prof) / np.sqrt(eps)
        i10 = np.argmin(np.abs(zeta + 10.0))
        if prof[i10] > 0.05 * prof[-1]:
            decay_ok = False
    a, b = normalized[1e-3], normalized[1e-4]
    collapse = float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b**2)))
    collapse_ok = collapse < 0.30

    ok = (
        all_finish and strictly_decreasing and conormal_ratio < 2.0
        and amp_spread <= 2.0 and collapse_ok and decay_ok
    )
    verdict(
        10,
        ok,
        f"all runs finished: {all_finish}; sup_t|v_eps - v_0| = "
        + ", ".join(f"{s:.2e}" for s in sups)
        + f" (strictly decreasing: {strictly_decreasing}); co-normal spread "
        f"{conormal_ratio:.2f}x (< 2x); layer amp/sqrt(eps) spread "
        f"{amp_spread:.2f}x (<= 2x); profile collapse {collapse:.2f} rel L2 "
        f"(< 0.30); decay beyond the layer {decay_ok}",
    )


def test_criterion_11_determinism_and_persistence(tmp_path):
    g = make_grid(16, 24, 2.0 * np.pi, 2.0 * np.pi)
    csvs = []
    for rep in range(2):
        st = standing_wave(g, eps=1e-3)
        traj = run(st, t_final=0.2, dt=0.02)
        assert traj.failure is None
        path = tmp_path / f"series_{rep}.csv"
        write_series_csv(path, traj)
        csvs.append(path.read_bytes())
    reruns_identical = csvs[0] == csvs[1]

    st = standing_wave(g, eps=1e-3)
    full = run(st, t_final=0.2, dt=0.02)
    mid = full.states[4]
    snap = tmp_path / "mid.wtk"
    save_checkpoint(snap, mid)
    resumed = run(restore_checkpoint(snap), t_final=0.2, dt=0.02)
    restart_equal = all(
        np.array_equal(a.v.values, b.v.values)
        and np.array_equal(a.h.h_values, b.h.h_values)
        for a, b in zip(resumed.states, full.states[4:])
    )
    verdict(
        11,
        reruns_identical and restart_equal,
        f"byte-identical reruns: {reruns_identical}; "
        f"checkpoint/restart equality at every output step: {restart_equal}",
    )
