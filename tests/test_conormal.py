import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank import conormal
from wavetank.conormal import (
    FieldHistory,
    MultiIndex,
    anisotropic_embedding_audit,
    apply_conormal,
    apply_z3,
    conormal_norm,
    random_smooth_field,
    trace_inequality_audit,
    z3_weight,
)
from wavetank.errors import ConfigurationError, HistoryDepthError
from wavetank.grid import (
    Field,
    horizontal_derivative_values,
    l2_norm,
    make_grid,
    vertical_derivative_values,
)
from wavetank.surface import tangential_sobolev_norm


class TestApplyConormal:
    def test_z3_on_z(self, grid):
        f = Field(grid, np.tile(grid.z_nodes, (grid.n_y, 1)))
        out = apply_conormal(f, MultiIndex(alpha=(0, 1)))
        expected = z3_weight(grid)[None, :]
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_constant_killed(self, grid):
        f = Field(grid, np.full(grid.shape, 4.2))
        for idx in (MultiIndex(alpha=(1, 0)), MultiIndex(alpha=(0, 1)),
                    MultiIndex(alpha=(1, 1))):
            out = apply_conormal(f, idx)
            assert np.max(np.abs(out.values)) < 1e-11

    def test_z3_squared_exponential_symbolic(self):
        # Z3(Z3 e^z) = w (w' + w) e^z with w = z/(1-z), w' = 1/(1-z)^2.
        # Interior rows are clean second order; the one-sided closure at the
        # bottom composes to first order, so measure it separately.
        interior_errors = []
        global_errors = []
        for n_z in (48, 96):
            g = make_grid(8, n_z, 2.0 * np.pi, 2.0, clustering="tanh")
            f = Field(g, np.tile(np.exp(g.z_nodes), (g.n_y, 1)))
            out = apply_conormal(f, MultiIndex(alpha=(0, 2)))
            z = g.z_nodes
            w = z / (1.0 - z)
            wp = 1.0 / (1.0 - z) ** 2
            exact = w * (wp + w) * np.exp(z)
            gap = np.abs(out.values - exact[None, :])
            interior_errors.append(np.max(gap[:, 3:]))
            global_errors.append(np.max(gap))
        assert interior_errors[0] / interior_errors[1] > 3.0
        assert global_errors[1] < global_errors[0]

    def test_z3_vanishes_at_surface(self, grid, rng):
        f = Field(grid, random_smooth_field(grid, rng))
        out = apply_z3(grid, f.values)
        assert np.max(np.abs(out[:, -1])) == 0.0

    def test_z_operators_commute(self, grid, rng):
        f = random_smooth_field(grid, rng)
        ab = horizontal_derivative_values(grid, apply_z3(grid, f))
        ba = apply_z3(grid, horizontal_derivative_values(grid, f))
        scale = np.max(np.abs(ab)) + 1e-30
        assert np.max(np.abs(ab - ba)) / scale < 1e-12

    def test_time_derivative_backward_difference(self, grid):
        shape_fn = np.cos(grid.y_nodes)[:, None] * np.exp(grid.z_nodes)[None, :]
        dt = 0.1
        levels = [(1.0 + 2.0 * (k * dt)) * shape_fn for k in range(3)]
        hist = FieldHistory(grid, levels, dt)
        out = apply_conormal(hist, MultiIndex(k=1))
        assert np.max(np.abs(out.values - 2.0 * shape_fn)) < 1e-10
        quad = [(k * dt) ** 2 * shape_fn for k in range(4)]
        hist2 = FieldHistory(grid, quad, dt)
        out2 = apply_conormal(hist2, MultiIndex(k=2))
        assert np.max(np.abs(out2.values - 2.0 * shape_fn)) < 1e-9

    def test_history_depth_error(self, grid):
        hist = FieldHistory(grid, [np.zeros(grid.shape)], 0.1)
        with pytest.raises(HistoryDepthError):
            apply_conormal(hist, MultiIndex(k=1))

    def test_bad_multi_index(self):
        with pytest.raises(ConfigurationError):
            MultiIndex(k=-1)
        with pytest.raises(ConfigurationError):
            MultiIndex(alpha=(1, -2))

    def test_non_integer_order_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiIndex(k=1.5)
        assert MultiIndex(k=np.int64(1)).k == 1


class TestConormalNorm:
    def test_zero_field_all_families(self, grid):
        f = Field(grid, np.zeros(grid.shape))
        zero_history = FieldHistory(grid, [np.zeros(grid.shape)] * 3, dt=0.1)
        for family in ("Hco", "Wco_inf"):
            assert conormal_norm(f, family, 2, s=0) == 0.0
        for family in ("Xms", "Yms"):
            assert conormal_norm(zero_history, family, 2, s=0) == 0.0

    def test_sine_against_quadrature_oracle(self, grid):
        f_values = np.tile(np.sin(grid.y_nodes)[:, None], (1, grid.n_z))
        f = Field(grid, f_values)
        measured = conormal_norm(f, "Hco", 1)
        # terms: ||sin y||^2 + ||cos y||^2 (Z3 term vanishes; no z variation)
        area = grid.length_y * grid.depth_H
        oracle = np.sqrt(area)  # sin^2 + cos^2 integrates to the area
        assert abs(measured - oracle) < 1e-10 * oracle

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           c=st.floats(-4, 4).filter(lambda v: abs(v) > 1e-3))
    def test_homogeneity(self, grid, seed, c):
        f = random_smooth_field(grid, np.random.default_rng(seed))
        base = conormal_norm(Field(grid, f), "Hco", 2)
        scaled = conormal_norm(Field(grid, c * f), "Hco", 2)
        assert abs(scaled - abs(c) * base) < 1e-9 * max(1.0, abs(c) * base)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_triangle_inequality(self, grid, seed):
        r = np.random.default_rng(seed)
        f = random_smooth_field(grid, r)
        g = random_smooth_field(grid, r)
        for family in ("Hco", "Wco_inf"):
            nf = conormal_norm(Field(grid, f), family, 1)
            ng = conormal_norm(Field(grid, g), family, 1)
            nfg = conormal_norm(Field(grid, f + g), family, 1)
            assert nfg <= nf + ng + 1e-9 * (nf + ng)

    def test_monotonicity_in_order(self, grid, rng):
        f = Field(grid, random_smooth_field(grid, rng))
        values = [conormal_norm(f, "Hco", s) for s in (0, 1, 2)]
        assert values[0] <= values[1] <= values[2]

    def test_xms_adds_tangential_layer(self, grid, rng):
        values = random_smooth_field(grid, rng)
        steady = FieldHistory(grid, [values, values], dt=0.1)
        x0 = conormal_norm(steady, "Xms", 1, s=0)
        x1 = conormal_norm(steady, "Xms", 1, s=1.0)
        assert x1 >= x0
        # with a steady history the time-derivative terms vanish, so
        # X^{1,0} collapses onto the co-normal norm
        h0 = conormal_norm(Field(grid, values), "Hco", 1)
        assert abs(x0 - h0) < 1e-12 * max(1.0, h0)

    @pytest.mark.parametrize("n_y, n_z", [(32, 40), (64, 80)])
    def test_hco_matches_the_tangential_multiplier_route(self, n_y, n_z):
        # Parseval: the s = 0 multiplier of H^s_tan is the plain L2 norm, so
        # the Fourier route is the reference for Hco's direct sum
        g = make_grid(n_y, n_z, 2.0 * np.pi, 2.0 * np.pi, clustering="tanh",
                      stretch_gamma=3.0)
        rng = np.random.default_rng(n_y)
        fields = (
            random_smooth_field(g, rng),
            np.stack([random_smooth_field(g, rng), rng.standard_normal(g.shape)]),
        )
        for values in fields:
            f = Field(g, values)
            reference = np.sqrt(sum(
                tangential_sobolev_norm(
                    g, apply_conormal(f, MultiIndex(alpha=(a1, tot - a1))).values, 0.0
                ) ** 2
                for tot in range(3)
                for a1 in range(tot + 1)
            ))
            measured = conormal_norm(f, "Hco", 2)
            assert abs(measured - reference) <= 1e-13 * reference

    def test_hco_rejects_nonzero_s(self, grid, rng):
        # Hco is the plain L2 sum; a nonzero s would be recorded but ignored
        f = Field(grid, random_smooth_field(grid, rng))
        with pytest.raises(ConfigurationError):
            conormal_norm(f, "Hco", 2, s=1)

    def test_xms_insufficient_history(self, grid, rng):
        f = Field(grid, random_smooth_field(grid, rng))
        with pytest.raises(HistoryDepthError):
            conormal_norm(f, "Xms", 1)

    @pytest.mark.parametrize("m", [-1, 1.5, "2"])
    def test_rejects_bad_order(self, grid, rng, m):
        f = Field(grid, random_smooth_field(grid, rng))
        with pytest.raises(ConfigurationError):
            conormal_norm(f, "Hco", m)

    @pytest.mark.parametrize("s", [0.5, -1, float("nan"), float("inf")])
    def test_sup_families_reject_non_integer_s(self, grid, s):
        hist = FieldHistory(grid, [np.zeros(grid.shape)] * 2, dt=0.1)
        for family in ("Wco_inf", "Yms"):
            with pytest.raises(ConfigurationError):
                conormal_norm(hist, family, 1, s=s)

    def test_each_derivative_built_once(self, grid, rng, monkeypatch):
        # Hco at m = 2 needs d_y f, d_y^2 f, Z3 f, Z3 d_y f and Z3^2 f: each
        # one generator applied to an earlier entry, two d_y and three Z3
        calls = {"d_y": 0, "z3": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(conormal, "horizontal_derivative_values",
                            counted("d_y", conormal.horizontal_derivative_values))
        monkeypatch.setattr(conormal, "apply_z3", counted("z3", conormal.apply_z3))
        conormal_norm(Field(grid, random_smooth_field(grid, rng)), "Hco", 2)
        assert calls == {"d_y": 2, "z3": 3}

    @pytest.mark.parametrize("family, s", [
        ("Hco", 0), ("Wco_inf", 0), ("Wco_inf", 1),
        ("Xms", 0), ("Xms", 1), ("Yms", 0), ("Yms", 1),
    ])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_sum_over_single_indices(self, grid, rng, family, s, m):
        levels = [
            np.stack([random_smooth_field(grid, rng), random_smooth_field(grid, rng)])
            for _ in range(3)
        ]
        hist = FieldHistory(grid, levels, dt=0.1)
        max_k = m if family in ("Xms", "Yms") else 0
        total = 0.0
        for tot in range(m + 1):
            for k in range(min(tot, max_k) + 1):
                for a1 in range(tot - k + 1):
                    idx = MultiIndex(k=k, alpha=(a1, tot - k - a1))
                    zf = apply_conormal(hist, idx).values
                    if family == "Hco":
                        total += l2_norm(grid, zf) ** 2
                    elif family == "Xms":
                        total += tangential_sobolev_norm(grid, zf, s) ** 2
                    else:
                        for comp in zf:
                            for a in range(s + 1):
                                for b in range(s + 1 - a):
                                    d = comp
                                    for _ in range(a):
                                        d = horizontal_derivative_values(grid, d)
                                    for _ in range(b):
                                        d = vertical_derivative_values(grid, d)
                                    total += np.max(np.abs(d))
        measured = conormal_norm(hist, family, m, s)
        if family in ("Hco", "Xms"):
            assert measured == np.sqrt(total)
        else:
            assert abs(measured - total) <= 1e-14 * total


class TestTraceAndEmbedding:
    def test_trace_constant_stable_under_refinement(self):
        # one continuum corpus, evaluated on nested grids
        from wavetank.conormal import evaluate_smooth_field, smooth_field_params

        params = [smooth_field_params(np.random.default_rng(s)) for s in range(12)]
        cs = []
        for n in (24, 48):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
            corpus = [evaluate_smooth_field(g, p) for p in params]
            cs.append(trace_inequality_audit(g, corpus, s=1.0, s1=1.0, s2=1.0))
        assert all(np.isfinite(c) and c > 0 for c in cs)
        assert 0.8 <= cs[1] / cs[0] <= 1.25

    def test_embedding_constant_stable_under_refinement(self):
        from wavetank.conormal import evaluate_smooth_field, smooth_field_params

        params = [smooth_field_params(np.random.default_rng(s)) for s in range(12)]
        cs = []
        for n in (24, 48):
            g = make_grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
            corpus = [evaluate_smooth_field(g, p) for p in params]
            cs.append(anisotropic_embedding_audit(g, corpus, s1=2.0, s2=1.0))
        assert all(np.isfinite(c) and c > 0 for c in cs)
        assert 0.8 <= cs[1] / cs[0] <= 1.25

    def test_embedding_needs_supercritical_orders(self, grid):
        with pytest.raises(ConfigurationError):
            anisotropic_embedding_audit(grid, [], s1=1.0, s2=1.0)

    def test_embedding_constant_case(self, grid):
        const = np.full(grid.shape, 2.0)
        # finite L-inf and tangential norms; zero d_z makes the ratio
        # degenerate, so the audit skips it rather than reporting infinity
        assert np.isfinite(tangential_sobolev_norm(grid, const, 1.0))
        assert anisotropic_embedding_audit(grid, [const], s1=2.0, s2=1.0) == 0.0

    def test_embedding_homogeneity_degree_two(self, grid, rng):
        f = random_smooth_field(grid, rng)
        c1 = anisotropic_embedding_audit(grid, [f])
        c2 = anisotropic_embedding_audit(grid, [2.0 * f])
        assert abs(c1 - c2) < 1e-9 * max(1.0, c1)

    def test_trace_audit_validates_exponents(self, grid):
        with pytest.raises(ConfigurationError):
            trace_inequality_audit(grid, [], s=1.0, s1=1.0, s2=0.5)


@pytest.mark.parametrize("bad, message", [
    (lambda g: FieldHistory(g, [], dt=1.0), "^history needs at least one level"),
    (lambda g: conormal_norm(np.ones(g.shape), "Hco", 1),
     "^expected Field or FieldHistory, got <class 'numpy.ndarray'>"),
    (lambda g: conormal_norm(Field(g, np.ones(g.shape)), "H1", 1),
     "^unknown norm family 'H1'"),
    (lambda g: FieldHistory(g, [np.zeros((3, 3))], dt=1.0),
     r"^field shape \(3, 3\) does not match grid"),
    (lambda g: FieldHistory(g, [np.zeros(g.shape), np.zeros((2,) + g.shape)], dt=1.0),
     r"^history levels differ in shape"),
    (lambda g: FieldHistory(g, [np.full(g.shape, np.nan)], dt=1.0),
     "^field contains non-finite values"),
], ids=["empty-history", "raw-array", "unknown-family", "level-shape", "mixed-levels",
        "non-finite-level"])
def test_guards_name_their_input(grid, bad, message):
    with pytest.raises(ConfigurationError, match=message):
        bad(grid)
