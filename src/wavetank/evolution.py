"""Semi-implicit time integration of the transformed free-surface system.

One step: half-step kinematic predictor for h, metric rebuild, explicit
advection in the V_z form, implicit viscous solve (strain form, weakly
traction-free top, no-slip bottom), a pressure kick with the surface trace
g h + 2 eps (S n).n - sigma kappa of the pressure held constant in z, and an
exact discrete projection, followed by the trapezoidal kinematic corrector.
The trace alone is exact: the projection removes G psi for every psi that
vanishes on top, so the pressure's interior never reaches the state.

The projection uses a gradient/divergence pair built from operators that
satisfy a summation-by-parts identity against the dV_t quadrature, so the
pressure work telescopes into boundary terms exactly and the semi-discrete
energy identity holds to solver tolerance; what remains in the measured
energy residual is time-discretization error.
"""

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, MetricValidityError, StepSizeError
from .grid import (
    Field,
    horizontal_derivative_values,
    integrate_boundary,
    integrate_dVt,
    vertical_derivative_values,
)
from .surface import (
    SurfaceState,
    build_diffeomorphism,
    extension_modes,
    surface_from_values,
)
from .operators import strain_phi
from .elliptic import _pcg, capillary_trace, viscous_boundary_trace
# not called by the stepper; the benchmark's tracer wraps it at this name
from .elliptic import decompose_pressure  # noqa: F401


# ---------------------------------------------------------------------------
# Sparse solver operators (cached per grid)

_OPS_CACHE = {}


def _grid_key(grid):
    return (
        grid.n_y,
        grid.n_z,
        grid.length_y,
        grid.depth_H,
        grid.clustering,
        grid.stretch_gamma,
    )


class SolverOps:
    """Sparse derivative matrices on flattened (n_y * n_z) vectors.

    dy_c:  centered periodic horizontal derivative (exactly antisymmetric).
    dz_sbp: wide-centered vertical derivative; with the trapezoid weights it
            satisfies W D + D^T W = boundary matrix exactly.
    dz_3pt: compact second-order vertical derivative (viscous strain).
    """

    def __init__(self, grid):
        ny, nz = grid.n_y, grid.n_z
        n = ny * nz
        dy = grid.dy
        e = np.ones(ny)
        Dy1 = sp.diags([e[:-1], -e[:-1]], [1, -1], shape=(ny, ny), format="lil")
        Dy1[0, -1] = -1.0
        Dy1[-1, 0] = 1.0
        self.dy_c = sp.kron(Dy1.tocsr() / (2.0 * dy), sp.identity(nz), format="csr")
        self.dz_sbp = sp.kron(
            sp.identity(ny), sp.csr_matrix(grid.sbp_derivative_matrix()), format="csr"
        )
        self.dz_3pt = sp.kron(
            sp.identity(ny), sp.csr_matrix(grid.vertical_derivative_matrix()), format="csr"
        )
        self.n = n
        idx = np.arange(ny) * nz
        self.bottom_idx = idx
        self.top_idx = idx + (nz - 1)
        interior = np.ones(n, dtype=bool)
        interior[self.bottom_idx] = False
        interior[self.top_idx] = False
        self.interior_mask = interior
        self.weights = (grid.dy * np.tile(grid.quadrature_weights_z, ny)).ravel()


def solver_ops(grid) -> SolverOps:
    key = _grid_key(grid)
    if key not in _OPS_CACHE:
        _OPS_CACHE[key] = SolverOps(grid)
    return _OPS_CACHE[key]


class MetricOps:
    """Metric-dependent gradient/divergence pair and viscous form.

    grad:  G = (1/c) P^T [dy_c; dz_sbp]  (two n x n blocks)
    div:   D = (1/c) [dy_c diag(c) - dz_sbp diag(b), dz_sbp]
    (the z blocks of G and D are the same matrix, G2)
    The pair is summation-by-parts exact against dV_t = c dy dz, so the
    least-squares projection below is energy-orthogonal to machine
    precision and zeroes the solver divergence on interior rows.
    """

    def __init__(self, grid, d):
        ops = solver_ops(grid)
        self.grid = grid
        self.ops = ops
        c = d.dzphi.values.ravel()
        b = d.grad_y_phi.values.ravel()
        inv_c = sp.diags(1.0 / c)
        self.c = c
        self.b = b
        self.G1 = (inv_c @ (sp.diags(c) @ ops.dy_c - sp.diags(b) @ ops.dz_sbp)).tocsr()
        self.G2 = (inv_c @ ops.dz_sbp).tocsr()
        self.D1 = (inv_c @ (ops.dy_c @ sp.diags(c) - ops.dz_sbp @ sp.diags(b))).tocsr()
        self._proj_matrix = None
        self._strain = None
        self._visc_cache = None

    def gradient(self, q):
        qf = np.ravel(q)
        return np.stack(
            [
                (self.G1 @ qf).reshape(self.grid.shape),
                (self.G2 @ qf).reshape(self.grid.shape),
            ]
        )

    # -- projection ----------------------------------------------------------

    def _projection_matrix(self):
        """Gram matrix of the gradient in the dV_t inner product, with the
        surface value of the potential pinned to zero (symmetric elimination)."""
        if self._proj_matrix is None:
            ops = self.ops
            Wc = sp.diags(self.c * ops.weights)
            P = (self.G1.T @ Wc @ self.G1 + self.G2.T @ Wc @ self.G2).tocsr()
            keep = np.ones(ops.n, dtype=bool)
            keep[ops.top_idx] = False
            keep_d = sp.diags(keep.astype(float))
            fix_d = sp.diags((~keep).astype(float))
            self._proj_matrix = (keep_d @ P @ keep_d + fix_d).tocsr()
            self._proj_keep = keep
        return self._proj_matrix

    def project(self, v, rtol=1e-12, x0=None, return_iterations=False):
        """dV_t-orthogonal projection of v onto the complement of gradients.

        Solves the normal equations (G^T W_c G) psi = G^T W_c v over
        potentials with psi = 0 at the surface; returns v - G psi.  The
        correction does no work on the result, the solver divergence
        vanishes on interior rows, and the bottom rows satisfy the weak
        no-penetration flux balance.
        """
        A = self._projection_matrix()
        ops = self.ops
        wc = self.c * ops.weights
        rhs = self.G1.T @ (wc * np.ravel(v[0])) + self.G2.T @ (wc * np.ravel(v[1]))
        rhs[~self._proj_keep] = 0.0
        if x0 is None:
            x0 = np.zeros(ops.n)
        scale = float(np.linalg.norm(rhs))
        psi, iters = _pcg(
            A,
            rhs,
            x0,
            rtol=rtol,
            atol=1e-16 * max(scale, 1.0),
            maxiter=max(800, 40 * int(np.sqrt(ops.n))),
        )
        corrected = v - self.gradient(psi)
        if return_iterations:
            return corrected, iters
        return corrected

    def divergence_residual(self, v):
        """L2 norm (plain weights) of the solver divergence on interior rows."""
        div = self.D1 @ np.ravel(v[0]) + self.G2 @ np.ravel(v[1])
        mask = self.ops.interior_mask
        w = self.ops.weights
        return float(np.sqrt(np.sum(w[mask] * div[mask] ** 2)))

    # -- viscous strain form ------------------------------------------------

    def strain_blocks(self):
        """Sparse (n x 2n) strain component operators (S11, S12, S22)."""
        if self._strain is None:
            ops = self.ops
            inv_c = sp.diags(1.0 / self.c)
            A1 = (ops.dy_c - sp.diags(self.b / self.c) @ ops.dz_3pt).tocsr()
            A2 = (inv_c @ ops.dz_3pt).tocsr()
            Z = sp.csr_matrix((ops.n, ops.n))
            S11 = sp.hstack([A1, Z], format="csr")
            S22 = sp.hstack([Z, A2], format="csr")
            S12 = 0.5 * sp.hstack([A2, A1], format="csr")
            self._strain = (S11, S12, S22)
        return self._strain

    def strain_dissipation(self, v, eps):
        """4 eps integral(|S v|^2) dV_t with the solver strain."""
        if eps == 0.0:
            return 0.0
        S11, S12, S22 = self.strain_blocks()
        u = np.concatenate([np.ravel(v[0]), np.ravel(v[1])])
        w = self.c * self.ops.weights
        val = (
            np.sum(w * (S11 @ u) ** 2)
            + np.sum(w * (S22 @ u) ** 2)
            + 2.0 * np.sum(w * (S12 @ u) ** 2)
        )
        return 4.0 * eps * float(val)

    def viscous_solve(self, v, eps, dt, rtol=1e-12):
        """Implicit step of c v_t = 2 eps div_phi(S_phi v) with no-slip bottom.

        The top boundary carries the natural (weakly traction-free)
        condition of the strain form.  The system is SPD and mass-dominated,
        so short conjugate-gradient solves suffice.
        """
        ops = self.ops
        n = ops.n
        if self._visc_cache is None or self._visc_cache[0] != (eps, dt):
            S11, S12, S22 = self.strain_blocks()
            Wc = sp.diags(self.c * ops.weights)
            K = (S11.T @ Wc @ S11 + S22.T @ Wc @ S22 + 2.0 * (S12.T @ Wc @ S12))
            mass = self.c * ops.weights
            M2 = sp.diags(np.concatenate([mass, mass]))
            A = (M2 + 2.0 * eps * dt * K).tocsr()
            keep = np.ones(2 * n, dtype=bool)
            keep[ops.bottom_idx] = False
            keep[ops.bottom_idx + n] = False
            keep_d = sp.diags(keep.astype(float))
            fix_d = sp.diags((~keep).astype(float))
            A_bc = (keep_d @ A @ keep_d + fix_d).tocsr()
            self._visc_cache = ((eps, dt), A_bc, keep)
        _, A_bc, keep = self._visc_cache
        mass = self.c * ops.weights
        rhs = np.concatenate([mass * np.ravel(v[0]), mass * np.ravel(v[1])])
        rhs[~keep] = 0.0
        x0 = np.where(keep, np.concatenate([np.ravel(v[0]), np.ravel(v[1])]), 0.0)
        sol, iters = _pcg(
            A_bc,
            rhs,
            x0,
            rtol=rtol,
            atol=1e-16 * max(float(np.linalg.norm(rhs)), 1.0),
            maxiter=max(800, 40 * int(np.sqrt(ops.n))),
        )
        out = np.stack(
            [sol[:n].reshape(self.grid.shape), sol[n:].reshape(self.grid.shape)]
        )
        return out, iters


_METRIC_OPS = weakref.WeakKeyDictionary()


def metric_ops(grid, d) -> MetricOps:
    """Per-diffeomorphism memo of the solver operator set."""
    if d not in _METRIC_OPS:
        _METRIC_OPS[d] = MetricOps(grid, d)
    return _METRIC_OPS[d]


# ---------------------------------------------------------------------------
# Flow state and step report

@dataclass(frozen=True, eq=False)
class FlowState:
    """Velocity, surface, metric, and physical parameters at one time."""

    t: float
    v: Field
    h: SurfaceState
    d: object
    eps: float
    g: float
    sigma: float
    A: float
    c0: float

    def __post_init__(self):
        if self.eps < 0 or self.g < 0 or self.sigma < 0:
            raise ConfigurationError("eps, g, sigma must all be >= 0")


@dataclass(frozen=True, eq=False)
class StepReport:
    dt: float
    projection_residual: float
    kinematic_residual: float
    tangential_stress_residual: float
    solver_iterations: int

    def __post_init__(self):
        vals = (
            self.projection_residual,
            self.kinematic_residual,
            self.tangential_stress_residual,
        )
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError("step report contains non-finite residuals")


def make_flow_state(grid, h_values, v_values, t=0.0, eps=0.0, g=1.0, sigma=1.0,
                    A=None, c0=0.25, project=True):
    """Assemble a FlowState, building the metric and optionally projecting v."""
    h = surface_from_values(grid, h_values)
    d = build_diffeomorphism(h, A=A, c0=c0)
    v = np.asarray(v_values, dtype=float)
    if v.shape != (2, grid.n_y, grid.n_z):
        raise ConfigurationError(f"velocity shape {v.shape} != (2, n_y, n_z)")
    if project:
        mops = metric_ops(grid, d)
        v = mops.project(v)
    return FlowState(
        t=float(t), v=Field(grid, v), h=h, d=d,
        eps=float(eps), g=float(g), sigma=float(sigma), A=d.A, c0=float(c0),
    )


def kinematic_rhs(v_values, d):
    """dt h = (P v)_2 at z = 0, i.e. v . N with the stored boundary slope."""
    b_top = d.grad_y_phi.values[:, -1]
    return v_values[1, :, -1] - b_top * v_values[0, :, -1]


def check_compatibility(state: FlowState, tol=1e-8):
    """Zeroth-order compatibility: tangential part of (S_phi v) n at z = 0.

    Advisory; returns a dict with the max residual and whether it passes.
    """
    s = strain_phi(state.v, state.d).values[..., -1]
    n1, n2 = state.d.n_boundary
    sn1 = s[0] * n1 + s[1] * n2
    sn2 = s[1] * n1 + s[2] * n2
    dot = sn1 * n1 + sn2 * n2
    t1, t2 = sn1 - dot * n1, sn2 - dot * n2
    residual = float(np.max(np.sqrt(t1 ** 2 + t2 ** 2)))
    return {"residual": residual, "tolerance": tol, "ok": residual <= tol}


def cfl_dt(state: FlowState, cfl_factor=0.5):
    """Stability bound: advective, capillary, and gravity-wave limits."""
    grid = state.v.grid
    v = state.v.values
    d = state.d
    limits = []
    vmax = float(np.max(np.abs(v[0])))
    if vmax > 0:
        limits.append(grid.dy / vmax)
    w = kinematic_rhs(v, d)
    eta_t = _extend_rate(state.h, w)
    vz = (v[1] - d.grad_y_phi.values * v[0] - eta_t) / d.dzphi.values
    vzmax = float(np.max(np.abs(vz)))
    if vzmax > 0:
        limits.append(grid.dz_min / vzmax)
    if state.sigma > 0:
        limits.append(float(np.sqrt(grid.dy ** 3 / state.sigma)))
    if state.g > 0:
        limits.append(float(np.sqrt(grid.dy / state.g)))
    if not limits:
        return np.inf
    return cfl_factor * min(limits)


def _extend_rate(h: SurfaceState, rate_values):
    """Interior extension of a surface rate (same cutoff as eta)."""
    rate_surface = surface_from_values(h.grid, rate_values)
    modes = extension_modes(rate_surface, z_derivative=0)
    return np.fft.irfft(modes, n=h.grid.n_y, axis=0)


def advance(state: FlowState, dt: float):
    """One semi-implicit step; returns (new_state, StepReport).

    The kick uses the pressure's surface trace only, which the projection
    makes exact (see the module docstring).  Bit-deterministic as a function
    of (state, dt): every iterative solve starts from a guess derived from
    the current state alone, so reruns and checkpoint restarts reproduce
    trajectories exactly.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    limit = cfl_dt(state, cfl_factor=1.0)
    if dt > limit * (1.0 + 1e-9):
        raise StepSizeError(f"dt = {dt:.3e} exceeds stability limit {limit:.3e}")
    grid = state.v.grid
    v0 = state.v.values
    h0 = state.h.h_values

    # (i) half-step kinematic predictor
    w0 = kinematic_rhs(v0, state.d)
    h_half = surface_from_values(grid, h0 + 0.5 * dt * w0)

    # (ii) rebuild the flattening map at the midpoint surface
    d_half = build_diffeomorphism(h_half, A=state.A, c0=state.c0)
    mops = metric_ops(grid, d_half)

    # (iii) explicit advection in the V_z form
    b = d_half.grad_y_phi.values
    c = d_half.dzphi.values
    eta_t = _extend_rate(h_half, w0)
    vz = (v0[1] - b * v0[0] - eta_t) / c
    adv = np.stack(
        [
            v0[0] * horizontal_derivative_values(grid, v0[0])
            + vz * vertical_derivative_values(grid, v0[0]),
            v0[0] * horizontal_derivative_values(grid, v0[1])
            + vz * vertical_derivative_values(grid, v0[1]),
        ]
    )
    v_adv = v0 - dt * adv

    # (iv) implicit viscous solve (skipped in the Euler limit)
    if state.eps > 0:
        v_visc, iters_visc = mops.viscous_solve(v_adv, state.eps, dt)
    else:
        v_visc, iters_visc = v_adv, 0

    # (v) pressure trace at the midpoint surface, lifted constant in z
    q_top = state.g * h_half.h_values
    if state.eps > 0:
        q_top = q_top + viscous_boundary_trace(Field(grid, v_visc), d_half, state.eps)
    q_top = q_top + capillary_trace(h_half, state.sigma)
    q = np.repeat(q_top[:, None], grid.n_z, axis=1)

    # (vi) kick and exact discrete projection
    v_kicked = v_visc - dt * mops.gradient(q)
    v_proj, iters_p1 = mops.project(v_kicked, return_iterations=True)

    # (vii) trapezoidal kinematic corrector
    w1 = kinematic_rhs(v_proj, d_half)
    h1 = surface_from_values(grid, h_half.h_values + 0.5 * dt * w1)

    # final metric and re-projection so the new state is solenoidal
    # against its own metric
    d1 = build_diffeomorphism(h1, A=state.A, c0=state.c0)
    mops1 = metric_ops(grid, d1)
    v1, iters_p2 = mops1.project(v_proj, return_iterations=True)

    new_state = FlowState(
        t=state.t + dt, v=Field(grid, v1), h=h1, d=d1,
        eps=state.eps, g=state.g, sigma=state.sigma, A=state.A, c0=state.c0,
    )

    # residual bookkeeping
    proj_res = mops1.divergence_residual(v1)
    # trapezoid rule against the endpoint states (w1 used the midpoint metric)
    w_end = kinematic_rhs(v1, d1)
    kin_res = float(
        np.max(np.abs((h1.h_values - h0) / dt - 0.5 * (w0 + w_end)))
    )
    s = strain_phi(Field(grid, v_visc), d_half).values[..., -1]
    n1, n2 = d_half.n_boundary
    sn1 = s[0] * n1 + s[1] * n2
    sn2 = s[1] * n1 + s[2] * n2
    dot = sn1 * n1 + sn2 * n2
    tang_res = float(np.max(np.sqrt((sn1 - dot * n1) ** 2 + (sn2 - dot * n2) ** 2)))

    report = StepReport(
        dt=dt,
        projection_residual=proj_res,
        kinematic_residual=kin_res,
        tangential_stress_residual=tang_res,
        solver_iterations=iters_visc + iters_p1 + iters_p2,
    )
    return new_state, report


# ---------------------------------------------------------------------------
# Energy bookkeeping and the run loop

@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Terms of the basic energy identity at one time.

    identity_residual is filled in by the diagnostics layer (it needs
    neighboring output levels for the time derivative) and is zero until
    then.
    """

    t: float
    kinetic: float
    gravitational: float
    capillary: float
    dissipation_rate: float
    identity_residual: float = 0.0

    def __post_init__(self):
        parts = (self.kinetic, self.gravitational, self.capillary,
                 self.dissipation_rate)
        if any(p < 0 or not np.isfinite(p) for p in parts):
            raise ConfigurationError("energy components must be finite and >= 0")
        if not np.isfinite(self.identity_residual):
            raise ConfigurationError("identity residual must be finite")

    @property
    def total(self):
        return self.kinetic + self.gravitational + self.capillary


def energy_report(state: FlowState) -> EnergyReport:
    grid = state.v.grid
    v = state.v.values
    kinetic = integrate_dVt(
        Field(grid, v[0] ** 2 + v[1] ** 2), state.d.dzphi
    )
    gravitational = state.g * integrate_boundary(grid, state.h.h_values ** 2)
    slope = state.h.slope()
    capillary = 2.0 * state.sigma * integrate_boundary(
        grid, np.sqrt(1.0 + slope ** 2) - 1.0
    )
    mops = metric_ops(grid, state.d)
    dissipation = mops.strain_dissipation(v, state.eps)
    return EnergyReport(
        t=state.t,
        kinetic=kinetic,
        gravitational=gravitational,
        capillary=capillary,
        dissipation_rate=dissipation,
    )


@dataclass
class Trajectory:
    """Stored output of one run: states and reports at output times."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    step_reports: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    failure: Exception = None

    def record(self, state, report=None):
        self.times.append(state.t)
        self.states.append(state)
        self.energy.append(energy_report(state))
        if report is not None:
            self.step_reports.append(report)

    @property
    def dt_output(self):
        if len(self.times) < 2:
            return None
        return self.times[1] - self.times[0]


def run(state: FlowState, t_final, dt=None, cfl_factor=0.5, output_every=1,
        on_step=None):
    """Integrate to t_final (or first failure), recording every output_every steps.

    dt = None picks the CFL step once at the start; the step is then held
    fixed so output times line up across runs.  The trajectory up to a
    failure is preserved on the Trajectory object.
    """
    if t_final <= state.t:
        raise ConfigurationError("t_final must exceed the starting time")
    if dt is None:
        dt = cfl_dt(state, cfl_factor=cfl_factor)
        if not np.isfinite(dt):
            dt = (t_final - state.t) / 100.0
    n_steps = max(1, int(np.ceil((t_final - state.t) / dt - 1e-12)))
    dt = (t_final - state.t) / n_steps
    traj = Trajectory()
    traj.record(state)
    current = state
    for step in range(1, n_steps + 1):
        try:
            current, report = advance(current, dt)
        except (MetricValidityError, StepSizeError) as exc:
            traj.failure = exc
            break
        if step % output_every == 0 or step == n_steps:
            traj.record(current, report)
        if on_step is not None:
            on_step(current, report)
    return traj
