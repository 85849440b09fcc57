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

The projection and viscous operators are applied matrix-free and solved by
conjugate gradients preconditioned with the exact inverse of the same
operator on the flat strip (h = 0), which is separable: the iteration count
depends on the surface's amplitude, not on the grid size.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eig_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import (
    ConfigurationError,
    MetricValidityError,
    SolverFailureError,
    StepSizeError,
)
from .grid import (
    Field,
    chain_basis,
    fourier_basis,
    horizontal_derivative_values,
    integrate_boundary,
    integrate_dVt,
    vertical_derivative_values,
)
from .surface import (
    SurfaceState,
    build_diffeomorphism,
    cutoff_lift,
    surface_from_values,
)
from .operators import dual_areas, strain_phi
from .elliptic import _pcg, capillary_trace, surface_traction_parts
from .elliptic import flat_strip_solve
# not called by the stepper; the benchmark's tracer wraps it at this name
from .elliptic import decompose_pressure  # noqa: F401

# the time step's relative tolerance of its CG solves (elliptic._pcg)
STEP_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Solver operators (grid matrices and flat-metric factors cached per grid)

_OPS_CACHE = {}


def _block_diagonal(X, n_blocks):
    """n_blocks copies of the banded square X down the diagonal, stored by
    diagonal straight from X: entry j of stored diagonal k is X[j - k, j]
    on column j of one block, zero where row j - k leaves the block, and
    the block's diagonals are tiled.  The offsets ascend, so each row of a
    matvec adds its terms in column order, as CSR does."""
    m = X.shape[0]
    rows, cols = np.nonzero(X)
    offsets = np.unique(cols - rows)
    j = np.arange(m)
    i = j - offsets[:, None]
    data = np.where((i >= 0) & (i < m), X[i % m, j], 0.0)
    n = m * n_blocks
    return sp.dia_matrix((np.tile(data, n_blocks), offsets), shape=(n, n))


class SolverOps:
    """Derivative matrices on flattened (n_y * n_z) vectors, stored by
    diagonal and built from their 1-D stencils (dz_sbp_t and dz_3pt_t are
    the transposes), and the factors of the flat-metric operators that
    precondition the metric solves.

    dy_c:  centered periodic horizontal derivative (exactly antisymmetric).
    dz_sbp: wide-centered vertical derivative; with the trapezoid weights it
            satisfies W D + D^T W = boundary matrix exactly.
    dz_3pt: compact second-order vertical derivative (viscous strain), built
            with its transpose on first use: only a viscous run applies it.

    On the flat strip (c = A, b = 0) dy_c is circulant, so in the real
    Fourier basis C in y both solver operators split into vertical systems
    per basis column.  dy_c maps column i of wavenumber k to its partner
    column (cos ky to -sigma sin ky, sin ky to sigma cos ky), with
    sigma[i] = sin(k dy) / dy, zero on the Nyquist column: the viscous
    systems, with u on column i and w on its partner interleaved as
    (u_j, w_j), are banded and factored.  dy_c^T dy_c never couples even
    and odd y-nodes, so the Gram systems are two identical periodic chains
    of n_y / 2 nodes, which the chain's real Fourier basis and one banded z
    eigenbasis diagonalize.
    """

    def __init__(self, grid):
        ny, nz = grid.n_y, grid.n_z
        n = ny * nz
        dy = grid.dy
        r = 1.0 / (2.0 * dy)
        self.dy_c = sp.dia_matrix(
            (np.full((4, n), [[r], [-r], [r], [-r]]), [-(n - nz), -nz, nz, n - nz]),
            shape=(n, n),
        )
        D = grid.sbp_derivative_matrix()
        self.dz_sbp, self.dz_sbp_t = _block_diagonal(D, ny), _block_diagonal(D.T, ny)
        self.grid = grid
        # the surface and bottom rows of a flattened field; n_y n_z is a
        # multiple of n_z, so bottom also covers both components of a
        # stacked (2n) velocity
        self.top = slice(nz - 1, None, nz)
        self.bottom = slice(0, None, nz)
        self.weights = dual_areas(grid).ravel()

        # sigma = 0 exactly on the Nyquist column, which dy_c annihilates
        sigma = np.sin(grid.wavenumbers * dy) / dy
        sigma[-1] = 0.0
        self.sigma = sigma
        # flat Gram operator on the non-top rows of chain basis column i:
        # dy (A s_i W_z + L / A), with s_i = sin^2(k_i dy) / dy^2 the symbol
        # of dy_c^T dy_c on the chain and L = Dz_sbp^T W_z Dz_sbp; each row
        # of Dz_sbp spans at most three nodes, so W_z^(-1/2) L W_z^(-1/2) =
        # Q diag(lam) Q^T is pentadiagonal and eig_banded takes its bands
        self._chain_symbol = (np.sin(grid.wavenumbers[:ny // 2] * dy) / dy) ** 2
        wz = grid.quadrature_weights_z
        L = (D.T @ (wz[:, None] * D))[:-1, :-1]
        s = 1.0 / np.sqrt(wz[:-1])
        S = s[:, None] * L * s[None, :]
        lam, Q = eig_banded(
            np.array([np.append(np.diagonal(S, -k), np.zeros(k)) for k in range(3)]),
            lower=True,
        )
        self._gram_vectors = s[:, None] * Q
        self._gram_values = lam
        self._gram_inverse = None
        self._viscous_factor = None

    @cached_property
    def dz_3pt(self):
        return _block_diagonal(self.grid.vertical_derivative_matrix(), self.grid.n_y)

    @cached_property
    def dz_3pt_t(self):
        return _block_diagonal(self.grid.vertical_derivative_matrix().T, self.grid.n_y)

    def flat_gram_solve(self, r, A):
        """Exact inverse of the pinned flat-metric Gram operator (top rows
        pass through) on the (n_y / 2, 2 n_z) view of r, whose halves are
        the even and odd y-chains: dy_c^T dy_c x = (2 x_j - x_{j+2} -
        x_{j-2}) / (4 dy^2).  The inverse spectrum is computed once per A."""
        grid = self.grid
        if self._gram_inverse is None or self._gram_inverse[0] != A:
            denominator = grid.dy * (
                A * self._chain_symbol[:, None] + self._gram_values[None, :] / A
            )
            self._gram_inverse = (A, np.repeat(1.0 / denominator, 2, axis=0))
        r = r.reshape(grid.n_y // 2, 2, grid.n_z)
        return flat_strip_solve(r, chain_basis(grid), self._gram_vectors,
                                self._gram_inverse[1]).ravel()

    def flat_viscous_solve(self, r, A, tau):
        """Exact inverse of the pinned flat-metric viscous operator: one
        real banded solve over all columns of the real Fourier basis in y.
        dy_c maps each column to its partner, so u on column i couples only
        to w on the partner column.  Block i, with unknowns interleaved as
        (u_j, w_j) and bottom rows pinned, is

            R + s_i sigma_i J + sigma_i^2 diag(m),  m = tau [W, W / 2],
            R = W + tau [[L3 / 2, 0], [0, L3]],   J = tau / 2 [[0, D3^T W], [W D3, 0]],

        s_i = +1 on cos columns and -1 on sin columns, W = A dy W_z,
        D3 = dz_3pt / A, L3 = D3^T W D3.  Once per (A, tau) the bands of R
        and J are read off by diagonal and one banded Cholesky factors every
        block: the blocks follow one another on the diagonal, so the band
        entries between them are zero."""
        grid = self.grid
        ny, nz = grid.n_y, grid.n_z
        if self._viscous_factor is None or self._viscous_factor[0] != (A, tau):
            W = A * grid.dy * grid.quadrature_weights_z
            D3 = grid.vertical_derivative_matrix() / A
            L3 = D3.T @ (W[:, None] * D3)
            R = np.zeros((2 * nz, 2 * nz))
            R[0::2, 0::2] = np.diag(W) + 0.5 * tau * L3
            R[1::2, 1::2] = np.diag(W) + tau * L3
            J = np.zeros((2 * nz, 2 * nz))
            J[0::2, 1::2] = 0.5 * tau * (D3.T * W[None, :])
            m = np.stack([tau * W, 0.5 * tau * W], axis=1).ravel()
            # no-slip bottom: u_0 and w_0 pinned
            R[:2] = R[:, :2] = J[:2] = J[:, :2] = m[:2] = 0.0
            R[0, 0] = R[1, 1] = 1.0
            J[1::2, 0::2] = J[0::2, 1::2].T
            rows, cols = np.nonzero(R + J)
            kd = int(np.max(np.abs(cols - rows)))
            Rb, Jb = (np.array([np.append(np.zeros(e), np.diagonal(X, e))
                                for e in range(kd, -1, -1)]) for X in (R, J))
            s_sigma = self.sigma.copy()
            s_sigma[2::2] *= -1.0
            bands = np.empty((kd + 1, ny * 2 * nz), order="F")
            blocks = bands.reshape(kd + 1, ny, 2 * nz)
            blocks[:] = Rb[:, None] + s_sigma[:, None] * Jb[:, None]
            blocks[kd] += self.sigma[:, None] ** 2 * m
            factor, info = dpbtrf(bands, lower=0, overwrite_ab=1)
            if info != 0:
                column = (info - 1) // (2 * nz)
                raise SolverFailureError(
                    f"banded Cholesky of the flat viscous operator failed "
                    f"at mode {(column + 1) // 2} (info {info})"
                )
            self._viscous_factor = ((A, tau), factor)
        # block i holds u on column i and w on its partner, interleaved
        C = fourier_basis(grid)
        partner = np.arange(ny)
        partner[1:-1:2] += 1
        partner[2:-1:2] -= 1
        coefficients = C.T @ r.reshape(2, ny, nz)
        b = np.stack([coefficients[0], coefficients[1, partner]], axis=-1)
        x = dpbtrs(self._viscous_factor[1], b.ravel(), lower=0)[0].reshape(ny, nz, 2)
        return (C @ np.stack([x[..., 0], x[partner, :, 1]])).ravel()


def solver_ops(grid) -> SolverOps:
    key = (grid.n_y, grid.n_z, grid.length_y, grid.depth_H, grid.clustering,
           grid.stretch_gamma)
    if key not in _OPS_CACHE:
        _OPS_CACHE[key] = SolverOps(grid)
    return _OPS_CACHE[key]


class MetricOps:
    """Metric-dependent gradient/divergence pair and viscous form, applied
    matrix-free from the fixed grid matrices and the metric vectors
    c = dz_phi, b = dy_phi (flattened).

    grad:  G q = [dy_c q - (b/c) dz_sbp q, dz_sbp q / c]
    div:   D v = (dy_c (c v1) + dz_sbp (v2 - b v1)) / c
    strain: A1 = dy_c - (b/c) dz_3pt and A2 = dz_3pt / c build
            S11 = A1 v1, S22 = A2 v2, S12 = (A2 v1 + A1 v2) / 2.
    The pair is summation-by-parts exact against dV_t = c dy dz, so the
    least-squares projection below is energy-orthogonal to machine
    precision and zeroes the solver divergence on interior rows.  Both
    solves run conjugate gradients preconditioned by the exact inverse of
    the same operator on the flat strip (c = A, b = 0), which is separable
    (SolverOps); the iteration count then depends on the surface's
    amplitude, not on the grid size.
    """

    def __init__(self, d):
        ops = solver_ops(d.grid)
        self.grid = d.grid
        self.ops = ops
        self.A = d.A
        self.c = d.dzphi.values.ravel()
        self.b = d.grad_y_phi.values.ravel()
        self.slope = self.b / self.c
        self.wc = self.c * ops.weights

    def _pair(self, dz, u):
        """(dy_c u - (b/c) dz u, dz u / c) for a vertical derivative matrix dz."""
        g = dz @ u
        return self.ops.dy_c @ u - self.slope * g, g / self.c

    def _pair_t(self, dz_t, y1, y2):
        """The transpose of _pair applied to [y1; y2]; dy_c is antisymmetric."""
        return dz_t @ (y2 / self.c - self.slope * y1) - self.ops.dy_c @ y1

    def gradient(self, q):
        g1, g2 = self._pair(self.ops.dz_sbp, np.ravel(q))
        return np.stack([g1.reshape(self.grid.shape), g2.reshape(self.grid.shape)])

    # -- projection ----------------------------------------------------------

    @cached_property
    def _gram_coefficients(self):
        """alpha = w (1 + b^2) / c, beta = w b, gamma = w c; on first use."""
        w = self.ops.weights
        return w * (1.0 + self.b ** 2) / self.c, w * self.b, self.wc

    @cached_property
    def _stacked_mass(self):
        """W_c on both components of a stacked (2n) velocity; on first use."""
        return np.concatenate([self.wc, self.wc])

    def gram(self, psi):
        """G^T W_c G psi with the surface value of psi pinned (identity rows),
        expanded as Dz^T (alpha Dz - beta Dy) - Dy (gamma Dy - beta Dz)."""
        ops = self.ops
        alpha, beta, gamma = self._gram_coefficients
        x = psi.copy()
        x[ops.top] = 0.0
        gz, gy = ops.dz_sbp @ x, ops.dy_c @ x
        out = ops.dz_sbp_t @ (alpha * gz - beta * gy)
        out -= ops.dy_c @ (gamma * gy - beta * gz)
        out[ops.top] = psi[ops.top]
        return out

    def project(self, v, return_iterations=False):
        """dV_t-orthogonal projection of v onto the complement of gradients.

        Solves the normal equations (G^T W_c G) psi = G^T W_c v over
        potentials with psi = 0 at the surface; returns v - G psi.  The
        correction does no work on the result, the solver divergence
        vanishes on interior rows, and the bottom rows satisfy the weak
        no-penetration flux balance.  The Gram operator is applied
        matrix-free and preconditioned by its flat-metric inverse, which
        the real Fourier basis in y and one z eigenbasis diagonalize.
        """
        ops = self.ops
        rhs = self._pair_t(ops.dz_sbp_t, self.wc * np.ravel(v[0]),
                           self.wc * np.ravel(v[1]))
        rhs[ops.top] = 0.0
        A = self.A
        psi, iters = _pcg(
            self.gram, rhs, None, lambda r: ops.flat_gram_solve(r, A), STEP_RTOL
        )
        corrected = v - self.gradient(psi)
        if return_iterations:
            return corrected, iters
        return corrected

    def divergence_residual(self, v):
        """L2 norm (plain weights) of the solver divergence on interior rows."""
        ops, shape = self.ops, self.grid.shape
        v1, v2 = np.ravel(v[0]), np.ravel(v[1])
        div = (ops.dy_c @ (self.c * v1) + ops.dz_sbp @ (v2 - self.b * v1)) / self.c
        w = ops.weights.reshape(shape)[:, 1:-1].ravel()
        div = div.reshape(shape)[:, 1:-1].ravel()
        return float(np.sqrt(np.sum(w * div ** 2)))

    # -- viscous strain form ------------------------------------------------

    def _strain(self, u1, u2):
        """(S11, S12, S22) of the solver strain on flattened components."""
        s11, d3u1 = self._pair(self.ops.dz_3pt, u1)
        d1u2, s22 = self._pair(self.ops.dz_3pt, u2)
        return s11, 0.5 * (d3u1 + d1u2), s22

    def _strain_form(self, u1, u2):
        """K u = (S11^T W_c S11 + S22^T W_c S22 + 2 S12^T W_c S12) u."""
        dz_t = self.ops.dz_3pt_t
        s11, s12, s22 = self._strain(u1, u2)
        y11, y12, y22 = self.wc * s11, self.wc * s12, self.wc * s22
        return self._pair_t(dz_t, y11, y12), self._pair_t(dz_t, y12, y22)

    def strain_dissipation(self, v, eps):
        """4 eps integral(|S v|^2) dV_t with the solver strain."""
        s11, s12, s22 = self._strain(np.ravel(v[0]), np.ravel(v[1]))
        val = np.sum(self.wc * (s11 ** 2 + s22 ** 2 + 2.0 * s12 ** 2))
        return 4.0 * eps * float(val)

    def viscous_operator(self, u, eps, dt):
        """(M + 2 eps dt K) u on the stacked (2n) velocity, no-slip bottom
        rows pinned (identity rows)."""
        bottom = self.ops.bottom
        x = u.copy()
        x[bottom] = 0.0
        k1, k2 = self._strain_form(*x.reshape(2, -1))
        out = self._stacked_mass * x
        out += 2.0 * eps * dt * np.concatenate([k1, k2])
        out[bottom] = u[bottom]
        return out

    def viscous_solve(self, v, eps, dt):
        """Implicit step of c v_t = 2 eps div_phi(S_phi v) with no-slip bottom.

        The top boundary carries the natural (weakly traction-free)
        condition of the strain form.  The system is SPD and mass-dominated;
        it is applied matrix-free and preconditioned by its flat-metric
        inverse, one real banded Cholesky factor over all columns of the
        real Fourier basis in y, factored once per (grid, A, eps dt).
        """
        ops = self.ops
        u = np.ravel(v)
        rhs = self._stacked_mass * u
        rhs[ops.bottom] = 0.0
        x0 = u.copy()
        x0[ops.bottom] = 0.0
        A, tau = self.A, 2.0 * eps * dt
        sol, iters = _pcg(
            lambda x: self.viscous_operator(x, eps, dt),
            rhs,
            x0,
            lambda r: ops.flat_viscous_solve(r, A, tau),
            STEP_RTOL,
        )
        return sol.reshape(2, *self.grid.shape), iters


def metric_ops(d) -> MetricOps:
    """The solver operator set of one metric, built afresh on every call."""
    return MetricOps(d)


# ---------------------------------------------------------------------------
# Flow state and step report

@dataclass(frozen=True, eq=False)
class FlowState:
    """Velocity, surface and physical parameters at one time.

    The metric d, built from (h, A, c0), the surface velocity w = dt h and
    its interior lift eta_t are not stored: each is built on first use and
    kept until the state is dropped.  The builds are deterministic, so a
    rebuilt metric is bit-identical to the one the run stepped with.
    """

    t: float
    v: Field
    h: SurfaceState
    eps: float
    g: float
    sigma: float
    A: float
    c0: float

    def __post_init__(self):
        params = (self.t, self.eps, self.g, self.sigma, self.A, self.c0)
        if not all(math.isfinite(p) for p in params):
            raise ConfigurationError("t, eps, g, sigma, A, c0 must all be finite")
        if self.eps < 0 or self.g < 0 or self.sigma < 0:
            raise ConfigurationError("eps, g, sigma must all be >= 0")
        if self.A <= 0 or self.c0 <= 0:
            raise ConfigurationError("A and c0 must both be > 0")

    @cached_property
    def d(self):
        return build_diffeomorphism(self.h, A=self.A, c0=self.c0)

    @cached_property
    def w(self):
        return kinematic_rhs(self.v.values, self.d)

    @cached_property
    def eta_t(self):
        return cutoff_lift(self.v.grid, self.w)


def _with_metric(state, d):
    """state with its metric cache seeded by d, the metric of (h, A, c0)."""
    vars(state)["d"] = d
    return state


@dataclass(frozen=True, eq=False)
class StepReport:
    """Residuals and conjugate-gradient iterations of one step, per solve:
    the viscous solve, the projection at the midpoint metric and the
    re-projection at the new metric."""

    dt: float
    projection_residual: float
    kinematic_residual: float
    tangential_stress_residual: float
    viscous_iterations: int
    projection_iterations: int
    reprojection_iterations: int

    def __post_init__(self):
        vals = (
            self.projection_residual,
            self.kinematic_residual,
            self.tangential_stress_residual,
        )
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError("step report contains non-finite residuals")

    @property
    def solver_iterations(self):
        return (
            self.viscous_iterations
            + self.projection_iterations
            + self.reprojection_iterations
        )


def make_flow_state(grid, h_values, v_values, t=0.0, eps=0.0, g=1.0, sigma=1.0,
                    A=None, c0=0.25, project=True):
    """Assemble a FlowState, building the metric and optionally projecting v."""
    h = surface_from_values(grid, h_values)
    d = build_diffeomorphism(h, A=A, c0=c0)
    v = np.asarray(v_values, dtype=float)
    if v.shape != (2, grid.n_y, grid.n_z):
        raise ConfigurationError(f"velocity shape {v.shape} != (2, n_y, n_z)")
    if project:
        v = metric_ops(d).project(v)
    state = FlowState(
        t=float(t), v=Field(grid, v), h=h,
        eps=float(eps), g=float(g), sigma=float(sigma), A=d.A, c0=float(c0),
    )
    return _with_metric(state, d)


def kinematic_rhs(v_values, d):
    """dt h = (P v)_2 at z = 0, i.e. v . N with the stored boundary slope."""
    b_top = d.grad_y_phi.values[:, -1]
    return v_values[1, :, -1] - b_top * v_values[0, :, -1]


def check_compatibility(state: FlowState):
    """Zeroth-order compatibility: tangential part of (S_phi v) n at z = 0.

    Advisory; returns a dict with the max residual and whether it passes
    the tolerance 1e-8.
    """
    s_top = strain_phi(state.v, state.d).values[..., -1]
    _, tangential = surface_traction_parts(s_top, state.d)
    residual = float(np.max(tangential))
    return {"residual": residual, "tolerance": 1e-8, "ok": residual <= 1e-8}


def cfl_dt(state: FlowState, cfl_factor=0.5):
    """Stability bound: advective, capillary, and gravity-wave limits, times
    a cfl_factor in (0, 1] (advance refuses a dt above the bound at 1)."""
    if not (math.isfinite(cfl_factor) and 0 < cfl_factor <= 1):
        raise ConfigurationError(
            f"cfl_factor must be finite and > 0 and at most 1, got {cfl_factor}"
        )
    grid = state.v.grid
    v = state.v.values
    d = state.d
    limits = []
    vmax = float(np.max(np.abs(v[0])))
    if vmax > 0:
        limits.append(grid.dy / vmax)
    vz = (v[1] - d.grad_y_phi.values * v[0] - state.eta_t) / d.dzphi.values
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


def resolve_dt(state: FlowState, t_final, dt, cfl_factor):
    """dt, or when it is None the CFL step of state (a hundredth of the
    remaining span when no limit applies)."""
    if dt is None:
        dt = cfl_dt(state, cfl_factor=cfl_factor)
        if not np.isfinite(dt):
            dt = (t_final - state.t) / 100.0
    return dt


def advance(state: FlowState, dt: float):
    """One semi-implicit step; returns (new_state, StepReport).

    The kick uses the pressure's surface trace only, which the projection
    makes exact (see the module docstring).  Bit-deterministic as a function
    of (state, dt): every iterative solve starts from a guess derived from
    the current state alone, so reruns and checkpoint restarts reproduce
    trajectories exactly.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be finite and > 0, got {dt}")
    limit = cfl_dt(state, cfl_factor=1.0)
    if dt > limit * (1.0 + 1e-9):
        raise StepSizeError(f"dt = {dt:.3e} exceeds stability limit {limit:.3e}")
    grid = state.v.grid
    v0 = state.v.values
    h0 = state.h.h_values

    # (i) half-step kinematic predictor
    w0 = state.w
    h_half = surface_from_values(grid, h0 + 0.5 * dt * w0)

    # (ii) rebuild the flattening map at the midpoint surface
    d_half = build_diffeomorphism(h_half, A=state.A, c0=state.c0)
    mops = metric_ops(d_half)

    # (iii) explicit advection in the V_z form
    b = d_half.grad_y_phi.values
    c = d_half.dzphi.values
    vz = (v0[1] - b * v0[0] - state.eta_t) / c
    adv = (
        v0[0] * horizontal_derivative_values(grid, v0)
        + vz * vertical_derivative_values(grid, v0)
    )
    v_adv = v0 - dt * adv

    # (iv) implicit viscous solve (skipped in the Euler limit)
    if state.eps > 0:
        v_visc, iters_visc = mops.viscous_solve(v_adv, state.eps, dt)
    else:
        v_visc, iters_visc = v_adv, 0

    # (v) pressure trace at the midpoint surface, lifted constant in z; the
    # surface strain also gives the tangential-stress residual
    s_top = strain_phi(Field(grid, v_visc), d_half).values[..., -1]
    snn, tangential = surface_traction_parts(s_top, d_half)
    q_top = state.g * h_half.h_values
    if state.eps > 0:
        q_top = q_top + 2.0 * state.eps * snn
    q_top = q_top + capillary_trace(h_half, state.sigma)

    # (vi) kick and exact discrete projection: q is constant in z, so its
    # vertical derivative vanishes and only the first component moves, by
    # dt dy_c q, the periodic centered difference of q_top
    dq = np.empty(grid.n_y)
    dq[1:-1] = q_top[2:] - q_top[:-2]
    dq[0], dq[-1] = q_top[1] - q_top[-1], q_top[0] - q_top[-2]
    v_kicked = v_visc.copy()
    v_kicked[0] -= (dt / (2.0 * grid.dy)) * dq[:, None]
    v_proj, iters_p1 = mops.project(v_kicked, return_iterations=True)

    # (vii) trapezoidal kinematic corrector
    w1 = kinematic_rhs(v_proj, d_half)
    h1 = surface_from_values(grid, h_half.h_values + 0.5 * dt * w1)

    # final metric and re-projection so the new state is solenoidal
    # against its own metric
    d1 = build_diffeomorphism(h1, A=state.A, c0=state.c0)
    mops1 = metric_ops(d1)
    v1, iters_p2 = mops1.project(v_proj, return_iterations=True)

    new_state = _with_metric(
        dataclasses.replace(state, t=state.t + dt, v=Field(grid, v1), h=h1), d1
    )

    # residual bookkeeping
    proj_res = mops1.divergence_residual(v1)
    # trapezoid rule against the endpoint states (w1 used the midpoint
    # metric); the next step reuses new_state.w as its own w0
    kin_res = float(
        np.max(np.abs((h1.h_values - h0) / dt - 0.5 * (w0 + new_state.w)))
    )

    report = StepReport(
        dt=dt,
        projection_residual=proj_res,
        kinematic_residual=kin_res,
        tangential_stress_residual=float(np.max(tangential)),
        viscous_iterations=iters_visc,
        projection_iterations=iters_p1,
        reprojection_iterations=iters_p2,
    )
    return new_state, report


# ---------------------------------------------------------------------------
# Energy bookkeeping and the run loop

@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Terms of the basic energy identity at one time."""

    t: float
    kinetic: float
    gravitational: float
    capillary: float
    dissipation_rate: float

    def __post_init__(self):
        parts = (self.kinetic, self.gravitational, self.capillary,
                 self.dissipation_rate)
        if any(p < 0 or not np.isfinite(p) for p in parts):
            raise ConfigurationError("energy components must be finite and >= 0")

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
    dissipation = 0.0  # the Euler limit builds no solver operators
    if state.eps > 0:
        dissipation = metric_ops(state.d).strain_dissipation(v, state.eps)
    return EnergyReport(
        t=state.t,
        kinetic=kinetic,
        gravitational=gravitational,
        capillary=capillary,
        dissipation_rate=dissipation,
    )


@dataclass
class Trajectory:
    """Stored output of one run: states (without their metrics) and reports
    at output times."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    step_reports: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    failure: Exception = None

    def record(self, state, report=None):
        """Store state without its metric; the energy terms are read from
        the live state, which holds it."""
        self.times.append(state.t)
        self.states.append(dataclasses.replace(state))
        self.energy.append(energy_report(state))
        if report is not None:
            self.step_reports.append(report)


def run(state: FlowState, t_final, dt, output_every=1, on_step=None):
    """Integrate to t_final (or first failure), recording every output_every steps.

    dt is shortened so a whole number of steps ends at t_final, then held
    fixed so output times line up across runs.  The trajectory up to a
    failure is preserved on the Trajectory object.
    """
    for name, value in (("t_final", t_final), ("dt", dt)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be positive and finite, got {value}")
    if t_final <= state.t:
        raise ConfigurationError("t_final must exceed the starting time")
    if not (isinstance(output_every, numbers.Integral) and output_every >= 1):
        raise ConfigurationError(
            f"output_every must be an integer >= 1, got {output_every}"
        )
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
