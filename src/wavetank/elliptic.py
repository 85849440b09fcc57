"""Variable-coefficient elliptic Dirichlet solves and the pressure split.

All solves share one symmetric stiffness matrix per metric (divergence form,
cell-averaged E) and a Jacobi-preconditioned conjugate-gradient loop with a
deterministic iteration budget.  The Dirichlet-Neumann operator is the weak
boundary flux of the same matrix, so its discrete bilinear form is exactly
symmetric.  The time stepper's projection and viscous solves reuse the
conjugate-gradient loop with their own flat-metric preconditioner, so
Jacobi serves only the FE elliptic and Dirichlet-Neumann solves.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, MetricValidityError, SolverFailureError
from .grid import Field
from .operators import (
    MetricMatrices,
    divergence_form_matrix,
    dual_areas,
    dphi_values,
    flux_load,
    strain_phi,
)
from .surface import cutoff_lift, surface_geometry


def iteration_budget(grid):
    return int(np.ceil(10.0 * np.sqrt(grid.n_y * grid.n_z)))


def _pcg(A, b, x0, rtol, atol, maxiter, precondition=None):
    """Preconditioned conjugate gradients; returns (x, iterations).

    A is a sparse matrix or a function applying the SPD operator.
    precondition applies an SPD approximation of the inverse of A; without
    one the solve is Jacobi-preconditioned, which needs A as a matrix.  The
    stopping rule is on the unpreconditioned residual.
    """
    if precondition is None:
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise SolverFailureError("non-positive diagonal in SPD solve")
        inv_diag = 1.0 / diag

        def precondition(r):
            return inv_diag * r

    apply = A if callable(A) else A.__matmul__
    x = x0.copy()
    r = b - apply(x)
    bnorm = np.linalg.norm(b)
    target = max(atol, rtol * bnorm)
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(maxiter):
        rnorm = np.linalg.norm(r)
        if rnorm <= target:
            return x, it
        Ap = apply(p)
        denom = float(p @ Ap)
        if denom <= 0:
            raise SolverFailureError(
                f"CG breakdown (p.Ap = {denom:.3e})", residual=rnorm, iterations=it
            )
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return x, maxiter
    raise SolverFailureError(
        f"CG did not converge in {maxiter} iterations (residual {rnorm:.3e}, "
        f"target {target:.3e})",
        residual=rnorm,
        iterations=maxiter,
    )


@dataclass
class EllipticProblem:
    """One Dirichlet solve: -div(E grad q) = rhs (+ div F), q|top given.

    rhs is the plain source of -Delta_phi q = rhs (it gets weighted by
    dz_phi in the weak load); flux_rhs supplies a right-hand side already in
    divergence form, as (F1, F2) with -div(E grad q) = div F.
    """

    metric: MetricMatrices
    dirichlet_top: np.ndarray
    rhs: np.ndarray = None
    flux_rhs: tuple = None
    bottom_condition: str = "neumann_zero"

    def __post_init__(self):
        if self.bottom_condition not in ("neumann_zero", "dirichlet_zero"):
            raise ConfigurationError(
                f"bottom condition must be neumann_zero or dirichlet_zero, "
                f"got {self.bottom_condition!r}"
            )
        if self.metric.min_eigenvalue() <= 0:
            raise MetricValidityError(
                "coefficient matrix E is not positive definite",
                observed_min=self.metric.min_eigenvalue(),
            )
        for arr in (self.rhs, self.dirichlet_top):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ConfigurationError("elliptic data contains non-finite values")


class EllipticOperator:
    """Assembled stiffness for one metric, reused across several solves."""

    def __init__(self, grid, metric: MetricMatrices):
        self.grid = grid
        self.metric = metric
        self.A = divergence_form_matrix(grid, metric.E11, metric.E12, metric.E22)
        self.dual = dual_areas(grid)
        nz = grid.n_z
        self.top_idx = np.arange(grid.n_y) * nz + (nz - 1)
        self.bottom_idx = np.arange(grid.n_y) * nz
        self._interior_cache = {}

    def _interior(self, bottom_condition):
        key = bottom_condition
        if key not in self._interior_cache:
            n = self.grid.n_y * self.grid.n_z
            mask = np.ones(n, dtype=bool)
            mask[self.top_idx] = False
            if bottom_condition == "dirichlet_zero":
                mask[self.bottom_idx] = False
            free = np.where(mask)[0]
            A_ff = self.A[free][:, free].tocsr()
            A_fd = self.A[free][:, self.top_idx].tocsr()
            self._interior_cache[key] = (free, A_ff, A_fd)
        return self._interior_cache[key]

    def solve(self, problem: EllipticProblem, tol, x0=None):
        """Returns (solution array (n_y, n_z), iterations)."""
        g = self.grid
        n = g.n_y * g.n_z
        load = np.zeros(n)
        if problem.rhs is not None:
            load += (
                np.asarray(problem.rhs, float) * self.metric.dzphi * self.dual
            ).ravel()
        if problem.flux_rhs is not None:
            load += flux_load(g, *problem.flux_rhs)

        free, A_ff, A_fd = self._interior(problem.bottom_condition)
        x = np.zeros(n)
        x[self.top_idx] = problem.dirichlet_top
        b_f = load[free] - A_fd @ problem.dirichlet_top
        x0_f = np.zeros(free.size) if x0 is None else np.ravel(x0)[free]
        sol_f, iters = _pcg(
            A_ff,
            b_f,
            x0_f,
            rtol=tol,
            atol=max(tol * 1e-3, 1e-14),
            maxiter=iteration_budget(g),
        )
        x[free] = sol_f
        return x.reshape(g.shape), iters

    def boundary_flux(self, q_values):
        """Weak conormal flux at z = 0, divided by dy to give nodal values.

        For a discrete solution of the homogeneous problem this is the
        Dirichlet-Neumann image (grad f)^b . N.
        """
        return (self.A @ np.ravel(q_values))[self.top_idx] / self.grid.dy


def solve_elliptic(problem: EllipticProblem, tol, operator=None) -> Field:
    """Solve one EllipticProblem to the given relative tolerance."""
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    op = operator or EllipticOperator(problem.metric.grid, problem.metric)
    values, _ = op.solve(problem, tol)
    return Field(op.grid, values)


# ---------------------------------------------------------------------------
# Dirichlet-Neumann operator

def dirichlet_neumann(d, f_b, tol=1e-10):
    """G[h] f_b = (grad f)^b . N for the harmonic extension of f_b.

    Harmonic in the physical domain means div(E grad f) = 0 on the strip;
    the conormal flux of that problem at z = 0 is exactly (grad f)^b . N.
    Bottom closure is homogeneous Neumann.
    """
    metric = MetricMatrices(d)
    op = EllipticOperator(d.grid, metric)
    problem = EllipticProblem(metric=metric, dirichlet_top=np.asarray(f_b, float))
    q, _ = op.solve(problem, tol)
    return op.boundary_flux(q)


def dn_quadratic_form(d, f_b, g_b, tol=1e-10):
    """(G[h] f, g) over the boundary with the periodic trapezoid rule."""
    flux = dirichlet_neumann(d, f_b, tol=tol)
    return float(np.sum(flux * np.asarray(g_b, float)) * d.grid.dy)


# ---------------------------------------------------------------------------
# Pressure decomposition

@dataclass(frozen=True, eq=False)
class PressureSplit:
    """The three elliptic pressure components and their sum."""

    qE: Field
    qNS: Field
    qS: Field
    q_total: Field = field(repr=False, default=None)
    iterations: int = 0

    def __post_init__(self):
        if self.q_total is None:
            total = self.qE.values + self.qNS.values + self.qS.values
            object.__setattr__(self, "q_total", Field(self.qE.grid, total))


def advection_term(v: Field, d) -> np.ndarray:
    """(v . grad_phi) v, componentwise, shape (2, n_y, n_z)."""
    v1, v2 = v.values[0], v.values[1]
    out = np.empty_like(v.values)
    for k in range(2):
        out[k] = v1 * dphi_values(1, v.values[k], d) + v2 * dphi_values(
            3, v.values[k], d
        )
    return out


def surface_traction_parts(s_top, d):
    """Split (S n) at z = 0 into its normal part (S n).n and the magnitude
    of its tangential part, given the surface strain s_top = (S11, S12, S22)
    at the top row, shape (3, n_y)."""
    n1, n2 = d.n_boundary
    sn1 = s_top[0] * n1 + s_top[1] * n2
    sn2 = s_top[1] * n1 + s_top[2] * n2
    snn = sn1 * n1 + sn2 * n2
    tangential = np.sqrt((sn1 - snn * n1) ** 2 + (sn2 - snn * n2) ** 2)
    return snn, tangential


def viscous_boundary_trace(v: Field, d, eps):
    """2 eps (S_phi v) n . n at z = 0, the qNS Dirichlet data."""
    snn, _ = surface_traction_parts(strain_phi(v, d).values[..., -1], d)
    return 2.0 * eps * snn


def capillary_trace(h, sigma):
    """-sigma * curvature, the qS Dirichlet data."""
    _, _, kappa = surface_geometry(h)
    return -sigma * kappa


def decompose_pressure(v: Field, d, eps, g, sigma, tol=1e-10):
    """Split q = qE + qNS + qS per the three elliptic problems.

    qE carries the advection source and the gravity trace g*h, qNS the
    viscous normal stress trace, qS the capillary trace.  At eps = 0 the
    qNS solve is skipped.  Each solve starts from the cutoff extension of
    its trace, a pure function of the data, so reruns stay bit-identical.
    """
    if eps < 0:
        raise ConfigurationError(f"viscosity must be >= 0, got {eps}")
    metric = MetricMatrices(d)
    op = EllipticOperator(d.grid, metric)
    grid = d.grid

    adv = advection_term(v, d)
    c = metric.dzphi
    b = d.grad_y_phi.values
    F1 = c * adv[0]
    F2 = -b * adv[0] + adv[1]
    top_E = g * d.h.h_values
    qE, it_E = op.solve(
        EllipticProblem(
            metric=metric,
            dirichlet_top=top_E,
            flux_rhs=(F1, F2),
        ),
        tol,
        x0=cutoff_lift(grid, np.fft.rfft(top_E)),
    )

    if eps > 0:
        top_NS = viscous_boundary_trace(v, d, eps)
        qNS, it_NS = op.solve(
            EllipticProblem(metric=metric, dirichlet_top=top_NS),
            tol,
            x0=cutoff_lift(grid, np.fft.rfft(top_NS)),
        )
    else:
        qNS = np.zeros(grid.shape)
        it_NS = 0

    top_S = capillary_trace(d.h, sigma)
    qS, it_S = op.solve(
        EllipticProblem(metric=metric, dirichlet_top=top_S),
        tol,
        x0=cutoff_lift(grid, np.fft.rfft(top_S)),
    )

    return PressureSplit(
        qE=Field(grid, qE),
        qNS=Field(grid, qNS),
        qS=Field(grid, qS),
        iterations=it_E + it_NS + it_S,
    )


def qE_inner_split(v: Field, d, g, tol=1e-10):
    """qE1 harmonic with trace g*h; qE2 zero-trace with the grad v : grad v^T source.

    The source uses the solenoidal cancellation div(v . grad v) =
    grad v : (grad v)^T, assembled as a plain right-hand side.
    """
    metric = MetricMatrices(d)
    op = EllipticOperator(d.grid, metric)
    qE1, _ = op.solve(
        EllipticProblem(metric=metric, dirichlet_top=g * d.h.h_values), tol
    )
    j11 = dphi_values(1, v.values[0], d)
    j12 = dphi_values(1, v.values[1], d)
    j21 = dphi_values(3, v.values[0], d)
    j22 = dphi_values(3, v.values[1], d)
    source = j11 ** 2 + 2.0 * j12 * j21 + j22 ** 2
    qE2, _ = op.solve(
        EllipticProblem(
            metric=metric, dirichlet_top=np.zeros(d.grid.n_y), rhs=source
        ),
        tol,
    )
    return Field(d.grid, qE1), Field(d.grid, qE2)
