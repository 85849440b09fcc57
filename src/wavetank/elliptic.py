"""Variable-coefficient elliptic Dirichlet solves and the pressure split.

EllipticOperator(d, bottom_condition) assembles one symmetric stiffness
matrix per metric (divergence form, cell-averaged E), checks E positive
definite once (det E = 1, so the check is min(dz_phi) > 0), and serves every
Dirichlet solve on that metric through one conjugate-gradient loop under one
iteration budget, CG_BUDGET.  Its Dirichlet-Neumann map is the weak boundary
flux of the same matrix, so its discrete bilinear form is exactly symmetric.
Every CG solve, here and in the time stepper, is preconditioned by the exact
inverse of its operator on the flat strip (h = 0), applied through
flat_strip_solve as dense products in y and z: the iteration count depends
on the surface's amplitude, not on the grid.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import ConfigurationError, MetricValidityError, SolverFailureError
from .grid import Field, fourier_basis
from .operators import (
    divergence_form_matrix,
    dual_areas,
    flux_load,
    jacobian_phi,
    linear_element_matrices,
    strain_phi,
)
from .surface import surface_geometry

# iterations allowed to every CG solve; the most any solve takes is about 30
CG_BUDGET = 500


def flat_strip_solve(r, C, V, inverse):
    """C ((C^T r V) * inverse) V^T with C along y (axis 0 of r): the exact
    inverse of a flat-strip operator that the real Fourier basis C in y
    (grid.fourier_basis) and the z basis V diagonalize; inverse is one over
    its spectrum per (basis column, z eigenvector).  Columns of r past the
    rows of V are pinned nodes (identity rows of the operator) and pass
    through."""
    m = V.shape[0]
    out = np.empty(r.shape)
    out[:, :m] = C @ ((C.T @ r[:, :m] @ V) * inverse) @ V.T
    out[:, m:] = r[:, m:]
    return out


def _pcg(apply, b, x0, precondition, rtol, atol, maxiter):
    """Preconditioned conjugate gradients; returns (x, iterations).

    apply applies the SPD operator; x0 = None is a zero guess and costs no
    application.  precondition returns a new array, an SPD approximation of
    the inverse of the operator applied to its argument.  The stopping rule
    is on the unpreconditioned residual, tested before preconditioning: k
    iterations apply the operator and the preconditioner k times each, plus
    one application for a given x0.
    """
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = b - apply(x)
    target = max(atol, rtol * np.linalg.norm(b))
    rnorm = float(np.linalg.norm(r))
    if rnorm <= target:
        return x, 0
    p = precondition(r)
    rz = float(r @ p)
    for it in range(1, maxiter + 1):
        Ap = apply(p)
        denom = float(p @ Ap)
        if denom <= 0:
            raise SolverFailureError(
                f"CG breakdown (p.Ap = {denom:.3e})", residual=rnorm,
                iterations=it - 1,
            )
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            return x, it
        z = precondition(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverFailureError(
        f"CG did not converge in {maxiter} iterations (residual {rnorm:.3e}, "
        f"target {target:.3e})",
        residual=rnorm,
        iterations=maxiter,
    )


def _checked(name, values, shape):
    """values as a float array of the given shape, all finite."""
    arr = np.asarray(values, float)
    if arr.shape != shape:
        raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} contains non-finite values")
    return arr


class EllipticOperator:
    """The stiffness of -div(E grad q) for one metric and one bottom
    condition, its free-node blocks and their flat-strip inverse, built once
    and reused by every solve and Dirichlet-Neumann question on that metric.
    det E = 1, so E is positive definite exactly where dz_phi > 0.

    With c = A and b = 0 the stiffness is A (K_y x M_z) + (1/A) (M_y x K_z)
    in the 1-D linear-element matrices: the circulant y factors have symbols
    (2/dy)(1 - cos t) and (dy/3)(2 + cos t) on mode t of the real Fourier
    basis, and eigh(K_z, M_z) on the free z nodes diagonalizes the z factors.
    """

    def __init__(self, d, bottom_condition="neumann_zero"):
        if bottom_condition not in ("neumann_zero", "dirichlet_zero"):
            raise ConfigurationError(
                f"bottom condition must be neumann_zero or dirichlet_zero, "
                f"got {bottom_condition!r}"
            )
        lowest = float(np.min(d.dzphi.values))
        if lowest <= 0:
            raise MetricValidityError(
                "coefficient matrix E is not positive definite", observed_min=lowest
            )
        self.grid = g = d.grid
        self.d = d
        self.A = divergence_form_matrix(d)
        self.top = slice(g.n_z - 1, None, g.n_z)
        lo = 1 if bottom_condition == "dirichlet_zero" else 0
        self._free = np.arange(g.n_y * g.n_z).reshape(g.shape)[:, lo:-1].ravel()
        A_free = self.A[self._free]
        self._A_ff = A_free[:, self._free].tocsr()
        self._A_fd = A_free[:, self.top].tocsr()
        K, M = linear_element_matrices(g.z_nodes)
        lam, self._V = eigh(K[lo:-1, lo:-1], M[lo:-1, lo:-1])
        cos = np.cos(g.wavenumbers * g.dy)[:, None]
        ky, my = (2.0 / g.dy) * (1.0 - cos), (g.dy / 3.0) * (2.0 + cos)
        self._C = fourier_basis(g)
        self._inverse = 1.0 / (d.A * ky + my * lam / d.A)

    def solve(self, dirichlet_top, tol, rhs=None, flux_rhs=None):
        """Solve -div(E grad q) = rhs (+ div F) with q = dirichlet_top at z = 0;
        returns (solution array (n_y, n_z), iterations).

        rhs is the plain source of -Delta_phi q = rhs (weighted by dz_phi in
        the weak load); flux_rhs = (F1, F2) is one already in divergence form.
        """
        if not (np.isfinite(tol) and tol > 0):
            raise ConfigurationError(f"tolerance must be finite and > 0, got {tol}")
        g = self.grid
        top = _checked("dirichlet_top", dirichlet_top, (g.n_y,))
        load = np.zeros(g.n_y * g.n_z)
        if rhs is not None:
            rhs = _checked("rhs", rhs, g.shape)
            load += (rhs * self.d.dzphi.values * dual_areas(g)).ravel()
        if flux_rhs is not None:
            load += flux_load(g, *_checked("flux_rhs", flux_rhs, (2,) + g.shape))

        x = np.zeros(g.n_y * g.n_z)
        x[self.top] = top
        b_f = load[self._free] - self._A_fd @ top
        C, V, inverse = self._C, self._V, self._inverse
        sol_f, iters = _pcg(
            self._A_ff.__matmul__,
            b_f,
            None,
            lambda r: flat_strip_solve(r.reshape(g.n_y, -1), C, V, inverse).ravel(),
            rtol=tol,
            atol=max(tol * 1e-3, 1e-14),
            maxiter=CG_BUDGET,
        )
        x[self._free] = sol_f
        return x.reshape(g.shape), iters

    # -- Dirichlet-Neumann operator -----------------------------------------

    def dirichlet_neumann(self, f_b, tol):
        """G[h] f_b = (grad f)^b . N for the harmonic extension of f_b.

        Harmonic in the physical domain means div(E grad f) = 0 on the strip;
        the conormal flux of that problem at z = 0 is exactly (grad f)^b . N.
        It is the weak flux of the discrete solution, A q on the top rows,
        divided by dy to give nodal values.
        """
        q, _ = self.solve(f_b, tol)
        return (self.A @ q.ravel())[self.top] / self.grid.dy

    def dn_quadratic_form(self, f_b, g_b, tol):
        """(G[h] f, g) over the boundary with the periodic trapezoid rule."""
        flux = self.dirichlet_neumann(f_b, tol)
        return float(np.sum(flux * np.asarray(g_b, float)) * self.grid.dy)


def dn_coercivity_ratio(op, f_b, tol):
    """(G[h] f, f) / ((1 + |h|_{W^{1,inf}})^{-2} |Lambda f|^2), the coercivity
    constant of the DN map of op measured on f = f_b, with the Fourier
    multiplier Lambda = |grad| (1 + |grad|)^{-1/2}."""
    d, g = op.d, op.grid
    f_b = np.asarray(f_b, float)
    # C^T of a constant leaves rounding in the k > 0 columns, so a constant
    # is recognised on the samples themselves
    if np.ptp(f_b) == 0:
        raise ConfigurationError("f_b is constant, so Lambda f_b = 0")
    k, coefficients = g.wavenumbers, fourier_basis(g).T @ f_b
    lam_f2 = float(np.sum(k ** 2 / (1.0 + k) * coefficients ** 2) * g.dy)
    quad = op.dn_quadratic_form(f_b, f_b, tol)
    w1inf = d.h.max_abs() + float(np.max(np.abs(d.h.slope())))
    return quad / ((1.0 + w1inf) ** -2 * lam_f2)


# ---------------------------------------------------------------------------
# Pressure decomposition

@dataclass(frozen=True, eq=False)
class PressureSplit:
    """The three elliptic pressure components and their sum."""

    qE: Field
    qNS: Field
    qS: Field
    iterations: int

    @property
    def q_total(self):
        return Field(self.qE.grid, self.qE.values + self.qNS.values + self.qS.values)


def advection_term(v: Field, d) -> np.ndarray:
    """(v . grad_phi) v, componentwise, shape (2, n_y, n_z)."""
    j1, j3 = jacobian_phi(v.values, d)
    return v.values[0] * j1 + v.values[1] * j3


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
    qNS solve is skipped.
    """
    if not (np.isfinite(eps) and eps >= 0):
        raise ConfigurationError(f"eps must be finite and >= 0, got {eps}")
    op = EllipticOperator(d)
    grid = d.grid
    adv = advection_term(v, d)
    flux_E = (d.dzphi.values * adv[0], -d.grad_y_phi.values * adv[0] + adv[1])
    problems = (
        (g * d.h.h_values, flux_E),
        (viscous_boundary_trace(v, d, eps) if eps > 0 else None, None),
        (capillary_trace(d.h, sigma), None),
    )
    parts, iterations = [], 0
    for top, flux in problems:
        if top is None:
            parts.append(Field(grid, np.zeros(grid.shape)))
            continue
        q, its = op.solve(top, tol, flux_rhs=flux)
        parts.append(Field(grid, q))
        iterations += its
    return PressureSplit(*parts, iterations=iterations)


def qE_inner_split(v: Field, d, g, tol=1e-10):
    """qE1 harmonic with trace g*h; qE2 zero-trace with the grad v : grad v^T source.

    The source uses the solenoidal cancellation div(v . grad v) =
    grad v : (grad v)^T, assembled as a plain right-hand side.
    """
    op = EllipticOperator(d)
    qE1, _ = op.solve(g * d.h.h_values, tol)
    j1, j3 = jacobian_phi(v.values, d)
    source = j1[0] ** 2 + 2.0 * j1[1] * j3[0] + j3[1] ** 2
    qE2, _ = op.solve(np.zeros(d.grid.n_y), tol, rhs=source)
    return Field(d.grid, qE1), Field(d.grid, qE2)
