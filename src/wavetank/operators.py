"""Differential operators pulled back to the fixed strip.

Every first-order operator (gradient, divergence, strain, vorticity) has
two evaluation routes: the componentwise route through jacobian_phi, the
formula d_i - (d_i phi / d_z phi) d_z applied to every component at once,
and the matrix route through P = [[c, 0], [-b, 1]] with c = d_z phi,
b = d_y phi.  Because the stored metric fields are produced by the same
discrete derivative matrices used here (which commute exactly across axes),
the two routes agree to rounding, which is the primary correctness oracle
for this module.

The divergence-form Laplacian (1/c) div(E grad .) is assembled as a symmetric
bilinear-element stiffness matrix with cell-averaged E; the elliptic solves
and the weak-symmetry checks share that single assembly.
"""

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import (
    Field,
    horizontal_derivative_values,
    vertical_derivative_values,
)
from .conormal import FieldHistory, MultiIndex, apply_conormal, as_history


def _metric_arrays(d):
    return d.dzphi.values, d.grad_y_phi.values


def jacobian_phi(values, d):
    """Transformed derivatives (d1_phi f, d3_phi f) of raw samples.

    d1_phi = d_y - (b / c) d_z and d3_phi = d_z / c, componentwise for
    vector samples: one horizontal and one vertical derivative pass serve
    both directions, and the metric broadcasts over leading axes.
    """
    c, b = _metric_arrays(d)
    dy = horizontal_derivative_values(d.grid, values)
    dz = vertical_derivative_values(d.grid, values)
    return dy - (b / c) * dz, dz / c


def grad_phi(f: Field, d) -> Field:
    """Transformed gradient, componentwise route."""
    if f.values.ndim != 2:
        raise ConfigurationError("grad_phi expects a scalar field")
    return Field(d.grid, np.stack(jacobian_phi(f.values, d)))


def grad_phi_matrix(f: Field, d) -> Field:
    """Transformed gradient via (1/c) P^T grad f."""
    c, b = _metric_arrays(d)
    dy = horizontal_derivative_values(d.grid, f.values)
    dz = vertical_derivative_values(d.grid, f.values)
    return Field(d.grid, np.stack([(c * dy - b * dz) / c, dz / c]))


def div_phi(v: Field, d) -> Field:
    """Transformed divergence, componentwise route."""
    if v.components != 2:
        raise ConfigurationError("div_phi expects a two-component field")
    j1, j3 = jacobian_phi(v.values, d)
    return Field(d.grid, j1[0] + j3[1])


def div_phi_matrix(v: Field, d) -> Field:
    """Transformed divergence via (1/c) div(P v), expanded evaluation.

    The expansion P : grad v + (div P) . v keeps the metric-consistency term
    div P = (D_y c - D_z b, 0), which vanishes to rounding because the stored
    metric derives from one potential through commuting derivative matrices.
    """
    c, b = _metric_arrays(d)
    g = d.grid
    v1, v2 = v.values[0], v.values[1]
    contracted = (
        c * horizontal_derivative_values(g, v1)
        - b * vertical_derivative_values(g, v1)
        + vertical_derivative_values(g, v2)
    )
    div_p1 = horizontal_derivative_values(g, c) - vertical_derivative_values(g, b)
    return Field(g, (contracted + div_p1 * v1) / c)


def strain_phi(v: Field, d) -> Field:
    """Symmetric part of the transformed velocity gradient.

    Returned as a three-component field ordered (S11, S12, S22).
    """
    if v.components != 2:
        raise ConfigurationError("strain_phi expects a two-component field")
    j1, j3 = jacobian_phi(v.values, d)
    return Field(d.grid, np.stack([j1[0], 0.5 * (j1[1] + j3[0]), j3[1]]))


def strain_squared(strain: Field) -> np.ndarray:
    """|S|^2 = S11^2 + 2 S12^2 + S22^2 pointwise."""
    s = strain.values
    return s[0] ** 2 + 2.0 * s[1] ** 2 + s[2] ** 2


def vorticity_phi(v: Field, d) -> Field:
    """Transformed scalar curl d1_phi v2 - d3_phi v1 (diagnostic field)."""
    j1, j3 = jacobian_phi(v.values, d)
    return Field(d.grid, j1[1] - j3[0])


# ---------------------------------------------------------------------------
# Metric matrices P and E

class MetricMatrices:
    """P and E entries on the grid, with E = (1/c) P P^T checked pointwise.

    P = [[c, 0], [-b, 1]],  E = [[c, -b], [-b, (1 + b^2)/c]].  A is the
    slope of phi = A z + eta, so c = A and b = 0 on the flat strip.
    """

    def __init__(self, d):
        c, b = _metric_arrays(d)
        self.grid = d.grid
        self.A = d.A
        self.dzphi = c
        self.P11, self.P12 = c, np.zeros_like(c)
        self.P21, self.P22 = -b, np.ones_like(c)
        self.E11 = c
        self.E12 = -b
        self.E22 = (1.0 + b ** 2) / c

    def e_from_p(self):
        """E recomputed as (1/c) P P^T, for the identity check."""
        c = self.dzphi
        e11 = (self.P11 ** 2 + self.P12 ** 2) / c
        e12 = (self.P11 * self.P21 + self.P12 * self.P22) / c
        e22 = (self.P21 ** 2 + self.P22 ** 2) / c
        return e11, e12, e22

    def min_eigenvalue(self):
        tr = self.E11 + self.E22
        det = self.E11 * self.E22 - self.E12 ** 2
        return float(np.min(0.5 * (tr - np.sqrt(np.maximum(tr ** 2 - 4.0 * det, 0.0)))))


# ---------------------------------------------------------------------------
# Symmetric divergence-form assembly (bilinear elements, cell-averaged E)

_GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_CORNER_SIGNS = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=float)


def _reference_gradients():
    """Shape-function gradients at the 2x2 Gauss points, shape (4 pts, 4 nodes, 2)."""
    pts = [(x, z) for z in _GAUSS for x in _GAUSS]
    out = np.zeros((4, 4, 2))
    for gi, (x, z) in enumerate(pts):
        for a in range(4):
            sx, sz = _CORNER_SIGNS[a]
            out[gi, a, 0] = 0.25 * sx * (1.0 + sz * z)
            out[gi, a, 1] = 0.25 * sz * (1.0 + sx * x)
    return out

_REF_GRAD = _reference_gradients()


def _cell_average(nodal):
    """Average of the 4 corner values per cell, shape (n_y, n_z - 1)."""
    rolled = np.roll(nodal, -1, axis=0)
    return 0.25 * (nodal[:, :-1] + nodal[:, 1:] + rolled[:, :-1] + rolled[:, 1:])


def _cell_node_indices(grid):
    ny, nz = grid.n_y, grid.n_z
    j = np.arange(ny)[:, None]
    i = np.arange(nz - 1)[None, :]
    jp = (j + 1) % ny
    sw = j * nz + i
    se = jp * nz + i
    nw = j * nz + i + 1
    ne = jp * nz + i + 1
    return np.stack([sw, se, nw, ne], axis=-1)  # (ny, nz-1, 4)


def _cell_gradients(grid):
    """Physical shape-function gradients at the Gauss points, gy (4, 4) and
    gz (nz-1, 4, 4), and the cell Jacobian jac (nz-1,): the reference
    gradients scaled by (2/dy, 2/dz_i)."""
    dy = grid.dy
    dz = np.diff(grid.z_nodes)
    gy = _REF_GRAD[:, :, 0] * 2.0 / dy
    gz = _REF_GRAD[:, :, 1][None, :, :] * (2.0 / dz)[:, None, None]
    return gy, gz, dy * dz / 4.0


def divergence_form_matrix(grid, E11, E12, E22):
    """Stiffness matrix of the form integral(grad p . E grad q) dy dz.

    Symmetric by construction; rows/columns ordered by node index j*n_z + i.
    """
    ny, nz = grid.n_y, grid.n_z
    e11 = _cell_average(E11)
    e12 = _cell_average(E12)
    e22 = _cell_average(E22)
    gy, gz, jac = _cell_gradients(grid)
    a_yy = np.einsum("ga,gb->ab", gy, gy)          # (4, 4)
    a_yz = np.einsum("ga,igb->iab", gy, gz)        # (nz-1, 4, 4)
    a_zy = np.transpose(a_yz, (0, 2, 1))
    a_zz = np.einsum("iga,igb->iab", gz, gz)       # (nz-1, 4, 4)

    k_cells = (
        e11[:, :, None, None] * (jac[None, :, None, None] * a_yy[None, None])
        + e12[:, :, None, None] * (jac[:, None, None] * (a_yz + a_zy))[None]
        + e22[:, :, None, None] * (jac[:, None, None] * a_zz)[None]
    )  # (ny, nz-1, 4, 4)

    idx = _cell_node_indices(grid)                 # (ny, nz-1, 4)
    rows = np.repeat(idx[:, :, :, None], 4, axis=3)
    cols = np.repeat(idx[:, :, None, :], 4, axis=2)
    n = ny * nz
    A = sp.coo_matrix(
        (k_cells.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)
    )
    return A.tocsr()


def dual_areas(grid):
    """Lumped dual areas dy * w_z per node, shape (n_y, n_z)."""
    return np.full((grid.n_y, grid.n_z), grid.dy) * grid.quadrature_weights_z[None, :]


def flux_load(grid, F1, F2):
    """Weak load of a div F right-hand side: -integral(F . grad N_a).

    F is taken cellwise (corner average), matching the stiffness quadrature.
    """
    f1 = _cell_average(np.asarray(F1, float))
    f2 = _cell_average(np.asarray(F2, float))
    gy, gz, jac = _cell_gradients(grid)
    int_gy = jac[:, None] * gy.sum(axis=0)[None, :]        # (nz-1, 4)
    int_gz = jac[:, None] * gz.sum(axis=1)                  # (nz-1, 4)
    contrib = -(f1[:, :, None] * int_gy[None] + f2[:, :, None] * int_gz[None])
    load = np.zeros(grid.n_y * grid.n_z)
    np.add.at(load, _cell_node_indices(grid).ravel(), contrib.ravel())
    return load


def laplacian_phi(f: Field, d) -> Field:
    """Divergence-form Laplacian (1/c) div(E grad f) from the weak operator.

    Interior rows approximate the Laplacian at second order; the two
    boundary rows contain the weak boundary fluxes and are the caller's
    responsibility.
    """
    mm = MetricMatrices(d)
    A = divergence_form_matrix(d.grid, mm.E11, mm.E12, mm.E22)
    weak = A @ f.values.ravel()
    dense = -weak.reshape(d.grid.shape) / (mm.dzphi * dual_areas(d.grid))
    return Field(d.grid, dense)


def laplacian_phi_weak_form(f_values, g_values, d):
    """integral((Delta_phi f) g) dV_t evaluated through the weak operator.

    Exactly symmetric in (f, g); used by the weak-symmetry checks.
    """
    mm = MetricMatrices(d)
    A = divergence_form_matrix(d.grid, mm.E11, mm.E12, mm.E22)
    return float(-(np.ravel(g_values) @ (A @ np.ravel(f_values))))


def laplacian_phi_composed(f: Field, d) -> Field:
    """div_phi(grad_phi f) with both stages in matrix form (cross-check route)."""
    return div_phi_matrix(grad_phi_matrix(f, d), d)


# ---------------------------------------------------------------------------
# Commutators of Z derivatives with the transformed derivatives

def commutator_residual(f, idx: MultiIndex, i, d) -> Field:
    """C_i^m(f) = Z^m(d_i^phi f) - d_i^phi(Z^m f), i in {1, 3}, on a Field
    or stored FieldHistory.

    The one metric d is used at every stored level, so time orders k > 0
    see a static metric.
    """
    if i not in (1, 3):
        raise ConfigurationError(f"transformed derivative index must be 1 or 3, got {i}")
    pick = 0 if i == 1 else 1
    hist = as_history(f)
    g_levels = [jacobian_phi(lv, d)[pick] for lv in hist.levels]
    lhs = apply_conormal(FieldHistory(hist.grid, g_levels, hist.dt), idx).values
    rhs = jacobian_phi(apply_conormal(hist, idx).values, d)[pick]
    return Field(hist.grid, lhs - rhs)
