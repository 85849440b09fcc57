"""Differential operators pulled back to the fixed strip.

Every first-order operator has two evaluation routes: the componentwise
formula d_i - (d_i phi / d_z phi) d_z, and the matrix route through
P = [[c, 0], [-b, 1]] with c = d_z phi, b = d_y phi.  Because the stored
metric fields are produced by the same discrete derivative matrices used
here (which commute exactly across axes), the two routes agree to rounding,
which is the primary correctness oracle for this module.

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
from .conormal import FieldHistory, MultiIndex, apply_conormal


def _metric_arrays(d):
    return d.dzphi.values, d.grad_y_phi.values


def dphi_values(i, values, d):
    """Componentwise transformed derivative of raw samples, i in {1, 3}."""
    c, b = _metric_arrays(d)
    if i == 1:
        dy = horizontal_derivative_values(d.grid, values)
        dz = vertical_derivative_values(d.grid, values)
        return dy - (b / c) * dz if values.ndim == 2 else dy - (b / c)[None] * dz
    if i == 3:
        dz = vertical_derivative_values(d.grid, values)
        return dz / c if values.ndim == 2 else dz / c[None]
    raise ConfigurationError(f"transformed derivative index must be 1 or 3, got {i}")


def grad_phi(f: Field, d) -> Field:
    """Transformed gradient, componentwise route."""
    v = f.values
    if v.ndim != 2:
        raise ConfigurationError("grad_phi expects a scalar field")
    return Field(d.grid, np.stack([dphi_values(1, v, d), dphi_values(3, v, d)]))


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
    return Field(
        d.grid, dphi_values(1, v.values[0], d) + dphi_values(3, v.values[1], d)
    )


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
    v1, v2 = v.values[0], v.values[1]
    s11 = dphi_values(1, v1, d)
    s22 = dphi_values(3, v2, d)
    s12 = 0.5 * (dphi_values(1, v2, d) + dphi_values(3, v1, d))
    return Field(d.grid, np.stack([s11, s12, s22]))


def strain_squared(strain: Field) -> np.ndarray:
    """|S|^2 = S11^2 + 2 S12^2 + S22^2 pointwise."""
    s = strain.values
    return s[0] ** 2 + 2.0 * s[1] ** 2 + s[2] ** 2


def vorticity_phi(v: Field, d) -> Field:
    """Transformed scalar curl d1_phi v2 - d3_phi v1 (diagnostic field)."""
    return Field(
        d.grid, dphi_values(1, v.values[1], d) - dphi_values(3, v.values[0], d)
    )


# ---------------------------------------------------------------------------
# Metric matrices P and E

class MetricMatrices:
    """P and E entries on the grid, with E = (1/c) P P^T checked pointwise.

    P = [[c, 0], [-b, 1]],  E = [[c, -b], [-b, (1 + b^2)/c]].
    """

    def __init__(self, d):
        c, b = _metric_arrays(d)
        self.grid = d.grid
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
_REF_VALUE = np.array(
    [
        [0.25 * (1.0 + sx * x) * (1.0 + sz * z) for (sx, sz) in _CORNER_SIGNS]
        for z in _GAUSS
        for x in _GAUSS
    ]
)  # (4 pts, 4 nodes) with the same point ordering as _REF_GRAD


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


def divergence_form_matrix(grid, E11, E12, E22):
    """Stiffness matrix of the form integral(grad p . E grad q) dy dz.

    Symmetric by construction; rows/columns ordered by node index j*n_z + i.
    """
    ny, nz = grid.n_y, grid.n_z
    dy = grid.dy
    dz = np.diff(grid.z_nodes)  # (nz-1,)
    e11 = _cell_average(E11)
    e12 = _cell_average(E12)
    e22 = _cell_average(E22)

    # physical gradients: scale reference by (2/dy, 2/dz_i)
    gy = _REF_GRAD[:, :, 0] * 2.0 / dy            # (4, 4)
    gz = _REF_GRAD[:, :, 1][None, :, :] * (2.0 / dz)[:, None, None]  # (nz-1, 4, 4)

    jac = dy * dz / 4.0                            # (nz-1,)
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
    dy = grid.dy
    dz = np.diff(grid.z_nodes)
    f1 = _cell_average(np.asarray(F1, float))
    f2 = _cell_average(np.asarray(F2, float))
    jac = dy * dz / 4.0
    gy = _REF_GRAD[:, :, 0] * 2.0 / dy
    gz = _REF_GRAD[:, :, 1][None, :, :] * (2.0 / dz)[:, None, None]
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

def commutator_residual(history, idx: MultiIndex, i, d) -> Field:
    """C_i^m(f) = Z^m(d_i^phi f) - d_i^phi(Z^m f) on stored history.

    The one metric d is used at every stored level, so time orders k > 0
    see a static metric.
    """
    hist = history if isinstance(history, FieldHistory) else FieldHistory.single(history)
    g_levels = [dphi_values(i, lv, d) for lv in hist.levels]
    g_hist = FieldHistory(hist.grid, g_levels, hist.dt)
    lhs = apply_conormal(None, idx, history=g_hist).values
    rhs = dphi_values(i, apply_conormal(None, idx, history=hist).values, d)
    return Field(hist.grid, lhs - rhs)
