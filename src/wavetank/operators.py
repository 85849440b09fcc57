"""Differential operators pulled back to the fixed strip.

Every first-order operator (gradient, divergence, strain, vorticity) has
two evaluation routes: the componentwise route through jacobian_phi, the
formula d_i - (d_i phi / d_z phi) d_z applied to every component at once,
and the matrix route through P = [[c, 0], [-b, 1]] with c = d_z phi,
b = d_y phi.  Because the stored metric fields are produced by the same
discrete derivative matrices used here (which commute exactly across axes),
the two routes agree to rounding, which is the primary correctness oracle
for this module.

The divergence-form Laplacian (1/c) div(E grad .), with
E = (1/c) P P^T = [[c, -b], [-b, (1 + b^2)/c]], is assembled as a symmetric
bilinear-element stiffness matrix with cell-averaged E, each cell's block a
sum of Kronecker products of the 1-D linear-element matrices; the elliptic
solves, their flat-strip preconditioner and the weak-symmetry checks read
that one definition of the element.  det E = 1 at every node, so E is
positive definite exactly where c > 0.
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


def jacobian_phi(values, d):
    """Transformed derivatives (d1_phi f, d3_phi f) of raw samples.

    d1_phi = d_y - (b / c) d_z and d3_phi = d_z / c, componentwise for
    vector samples: one horizontal and one vertical derivative pass serve
    both directions, and the metric broadcasts over leading axes.
    """
    c, b = d.dzphi.values, d.grad_y_phi.values
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
    c, b = d.dzphi.values, d.grad_y_phi.values
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
    c, b = d.dzphi.values, d.grad_y_phi.values
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
# Symmetric divergence-form assembly (bilinear elements, cell-averaged E)
#
# A cell's bilinear basis is the tensor product of two 1-D linear elements;
# corner a = 2 * (z index) + (y index) orders the corners (sw, se, nw, ne).
# On the unit element, _K1 = int phi_i' phi_k', _M1 = int phi_i phi_k and
# _C1 = int phi_i' phi_k, so every cell integral is a Kronecker product.

_K1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
_M1 = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
_C1 = np.array([[-0.5, -0.5], [0.5, 0.5]])


def linear_element_matrices(nodes):
    """Stiffness K and mass M, (n, n) each, of 1-D linear elements on n nodes."""
    K, M = np.zeros((2, len(nodes), len(nodes)))
    for i, w in enumerate(np.diff(nodes)):
        K[i:i + 2, i:i + 2] += _K1 / w
        M[i:i + 2, i:i + 2] += _M1 * w
    return K, M


def _cell_average(nodal):
    """Average of the 4 corner values per cell, shape (n_y, n_z - 1)."""
    rolled = np.roll(nodal, -1, axis=0)
    return 0.25 * (nodal[:, :-1] + nodal[:, 1:] + rolled[:, :-1] + rolled[:, 1:])


def _cell_node_indices(grid):
    """Node indices of each cell's corners (sw, se, nw, ne), (n_y, n_z - 1, 4)."""
    sw = np.arange(grid.n_y)[:, None] * grid.n_z + np.arange(grid.n_z - 1)
    se = np.roll(sw, -1, axis=0)
    return np.stack([sw, se, sw + 1, se + 1], axis=-1)


def divergence_form_matrix(d):
    """Stiffness matrix of the form integral(grad p . E grad q) dy dz for the
    metric d, with E = [[c, -b], [-b, (1 + b^2)/c]].

    Symmetric by construction; rows/columns ordered by node index j*n_z + i.
    """
    grid, c, b = d.grid, d.dzphi.values, d.grad_y_phi.values
    ny, nz = grid.n_y, grid.n_z
    dy, dz = grid.dy, np.diff(grid.z_nodes)[:, None, None]
    k_yy = dz * np.kron(_M1, _K1 / dy)   # int d_y N_a d_y N_b, (nz-1, 4, 4)
    k_zz = np.kron(_K1, dy * _M1) / dz   # int d_z N_a d_z N_b
    k_yz = np.kron(_C1.T, _C1)           # int d_y N_a d_z N_b, every cell alike
    k_cells = (
        _cell_average(c)[:, :, None, None] * k_yy
        + _cell_average(-b)[:, :, None, None] * (k_yz + k_yz.T)
        + _cell_average((1.0 + b ** 2) / c)[:, :, None, None] * k_zz
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

    F is taken cellwise (corner average), matching the stiffness quadrature;
    the integral of d_i N_a over a cell is the row sum of int d_i N_a N_b.
    """
    f1 = _cell_average(np.asarray(F1, float))
    f2 = _cell_average(np.asarray(F2, float))
    dz = np.diff(grid.z_nodes)[:, None]
    int_gy = dz * np.kron(_M1, _C1).sum(axis=1)        # (nz-1, 4)
    int_gz = grid.dy * np.kron(_C1, _M1).sum(axis=1)   # (4,)
    contrib = -(f1[:, :, None] * int_gy[None] + f2[:, :, None] * int_gz)
    load = np.zeros(grid.n_y * grid.n_z)
    np.add.at(load, _cell_node_indices(grid).ravel(), contrib.ravel())
    return load


def laplacian_phi(f: Field, d) -> Field:
    """Divergence-form Laplacian (1/c) div(E grad f) from the weak operator.

    Interior rows approximate the Laplacian at second order; the two
    boundary rows contain the weak boundary fluxes and are the caller's
    responsibility.
    """
    weak = divergence_form_matrix(d) @ f.values.ravel()
    dense = -weak.reshape(d.grid.shape) / (d.dzphi.values * dual_areas(d.grid))
    return Field(d.grid, dense)


def laplacian_phi_weak_form(f_values, g_values, d):
    """integral((Delta_phi f) g) dV_t evaluated through the weak operator.

    Exactly symmetric in (f, g); used by the weak-symmetry checks.
    """
    A = divergence_form_matrix(d)
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
