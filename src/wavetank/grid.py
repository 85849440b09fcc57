"""Fixed computational domain: periodic horizontal strip times a truncated depth.

The domain is S = [0, L) x [-H, 0] with one periodic horizontal coordinate y
(spectral differentiation) and a stretched vertical coordinate z (finite
differences on monotone nodes, clustered near z = 0 where the viscous layer
lives).  Volume integrals carry the pulled-back measure dV_t = dz_phi dy dz.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, MetricValidityError

CLUSTERINGS = ("uniform", "tanh")


def _tanh_nodes(n_z, depth, gamma):
    """Nodes on [-H, 0], spacing shrinking toward z = 0 for gamma > 0."""
    xi = np.linspace(0.0, 1.0, n_z)
    return -depth + depth * np.tanh(gamma * xi) / np.tanh(gamma)


def _vertical_derivative_matrix(z):
    """Three-point first-derivative matrix, second order on the interior,
    one-sided second order at both ends."""
    n = z.size
    D = np.zeros((n, n))
    a = z[1:-1] - z[:-2]
    b = z[2:] - z[1:-1]
    rows = np.arange(1, n - 1)
    D[rows, rows - 1] = -b / (a * (a + b))
    D[rows, rows] = (b - a) / (a * b)
    D[rows, rows + 1] = a / (b * (a + b))
    h1, h2 = z[1] - z[0], z[2] - z[1]
    D[0, 0] = -(2.0 * h1 + h2) / (h1 * (h1 + h2))
    D[0, 1] = (h1 + h2) / (h1 * h2)
    D[0, 2] = -h1 / (h2 * (h1 + h2))
    g1, g2 = z[-1] - z[-2], z[-2] - z[-3]
    D[-1, -1] = (2.0 * g1 + g2) / (g1 * (g1 + g2))
    D[-1, -2] = -(g1 + g2) / (g1 * g2)
    D[-1, -3] = g1 / (g2 * (g1 + g2))
    return D


@dataclass(frozen=True, eq=False)
class Grid:
    """Tensor grid for the strip [0, length_y) x [-depth_H, 0].

    Attributes:
        n_y: number of horizontal nodes (even, >= 8; spectral differentiation)
        n_z: number of vertical nodes (z_nodes[0] = -H, z_nodes[-1] = 0)
        length_y: horizontal period
        depth_H: truncation depth (> 0)
        clustering: "uniform" or "tanh"
        stretch_gamma: tanh clustering strength (ignored for uniform)
        y_nodes: horizontal nodes, shape (n_y,)
        z_nodes: strictly increasing vertical nodes, shape (n_z,)
        quadrature_weights_z: positive per-node weights summing to depth_H
    """

    n_y: int
    n_z: int
    length_y: float
    depth_H: float
    clustering: str
    stretch_gamma: float
    y_nodes: np.ndarray = field(repr=False)
    z_nodes: np.ndarray = field(repr=False)
    quadrature_weights_z: np.ndarray = field(repr=False)

    @property
    def dy(self):
        return self.length_y / self.n_y

    @property
    def dz_min(self):
        return float(np.min(np.diff(self.z_nodes)))

    @property
    def wavenumbers(self):
        """The wavenumber 2*pi*k/L of each column of the real Fourier basis:
        0, k1, k1, k2, k2, ..., k_{n_y/2}, shape (n_y,)."""
        return 2.0 * np.pi * ((np.arange(self.n_y) + 1) // 2) / self.length_y

    @property
    def shape(self):
        return (self.n_y, self.n_z)

    def vertical_derivative_matrix(self):
        return self.cached("d3", lambda g: _vertical_derivative_matrix(g.z_nodes))

    def sbp_derivative_matrix(self):
        """Wide-centered first derivative with one-sided closures.

        Together with the trapezoid weights this pair satisfies the exact
        summation-by-parts identity W D + D^T W = diag(-1, 0, ..., 0, +1),
        which the time stepper relies on for a clean discrete energy budget.
        """
        z = self.z_nodes
        n = z.size
        D = np.zeros((n, n))
        rows = np.arange(1, n - 1)
        span = z[2:] - z[:-2]
        D[rows, rows + 1] = 1.0 / span
        D[rows, rows - 1] = -1.0 / span
        D[0, 0] = -1.0 / (z[1] - z[0])
        D[0, 1] = 1.0 / (z[1] - z[0])
        D[-1, -1] = 1.0 / (z[-1] - z[-2])
        D[-1, -2] = -1.0 / (z[-1] - z[-2])
        return D

    def cached(self, kind, build):
        """build(grid), an array that depends on the grid alone, computed
        once per kind and set of grid parameters and shared read-only by
        equal grids."""
        key = (kind, self.n_y, self.n_z, self.length_y, self.depth_H,
               self.clustering, self.stretch_gamma)
        if key not in _VERTICAL_CACHE:
            _VERTICAL_CACHE[key] = build(self)
            _VERTICAL_CACHE[key].setflags(write=False)
        return _VERTICAL_CACHE[key]


# Keyed on the kind and the six grid parameters; grids are immutable.
_VERTICAL_CACHE = {}


def make_grid(n_y, n_z, length_y, depth_H, clustering="tanh", stretch_gamma=3.0):
    """Build a Grid, validating sizes and clustering choice."""
    for name, value in (("n_y", n_y), ("n_z", n_z)):
        if not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if n_y % 2 != 0 or n_y < 8:
        raise ConfigurationError(f"n_y must be even and >= 8, got {n_y}")
    if n_z < 8:
        raise ConfigurationError(f"n_z must be >= 8, got {n_z}")
    if clustering not in CLUSTERINGS:
        raise ConfigurationError(
            f"clustering must be one of {CLUSTERINGS}, got {clustering!r}"
        )
    positive = {"depth_H": depth_H, "length_y": length_y}
    if clustering == "tanh":
        positive["stretch_gamma"] = stretch_gamma
    for name, value in positive.items():
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")

    y = np.arange(n_y) * (length_y / n_y)
    if clustering == "uniform":
        z = np.linspace(-depth_H, 0.0, n_z)
    else:
        z = _tanh_nodes(n_z, depth_H, stretch_gamma)
    z[0], z[-1] = -depth_H, 0.0
    if np.any(np.diff(z) <= 0):
        raise ConfigurationError(
            f"stretch_gamma = {stretch_gamma} makes z nodes coincide at n_z = {n_z}"
        )

    w = np.empty(n_z)
    w[0] = 0.5 * (z[1] - z[0])
    w[-1] = 0.5 * (z[-1] - z[-2])
    w[1:-1] = 0.5 * (z[2:] - z[:-2])

    return Grid(
        n_y=n_y,
        n_z=n_z,
        length_y=float(length_y),
        depth_H=float(depth_H),
        clustering=clustering,
        stretch_gamma=float(stretch_gamma),
        y_nodes=y,
        z_nodes=z,
        quadrature_weights_z=w,
    )


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar or vector samples on a Grid.

    values has shape (n_y, n_z) for scalars or (ncomp, n_y, n_z) for vectors,
    indexed (horizontal node, vertical node).  All values must be finite.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        expected = self.grid.shape
        if v.shape != expected and (v.ndim != 3 or v.shape[1:] != expected):
            raise ConfigurationError(
                f"field shape {v.shape} does not match grid {expected}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("field contains non-finite values")

    @property
    def components(self):
        return 1 if self.values.ndim == 2 else self.values.shape[0]


def _real_fourier_basis(n):
    """The orthonormal real Fourier basis of n periodic nodes as the columns
    of an n x n matrix: 1, cos ky, sin ky for each mode 0 < k < n / 2 in
    turn, and cos(pi j) when n is even, read off the rfft of the identity.
    Column i has mode ceil(i / 2)."""
    F = np.fft.rfft(np.eye(n), axis=0)
    pairs = (n - 1) // 2
    C = np.empty((n, n))
    C[:, 0] = F[0].real
    C[:, 1:2 * pairs:2] = np.sqrt(2.0) * F[1:pairs + 1].real.T
    C[:, 2:2 * pairs + 1:2] = -np.sqrt(2.0) * F[1:pairs + 1].imag.T
    if n % 2 == 0:
        C[:, -1] = F[-1].real
    return C / np.sqrt(n)


def fourier_basis(grid):
    """The real Fourier basis C of the grid, built once per grid: every
    transform in y is a product with C (coefficients C^T f, samples C c),
    and column i has wavenumber grid.wavenumbers[i]."""
    return grid.cached("fourier_basis", lambda g: _real_fourier_basis(g.n_y))


def chain_basis(grid):
    """The real Fourier basis of the n_y / 2 even (or odd) y-nodes, a chain
    of spacing 2 dy and period length_y, built once per grid: column i has
    wavenumber grid.wavenumbers[i]."""
    return grid.cached("chain_basis", lambda g: _real_fourier_basis(g.n_y // 2))


def _fourier_derivative_matrix(grid):
    """The n_y x n_y Fourier differentiation matrix C S C^T: S maps the
    coefficients (a, b) of a cos ky + b sin ky to (k b, -k a), and the
    Nyquist column to zero."""
    C = fourier_basis(grid)
    k = grid.wavenumbers
    CS = np.zeros_like(C)
    CS[:, 1:-1:2] = -k[1:-1:2] * C[:, 2:-1:2]
    CS[:, 2:-1:2] = k[2:-1:2] * C[:, 1:-1:2]
    return CS @ C.T


def horizontal_derivative_values(grid, values):
    """Spectral d/dy of raw samples (axis -2 = horizontal, or the only axis
    of surface samples): one product with the Fourier differentiation
    matrix, built once per grid."""
    D = grid.cached("d_y", _fourier_derivative_matrix)
    return D @ np.asarray(values, dtype=float)


def vertical_derivative_values(grid, values):
    """Finite-difference d/dz of raw samples (axis -1 = vertical)."""
    return np.asarray(values, dtype=float) @ grid.vertical_derivative_matrix().T


def integrate_dVt(f: Field, dzphi: Field) -> float:
    """Quadrature for integral of f * dz_phi over S (the dV_t measure)."""
    if f.values.ndim != 2 or dzphi.values.ndim != 2:
        raise ConfigurationError("integrate_dVt expects scalar fields")
    c = dzphi.values
    if np.min(c) <= 0.0:
        raise MetricValidityError(
            f"dz_phi must be positive, min is {np.min(c):.3e}",
            observed_min=float(np.min(c)),
        )
    g = f.grid
    return float(np.sum(f.values * c * g.quadrature_weights_z[None, :]) * g.dy)


def integrate_volume(grid, values):
    """Plain dy dz integral of raw scalar samples."""
    return float(np.sum(values * grid.quadrature_weights_z[None, :]) * grid.dy)


def integrate_boundary(grid, boundary_values):
    """Integral over the top boundary z = 0 (periodic trapezoid = exact)."""
    return float(np.sum(boundary_values) * grid.dy)


def l2_norm(grid, values):
    """L2 norm with the plain dy dz measure, summed over components."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 2:
        v = v[None]
    total = sum(integrate_volume(grid, comp ** 2) for comp in v)
    return float(np.sqrt(total))
