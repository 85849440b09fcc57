"""Free-surface state, its mollified interior extension, and the flattening map.

The surface h lives on the periodic boundary.  Its interior extension eta is
built mode by mode in the real Fourier basis C of the grid: the coefficient
c_i = (C^T h)_i of wavenumber kappa_i becomes chi(z * kappa_i) * c_i, with a
compactly supported cutoff chi that equals 1 on [-1, 1].  The flattening map
is phi = A z + eta; its vertical derivative must stay above a positive floor
for the pulled-back operators to make sense.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, MetricValidityError
from .grid import (
    Field,
    Grid,
    fourier_basis,
    horizontal_derivative_values,
    vertical_derivative_values,
)


@dataclass(frozen=True, eq=False)
class SurfaceState:
    """Surface elevation samples."""

    grid: Grid
    h_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = np.asarray(self.h_values, dtype=float)
        if h.shape != (self.grid.n_y,):
            raise ConfigurationError(
                f"surface shape {h.shape} does not match n_y={self.grid.n_y}"
            )
        if not np.all(np.isfinite(h)):
            raise ConfigurationError("surface contains non-finite values")
        object.__setattr__(self, "h_values", h)

    def slope(self):
        """d_y h, spectrally."""
        return horizontal_derivative_values(self.grid, self.h_values)

    def max_abs(self):
        return float(np.max(np.abs(self.h_values)))


def surface_from_values(grid, h_values):
    return SurfaceState(grid=grid, h_values=np.asarray(h_values, float))


class CutoffSpec:
    """Smooth compactly supported cutoff: 1 on [-1, 1], 0 outside [-2, 2].

    On 1 < |r| < 2 the profile is the C-infinity bump quotient
    chi = 1 / (1 + exp(tau)), tau(s) = 1/(1-s) - 1/s, s = |r| - 1,
    built from the same exponential germ as the classical bump, but with
    every derivative vanishing at both junctions (flat matching to the
    plateaus).  Derivatives to third order are closed-form; the extension
    audits use them to evaluate z-derivatives of eta per mode without
    finite differences.
    """

    @staticmethod
    def _logistic(s):
        tau = 1.0 / (1.0 - s) - 1.0 / s
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(np.minimum(tau, 700.0)))

    @classmethod
    def _logistic_derivs(cls, s):
        """First three derivatives of chi in s."""
        chi = cls._logistic(s)
        t1 = (1.0 - s) ** -2 + s ** -2
        t2 = 2.0 * (1.0 - s) ** -3 - 2.0 * s ** -3
        t3 = 6.0 * (1.0 - s) ** -4 + 6.0 * s ** -4
        u = chi * (1.0 - chi)
        d1 = -u * t1
        a2 = (1.0 - 2.0 * chi) * t1 ** 2 - t2
        d2 = u * a2
        a2p = 2.0 * u * t1 ** 3 + 2.0 * (1.0 - 2.0 * chi) * t1 * t2 - t3
        d3 = u * (-(1.0 - 2.0 * chi) * t1 * a2 + a2p)
        return d1, d2, d3

    @classmethod
    def evaluate(cls, r, order=0):
        """chi or its order-th derivative (order <= 3), vectorized in r."""
        if order not in (0, 1, 2, 3):
            raise ConfigurationError(f"cutoff derivative order {order} unsupported")
        r = np.asarray(r, dtype=float)
        a = np.abs(r)
        out = np.zeros_like(a)
        if order == 0:
            out[a <= 1.0] = 1.0
        mid = (a > 1.0) & (a < 2.0)
        if np.any(mid):
            s = a[mid] - 1.0
            if order == 0:
                out[mid] = cls._logistic(s)
            else:
                deriv = cls._logistic_derivs(s)[order - 1]
                # odd derivatives of the even profile are odd in r
                out[mid] = deriv * np.sign(r[mid]) if order % 2 else deriv
        return out


def cutoff_lift(grid, samples):
    """Interior samples of the cutoff extension of boundary samples: the
    coefficient c_i of basis column i becomes chi(z kappa_i) c_i.  The
    profile chi(z kappa_i) is evaluated once per grid."""
    C = fourier_basis(grid)
    prof = grid.cached(
        "cutoff", lambda g: CutoffSpec.evaluate(np.outer(g.wavenumbers, g.z_nodes))
    )
    return C @ (prof * (C.T @ samples)[:, None])


def extend_surface(h: SurfaceState) -> Field:
    """Mollified interior extension eta with eta(., 0) = h."""
    return Field(h.grid, cutoff_lift(h.grid, h.h_values))


@dataclass(frozen=True, eq=False)
class Diffeomorphism:
    """The metric quantities of phi = A z + eta that the transformed
    operators use; phi and eta themselves are not kept.

    dzphi and grad_y_phi are produced by the same discrete derivative
    operators used everywhere else, so operator identities that rely on
    equality of mixed partials hold to machine precision.
    """

    grid: Grid
    A: float
    h: SurfaceState
    dzphi: Field = field(repr=False)
    grad_y_phi: Field = field(repr=False)
    c0_observed: float

    @property
    def n_boundary(self):
        """Unit outward normal at z = 0, shape (2, n_y)."""
        slope = self.grad_y_phi.values[:, -1]
        mag = np.sqrt(1.0 + slope ** 2)
        return np.stack([-slope / mag, 1.0 / mag])


def build_diffeomorphism(h: SurfaceState, A, c0):
    """Construct the flattening map, failing if min(dz_phi) < c0.

    When A is None it is chosen as max(1, 2 max|d_z eta|) so the map starts
    with margin.
    """
    if not (np.isfinite(c0) and c0 > 0):
        raise ConfigurationError(f"c0 must be finite and > 0, got {c0}")
    g = h.grid
    eta = extend_surface(h)
    dz_eta = vertical_derivative_values(g, eta.values)
    if A is None:
        A = max(1.0, 2.0 * float(np.max(np.abs(dz_eta))))
    if not (np.isfinite(A) and A > 0):
        raise ConfigurationError(f"extension slope A must be finite and > 0, got {A}")
    if c0 > A:  # dz_eta has mean 0 in y, so min(dz_phi) <= A for every h
        raise ConfigurationError(f"c0 = {c0} exceeds the extension slope A = {A}")
    dzphi = A + dz_eta
    observed = float(np.min(dzphi))
    if observed < c0:
        raise MetricValidityError(
            f"surface too steep: min(dz_phi) = {observed:.6f} < c0 = {c0}",
            observed_min=observed,
        )
    grad_y = horizontal_derivative_values(g, eta.values)
    return Diffeomorphism(
        grid=g,
        A=float(A),
        h=h,
        dzphi=Field(g, dzphi),
        grad_y_phi=Field(g, grad_y),
        c0_observed=observed,
    )


def surface_geometry(h: SurfaceState):
    """Boundary normal, unit normal, and mean curvature of the graph of h.

    Curvature is kappa = d_y( h' / sqrt(1 + h'^2) ), evaluated spectrally.
    """
    u = h.slope()
    N_b = np.stack([-u, np.ones_like(u)])
    mag = np.sqrt(1.0 + u ** 2)
    n_b = N_b / mag
    kappa = horizontal_derivative_values(h.grid, u / mag)
    return N_b, n_b, kappa


def boundary_sobolev_norm(grid, values, s):
    """|f|_{H^s} on the periodic boundary via the (1 + kappa^2)^{s/2}
    multiplier on the coefficients in the orthonormal basis C."""
    fh = fourier_basis(grid).T @ np.asarray(values, dtype=float)
    density = (1.0 + grid.wavenumbers ** 2) ** s * fh ** 2
    return float(np.sqrt(np.sum(density) * grid.dy))


def tangential_sobolev_norm(grid, values, s):
    """H^s_tan norm: Fourier multiplier in y, plain L2 in z, over components."""
    coefficients = fourier_basis(grid).T @ np.asarray(values, dtype=float)
    density = (1.0 + grid.wavenumbers[:, None] ** 2) ** s * coefficients ** 2
    return float(np.sqrt(np.sum(density * grid.quadrature_weights_z) * grid.dy))


def grad_eta_sobolev_norm(h: SurfaceState, s):
    """H^s(S) norm of grad(eta) via per-mode analytic z-derivatives.

    Sums L2 norms of all mixed derivatives of order <= s applied to both
    components of grad(eta); z-profiles come from the cutoff's closed-form
    derivatives, so no finite differencing enters the audit.
    """
    if s not in (0, 1, 2):
        raise ConfigurationError(f"extension audit supports s in 0..2, got {s}")
    g = h.grid
    kappa = g.wavenumbers
    wz = g.quadrature_weights_z
    arg = np.outer(kappa, g.z_nodes)
    profiles = [CutoffSpec.evaluate(arg, order=m) for m in range(s + 2)]
    hh2 = (fourier_basis(g).T @ h.h_values) ** 2
    total = 0.0
    for a in range(s + 1):
        for b in range(s + 1 - a):
            # d_y^a d_z^b of (d_y eta): mode amplitude kappa^(a+b+1) chi^(b)
            amp_y = kappa ** (2 * (a + b + 1)) * hh2
            total += np.sum(amp_y[:, None] * profiles[b] ** 2 * wz[None, :])
            # d_y^a d_z^b of (d_z eta): amplitude kappa^(a+b+1) chi^(b+1)
            total += np.sum(amp_y[:, None] * profiles[b + 1] ** 2 * wz[None, :])
    return float(np.sqrt(total * g.dy))


def extension_gain_audit(grid, rng):
    """Measured constants of the half-derivative gain of the extension.

    Returns {s: max ratio |grad eta|_{H^s(S)} / |h|_{H^{s+1/2}}} for
    s = 0, 1, 2 over 20 random surfaces (random_surface).
    """
    worst = {s: 0.0 for s in (0, 1, 2)}
    for _ in range(20):
        h = random_surface(grid, rng, amplitude=0.2)
        for s in worst:
            num = grad_eta_sobolev_norm(h, s)
            den = boundary_sobolev_norm(grid, h.h_values, s + 0.5)
            if den > 0:
                worst[s] = max(worst[s], num / den)
    return worst


def random_surface(grid, rng, amplitude, max_mode=None):
    """Random real surface sum_k k^-2 cos(kappa_k y + phase_k) over the modes
    0 < k <= max_mode, zero mean, scaled to max |h| = amplitude."""
    n = grid.n_y
    if max_mode is None:
        max_mode = n // 3
    if not (isinstance(max_mode, numbers.Integral) and 1 <= max_mode < n / 2):
        raise ConfigurationError(f"max_mode must be an integer >= 1 and < n_y / 2 = "
                                 f"{n / 2:g}, got {max_mode}")
    ks = np.arange(1, max_mode + 1)
    mags = ks.astype(float) ** -2.0
    phases = rng.uniform(0.0, 2.0 * np.pi, size=ks.size)
    coefficients = np.zeros(n)
    coefficients[2 * ks - 1] = mags * np.cos(phases)
    coefficients[2 * ks] = -mags * np.sin(phases)
    h = fourier_basis(grid) @ coefficients
    peak = np.max(np.abs(h))
    if peak > 0:
        h *= amplitude / peak
    return surface_from_values(grid, h)
