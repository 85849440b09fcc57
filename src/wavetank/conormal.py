"""Co-normal derivatives and the norm families built from them.

The generators are Z1 = d_y (spectral) and Z3 = (z/(1-z)) d_z; the Z3 weight
vanishes at the free surface so repeated application never sees the boundary
layer's normal gradients.  Time derivatives are taken from stored solution
history by backward differences.  Interior fractional regularity only ever
appears tangentially, as a Fourier multiplier in y.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HistoryDepthError
from .grid import (
    Field,
    horizontal_derivative_values,
    l2_norm,
    vertical_derivative_values,
)
from .surface import boundary_sobolev_norm, tangential_sobolev_norm

NORM_FAMILIES = ("Hco", "Wco_inf", "Xms", "Yms")


@dataclass(frozen=True)
class MultiIndex:
    """Time order k and co-normal orders alpha = (horizontal, weighted-vertical)."""

    k: int = 0
    alpha: tuple = (0, 0)

    def __post_init__(self):
        if self.k < 0 or any(a < 0 for a in self.alpha) or len(self.alpha) != 2:
            raise ConfigurationError(f"bad multi-index {self}")

    @property
    def total(self):
        return self.k + sum(self.alpha)


@dataclass(frozen=True)
class NormReport:
    family: str
    m: int
    s: float
    value: float

    def __post_init__(self):
        if self.family not in NORM_FAMILIES:
            raise ConfigurationError(f"unknown norm family {self.family!r}")
        if self.value < 0 or not np.isfinite(self.value):
            raise ConfigurationError("norm value must be finite and >= 0")


class FieldHistory:
    """Uniformly spaced snapshots of a field, oldest first."""

    def __init__(self, grid, values_list, dt):
        if not values_list:
            raise ConfigurationError("history needs at least one level")
        if dt <= 0:
            raise ConfigurationError("history dt must be positive")
        self.grid = grid
        self.levels = [np.asarray(v, dtype=float) for v in values_list]
        self.dt = float(dt)

    @classmethod
    def single(cls, field: Field):
        return cls(field.grid, [field.values], dt=1.0)

    @property
    def depth(self):
        return len(self.levels)

    def newest(self):
        return self.levels[-1]

    def time_derivative(self, k):
        """k-th backward difference at the newest level, divided by dt^k."""
        if k == 0:
            return self.levels[-1]
        if self.depth < k + 1:
            raise HistoryDepthError(
                f"time derivative of order {k} needs {k + 1} levels, have {self.depth}"
            )
        acc = np.zeros_like(self.levels[-1])
        for j in range(k + 1):
            coeff = (-1.0) ** j * _binom(k, j)
            acc += coeff * self.levels[-1 - j]
        return acc / self.dt ** k


def _binom(n, j):
    out = 1.0
    for i in range(j):
        out = out * (n - i) / (i + 1)
    return out


def half_order(m):
    """The m/2 convention for co-normal orders: floor, since fractional
    co-normal derivatives do not exist (Z3 to a half power is meaningless)."""
    return m // 2


def z3_weight(grid):
    """The co-normal vertical weight z/(1-z), zero at the surface."""
    z = grid.z_nodes
    return z / (1.0 - z)


def apply_z1(grid, values):
    return horizontal_derivative_values(grid, values)


def apply_z3(grid, values):
    w = z3_weight(grid)
    dz = vertical_derivative_values(grid, values)
    return w[None, None, :] * dz if dz.ndim == 3 else w[None, :] * dz


def _as_history(f):
    if isinstance(f, FieldHistory):
        return f
    if isinstance(f, Field):
        return FieldHistory.single(f)
    raise ConfigurationError(f"expected Field or FieldHistory, got {type(f)}")


def apply_conormal(f, idx: MultiIndex, history=None) -> Field:
    """Apply dt^k Z1^a1 Z3^a3.  Spatial parts act on the newest level."""
    hist = _as_history(history if history is not None else f)
    vals = hist.time_derivative(idx.k)
    for _ in range(idx.alpha[0]):
        vals = apply_z1(hist.grid, vals)
    for _ in range(idx.alpha[1]):
        vals = apply_z3(hist.grid, vals)
    return Field(hist.grid, vals)


def _spatial_indices(total):
    for a1 in range(total + 1):
        yield (a1, total - a1)


def _all_indices(max_total, with_time):
    for tot in range(max_total + 1):
        ks = range(tot + 1) if with_time else (0,)
        for k in ks:
            for alpha in _spatial_indices(tot - k):
                yield MultiIndex(k=k, alpha=alpha)


def _linf(grid, values):
    return float(np.max(np.abs(values)))


def _wsinf(grid, values, s):
    """W^{s,infty} with integer s: max over mixed derivatives up to order s."""
    if s != int(s) or s < 0:
        raise ConfigurationError(f"Wco_inf needs integer s >= 0, got {s}")
    total = 0.0
    for a in range(int(s) + 1):
        for b in range(int(s) + 1 - a):
            d = values
            for _ in range(a):
                d = horizontal_derivative_values(grid, d)
            for _ in range(b):
                d = vertical_derivative_values(grid, d)
            total += _linf(grid, d)
    return total


def conormal_norm(f, family, m, s=0, history=None) -> NormReport:
    """Norm of one of the four families over a field or stored history.

    Hco:     sqrt(sum_{|alpha| <= m} |Z^alpha f|_L2^2), plain dy dz measure.
    Wco_inf: sum_{|alpha| <= m} |Z^alpha f|_{W^{s,inf}}.
    Xms:     sqrt(sum_{k+|alpha| <= m} |dt^k Z^alpha f|_{H^s_tan}^2).
    Yms:     sum_{k+|alpha| <= m} |dt^k Z^alpha f|_{W^{s,inf}}.
    """
    hist = _as_history(history if history is not None else f)
    grid = hist.grid
    if family not in NORM_FAMILIES:
        raise ConfigurationError(f"unknown norm family {family!r}")
    with_time = family in ("Xms", "Yms")
    if with_time and hist.depth < m + 1:
        raise HistoryDepthError(
            f"{family} at order {m} needs {m + 1} stored levels, have {hist.depth}"
        )
    sq_sum = family in ("Hco", "Xms")
    total = 0.0
    for idx in _all_indices(m, with_time):
        zf = apply_conormal(None, idx, history=hist).values
        if family == "Hco":
            # the s = 0 tangential multiplier is the plain L2 norm (Parseval)
            total += l2_norm(grid, zf) ** 2
        elif family == "Xms":
            total += tangential_sobolev_norm(grid, zf, s) ** 2
        else:
            total += sum(_wsinf(grid, comp, s) for comp in zf.reshape(-1, *grid.shape))
    value = float(np.sqrt(total)) if sq_sum else float(total)
    return NormReport(family=family, m=m, s=s, value=value)


def trace_to_boundary(f: Field) -> np.ndarray:
    """Restriction to z = 0 (per component for vectors)."""
    return f.values[..., -1].copy()


def trace_inequality_audit(grid, corpus, s, s1, s2):
    """Measured constant in |f(.,0)|_{H^s}^2 <= C |d_z f|_{H^{s2}_tan} |f|_{H^{s1}_tan}.

    s1 + s2 must equal 2 s.  Returns the max ratio over the corpus.
    """
    if abs((s1 + s2) - 2.0 * s) > 1e-12:
        raise ConfigurationError("trace audit needs s1 + s2 = 2 s")
    worst = 0.0
    for values in corpus:
        tr = np.asarray(values)[:, -1]
        lhs = boundary_sobolev_norm(grid, tr, s) ** 2
        dz = vertical_derivative_values(grid, values)
        rhs = tangential_sobolev_norm(grid, dz, s2) * tangential_sobolev_norm(
            grid, values, s1
        )
        if rhs > 1e-10 * max(lhs, 1e-300):
            worst = max(worst, lhs / rhs)
    return worst


def anisotropic_embedding_audit(grid, corpus, s1=2.0, s2=1.0):
    """Measured constant in |f|_inf^2 <= C |d_z f|_{H^{s2}_tan} |f|_{H^{s1}_tan}."""
    if s1 + s2 <= 2.0:
        raise ConfigurationError("embedding audit needs s1 + s2 > 2")
    worst = 0.0
    for values in corpus:
        lhs = _linf(grid, np.asarray(values)) ** 2
        dz = vertical_derivative_values(grid, values)
        rhs = tangential_sobolev_norm(grid, dz, s2) * tangential_sobolev_norm(
            grid, values, s1
        )
        if rhs > 1e-10 * max(lhs, 1e-300):
            worst = max(worst, lhs / rhs)
    return worst


def smooth_field_params(rng, max_mode=5, n_profiles=3):
    """Grid-independent description of a random smooth field.

    Drawing parameters separately from evaluation lets refinement studies
    measure the same continuum corpus on nested grids.
    """
    return [
        (
            int(rng.integers(0, max_mode + 1)),
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0.2, 1.0)),
            float(rng.uniform(0.3, 2.0)),
        )
        for _ in range(n_profiles)
    ]


def evaluate_smooth_field(grid, params):
    y = grid.y_nodes
    z = grid.z_nodes
    out = np.zeros(grid.shape)
    for k, phase, amp, rate in params:
        mode = np.cos(2 * np.pi * k * y / grid.length_y + phase)
        out += amp * mode[:, None] * np.exp(rate * z)[None, :]
    return out


def random_smooth_field(grid, rng, max_mode=5, n_profiles=3):
    """Random smooth interior field: low Fourier modes in y, smooth decay in z."""
    return evaluate_smooth_field(grid, smooth_field_params(rng, max_mode, n_profiles))
