"""Co-normal derivatives and the norm families built from them.

The generators are Z1 = d_y (spectral) and Z3 = (z/(1-z)) d_z; the Z3 weight
vanishes at the free surface so repeated application never sees the boundary
layer's normal gradients.  Time derivatives are taken from stored solution
history by backward differences.  Interior fractional regularity only ever
appears tangentially, as a Fourier multiplier in y.

A norm sums every dt^k Z^alpha f from one derivative table, each entry one Z1
or Z3 applied to an earlier entry, and returns a plain float; its W^{s,inf}
terms read d_y^a d_z^b from a table of the same kind.
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

    @property
    def depth(self):
        return len(self.levels)

    def time_derivative(self, k):
        """k-th backward difference at the newest level, divided by dt^k."""
        if k == 0:
            return self.levels[-1]
        if self.depth < k + 1:
            raise HistoryDepthError(
                f"time derivative of order {k} needs {k + 1} levels, have {self.depth}"
            )
        return np.diff(self.levels[-1 - k:], n=k, axis=0)[0] / self.dt ** k


def z3_weight(grid):
    """The co-normal vertical weight z/(1-z), zero at the surface."""
    z = grid.z_nodes
    return z / (1.0 - z)


def apply_z3(grid, values):
    return z3_weight(grid) * vertical_derivative_values(grid, values)


def as_history(f):
    """A FieldHistory as given, or a Field as a one-level history."""
    if isinstance(f, FieldHistory):
        return f
    if isinstance(f, Field):
        return FieldHistory(f.grid, [f.values], dt=1.0)
    raise ConfigurationError(f"expected Field or FieldHistory, got {type(f)}")


def apply_conormal(f, idx: MultiIndex) -> Field:
    """Apply dt^k Z1^a1 Z3^a3 to a Field or FieldHistory.  Spatial parts act
    on the newest level; Z1 = d_y."""
    hist = as_history(f)
    vals = hist.time_derivative(idx.k)
    for _ in range(idx.alpha[0]):
        vals = horizontal_derivative_values(hist.grid, vals)
    for _ in range(idx.alpha[1]):
        vals = apply_z3(hist.grid, vals)
    return Field(hist.grid, vals)


def _derivative_table(base, m, max_k, d1, d3):
    """Yield d3^a3 d1^a1 base(k) for k + a1 + a3 <= m and k <= max_k: total
    order first, then k, then a1.  Each entry past base(k) is one d1 or d3
    applied to an earlier entry, so every chain is built once."""
    table = {}
    for tot in range(m + 1):
        for k in range(min(tot, max_k) + 1):
            for a1 in range(tot - k + 1):
                a3 = tot - k - a1
                if a3:
                    d = d3(table[k, a1, a3 - 1])
                elif a1:
                    d = d1(table[k, a1 - 1, 0])
                else:
                    d = base(k)
                table[k, a1, a3] = d
                yield d


def _linf(values):
    return float(np.max(np.abs(values)))


def _wsinf(grid, values, s):
    """W^{s,infty} with integer s: sum of sup norms of d_y^a d_z^b, a + b <= s."""
    return sum(
        _linf(d)
        for d in _derivative_table(
            lambda k: values, s, 0,
            lambda v: horizontal_derivative_values(grid, v),
            lambda v: vertical_derivative_values(grid, v),
        )
    )


def conormal_norm(f, family, m, s=0) -> float:
    """Norm of one of the four families over a Field or stored FieldHistory.

    Hco:     sqrt(sum_{|alpha| <= m} |Z^alpha f|_L2^2), plain dy dz measure, s = 0.
    Wco_inf: sum_{|alpha| <= m} |Z^alpha f|_{W^{s,inf}}, integer s.
    Xms:     sqrt(sum_{k+|alpha| <= m} |dt^k Z^alpha f|_{H^s_tan}^2).
    Yms:     sum_{k+|alpha| <= m} |dt^k Z^alpha f|_{W^{s,inf}}, integer s.
    """
    hist = as_history(f)
    grid = hist.grid
    if family not in NORM_FAMILIES:
        raise ConfigurationError(f"unknown norm family {family!r}")
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ConfigurationError(f"norm order m must be an integer >= 0, got {m!r}")
    if family == "Hco" and s != 0:
        raise ConfigurationError(f"Hco is a plain L2 sum and takes s = 0, got {s}")
    if family in ("Wco_inf", "Yms") and not (s >= 0 and float(s).is_integer()):
        raise ConfigurationError(f"{family} needs integer s >= 0, got {s}")
    with_time = family in ("Xms", "Yms")
    if with_time and hist.depth < m + 1:
        raise HistoryDepthError(
            f"{family} at order {m} needs {m + 1} stored levels, have {hist.depth}"
        )
    total = 0.0
    for zf in _derivative_table(
        hist.time_derivative, m, m if with_time else 0,
        lambda v: horizontal_derivative_values(grid, v),
        lambda v: apply_z3(grid, v),
    ):
        if family == "Hco":
            # the s = 0 tangential multiplier is the plain L2 norm (Parseval)
            total += l2_norm(grid, zf) ** 2
        elif family == "Xms":
            total += tangential_sobolev_norm(grid, zf, s) ** 2
        else:
            total += sum(_wsinf(grid, c, int(s)) for c in zf.reshape(-1, *grid.shape))
    value = float(np.sqrt(total)) if family in ("Hco", "Xms") else float(total)
    if not np.isfinite(value):
        raise ConfigurationError(f"{family} norm is not finite")
    return value


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
        lhs = _linf(np.asarray(values)) ** 2
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
