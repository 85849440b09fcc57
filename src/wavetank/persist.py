"""Snapshot persistence and CSV series output.

Snapshots are self-describing little-endian binaries: a fixed header
(format version, grid shape and extent, time, physics constants, grid
clustering, extension slope, metric floor), then the surface samples, then
the velocity samples as 64-bit floats.  A snapshot round-trips bit for bit.
"""

import dataclasses
import numbers
import struct
from collections import namedtuple
from operator import attrgetter

import numpy as np

from . import conormal
from .diagnostics import energy_identity_residual
from .errors import CheckpointError, ConfigurationError, MetricValidityError
from .grid import make_grid, vertical_derivative_values, CLUSTERINGS
from .evolution import FlowState, make_flow_state

MAGIC = b"WTNK"
VERSION = 1
_HEADER = struct.Struct("<4sII II d d d d d d B d d d")
# magic, version, header_bytes, n_y, n_z, length_y, depth_H, t, eps, g,
# sigma, clustering code, stretch_gamma, A, c0


def save_checkpoint(path, state: FlowState):
    grid = state.v.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _HEADER.size,
        grid.n_y,
        grid.n_z,
        grid.length_y,
        grid.depth_H,
        state.t,
        state.eps,
        state.g,
        state.sigma,
        CLUSTERINGS.index(grid.clustering),
        grid.stretch_gamma,
        state.A,
        state.c0,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(state.h.h_values.astype("<f8").tobytes())
        fh.write(state.v.values.astype("<f8").tobytes())


def restore_checkpoint(path) -> FlowState:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"snapshot too short ({len(raw)} bytes)")
    (magic, version, header_bytes, n_y, n_z, length_y, depth_H, t, eps,
     g, sigma, clustering_code, gamma, A, c0) = _HEADER.unpack(raw[: _HEADER.size])
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported snapshot version {version}")
    if header_bytes != _HEADER.size:
        raise CheckpointError("header size mismatch")
    if clustering_code >= len(CLUSTERINGS):
        raise CheckpointError(f"unknown clustering code {clustering_code}")
    expected = _HEADER.size + 8 * (n_y + 2 * n_y * n_z)
    if len(raw) != expected:
        raise CheckpointError(
            f"snapshot payload is {len(raw)} bytes, expected {expected}"
        )
    offset = _HEADER.size
    h = np.frombuffer(raw, dtype="<f8", count=n_y, offset=offset).copy()
    offset += 8 * n_y
    v = (
        np.frombuffer(raw, dtype="<f8", count=2 * n_y * n_z, offset=offset)
        .reshape(2, n_y, n_z)
        .copy()
    )
    try:
        grid = make_grid(
            n_y, n_z, length_y, depth_H,
            clustering=CLUSTERINGS[clustering_code], stretch_gamma=gamma,
        )
        # project=False: restoration must reproduce the stored state exactly
        state = make_flow_state(
            grid, h, v, t=t, eps=eps, g=g, sigma=sigma, A=A, c0=c0, project=False
        )
    except (ConfigurationError, MetricValidityError) as exc:
        raise CheckpointError(f"snapshot holds no valid state: {exc}") from exc
    # the metric was built to check the c0 floor; the state rebuilds it on use
    return dataclasses.replace(state)


# ---------------------------------------------------------------------------
# CSV series

# what one series row reads: the stored state, its energy terms, the report of
# the step that produced it (None at the initial level) and the
# energy-identity residual at its time
SeriesLevel = namedtuple("SeriesLevel", "state energy report identity")


def _step(name, missing):
    """The step report's value of name; missing on the initial level, which
    no step produced (its report is None)."""
    get = attrgetter(name)
    return lambda level: missing if level.report is None else get(level.report)


def _max_dz_v_top(level):
    v = level.state.v
    return np.max(np.abs(vertical_derivative_values(v.grid, v.values[0])[:, -1]))


# (column, its value at one SeriesLevel), in file order
SERIES_COLUMNS = (
    ("t", attrgetter("state.t")),
    ("kinetic", attrgetter("energy.kinetic")),
    ("gravitational", attrgetter("energy.gravitational")),
    ("capillary", attrgetter("energy.capillary")),
    ("total_energy", attrgetter("energy.total")),
    ("dissipation_rate", attrgetter("energy.dissipation_rate")),
    ("projection_residual", _step("projection_residual", np.nan)),
    ("kinematic_residual", _step("kinematic_residual", np.nan)),
    ("tangential_stress_residual", _step("tangential_stress_residual", np.nan)),
    ("identity_residual", attrgetter("identity")),
    ("solver_iterations", _step("solver_iterations", 0)),
    ("hco2_v", lambda level: conormal.conormal_norm(level.state.v, "Hco", 2)),
    ("max_dz_v_top", _max_dz_v_top),
    ("max_h", lambda level: level.state.h.max_abs()),
    ("max_v", lambda level: np.max(np.abs(level.state.v.values))),
    ("viscous_iterations", _step("viscous_iterations", 0)),
    ("projection_iterations", _step("projection_iterations", 0)),
    ("reprojection_iterations", _step("reprojection_iterations", 0)),
)


def _fmt(x):
    return repr(float(x))


def _cell(x):
    """Iteration counts as integers, every other value through _fmt."""
    return str(int(x)) if isinstance(x, numbers.Integral) else _fmt(x)


def write_series_csv(path, trajectory):
    """One row per stored output level; deterministic float formatting.

    identity_residual is energy_identity_residual at the interior levels
    and nan, as no centered difference exists, at the first and last (and
    everywhere below three levels); the initial row's step residuals are
    nan and its iteration counts 0.
    """
    identity = np.full(len(trajectory.times), np.nan)
    if len(identity) >= 3:
        identity[1:-1] = energy_identity_residual(trajectory)[1]
    reports = [None] + list(trajectory.step_reports)
    rows = [",".join(name for name, _ in SERIES_COLUMNS)]
    for fields in zip(trajectory.states, trajectory.energy, reports, identity,
                      strict=True):
        level = SeriesLevel(*fields)
        rows.append(",".join(_cell(value(level)) for _, value in SERIES_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_sweep_csv(path, sweep_result):
    """Cross-viscosity comparison table.

    A comparison that never ran, for a failed member or for every member
    when the eps = 0 reference failed, reads nan.  The reference's own row
    reads 0 in the two distance columns.
    """
    res = sweep_result
    tables = (res.sup_v_l2, res.sup_h_h1, res.conormal_max, res.dz_norm_max,
              res.dzz_top_max)
    rows = ["eps,sup_v_l2,sup_h_h1,conormal_max,dz_norm_max,dzz_top_max,failed"]
    for eps in res.eps_list:
        # conormal_max holds exactly the members that were compared
        if eps in res.conormal_max:
            cells = [_fmt(table.get(eps, 0.0)) for table in tables]
        else:
            cells = ["nan"] * len(tables)
        rows.append(",".join([_fmt(eps)] + cells + ["1" if eps in res.failed else "0"]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_profile_csv(path, zeta, profile):
    rows = ["zeta,profile"]
    for zt, pv in zip(zeta, profile):
        rows.append(f"{_fmt(zt)},{_fmt(pv)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
