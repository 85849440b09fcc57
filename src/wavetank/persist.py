"""Snapshot persistence and CSV series output.

Snapshots are self-describing little-endian binaries: a fixed header
(format version, grid shape and extent, time, physics constants, grid
clustering, extension slope, metric floor), then the surface samples, then
the velocity samples as 64-bit floats.  A snapshot round-trips bit for bit.
"""

import struct

import numpy as np

from .errors import CheckpointError
from .grid import make_grid, CLUSTERINGS
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
    try:
        (magic, version, header_bytes, n_y, n_z, length_y, depth_H, t, eps,
         g, sigma, clustering_code, gamma, A, c0) = _HEADER.unpack(
            raw[: _HEADER.size]
        )
    except struct.error as exc:
        raise CheckpointError(f"corrupt snapshot header: {exc}") from exc
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
    grid = make_grid(
        n_y, n_z, length_y, depth_H,
        clustering=CLUSTERINGS[clustering_code], stretch_gamma=gamma,
    )
    offset = _HEADER.size
    h = np.frombuffer(raw, dtype="<f8", count=n_y, offset=offset).copy()
    offset += 8 * n_y
    v = (
        np.frombuffer(raw, dtype="<f8", count=2 * n_y * n_z, offset=offset)
        .reshape(2, n_y, n_z)
        .copy()
    )
    # project=False: restoration must reproduce the stored state exactly
    return make_flow_state(
        grid, h, v, t=t, eps=eps, g=g, sigma=sigma, A=A, c0=c0, project=False
    )


# ---------------------------------------------------------------------------
# CSV series

SERIES_COLUMNS = (
    "t",
    "kinetic",
    "gravitational",
    "capillary",
    "total_energy",
    "dissipation_rate",
    "projection_residual",
    "kinematic_residual",
    "tangential_stress_residual",
    "identity_residual",
    "solver_iterations",
    "hco2_v",
    "max_dz_v_top",
    "max_h",
    "max_v",
)


def _fmt(x):
    return repr(float(x))


def write_series_csv(path, trajectory):
    """One row per stored output level; deterministic float formatting."""
    from .conormal import conormal_norm
    from .grid import Field, vertical_derivative_values

    rows = [",".join(SERIES_COLUMNS)]
    reports = [None] + list(trajectory.step_reports)
    ts = np.asarray(trajectory.times)
    E = np.array([e.total for e in trajectory.energy])
    D = np.array([e.dissipation_rate for e in trajectory.energy])
    identity = np.zeros(len(ts))
    if len(ts) >= 3:
        identity[1:-1] = (E[2:] - E[:-2]) / (ts[2:] - ts[:-2]) + D[1:-1]
    for idx, (state, energy) in enumerate(
        zip(trajectory.states, trajectory.energy)
    ):
        rep = reports[idx] if idx < len(reports) else None
        grid = state.v.grid
        hco2 = conormal_norm(Field(grid, state.v.values), "Hco", 2).value
        dz_top = float(
            np.max(np.abs(vertical_derivative_values(grid, state.v.values[0])[:, -1]))
        )
        row = [
            _fmt(state.t),
            _fmt(energy.kinetic),
            _fmt(energy.gravitational),
            _fmt(energy.capillary),
            _fmt(energy.total),
            _fmt(energy.dissipation_rate),
            _fmt(rep.projection_residual if rep else 0.0),
            _fmt(rep.kinematic_residual if rep else 0.0),
            _fmt(rep.tangential_stress_residual if rep else 0.0),
            _fmt(identity[idx]),
            str(int(rep.solver_iterations) if rep else 0),
            _fmt(hco2),
            _fmt(dz_top),
            _fmt(state.h.max_abs()),
            _fmt(np.max(np.abs(state.v.values))),
        ]
        rows.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_sweep_csv(path, sweep_result):
    """Cross-viscosity comparison table."""
    rows = ["eps,sup_v_l2,sup_h_h1,conormal_max,dz_norm_max,dzz_top_max,failed"]
    for eps in sweep_result.eps_list:
        failed = eps in sweep_result.failed
        rows.append(
            ",".join(
                [
                    _fmt(eps),
                    _fmt(sweep_result.sup_v_l2.get(eps, 0.0)),
                    _fmt(sweep_result.sup_h_h1.get(eps, 0.0)),
                    _fmt(sweep_result.conormal_max.get(eps, np.nan))
                    if eps not in sweep_result.failed
                    else "nan",
                    _fmt(sweep_result.dz_norm_max.get(eps, np.nan))
                    if eps not in sweep_result.failed
                    else "nan",
                    _fmt(sweep_result.dzz_top_max.get(eps, np.nan))
                    if eps not in sweep_result.failed
                    else "nan",
                    "1" if failed else "0",
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def write_profile_csv(path, zeta, profile):
    rows = ["zeta,profile"]
    for zt, pv in zip(zeta, profile):
        rows.append(f"{_fmt(zt)},{_fmt(pv)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
