"""Executable forms of the identities and limit statements the solver targets.

Everything here is pure postprocessing over immutable trajectories: the
exact energy identity as a residual series, Korn and reconstruction audits,
and the viscosity sweep with its boundary-layer profiles.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, HistoryDepthError
from .grid import (
    Field,
    horizontal_derivative_values,
    integrate_dVt,
    l2_norm,
    vertical_derivative_values,
)
from .surface import boundary_sobolev_norm
from .conormal import conormal_norm
from .operators import strain_phi, strain_squared
from .evolution import run


def energy_identity_residual(trajectory):
    """Residual of d/dt(total energy) + dissipation, by centered differences.

    Returns (times, residual series, max abs residual) over the interior
    output levels.  Needs at least three stored levels.
    """
    if len(trajectory.times) < 3:
        raise HistoryDepthError("energy residual needs at least 3 stored levels")
    ts = np.asarray(trajectory.times)
    E = np.array([e.total for e in trajectory.energy])
    D = np.array([e.dissipation_rate for e in trajectory.energy])
    residual = (E[2:] - E[:-2]) / (ts[2:] - ts[:-2]) + D[1:-1]
    return ts[1:-1], residual, float(np.max(np.abs(residual)))


def korn_audit(corpus):
    """Measured Korn constant over a corpus of (velocity Field, metric) pairs.

    Returns the max of |grad v|^2_L2 / (integral |S_phi v|^2 dV_t + |v|^2_L2);
    the plain gradient uses the diagnostic derivative operators.
    """
    worst = 0.0
    for v, d in corpus:
        g = v.grid
        grads = 0.0
        for comp in v.values:
            grads += l2_norm(g, horizontal_derivative_values(g, comp)) ** 2
            grads += l2_norm(g, vertical_derivative_values(g, comp)) ** 2
        strain = strain_phi(v, d)
        denom = integrate_dVt(Field(g, strain_squared(strain)), d.dzphi)
        denom += l2_norm(g, v.values) ** 2
        if denom > 0:
            worst = max(worst, grads / denom)
    return worst


def sn_reconstruction_audit(v, d):
    """Check that d_z v at the surface is recoverable from boundary data.

    The normal part comes from the divergence-free identity
    d_z v . n = -(dz_phi/|N|) d_y v1; the tangential part from the strain
    component S_n = Pi((S_phi v) n) together with horizontal derivatives of
    the trace.  Solves the pointwise 2x2 system and returns the max
    discrepancy against the actual vertical derivative.
    """
    g = v.grid
    w_true = vertical_derivative_values(g, v.values)[..., -1]
    dy_v1, dy_v2 = horizontal_derivative_values(g, v.values)[..., -1]
    c = d.dzphi.values[:, -1]
    b = d.grad_y_phi.values[:, -1]
    n1, n2 = d.n_boundary
    t1, t2 = n2, -n1

    s = strain_phi(v, d).values[..., -1]
    sn_1 = s[0] * n1 + s[1] * n2
    sn_2 = s[1] * n1 + s[2] * n2
    sn_tau = sn_1 * t1 + sn_2 * t2

    cross = n1 * t2 + n2 * t1
    # rows of the 2x2 system for w = d_z v(., 0)
    a11, a12 = n1, n2
    r1 = -c * n2 * dy_v1
    a21 = -(b / c) * n1 * t1 + 0.5 * (1.0 / c) * cross
    a22 = (1.0 / c) * n2 * t2 - 0.5 * (b / c) * cross
    r2 = sn_tau - (dy_v1 * n1 * t1 + 0.5 * dy_v2 * cross)

    det = a11 * a22 - a12 * a21
    w1 = (r1 * a22 - a12 * r2) / det
    w2 = (a11 * r2 - r1 * a21) / det

    normal_gap = np.abs((w_true[0] * n1 + w_true[1] * n2) - r1)
    full_gap = np.maximum(np.abs(w1 - w_true[0]), np.abs(w2 - w_true[1]))
    return float(np.max(np.maximum(normal_gap, full_gap)))


# ---------------------------------------------------------------------------
# Viscosity sweep

@dataclass
class SweepResult:
    """Aligned cross-viscosity comparison against the inviscid member."""

    eps_list: list
    sup_v_l2: dict = field(default_factory=dict)
    sup_h_h1: dict = field(default_factory=dict)
    conormal_max: dict = field(default_factory=dict)
    dz_norm_max: dict = field(default_factory=dict)
    dzz_top_max: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    trajectories: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)

    @property
    def complete(self):
        return not self.failed


def layer_profile(state, reference_state, eps):
    """Tangential-velocity deviation against the stretched coordinate z/sqrt(eps).

    Returns (zeta, profile) where profile is the rms-over-y deviation of the
    horizontal velocity at each vertical node, and zeta = z / sqrt(eps).
    """
    if eps <= 0:
        raise ConfigurationError("layer profile needs eps > 0")
    g = state.v.grid
    dv = state.v.values[0] - reference_state.v.values[0]
    profile = np.sqrt(np.mean(dv ** 2, axis=0))
    zeta = g.z_nodes / np.sqrt(eps)
    return zeta, profile


def epsilon_sweep(make_state, eps_list, t_final, dt, output_every=4):
    """Run the same scenario across viscosities and compare to the eps = 0 run.

    make_state(eps) must build identically gridded, identically initialized
    states.  eps_list must be decreasing with at least three entries and end
    at 0 (the Euler member is the reference).  The co-normal probe is Hco
    at order 2.  A failing member is recorded in result.failed and skipped
    in the comparisons.
    """
    eps_list = list(eps_list)
    if len(eps_list) < 3:
        raise ConfigurationError("sweep needs at least three viscosities")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly decreasing")
    if eps_list[-1] != 0.0:
        raise ConfigurationError("sweep must include eps = 0 as its last entry")

    result = SweepResult(eps_list=eps_list)
    for eps in eps_list:
        traj = run(make_state(eps), t_final=t_final, dt=dt,
                   output_every=output_every)
        result.trajectories[eps] = traj
        if traj.failure is not None:
            result.failed[eps] = traj.failure

    if 0.0 in result.failed:
        return result
    ref = result.trajectories[0.0]

    for eps in eps_list:
        traj = result.trajectories[eps]
        if eps in result.failed:
            continue
        g = traj.states[0].v.grid
        probes = []
        dz_norms = []
        dzz_tops = []
        top_band = g.z_nodes > -0.25 * g.depth_H
        for s in traj.states:
            probes.append(conormal_norm(s.v, "Hco", 2))
            dzv = vertical_derivative_values(g, s.v.values)
            dz_norms.append(l2_norm(g, dzv))
            dzz = vertical_derivative_values(g, dzv[0])
            dzz_tops.append(float(np.max(np.abs(dzz[:, top_band]))))
        result.conormal_max[eps] = max(probes)
        result.dz_norm_max[eps] = max(dz_norms)
        result.dzz_top_max[eps] = max(dzz_tops)
        if eps > 0.0:
            sup_v = 0.0
            sup_h = 0.0
            for s, r in zip(traj.states, ref.states):
                sup_v = max(sup_v, l2_norm(g, s.v.values - r.v.values))
                sup_h = max(
                    sup_h,
                    boundary_sobolev_norm(g, s.h.h_values - r.h.h_values, 1.0),
                )
            result.sup_v_l2[eps] = sup_v
            result.sup_h_h1[eps] = sup_h
            result.profiles[eps] = layer_profile(
                traj.states[-1], ref.states[-1], eps
            )
    return result
