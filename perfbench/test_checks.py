"""Each benchmark check accepts a right output and rejects a wrong one.

Synthetic series stand in for solver output, so these run in well under a
second; the snapshot tests write a real 16x16 state and the failure
accounting runs a 16x24 sweep of two steps per member.
"""

import numpy as np
import pytest

import checks
from tracing import layer_metrics
from wavetank import diagnostics, evolution, grid as grid_module
from wavetank.config import SimulationConfig
from wavetank.errors import MetricValidityError, SolverFailureError
from wavetank.evolution import make_flow_state
from wavetank.grid import make_grid
from wavetank.persist import restore_checkpoint, save_checkpoint

OMEGA = checks.gravity_capillary_omega(1.0, 1.0, 1.0, 2.0 * np.pi)


def test_dispersion_relation_matches_deep_water_limit():
    # tanh(2 pi) = 1 to 1e-5, so omega^2 = g k + sigma k^3 = 2
    assert OMEGA == pytest.approx(np.sqrt(2.0), rel=1e-5)


def test_frequency_rejects_five_percent_off():
    t = np.linspace(0.0, np.pi / OMEGA, 95)
    assert checks.frequency(t, 1e-2 * np.cos(1.001 * OMEGA * t), OMEGA).ok
    assert not checks.frequency(t, 1e-2 * np.cos(1.05 * OMEGA * t), OMEGA).ok
    assert not checks.frequency(t, 1e-2 * np.cos(0.95 * OMEGA * t), OMEGA).ok


def test_energy_drift_rejects_two_percent():
    t = np.linspace(0.0, 2.0, 50)
    assert checks.energy_drift(1.0 + 1e-4 * np.sin(5.0 * t)).ok
    assert not checks.energy_drift(1.0 - 0.01 * t).ok


def _balanced(n=21):
    t = np.linspace(0.0, 0.17, n)
    D = 1e-3 * (0.2 + t)
    lost = np.concatenate([[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
    return t, 1.0 - lost, D


def test_energy_balance_rejects_missing_dissipation():
    t, E, D = _balanced()
    assert checks.energy_balance(t, E, D).ok
    # energy that does not lose what is dissipated, or loses it twice
    assert not checks.energy_balance(t, np.ones_like(E), D).ok
    assert not checks.energy_balance(t, 2.0 * E - 1.0, D).ok
    # a rate that leaves the dissipation out altogether
    assert not checks.energy_balance(t, E, np.zeros_like(D)).ok


def test_linear_amplitude_rejects_five_percent_off():
    t = np.arange(21) * 0.00837
    eps, a = 1e-3, 1e-2
    assert checks.linear_amplitude(t, a * np.cos(OMEGA * t), OMEGA, eps, 1.0, a).ok
    wrong = a * np.cos(1.05 * OMEGA * t)
    assert not checks.linear_amplitude(t, wrong, OMEGA, eps, 1.0, a).ok


def test_surface_volume_rejects_a_leak():
    vol = np.zeros(30)
    assert checks.surface_volume(vol + 1e-12, 1e-2, 1.0, 2.0 * np.pi).ok
    leak = -1e-5 * np.arange(30)
    assert not checks.surface_volume(leak, 1e-2, 1.0, 2.0 * np.pi).ok


EPS = [1e-2, 1e-3, 1e-4, 0.0]


def _sweep(sups, conormals=(1.0, 1.01, 1.02, 1.0), amps=(1.0, 1.1, 1.2), failed=()):
    return checks.sweep_limits(EPS, list(failed), dict(zip(EPS, sups)),
                               dict(zip(EPS, conormals)), dict(zip(EPS, amps)))


def test_sweep_rejects_sups_that_do_not_decrease():
    assert all(c.ok for c in _sweep([1e-4, 2e-5, 5e-6]))
    assert not _sweep([1e-4, 2e-5, 2e-5])[1].ok
    assert not _sweep([1e-4, 2e-5, 3e-5], [1.0] * 4, [1.0] * 3)[1].ok
    bad = _sweep([1e-4, 2e-5, 5e-6], [1.0, 2.5, 1.0, 1.0], [1.0, 2.1, 1.0], [1e-3])
    assert [c.ok for c in bad] == [False, True, False, False]


def test_sweep_rejects_a_missing_member():
    # the 1e-3 member failed, so epsilon_sweep has no values for it
    sups = {1e-2: 1e-4, 1e-4: 5e-6}
    co = {1e-2: 1.0, 1e-4: 1.0, 0.0: 1.0}
    amps = {1e-2: 1.0, 1e-4: 1.0}
    assert not any(c.ok for c in checks.sweep_limits(EPS, [1e-3], sups, co, amps))
    # a failed eps = 0 reference leaves no comparison at all
    assert not any(c.ok for c in checks.sweep_limits(EPS, [0.0], {}, {}, {}))


def _fail_viscous_solve(monkeypatch, eps_bad, error):
    solve = evolution.MetricOps.viscous_solve

    def viscous_solve(self, v, eps, dt, **kwargs):
        if eps == eps_bad:
            raise error
        return solve(self, v, eps, dt, **kwargs)

    monkeypatch.setattr(evolution.MetricOps, "viscous_solve", viscous_solve)


@pytest.fixture
def tiny_round(monkeypatch, tmp_path):
    """A 16x24 sweep round of two steps per member, with cold caches."""
    import workload

    monkeypatch.setattr(evolution, "_OPS_CACHE", {})
    monkeypatch.setattr(grid_module, "_VERTICAL_CACHE", {})
    monkeypatch.setattr(diagnostics, "run", diagnostics.run)  # restored after
    spec = dict(workload.WORKLOADS["eps_sweep_32x72"],
                config=SimulationConfig(n_y=16, n_z=24, stretch_gamma=3.5,
                                        amplitude=1e-3), steps=2)

    def run_round():
        clock = workload.StepClock()
        workload.time_members(clock)
        return workload.round_sweep(spec, 0.3, workload.NoTrace(), clock, tmp_path)

    return run_round


def test_sweep_round_counts_every_operation(tiny_round):
    data = tiny_round()
    assert (data["attempted"], data["failed"]) == (4 * 2 + 4, 0)
    assert [len(m) for m in data["steps"]] == [2, 2, 2, 2]
    assert data["checks"][0].ok


def test_sweep_round_counts_a_failed_member(monkeypatch, tiny_round):
    # run catches this one: epsilon_sweep records the member in result.failed
    _fail_viscous_solve(monkeypatch, 1e-3, MetricValidityError("forced"))
    data = tiny_round()
    assert data["failed"] == 2 + 1  # the member's two steps and the member
    assert not data["checks"][0].ok and not data["checks"][1].ok


def test_sweep_round_counts_a_solver_failure(monkeypatch, tiny_round):
    # this one escapes run and epsilon_sweep, and every member is lost
    _fail_viscous_solve(monkeypatch, 1e-3, SolverFailureError("forced"))
    data = tiny_round()
    assert data["failed"] == (4 * 2 - 2) + 4  # only the 1e-2 member stepped
    assert "SolverFailureError" in data["checks"][0].name
    assert not any(c.ok for c in data["checks"])


def test_wave_round_counts_a_solver_failure(monkeypatch, tmp_path):
    import workload

    monkeypatch.setattr(evolution, "_OPS_CACHE", {})
    monkeypatch.setattr(grid_module, "_VERTICAL_CACHE", {})
    _fail_viscous_solve(monkeypatch, 1e-3, SolverFailureError("forced"))
    spec = dict(config=SimulationConfig(n_y=16, n_z=24, eps=1e-3, amplitude=1e-2),
                steps=3, writes=True)
    data = workload.round_wave(spec, 0.3, workload.NoTrace(),
                               workload.StepClock(), tmp_path)
    # three steps and four read-backs planned, none done
    assert (data["attempted"], data["failed"]) == (3 + 4, 3 + 4)
    assert not data["checks"][0].ok


@pytest.fixture
def snapshot(tmp_path):
    g = make_grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
    rng = np.random.default_rng(5)
    state = make_flow_state(g, 1e-2 * np.cos(g.y_nodes),
                            1e-3 * rng.standard_normal((2, 16, 16)), eps=1e-3)
    path = tmp_path / "state.wtk"
    save_checkpoint(path, state)
    return state, path


def test_snapshot_roundtrip_accepts_exact_copy(snapshot):
    state, path = snapshot
    assert checks.snapshots([state], [restore_checkpoint(path)]).ok


def test_snapshot_rejects_one_flipped_byte(snapshot):
    state, path = snapshot
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01  # inside the last velocity sample
    path.write_bytes(bytes(raw))
    assert not checks.snapshots([state], [restore_checkpoint(path)]).ok
    assert not checks.snapshots([state], [None]).ok


def test_layer_metrics_self_time_and_iterations():
    spans = [
        ["advance", 0.0, 1.0, -1, None],
        ["project", 0.1, 0.4, 0, 30],
        ["decompose_pressure", 0.4, 0.6, 0, 100],
        ["advance", 1.0, 1.5, -1, None],
        ["project", 1.1, 1.2, 3, 10],
        ["decompose_pressure", 1.2, 1.3, 3, 60],
        ["project", 2.0, 2.5, -1, None],  # outside a step: not counted
    ]
    m = layer_metrics(spans)
    assert m["evolution.project.ms_per_step"] == pytest.approx(200.0)
    assert m["evolution.project.iters_per_solve"] == 20.0
    assert m["elliptic.decompose_pressure.iters_per_step"] == 80.0
    assert m["evolution.advance.self_ms_per_step"] == pytest.approx(400.0)
    assert m["evolution.viscous_solve.ms_per_step"] == 0.0
