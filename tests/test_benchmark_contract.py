"""The names the benchmark's traced run wraps still exist and still report.

perfbench's tracer wraps package callables by attribute at run time; a
renamed or deleted callable, or a solve that stops reporting its iteration
count, would otherwise only show as a broken or silent ``--trace 1`` run.
"""

from pathlib import Path

import pytest

from wavetank import evolution, grid as grid_module
from wavetank.config import SimulationConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workload

    # a traced round starts from cold module caches
    monkeypatch.setattr(evolution, "_OPS_CACHE", {})
    monkeypatch.setattr(grid_module, "_VERTICAL_CACHE", {})
    return tracing, workload


def test_traced_round_reports_solver_iterations(perfbench, monkeypatch, tmp_path):
    tracing, workload = perfbench

    class UndoneTracer(tracing.Tracer):
        """Registers each wrapped attribute with monkeypatch first, so the
        wraps are undone when the test ends."""

        def wrap(self, owner, attr, name, iterations=None):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
            super().wrap(owner, attr, name, iterations)

    tracer = UndoneTracer()
    tracing.install_layers(tracer)
    spec = dict(config=SimulationConfig(n_y=16, n_z=24, eps=1e-3, amplitude=1e-2),
                steps=3, writes=False)
    data = workload.round_wave(spec, 0.3, tracer, workload.StepClock(), tmp_path)
    assert (data["attempted"], data["failed"]) == (3, 0)

    layers = tracing.layer_metrics(tracer.spans)
    assert layers["evolution.project.iters_per_solve"] > 0
    assert layers["evolution.viscous_solve.iters_per_solve"] > 0
    for stem in ("surface.build_diffeomorphism", "evolution.metric_ops",
                 "evolution.project", "evolution.viscous_solve",
                 "evolution.cfl_dt", "operators.strain_phi"):
        assert layers[f"{stem}.ms_per_step"] > 0, stem
