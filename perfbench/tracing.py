"""Spans around the calls into wavetank's layers, for the traced run.

The tracer wraps public callables at the module or class attribute through
which ``advance``, ``run`` and ``epsilon_sweep`` reach them, so nothing in
the package changes.  Spans are kept in memory and written out at the end.
A span is ``[name, start, end, parent, iterations]``; ``iterations`` is read
from the wrapped call's return value where it carries a solver count.
"""

import contextlib
import csv
import functools
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.cost_s = 0.0  # time spent in the tracer's own bookkeeping
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, iterations=None):
        """Replace owner.attr by a traced version for the rest of the process."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            rec = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec[1], rec[2] = start, end
                self._stack.pop()
            if iterations is not None:
                rec[4] = iterations(args, kwargs, result)
            self.cost_s += (start - t0) + (perf_counter() - end)
            return result

        setattr(owner, attr, traced)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "iterations"])
            for name, start, end, parent, iters in self.spans:
                out.writerow([name, repr(start), repr(end), parent,
                              "" if iters is None else iters])


def _project_iterations(args, kwargs, result):
    return result[1] if kwargs.get("return_iterations") else None


def install_layers(tracer):
    """Wrap the layer boundaries the per-layer metrics are built from."""
    from wavetank import conormal, diagnostics, evolution

    tracer.wrap(evolution, "advance", "advance")
    tracer.wrap(evolution, "build_diffeomorphism", "build_diffeomorphism")
    tracer.wrap(evolution, "metric_ops", "metric_ops")
    tracer.wrap(evolution, "decompose_pressure", "decompose_pressure",
                lambda a, k, r: r.iterations)
    tracer.wrap(evolution, "cfl_dt", "cfl_dt")
    tracer.wrap(evolution, "strain_phi", "strain_phi")
    tracer.wrap(evolution, "energy_report", "energy_report")
    tracer.wrap(evolution.MetricOps, "project", "project", _project_iterations)
    tracer.wrap(evolution.MetricOps, "viscous_solve", "viscous_solve",
                lambda a, k, r: r[1])
    tracer.wrap(diagnostics, "run", "member_run")
    # epsilon_sweep reaches it through its own namespace, write_series_csv
    # through a function-level import from the module
    tracer.wrap(diagnostics, "conormal_norm", "conormal_norm")
    tracer.wrap(conormal, "conormal_norm", "conormal_norm")


# per-step layers: name in the span list -> metric stem
_STEP_LAYERS = {
    "build_diffeomorphism": "surface.build_diffeomorphism",
    "metric_ops": "evolution.metric_ops",
    "project": "evolution.project",
    "viscous_solve": "evolution.viscous_solve",
    "decompose_pressure": "elliptic.decompose_pressure",
    "cfl_dt": "evolution.cfl_dt",
    "strain_phi": "operators.strain_phi",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced round from its spans."""
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = [s[3] for s in spans]
    child_time = np.zeros(len(spans))
    in_step = np.zeros(len(spans), dtype=bool)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
            in_step[i] = names[p] == "advance" or in_step[p]

    def pick(name, where=None):
        return [i for i, n in enumerate(names)
                if n == name and (where is None or where[i])]

    steps = pick("advance")
    n_steps = max(len(steps), 1)
    out = {}
    for name, stem in _STEP_LAYERS.items():
        idx = pick(name, in_step)
        out[f"{stem}.ms_per_step"] = 1e3 * float(dur[idx].sum()) / n_steps
    proj_iters = [spans[i][4] for i in pick("project", in_step)]
    out["evolution.project.iters_per_solve"] = float(np.mean(proj_iters)) if proj_iters else 0.0
    visc_iters = [spans[i][4] for i in pick("viscous_solve", in_step)]
    out["evolution.viscous_solve.iters_per_solve"] = float(np.mean(visc_iters)) if visc_iters else 0.0
    press_iters = [spans[i][4] for i in pick("decompose_pressure", in_step)]
    out["elliptic.decompose_pressure.iters_per_step"] = float(sum(press_iters)) / n_steps
    out["evolution.advance.self_ms_per_step"] = (
        1e3 * float((dur[steps] - child_time[steps]).sum()) / n_steps
    )

    def per_call_ms(name, where=None):
        idx = pick(name, where)
        return 1e3 * float(dur[idx].mean()) if idx else 0.0

    out["config.initial_state_ms"] = 1e3 * float(dur[pick("initial_state")].sum())
    out["evolution.energy_report.ms_per_output"] = per_call_ms("energy_report")
    out["conormal.conormal_norm.ms_per_call"] = per_call_ms("conormal_norm")
    sweeps = pick("epsilon_sweep")
    out["diagnostics.epsilon_sweep.compare_s"] = float(sum(
        dur[i] - sum(dur[j] for j, p in enumerate(parent)
                     if p == i and names[j] in ("member_run", "initial_state"))
        for i in sweeps
    ))
    rows = [s[4] for s in spans if s[0] == "persist.write_series_csv"]
    series = pick("persist.write_series_csv")
    out["persist.write_series_csv.ms_per_row"] = (
        1e3 * float(dur[series].sum()) / sum(rows) if rows else 0.0
    )
    out["persist.save_checkpoint.ms_per_file"] = per_call_ms("persist.save_checkpoint")
    out["persist.restore_checkpoint.ms_per_file"] = per_call_ms("persist.restore_checkpoint")
    return out
