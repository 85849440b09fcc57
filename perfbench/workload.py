"""One round of one benchmark workload, in a fresh process.

Run by ``run.py`` with the thread counts of the numeric libraries set to 1
and ``src`` on the path.  A round builds its state from the config cold
(the module caches are empty in a fresh process), steps it in a closed loop
through ``wavetank.evolution.run`` or ``wavetank.diagnostics.epsilon_sweep``,
writes and reads back what the workload says, checks the outputs and prints
one JSON line.  ``--setup-only`` stops after the timed set-up.
"""

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from wavetank import diagnostics, evolution, grid as grid_module
from wavetank.config import SimulationConfig, build_grid
from wavetank.errors import CheckpointError
from wavetank.evolution import cfl_dt, make_flow_state
from wavetank.persist import restore_checkpoint, save_checkpoint, write_series_csv

import checks
from tracing import Tracer, install_layers, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {
    # default grid, Euler, CFL dt, half a period; every output written and read back
    "wave_euler_48x64": dict(
        config=SimulationConfig(n_y=48, n_z=64, eps=0.0, amplitude=1e-2),
        periods=0.5, writes=True,
    ),
    # CG-dominated: viscous solve every step, 20 CFL steps, nothing written
    "wave_viscous_96x128": dict(
        config=SimulationConfig(n_y=96, n_z=128, eps=1e-3, amplitude=1e-2),
        steps=20, writes=False,
    ),
    # criterion-10 sweep, shortened to 28 steps of dt = 0.04 (a quarter period)
    "eps_sweep_32x72": dict(
        config=SimulationConfig(n_y=32, n_z=72, stretch_gamma=3.5, amplitude=1e-3),
        eps_list=(1e-2, 1e-3, 1e-4, 0.0), steps=28, dt=0.04,
    ),
}


def phase(seed, config):
    """The seed sets the phase y0 of h = a cos(k (y - y0))."""
    return float(np.random.default_rng(seed).uniform(0.0, config.length_y))


def wavenumber(config):
    return 2.0 * np.pi * config.mode_k / config.length_y


def standing_wave(config, y0, eps):
    """The standing_wave preset of initial_state, shifted by y0."""
    grid = build_grid(config)
    h = config.amplitude * np.cos(wavenumber(config) * (grid.y_nodes - y0))
    return make_flow_state(
        grid, h, np.zeros((2, grid.n_y, grid.n_z)), eps=eps, g=config.gravity_g,
        sigma=config.sigma, A=config.slope_A, c0=config.c0,
    )


def omega(config):
    return checks.gravity_capillary_omega(
        wavenumber(config), config.gravity_g, config.sigma, config.depth_H
    )


class StepClock:
    """on_step callback: wall time between consecutive step returns.

    ``start`` opens a new member: one call of ``run``, so a sweep keeps one
    list of step times per member.
    """

    def __init__(self, on_sample=None):
        self.members = []
        self.on_sample = on_sample
        self._last = None

    def start(self):
        self.members.append([])
        self._last = perf_counter()

    def __call__(self, state, report):
        now = perf_counter()
        self.members[-1].append(now - self._last)
        if self.on_sample is not None:
            self.on_sample()
        self._last = perf_counter()

    @property
    def completed(self):
        return sum(len(m) for m in self.members)


class NoTrace:
    """Stands in for Tracer in untraced rounds: a span records nothing."""

    def span(self, name):
        return contextlib.nullcontext([None] * 5)


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RssProbe:
    """Peak RSS against outputs stored so far, sampled at each step (traced only).

    Stored outputs only ever add memory, so the peak rises with them.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = []
        self._seen = 0
        self._outputs = 0

    def __call__(self):
        spans = self.tracer.spans
        self._outputs += sum(1 for s in spans[self._seen:] if s[0] == "energy_report")
        self._seen = len(spans)
        self.samples.append((self._outputs, peak_rss_kb()))

    def kb_per_output(self):
        (n0, r0), (n1, r1) = self.samples[0], self.samples[-1]
        return (r1 - r0) / (n1 - n0) if n1 > n0 else 0.0


def time_members(clock):
    """Have epsilon_sweep call a run that times each member's steps."""
    member_run = diagnostics.run

    def run_with_clock(*args, **kwargs):
        clock.start()
        return member_run(*args, on_step=clock, **kwargs)

    diagnostics.run = run_with_clock


def _assert_cold():
    if evolution._OPS_CACHE or grid_module._VERTICAL_CACHE:
        raise RuntimeError("set-up is not cold: module caches are filled")


def setup_wave(config, y0, tracer):
    with tracer.span("initial_state"):
        state = standing_wave(config, y0, config.eps)
        dt = cfl_dt(state, cfl_factor=config.cfl_factor)
    return state, dt


def raised(call, exc):
    """The failing check of a round whose call into the program raised."""
    return checks.Check(f"{call} raised {type(exc).__name__}: {exc}", False, 1, 0)


def round_wave(spec, y0, tracer, clock, out):
    config = spec["config"]
    _assert_cold()
    t0 = perf_counter()
    state, dt = setup_wave(config, y0, tracer)
    setup_s = perf_counter() - t0
    if "periods" in spec:
        t_final = spec["periods"] * 2.0 * np.pi / omega(config)
    else:
        t_final = spec["steps"] * dt
    n_steps = max(1, int(np.ceil(t_final / dt - 1e-12)))
    # operations: every step and, when written, every output read back
    n_reads = n_steps + 1 if spec["writes"] else 0
    clock.start()
    try:
        traj = evolution.run(state, t_final=t_final, dt=dt, on_step=clock)
    except Exception as exc:  # a solver failure escapes run
        return dict(
            setup_s=setup_s, wall_s=perf_counter() - t0, steps=clock.members,
            attempted=n_steps + n_reads,
            failed=(n_steps - clock.completed) + n_reads,
            checks=[raised("run", exc)],
        )
    restored, paths = [], []
    if spec["writes"]:
        with tracer.span("persist.write_series_csv") as rec:
            write_series_csv(out / "series.csv", traj)
            rec[4] = len(traj.times)
        for idx, st in enumerate(traj.states):
            paths.append(out / f"snapshot_{idx:06d}.wtk")
            with tracer.span("persist.save_checkpoint"):
                save_checkpoint(paths[-1], st)
        for path in paths:
            try:
                with tracer.span("persist.restore_checkpoint"):
                    restored.append(restore_checkpoint(path))
            except CheckpointError:
                restored.append(None)
    wall_s = perf_counter() - t0

    k = wavenumber(config)
    times = np.array(traj.times)
    amps = [checks.mode_amplitude(s.h.h_values, k, config.length_y, y0)
            for s in traj.states]
    energy = [e.total for e in traj.energy]
    volume = [float(np.sum(s.h.h_values)) * s.v.grid.dy for s in traj.states]
    result = [checks.surface_volume(volume, config.amplitude, k, config.length_y)]
    if config.eps == 0.0:
        result += [checks.frequency(times, amps, omega(config)),
                   checks.energy_drift(energy)]
    else:
        dissipation = [e.dissipation_rate for e in traj.energy]
        result += [
            checks.energy_balance(times, energy, dissipation),
            checks.linear_amplitude(times, amps, omega(config), config.eps, k,
                                    config.amplitude),
        ]
    if spec["writes"]:
        result += [checks.series_rows(out / "series.csv", len(traj.times)),
                   checks.snapshots(traj.states, restored)]
    read_back = sum(1 for r in restored if r is not None)
    return dict(
        setup_s=setup_s, wall_s=wall_s, steps=clock.members,
        attempted=n_steps + n_reads,
        failed=(n_steps - clock.completed) + (n_reads - read_back),
        checks=result,
    )


def round_sweep(spec, y0, tracer, clock, out):
    config = spec["config"]
    eps_list = list(spec["eps_list"])
    setup_times = []

    def make_state(eps):
        start = perf_counter()
        with tracer.span("initial_state"):
            state = standing_wave(config, y0, eps)
        setup_times.append(perf_counter() - start)
        return state

    _assert_cold()
    t_final = spec["steps"] * spec["dt"]
    t0 = perf_counter()
    try:
        with tracer.span("epsilon_sweep"):
            res = diagnostics.epsilon_sweep(make_state, eps_list, t_final=t_final,
                                            dt=spec["dt"])
        failed_members, error = list(res.failed), []
    except Exception as exc:  # escapes epsilon_sweep and loses every member
        res, failed_members = None, eps_list
        error = [raised("epsilon_sweep", exc)]
    wall_s = perf_counter() - t0

    sups, conormals, layer_amps = {}, {}, {}
    if res is not None:
        # a failed member, or a failed eps = 0 reference, leaves these out
        sups, conormals = res.sup_v_l2, res.conormal_max
        for eps, (zeta, prof) in res.profiles.items():
            layer_amps[eps] = float(np.max(prof[zeta >= -20.0])) / np.sqrt(eps)
    result = error + checks.sweep_limits(eps_list, failed_members, sups,
                                         conormals, layer_amps)
    n_steps = len(eps_list) * spec["steps"]
    return dict(
        setup_s=sum(setup_times), wall_s=wall_s, steps=clock.members,
        attempted=n_steps + len(eps_list),
        failed=(n_steps - clock.completed) + len(failed_members),
        checks=result,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    config = spec["config"]
    y0 = phase(args.seed, config)
    if args.setup_only:
        _assert_cold()
        t0 = perf_counter()
        if "eps_list" in spec:
            for eps in spec["eps_list"]:
                standing_wave(config, y0, eps)
        else:
            setup_wave(config, y0, NoTrace())
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    out = OUT_DIR / args.workload
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("snapshot_*.wtk"):
        stale.unlink()
    tracer = Tracer() if args.trace else NoTrace()
    probe = RssProbe(tracer) if args.trace else None
    clock = StepClock(on_sample=probe)
    if "eps_list" in spec:
        time_members(clock)
    if args.trace:
        install_layers(tracer)
    body = round_sweep if "eps_list" in spec else round_wave
    data = body(spec, y0, tracer, clock, out)
    data["peak_rss_mb"] = peak_rss_kb() / 1024.0
    data["y0"] = y0
    if args.trace:
        data["layers"] = layer_metrics(tracer.spans)
        data["layers"]["evolution.rss_kb_per_output"] = probe.kb_per_output()
        data["trace_cost_s"] = tracer.cost_s
        tracer.write_csv(out / f"trace_round{args.round}.csv")
    data["checks"] = [c.__dict__ for c in data["checks"]]
    print(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
