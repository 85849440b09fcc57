"""Command-line frontend: run, sweep, audit, check.

Every command writes an effective-config file (all defaults applied) and a
machine-readable status file to the output directory, then exits 0 on
success or 1 with the error class recorded there and printed on stderr.  A
command handler takes the config and the prepared output directory, raises
on failure and may return fields for the status; main writes the status.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import HistoryDepthError, WavetankError
from .config import (
    SimulationConfig,
    apply_overrides,
    build_grid,
    initial_state,
    parse_config,
    serialize_config,
)
from .evolution import check_compatibility, resolve_dt, run
from .diagnostics import epsilon_sweep, korn_audit, linear_frequency, measured_frequency
from .conormal import (
    anisotropic_embedding_audit,
    random_smooth_field,
    trace_inequality_audit,
)
from .elliptic import EllipticOperator, dn_coercivity_ratio
from .grid import Field, fourier_basis
from .surface import build_diffeomorphism, extension_gain_audit, random_surface
from .persist import (
    save_checkpoint,
    write_profile_csv,
    write_series_csv,
    write_sweep_csv,
)


def _load_config(args) -> SimulationConfig:
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        config = parse_config(text)
    else:
        config = SimulationConfig()
    if args.override:
        config = apply_overrides(config, args.override)
    if args.out:
        config = apply_overrides(config, [f"out_dir={args.out}"])
    if args.seed is not None:
        config = apply_overrides(config, [f"seed={args.seed}"])
    return config


def _prepare_out(config) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.txt").write_text(
        serialize_config(config), encoding="utf-8"
    )
    return out


def _write_status(out: Path, payload):
    (out / "status.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _standing_wave_report(config, traj):
    """The wave mode's linear and measured frequency and the energy drift
    |E_end - E_0| / E_0; a value that cannot be formed is None."""
    grid = traj.states[0].v.grid
    col = 2 * config.mode_k - 1  # the basis column of cos(k y)
    amps = np.array([s.h.h_values for s in traj.states]) @ fourier_basis(grid)[:, col]
    omega = linear_frequency(grid.wavenumbers[col], config.gravity_g,
                             config.sigma, grid.depth_H)
    try:
        measured = measured_frequency(traj.times, amps)
    except HistoryDepthError:  # fewer than two zero crossings
        measured = None
    E0, E1 = traj.energy[0].total, traj.energy[-1].total
    drift = float(abs(E1 - E0) / E0) if E0 != 0.0 else None
    return {"omega_linear": float(omega), "omega_measured": measured,
            "energy_drift": drift}


def cmd_run(config: SimulationConfig, out: Path):
    state = initial_state(config)
    dt = resolve_dt(state, config.t_final, config.dt, config.cfl_factor)
    traj = run(
        state,
        t_final=config.t_final,
        dt=dt,
        output_every=config.output_every,
    )
    write_series_csv(out / "series.csv", traj)
    if config.snapshot_every:
        for idx, st in enumerate(traj.states):
            if idx % config.snapshot_every == 0:
                save_checkpoint(out / f"snapshot_{idx:06d}.wtk", st)
    save_checkpoint(out / "snapshot_final.wtk", traj.states[-1])
    if traj.failure is not None:
        raise traj.failure
    if config.preset == "standing_wave":
        return _standing_wave_report(config, traj)


def cmd_sweep(config: SimulationConfig, out: Path):
    # no stability limit reads eps, so the config's own state sets dt
    dt = resolve_dt(initial_state(config), config.t_final, config.dt,
                    config.cfl_factor)
    result = epsilon_sweep(
        lambda eps: initial_state(config, eps=eps),
        config.eps_list,
        t_final=config.t_final,
        dt=dt,
        output_every=config.output_every,
    )
    for eps, traj in result.trajectories.items():
        sub = out / f"eps_{eps:g}"
        sub.mkdir(exist_ok=True)
        write_series_csv(sub / "series.csv", traj)
        if eps in result.profiles:
            zeta, profile = result.profiles[eps]
            write_profile_csv(sub / "layer_profile.csv", zeta, profile)
    print(write_sweep_csv(out / "sweep.csv", result), end="")
    if result.failed:
        failing = ", ".join(f"{eps:g}" for eps in result.failed)
        raise WavetankError(f"sweep members failed: {failing}")


def cmd_audit(config: SimulationConfig, out: Path):
    """Measure the property-audit constants and write their table."""
    rng = np.random.default_rng(config.seed)
    grid = build_grid(config)
    rows = []

    gains = extension_gain_audit(grid, rng)
    for s, val in sorted(gains.items()):
        rows.append((f"extension_gain_s{s}", val))

    corpus = [random_smooth_field(grid, rng) for _ in range(12)]
    rows.append(("anisotropic_embedding", anisotropic_embedding_audit(grid, corpus)))
    rows.append(
        ("trace_inequality", trace_inequality_audit(grid, corpus, 1.0, 1.0, 1.0))
    )

    korn_corpus = []
    for _ in range(10):
        h = random_surface(grid, rng, amplitude=0.05)
        d = build_diffeomorphism(h, A=None, c0=config.c0)
        v = np.stack([random_smooth_field(grid, rng), random_smooth_field(grid, rng)])
        korn_corpus.append((Field(grid, 0.2 * v), d))
    rows.append(("korn_lambda0", korn_audit(korn_corpus)))

    dn_cs = []
    for _ in range(10):
        h = random_surface(grid, rng, amplitude=0.05)
        op = EllipticOperator(build_diffeomorphism(h, A=None, c0=config.c0))
        f = rng.standard_normal(grid.n_y)
        f -= f.mean()
        dn_cs.append(dn_coercivity_ratio(op, f, 1e-10))
    rows.append(("dn_coercivity_min_c", min(dn_cs)))

    lines = ["constant,value"]
    for name, val in rows:
        lines.append(f"{name},{val!r}")
        print(f"{name}: {val:.6g}")
    (out / "audit.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_check(config: SimulationConfig, out: Path):
    state = initial_state(config)
    report = check_compatibility(state)
    print(
        f"compatibility residual: {report['residual']:.3e} "
        f"(tolerance {report['tolerance']:.1e}) "
        f"{'ok' if report['ok'] else 'WARNING: incompatible initial data'}"
    )
    dt = resolve_dt(state, config.t_final, config.dt, config.cfl_factor)
    print(f"resolved dt: {dt:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavetank",
        description="Free-surface Navier-Stokes solver and verification lab",
    )
    commands = {
        "run": (cmd_run, "integrate one scenario and write series/snapshots"),
        "sweep": (cmd_sweep, "run the viscosity sweep and write comparison tables"),
        "audit": (cmd_audit, "measure the property-audit constants"),
        "check": (cmd_check,
                  "validate configuration and compatibility of initial data"),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, help="seed for randomized corpora")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except WavetankError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    handler, _ = commands[args.command]
    out = _prepare_out(config)
    try:
        report = handler(config, out) or {}
    except WavetankError as exc:
        _write_status(out, {"status": "error", "error_class": type(exc).__name__,
                            "message": str(exc)})
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_status(out, {"status": "ok", **report})
    return 0


if __name__ == "__main__":
    sys.exit(main())
