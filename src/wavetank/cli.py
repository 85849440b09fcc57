"""Command-line frontend: run, sweep, audit, check.

Every command writes an effective-config file (all defaults applied) and a
machine-readable status file to the output directory, then exits 0 on
success or 1 with the error class recorded.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import WavetankError
from .config import (
    SimulationConfig,
    apply_overrides,
    build_grid,
    initial_state,
    parse_config,
    serialize_config,
)
from .evolution import check_compatibility, run
from .diagnostics import epsilon_sweep, korn_audit
from .conormal import (
    anisotropic_embedding_audit,
    random_smooth_field,
    trace_inequality_audit,
)
from .elliptic import dn_quadratic_form
from .grid import Field
from .surface import (
    boundary_sobolev_norm,
    build_diffeomorphism,
    extension_gain_audit,
    random_surface,
)
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


def _write_status(out: Path, status, error=None):
    payload = {"status": status}
    if error is not None:
        payload["error_class"] = type(error).__name__
        payload["message"] = str(error)
    (out / "status.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _resolved_dt(config, state):
    if config.dt is not None:
        return config.dt
    from .evolution import cfl_dt

    dt = cfl_dt(state, cfl_factor=config.cfl_factor)
    if not np.isfinite(dt):
        dt = config.t_final / 100.0
    return dt


def cmd_run(config: SimulationConfig) -> int:
    out = _prepare_out(config)
    try:
        state = initial_state(config)
        dt = _resolved_dt(config, state)
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
            _write_status(out, "error", traj.failure)
            return 1
        _write_status(out, "ok")
        return 0
    except WavetankError as exc:
        _write_status(out, "error", exc)
        return 1


def cmd_sweep(config: SimulationConfig) -> int:
    out = _prepare_out(config)
    try:
        eps_list = list(config.eps_list)
        if not eps_list:
            eps_list = [1e-2, 1e-3, 1e-4, 0.0]
        state0 = initial_state(config, eps=eps_list[0])
        dt = _resolved_dt(config, state0)
        result = epsilon_sweep(
            lambda eps: initial_state(config, eps=eps),
            eps_list,
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
        write_sweep_csv(out / "sweep.csv", result)
        if result.failed:
            failing = ", ".join(f"{eps:g}" for eps in result.failed)
            _write_status(
                out, "error", WavetankError(f"sweep members failed: {failing}")
            )
            return 1
        _write_status(out, "ok")
        return 0
    except WavetankError as exc:
        _write_status(out, "error", exc)
        return 1


def cmd_audit(config: SimulationConfig) -> int:
    """Measure the property-audit constants and write their table."""
    out = _prepare_out(config)
    try:
        rng = np.random.default_rng(config.seed)
        grid = build_grid(config)
        rows = []

        gains = extension_gain_audit(grid, rng)
        for s, val in sorted(gains.items()):
            rows.append((f"extension_gain_s{s}", val))

        corpus = [random_smooth_field(grid, rng) for _ in range(12)]
        rows.append(
            ("anisotropic_embedding", anisotropic_embedding_audit(grid, corpus))
        )
        rows.append(
            ("trace_inequality", trace_inequality_audit(grid, corpus, 1.0, 1.0, 1.0))
        )

        korn_corpus = []
        for _ in range(10):
            h = random_surface(grid, rng, amplitude=0.05)
            d = build_diffeomorphism(h, A=None, c0=config.c0)
            v = np.stack(
                [random_smooth_field(grid, rng), random_smooth_field(grid, rng)]
            )
            korn_corpus.append((Field(grid, 0.2 * v), d))
        rows.append(("korn_lambda0", korn_audit(korn_corpus)))

        dn_cs = []
        for _ in range(10):
            h = random_surface(grid, rng, amplitude=0.05)
            d = build_diffeomorphism(h, A=None, c0=config.c0)
            f = rng.standard_normal(grid.n_y)
            f -= f.mean()
            quad = dn_quadratic_form(d, f, f, tol=config.solver_tol)
            w1inf = h.max_abs() + float(np.max(np.abs(h.slope())))
            denom = (1.0 + w1inf) ** -2 * boundary_sobolev_norm(
                grid, _half_multiplier(grid, f), 0.0
            ) ** 2
            if denom > 0:
                dn_cs.append(quad / denom)
        rows.append(("dn_coercivity_min_c", min(dn_cs)))

        lines = ["constant,value"]
        for name, val in rows:
            lines.append(f"{name},{val!r}")
            print(f"{name}: {val:.6g}")
        (out / "audit.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_status(out, "ok")
        return 0
    except WavetankError as exc:
        _write_status(out, "error", exc)
        return 1


def _half_multiplier(grid, f):
    """|grad| (1 + |grad|)^{-1/2} as a Fourier multiplier on boundary data."""
    fh = np.fft.rfft(np.asarray(f, float))
    kappa = grid.wavenumbers
    fh *= kappa / np.sqrt(1.0 + kappa)
    return np.fft.irfft(fh, n=grid.n_y)


def cmd_check(config: SimulationConfig) -> int:
    out = _prepare_out(config)
    try:
        state = initial_state(config)
        report = check_compatibility(state)
        print(
            f"compatibility residual: {report['residual']:.3e} "
            f"(tolerance {report['tolerance']:.1e}) "
            f"{'ok' if report['ok'] else 'WARNING: incompatible initial data'}"
        )
        dt = _resolved_dt(config, state)
        print(f"resolved dt: {dt:.6g}")
        _write_status(out, "ok")
        return 0
    except WavetankError as exc:
        _write_status(out, "error", exc)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavetank",
        description="Free-surface Navier-Stokes solver and verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "integrate one scenario and write series/snapshots"),
        ("sweep", "run the viscosity sweep and write comparison tables"),
        ("audit", "measure the property-audit constants"),
        ("check", "validate configuration and compatibility of initial data"),
    ):
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
    handler = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "audit": cmd_audit,
        "check": cmd_check,
    }[args.command]
    return handler(config)


if __name__ == "__main__":
    sys.exit(main())
