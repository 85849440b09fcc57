"""Run configuration: plain-text key = value documents, presets, validation.

The effective configuration (all defaults applied) is what run commands
write next to their outputs, so any run can be reproduced from its own
artifacts.
"""

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError
from .grid import make_grid
from .evolution import make_flow_state

PRESETS = ("equilibrium", "standing_wave", "sheared_layer")


@dataclass(frozen=True)
class SimulationConfig:
    # grid
    n_y: int = 48
    n_z: int = 64
    length_y: float = 2.0 * np.pi
    depth_H: float = 2.0 * np.pi
    clustering: str = "tanh"
    stretch_gamma: float = 3.0
    # physics
    eps: float = 0.0
    gravity_g: float = 1.0
    sigma: float = 1.0
    slope_A: float = None  # None means "auto"
    c0: float = 0.25
    # scheme
    dt: float = None  # None means "auto" (CFL)
    cfl_factor: float = 0.5
    t_final: float = 1.0
    # initial condition
    preset: str = "standing_wave"
    amplitude: float = 1e-3
    mode_k: int = 1
    shear_u0: float = 0.1
    shear_delta: float = 0.5
    # output
    out_dir: str = "out"
    output_every: int = 1
    snapshot_every: int = 0
    # sweep
    eps_list: tuple = (1e-2, 1e-3, 1e-4, 0.0)
    # misc
    seed: int = 0

    def __post_init__(self):
        build_grid(self)  # the grid keys first; make_grid names the key
        if self.preset not in PRESETS:
            raise ConfigurationError(f"unknown preset {self.preset!r} (key 'preset')")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and value is not None and not np.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite (key '{f.name}')")
            if f.type is int and not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{f.name} must be an integer, got {value!r} (key '{f.name}')"
                )
        for key in ("eps", "gravity_g", "sigma", "amplitude", "seed"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"{key} must be >= 0 (key '{key}')")
        if self.t_final <= 0:
            raise ConfigurationError("t_final must be positive (key 't_final')")
        if self.c0 <= 0:
            raise ConfigurationError("c0 must be positive (key 'c0')")
        if self.shear_delta <= 0:
            raise ConfigurationError("shear_delta must be positive (key 'shear_delta')")
        if not 0 < self.cfl_factor <= 1:
            raise ConfigurationError("cfl_factor must be in (0, 1] (key 'cfl_factor')")
        if self.dt is not None and self.dt <= 0:
            raise ConfigurationError("dt must be positive or auto (key 'dt')")
        if self.slope_A is not None and self.slope_A <= 0:
            raise ConfigurationError("slope_A must be positive or auto (key 'slope_A')")
        if self.slope_A is not None and self.c0 > self.slope_A:
            raise ConfigurationError(f"c0 = {self.c0} exceeds the extension slope "
                                     f"A = {self.slope_A} (key 'c0')")
        if not 1 <= self.mode_k < self.n_y / 2:
            raise ConfigurationError(
                f"mode_k must be >= 1 and < n_y / 2 = {self.n_y / 2:g}, "
                f"got {self.mode_k} (key 'mode_k')"
            )
        if self.output_every < 1:
            raise ConfigurationError("output_every must be >= 1 (key 'output_every')")
        if self.snapshot_every < 0:
            raise ConfigurationError(
                "snapshot_every must be >= 0 (key 'snapshot_every')"
            )
        if any(not (np.isfinite(e) and e >= 0) for e in self.eps_list):
            raise ConfigurationError(
                "eps_list entries must be finite and >= 0 (key 'eps_list')"
            )


# Each key's kind comes from its declaration: the annotation (int, float,
# str, or tuple of floats), and a None default marks a key that takes "auto".
_FIELDS = {f.name: f for f in fields(SimulationConfig)}


def _parse_value(key, raw):
    f = _FIELDS[key]
    raw = raw.strip()
    if f.default is None and raw == "auto":
        return None
    try:
        if f.type is str:
            return raw
        if f.type is tuple:
            return tuple(float(tok) for tok in raw.split(",")) if raw else ()
        return f.type(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value {raw!r} for key '{key}'") from exc


def parse_config(text) -> SimulationConfig:
    """Parse a key = value document; unknown keys are rejected by name."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigurationError(f"unknown key '{key}' (line {lineno})")
        if key in overrides:
            raise ConfigurationError(f"duplicate key '{key}' (line {lineno})")
        overrides[key] = _parse_value(key, raw)
    return SimulationConfig(**overrides)


def _format_value(f, value):
    if f.default is None and value is None:
        return "auto"
    if f.type is tuple:
        return ",".join(repr(float(v)) for v in value)
    if f.type is str:
        return str(value)
    if f.type is int:
        return str(int(value))
    return repr(float(value))


def serialize_config(config: SimulationConfig) -> str:
    """Canonical text form: every key, declaration order, defaults included."""
    lines = [
        f"{name} = {_format_value(f, getattr(config, name))}"
        for name, f in _FIELDS.items()
    ]
    return "\n".join(lines) + "\n"


def apply_overrides(config: SimulationConfig, pairs) -> SimulationConfig:
    """Apply key=value strings from the command line."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not key=value")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key not in _FIELDS:
            raise ConfigurationError(f"unknown key '{key}' in override")
        updates[key] = _parse_value(key, raw)
    return replace(config, **updates)


# ---------------------------------------------------------------------------
# Presets

def build_grid(config: SimulationConfig):
    return make_grid(
        config.n_y,
        config.n_z,
        config.length_y,
        config.depth_H,
        clustering=config.clustering,
        stretch_gamma=config.stretch_gamma,
    )


def initial_state(config: SimulationConfig, eps=None):
    """Build the preset initial FlowState; eps overrides config.eps (sweeps)."""
    grid = build_grid(config)
    eps = config.eps if eps is None else eps
    y = grid.y_nodes
    z = grid.z_nodes
    h = np.zeros(grid.n_y)
    v = np.zeros((2, grid.n_y, grid.n_z))
    if config.preset == "standing_wave":
        kappa = 2.0 * np.pi * config.mode_k / config.length_y
        h = config.amplitude * np.cos(kappa * y)
    elif config.preset == "sheared_layer":
        profile = config.shear_u0 * np.exp(z / config.shear_delta)
        v[0] = np.tile(profile, (grid.n_y, 1))
    return make_flow_state(
        grid,
        h,
        v,
        t=0.0,
        eps=eps,
        g=config.gravity_g,
        sigma=config.sigma,
        A=config.slope_A,
        c0=config.c0,
    )
