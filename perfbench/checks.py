"""Correctness checks the benchmark applies to each workload's outputs.

Every check compares against linear theory or against a property the
scheme must have, never against a stored copy of earlier output.  Each
returns a ``Check`` so that the runner can print it and the tests can feed
it wrong data and watch it fail.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def __post_init__(self):
        # plain Python types, so that a check serializes to JSON
        object.__setattr__(self, "ok", bool(self.ok))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "limit", float(self.limit))


def gravity_capillary_omega(k, g, sigma, depth):
    """Linear dispersion relation omega^2 = (g k + sigma k^3) tanh(k H)."""
    return float(np.sqrt((g * k + sigma * k**3) * np.tanh(k * depth)))


def mode_amplitude(h_values, k, length, y0):
    """Signed amplitude of the cos(k (y - y0)) component of h."""
    n = len(h_values)
    m = int(round(k * length / (2.0 * np.pi)))
    return 2.0 / n * float(np.real(np.fft.rfft(h_values)[m] * np.exp(1j * k * y0)))


def fit_frequency(times, amps):
    """Least-squares omega of amps ~ amps[0] cos(omega t).

    A coarse scan brackets the global minimum, a bounded scalar search
    refines it.
    """
    times = np.asarray(times, float)
    amps = np.asarray(amps, float)

    def cost(w):
        return float(np.sum((amps - amps[0] * np.cos(w * times)) ** 2))

    span = times[-1] - times[0]
    scan = np.linspace(0.1, 4.0 * np.pi / span, 800)
    best = int(np.argmin([cost(w) for w in scan]))
    lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, len(scan) - 1)]
    res = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def frequency(times, amps, omega, tol=0.02):
    """Fitted mode frequency within tol of theory (criterion 5's bound)."""
    rel = abs(fit_frequency(times, amps) - omega) / omega
    return Check("mode-1 frequency vs linear theory (rel)", rel <= tol, rel, tol)


def energy_drift(energy, tol=0.01):
    """max |E - E0| / E0 within tol (criterion 4's bound)."""
    E = np.asarray(energy, float)
    drift = float(np.max(np.abs(E - E[0])) / E[0])
    return Check("energy drift max|E-E0|/E0", drift <= tol, drift, tol)


def energy_balance(times, energy, dissipation, tol=0.25):
    """E(t) + int_0^t D dt stays at E0, trapezoid rule on stored outputs.

    The gap is measured against the dissipated energy int_0^T D dt: with the
    dissipation missing from either side the gap equals it, while the
    scheme's time error is an O(dt^1.5) fraction of it (see README).
    """
    t = np.asarray(times, float)
    E = np.asarray(energy, float)
    D = np.asarray(dissipation, float)
    dissipated = np.concatenate([[0.0], np.cumsum(0.5 * (D[1:] + D[:-1]) * np.diff(t))])
    total = dissipated[-1]
    if total <= 0.0:
        return Check("energy balance gap / dissipated energy", False, np.inf, tol)
    gap = float(np.max(np.abs(E + dissipated - E[0])) / total)
    return Check("energy balance gap / dissipated energy", gap <= tol, gap, tol)


def surface_volume(integrals, amplitude, k, length):
    """int h dy keeps its initial value.

    The bound is (a k)^2 a L, the size of the second-order terms of the
    kinematic condition, so a sign or factor error in it shows; the scheme's
    own drift sits orders of magnitude below (CHANGES.md records that it is
    not at rounding level).
    """
    vol = np.asarray(integrals, float)
    drift = float(np.max(np.abs(vol - vol[0])))
    limit = (amplitude * k) ** 2 * amplitude * length
    return Check("surface volume drift |int h - int h0|", drift <= limit, drift, limit)


def linear_amplitude(times, amps, omega, eps, k, amplitude, freq_tol=0.02):
    """Mode-1 amplitude follows a cos(omega t) of linear theory.

    Allowed at each time: the gap between cos(omega t) and cos((1 + freq_tol)
    omega t) (criterion 5's frequency bound), the linear viscous decay
    1 - exp(-2 eps k^2 t), and (a k)^2 for the neglected nonlinear terms.
    The scheme's time error is far below this (dt refinement in README).
    """
    t = np.asarray(times, float)
    a = np.asarray(amps, float) / amps[0]
    model = np.cos(omega * t)
    allowed = (
        np.abs(model - np.cos((1.0 + freq_tol) * omega * t))
        + (1.0 - np.exp(-2.0 * eps * k**2 * t))
        + (amplitude * k) ** 2
    )
    excess = float(np.max(np.abs(a - model) / allowed))
    return Check("mode-1 amplitude gap / allowed gap", excess <= 1.0, excess, 1.0)


def snapshot_roundtrip(original, restored):
    """A restored FlowState equals the saved one bit for bit."""
    return (
        original.t == restored.t
        and original.h.h_values.tobytes() == restored.h.h_values.tobytes()
        and original.v.values.tobytes() == restored.v.values.tobytes()
        and (original.eps, original.g, original.sigma, original.A, original.c0)
        == (restored.eps, restored.g, restored.sigma, restored.A, restored.c0)
    )


def snapshots(originals, restored):
    bad = sum(
        1 for a, b in zip(originals, restored)
        if b is None or not snapshot_roundtrip(a, b)
    )
    bad += abs(len(originals) - len(restored))
    return Check("snapshots not restored bit for bit", bad == 0, bad, 0)


def series_rows(path, n_outputs):
    with open(path, encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    return Check("series.csv rows minus outputs", rows == n_outputs,
                 rows - n_outputs, 0)


def sweep_limits(eps_list, failed, sups, conormals, layer_amps):
    """Criterion 10's limit properties.

    eps_list is decreasing and ends at 0; failed lists the members that did
    not finish.  sups and layer_amps map each viscous member's eps to its
    value, conormals every member's.  A property that lacks a member's value
    (the member failed, or the eps = 0 reference did) fails.
    """
    viscous = list(eps_list[:-1])

    def ordered(values, keys):
        return [values[e] for e in keys] if all(e in values for e in keys) else None

    sup = ordered(sups, viscous)
    co = ordered(conormals, eps_list)
    amp = ordered(layer_amps, viscous)
    nan = float("nan")
    worst_ratio = max(b / a for a, b in zip(sup, sup[1:])) if sup else nan
    co_spread = max(co) / min(co) if co else nan
    amp_spread = max(amp) / min(amp) if amp else nan
    return [
        Check("sweep members not finished", not failed, len(failed), 0),
        Check("sup|v_eps - v_0| ratio to next larger eps",
              sup is not None and all(a > b for a, b in zip(sup, sup[1:])),
              worst_ratio, 1.0),
        Check("Hco2 co-normal max spread", co_spread < 2.0, co_spread, 2.0),
        Check("layer amplitude/sqrt(eps) spread", amp_spread <= 2.0,
              amp_spread, 2.0),
    ]
