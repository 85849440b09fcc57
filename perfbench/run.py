"""Benchmark of wavetank's three user-facing paths; see README.md.

    python3 perfbench/run.py --workload wave_euler_48x64 --seed 3 --trace 0

Each round of a workload runs in a fresh single-threaded process
(``workload.py``).  Whole rounds repeat while the next one is expected to
end within ``--seconds`` (``run_seconds`` of BENCHMARK.json unless given).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics and the tracing overhead.
Workload names, run length and metric units come from BENCHMARK.json.  The
exit code is 1 when a check fails and 2 when the package sources are
missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_SETUPS = 7  # cold set-ups, each in its own process, behind setup_s
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


def child(workload, seed, *extra):
    """Run workload.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{workload} round failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, trace):
    """Whole rounds while the next is expected to end within the window.

    A round is expected to last as long as the longest so far.  Traced runs
    alternate untraced and traced rounds, so that the overhead is measured
    against rounds run at nearly the same time.
    """
    rounds, longest = [], 0.0
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = perf_counter()
        rounds.append(child(workload, seed, "--round", str(len(rounds)),
                            "--trace", str(int(traced))))
        rounds[-1]["traced"] = traced
        longest = max(longest, perf_counter() - t0)
        if len(rounds) < (2 if trace else 1):
            continue
        if perf_counter() - start + longest > seconds:
            return rounds


def with_units(values):
    return {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()}


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    # 'inclusive' interpolates linearly, as numpy.percentile does
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def step_ms(rounds, q):
    """q-th percentile of the time of one step, in ms.

    A sweep step advances every member by dt.  Each member's step times are
    pooled over the rounds and the members' percentiles summed, so that
    members of different cost are not mixed in one distribution.
    """
    members = zip_longest(*(r["steps"] for r in rounds), fillvalue=[])
    pooled = [[1e3 * s for steps in m for s in steps] for m in members]
    return sum(percentile(p, q) for p in pooled if p)


def end_to_end(workload, seed, rounds):
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(child(workload, seed, "--setup-only")["setup_s"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "step_ms_p50": step_ms(rounds, 50),
        "step_ms_p90": step_ms(rounds, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    out["trace.bookkeeping_pct"] = 100.0 * statistics.median(
        r["trace_cost_s"] / r["wall_s"] for r in traced
    )
    return out


def bench(workload, seed, seconds, trace):
    rounds = run_rounds(workload, seed, seconds, trace)
    metrics = with_units(per_layer(rounds) if trace
                         else end_to_end(workload, seed, rounds))
    kind = "per_layer" if trace else "end_to_end"
    if set(metrics) != {m["name"] for m in SPEC[kind]}:
        raise BenchmarkError(f"{kind} metrics differ from BENCHMARK.json")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = True
    n_steps = sum(len(m) for r in rounds for m in r["steps"])
    print(f"== {workload} seed {seed} (y0 = {rounds[0]['y0']:.6f}): "
          f"{len(rounds)} rounds, {n_steps} steps")
    for i, r in enumerate(rounds):
        for c in r["checks"]:
            correct &= c["ok"]
            if i == 0 or not c["ok"]:
                mark = "ok" if c["ok"] else "FAIL"
                print(f"   check {mark:4} {c['name']}: {c['value']:.3e} "
                      f"(limit {c['limit']:.3e})")
    print(f"   operations attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"   {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "wavetank" / "__init__.py").is_file():
        print(f"wavetank sources not found at {SRC_DIR}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
