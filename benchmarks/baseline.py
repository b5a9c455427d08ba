"""Measure the benchmark's baseline and write ``baseline.json``.

    python3 benchmarks/baseline.py [--write]

Runs ``run.py`` untraced once per seed in ``SEEDS`` on every workload and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median).  With ``--write`` it also runs the
traced pass at the default and the held-out seed and records everything,
with machine information, workload definitions, predictions and the
re-anchor profile, in ``baseline.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import PREDICTIONS, REFERENCE_SEEDS, WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
#: Profile measured at the re-anchor, as shares in percent.
ROADMAP_PROFILE = {
    "ode-stiff": {"newton / solve": 78, "rhs chain / solve": 55},
    "pde-heat": {"newton / sweep": 59, "load_vector / sweep": 20,
                 "l2_error / sweep": 12, "tridiag_solve / sweep": 2},
}


def bench(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "spread": (q3 - q1) / statistics.median(values)}


def profile(ode: dict, pde: dict) -> dict:
    """Shares of the re-anchor profile, in percent, from traced passes."""
    def pct(metrics, part, whole):
        return round(100.0 * metrics[part] / metrics[whole], 1)

    return {
        "ode-stiff": {
            "newton / solve": pct(ode, "ode_solver.newton_s", "ode_solver.solve_s"),
            "rhs chain / solve": pct(ode, "problems.rhs_s", "ode_solver.solve_s"),
        },
        "pde-heat": {
            "newton / sweep": pct(pde, "pde_solver.newton_s", "trace.sweep_s"),
            "load_vector / sweep": pct(pde, "fem1d.load_vector_s", "trace.sweep_s"),
            "l2_error / sweep": pct(pde, "fem1d.l2_error_s", "trace.sweep_s"),
            "tridiag_solve / sweep": pct(pde, "fem1d.tridiag_solve_s", "trace.sweep_s"),
        },
    }


def machine() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    except OSError:
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            info[key.strip()] = value.strip()
    return info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    untraced = {}
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in SEEDS]
        untraced[name] = {
            key: summary([r["metrics"][key]["value"] for r in runs]) for key in bounds}
        for key, s in untraced[name].items():
            flag = "" if s["spread"] < bounds[key] / 3 else "  <-- above bound/3"
            print(f"{name:20s} {key:20s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[key]}){flag}")
    if not args.write:
        return 0

    traced = {name: {str(seed): {k: v["value"] for k, v in
                                 bench(name, seed, seconds, 1)["metrics"].items()}
                     for seed in REFERENCE_SEEDS} for name in WORKLOADS}
    default = str(REFERENCE_SEEDS[0])
    measured = profile(traced["ode-stiff"][default], traced["pde-heat"][default])
    record = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {w["name"]: {"argv": WORKLOADS[w["name"]]["argv"], "why": w["why"]}
                      for w in spec["workloads"]},
        "predictions": [dict(zip(("layer_metric", "end_to_end", "workload", "expect"), p))
                        for p in PREDICTIONS],
        "baseline": untraced,
        "traced": traced,
        "reanchor_profile_pct": {"roadmap": ROADMAP_PROFILE, "measured_traced": measured},
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["reanchor_profile_pct"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
