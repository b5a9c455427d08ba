"""Benchmark of randstep's Monte Carlo sweeps, driven through ``randstep.cli.main``.

Usage, from the repository root:

    python3 benchmarks/run.py --workload ode-stiff --seed 42 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the traced pass and reports per-layer
metrics.  Either way every sweep's CSV is checked against the stored
references, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads are
listed in ``workloads.py``; ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import REFERENCE_S  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS, with_workers  # noqa: E402

#: Reference cells must match to this relative tolerance.  The CSV holds
#: 17 significant digits and is byte-identical at the commit that stored
#: the references, so any drift beyond last-digit noise fails a cell.
REL_TOL = 1e-9
#: At a seed with no stored reference, a row that differs between the two
#: stored seeds is Monte Carlo output.  Its fields must be finite where the
#: default-seed reference is, keep their sign (or stay zero), and its rms
#: estimates must lie within this factor of the default-seed value: an
#: order-of-magnitude check, since with three replicas (pde-heat) the rms
#: ranged over a factor 5.7 across 30 seeds.  Standard errors and mean
#: iteration counts get no factor; with three replicas their spread across
#: seeds is unbounded.
SEED_FACTOR = 100.0
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
#: Every run must end within 180 s; the sweeps get what set-up leaves.
RUN_LIMIT_S = 170.0
SETUP_CODE = "import randstep.cli as cli; cli.build_parser()"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env) -> tuple[float, float]:
    """Wall time for a fresh interpreter to import the CLI and build its
    parser, less the sampler's overhead, and the loop time sampled meanwhile."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py")], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    overhead, loop = map(float, proc.stdout.split())
    return wall - overhead, loop


def fem1d_import_seconds(env) -> float:
    """Cumulative import time of ``randstep.fem1d`` from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=60)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "randstep.fem1d":
            return int(parts[1]) / 1e6
    raise BenchmarkError("randstep.fem1d missing from -X importtime output")


def reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.seed{seed}.csv"
    return path.read_text() if path.is_file() else None


def _rows(csv: str):
    lines = csv.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cell_ok(column: str, got: str, ref: str, seed_dependent: bool) -> bool:
    a, b = _number(got), _number(ref)
    if a is None or b is None:
        return got == ref
    if not seed_dependent:
        return _close(a, b, REL_TOL)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.isfinite(a) == math.isfinite(b)
    if a == 0.0 or b == 0.0 or (a > 0) != (b > 0):
        return a == b
    return not column.startswith("rms") or abs(math.log(a / b)) <= math.log(SEED_FACTOR)


def failed_cells(csv, ref: str, other: str | None = None) -> tuple[int, int]:
    """(attempted, failed) cells of ``csv`` against ``ref``, one cell per row.

    ``other`` is the reference stored for the held-out seed; it is passed
    when ``csv`` ran at a seed with no stored table of its own.
    """
    ref_header, ref_rows = _rows(ref)
    if csv is None:
        return len(ref_rows), len(ref_rows)
    header, rows = _rows(csv)
    if header != ref_header or len(rows) != len(ref_rows):
        return len(ref_rows), len(ref_rows)
    columns = header.split(",")
    other_rows = _rows(other)[1] if other is not None else ref_rows
    failed = 0
    for row, ref_row, other_row in zip(rows, ref_rows, other_rows):
        random = ref_row != other_row
        if len(row) != len(ref_row) or not all(
                _cell_ok(c, g, r, random) for c, g, r in zip(columns, row, ref_row)):
            failed += 1
    return len(ref_rows), failed


class Checks:
    """Tally of attempted and failed cells and checks, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def cells(self, label, csv, ref, other=None):
        attempted, failed = failed_cells(csv, ref, other)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{label}: {failed} of {attempted} cells deviate")

    def same(self, label, csv, base):
        """Every row of ``csv`` must equal ``base`` (determinism checks)."""
        text = base or csv
        rows = len(text.splitlines()) - 1 if text else 0
        if csv == base:
            bad = 0
        elif csv is None or base is None:
            bad = rows
        else:
            a, b = csv.splitlines(), base.splitlines()
            bad = min(rows, sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))
        self.attempted += rows
        self.failed += bad
        if bad:
            self.notes.append(f"{label}: {bad} rows differ")

    def holds(self, label, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{label}: failed")


def check_sweeps(checks, name, seed, reps, label):
    """Cells of repetitions run at ``seed`` against the stored references."""
    own = reference(name, seed)
    for i, rep in enumerate(reps):
        if rep["error"]:
            checks.notes.append(f"{label}[{i}] raised:\n{rep['error']}")
        if own is not None:
            checks.cells(f"{label}[{i}]", rep["csv"], own)
        else:
            checks.cells(f"{label}[{i}]", rep["csv"], reference(name, DEFAULT_SEED),
                         reference(name, REFERENCE_SEEDS[1]))
        if i:
            checks.same(f"{label}[{i}] vs [0]", rep["csv"], reps[0]["csv"])


def run_plan(plan, timeout) -> list:
    proc = subprocess.run([sys.executable, str(HERE / "sweep.py")],
                          input=json.dumps(plan), capture_output=True, text=True,
                          env=_env(), timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"sweep runner failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _step(name, tag, argv, seed, count, seconds=0.0, trace=False):
    out = ROOT / ".bench_out" / f"{name}.{tag}.csv"
    return {"label": f"{name}/seed{seed}", "argv": argv + ["--seed", str(seed)],
            "out": str(out), "count": count, "seconds": seconds, "trace": trace}


def _median(reps, key):
    """Median of a timing, scaled to the probe's reference speed."""
    return statistics.median(rep[key] * REFERENCE_S / rep["loop_s"] for rep in reps)


def untraced_pass(name, seed, seconds, started):
    wl = WORKLOADS[name]
    env = _env()
    setup = [setup_seconds(env) for _ in range(SETUP_SAMPLES)]
    plan = [_step(name, "reference", wl["argv"], DEFAULT_SEED, 1),
            _step(name, "timed", wl["argv"], seed, 3, seconds)]
    ref_step, timed = run_plan(plan, RUN_LIMIT_S - (time.perf_counter() - started))
    checks = Checks()
    check_sweeps(checks, name, DEFAULT_SEED, ref_step["reps"], "reference")
    check_sweeps(checks, name, seed, timed["reps"], "timed")
    reps = timed["reps"]
    sweep_s = _median(reps, "sweep_s")
    metrics = {
        "setup_s": statistics.median(wall * REFERENCE_S / loop for wall, loop in setup),
        "sweep_s": sweep_s,
        "replica_steps_per_s": wl["replica_steps"] / sweep_s,
        "cpu_s": _median(reps, "cpu_s"),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }
    raw_sweep = statistics.median(rep["sweep_s"] for rep in reps)
    probe = statistics.median(rep["loop_s"] for rep in reps)
    print(f"{name}: {len(reps)} timed sweeps at seed {seed}, {SETUP_SAMPLES} set-up samples")
    raw_setup = statistics.median(wall for wall, _ in setup)
    print(f"unscaled medians: sweep {raw_sweep:.4g} s, set-up {raw_setup:.4g} s, "
          f"probe {probe:.4g} s (reference {REFERENCE_S} s)")
    return checks, metrics


def traced_pass(name, seed, started):
    wl = WORKLOADS[name]
    env = _env()
    import_s = statistics.median(fem1d_import_seconds(env) for _ in range(IMPORT_SAMPLES))
    single = with_workers(wl["argv"], 1) if wl["workers"] > 1 else wl["argv"]
    plan = [_step(name, "reference", wl["argv"], DEFAULT_SEED, 1),
            _step(name, "untraced", wl["argv"], seed, 2)]
    if wl["workers"] > 1:
        plan.append(_step(name, "single", single, seed, 2))
    plan.append(_step(name, "traced", single, seed, 2, trace=True))
    steps = run_plan(plan, RUN_LIMIT_S - (time.perf_counter() - started))
    ref_step, untraced, traced = steps[0], steps[1], steps[-1]
    single_step = steps[2] if wl["workers"] > 1 else untraced

    checks = Checks()
    check_sweeps(checks, name, DEFAULT_SEED, ref_step["reps"], "reference")
    check_sweeps(checks, name, seed, untraced["reps"], "untraced")
    base = untraced["reps"][0]["csv"]
    for step, label in ((single_step, "workers=1"), (traced, "traced")):
        for i, rep in enumerate(step["reps"]):
            checks.same(f"{label}[{i}] vs untraced", rep["csv"], base)
    fingerprints = [t["fingerprint"] for t in traced["traces"]]
    checks.holds("two traced runs give identical counts",
                 all(f == fingerprints[0] for f in fingerprints))
    for key in wl["fires"]:
        checks.holds(f"boundary {key} fired", fingerprints[0].get(f"calls:{key}", 0) > 0)

    # bytes equal to the stored table: the default-seed sweep always, and
    # the run's own seed when a table is stored for it
    own = reference(name, seed)
    identical = int(ref_step["reps"][0]["csv"] == reference(name, DEFAULT_SEED)
                    and own in (None, base))
    layers = {key: statistics.median(t["layers"][key] for t in traced["traces"])
              for key in traced["traces"][0]["layers"]}
    # layer times are unscaled, so the traced sweep they are shares of, and
    # the overhead against the untraced workers=1 sweep, are too
    single_raw = statistics.median(rep["sweep_s"] for rep in single_step["reps"])
    traced_raw = statistics.median(rep["sweep_s"] for rep in traced["reps"])
    layers.update({
        "fem1d.import_s": import_s,
        "harness.cells": len(base.splitlines()) - 1 if base else 0,
        "harness.pool_efficiency":
            _median(single_step["reps"], "sweep_s")
            / (wl["workers"] * _median(untraced["reps"], "sweep_s")),
        "harness.csv_identical": identical,
        "unscaled.sweep_s": statistics.median(rep["sweep_s"] for rep in untraced["reps"]),
        "unscaled.cpu_s": statistics.median(rep["cpu_s"] for rep in untraced["reps"]),
        "trace.sweep_s": traced_raw,
        "trace.overhead_s": traced_raw - single_raw,
        "trace.overhead_frac": traced_raw / single_raw - 1.0,
    })
    print(f"{name}: traced at workers=1, seed {seed}; spans in .bench_out/")
    return checks, layers


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "randstep" / "cli.py").is_file():
        print(f"run.py: no randstep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if any(reference(args.workload, s) is None for s in REFERENCE_SEEDS):
        print(f"run.py: reference tables for {args.workload} are missing", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    try:
        if args.trace:
            checks, metrics = traced_pass(args.workload, args.seed, started)
        else:
            checks, metrics = untraced_pass(args.workload, args.seed, args.seconds, started)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"run.py: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    for note in checks.notes:
        print(f"check: {note}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    print(f"failed_frac = {checks.failed / checks.attempted:.6g} fraction")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
