"""Run randstep command lines in one process and report what each cost.

Reads a JSON plan from stdin: a list of steps, each
``{"label": name, "argv": [...], "out": path, "count": n, "seconds": s,
"trace": bool}``.
A step calls ``randstep.cli.main(argv + ["--out", out])`` at least
``count`` times and until ``seconds`` have passed.  Writes one JSON
object to stdout: per step the list of repetitions (exit code, wall and
CPU seconds, peak resident memory, CSV text, and the median time of the
speed probe sampled during the repetition) and, for traced steps, the
tracer's layer metrics and counts.  Traced steps also write their spans
next to ``out``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import Sampler  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def run_once(label, argv, out, tracer=None) -> dict:
    from randstep import cli

    Path(out).unlink(missing_ok=True)
    error = None
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    with Sampler() as speed:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv + ["--out", out])
                else:
                    with tracer.root_span(f"workload:{label}"):
                        code = cli.main(argv + ["--out", out])
        except Exception:  # a crash fails this repetition's cells, not the run
            code, error = -1, traceback.format_exc()
    sweep_s = time.perf_counter() - start - speed.overhead_s
    cpu_s = _cpu_seconds() - cpu0 - speed.overhead_s
    csv = Path(out).read_text() if code == 0 else None
    return {"code": code, "error": error, "sweep_s": sweep_s, "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(), "csv": csv, "loop_s": speed.loop_s()}


def run_step(step) -> dict:
    reps, traces = [], []
    started = time.perf_counter()
    while len(reps) < step["count"] or time.perf_counter() - started < step["seconds"]:
        tracer = None
        if step["trace"]:
            tracer = Tracer()
            tracer.install()
        try:
            reps.append(run_once(step["label"], step["argv"], step["out"], tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            traces.append({"layers": tracer.layer_metrics(),
                           "fingerprint": tracer.fingerprint()})
            spans = [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                     for i, p, n, a, b in tracer.spans]
            Path(step["out"]).with_suffix(f".spans{len(traces)}.json").write_text(
                json.dumps(spans))
    return {"reps": reps, "traces": traces}


def main() -> int:
    os.environ.pop("RANDSTEP_SEED", None)  # the argv seed must win
    plan = json.load(sys.stdin)
    result = [run_step(step) for step in plan]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
