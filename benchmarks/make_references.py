"""Render the reference tables the benchmark checks every sweep against.

    python3 benchmarks/make_references.py

writes ``reference/<workload>.seed<seed>.csv`` for each workload at the
default and the held-out seed.  Run it only at a commit whose output is
known to be right: a later change that alters the bytes must say why,
not regenerate them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    env.pop("RANDSTEP_SEED", None)
    (HERE / "reference").mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            out = HERE / "reference" / f"{name}.seed{seed}.csv"
            subprocess.run([sys.executable, "-m", "randstep", *wl["argv"],
                            "--seed", str(seed), "--out", str(out)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            print(f"wrote {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
