"""Check the paper-scale figures against the acceptance brackets.

Runs the named figures (default ``fig1-left``, ``fig1-right`` and
``fig2``) at ``--scale paper`` on two workers and ``--seed`` (default
42), checks each against its entry of ``test_acceptance.BRACKETS`` (the
one place the brackets are kept) and prints a Markdown table of the
slopes, wall times and failed checks.  Exits 1 if a check fails.

    PYTHONPATH=src python tests/paper_scale.py >> "$GITHUB_STEP_SUMMARY"
    PYTHONPATH=src python tests/paper_scale.py --seed 2017 fig1-left fig1-right

All three take about 55 s on two cores, most of it ``fig2``; the two
``fig1`` figures about 3 s.
"""

import argparse
import sys
import time

from randstep.harness import FIGURES, reproduce_figure
from randstep.rand_nodes import DEFAULT_MASTER_SEED

from test_acceptance import BRACKETS


def _summary(result) -> str:
    """The rate fits' slopes, or fig1-right's largest implicit rms error."""
    if "implicit_max_rms" in result:
        return f"max rbe rms {result['implicit_max_rms']:.3e}"
    return ", ".join(f"{scheme} {which} {fit.slope:.4f}"
                     for (scheme, which), fit in result.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    parser.add_argument("figures", nargs="*", metavar="figure",
                        help=f"any of {', '.join(FIGURES)} (default: all)")
    args = parser.parse_args()
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {', '.join(unknown)}")
    print("| figure | seed | wall s | slopes | failed checks |")
    print("| --- | --- | --- | --- | --- |")
    failed = 0
    for name in args.figures or FIGURES:
        start = time.perf_counter()
        table, result = reproduce_figure(name, "paper", args.seed, workers=2)
        seconds = time.perf_counter() - start
        bad = [check for check, ok in BRACKETS[name](table, result).items() if not ok]
        failed += len(bad)
        print(f"| {name} | {args.seed} | {seconds:.1f} | {_summary(result)} | "
              f"{'; '.join(bad) or 'none'} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
