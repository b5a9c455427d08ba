"""Check the paper-scale figures against the acceptance brackets.

Runs ``fig1-left``, ``fig1-right`` and ``fig2`` at ``--scale paper`` on
two workers, checks each against its entry of ``test_acceptance.BRACKETS``
(the one place the brackets are kept) and prints a Markdown table of the
slopes, wall times and failed checks.  Exits 1 if a check fails.

    PYTHONPATH=src python tests/paper_scale.py >> "$GITHUB_STEP_SUMMARY"

It takes about 80 s on two cores, most of it ``fig2``.
"""

import sys
import time

from randstep.harness import FIGURES, reproduce_figure

from test_acceptance import BRACKETS


def _summary(result) -> str:
    """The rate fits' slopes, or fig1-right's largest implicit rms error."""
    if "implicit_max_rms" in result:
        return f"max rbe rms {result['implicit_max_rms']:.3e}"
    return ", ".join(f"{scheme} {which} {fit.slope:.4f}"
                     for (scheme, which), fit in result.items())


def main() -> int:
    print("| figure | wall s | slopes | failed checks |")
    print("| --- | --- | --- | --- |")
    failed = 0
    for name in FIGURES:
        start = time.perf_counter()
        table, result = reproduce_figure(name, "paper", workers=2)
        seconds = time.perf_counter() - start
        bad = [check for check, ok in BRACKETS[name](table, result).items() if not ok]
        failed += len(bad)
        print(f"| {name} | {seconds:.1f} | {_summary(result)} | "
              f"{'; '.join(bad) or 'none'} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
