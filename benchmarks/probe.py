"""A fixed loop that measures how fast the machine is running right now.

On a shared host the same sweep can take 1.5 s in one minute and 2.8 s
in the next, and the process's CPU time moves with it (the core is
throttled or shared, not descheduled).  The benchmark therefore times
this loop while it measures and scales each measurement by
``REFERENCE_S / loop time``: the time the measurement would have taken at
the speed at which the loop takes ``REFERENCE_S``.  The loop runs no
randstep code, but it runs inside the measured process, between the
program's own work, so the program can move it somewhat.  Run right
after a read of a 64 MB array it was 0.2-0.6 % slower than after an
8 KB read (300 interleaved pairs, twice); no other effect has been
measured.  The traced pass therefore also reports the unscaled medians
(``unscaled.*``), so that a change can be judged on wall time too.

``Sampler`` runs the loop from a SIGALRM handler every 50 ms, so the
speed is sampled while a sweep runs, or while a fresh interpreter imports
the CLI (run this file as a script); the handler's wall time is
subtracted from the measurement.  The loop is timed in thread CPU time,
so time the sampler waits for a core (a busy process pool) does not
count as slowness.  On pde-heat, 64 sweeps varied by 16.5 % (coefficient
of variation); scaled by the sampled speed they varied by 5.8 %, and
scaled by loops run only between sweeps by 11.9 %.
"""

from __future__ import annotations

import signal
import time

#: About the median loop time, in thread CPU seconds, on the 2-core Xeon
#: of the baseline; it sets the scale, so that scaled times read close to
#: the unscaled ones there.
REFERENCE_S = 0.0018
PERIOD_S = 0.05


def loop_seconds() -> float:
    """Thread CPU time of a fixed stretch of interpreter work."""
    start = time.thread_time()
    acc = 0.0
    for i in range(20_000):
        acc += (i % 7) * 0.5
    return time.thread_time() - start


class Sampler:
    """Context manager that samples the loop every ``PERIOD_S`` of wall time."""

    def __enter__(self):
        self.samples = []
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.overhead_s += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(loop_seconds())

    def loop_s(self) -> float:
        """Median sampled loop time (``statistics`` is not imported: the
        set-up measurement below must import nothing randstep does not)."""
        ordered = sorted(self.samples)
        return 0.5 * (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2])


if __name__ == "__main__":
    # The set-up measurement: import the CLI and build its parser while
    # sampling, then report the sampler's overhead and loop time.
    with Sampler() as speed:
        import randstep.cli

        randstep.cli.build_parser()
    print(speed.overhead_s, speed.loop_s())
