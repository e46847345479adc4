"""Machine-speed probe, so timings can be reported at a reference speed.

On a shared host the CPU speed seen by one process can change by up to
2x, in phases lasting from seconds to tens of minutes, whatever the
program does.  The probe times a small fixed kernel every ``INTERVAL_S``
on a timer signal while the ops run.  An op's reference time is its wall
time, less the probe's own time inside it, scaled by ``KERNEL_REF_S`` over
the mean kernel time around the op: the time the op would take on a
machine that runs the kernel in ``KERNEL_REF_S``.  Kernel times are
averaged over a narrow window around the op, because the speed changes
within a second.

Run as a script, it is the set-up probe: it times ``import sylvester.cli``
in this fresh process, then a burst of the kernel, and prints the import
time and the mean kernel time.
"""

import signal
import sys
import time

KERNEL_REF_S = 0.001
INTERVAL_S = 0.05
WINDOW_S = 0.1


_POINTS = []


def kernel():
    """Exact rational arithmetic and small vectorised float work: the two
    kinds of work the package does, which slow down differently."""
    # Imported here, so that the set-up probe's import comes first.
    from fractions import Fraction

    import numpy as np

    total, table = Fraction(0), {}
    for i in range(1, 50):
        total += Fraction(i, i % 7 + 3) * Fraction(3, i + 1)
        table[i, i % 5] = total
    if not _POINTS:
        _POINTS.append(np.random.default_rng(0).random((4096, 2)))
    a = _POINTS[0]
    for _ in range(10):
        b = (a[:, 0] - a[::-1, 0]) * (a[:, 1] + 0.5) - a[:, 1] * a[::-1, 1]
        (b >= 0).sum()
    return total


def timed_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the kernel on entry, every ``INTERVAL_S`` while entered (in
    the main thread) and on exit."""

    def __init__(self):
        self.samples = []  # (start, seconds spent, warm kernel seconds)
        self._previous = None

    def _tick(self, signum, frame):
        # The first call reloads the kernel's code and data into the caches
        # the program just used; only the second, warm call is the speed.
        start = time.perf_counter()
        kernel()
        warm = timed_kernel()
        self.samples.append((start, time.perf_counter() - start, warm))

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def reference_time(self, t0, t1):
        """(reference seconds, probe seconds inside) of the interval."""
        inside = sum(spent for s, spent, _ in self.samples if t0 <= s <= t1)
        around = [k for s, _, k in self.samples
                  if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if not around:
            raise ValueError("no speed samples around the interval")
        mean = sum(around) / len(around)
        return (t1 - t0 - inside) * KERNEL_REF_S / mean, inside


def _setup_probe():
    t0 = time.perf_counter()
    import sylvester.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    kernels = sorted(timed_kernel() for _ in range(200))[20:180]
    print(import_s, sum(kernels) / len(kernels))


if __name__ == "__main__":
    sys.exit(_setup_probe())
