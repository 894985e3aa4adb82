"""Host pace: fixed reference kernels timed beside every measurement.

The benchmark's host is a small virtual machine on a shared machine, whose
speed changes by up to 1.7x in stretches of seconds to minutes.  CPU time
moves with wall time, so the CPU itself slows; the scheduler is not the
cause.  A median over one run then depends on how much of the run fell in a
slow stretch, and the runs of one set of seeds disagree by far more than any
change to skewkit should be allowed to move them.

So the benchmark times a fixed reference kernel, which uses numpy and the
standard library only and never skewkit, before each op, after the last
op, and around each set-up probe.  The time reported is the wall time
scaled to the kernel's nominal speed::

    adjusted = wall * NOMINAL_MS[kernel] / kernel_ms

where, for an op, ``kernel_ms`` is the slower of the kernel runs just
before and just after it (see ``bracketing``), and for set-up, the median
of the run's ``spawn`` kernel runs.

A change to skewkit moves ``wall`` and leaves ``kernel_ms`` alone, so it
shows in full.  The host's speed moves both.  Each workload is paced by
the kernel whose work resembles its own, because the slow state does not
slow every kind of work by the same factor.  On a 2-vCPU Xeon VM, a
``coverage`` op took 178 ms in a fast stretch and 296 ms in a slow one,
and the ``python`` kernel 11.7 ms and 19.4 ms.  Over ten minutes, the
median of 30 s windows ranged over 41% of itself in wall time and over 14%
in adjusted time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Each kernel's time on the machine described above, at its usual speed.
# The values fix the scale of adjusted times; they are constants, so an
# adjusted time compares across runs and commits.
NOMINAL_MS = {"python": 18.0, "arrays": 16.0, "spawn": 560.0}


class Pacer:
    """Times the reference kernels.  Inputs are fixed, not seeded per run."""

    def __init__(self, cwd):
        self.cwd = cwd
        rng = np.random.default_rng(20191216)
        self.small = np.sort(rng.lognormal(size=200))
        self.probs = np.linspace(0.01, 0.99, 300)
        self.large = rng.random(500_000)

    def python(self) -> None:
        """A Python loop of small numpy calls over a 200-point sample, small
        sorts and random draws, and dict updates: the kind of work
        ``coverage`` does."""
        x = self.small
        spacings = np.diff(x)
        positions = np.arange(1, x.size) / x.size
        total = 0.0
        for _ in range(3):
            for p in self.probs:
                lo = np.searchsorted(positions, p - 0.05, side="right")
                hi = np.searchsorted(positions, p + 0.05, side="left")
                u = (positions[lo:hi] - p) / 0.05
                total += float((0.75 * (1.0 - u * u)) @ spacings[lo:hi] / 0.05)
        rng = np.random.default_rng(2)
        for _ in range(20):
            np.sort(rng.lognormal(size=200))
        table: dict = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0.0) + 0.5 * i

    def arrays(self) -> None:
        """A sort and O(n) passes over 500k floats: the kind of work
        ``estimate_large`` does."""
        ordered = np.sort(self.large)
        np.diff(ordered).sum()
        (np.arange(1, ordered.size) / ordered.size).sum()

    def spawn(self) -> None:
        """A fresh interpreter that imports numpy and scipy.special: the
        kind of work a cold start does."""
        subprocess.run([sys.executable, "-c", "import numpy, scipy.special"],
                       cwd=self.cwd, check=True, timeout=120)

    def time_ms(self, kernel: str) -> float:
        """Wall time of one run of ``kernel``, in ms."""
        run = getattr(self, kernel)
        start = time.perf_counter()
        run()
        return 1e3 * (time.perf_counter() - start)


def bracketing(kernel_ms: list[float]) -> list[float]:
    """For ops with a kernel run before each and one after the last, the
    slower of the two runs around each op.

    A host that changes state between a kernel run and its op, or a kernel
    run that missed the usual hiccups, makes that op look slow against the
    kernel run alone, and such ops fill the tail.  The slower of the two
    neighbours keeps them out of it.
    """
    return [max(before, after) for before, after in zip(kernel_ms, kernel_ms[1:])]


def adjust(wall: float, kernel: str, kernel_ms: float) -> float:
    """``wall`` scaled to the nominal speed of ``kernel``."""
    return wall * NOMINAL_MS[kernel] / kernel_ms
