"""The host's current speed, read from a fixed reference between tasks.

The benchmark runs on a few shared cores whose speed changes by up to half
within seconds: a fixed Python loop ran at 7 ms per call for some stretches
and 11 ms for others, on a 2-vCPU VM within one minute.  Raw task times
then depend more on when a run happened than on the code.  So the loop
times a fixed reference between tasks, and each task's wall and CPU time
is multiplied by ``NOMINAL_MS / reference time``, the reference time being
the mean of the readings around the task (``task_scales``).  Scaled times
read as milliseconds on a host where the reference takes ``NOMINAL_MS``.

There are three references, and each workload names the one that tracked
its own work best when they were compared on repeated tasks:

- ``mixed`` (``exact``, ``sampling``): a few milliseconds of big-rational
  ``Fraction`` arithmetic and numpy vector arithmetic in this process.  It
  beat an integer loop, a scalar float loop and either half alone.
- ``vector`` (``spectral``): the numpy half alone, run longer.  numpy-bound
  work slows less than interpreter-bound work when the host is busy; the
  ``mixed`` kernel over-corrected the series engine by up to a third.
- ``child`` (``cli``): a fresh interpreter that imports numpy.  Process
  start and imports slow down unlike in-process arithmetic; on ``cli``
  this left less than half the per-task spread that ``mixed`` left.  Set-up,
  which is mostly imports, is scaled by it in every workload.

All three are the benchmark's own code, so a change to the package cannot
move them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

from perfbench.machine import BLAS_THREADS, BLAS_VARS

KERNEL_REPEATS = 3
# Each reference's time on the reference host (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4, at its faster speed).  Any fixed values work; they set the scale.
NOMINAL_MS = {"mixed": 1.45, "vector": 1.3, "child": 90.0}
CHILD_TIMEOUT_S = 60
SMOOTH_TASKS = 1  # see task_scales()

_grid = None


def _rational():
    x, y = Fraction(1, 3), Fraction(7, 11)
    for i in range(1, 151):
        x = (x * y + Fraction(i, 7)) / (x + 1)
        if x.denominator > 10**40:
            x = Fraction(x.numerator % 10**20 + 1, x.denominator % 10**20 + 1)
    return x


def _vector(steps):
    s = 0.0
    for i in range(steps):
        s += float(_grid.dot(1.0 / (_grid + i) ** 2))
    return s


KERNELS = {"mixed": lambda: (_rational(), _vector(40)), "vector": lambda: _vector(120)}


def kernel_ms(kind: str) -> float:
    """Best of a few runs of a kernel, in ms.  Taking the best drops interrupts.

    numpy is imported on first use, after set-up has imported it, so that
    its import time stays in the set-up time.
    """
    global _grid
    if _grid is None:
        import numpy as np

        _grid = np.linspace(0.01, 1.0, 4096)
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        a = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - a)
    return 1000.0 * best


def child_ms() -> float:
    """Wall time of a fresh interpreter that imports numpy, in ms.

    The child gets no ``PYTHONPATH``, so it cannot import the package under
    test, and BLAS pinned as in the benchmark, so the reading is the same
    before and after the parent pins it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update((var, str(BLAS_THREADS)) for var in BLAS_VARS)
    a = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return 1000.0 * (time.perf_counter() - a)


def reference_ms(kind: str) -> float:
    return child_ms() if kind == "child" else kernel_ms(kind)


def scale(kind: str, *readings: float) -> float:
    """Factor that turns a time measured next to these readings into reference time."""
    return NOMINAL_MS[kind] * len(readings) / sum(readings)


def task_scales(kind: str, readings: list) -> list:
    """One factor per task; ``readings`` holds one before the first task and one after each.

    A task's factor comes from the readings just before and after it and
    from those of ``SMOOTH_TASKS`` tasks on each side: one reading catches
    the host at one instant, and its own jitter would otherwise pass into
    the task's time.
    """
    n, w = len(readings) - 1, SMOOTH_TASKS
    return [scale(kind, *readings[max(0, k - w) : min(n, k + 1 + w) + 1]) for k in range(n)]
