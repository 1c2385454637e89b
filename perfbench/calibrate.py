"""Host-speed references for the end-to-end times.

On a small shared VM the same code runs up to 1.5-2x slower for
seconds to minutes at a time while other tenants load the host, and a
35-second run does not average that out: for timeseries-small the
standard deviation of the mean latency over a window fell only from
13% to 8% of the mean as the window grew from 5 to 35 seconds, so ten
runs spread by more than the bound of any useful regression check.

The untraced run therefore times a fixed reference kernel between
operations, about every `every_s` seconds. No kernel touches ptqm: a
change to the library moves the operations' times and not the
reference's, while a slow spell of the host moves both. Each
operation's latency is scaled by the kernel's `nominal_s` over the mean
of the two reference timings around it, which gives its time on a host
where the kernel takes `nominal_s`. Five seeds per workload, 20-second
runs, on a 2-CPU Xeon VM at 2.1 GHz; IQR/median of ops_per_s, wall
clock then scaled: timeseries-small 0.15 -> 0.02, spectral-large
0.10 -> 0.05. On six 25-second cli-mixed runs the standard deviation of
the mean latency fell from 7.2% of the mean to 1.9%.

A kernel has to slow down with the host the way its workload does:
- COMPUTE, for the in-process workloads, spends its time as they do: a
  Python-level loop, small-array scipy and numpy calls (as in the
  per-time-point loops) and a Schur decomposition (as in the canonical
  form).
- PROCESS_START, for cli-mixed, starts an interpreter that does nothing.
  A CLI call is mostly interpreter start and imports, and the compute
  kernel tracked it poorly: scaled by it, the same runs still spread by
  5.3%.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm, schur  # bound here, so tracing never counts them

_RNG = np.random.default_rng(20180201)
_SMALL = _RNG.normal(size=(4, 4))
_LARGE = _RNG.normal(size=(32, 32))


def _compute() -> int:
    """A fixed amount of work; the return value only keeps it live."""
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(100):
        b = expm(0.01 * _SMALL)
        acc += int(np.linalg.eigvals(_SMALL @ b).size)
    t, _ = schur(_LARGE)
    return acc + t.shape[0]


def _process_start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


@dataclass(frozen=True)
class Kernel:
    """nominal_s is about the kernel's time on the VM above when it is
    unloaded; any fixed value would do, this one keeps scaled times
    close to wall-clock times."""

    name: str
    run: Callable[[], object]
    nominal_s: float
    every_s: float


COMPUTE = Kernel("compute", _compute, 0.006, 0.15)
PROCESS_START = Kernel("process-start", _process_start, 0.060, 1.0)


class Reference:
    """Timings of one kernel taken between a run's operations."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self._due = 0.0
        kernel.run()  # the first call pays one-off set-up; it is not a timing

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel.run()
        end = time.perf_counter()
        self.times.append(end - start)
        self._due = end + self.kernel.every_s

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def mark(self) -> int:
        """Index of the latest timing: the one before the next operation."""
        return len(self.times) - 1

    def scale(self, mark: int) -> float:
        """Factor for an operation run after timing `mark`: nominal_s over
        the mean of that timing and the next one."""
        return self.kernel.nominal_s / statistics.fmean(self.times[mark:mark + 2])
