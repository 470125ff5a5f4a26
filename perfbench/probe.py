"""CPU time in reference seconds: a fixed kernel read beside the program.

The 2-core VM this benchmark was built on runs each vCPU in two speeds that
switch every few seconds and independently per vCPU: a steady slow state and
bursts up to 1.9x faster.  CPU time does not leave the bursts out (Linux
only leaves out time stolen while the vCPU is off the host), so ten runs of
the same code read grades per CPU second 0.13 to 0.55 of their median apart.

A fixed pure-Python kernel, run on the same CPU while the program works,
slows and speeds up with it.  Scaling each operation's CPU time by
``REFERENCE_S`` over the mean of the kernel's times around it gives the CPU
seconds the operation would take on a CPU that runs the kernel in
``REFERENCE_S``.  The kernel is benchmark code and never changes with the
program, so a change to the program moves the scaled figure as much as the
raw one.

The kernel only tracks the CPU it runs on, so ``run.py`` pins each run, and
every process it starts, to one CPU.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter, process_time
from typing import Callable, Iterator

#: Kernel CPU time in the slow state of the 2-core VM (run medians read 1.09-1.19 ms).
REFERENCE_S = 1.1e-3
#: Wall time between kernel reads while operations run.
INTERVAL_S = 0.05

_rng = random.Random(7)
_CLAUSES = [tuple(_rng.choice((1, -1)) * _rng.randrange(1, 60) for _ in range(3)) for _ in range(250)]
_WATCHES: dict[int, list[int]] = {}
for _index, _clause in enumerate(_CLAUSES):
    for _literal in _clause:
        _WATCHES.setdefault(_literal, []).append(_index)


def kernel() -> int:
    """Unit propagation from ten fixed assumptions over a fixed 3-CNF: dict and tuple work."""
    visited = 0
    for start in range(10):
        assigned: dict[int, bool] = {}
        queue = [(-1) ** (start + k) * (1 + (start * 7 + k * 13) % 59) for k in range(6)]
        while queue:
            literal = queue.pop()
            if abs(literal) in assigned:
                continue
            assigned[abs(literal)] = literal > 0
            for index in _WATCHES.get(-literal, ()):
                unassigned, free, satisfied = 0, 0, False
                for other in _CLAUSES[index]:
                    value = assigned.get(abs(other))
                    if value is None:
                        unassigned, free = unassigned + 1, other
                    elif value == (other > 0):
                        satisfied = True
                        break
                if not satisfied and unassigned == 1:
                    queue.append(free)
                visited += 1
    return visited


def kernel_seconds() -> float:
    started = process_time()
    kernel()
    return process_time() - started


class SetupTimer:
    """Set-up wall times, raw and scaled by the kernel read before and after each.

    Set-up (dataset build, daemon boot) keeps the run's one CPU busy, so its
    wall time moves with the CPU's speed as much as grading's CPU time does.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []

    @contextmanager
    def measure(self) -> Iterator[None]:
        before = kernel_seconds()
        started = perf_counter()
        yield
        elapsed = perf_counter() - started
        self.raw.append(elapsed)
        self.scaled.append(elapsed * REFERENCE_S / fmean((before, kernel_seconds())))


class SpeedProbe:
    """Sums operation CPU times, raw and scaled by kernel reads taken meanwhile.

    Between ``start`` and ``stop`` a wall-clock timer reads the kernel every
    ``INTERVAL_S``, also in the middle of a long operation (or, over HTTP,
    while the client waits for the daemon).  ``charge`` ends an operation:
    its cost is the CPU ``clock`` counted since the previous one, less the
    kernel's own reads, and it is scaled by ``REFERENCE_S`` over the mean of
    the reads taken during it and the last one before it.
    """

    def __init__(self, clock: Callable[[], float], enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.reads: list[float] = []
        self._window: list[float] = []
        self._kernel_s = 0.0
        self._mark = 0.0

    def start(self) -> None:
        """Read the kernel and start the timer, before a stretch of operations."""
        if not self.enabled:
            return
        self._window, self._kernel_s = [kernel_seconds()], 0.0
        self._mark = self.clock()
        signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _read(self, signum: int, frame: object) -> None:
        seconds = kernel_seconds()
        self.reads.append(seconds)
        self._window.append(seconds)
        self._kernel_s += seconds

    def charge(self) -> float:
        """End one operation; its raw CPU seconds (0 when disabled)."""
        if not self.enabled:
            return 0.0
        # A read between the clock and the reset below would be lost to both.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            cost = self.clock() - self._mark - self._kernel_s
            self.raw_s += cost
            self.scaled_s += cost * REFERENCE_S / fmean(self._window)
            self._window, self._kernel_s = self._window[-1:], 0.0
            self._mark = self.clock()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return cost

    def stop(self) -> None:
        """Stop the timer at the end of a stretch of operations."""
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
