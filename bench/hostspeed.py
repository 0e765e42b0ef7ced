"""Host-speed calibration: timings scaled to a fixed reference speed.

A shared host runs the same code 20-30% faster or slower for seconds to
minutes at a time, in CPU time as much as in wall time, and by up to 40% for
tens of milliseconds.  So a fixed kernel (least-squares fits on a tall
matrix, and demeaning, differencing and fits on a small panel: the mix the
package spends its time on) is timed in the measuring thread, next to or
inside every measured operation, and the operation's time is multiplied by
``REFERENCE_S`` over the kernel's mean time.  The result reads as seconds on
a host where the kernel takes ``REFERENCE_S``.  The kernel never calls
twfekit, so a change to the package moves the scaled time as much as the
raw time.

``Gauge`` calibrates between operations too short to interrupt;
``Interleaved`` interrupts a long operation with a timer and calibrates
inside it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical kernel time on a 2-vCPU machine (Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread).  A fixed constant, so that runs compare.
REFERENCE_S = 0.0047
SAMPLE_S = 0.016  # length of one calibration sample
EVERY_S = 0.2  # seconds of operations between calibration samples, at least
WINDOW = 3  # a short operation is scaled by the 2 * WINDOW samples around it
TALL_FITS = 15
PANEL_ROUNDS = 20

_TALL = np.random.default_rng(0).standard_normal((1000, 10))
_PANEL = np.random.default_rng(1).standard_normal((200, 29))


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(TALL_FITS):
        np.linalg.lstsq(_TALL[:, :8], _TALL[:, 8:], rcond=None)
    for _ in range(PANEL_ROUNDS):
        a = _PANEL - _PANEL.mean(axis=0)
        a = a - a.mean(axis=1, keepdims=True)
        d = (a[:, 1:] - a[:, :-1]).ravel()
        float(d @ d)
        np.linalg.lstsq(_PANEL[:, :3], _PANEL[:, 3], rcond=None)
    return time.perf_counter() - start


def sample(seconds: float = SAMPLE_S) -> float:
    """Mean kernel time, in seconds, over at least ``seconds`` of kernel runs."""
    runs, total = 0, 0.0
    while total < seconds:
        total += _kernel()
        runs += 1
    return total / runs


class Gauge:
    """Scales short timed operations by the host speed measured between them.

    ``add`` takes an object with a raw ``seconds`` attribute.  After at least
    ``EVERY_S`` seconds of operations a calibration sample is taken, which
    closes a block of operations.  ``finish`` sets the ``scaled`` attribute
    of every operation added so far, from the mean of the ``2 * WINDOW``
    samples around its block: a single short sample is noisy, and the host
    speed moves over seconds, not from one sample to the next.
    """

    def __init__(self):
        self.samples = [sample()]
        # Block i lies between samples i and i + 1.
        self.blocks: list[list] = [[]]
        self._block_s = 0.0

    def add(self, op) -> None:
        self.blocks[-1].append(op)
        self._block_s += op.seconds
        if self._block_s >= EVERY_S:
            self._close_block()

    def _close_block(self) -> None:
        self.samples.append(sample())
        self.blocks.append([])
        self._block_s = 0.0

    def finish(self) -> None:
        if self.blocks[-1]:
            self._close_block()
        for i, block in enumerate(self.blocks[:-1]):
            near = self.samples[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
            factor = REFERENCE_S / statistics.fmean(near)
            for op in block:
                op.scaled = op.seconds * factor
        self.samples = self.samples[-1:]
        self.blocks = [[]]


class Interleaved:
    """Times a block, calibrating inside it every ``every_s`` seconds.

    A ``SIGALRM`` timer interrupts the block, and its handler takes a
    calibration sample in the same thread; the handler's time is excluded
    from ``seconds``.  A kernel that runs in another process, or after the
    block, does not track the host speed the block saw: the speed moves by
    20-30% within seconds, and a process that has just woken runs the kernel
    slower.  ``scaled`` is ``seconds`` at the reference speed.  With
    ``every_s`` 0 the timer is off, and one sample after the block scales it.
    """

    def __init__(self, every_s: float = EVERY_S):
        self.every_s = every_s
        self.samples: list[float] = []
        self.paused = 0.0
        self.seconds = 0.0
        self.scaled = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "Interleaved":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        if self.every_s > 0:
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.seconds = time.perf_counter() - self._start - self.paused
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(sample())
        self.scaled = self.seconds * REFERENCE_S / statistics.fmean(self.samples)
