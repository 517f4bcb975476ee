"""Host-speed calibration for timings on a shared machine.

On a small shared host the same op runs up to a third slower when
neighbours are busy, and the slowdown comes and goes within seconds as well
as over minutes. The benchmark therefore times a fixed calibration loop
while the ops run: ``Sampler`` runs it from a SIGALRM handler every
``INTERVAL_S`` of wall time, in the thread that runs the ops, so a long op
is sampled throughout. The loop is plain interpreter work and shares no
code with the package. Each op time is reported scaled to a reference host
on which one loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / median(loop times from WINDOW_S
                                               before the op to WINDOW_S after)

A change to the package moves the measured times and not the loop times,
so it moves the reported times by the same share. The handler's own time is
subtracted from the op it interrupted. The results file keeps the unscaled
values next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP = 12000
REFERENCE_S = 0.001
INTERVAL_S = 0.1
WINDOW_S = 1.0


def calibrate() -> float:
    """Seconds one run of the calibration loop takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def factor(samples: list[float]) -> float:
    """Multiplier that turns times measured alongside ``samples`` into times
    at the reference host speed."""
    return REFERENCE_S / statistics.median(samples)


def scale_ops(ops: list[dict], samples: list[list[float]]) -> list[float]:
    """Each op's ``wall_s`` at the reference speed, from the (time, loop
    seconds) samples near it; the whole run's samples if none are near."""
    whole = factor([d for _, d in samples])
    out = []
    for op in ops:
        lo, hi = op["start"] - WINDOW_S, op["start"] + op["wall_s"] + WINDOW_S
        near = [d for t, d in samples if lo <= t <= hi]
        out.append(op["wall_s"] * (factor(near) if near else whole))
    return out


class Sampler:
    """Samples the calibration loop every INTERVAL_S while active.

    ``paused_s`` is the total time spent in the handler; callers subtract
    its growth over an op from that op's wall time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, calibrate()))
        self.paused_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
