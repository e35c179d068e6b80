"""Interpreter speed sampling, to report times at a fixed reference speed.

On a shared machine the speed of one CPU changes from second to second with
the load of its neighbours: a fixed loop of 300 Python function calls was
measured taking from about 18 us to over 30 us on a shared 2-vCPU VM,
switching every few seconds, with no other benchmark process running.
``SpeedSampler`` runs that loop every 10 ms of wall time, from a SIGALRM
handler, so it runs in the measured thread between bytecodes, and records
how long it took.  ``at_reference`` removes the
sampler's own time from a wall time and rescales the rest by
``REFERENCE_US / mean loop time``: the seconds the same work takes while the
loop runs at the reference speed.  An interval shorter than 10 ms may see no
sample; ``SpeedSampler.loop_us`` then runs one loop on demand, and the worker
carries the last known loop time forward.
"""

from __future__ import annotations

import signal
import time

#: Time of one calibration loop at the reference speed: the uncontended
#: speed of a 2.0 GHz Xeon running Python 3.11.
REFERENCE_US = 18.0
LOOP = 300
INTERVAL_S = 0.01


# Function calls track the workloads' own slow-downs better than a bare
# ``for`` loop does: rescaled by them, the quartile spread of 236 repeated
# ``predict`` calls was 0.086 against 0.111, and of 75 ``compare`` calls
# 0.037 against 0.044.
def _call(i):
    return i


def at_reference(wall_s: float, spent: float, loop_us: float) -> float:
    """``wall_s``, of which calibration loops took ``spent`` seconds, at the
    reference speed, given the mean loop time ``loop_us`` in that interval."""
    return (wall_s - spent) * REFERENCE_US / loop_us


class SpeedSampler:
    def __init__(self):
        self.spent = 0.0          # seconds inside the calibration loop
        self.samples = 0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        for i in range(LOOP):
            _call(i)
        self.spent += time.perf_counter() - start
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_us(self) -> float:
        """Mean time of one calibration loop so far, in us; runs one loop now
        if none has run yet."""
        if not self.samples:
            self._tick(None, None)
        return self.spent / self.samples * 1e6

    def mark(self) -> tuple[float, int]:
        return self.spent, self.samples

    def since(self, mark: tuple[float, int]) -> tuple[float, int]:
        """(seconds, samples) recorded after ``mark``."""
        return self.spent - mark[0], self.samples - mark[1]
