"""Machine speed, sampled with a fixed loop of the benchmark's own.

On a shared host the CPU's speed is not constant: on the 2-vCPU Xeon
virtual machine this benchmark was written on, the same code runs at one of
two speeds about 1.75x apart, switching every few milliseconds, and the
share of time spent at the slow speed changes from one minute to the next
(whole minutes pass with no fast phase at all).  No statistic of a run's own
times removes that: the minimum of many repeats fails in a slow minute, and
the mean follows the slow share.

`Calibration` runs a fixed loop, in the same style of work as vigor's tape
(small float64 matmuls, elementwise ops, reductions, Python objects per
op), between the units of work it is told about, and keeps its times.  The
loop is not vigor's code, so a change to vigor does not move it, but host
slowdowns move both alike.  `scale()` turns a time measured over the same
stretch of the run into the time at nominal speed: the speed at which the
loop takes `NOMINAL_S`, its time at the fast speed of that machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The loop's time at the fast speed of the machine the benchmark was
# written on (the lowest of its times over a few minutes).
NOMINAL_S = 0.90e-3
# A sample is taken after a unit of work when this long has passed since
# the last one: about 4% of the run goes into the loop.
EVERY_S = 0.025

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8, 16))
_W = _rng.standard_normal((16, 16))


def _loop() -> float:
    x, total = _X, 0.0
    for i in range(200):
        y = np.maximum(x @ _W, 0.0)
        node = {"index": i, "value": y}
        total += float(y.sum())
        x = _X + 1e-3 * node["index"]
    return total


class Calibration:
    def __init__(self):
        self.times: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _loop()
        now = time.perf_counter()
        self.times.append(now - t0)
        self._due = now + EVERY_S

    def sample_for(self, seconds: float) -> None:
        """Sample at least once, and until `seconds` have passed."""
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def maybe_sample(self) -> None:
        """Sample if a sample is due; call between units of work, untimed."""
        if time.perf_counter() >= self._due:
            self.sample()

    def scale(self) -> float:
        """Factor from measured time to time at nominal speed."""
        if not self.times:
            self.sample()
        return NOMINAL_S / statistics.fmean(self.times)

    def describe(self) -> str:
        return (
            f"calibration samples={len(self.times)}, mean={statistics.fmean(self.times) * 1e3:.4f} ms, "
            f"min={min(self.times) * 1e3:.4f} ms, nominal={NOMINAL_S * 1e3:.4f} ms, "
            f"scale={self.scale():.4f}"
        )
