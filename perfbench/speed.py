"""Dividing the machine's own speed out of every timing.

The boxes this benchmark runs on are shared: the same pure-Python loop
takes 0.52 ms in a quiet minute and 0.87 ms in a busy one, and every
workload slows by the same factor for minutes at a time (measured while
building this; see README "Noise").  Raw wall-clock medians of ten runs
then spread 20-40 % and a 10 % regression bound resolves nothing.

So every timed segment is bracketed by bursts of one fixed calibration
loop, and its duration is scaled by ``REFERENCE_NS / (mean of the two
bursts)``: what the segment would have taken on a box where the loop takes
``REFERENCE_NS``.  The loop touches nothing of the program under test, so
a change to the program moves the scaled timings exactly as it moves the
raw ones; only the box's drift cancels.  Reports carry the median burst,
from which the raw times can be recovered.
"""

from __future__ import annotations

import time
from typing import Tuple

clock = time.perf_counter_ns

#: What one burst takes on the reference box when it is quiet.
REFERENCE_NS = 500_000


def calibrate() -> int:
    """One burst of the calibration loop (interpreter-bound); ns it took."""
    start = clock()
    total = 0
    table = {}
    for i in range(6000):
        total += i * i
        table[i & 63] = total
    return clock() - start


class SpeedScale:
    """Cuts elapsed time into segments, each ending in a calibration burst."""

    def __init__(self) -> None:
        self.bursts_ns = [calibrate()]
        self._start = clock()

    def close(self) -> Tuple[int, float]:
        """End the current segment: ``(its raw ns, its scale factor)``.

        The bursts themselves are not part of any segment.
        """
        raw = clock() - self._start
        self.bursts_ns.append(calibrate())
        factor = REFERENCE_NS / ((self.bursts_ns[-2] + self.bursts_ns[-1]) / 2)
        self._start = clock()
        return raw, factor
