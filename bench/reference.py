"""A fixed piece of reference work that measures how fast the machine runs
at a given moment, so that timings taken at different speeds can be
compared.

On a shared host the speed of the same code drifts by a third or more, for
seconds or minutes at a time, and no choice of estimator over one run's raw
times removes that: a run taken in a slow minute is slow throughout. The
harness therefore runs this work between every two timed steps and divides
each step's time by the mean of the reference times just before and just
after it. Slow stretches lengthen both, so the quotient is far steadier than
either; a change to rootsplit moves only the numerator.

The work is exact arithmetic on Fraction vectors with tuple hashing and
frozenset lookups, the kind of code rootsplit itself runs, and uses no
rootsplit code, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import itertools
import time
from fractions import Fraction

#: the reference work's time at full speed on the machine the bounds were
#: set on (2-vCPU VM, Python 3.11); timings are reported as quotients times
#: this, that is in seconds at that speed
REFERENCE_S = 0.032


def _d5_roots() -> list[tuple[Fraction, ...]]:
    out = []
    for i, j in itertools.combinations(range(5), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [Fraction(0)] * 5
            v[i], v[j] = Fraction(si), Fraction(sj)
            out.append(tuple(v))
    return out


def reference_work() -> int:
    """Count the pairs of D5 roots with inner product -1 whose sum is a
    root (all of them)."""
    roots = _d5_roots()
    root_set = frozenset(roots)
    n = 0
    for a in roots:
        for b in roots:
            if sum((x * y for x, y in zip(a, b)), Fraction(0)) == -1:
                n += tuple(x + y for x, y in zip(a, b)) in root_set
    return n


def measure() -> float:
    """Seconds the reference work takes now, from a clean heap."""
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class Reference:
    """Keeps the latest reference time, so that each timed step can be
    scaled by the reference times on either side of it."""

    def __init__(self):
        self.last = measure()

    def scaled(self, seconds: float) -> float:
        """``seconds`` of a step that just ended, in seconds at the speed
        REFERENCE_S was measured at; measures the reference once more."""
        before, self.last = self.last, measure()
        return seconds / ((before + self.last) / 2) * REFERENCE_S
