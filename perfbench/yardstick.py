"""A fixed piece of work that measures how fast the host runs right now.

The hosts this benchmark runs on are shared: the same request can take half
again as long from one ten-second stretch to the next, because of load
outside the workload's own process. The worker therefore times this fixed
work between requests and reports every end-to-end time scaled by
``REFERENCE_S / measured``: the time the request would have taken on a host
running the yardstick in ``REFERENCE_S``.

The work imitates robustnv's own mix (small frozen dataclasses, scalar
math, ``math.fsum``, small numpy calls, and a numpy pass over a few hundred
kilobytes) and uses nothing from robustnv, so no change to the library
changes it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# seconds per call on the host the benchmark was written on (2-vCPU Intel
# Xeon virtual machine, Python 3.11, numpy 2.4); any fixed value works, it
# only sets the scale of the adjusted figures
REFERENCE_S = 0.002

_BLOCK = np.linspace(0.0, 1.0, 20_000)


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("non-finite")


def _work() -> float:
    acc = 0.0
    for i in range(150):
        p = _Pair(float(i) + 1.0, 2.0)
        acc += math.sqrt(p.a) + math.hypot(p.a, p.b)
        acc += math.fsum((p.a, p.b, acc * 1e-9))
        v = np.asarray((p.a, p.b))
        acc += float(np.dot(v, v)) * 1e-9
    for _ in range(3):
        acc += float(np.sort(_BLOCK * acc % 1.0)[100])
    return acc


def measure() -> float:
    """Seconds one call of the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
