"""Machine-speed normalisation of command times.

The benchmark runs on a few cores of a shared host whose speed swings by
a factor of two over tens of seconds, so raw seconds of one run say more
about the neighbours than about the program. While a command runs, a
SIGALRM interval timer runs a fixed reference kernel (pure-Python
arithmetic, small NumPy matrix products and JSON parsing, the program's
own mix) every PERIOD_S seconds in the main thread and times it. The
command's time is its wall time minus the kernel's, and its reference
time is that scaled by REF_KERNEL_S / (median kernel time during the
command): the seconds
the command would have taken on a machine where the kernel takes
REF_KERNEL_S. A change to the program moves reference time as it moves
wall time; a change in the machine's speed moves the kernel with it and
cancels out.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

PERIOD_S = 0.1
REF_KERNEL_S = 0.006  # a typical kernel time on the 2-core VM the baseline was recorded on

_X = np.random.default_rng(0).standard_normal((64, 32))
_W = np.random.default_rng(1).standard_normal((32, 32))
# Shaped like the program's session records: parsing it allocates as the
# bundle and ledger loads do, which the arithmetic alone does not track.
_DOC = json.dumps([{"session_id": f"s{i}", "query": f"q{i} w{i}", "clicked_doc_ids": [i, i + 1],
                    "shown_doc_ids": list(range(i, i + 10))} for i in range(80)])


def reference_kernel() -> int:
    s = 0
    for i in range(24_000):
        s += i * i % 7
    for _ in range(240):
        np.tanh(_X @ _W.T)
    for _ in range(2):
        s += len(json.loads(_DOC))
    return s


@dataclass
class Timing:
    raw_s: float = 0.0  # wall time minus the kernel's time inside it
    kernel_s: list[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Reference kernel time over the median kernel time while the
        command ran: below 1 when the machine ran slow."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)

    @property
    def seconds(self) -> float:
        return self.raw_s * self.speed


def _kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


@contextlib.contextmanager
def timed():
    """Time the body in reference seconds. The kernel also runs once just
    before and once just after the body, so every timing has samples."""
    t = Timing(kernel_s=[_kernel_seconds()])
    inside: list[float] = []

    def tick(signum, frame):
        inside.append(_kernel_seconds())

    previous = signal.signal(signal.SIGALRM, tick)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    t.raw_s = end - start - sum(inside)
    t.kernel_s += inside
    t.kernel_s.append(_kernel_seconds())
