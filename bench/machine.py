"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by 15-20% within
minutes, and a slower minute makes the program look slower.  So a run
interleaves with the program short chunks of a fixed reference kernel
written here: it does the two kinds of work privroute's workloads do,
521-bit modular Horner steps (the protocol's share evaluation) and
heap/dict/float bookkeeping (the simulator's event loop).  The kernel never
changes with the program, so its mean chunk time against REF_NOMINAL_S
measures how slow the host is during this run, and run.py divides the gated
timings by that slowdown.

Only the host's speed is taken out: the program's own calls are timed as they
are, so a faster or slower program moves the reported metrics in full.
"""

from __future__ import annotations

import contextlib
import heapq
import signal
import time

P521 = (1 << 521) - 1
# seconds of one chunk, roughly, on the host the benchmark was written on (an
# Intel Xeon with 2 vCPUs, Python 3.11) when unloaded; the gated timings are
# reported in seconds of that host
REF_NOMINAL_S = 0.02

_COEFFS = [(0x9E3779B97F4A7C15 ** (i + 3)) % P521 for i in range(8)]


def kernel() -> int:
    """A fixed amount of work: big-integer Horner steps, then an event heap."""
    acc = 0
    for x in _COEFFS * 160:
        a = 0
        for c in _COEFFS:
            a = (a * x + c) % P521
        acc ^= a
    heap = []
    load = {}
    t = 0.0
    for i in range(13000):
        heapq.heappush(heap, (t + (i * 7919 % 1000) * 1e-3, i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            load[j % 97] = load.get(j % 97, 0.0) * 0.5 + t
    return acc ^ len(load)


class Reference:
    """Reference chunks run from a timer signal, and the host slowdown they show.

    While `interleaved` is active, a chunk runs every `interval` seconds of
    wall time, between two of the program's bytecodes, so the host is sampled
    at the same moments the program runs, also inside one long call.  The
    caller subtracts the growth of `seconds` from every span it times.
    """

    def __init__(self):
        kernel()  # warm-up, untimed
        self.seconds = 0.0
        self.chunks = 0

    def chunk(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        self.seconds += time.perf_counter() - t0
        self.chunks += 1

    @contextlib.contextmanager
    def interleaved(self, interval: float):
        """Run one chunk now and one every `interval` seconds until exit."""
        self.chunk()
        previous = signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def slowdown(self) -> float:
        """Mean chunk time over its nominal value: above 1 on a slow host."""
        return self.seconds / self.chunks / REF_NOMINAL_S
