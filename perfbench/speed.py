"""Machine-speed probe for the end-to-end times.

On a shared host the same operation on the same input runs up to 1.7x
slower for seconds, and drifts by a third over tens of minutes, as other
tenants load the machine.  Part of that is time the CPU is taken away,
which timing in CPU time removes (see ``run.CLOCK``); the rest is the
thread running slower while it has the CPU.  Two sets of runs of one
commit, made an hour apart, then disagree by more than any useful bound.
So the untraced run also times (in CPU time) a fixed pure-Python kernel
between operations, and each operation's time is rescaled by the kernel's
time around it to what it would be on a machine where one kernel call
takes ``NOMINAL_S``.  The kernel uses no library code, so a change to the
library cannot move it; what it tracks is how fast this host runs the
interpreter at that moment.  It was chosen for a small working set (object
creation, attribute access, dict and set updates on tuple keys, sorting
with a key function): on a 2-core host it halved the spread of 10-second
figures for map colouring, witness search and complex building, while a
kernel walking a 3000-vertex graph helped less and made witness search
worse.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.005
# Each operation is rescaled by the median of the probes nearest to it:
# HALF_WINDOW taken before it starts and HALF_WINDOW after it ends.
HALF_WINDOW = 10
# A probe is taken after an operation once this much operation time has
# passed since the last one, so the probes cost at most about a tenth of
# the run on the smallest operations and a few percent on the rest.
EVERY_S = 0.05


class _Edge:
    __slots__ = ("i", "a", "b")

    def __init__(self, i, a, b):
        self.i = i
        self.a = a
        self.b = b


_ENDS = tuple((i * 7919 % 211, i * 104729 % 211) for i in range(300))


def kernel() -> int:
    total = 0
    for _ in range(12):
        edges = [_Edge(i, a, b) for i, (a, b) in enumerate(_ENDS)]
        degree = {}
        for e in edges:
            degree[e.a] = degree.get(e.a, 0) + 1
            degree[e.b] = degree.get(e.b, 0) + 1
        order = sorted(degree, key=lambda v: (degree[v], v))
        seen = set()
        for e in edges:
            key = (e.a, e.b) if e.a < e.b else (e.b, e.a)
            if key not in seen:
                seen.add(key)
                total += 1
        total += len(order)
    return total


class SpeedProbe:
    """Kernel timings taken during one run, in order."""

    def __init__(self):
        for _ in range(20):  # let the interpreter specialise the kernel
            kernel()
        self.samples = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.thread_time()
            kernel()
            self.samples.append(time.thread_time() - t0)

    def scale(self, lo: int, hi: int) -> float:
        """NOMINAL_S over the median of the probes with index in [lo, hi),
        clipped to the probes taken."""
        window = self.samples[max(0, lo) : max(hi, lo + 1)]
        return NOMINAL_S / statistics.median(window)
