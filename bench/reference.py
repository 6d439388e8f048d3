"""Host-speed gauge: a fixed slice of reference work, timed all through a sample.

On a shared machine the CPU a process is given runs faster or slower with
the load of its neighbours, by up to 1.7x between runs a minute apart and by
a third within seconds, and CPU time slows with it.  A `Gauge` runs the
reference slice every EVERY_S of CPU time, from a SIGPROF interval timer,
so it samples the speed inside long items too.  Items are
timed on `work_clock`, which leaves out the time spent in slices, and
`scaled` turns a stretch of that clock into the time it would have taken on
a host where one slice takes NOMINAL_S.

The slice does the kinds of work balmat's kernels do (exact Fraction
elimination on sparse dict rows, sorting and hashing small tuples, set and
dict updates) and imports nothing from balmat, so a change to balmat cannot
move it.

CPU time is the main thread's (`time.thread_time`); balmat runs in that
thread alone.  While an interval timer is armed, Linux may read the process
CPU clock only to the tick.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from itertools import permutations

# Reported times read as on a host where one slice takes this long; on a
# 2.1 GHz Xeon with Python 3.11 a slice took 1.3 to 2.4 ms.
NOMINAL_S = 0.0018
EVERY_S = 0.02  # CPU time between two slices

_ROWS = [{c: Fraction((3 * r + 5 * c) % 7 - 3, 1 + (r + c) % 4)
          for c in range(10) if (r * c + r + c) % 3 and (3 * r + 5 * c) % 7 != 3}
         for r in range(12)]
_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]


def _rank(rows):
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                rank += 1
                break
            coef = row.pop(col)
            for c, v in pivots[col].items():
                if c != col:
                    nv = row.get(c, 0) - coef * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
    return rank


def _min_key(edges, n):
    seen = set()
    best = None
    for p in permutations(range(n)):
        key = tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        seen.add(key)
        if best is None or key < best:
            best = key
    return best, len(seen)


def work():
    """One slice; returns a value so that no step can be skipped."""
    return _rank(_ROWS), _min_key(_EDGES, 5)


class Gauge:
    def __init__(self):
        self.spent = 0.0  # CPU time spent in slices
        self.at = []  # work_clock() at each slice
        self.took = []  # CPU time of each slice
        self._busy = False

    def work_clock(self):
        """CPU time, less the time spent in reference slices."""
        while True:  # retry if a slice ran between the two reads
            spent = self.spent
            now = time.thread_time()
            if spent == self.spent:
                return now - spent

    def slice(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.thread_time()
        work()
        took = time.thread_time() - t0
        self.at.append(t0 - self.spent)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def start(self):
        self.slice()
        signal.signal(signal.SIGPROF, self.slice)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.slice()

    def speed(self, k):
        """Scale factor between slices k and k + 1."""
        return 2 * NOMINAL_S / (self.took[k] + self.took[k + 1])

    def scaled(self, a, b):
        """Scaled length of the work_clock stretch [a, b], which must lie
        between the first and the last slice: each part between two slices
        counts at the speed those two slices measured."""
        k = max(0, bisect.bisect_right(self.at, a) - 1)
        total = 0.0
        while a < b:
            end = min(b, self.at[k + 1])
            total += (end - a) * self.speed(k)
            a = end
            k += 1
        return total
