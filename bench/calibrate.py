"""Host-speed calibration of a run's times.

The benchmark runs on shared hosts whose speed drifts.  A fixed loop of
interpreted Python flips between about 3.5 and 6 ms from one second to the
next, and a whole run can land in a spell where it takes a third longer
than in the run before; process CPU time drifts with wall time, so it is no
remedy.  Such a spell moves every wall-clock figure of a run by a quarter
or more, on unchanged code.

So a run's times are rescaled to a reference host speed.  While the ops
run, a fixed kernel that uses no berglab code is timed between them, and
each op's time is multiplied by the kernel's reference time over its mean
time around that op: the two runs of the kernel before the op and the two
after it.  Set-up times are multiplied by the same ratio taken over the
whole run.  A change to berglab moves the op times and leaves the kernel
alone; a slow spell moves both.  Means, not medians, because the kernel's
times are bimodal.  Taken around each op, the ratio follows the host's
flips between the two speeds; over a whole run it did not settle the
percentiles of ops that take 50-300 ms.

The kernel is made of the work that the workload's ops are made of.  For
ops in the process it is a loop of Fraction, complex and dict arithmetic,
the operations berglab's own loops are made of; its speed does not follow
the cost of starting processes.  For ops that are CLI processes it is a
fresh interpreter importing a few standard-library packages, which
follows that cost and not the loop's speed.  It takes a tenth of a second,
so it runs only every 1.5 s, and every CLI op is rescaled by its mean over
the whole run.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def loop_kernel():
    x, z, d = Fraction(0), 0j, {}
    for i in range(1, 1200):
        x += Fraction(1, i % 97 + 1)
        z = z * 0.5 + complex(i, -i)
        d[i % 31] = d.get(i % 31, 0) + i
    return x, z, d


def spawn_kernel():
    subprocess.run([sys.executable, "-c", "import decimal, json, unittest"], check=True)


# kernel -> (seconds between its runs, reference time, kernel runs taken on
# each side of an op, or None for the whole run): the reference is about
# its mean time on the 2-core Xeon the benchmark was sized on, so that
# rescaled times read as wall times on that host
KERNELS = {
    loop_kernel: (0.25, 0.005, 2),
    spawn_kernel: (1.5, 0.1, None),
}


class Calibration:
    """A kernel's times in one run."""

    def __init__(self, kernel=loop_kernel):
        self.kernel = kernel
        self.every_s, self.reference_s, self.neighbours = KERNELS[kernel]
        self.times = []
        self.stamps = []  # when each kernel run ended

    def take(self):
        t0 = time.perf_counter()
        self.kernel()
        self.stamps.append(time.perf_counter())
        self.times.append(self.stamps[-1] - t0)

    def maybe_take(self):
        """Time the kernel if ``every_s`` have passed since it last ran."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= self.every_s:
            self.take()

    def run_factor(self) -> float:
        """What set-up times are multiplied by."""
        return self.reference_s / statistics.fmean(self.times)

    def factor(self, start: float, end: float) -> float:
        """What an op timed from ``start`` to ``end`` is multiplied by."""
        if self.neighbours is None:
            return self.run_factor()
        k = self.neighbours
        lo = bisect.bisect_right(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        near = self.times[max(0, lo - k):lo] + self.times[hi:hi + k]
        return self.reference_s / statistics.fmean(near or self.times)
