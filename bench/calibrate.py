"""Machine-speed calibration, so that timings taken on a shared machine compare.

On a machine shared with other jobs the same Python code can run 40 % slower
from one second to the next. A fixed pure-Python kernel (int arithmetic and
a tuple-keyed dict) is timed between operations; a time measured while the
kernel took `k` ns is scaled by REFERENCE_NS / k. Reported times are thus in
reference seconds: what the operation takes when the kernel takes
REFERENCE_NS, about its duration on the machine the baseline was measured on
(2-vCPU Intel Xeon VM, Python 3.11.7). The kernel imports nothing, so timing
it before set-up does not change what set-up imports.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_NS = 150_000
# time between calibrations while operations run
INTERVAL_NS = 50_000_000


def kernel():
    s = 0
    d = {}
    for i in range(1, 400):
        s += (i * i * 7 + 3) % 11 + (s >> 3)
        d[(i, i % 13)] = s
    return s, len(d)


def kernel_ns():
    """Duration of the kernel now: the median of five back-to-back runs."""
    runs = []
    for _ in range(5):
        t0 = perf_counter_ns()
        kernel()
        runs.append(perf_counter_ns() - t0)
    return sorted(runs)[2]


class Clock:
    """Calibration marks taken between operations.

    `marks[i]` is (end of the i-th calibration, kernel ns); an operation run
    after mark i is scaled by `scale(i)`.
    """

    def __init__(self):
        kernel()  # warm the code paths before the first measurement
        self.marks = []
        self.reference_s = 0.0  # elapsed reference seconds between marks
        self.mark()

    def mark(self):
        start = perf_counter_ns()
        k = kernel_ns()
        end = perf_counter_ns()
        if self.marks:
            prev_end, prev_k = self.marks[-1]
            self.reference_s += (start - prev_end) / 1e9 * REFERENCE_NS * 2 / (prev_k + k)
        self.marks.append((end, k))

    def due(self):
        return perf_counter_ns() - self.marks[-1][0] >= INTERVAL_NS

    def scale(self, i):
        """Factor from wall time to reference time for work done after mark i.

        Single kernel timings are noisy, so the factor uses the marks from
        i - 2 to i + 3, about 0.3 s of a run of short operations.
        """
        window = [k for _, k in self.marks[max(0, i - 2):i + 4]]
        return REFERENCE_NS * len(window) / sum(window)
