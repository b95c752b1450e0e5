"""Host-speed calibration for wall-clock timings on a shared host.

On a host whose CPUs are shared with other tenants, the speed of the same
Python code drifts by a factor of up to two over tens of seconds, so raw
wall times of two runs of identical code disagree by more than any useful
regression bound. ``HostSpeed`` times two small calibration kernels every
``PERIOD_S`` from a SIGALRM handler, in the measuring process itself (no
thread, no second process), and scales each measured interval by how fast
the kernels ran during it: a scaled time reads as the interval would on a
host where the kernels take ``NOMINAL_MS``. The kernels are the
benchmark's own code, so at a given host speed a change to the program
changes scaled and raw times by the same factor. The time spent in the
handler is taken out of every interval it falls in.
"""

import bisect
import heapq
import math
import signal
import statistics
import time

PERIOD_S = 0.02    # short enough to follow the host's bursts of slowness
NOMINAL_MS = 0.26   # about the kernels' time on an idle 2.1 GHz core
REPEATS = 3


def _count():
    x = 0
    for i in range(8000):
        x += i
    return x


class _Viewer:
    def __init__(self):
        self.buffer = 0.0
        self.got = []


def _events():
    viewers = {f"v{i}": _Viewer() for i in range(8)}
    queue = [(0.0, i, f"v{i}") for i in range(8)]
    seq = len(queue)
    for n in range(150):
        t, _, vid = heapq.heappop(queue)
        viewer = viewers[vid]
        score, rate = max((math.log1p(r) * 10 - r, r)
                          for r in (0.2, 0.4, 0.7, 1.3, 2.3))
        viewer.buffer = min(40.0, viewer.buffer + 10.0) - 0.5
        viewer.got.append((n, rate, score))
        seq += 1
        heapq.heappush(queue, (t + 1.0 + (n % 7) * 0.1, seq, vid))
    return sum(len(v.got) for v in viewers.values())


# An interpreter-bound loop and an allocation-heavy event loop. When the
# shared host is contended, the first slows less than the workloads and
# the second more; their geometric mean follows them best (README).
KERNELS = (_count, _events)


def kernel_ms():
    """Geometric mean over the kernels of the fastest of REPEATS timings,
    in ms."""
    product = 1.0
    for kernel in KERNELS:
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        product *= best * 1e3
    return product ** (1 / len(KERNELS))


class HostSpeed:
    """Periodic kernel timings; ``scaled`` turns a wall interval into
    nominal-host seconds."""

    def __init__(self):
        self.times = []       # perf_counter at the start of each sample
        self.ends = []        # and at its end
        self.kernel = []      # kernel ms of each sample
        self._previous = None

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        self._sample()

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        t0 = time.perf_counter()
        ms = kernel_ms()
        self.times.append(t0)
        self.kernel.append(ms)
        self.ends.append(time.perf_counter())

    def scaled(self, start, end):
        """Seconds of program time in [start, end], net of the handler's own
        time, scaled to the nominal host speed."""
        lo = bisect.bisect_left(self.times, start - PERIOD_S)
        hi = bisect.bisect_right(self.times, end + PERIOD_S)
        busy = sum(min(b, end) - max(a, start)
                   for a, b in zip(self.times[lo:hi], self.ends[lo:hi])
                   if a < end and b > start)
        near = [ms for t, ms in zip(self.times[lo:hi], self.kernel[lo:hi])
                if start - PERIOD_S / 2 <= t <= end + PERIOD_S / 2]
        if not near:
            i = min(range(len(self.times)),
                    key=lambda i: abs(self.times[i] - start))
            near = [self.kernel[i]]
        return (end - start - busy) * NOMINAL_MS / statistics.mean(near)
