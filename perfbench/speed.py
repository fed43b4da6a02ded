"""Machine-speed probe, to take host drift out of the timed metrics.

On a shared virtual machine the speed of one core drifts by up to ±25%
within tens of seconds (other tenants, clock changes), and CPU time
drifts with wall time, so neither a longer run nor CPU time removes it.
The benchmark therefore runs a small fixed kernel of its own between
operations, and scales each operation's time by how long the probe took
around it:

    normalised_ms = ms * REF_PROBE_MS / local probe median

The probe is a numpy 3x3 convolution stack (im2col gather, GEMM, ReLU,
per-channel normalisation, and the transposed GEMMs of a backward pass)
on small maps: the same mix of Python dispatch, small GEMMs and
elementwise passes as the program, but none of the program's code, so
a change to the program cannot change the probe. REF_PROBE_MS is the
probe's median on the 2-vCPU machine the benchmark was defined on, so
normalised times read as milliseconds on that machine.
"""

import bisect
import statistics
import time

import numpy as np

REF_PROBE_MS = 2.2
WINDOW_NS = 2 * 10**9   # probes within 2 s of an operation set its scale
WARM_RUNS = 20
SAMPLE_RUNS = 3   # a single 2 ms run catches the core's speed at one instant
_now = time.perf_counter_ns


class Probe:
    """The kernel writes into buffers allocated once, so that its time
    holds no page faults or allocator work, which vary from call to
    call with the state the program left the heap in."""

    def __init__(self):
        rng = np.random.default_rng(20250217)   # fixed: not the workload seed
        c, h, w = 8, 32, 32
        self.x0 = rng.standard_normal((c, h, w))
        self.w = [rng.standard_normal((c, 9 * c)) * 0.1 for _ in range(6)]
        self.pad = np.zeros((c, h + 2, w + 2))
        self.cols = np.empty((c, 9, h, w))
        self.y = np.empty((c, h * w))
        self.sq = np.empty((c, h * w))
        self.gw = np.empty((c, 9 * c))
        self.gx = np.empty((9 * c, h * w))
        self.big = rng.standard_normal((96, 96)) * 0.1
        self.b = np.empty((96, 96))
        self.b2 = np.empty((96, 96))
        self.times = []    # probe end times, ns, in order
        self.ms = []       # probe durations, ms

    def _kernel(self):
        """Six 3x3 conv layers with their backward GEMMs, then three
        96x96 GEMMs."""
        c, h, w = self.x0.shape
        inner = self.pad[:, 1:h + 1, 1:w + 1]
        np.copyto(inner, self.x0)
        cols = self.cols.reshape(c * 9, h * w)
        y, sq = self.y, self.sq
        for wt in self.w:
            for k in range(9):
                dy, dx = divmod(k, 3)
                np.copyto(self.cols[:, k], self.pad[:, dy:dy + h, dx:dx + w])
            np.matmul(wt, cols, out=y)
            y -= y.mean(axis=1, keepdims=True)
            np.multiply(y, y, out=sq)
            y /= np.sqrt(sq.mean(axis=1, keepdims=True) + 1e-5)
            np.maximum(y, 0.0, out=y)
            np.matmul(y, cols.T, out=self.gw)
            np.matmul(wt.T, y, out=self.gx)
            np.copyto(inner, y.reshape(c, h, w))
            inner += 1e-3 * self.gw.mean()
        np.copyto(self.b, self.big)
        for _ in range(3):
            np.matmul(self.b, self.big, out=self.b2)
            np.tanh(self.b2, out=self.b)
        return float(inner.sum() + self.b.sum())

    def warm(self):
        for _ in range(WARM_RUNS):
            self._kernel()

    def sample(self):
        """Run the probe once untimed, to bring its arrays back into
        cache after the program's work evicted them, then SAMPLE_RUNS
        times timed, recording each run."""
        self._kernel()
        for _ in range(SAMPLE_RUNS):
            t0 = _now()
            self._kernel()
            t1 = _now()
            self.times.append(t1)
            self.ms.append((t1 - t0) / 1e6)

    def factor(self, start_ns, end_ns):
        """REF_PROBE_MS over the median probe time within WINDOW_NS of
        [start_ns, end_ns]; the nearest probe before and after count
        even when they lie further out."""
        lo = bisect.bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end_ns + WINDOW_NS)
        before = bisect.bisect_left(self.times, start_ns)
        after = bisect.bisect_right(self.times, end_ns)
        lo = min(lo, max(before - 1, 0))
        hi = max(hi, min(after + 1, len(self.times)))
        window = self.ms[lo:hi]
        if not window:
            raise ValueError("no probe was run")
        return REF_PROBE_MS / statistics.median(window)

    def median_ms(self, first=0):
        """Median probe time of the samples from index `first` on."""
        return statistics.median(self.ms[first:])
