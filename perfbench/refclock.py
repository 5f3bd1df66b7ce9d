"""A clock that runs at a reference kernel's speed, not at the host's.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same physical cores slow every instruction by up to a factor of two, over
spans of seconds to minutes, so wall and CPU seconds of the same code spread
more than a regression bound allows.  The reference kernel below is fixed
code in the benchmark: ufuncs on 15-lane complex arrays in an interpreter
loop, then a product over 512 lanes, the two regimes lyaplab's own work falls
into.  Timed between the program's steps, it tells how fast the host runs at
that moment, and much the same slowdown hits both.

`RefClock` runs the kernel from a SIGALRM handler every PERIOD_S seconds of
wall time, in the main thread, between two Python bytecodes of whatever the
program is doing.  The time spent in the kernel is left out of both clocks.
The time between two kernels is scaled by NOMINAL_S / (the median of the
last WINDOW kernel times).  So one second of these clocks is what the
program does in one second on a host where the kernel takes NOMINAL_S.
NOMINAL_S is a fixed constant that only sets the unit; on a 2-vCPU 2.0 GHz
Xeon VM with numpy 2.4 the kernel took 3-6 ms, as the host's load varied.
Code that gets faster by a fraction gets faster by that fraction on these
clocks too; the host's drift cancels, to within about 5-7% per pass.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

PERIOD_S = 0.1
WINDOW = 5
NOMINAL_S = 2.0e-3

_PANEL = np.linspace(-2.0, 2.0, 15) + 0.3j
_LANES = np.tile(np.array([[0.8, 0.3j], [-0.2, 0.9]]), (512, 1, 1))


def reference_kernel() -> float:
    """The fixed reference work; returns a value so that none of it is idle."""
    # Interpreter-paced ufuncs on 15-lane complex arrays, as in a quadrature
    # panel, spectral.discriminant or a short Schrodinger product.
    m11, m12 = np.ones_like(_PANEL), np.zeros_like(_PANEL)
    m21, m22 = np.zeros_like(_PANEL), np.ones_like(_PANEL)
    acc = 0.0
    for j in range(40):
        w = _PANEL - 0.1 * (j % 5)
        m11, m12, m21, m22 = w * m11 - m21, w * m12 - m22, m11, m12
        big = np.maximum(np.abs(m11), np.abs(m12))
        m11, m12, m21, m22 = m11 / big, m12 / big, m21 / big, m22 / big
        tr = m11 + m22
        disc = np.sqrt(tr * tr - 4.0 * (m11 * m22 - m12 * m21))
        acc += float(np.log(np.maximum(np.abs(tr + disc), np.abs(tr - disc))).sum())
    # Throughput-paced products over 512 lanes, as in the search's t-scans.
    b = _LANES
    for _ in range(12):
        b = np.matmul(b, _LANES)
        b = b / np.abs(b).max(axis=(-2, -1))[..., None, None]
    return acc + float(np.abs(b).sum())


def host_factor(samples: int = 2 * WINDOW) -> float:
    """NOMINAL_S over the median time of `samples` reference kernels run now."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return NOMINAL_S / statistics.median(times)


class RefClock:
    """Wall and CPU clocks in reference-speed seconds, while started."""

    def __init__(self):
        self.kernel_times: list[float] = []
        self._wall = self._cpu = 0.0
        self._factor = host_factor()
        self._mark_wall, self._mark_cpu = perf_counter(), process_time()
        self._running = False

    def _tick(self, signum, frame):
        if not self._running:          # a tick that was on its way at stop()
            return
        w0, c0 = perf_counter(), process_time()
        self._wall += (w0 - self._mark_wall) * self._factor
        self._cpu += (c0 - self._mark_cpu) * self._factor
        reference_kernel()
        w1 = perf_counter()
        self.kernel_times.append(w1 - w0)
        self._factor = NOMINAL_S / statistics.median(self.kernel_times[-WINDOW:])
        self._mark_wall, self._mark_cpu = w1, process_time()

    def read(self) -> tuple[float, float]:
        """(wall, cpu) in reference-speed seconds since the clock was made."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return (self._wall + (perf_counter() - self._mark_wall) * self._factor,
                    self._cpu + (process_time() - self._mark_cpu) * self._factor)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def wall(self) -> float:
        """The wall clock of read(), alone."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._wall + (perf_counter() - self._mark_wall) * self._factor
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        """Tick from now on.  The handler stays installed after stop()."""
        signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._running = False
