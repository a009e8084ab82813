"""Machine-speed normalization of measured times.

On a shared virtual machine the speed of a core switches between states
about 1.5x apart every few seconds, so raw wall times of the same work
drift by tens of percent from one run to the next.  While commands run,
an interval timer interrupts the program every INTERVAL seconds and times
a fixed reference kernel that resembles the running command's work: RK-style
Python loops for deterministic commands, numpy array updates for SSE
ensembles.  A span of wall time is then reported at reference speed:

    (wall - kernel time) * mean(nominal / kernel time of each sample)

that is, the work the span did, in seconds of a machine on which the
kernel takes its nominal time.  Within a run the kernel time and the program
time move together; their ratio is several times steadier than either.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.05

_W = np.linspace(0.0, 3.0, 201)
_D = np.linspace(-1.0, 1.0, 201)
_OUT = np.empty((201, 2), dtype=complex)
_INCREMENTS = np.random.default_rng(0).normal(0.0, 0.02, size=(24, 1024))


def loop_kernel():
    """RK-style loops over numpy samples, real (Bloch-like) then complex (pure-like)."""
    r1, r2, r3, h = 0.0, 0.0, -1.0, 1e-3
    for i in range(200):
        w, d, w2, d2 = _W[i], _D[i], _W[i + 1], _D[i + 1]
        a1, b1, c1 = d * r2 + w * r3, -d * r1 - w * r3, -w * r1 + w * r2
        a2 = d2 * (r2 + h * b1) + w2 * (r3 + h * c1)
        r1, r2, r3 = r1 + h * (a1 + a2), r2 + h * b1, r3 + h * c1
    c1, c2 = 1.0 + 0j, 0j
    for i in range(100):
        o = 1.2 * (_W[i] - 1j * _D[i])
        a1, b1 = -0.5j * (-_D[i] * c1 + o * c2), -0.5j * (o.conjugate() * c1 + _D[i] * c2)
        c1, c2 = c1 + h * a1, c2 + h * b1
        _OUT[i + 1] = (c1, c2)
    return r3 + abs(c2)


def array_kernel():
    """Float arithmetic in Python, then Euler-like updates of 1024-trajectory arrays."""
    a, b, c, h = 0.1, 0.2, 0.3, 1e-3
    for _ in range(1500):
        k1 = b * c - 0.5 * a * a
        k2 = -a * c + 0.25 * (b + h * k1)
        k3 = a * b - c * (0.5 * h * k2)
        a, b, c = a + h * k1, b + h * k2, c + h * (k1 + 2.0 * k2 + k3) / 6.0
    c1 = np.ones(1024, dtype=complex)
    c2 = np.zeros(1024, dtype=complex)
    for dw in _INCREMENTS:
        c1, c2 = (c1 + 0.001 * (-0.5j * (c1 - (0.3 - 0.2j) * c2)) + dw * c2,
                  c2 + 0.001 * (-0.5j * ((0.3 + 0.2j) * c1 + c2)) + dw * c1)
    return a + abs(c1[0])


# kernel and its in-handler time in the fast state of a 2-vCPU Xeon VM, per kind of work
KERNELS = {"loops": (loop_kernel, 0.0009), "arrays": (array_kernel, 0.0012)}


class SpeedProbe:
    """Context manager sampling a kernel on SIGALRM while it is entered.

    Set `kind` to the key of KERNELS that resembles the work about to run,
    then call `sample` right before timing it, so that every span has a
    sample at its start even if the timer does not fire inside it.
    """

    def __init__(self):
        self.kind = "loops"
        self.starts = []
        self.durations = []
        self.speeds = []
        self._busy = False

    def sample(self):
        if self._busy:  # the timer fired during a sample: samples stay in time order
            return
        self._busy = True
        try:
            kernel, nominal = KERNELS[self.kind]
            t = time.perf_counter()
            kernel()
            d = time.perf_counter() - t
            self.starts.append(t)
            self.durations.append(d)
            self.speeds.append(nominal / d)
        finally:
            self._busy = False

    def _on_timer(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, t0, t1):
        """Wall span [t0, t1) as seconds at reference speed.

        Uses the samples taken inside the span, or the last one before it
        if the timer did not fire inside it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        speeds = self.speeds[lo:hi] or self.speeds[lo - 1:lo]
        if not speeds:
            raise ValueError("no speed sample at or before the span; call sample() first")
        return (t1 - t0 - sum(self.durations[lo:hi])) * sum(speeds) / len(speeds)
