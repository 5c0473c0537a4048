"""Host-speed normalisation of op times.

On a shared virtual machine the same code can run 1.5-2x slower for
stretches from under a second to minutes, presumably when the host gives
the vCPU less of a core.  Such a slowdown also slows a fixed piece of
Python, numpy and scipy work, so the benchmark times a fixed reference
kernel between ops and scales each op's time by ``REFERENCE_KERNEL_S`` over
the kernel time around it.  A scaled time reads as seconds at the host
speed where the kernel takes ``REFERENCE_KERNEL_S``.  The kernel calls
nothing of afcdepth, so a change to the library cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize, rosen, rosen_der

# about the kernel's time on a 2-vCPU Intel Xeon KVM guest in its faster
# state, so that a reference-speed second is a wall second there
REFERENCE_KERNEL_S = 0.005


class ReferenceKernel:
    """A fixed mix of interpreted Python, small dense linear algebra, a sort
    and an SLSQP solve: the kinds of work the library's ops are made of."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((120, 120))
        self._vector = rng.standard_normal(20000)

    def _work(self):
        total = 0
        for i in range(20000):
            total += i * i % 7
        for _ in range(5):
            np.linalg.solve(self._matrix, self._matrix[0])
            np.sort(self._vector)
        minimize(rosen, np.full(6, 0.5), jac=rosen_der, method="SLSQP")
        return total

    def seconds(self):
        """The faster of two passes of the kernel: the first pass after an op
        also refills the caches the op evicted."""
        times = []
        for _ in range(2):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        return min(times)

    @staticmethod
    def scale(*kernel_seconds):
        """Factor that turns a time measured among kernel passes of the
        given seconds (the passes before and after it) into reference-speed
        seconds."""
        return REFERENCE_KERNEL_S / statistics.median(kernel_seconds)
