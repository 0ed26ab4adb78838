"""Calibration kernel: a fixed numpy/scipy loop timed between calls.

The benchmark's machine changes speed while it runs: a call can take
1.5 times as long from one minute to the next, and both wall and CPU
time show it.  The kernel runs the operations the package spends its
time in -- x FFTs, 32- or 64-wide matrix products for the y sine
transforms, and complex element-wise arithmetic -- on arrays of a
workload's own grid size.  It lives here, not in the package, so a
change to the package does not change it.  Timed between calls, it
measures the machine's current speed, and a call's wall time divided
by the kernel's time nearby is a cost that the speed changes cancel
out of.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import irfft, rfft


class Kernel:
    """One ETDRK4-shaped step on each (nx, ny) grid in ``shapes``: four
    products (to the grid, square, back to coefficients) and the
    combinations between them, with six coefficient arrays, so that its
    working set is the stepper's.  A block repeats that ``reps`` times."""

    def __init__(self, shapes: tuple[tuple[int, int], ...], reps: int):
        rng = np.random.default_rng(12345)
        self.parts = []
        for nx, ny in shapes:
            slots = nx // 2 + 1
            sine = np.sin(np.outer(np.arange(1, ny + 1), np.arange(1, ny + 1))
                          * np.pi / (ny + 1))
            coeffs = (rng.standard_normal((slots, ny))
                      + 1j * rng.standard_normal((slots, ny))) * 1e-3
            # decay factors and weights in place of E, E2, M, f1, f2, f3
            decay = np.exp(-rng.uniform(0, 1e-2, (6, slots, ny)))
            wave = -0.5j * rng.uniform(0, 1, (slots, ny))
            self.parts.append((nx, sine, coeffs, decay, wave))
        self.reps = reps
        self._once()  # plans the FFTs

    def _once(self):
        for nx, sine, c, (e, e2, m, f1, f2, f3), wave in self.parts:
            def rhs(a):
                u = irfft(a * nx, n=nx, axis=0) @ sine
                return wave * (rfft((u * u) @ sine, axis=0) / nx)
            n0 = rhs(c)
            a = e2 * c + m * n0
            na = rhs(a)
            b = e2 * c + m * na
            nb = rhs(b)
            cc = e2 * a + m * (2.0 * nb - n0)
            nc = rhs(cc)
            c = e * c + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc
        return c

    def block(self) -> float:
        """Time of one block, in seconds."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self._once()
        return time.perf_counter() - t0
