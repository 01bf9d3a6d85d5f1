"""Machine speed, measured beside each timed command.

On a shared host, everything this process runs can slow down by up to half
for stretches of seconds to minutes (seen as the same code taking 1.0 s in one
minute and 1.5 s in the next, in CPU time as well as wall time). A median over
one run cannot remove a slowdown that lasts the whole run, so each timed
command is bracketed by a fixed reference task, and timings are reported in
*reference seconds*: wall seconds divided by the slowdown the reference task
sees. The slowdown is taken from the fastest of three back-to-back runs of
the task, so that a momentary stall (a BLAS thread waking on a busy host)
does not read as a slow machine; single runs over-reacted to such stalls.

How much a slowdown hurts depends on the kind of work, so each workload names
the reference task made of the same numpy/scipy primitives as its hot path:

* ``interpreter``: bytecode, small numpy calls in a loop, BLAS-3 and LAPACK,
  for the measured iteration and for set-up (imports);
* ``dense``: complex Gaussian blocks, ZGEMM and Hermitian eigensolves;
* ``harness``: per-trial seeding, a 10^4-point uniform draw and sort, scalar
  math and CSV formatting;
* ``fredholm``: Legendre recurrences on 40 nodes, Bessel functions and a
  40x40 determinant.

None of them calls the package, so a change to it cannot move them.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
from scipy.special import jv

# Rough seconds of one run of each reference task on the 2-core Xeon
# (SkylakeX) VM the benchmark was tuned on. They only fix the unit of the
# scaled timings, so they stay constant for comparability.
REFERENCE_S = {"interpreter": 0.022, "dense": 0.020, "harness": 0.020, "fredholm": 0.018}
REPEATS = 3


class SpeedProbe:
    """Calling it returns the current slowdown factor (1.0 = reference speed)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.task = getattr(self, f"_{kind}")
        self.rng = np.random.default_rng(20191016)
        self.small = self.rng.standard_normal((64, 64)) / 8.0
        self.small_vector = self.rng.standard_normal(64)
        self.block = (self.rng.standard_normal((160, 160))
                      + 1j * self.rng.standard_normal((160, 160)))
        sym = self.rng.standard_normal((120, 120))
        self.sym = sym + sym.T
        for _ in range(3):  # the first BLAS/LAPACK calls pay one-off set-up
            self()

    def __call__(self) -> float:
        fastest = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.task()
            fastest = min(fastest, time.perf_counter() - start)
        return fastest / REFERENCE_S[self.kind]

    def _interpreter(self) -> None:
        acc = 0
        for i in range(150_000):
            acc += i * i
        x = self.small_vector
        for _ in range(2_000):
            x = self.small @ x
            x /= np.linalg.norm(x)
        for _ in range(6):
            self.block @ self.block.conj().T
        for _ in range(3):
            np.linalg.eigh(self.sym)

    def _dense(self) -> None:
        n, rows = 200, 202
        v = self.rng.standard_normal((rows, n)) + 1j * self.rng.standard_normal((rows, n))
        w = self.rng.standard_normal((rows, n)) + 1j * self.rng.standard_normal((rows, n))
        a, b = v.conj().T @ v, w.conj().T @ w
        lam, u = np.linalg.eigh(a + b)
        root = (u / np.sqrt(lam)) @ u.conj().T
        np.linalg.eigvalsh(np.eye(n) - 2.0 * (root @ a @ root))

    def _harness(self) -> None:
        writer = csv.writer(io.StringIO())
        for index in range(80):
            seed = int(np.random.SeedSequence((7, index)).generate_state(1, np.uint64)[0])
            lam = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, 10_000))
            top = float(lam[-1])
            for _ in range(25):
                count = (math.log(1e-3) + math.log(1.0 - top)) / math.log(abs(top))
                writer.writerow([index, repr(top), math.ceil(count), repr(1.0 / count)])

    def _fredholm(self) -> None:
        m = 40
        k = np.arange(1, m + 1)
        for _ in range(12):
            x = np.cos(np.pi * (k - 0.25) / (m + 0.5))
            for _ in range(6):  # Newton steps on P_m by the three-term recurrence
                p_prev, p = np.ones_like(x), x.copy()
                for j in range(1, m):
                    p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
                x = x - p / (m * (x * p - p_prev) / (x * x - 1.0))
            u = 10.0 * (1.0 + x)
            a, b = jv(2.0, np.sqrt(u)), np.sqrt(u) * jv(1.0, np.sqrt(u))
            kern = np.outer(a, b) - np.outer(b, a)
            np.linalg.det(np.eye(m) - kern / (4.0 * m))
