"""Fixed reference work that tells how fast the machine runs right now.

On a shared host the speed of a core drifts: on a 2-core x86-64 VM, one
4x2 ``ergodic_loss`` call took 0.19 s or 0.36 s within the same minute,
and 60-second windows of the same job list differed by 15-30%.  No run of
a minute can average that out, so ten runs at different times spread more
than a regression bound.  The drift is shared, but not equally by all
code: per pass, Monte Carlo jobs slow down about as much as a fixed Python
loop and a fixed small-numpy loop, while the call-heavy pure Python of the
analytic jobs slows down 1.2-1.8 times as much (in log terms).

So the timing run measures reference work of the workload's own kind
between jobs, and divides each job's time by the slowdown the reference
shows around it.  The reference is part of the benchmark, not of freemimo,
so a change to freemimo moves the job times and leaves the reference
alone.  There are two kinds, each about 20-40 ms at nominal speed:

- ``numeric``, for the Monte Carlo workloads: a pure-Python loop (the
  interpreter work of small-trial jobs) and Philox draws, an 8x4 Gram and
  ``slogdet`` (the small-numpy work), combined by geometric mean;
- ``calls``, for the analytic workload: method calls, generator
  expressions and ``min`` on floats, the shape of nested bisection inside
  adaptive quadrature.

Set-up time is corrected the same way by a start-up reference instead: a
fresh Python process that imports numpy.

Every corrected time is the measured time divided by a slowdown, so it
reads in seconds at the reference's nominal speed; the result file keeps
the uncorrected times and the slowdowns too.
"""

import math
import time

import numpy as np

# Nominal seconds of each loop, about the median of 40 measurements on a
# 2-core x86-64 VM (Python 3.11, numpy 2.4.6).  They only set the scale of
# the corrected times; any fixed value would do.
PY_NOMINAL_S = 0.0200
NP_NOMINAL_S = 0.0190
CALLS_NOMINAL_S = 0.0160

# Start-up reference for setup_s: a fresh Python that imports numpy, the
# process creation and imports every set-up pays.  The in-process loops
# below do not track how fast processes start; this does (on the same VM,
# the set-up median of a run spread by 22-32% across runs, its ratio to
# this reference by 4-12%).
STARTUP_CODE = "import numpy, numpy.linalg"
STARTUP_NOMINAL_S = 0.150

PY_ITERATIONS = 250_000
NP_ITERATIONS = 1_000
CALLS_ITERATIONS = 12_000

def _python_loop():
    t0 = time.perf_counter()
    s = 0
    for i in range(PY_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def _numpy_loop():
    rng = np.random.Generator(np.random.Philox(7))
    t0 = time.perf_counter()
    for _ in range(NP_ITERATIONS):
        x = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        np.linalg.slogdet(x.conj().T @ x)
    return time.perf_counter() - t0


class _Law:
    def __init__(self, a):
        self.a = a

    def alpha(self, z):
        return self.a / (1.0 - z)

    def s(self, z):
        if not -1.0 < z < 0.0:
            raise ValueError(z)
        return 1.0 / (1.0 + self.alpha(z))


class _Product:
    def __init__(self, *laws):
        self.laws = laws

    def s(self, z):
        return math.prod(law.s(z) for law in self.laws)


def _calls_loop():
    product = _Product(_Law(1.0), _Law(2.0), _Law(0.5))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALLS_ITERATIONS):
        acc += min(product.s(-(i % 997 + 1) / 1000.0), 1.0)
    return time.perf_counter() - t0


def slowdown(kind):
    """Current slowdown of the reference work of ``kind`` ("numeric" or
    "calls") against its nominal speed; 2.0 means half speed."""
    if kind == "calls":
        return _calls_loop() / CALLS_NOMINAL_S
    return math.sqrt(_python_loop() / PY_NOMINAL_S
                     * _numpy_loop() / NP_NOMINAL_S)


def warm_up(kind):
    for _ in range(3):
        slowdown(kind)
