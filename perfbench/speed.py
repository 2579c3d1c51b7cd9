"""The machine's speed, from a fixed reference task timed next to requests.

The shared 2-vCPU host this benchmark was built on runs the same Python
code at two speeds about 1.8x apart, switching many times a minute, and
the mix drifts from one minute to the next: the fastest repeat of one
input moved by up to 20% between runs ten minutes apart.  The serving
process therefore times `reference()` -- exact-rational elimination and
partition enumeration from `oracle`, which never changes with the library
-- just before every request.  A run's latencies are scaled by
REFERENCE_S / (10th percentile of those timings), so they read as if the
host ran at the reference speed.  Over eight runs of the same plucker
seed this cut the coefficient of variation of p50 from 0.057 to 0.023 and
of throughput from 0.062 to 0.034.  It corrects long requests less than
short ones, since a 3 ms task finds a fast moment of the host more easily
than a 0.2 s request does; so the requests that set p90 are kept near
0.1 s (see workloads.py).
"""

import gc
import statistics
import time
from fractions import Fraction as F

import oracle

# the 10th percentile of reference() on the 2-vCPU x86-64 machine the
# benchmark was built on, in seconds
REFERENCE_S = 0.00045

_ROWS = [{-5: F(1), -3: F(2, 3), -1: F(-1, 2), 1: F(5), 2: F(1, 7)},
         {-4: F(1), -2: F(3), 0: F(-2, 5), 3: F(1, 3)},
         {-3: F(2), -1: F(1, 9), 2: F(4)},
         {-2: F(1), 0: F(7, 2), 1: F(-1)}]


def _task():
    oracle.schur_p_terms(9)
    span = oracle.Span(_ROWS, 6)
    span.keeps({1: F(1, 2), 2: F(3)})
    span.sigma_invariant()


def reference():
    """Seconds for the reference task: the fastest of three tries.

    The collector is off meanwhile, so the size of the serving process's
    heap (the suite session's caches) does not enter the timing."""
    best, enabled = float("inf"), gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _task()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def factor(timings):
    """Scale from this run's speed to the reference speed."""
    q10 = statistics.quantiles(timings, n=10, method="inclusive")[0]
    return REFERENCE_S / q10
