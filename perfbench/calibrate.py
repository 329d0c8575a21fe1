"""A fixed reference computation that gauges how fast the machine runs now.

Other users of a shared host slow a process by up to about 1.8x, in
phases that last from seconds to minutes and differ between cores.  A
job process times `reference_s()` right before and right after main(),
and every SAMPLE_INTERVAL_S during it (`Sampler`); the parent scales the
job's time by the reference times (run.py).  The reference is a few
small dense eigen-decompositions, SVDs and products: on this kind of host
they slow down by about as much as lindring's own jobs do, while tight
interpreted loops over dictionaries slow down much more.  It does not
touch lindring.
"""

import signal
import time

import numpy as np

# seconds one reference takes when the host is quiet
NOMINAL_S = 0.005
SAMPLE_INTERVAL_S = 0.5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_H = _A + _A.conj().T


def reference_s() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.eigh(_H)
        np.linalg.svd(_A)
        _A @ _A
    return time.perf_counter() - t0


def steady_reference_s(repeats: int = 3) -> float:
    """Median of a few references in a row."""
    return sorted(reference_s() for _ in range(repeats))[repeats // 2]


class Sampler:
    """Times the reference every SAMPLE_INTERVAL_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it measures
    the core the job runs on without a second thread competing with the
    job; `paused_s` is the time spent in the handler, which the caller
    takes off the job's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # the handler stays installed: resetting it could race a signal
        # that is already pending
        signal.setitimer(signal.ITIMER_REAL, 0.0)
