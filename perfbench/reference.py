"""A fixed computation that times the host, not the program.

On a VM with a few vCPUs of a shared host, the speed the host gives drifts
by tens of percent over seconds to minutes, and every timed call carries
that drift.  This computation imitates the program's mix of work: an
interpreter loop, a chain of small complex matrix products, and a
medium-sized complex SVD through LAPACK.  Run next to each timed call, it
slows with the host as the call does, while no change to the program can
make it faster or slower, so the ratio of the two tracks the program alone.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240917)
# unitary factors, so that the chain of products neither overflows nor
# underflows into the slow arithmetic of infinities and subnormals
_SMALL = [np.linalg.qr(_rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3)))[0]
          for _ in range(8)]
_MEDIUM = _rng.standard_normal((80, 80)) + 1j * _rng.standard_normal((80, 80))


def run_reference() -> float:
    """Run the computation once (about 25 ms on a 2-vCPU Xeon VM);
    returns its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    acc = np.eye(3, dtype=complex)
    for i in range(1500):
        acc = acc @ _SMALL[i % 8] + 0.5 * _SMALL[(i + 3) % 8]
        acc /= np.abs(acc).max()
    for _ in range(3):
        np.linalg.svd(_MEDIUM)
    return time.perf_counter() - t0
