"""Host-speed meter: fixed reference work, timed between solver iterations.

On a shared host the speed of the machine drifts by up to half over periods
from a tenth of a second to tens of seconds, longer than a run, so raw times
of identical runs spread by 20% and more.  The kernel below is timed every
``EVERY`` iterations of a solve and once after it.  Each block of iterations
is scaled by ``REFERENCE_S`` over the kernel time measured right after it,
which expresses its time at the host speed where the kernel takes
``REFERENCE_S``.  The kernel mixes interpreter work with small dense algebra,
like a solver iteration, and uses no code of the package, so no change to the
package can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 200e-6  # kernel time on the quiet development host (2 vCPU x86-64)
EVERY = 32            # iterations between kernel timings (~2% of solve time)

_rng = np.random.default_rng(0)
_A = _rng.random((11, 11))
_V = _rng.random(11)


def kernel_s() -> float:
    """Run the reference kernel once; its duration in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        q, r = np.linalg.qr(_A)
        x = np.linalg.solve(r, q.T @ _V)
        s = 0.0
        for j in range(11):
            s += float(x[j] * _V[j])
        float(np.linalg.norm(np.clip(x, -1.0, 1.0)))
    return time.perf_counter() - start


def warm_up(count: int = 200):
    for _ in range(count):
        kernel_s()


def factor(samples: list) -> float:
    """Scale from raw seconds to reference-speed seconds."""
    return REFERENCE_S / statistics.fmean(samples)


def scale_solve(intervals, tail: float, kernels: list):
    """A solve's callback intervals and tail at reference speed.

    Each block of ``EVERY`` intervals is scaled by the median of the kernel
    timing that followed it and its two neighbours; the median keeps one
    interrupted kernel run from skewing a block.
    """
    k = np.asarray(kernels)
    smooth = np.array([np.median(k[max(0, j - 1):j + 2]) for j in range(k.size)])
    block = np.minimum(np.arange(len(intervals)) // EVERY, k.size - 1)
    f = REFERENCE_S / smooth
    return intervals * f[block], tail * f[-1]
