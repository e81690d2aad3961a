"""A fixed reference kernel that measures the host's speed at a moment.

The benchmark's host is shared: back-to-back calls that do the same work
run up to 1.7 times faster or slower from one stretch of seconds to the
next, and the process's CPU time moves with its wall time, so the guest
cannot see the contention. Interpreted scalar code is hit hardest; large
vectorized array passes much less. The benchmark times this kernel just
before and just after each call into the program and divides the call's
wall time by the mean of the two, which cancels the speed of the moment.

The kernel mirrors the mix of a Gibbs sweep at paper scale: a per-cell
loop of scalar log-gamma arithmetic on 70-element numpy rows (the
activation update), and a vectorized categorical draw over 12k tokens
(the z pass), run in three chunks so that it does not set the process's
peak memory. It uses none of the program's code and does the same work on
every call, so a change to the program cannot change it.
"""

import time
from math import lgamma, log

import numpy as np

_RNG = np.random.default_rng(12345)
_P = 70
_A = (_RNG.random((80, _P)) < 0.3).astype(np.int64)
_B = _RNG.random(_P) + 0.5
_THETA = _RNG.dirichlet(np.ones(_P), size=300)
_PHI = _RNG.dirichlet(np.ones(500), size=_P)
_W = _RNG.integers(0, 500, size=12000)
_DOC = np.sort(_RNG.integers(0, 300, size=12000))
_CHUNK = 4000


def reference_seconds():
    """Run the kernel once and return its wall time in seconds
    (about 0.07 s on a 2.1 GHz Xeon vCPU)."""
    rng = np.random.default_rng(0)
    t = time.perf_counter()
    ones = 0
    for d in range(_A.shape[0]):
        for p in range(_P):
            b_p = float(_B[p])
            prior = np.where(_A[d] == 1, _B, 0.1).astype(float)
            t0 = float(prior.sum() - prior[p] + 0.1)
            log_theta = float(np.log(np.maximum(_THETA[d, p], 1e-300)))
            odds = (log(0.1 / 0.9) + lgamma(t0 - 0.1 + b_p) - lgamma(t0)
                    + lgamma(0.1) - lgamma(b_p) + (b_p - 0.1) * log_theta)
            if not np.isfinite(odds):
                raise ArithmeticError("reference kernel: non-finite odds")
            prob = 1.0 / (1.0 + np.exp(-odds)) if odds > -700 else 0.0
            ones += int(rng.random() < prob)
    for _ in range(2):
        for i in range(0, _W.size, _CHUNK):
            w, doc = _W[i:i + _CHUNK], _DOC[i:i + _CHUNK]
            cum = np.cumsum(_THETA[doc, :] * _PHI[:, w].T, axis=1)
            u = rng.random(w.size) * cum[:, -1]
            ones += int((cum < u[:, None]).sum())
    seconds = time.perf_counter() - t
    if ones <= 0:
        raise ArithmeticError("reference kernel: no work done")
    return seconds
