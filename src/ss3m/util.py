"""Small shared helpers: seeded RNG sub-streams and safe numerics."""

import hashlib

import numpy as np

# Floor applied to Gamma draws and to B and Bstar; guards against
# floating-point underflow, not genuine zero mass.
PROB_FLOOR = 1e-300


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent, reproducible RNG stream from (seed, name).

    All randomness in the package flows from a single integer seed through
    named sub-streams, so changing e.g. evaluation settings never perturbs
    training draws.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def sample_dirichlet(alpha, rng: np.random.Generator):
    """Dirichlet draw(s) via normalized Gamma variates.

    Accepts a 1-D concentration vector or a 2-D array (one row per draw).
    Gamma draws are clamped away from exact zero so the returned simplex
    rows are strictly positive.
    """
    g = rng.standard_gamma(np.asarray(alpha, dtype=float))
    g = np.maximum(g, PROB_FLOOR)
    return g / g.sum(axis=-1, keepdims=True)
