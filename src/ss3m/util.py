"""Small shared helpers: seeded RNG sub-streams, safe numerics, and the two
scipy.special ufuncs the kernels call.

gammaln and expit are proxies that import scipy.special at their first
call. Importing scipy.special loads array_api_compat, numpy.f2py,
numpy.testing and numpy.ma, more than half of `import ss3m`'s time, and
only the A scan, the log joint and the LR fit call them, so generate,
preprocess and summarize never pay for it.
"""

import hashlib

import numpy as np

from .errors import ConfigError

# Floor applied to Gamma draws and to B and Bstar; guards against
# floating-point underflow, not genuine zero mass.
PROB_FLOOR = 1e-300


class _SpecialUfunc:
    """scipy.special.<name>, imported at the first call. The import lock
    makes a concurrent first call wait for the module."""

    def __init__(self, name: str):
        self.name, self.ufunc = name, None

    def __call__(self, *args, **kwargs):
        if self.ufunc is None:
            import scipy.special
            self.ufunc = getattr(scipy.special, self.name)
        return self.ufunc(*args, **kwargs)


gammaln = _SpecialUfunc("gammaln")
expit = _SpecialUfunc("expit")


def seed_sequence(seed: int, spawn_key=()) -> np.random.SeedSequence:
    """SeedSequence(seed, spawn_key): the one door every seed of the package
    goes through; ConfigError naming the seed if it is negative."""
    try:
        return np.random.SeedSequence(seed, spawn_key=spawn_key)
    except ValueError:
        raise ConfigError(f"seed must be >= 0, got {seed!r}") from None


def substream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent, reproducible RNG stream from (seed, name).

    All randomness in the package flows from a single integer seed through
    named sub-streams, so changing e.g. evaluation settings never perturbs
    training draws.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(seed_sequence(seed, (key,)))


def sample_dirichlet(alpha, rng: np.random.Generator):
    """Dirichlet draw(s) via normalized Gamma variates.

    Accepts a 1-D concentration vector or a 2-D array (one row per draw).
    Gamma draws are clamped away from exact zero so the returned simplex
    rows are strictly positive.
    """
    g = rng.standard_gamma(np.asarray(alpha, dtype=float))
    g = np.maximum(g, PROB_FLOOR)
    return g / g.sum(axis=-1, keepdims=True)
