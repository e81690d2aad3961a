"""Hamiltonian Monte Carlo over unconstrained coordinates, plus the
log-transformed conditional targets for the prior pseudo-counts B and
Bstar.

Positivity of B and Bstar is handled by sampling eta = log(B) with the
exp-transform Jacobian folded into the target density, so the kernel itself
is plain HMC with an identity mass matrix, in any dimension.

A sweep makes two moves: one over all P coordinates of log B given A,
theta and Bstar, then one over log Bstar given the new B. Bstar keeps its
own move: its gradient is about 100 times the B_p gradients, so one move
over both with an identity mass matrix would mix poorly. Both targets
come from one builder (_log_concentration_target): pseudo-counts
b_j each filling K[d, j] coordinates of patient d's gated prior, with
K = A for B and K = the inactive counts for Bstar.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .errors import ConfigError, NumericalError
from .util import PROB_FLOOR, floored_log


class FunctionTarget:
    """Log-density with gradient, both over an unconstrained real vector,
    from the two functions given."""

    def __init__(self, log_density, gradient):
        self._f = log_density
        self._g = gradient

    def log_density(self, x):
        return float(self._f(np.asarray(x, dtype=float)))

    def gradient(self, x):
        return np.asarray(self._g(np.asarray(x, dtype=float)), dtype=float)


@dataclass
class HmcResult:
    next_point: np.ndarray
    accepted: bool


def leapfrog(x, momentum, target: FunctionTarget, eps: float, L: int):
    """Standard leapfrog integration of L steps of size eps.

    Uses potential U = -log_density, so dp/dt = gradient of log_density.
    Exactly reversible: negate the final momentum and integrate again to
    return to the start.
    """
    if eps <= 0:
        raise ConfigError("step size must be positive")
    if L < 1:
        raise ConfigError("path length must be at least 1")
    x = np.array(x, dtype=float)
    p = np.array(momentum, dtype=float)
    grad = target.gradient(x)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient at leapfrog step 0")
    p = p + 0.5 * eps * grad
    for step in range(L):
        x = x + eps * p
        grad = target.gradient(x)
        if not np.all(np.isfinite(grad)):
            raise NumericalError(f"non-finite gradient at leapfrog step {step + 1}")
        if step < L - 1:
            p = p + eps * grad
    p = p + 0.5 * eps * grad
    return x, p


def hmc_step(x, target: FunctionTarget, eps: float, L: int,
             rng: np.random.Generator) -> HmcResult:
    """One Metropolis-corrected HMC transition from x."""
    x = np.asarray(x, dtype=float)
    logp0 = target.log_density(x)
    if not np.isfinite(logp0):
        raise NumericalError("log-density not finite at the current point")
    p0 = rng.standard_normal(x.shape)
    x1, p1 = leapfrog(x, p0, target, eps, L)
    h0 = -logp0 + 0.5 * float(p0 @ p0)
    h1 = -target.log_density(x1) + 0.5 * float(p1 @ p1)
    dh = h1 - h0
    # a non-finite energy error is rejected without drawing a uniform
    if np.isfinite(dh) and np.log(rng.random()) < -dh:
        return HmcResult(next_point=x1, accepted=True)
    return HmcResult(next_point=x.copy(), accepted=False)


def _log_concentration_target(fixed, K, sum_log_theta, shape,
                              scale) -> FunctionTarget:
    """Conditional for eta = log b, b a vector of J pseudo-counts, b_j
    filling K[d, j] coordinates of patient d's Dirichlet prior whose other
    coordinates sum to fixed_d:

    log_density(eta) = sum over j of [eta_j*shape - b_j/scale
        - n_j*lgamma(b_j) + (b_j-1)*sum_log_theta_j]
        + sum over patients of lgamma(T_d),

    with b = exp(eta), T = fixed + K b, n_j = sum_d K[d, j] and
    sum_log_theta_j the floored log theta summed over the coordinates b_j
    fills. The eta*shape term is the Gamma prior's (shape-1)*eta plus the
    +eta exp-transform Jacobian.
    """
    K = np.asarray(K, dtype=float)
    n = K.sum(axis=0)
    slt = np.asarray(sum_log_theta, dtype=float)

    def b_of(eta):
        return np.maximum(np.exp(eta), PROB_FLOOR)

    def log_density(eta):
        b = b_of(eta)
        totals = fixed + K @ b
        return float(gammaln(totals).sum() + (eta * shape - b / scale
                     - n * gammaln(b) + (b - 1.0) * slt).sum())

    def gradient(eta):
        b = b_of(eta)
        totals = fixed + K @ b
        # Multiply by b inside the sums: digamma(t) ~ -1/t for tiny t, so
        # b*digamma stays O(1) where the bare sums could overflow.
        return (digamma(totals) @ (K * b) - n * (b * digamma(b)) + b * slt
                + shape - b / scale)

    return FunctionTarget(log_density, gradient)


def b_target(state, hyper) -> FunctionTarget:
    """Target over eta = log B, one coordinate per phenotype: B_p fills
    one coordinate of each patient active for p, Bstar the rest. A
    phenotype with no active patient contributes its transformed Gamma
    prior alone."""
    A = state.A
    inactive = A.shape[1] - A.sum(axis=1)
    slt = (A * floored_log(state.theta)).sum(axis=0)
    return _log_concentration_target(inactive * float(state.Bstar), A, slt,
                                     hyper.b_shape, hyper.b_scale)


def bstar_target(state, hyper) -> FunctionTarget:
    """Target over eta = log Bstar, one coordinate filling every patient's
    inactive phenotype coordinates."""
    A = state.A
    inactive = A == 0
    slt = (inactive * floored_log(state.theta)).sum()
    return _log_concentration_target(
        A @ state.B, inactive.sum(axis=1)[:, None], [slt],
        hyper.bstar_shape, hyper.bstar_scale)
