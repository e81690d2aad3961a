"""Hamiltonian Monte Carlo over unconstrained coordinates, plus the
log-transformed conditional targets for the prior pseudo-counts B_p and
Bstar.

Positivity of B_p and Bstar is handled by sampling eta = log(B) with the
exp-transform Jacobian folded into the target density, so the kernel itself
is plain HMC with an identity mass matrix.

B_p and Bstar share one target (_log_concentration_target): a pseudo-count
filling k_d coordinates of each patient d's gated prior, its inactive
ones for Bstar and one per patient active for p for B_p.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .errors import ConfigError, NumericalError
from .model import prior_matrix
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
    hamiltonian_error: float


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
    if not np.isfinite(dh):
        return HmcResult(next_point=x.copy(), accepted=False,
                         hamiltonian_error=float("inf"))
    if np.log(rng.random()) < -dh:
        return HmcResult(next_point=x1, accepted=True, hamiltonian_error=dh)
    return HmcResult(next_point=x.copy(), accepted=False, hamiltonian_error=dh)


def _log_concentration_target(fixed, k, sum_log_theta, shape,
                              scale) -> FunctionTarget:
    """Conditional for eta = log b, b filling k_d coordinates of patient
    d's Dirichlet prior whose other coordinates sum to fixed_d:

    log_density(eta) = eta*shape - b/scale + sum over patients of
        [lgamma(fixed_d + k_d*b) - k_d*lgamma(b) + (b-1)*sum_log_theta_d],

    with b = exp(eta) and sum_log_theta_d the floored log theta over those
    k_d coordinates. The eta*shape term is the Gamma prior's (shape-1)*eta
    plus the +eta exp-transform Jacobian.
    """
    fixed = np.asarray(fixed, dtype=float)
    k = np.asarray(k, dtype=float)
    k_total = k.sum()
    slt_total = np.asarray(sum_log_theta, dtype=float).sum()
    shape, scale = float(shape), float(scale)

    def b_of(eta):
        return max(float(np.exp(float(eta.reshape(())))), PROB_FLOOR)

    def log_density(eta):
        b = b_of(eta)
        val = float(eta.reshape(())) * shape - b / scale
        if fixed.size:
            totals = fixed + k * b
            val += float(gammaln(totals).sum() - gammaln(b) * k_total
                         + (b - 1.0) * slt_total)
        return val

    def gradient(eta):
        b = b_of(eta)
        g = shape - b / scale
        if fixed.size:
            totals = fixed + k * b
            # Multiply by b inside the sum: digamma(t) ~ -1/t for tiny t,
            # so b*digamma stays O(1) where the bare sum could overflow.
            g += float((k * b * digamma(totals)).sum()
                       - b * digamma(b) * k_total + b * slt_total)
        return np.array([g])

    return FunctionTarget(log_density, gradient)


def b_target(p: int, state, hyper) -> FunctionTarget:
    """Target over eta = log B_p: one coordinate of each patient active
    for p. With no active patients the density reduces to the transformed
    Gamma prior alone."""
    active = state.A[:, p] == 1
    prior = prior_matrix(state.A, state.B, state.Bstar)
    base = prior[active].sum(axis=1) - state.B[p]
    return _log_concentration_target(
        base, np.ones(base.size), floored_log(state.theta[active, p]),
        hyper.b_shape, hyper.b_scale)


def bstar_target(state, hyper) -> FunctionTarget:
    """Target over eta = log Bstar, summed over all patients' inactive
    phenotype coordinates."""
    A = state.A
    inactive = A == 0
    active_totals = (A * state.B[None, :]).sum(axis=1)
    k = inactive.sum(axis=1)
    slt = (inactive * floored_log(state.theta)).sum(axis=1)
    return _log_concentration_target(active_totals, k, slt,
                                     hyper.bstar_shape, hyper.bstar_scale)
