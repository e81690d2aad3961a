"""Cell-by-cell reference implementations of the activation updates.

These are the per-cell loops the package used before its activation
updates became one column scan vectorized over patients
(ss3m.gibbs.activation_scan). They visit patients then phenotypes and
draw one uniform per free cell, so they pin down the kernel and the draw
order the vectorized scan must reproduce exactly. Two deliberate
departures from the old loops: the total over q != p is added left to
right (the old training loop subtracted B_p from the full row sum and
lost Bstar), and log-gamma is scipy's gammaln on scalars, the function
the vectorized kernels call, so the two agree bit for bit.
"""

from math import log

import numpy as np
from scipy.special import expit, gammaln

from ss3m.gibbs import MISSING_FIX_ZERO
from ss3m.model import LABEL_ABSENT, LABEL_PRESENT, dirichlet_prior_row
from ss3m.util import floored_log


def _rest_total(row, p):
    total = 0.0
    for q, value in enumerate(row):
        if q != p:
            total += value
    return total


def training_log_odds(d, p, state, hyper):
    """log P(A_dp=1 | theta, A_d,-p) - log P(A_dp=0 | theta, A_d,-p)."""
    b_p = float(state.B[p])
    bstar = float(state.Bstar)
    prior = dirichlet_prior_row(state.A[d], state.B, bstar).astype(float)
    rest = _rest_total(prior, p)
    log_theta = float(floored_log(state.theta[d, p]))
    return (log(hyper.alpha / (1.0 - hyper.alpha))
            + gammaln(rest + b_p) - gammaln(rest + bstar)
            + gammaln(bstar) - gammaln(b_p)
            + (b_p - bstar) * log_theta)


def training_cell(d, p, state, labels, options, hyper, rng):
    """One activation bit given theta, honoring the label clamps."""
    if labels is not None and p < labels.num_labels:
        cell = int(labels.entries[d, p])
        if cell == LABEL_PRESENT:
            return 1
        if cell == LABEL_ABSENT:
            return 0
        if options.missing_label_mode == MISSING_FIX_ZERO:
            return 0
    odds = training_log_odds(d, p, state, hyper)
    prob_one = 1.0 / (1.0 + np.exp(-odds)) if odds > -700 else 0.0
    return int(rng.random() < prob_one)


def training_scan(state, labels, options, hyper, rng):
    """The training activation update: patients then phenotypes."""
    D, P = state.A.shape
    for d in range(D):
        for p in range(P):
            state.A[d, p] = training_cell(d, p, state, labels, options,
                                          hyper, rng)


def collapsed_scan(state, counts, hyper, rng):
    """The held-out activation update with theta integrated out."""
    D, P = state.A.shape
    prior_bias = np.log(hyper.alpha) - np.log1p(-hyper.alpha)
    totals = counts.sum(axis=1)
    for d in range(D):
        n_d = counts[d]
        N = totals[d]
        for p in range(P):
            base = 0.0
            for q in range(P):
                if q != p:
                    base += state.B[q] if state.A[d, q] else state.Bstar
            t_on = base + state.B[p]
            t_off = base + state.Bstar
            log_odds = (prior_bias
                        + gammaln(t_on) - gammaln(t_on + N)
                        + gammaln(state.B[p] + n_d[p]) - gammaln(state.B[p])
                        - gammaln(t_off) + gammaln(t_off + N)
                        - gammaln(state.Bstar + n_d[p])
                        + gammaln(state.Bstar))
            state.A[d, p] = 1 if rng.random() < expit(log_odds) else 0
