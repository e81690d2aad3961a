"""Loop-by-loop reference implementations of the package's vectorized
kernels.

The activation references are the per-cell loops the package used before its activation
updates became one column scan vectorized over patients
(ss3m.gibbs.activation_scan). They visit patients then phenotypes and
draw one uniform per free cell, so they pin down the kernel and the draw
order the vectorized scan must reproduce exactly. Two deliberate
departures from the old loops: the total over q != p is added left to
right (the old training loop subtracted B_p from the full row sum and
lost Bstar), and log-gamma is scipy's gammaln on scalars, the function
the vectorized kernels call, so the two agree bit for bit.

The token-path references are the per-patient loops the package used
before every token-level pass went through one flat view per source
(ss3m.model.flat_view): the forward simulator with its per-patient
(n x K) categorical draws, the count matrices, the token terms of the
complete-data log-likelihood, the raw-token features and the unchunked
z pass.
"""

from math import lgamma, log

import numpy as np
from scipy.special import expit, gammaln

from ss3m.errors import NumericalError, SamplingError
from ss3m.gibbs import MISSING_FIX_ZERO
from ss3m.model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    Corpus,
    ModelState,
    dirichlet_prior_row,
    log_gamma_pdf,
    prior_matrix,
)
from ss3m.util import PROB_FLOOR, floored_log, sample_dirichlet


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


def categorical_rows(probs, rng):
    """One categorical draw per row of a (n, K) probability matrix."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    u = rng.random((probs.shape[0], 1))
    return (cum < u).sum(axis=1).astype(np.int64)


def generate(hyper, vocab_sizes, doc_lengths, D, seed):
    """The forward simulator, patient by patient; returns (corpus, state,
    the generator it drew from)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    P, S = hyper.num_phenotypes, hyper.num_sources
    phi = [sample_dirichlet(np.full((P, vocab_sizes[s]), hyper.gamma[s]),
                            rng) for s in range(S)]
    B = np.maximum(rng.gamma(hyper.b_shape, hyper.b_scale, size=P),
                   PROB_FLOOR)
    Bstar = float(max(rng.gamma(hyper.bstar_shape, hyper.bstar_scale),
                      PROB_FLOOR))
    A = (rng.random((D, P)) < hyper.alpha).astype(np.int8)
    theta = sample_dirichlet(prior_matrix(A, B, Bstar), rng)
    tokens = [[] for _ in range(S)]
    z = [[] for _ in range(S)]
    for s in range(S):
        lengths = doc_lengths.draw(s, D, rng)
        for d in range(D):
            n = int(lengths[d])
            z_sd = categorical_rows(np.broadcast_to(theta[d], (n, P)), rng)
            tokens[s].append(categorical_rows(phi[s][z_sd], rng))
            z[s].append(z_sd)
    vocab = [[f"s{s}_w{v:05d}" for v in range(vocab_sizes[s])]
             for s in range(S)]
    state = ModelState(theta=theta, phi=phi, z=z, A=A, B=B, Bstar=Bstar)
    return Corpus(vocab=vocab, tokens=tokens), state, rng


def phenotype_counts(state, corpus):
    D, P = state.theta.shape
    c = np.zeros((D, P), dtype=np.int64)
    for s in range(corpus.num_sources):
        for d in range(D):
            z_sd = state.z[s][d]
            if z_sd.size:
                c[d] += np.bincount(z_sd, minlength=P)
    return c


def token_counts(state, corpus, s):
    P = state.theta.shape[1]
    v_s = len(corpus.vocab[s])
    flat = np.zeros(P * v_s, dtype=np.int64)
    for d in range(corpus.num_patients):
        z_sd = state.z[s][d]
        if z_sd.size:
            flat += np.bincount(z_sd * v_s + corpus.tokens[s][d],
                                minlength=P * v_s)
    return flat.reshape(P, v_s)


def raw_token_features(corpus):
    D = corpus.num_patients
    blocks = []
    for s in range(corpus.num_sources):
        v_s = len(corpus.vocab[s])
        block = np.zeros((D, v_s))
        for d in range(D):
            w = corpus.tokens[s][d]
            if w.size:
                block[d] = np.bincount(w, minlength=v_s)
        blocks.append(block)
    return np.hstack(blocks)


def complete_data_log_likelihood(state, corpus, hyper):
    D, P = state.theta.shape
    total = 0.0
    for s in range(corpus.num_sources):
        gam = hyper.gamma[s]
        v_s = len(corpus.vocab[s])
        norm = lgamma(gam * v_s) - v_s * lgamma(gam)
        total += P * norm + (gam - 1.0) * floored_log(state.phi[s]).sum()
    total += sum(log_gamma_pdf(float(b), hyper.b_shape, hyper.b_scale)
                 for b in state.B)
    total += log_gamma_pdf(float(state.Bstar), hyper.bstar_shape,
                           hyper.bstar_scale)
    n_active = int(state.A.sum())
    total += n_active * log(hyper.alpha) + (D * P - n_active) * log(
        1.0 - hyper.alpha)
    prior = prior_matrix(state.A, state.B, state.Bstar)
    total += float(gammaln(prior.sum(axis=1)).sum() - gammaln(prior).sum()
                   + ((prior - 1.0) * floored_log(state.theta)).sum())
    log_theta = floored_log(state.theta)
    for s in range(corpus.num_sources):
        for d in range(D):
            z_sd = state.z[s][d]
            if z_sd.size == 0:
                continue
            phi_vals = state.phi[s][z_sd, corpus.tokens[s][d]]
            if np.any(phi_vals == 0.0):
                return float("-inf")
            total += float(log_theta[d, z_sd].sum()
                           + np.log(phi_vals).sum())
    if np.isnan(total):
        raise NumericalError("complete-data log-likelihood is NaN")
    return float(total)


def sample_z_batch(theta, phi_s, w_flat, doc_idx, rng):
    """The z pass over all tokens of one source in a single block."""
    probs = theta[doc_idx, :] * phi_s[:, w_flat].T
    totals = probs.sum(axis=1)
    bad = ~(totals > 0.0) | ~np.isfinite(totals)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SamplingError(
            f"all-zero assignment weights at patient {int(doc_idx[i])}, "
            f"token {i} (corrupt state)")
    cum = np.cumsum(probs, axis=1)
    u = rng.random(len(w_flat)) * totals
    return (cum < u[:, None]).sum(axis=1).astype(np.int64)
