"""Gibbs sampler: the four normalizable complete conditionals (z, A, theta,
phi), the HMC updates for B and Bstar, and the training sweep tying them
together.

The sampler is uncollapsed: theta and phi are explicitly sampled, which is
required because the activation conditional depends on theta_d. Within a
sweep the update order is z -> A -> theta -> phi -> B -> Bstar, where B
is one HMC move over all of log B and Bstar one move over log Bstar. Each
conditional has one kernel, shared by training, the mc3m baseline and
held-out inference and tested as it is: _sample_z_batch (z),
activation_scan (A), draw_theta (theta) and draw_theta_phi (phi, after
theta).

Token-level work runs in one flat pass per source over model.flat_view's
(w_flat, doc_idx), the source's per-patient arrays laid end to end. The
z assignments are conditionally independent given (theta, phi), so the
z pass resamples them all in one vectorized batch, in fixed-size token
blocks, with one uniform per token drawn in a single call: the same Gibbs
kernel, and the same draws, as a token-by-token scan. The phenotype and
token count matrices are one bincount per source.

The A update is one exact sequential scan over phenotypes p, each column
resampled for all D patients at once (activation_scan). Given theta the
rows of A are independent, so the scan conditions every cell on exactly
what a cell-by-cell pass over patients then phenotypes would; its
uniforms are drawn in one call in that pass's row-major order, so the
draws match too. Training runs it through sample_activations, with the
log-odds of activation_log_odds_column; held-out inference runs it with
theta collapsed out (evaluation._sample_activations_collapsed).

The mc3m baseline is the same chain (train_unstructured): its symmetric
Dirichlet(c) prior is the gated prior with every activation on and
B = Bstar = c. Both chains and held-out inference start from initial_z
and draw theta with draw_theta.
"""

import logging
from dataclasses import dataclass, field
from math import log

import numpy as np
from scipy.special import gammaln

from . import hmc
from .errors import ConfigError, SamplingError
from .model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    Hyperparameters,
    LabelMatrix,
    ModelState,
    complete_data_log_likelihood,
    count_pairs,
    flat_view,
    prior_matrix,
    split_flat,
)
from .util import PROB_FLOOR, floored_log, sample_dirichlet, substream

logger = logging.getLogger(__name__)

MISSING_FIX_ZERO = "fix_zero"
MISSING_ESTIMATE = "estimate"
B_FIXED = "fixed"
B_SAMPLED = "sampled"

# Tokens per block of the z pass: bounds its (block x P) temporaries.
Z_CHUNK = 4096


@dataclass(frozen=True)
class TrainOptions:
    missing_label_mode: str = MISSING_FIX_ZERO
    b_mode: str = B_FIXED
    seed: int = 0

    def __post_init__(self):
        if self.missing_label_mode not in (MISSING_FIX_ZERO, MISSING_ESTIMATE):
            raise ConfigError(
                f"unknown missing_label_mode {self.missing_label_mode!r}")
        if self.b_mode not in (B_FIXED, B_SAMPLED):
            raise ConfigError(f"unknown b_mode {self.b_mode!r}")


@dataclass
class TrainTrace:
    log_likelihoods: list = field(default_factory=list)
    hmc_accepts: list = field(default_factory=list)
    hmc_attempts: list = field(default_factory=list)
    best_state: ModelState = None
    best_iteration: int = -1

    @property
    def best_log_likelihood(self) -> float:
        return max(self.log_likelihoods) if self.log_likelihoods else float("-inf")


def _sample_z_batch(theta, phi_s, w_flat, doc_idx, rng):
    """Vectorized z resample for all tokens of one source, Z_CHUNK tokens
    at a time so the (tokens x P) temporaries stay bounded. The uniforms
    are drawn in one call up front, so the draws do not depend on the
    chunking."""
    phi_t = np.ascontiguousarray(phi_s.T)
    u = rng.random(len(w_flat))
    z = np.empty(len(w_flat), dtype=np.int64)
    for start in range(0, len(w_flat), Z_CHUNK):
        chunk = slice(start, start + Z_CHUNK)
        probs = theta[doc_idx[chunk]] * phi_t[w_flat[chunk]]
        totals = probs.sum(axis=1)
        bad = ~(totals > 0.0) | ~np.isfinite(totals)
        if bad.any():
            i = start + int(np.flatnonzero(bad)[0])
            raise SamplingError(
                f"all-zero assignment weights at patient {int(doc_idx[i])}, "
                f"token {i} (corrupt state)")
        cum = np.cumsum(probs, axis=1, out=probs)
        z[chunk] = (cum < (u[chunk] * totals)[:, None]).sum(axis=1)
    return z


def phenotype_counts(state: ModelState, corpus: Corpus) -> np.ndarray:
    """c[d, p] = number of tokens of patient d assigned to phenotype p."""
    D, P = state.theta.shape
    c = np.zeros((D, P), dtype=np.int64)
    for s in range(corpus.num_sources):
        z_flat, doc_idx = flat_view(state.z[s])
        c += count_pairs(doc_idx, z_flat, D, P)
    return c


def token_counts(state: ModelState, corpus: Corpus, s: int) -> np.ndarray:
    """m[p, v] = number of source-s tokens with value v assigned to p."""
    z_flat, _ = flat_view(state.z[s])
    w_flat, _ = flat_view(corpus.tokens[s])
    return count_pairs(z_flat, w_flat, state.theta.shape[1],
                       len(corpus.vocab[s]))


def clamp_matrix(labels: LabelMatrix, options: TrainOptions, D: int,
                 P: int) -> np.ndarray:
    """D x P activation clamps: 1 or 0 where the labels fix the bit, -1
    where it is sampled."""
    clamp = np.full((D, P), -1, dtype=np.int8)
    if labels is not None:
        ent = labels.entries
        block = clamp[:, :labels.num_labels]
        block[ent == LABEL_PRESENT] = 1
        block[ent == LABEL_ABSENT] = 0
        if options.missing_label_mode == MISSING_FIX_ZERO:
            block[ent == LABEL_UNKNOWN] = 0
    return clamp


def rest_totals(prior: np.ndarray, p: int) -> np.ndarray:
    """Row sums of prior over the columns q != p, added left to right.

    Taking prior[:, p] back out of the full row sum instead would lose
    every Bstar term of a row whose only active phenotype is p once
    P * Bstar falls below ulp(B_p), as it does at the paper prior
    (Bstar ~ 1e-18): the A_dp=0 total then reads Bstar instead of
    P * Bstar, and the log-odds are off by log P.
    """
    rest = np.delete(prior, p, axis=1)
    if rest.shape[1] == 0:
        return np.zeros(prior.shape[0])
    return np.add.accumulate(rest, axis=1)[:, -1]


def activation_scan(A: np.ndarray, clamp: np.ndarray, log_odds, prob_one,
                    B, Bstar: float, rng: np.random.Generator) -> np.ndarray:
    """One exact sequential Gibbs scan over the phenotype columns of the
    activation rows A, vectorized over the rows. Mutates and returns A.

    Cells where `clamp` (shaped like A) holds 0 or 1 are set to it; the
    cells where it holds -1 are free and resampled. log_odds(p, rows,
    prior) returns log P(A_dp=1 | rest) - log P(A_dp=0 | rest) for the
    free rows of column p (indices into A), given those rows' current
    gated concentrations; prob_one maps log-odds to P(A_dp=1).

    Rows are conditionally independent of one another (given theta in
    training, given the phenotype counts in held-out inference), so
    updating column p of every row before moving to p+1 is the same
    kernel as a cell-by-cell scan over rows then columns: each cell still
    conditions on the new bits to its left and the old bits to its right.
    The uniforms are drawn in one call, in row-major order over the free
    cells -- the order in which the cell-by-cell scan drew them -- so the
    draws are the same too.
    """
    free = clamp < 0
    u = np.zeros(free.shape)
    u[free] = rng.random(np.count_nonzero(free))
    prior = prior_matrix(A, B, Bstar)
    for p in range(A.shape[1]):
        fixed = ~free[:, p]
        A[fixed, p] = clamp[fixed, p]
        rows = np.flatnonzero(free[:, p])
        if rows.size:
            A[rows, p] = u[rows, p] < prob_one(log_odds(p, rows, prior[rows]))
        prior[:, p] = np.where(A[:, p] == 1, B[p], Bstar)
    return A


def activation_log_odds_column(p: int, patients: np.ndarray,
                               prior: np.ndarray, state: ModelState,
                               hyper: Hyperparameters) -> np.ndarray:
    """log P(A_dp=1 | rest) - log P(A_dp=0 | rest) for every d in
    `patients`, whose gated concentration rows are `prior`.

    Ratio of the two Dirichlet densities on theta_d whose concentration
    vectors differ only at coordinate p (Bstar vs B_p), times the Bernoulli
    prior odds.
    """
    b_p = float(state.B[p])
    bstar = float(state.Bstar)
    rest = rest_totals(prior, p)
    log_theta = floored_log(state.theta[patients, p])
    with np.errstate(invalid="ignore"):  # reported below
        val = (log(hyper.alpha / (1.0 - hyper.alpha))
               + gammaln(rest + b_p) - gammaln(rest + bstar)
               + gammaln(bstar) - gammaln(b_p)
               + (b_p - bstar) * log_theta)
    bad = ~np.isfinite(val)
    if bad.any():
        raise SamplingError(
            "non-finite activation log-odds at patient "
            f"{int(patients[bad][0])}, phenotype {p}")
    return val


def _prob_one(odds: np.ndarray) -> np.ndarray:
    """sigmoid(odds), read as exactly 0 below -700 where exp(-odds)
    overflows."""
    with np.errstate(over="ignore"):
        return np.where(odds > -700, 1.0 / (1.0 + np.exp(-odds)), 0.0)


def sample_activations(state: ModelState, labels: LabelMatrix,
                       options: TrainOptions, hyper: Hyperparameters,
                       rng: np.random.Generator) -> np.ndarray:
    """New activation matrix after one scan of A | theta, honoring the
    label clamp rules. The state is not changed."""
    D, P = state.A.shape
    return activation_scan(
        state.A.copy(), clamp_matrix(labels, options, D, P),
        lambda p, rows, prior: activation_log_odds_column(
            p, rows, prior, state, hyper),
        _prob_one, state.B, state.Bstar, rng)


def initial_z(corpus: Corpus, P: int, rng: np.random.Generator) -> list:
    """Uniform starting assignments z[s][d], drawn source by source and
    patient by patient."""
    return [[rng.integers(0, P, size=w.size) for w in per_source]
            for per_source in corpus.tokens]


def draw_theta(state: ModelState, counts: np.ndarray,
               rng: np.random.Generator):
    """Draw theta from Dir(gated prior + phenotype counts), in place."""
    state.theta = sample_dirichlet(
        prior_matrix(state.A, state.B, state.Bstar) + counts, rng)


def draw_theta_phi(state: ModelState, corpus: Corpus, hyper: Hyperparameters,
                   rng: np.random.Generator):
    """Draw theta (draw_theta), then each phi_s from Dir(gamma_s + token
    counts), in place."""
    draw_theta(state, phenotype_counts(state, corpus), rng)
    for s in range(corpus.num_sources):
        m = token_counts(state, corpus, s)
        state.phi[s] = sample_dirichlet(hyper.gamma[s] + m, rng)


def sweep(state: ModelState, corpus: Corpus, labels: LabelMatrix,
          options: TrainOptions, hyper: Hyperparameters,
          rng: np.random.Generator) -> dict:
    """One full Gibbs pass over z, A, theta, phi and, with b_mode
    "sampled", B then Bstar. Mutates state in place and returns the HMC
    bookkeeping counts.
    """
    D = state.theta.shape[0]

    # (1) phenotype assignments, vectorized per source.
    for s in range(corpus.num_sources):
        w_flat, doc_idx = flat_view(corpus.tokens[s])
        if w_flat.size:
            z_flat = _sample_z_batch(state.theta, state.phi[s], w_flat,
                                     doc_idx, rng)
            state.z[s] = split_flat(z_flat, doc_idx, D)

    # (2) activations: one exact sequential scan over phenotypes p, each
    # column resampled for all patients at once; activation_scan explains
    # why this is the same kernel, with the same draws, as a cell-by-cell
    # scan over patients then phenotypes.
    state.A = sample_activations(state, labels, options, hyper, rng)

    # (3)-(4) patient-phenotype, then phenotype-token distributions.
    draw_theta_phi(state, corpus, hyper, rng)

    # (5) prior pseudo-counts: one HMC move over log B, then one over
    # log Bstar given the new B.
    if options.b_mode != B_SAMPLED:
        return {"hmc_accepts": 0, "hmc_attempts": 0}
    state.B, b_accepted = _hmc_move(state.B, hmc.b_target(state, hyper),
                                    hyper, rng)
    bstar, bstar_accepted = _hmc_move(
        np.array([state.Bstar]), hmc.bstar_target(state, hyper), hyper, rng)
    state.Bstar = float(bstar[0])
    return {"hmc_accepts": b_accepted + bstar_accepted, "hmc_attempts": 2}


def _hmc_move(b, target, hyper: Hyperparameters, rng: np.random.Generator):
    """One HMC transition on log b: (b after it, whether it moved)."""
    res = hmc.hmc_step(floored_log(b), target, hyper.hmc_step_size,
                       hyper.hmc_path_length, rng)
    if not res.accepted:
        return b, False
    return np.maximum(np.exp(res.next_point), PROB_FLOOR), True


def initialize_state(corpus: Corpus, labels: LabelMatrix,
                     hyper: Hyperparameters, options: TrainOptions,
                     rng: np.random.Generator) -> ModelState:
    """Initial state: z uniform, A clamped per labels with free entries
    Bern(alpha), B/Bstar from their Gamma priors, theta/phi from their
    conditionals given the initial z and A."""
    D = corpus.num_patients
    P = hyper.num_phenotypes

    z = initial_z(corpus, P, rng)
    A = (rng.random((D, P)) < hyper.alpha).astype(np.int8)
    clamp = clamp_matrix(labels, options, D, P)
    A = np.where(clamp < 0, A, clamp).astype(np.int8)

    B = np.maximum(rng.gamma(hyper.b_shape, hyper.b_scale, size=P), PROB_FLOOR)
    Bstar = float(max(rng.gamma(hyper.bstar_shape, hyper.bstar_scale),
                      PROB_FLOOR))

    state = ModelState(theta=np.empty((D, P)), phi=[None] * corpus.num_sources,
                       z=z, A=A, B=B, Bstar=Bstar)
    draw_theta_phi(state, corpus, hyper, rng)
    return state


def _run_chain(state: ModelState, corpus: Corpus, labels: LabelMatrix,
               options: TrainOptions, hyper: Hyperparameters,
               rng: np.random.Generator) -> TrainTrace:
    """Run hyper.iterations sweeps from state, tracking the complete-data
    log-likelihood and keeping a deep snapshot of the best state. An
    interrupt returns the partial trace."""
    trace = TrainTrace()
    ll = complete_data_log_likelihood(state, corpus, hyper)
    trace.log_likelihoods.append(ll)
    trace.best_state = state.copy()
    trace.best_iteration = 0
    best_ll = ll
    try:
        for it in range(1, hyper.iterations + 1):
            stats = sweep(state, corpus, labels, options, hyper, rng)
            ll = complete_data_log_likelihood(state, corpus, hyper)
            trace.log_likelihoods.append(ll)
            trace.hmc_accepts.append(stats["hmc_accepts"])
            trace.hmc_attempts.append(stats["hmc_attempts"])
            if ll > best_ll:
                best_ll = ll
                trace.best_state = state.copy()
                trace.best_iteration = it
    except KeyboardInterrupt:
        logger.warning("training interrupted at iteration %d; returning "
                       "partial trace", len(trace.log_likelihoods) - 1)
    return trace


def train(corpus: Corpus, labels: LabelMatrix, hyper: Hyperparameters,
          options: TrainOptions) -> TrainTrace:
    """Run hyper.iterations Gibbs sweeps, tracking the complete-data
    log-likelihood and keeping a deep snapshot of the best state."""
    if corpus.num_patients == 0:
        raise ConfigError("corpus is empty")
    rng = substream(options.seed, "gibbs.train")
    state = initialize_state(corpus, labels, hyper, options, rng)
    return _run_chain(state, corpus, labels, options, hyper, rng)


def train_unstructured(corpus: Corpus, hyper: Hyperparameters,
                       concentration: float, seed: int) -> TrainTrace:
    """Baseline trainer (mc3m): a symmetric Dirichlet(concentration) prior
    on each theta_d, which is the gated chain with B = Bstar =
    concentration held fixed and a label matrix marking every phenotype
    Present (the clamp holds A at 1; the activation scan draws nothing)."""
    if corpus.num_patients == 0:
        raise ConfigError("corpus is empty")
    if concentration <= 0:
        raise ConfigError("concentration must be positive")
    rng = substream(seed, "gibbs.train")
    D, P, c = corpus.num_patients, hyper.num_phenotypes, float(concentration)
    state = ModelState(
        theta=np.empty((D, P)), phi=[None] * corpus.num_sources,
        z=initial_z(corpus, P, rng), A=np.ones((D, P), dtype=np.int8),
        B=np.full(P, c), Bstar=c)
    draw_theta_phi(state, corpus, hyper, rng)
    every_present = LabelMatrix(
        entries=np.full((D, P), LABEL_PRESENT),
        label_names=[f"phenotype_{p}" for p in range(P)])
    return _run_chain(state, corpus, every_present,
                      TrainOptions(b_mode=B_FIXED, seed=seed), hyper, rng)
