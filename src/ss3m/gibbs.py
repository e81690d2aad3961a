"""Gibbs sampler: the complete conditionals of z, A, B and Bstar, theta
and phi, and the training sweep tying them together.

Within a sweep the update order is z -> A -> (B, Bstar) -> theta -> phi.
Each bit of A is drawn given z with theta integrated out (a
Dirichlet-multinomial conditional); with sampled B, B and Bstar are then
drawn given z and A, theta still integrated out, by an auxiliary-variable
Gibbs step (draw_pseudocounts); theta is drawn right after, given A, B,
Bstar and z, before anything reads theta again: a partially collapsed
Gibbs sampler (van Dyk & Park 2008) whose stationary law is the
posterior. phi is drawn last, given z. Each conditional has one kernel,
shared by training, the mc3m baseline and held-out inference and tested
as it is: _sample_z_batch (z), activation_scan (A, with the log-odds it
alone computes), draw_pseudocounts (B and Bstar), draw_theta (theta) and
draw_phi (phi).

A chain (_run_chain) traces model.collapsed_log_joint, log p(w, z, A, B,
Bstar) with theta and phi integrated out, after every sweep and keeps the
state where it is highest. The sweep computes it from the counts it has
built, so nothing is counted twice, and the value is the recount's, bit
for bit.

The patient-local part, z -> A -> theta, is one function, local_step,
run alike by training, the mc3m baseline and held-out inference. They
differ only in whether the step draws B and Bstar (training with sampled
B alone) and in the D x P clamp matrix each chain builds once, which
fixes some activation bits and leaves the rest free: training clamps the
labeled bits (clamp_matrix), held-out inference clamps on the bits of
each phenotype with B_p == Bstar, and the mc3m chain clamps every bit on,
because mc3m's symmetric Dirichlet(c) prior is the gated prior with every
activation on and B = Bstar = c (train_unstructured).

Token-level work is one flat pass per source over the arrays the source
stores (model.Ragged): corpus.tokens[s].flat and .doc_idx, the tokens
end to end and the patient of each, and state.z[s].flat, the assignments
in the same layout. The z pass draws what a token-by-token scan would
(_sample_z_batch), the A update is an exact sequential scan over the
phenotypes vectorized over patients (activation_scan), and the count
matrices are one bincount per source (model.phenotype_counts and
model.token_counts, the log joint's own recount): the local step counts
phenotypes once and hands the counts to the A scan, the B step and the
theta draw, and the sweep counts each source's tokens once for the phi
draw and hands both to the log joint.

The z pass works on distinct (patient, word) pairs, and the tokens do
not change along a chain, so each chain plans it once (ZPlan, which also
hands the kernels the chain's corpus): each source's tokens sorted by
pair, with the pair starts and heads, and one scratch pair of at most
Z_CHUNK x P floats that every block of every sweep reuses. A block gathers its theta
and phi rows into the scratch, multiplies them in place, and turns the
products into running sums by P - 1 in-place column adds: a row cumsum's
additions in its order, so the same floats, without a fresh (block x P)
temporary. model.count_below, the search generate also draws with, finds z.

Threads. A chain runs on the calling thread plus at most one helper, a
single-worker executor its ZPlan starts when the process may use two or
more CPUs (os.sched_getaffinity) and some source has more than Z_CHUNK
tokens; the chain builds its plan first and shuts the helper down before
it returns or raises, also when drawing its starting state fails. The
helper sorts the plan's pair index while the calling thread draws the
starting state, and the first z pass waits for it. In a z pass the two
threads take blocks from one shared iterator, each in its own scratch,
and write disjoint entries of z; the uniforms are drawn up front and a
block's floats do not depend on the thread that builds them, so the
draws are those of one thread. The sweep computes the log joint of its
new state on the helper while the calling thread draws phi, which the
log joint does not read, and the chain scores its starting state, from
the snapshot it keeps, during the first sweep. The helper draws no
random numbers, so one seed gives the same bytes with one CPU or more,
and the kernels a benchmark tracer wraps by module attribute
(_sample_z_batch, the counts, the Dirichlet draws, the state copy, the
initial state) all run on the calling thread. A chain on a thread that
sets _thread.no_helper starts no helper: evaluation.evaluate_suite's
worker does, since it already runs beside the calling thread.
"""

import logging
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from math import log

import numpy as np

from .errors import ConfigError, DimensionError, SamplingError
from .model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    Hyperparameters,
    LabelMatrix,
    ModelState,
    collapsed_log_joint,
    count_below,
    draw_concentrations,
    phenotype_counts,
    prior_matrix,
    token_counts,
)
from .util import (
    PROB_FLOOR,
    expit,
    gammaln,
    sample_dirichlet,
    seed_sequence,
    substream,
)

logger = logging.getLogger(__name__)

MISSING_FIX_ZERO = "fix_zero"
MISSING_ESTIMATE = "estimate"
B_FIXED = "fixed"
B_SAMPLED = "sampled"

# Distinct (patient, word) pairs per block of the z pass: bounds its
# (block x P) temporaries.
Z_CHUNK = 4096

# Per-thread state; no_helper, when set on a thread, keeps the plans built
# there from starting a helper.
_thread = threading.local()


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
        seed_sequence(self.seed)    # ConfigError if it is negative


@dataclass
class TrainTrace:
    log_likelihoods: list = field(default_factory=list)
    best_state: ModelState = None
    best_iteration: int = -1

    @property
    def best_log_likelihood(self) -> float:
        return max(self.log_likelihoods) if self.log_likelihoods else float("-inf")


@dataclass(frozen=True)
class _Pairs:
    """One source's tokens grouped by (patient, word) pair: the tokens in
    pair order (order), each one's row within its block of pairs (rows),
    where each pair's tokens start in that order (starts, one more than
    the pairs), and each pair's first token in flat order (heads), patient
    and word. V is the source's vocabulary size."""

    order: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    heads: np.ndarray
    patient: np.ndarray
    word: np.ndarray
    V: int


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ZPlan:
    """A chain's corpus (corpus) and what its z pass needs that stays
    fixed along the chain, built once per chain and reused by every
    sweep: each source's pair index (pairs, one _Pairs per source) and one
    float64 scratch pair of min(Z_CHUNK, most pairs of a source) x P,
    shared by the sources. With two or more usable CPUs and a source of
    more than Z_CHUNK tokens, unless built on a thread that sets
    _thread.no_helper, also a helper thread (helper, a single-worker
    executor; None otherwise) and its own scratch of the same shape
    (helper_scratch; scratch itself without a helper, when submit runs
    the helper's work inline). A plan is a context manager;
    close(), or leaving its with block, shuts the helper down.

    The constructor checks that each source's token IDs and patients
    (Ragged.flat and .doc_idx) are 1-D arrays of one length and that the
    token IDs lie in [0, V) for the source's vocabulary size V
    (DimensionError): the z pass gathers rows at these indices without
    checking them again, and a caller may have written into the token
    arrays after building the corpus. It then hands the pair sort to the
    helper, so that the caller can draw the chain's starting state
    meanwhile; pairs, and the scratch sized by them, wait for it.
    """

    def __init__(self, corpus: Corpus, num_phenotypes: int):
        self.corpus = corpus
        self.shape = (corpus.num_patients, num_phenotypes)
        self.chunk = Z_CHUNK
        sources = [self._checked(w, len(voc), s) for s, (w, voc)
                   in enumerate(zip(corpus.tokens, corpus.vocab))]
        self.helper = None
        if (_usable_cpus() > 1 and not getattr(_thread, "no_helper", False)
                and any(w_flat.size > self.chunk for w_flat, _, _ in sources)):
            self.helper = ThreadPoolExecutor(1, thread_name_prefix="ss3m")
        self._pairs = self.submit(
            lambda: [self._pair_index(*source) for source in sources])

    @property
    def pairs(self) -> list:
        """Each source's _Pairs, once the sort the constructor started is
        done."""
        return self._pairs.result()

    @cached_property
    def scratch(self) -> np.ndarray:
        rows = min(self.chunk, max((p.heads.size for p in self.pairs),
                                   default=0))
        return np.empty((2, rows, self.shape[1]))

    @cached_property
    def helper_scratch(self) -> np.ndarray:
        return np.empty_like(self.scratch) if self.helper else self.scratch

    def submit(self, fn, *args) -> Future:
        """fn(*args) on the helper thread, or here and now without one;
        its outcome as a future either way."""
        if self.helper is not None:
            return self.helper.submit(fn, *args)
        done = Future()
        try:
            done.set_result(fn(*args))
        except Exception as exc:
            done.set_exception(exc)
        return done

    def close(self):
        """Shut the helper thread down once its work is done."""
        if self.helper is not None:
            self.helper.shutdown()

    def __enter__(self) -> "ZPlan":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _checked(self, w, V: int, s: int):
        w_flat, doc_idx = w.flat, w.doc_idx
        if w_flat.shape != (w_flat.size,) or doc_idx.shape != w_flat.shape:
            raise DimensionError(f"source {s}: token IDs and patients must "
                                 "be 1-D arrays of one length")
        if w_flat.size and not (0 <= w_flat.min() and w_flat.max() < V):
            raise DimensionError(f"source {s}: token ID outside [0, {V})")
        return w_flat, doc_idx, V

    def _pair_index(self, w_flat, doc_idx, V: int) -> _Pairs:
        D, N = self.shape[0], w_flat.size
        # argsort(key, kind="stable") as two stable passes, words then
        # patients, each on the narrowest integer type that holds them, so
        # that numpy radix-sorts keys of up to 16 bits
        order = np.argsort(w_flat.astype(np.min_scalar_type(V - 1)),
                           kind="stable")
        order = order[np.argsort(
            doc_idx[order].astype(np.min_scalar_type(D - 1)),
            kind="stable")]
        # built in place and freed early: the sort runs beside the draw of
        # the chain's starting state, and the two share the peak memory
        key = doc_idx[order]
        key *= V
        key += w_flat[order]
        new_pair = np.empty(N, dtype=bool)
        new_pair[:1] = True
        np.not_equal(key[1:], key[:-1], out=new_pair[1:])
        del key
        starts = np.append(np.flatnonzero(new_pair), N)
        # the stable sort puts each pair's first token in flat order first
        heads = order[starts[:-1]]
        return _Pairs(order=order, rows=(np.cumsum(new_pair) - 1) % self.chunk,
                      starts=starts, heads=heads, patient=doc_idx[heads],
                      word=w_flat[heads], V=V)


def _sample_z_batch(theta, phi_s, plan: ZPlan, s: int, rng):
    """Vectorized z resample for all tokens of source s of plan.

    A token's categorical depends only on its (patient, word) pair, so
    each distinct pair's weights, total and cumulative sum are built once,
    plan.chunk pairs at a time in a scratch of the plan: the theta and phi
    rows are gathered into it and multiplied there, the totals are the
    row sums and the cumsum is P - 1 in-place column adds, the additions
    of a row cumsum in its order. Each token's draw is then the number of
    its pair's first P - 1 cumsum entries below u * total, found in
    O(log P) by model.count_below, so it is never the out-of-range P. The
    uniforms are drawn in one call up front, one per token in flat order,
    so the draws depend neither on the blocking nor on the thread that
    takes a block: the helper's share, handed to plan.submit, takes
    blocks in the helper's scratch alongside this thread, which joins it
    before returning or raising, or, without a helper, takes them all
    first. theta must be (D, P) and phi_s (P, V) for the plan's D, P and
    the source's V (DimensionError).
    """
    pairs, (D, P) = plan.pairs[s], plan.shape
    if np.shape(theta) != (D, P) or np.shape(phi_s) != (P, pairs.V):
        raise DimensionError(
            f"theta {np.shape(theta)} and phi {np.shape(phi_s)} for a z plan "
            f"of {D} patients, {P} phenotypes and {pairs.V} words")
    theta = np.asarray(theta, dtype=np.float64)
    phi_t = np.ascontiguousarray(np.transpose(phi_s), dtype=np.float64)
    N, U = pairs.order.size, pairs.heads.size
    u = rng.random(N)
    z = np.empty(N, dtype=np.int64)
    blocks, lock = iter(range(0, U, plan.chunk)), threading.Lock()

    def take():
        with lock:
            return next(blocks, None)

    def work(scratch):
        """Draw the blocks this thread takes; return the flat index and
        patient of the first token of a corrupt pair among them."""
        first = (N, -1)
        for lo in iter(take, None):
            hi = min(lo + plan.chunk, U)
            # the plan checked the indices, so clipping changes none of them
            probs, factor = scratch[:, :hi - lo]
            np.take(theta, pairs.patient[lo:hi], axis=0, out=probs,
                    mode="clip")
            np.take(phi_t, pairs.word[lo:hi], axis=0, out=factor, mode="clip")
            np.multiply(probs, factor, out=probs)
            totals = probs.sum(axis=1)
            bad = ~(totals > 0.0) | ~np.isfinite(totals)
            if bad.any():
                i = lo + np.flatnonzero(bad)[
                    np.argmin(pairs.heads[lo:hi][bad])]
                first = min(first, (int(pairs.heads[i]),
                                    int(pairs.patient[i])))
                continue
            for p in range(1, P):
                np.add(probs[:, p - 1], probs[:, p], out=probs[:, p])
            span = slice(pairs.starts[lo], pairs.starts[hi])
            tokens, rows = pairs.order[span], pairs.rows[span]
            # two blocks may be in flight, so each holds as few token-long
            # arrays as it can: the thresholds are built in place and the
            # totals freed before the search
            thr = u[tokens]
            thr *= totals[rows]
            del totals
            z[tokens] = count_below(probs, rows, thr)
        return first

    other = plan.submit(work, plan.helper_scratch)
    try:
        first = work(plan.scratch)
    finally:
        wait([other])
    first = min(first, other.result())
    if first[0] < N:
        raise SamplingError(
            f"all-zero assignment weights at patient {first[1]}, "
            f"token {first[0]} (corrupt state)")
    return z


def clamp_matrix(labels: LabelMatrix, options: TrainOptions, D: int,
                 P: int) -> np.ndarray:
    """D x P activation clamps: 1 or 0 where the labels fix the bit, -1
    where it is sampled. The labels must have D rows and at most P
    columns (DimensionError)."""
    clamp = np.full((D, P), -1, dtype=np.int8)
    if labels is not None:
        if labels.num_patients != D or labels.num_labels > P:
            raise DimensionError(f"label matrix {labels.entries.shape} for "
                                 f"{D} patients and {P} phenotypes")
        ent = labels.entries
        block = clamp[:, :labels.num_labels]
        block[ent == LABEL_PRESENT] = 1
        block[ent == LABEL_ABSENT] = 0
        if options.missing_label_mode == MISSING_FIX_ZERO:
            block[ent == LABEL_UNKNOWN] = 0
    return clamp


def activation_scan(A: np.ndarray, clamp: np.ndarray, counts: np.ndarray,
                    B, Bstar: float, alpha: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One exact sequential Gibbs scan over the phenotype columns of the
    activation rows A given the phenotype counts, theta integrated out,
    vectorized over the rows. Mutates and returns A.

    Cells where `clamp` (shaped like A) holds 0 or 1 are set to it; the
    cells where it holds -1 are free and resampled with their log-odds,
    log P(A_dp=1 | z, A_d,-p) - log P(A_dp=0 | z, A_d,-p): the ratio of
    the two Dirichlet-multinomial marginals of the row's phenotype counts
    whose concentration vectors differ only at coordinate p (B_p vs
    Bstar), times the Bernoulli prior odds alpha / (1 - alpha). A
    non-finite log-odds at a free cell raises SamplingError naming the
    cell.

    Given the counts the rows are conditionally independent, so updating
    column p of every row before moving to p+1 is the same kernel as a
    cell-by-cell scan over rows then columns: each cell conditions on the
    new bits to its left and the old bits to its right. A row's
    concentration total over q != p is the running sum of the updated
    columns q < p plus the sum of the columns q > p, taken right to left
    over the entering A's prior at the start of the scan, before the
    clamps are written, by P vector adds (a reverse cumulative sum): O(D *
    P), and no total has a term taken back out of it, which at Bstar ~
    1e-18 would lose every Bstar next to a B_p and put the log-odds off
    by log P. The uniforms are drawn in one call, in row-major order over
    the free cells: the order of the cell-by-cell scan.

    The scan reads the counts, uniforms, free cells and bits from
    column-major copies made once per scan and writes the bits back to A
    at its end, so A is untouched when it raises. A column with a free
    cell gets the log-odds of every row in one preallocated (4, D)
    scratch, and only its free cells take the new bits. The four
    log-gammas whose arguments hold the row's total over q != p go
    through one gammaln call on it; the other four terms are looked up
    in tables built once per scan, gammaln(B_p + k) up to the largest
    count of each column with a free cell and gammaln(Bstar + k) up to
    the largest of those counts. An entry is the float gammaln gives for
    its argument, so the log-odds are, bit for bit, those of computing
    every term. The eight terms are added left to right into the first
    row, which is handed to expit.
    """
    D, P = A.shape
    free = np.ascontiguousarray(clamp.T) < 0
    counts = np.ascontiguousarray(counts.T)
    bits = np.ascontiguousarray(A.T == 1)
    u = np.zeros((P, D))
    u.T[free.T] = rng.random(np.count_nonzero(free))
    prior = prior_matrix(bits.T, B, Bstar).T
    after = np.zeros((P + 1, D))
    for p in range(P - 1, -1, -1):
        np.add(after[p + 1], prior[p], out=after[p])
    np.copyto(bits, clamp.T == 1, where=~free)
    sampled = free.any(axis=1)
    # every sampled column's table end to end, gammaln(B_p + k) from
    # starts[p]; gammaln(Bstar + k) for k up to the largest of their counts
    sizes = np.where(sampled, counts.max(axis=1, initial=0) + 1, 0)
    starts = np.cumsum(sizes) - sizes
    gamma_b_n = gammaln(np.repeat(B, sizes)
                        + (np.arange(sizes.sum()) - np.repeat(starts, sizes)))
    gamma_bstar_n = gammaln(Bstar + np.arange(sizes.max(initial=0)))
    prior_odds = log(alpha / (1.0 - alpha))
    before = np.zeros(D)
    N = counts.sum(axis=0)
    scratch = np.empty((4, D))
    odds, t_on_n, t_off, t_off_n = scratch
    with np.errstate(invalid="ignore"):  # checked below, on free cells
        for p in range(P):
            if sampled[p]:
                n, table = counts[p], gamma_b_n[starts[p]:]
                # the row totals over q != p, then plus Bstar, in t_off
                np.add(before, after[p + 1], out=t_off)
                np.add(t_off, B[p], out=odds)
                np.add(odds, N, out=t_on_n)
                t_off += Bstar
                np.add(t_off, N, out=t_off_n)
                gammaln(scratch, out=scratch)
                odds += prior_odds
                odds -= t_on_n
                odds += table[n]
                odds -= table[0]
                odds -= t_off
                odds += t_off_n
                odds -= gamma_bstar_n[n]
                odds += gamma_bstar_n[0]
                if not np.isfinite(odds).all():
                    bad = np.flatnonzero(free[p] & ~np.isfinite(odds))
                    if bad.size:
                        raise SamplingError(
                            "non-finite activation log-odds at patient "
                            f"{int(bad[0])}, phenotype {p}")
                np.less(u[p], expit(odds, out=odds), out=bits[p],
                        where=free[p])
            before += np.where(bits[p], B[p], Bstar)
    A[...] = bits.T
    return A


def initial_z(corpus: Corpus, P: int, rng: np.random.Generator) -> list:
    """Uniform starting assignments in the layout of the tokens, one call
    per source: the values that calls patient by patient would draw."""
    return [w.like(rng.integers(0, P, size=w.flat.size))
            for w in corpus.tokens]


def draw_theta(state: ModelState, counts: np.ndarray,
               rng: np.random.Generator):
    """Draw theta from Dir(gated prior + phenotype counts), in place."""
    state.theta = sample_dirichlet(
        prior_matrix(state.A, state.B, state.Bstar) + counts, rng)


def draw_phi(state: ModelState, corpus: Corpus, hyper: Hyperparameters,
             rng: np.random.Generator, counts: list = None):
    """Draw each phi_s from Dir(gamma_s + token counts), in place. counts,
    when given, holds the token counts of state.z, one (P, V_s) array per
    source; None counts them here."""
    for s in range(corpus.num_sources):
        m = token_counts(state, corpus, s) if counts is None else counts[s]
        state.phi[s] = sample_dirichlet(hyper.gamma[s] + m, rng)


def _log_gamma(shape, rng: np.random.Generator):
    """log of Gamma(shape, 1) variates, one per entry of shape, drawn as
    log G(shape + 1) + log(U) / shape: a plain draw at a shape near 1e-7
    underflows to 0."""
    with np.errstate(divide="ignore"):  # U == 0 gives -inf, floored later
        return (np.log(rng.standard_gamma(shape + 1.0))
                + np.log(rng.random(np.shape(shape))) / shape)


def table_counts(n: np.ndarray, c: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Chinese-restaurant table counts, CRT(n, c) per cell of the count
    array n and the concentration array c of its shape: the sum over
    i < n of Bern(c / (c + i)), one uniform per token, the tokens grouped
    by cell in row-major order."""
    flat = n.ravel()
    cell = np.repeat(np.arange(flat.size), flat)
    c_tok = c.ravel()[cell]
    ratio = np.arange(cell.size, dtype=np.float64)
    ratio -= np.repeat(np.cumsum(flat) - flat, flat)
    ratio += c_tok
    sat = cell[rng.random(cell.size) < np.divide(c_tok, ratio, out=ratio)]
    return np.bincount(sat, minlength=flat.size).reshape(n.shape)


def draw_pseudocounts(state: ModelState, counts: np.ndarray,
                      hyper: Hyperparameters, rng: np.random.Generator):
    """Draw B and Bstar given z (as its phenotype counts) and A with theta
    integrated out, in place, floored at PROB_FLOOR.

    Auxiliary variables make the Dirichlet-multinomial marginal of each
    patient's counts conjugate to the Gamma priors (Teh et al. 2006;
    Zhou & Carin 2015): log q_d ~ log Beta(T_d, N_d) for each patient
    with N_d > 0 tokens and gated prior total T_d, and a table count
    l_dp ~ CRT(n_dp, c_dp) per cell (table_counts). Given them, B_p is
    Gamma(b_shape + sum of l over p's active cells, rate 1/b_scale - sum
    of their log q) and Bstar is Gamma(bstar_shape + sum of l over the
    inactive cells, rate 1/bstar_scale - sum of their log q). Every Gamma
    variate is drawn in log space (_log_gamma).
    """
    prior = prior_matrix(state.A, state.B, state.Bstar)
    N = counts.sum(axis=1)
    has = N > 0
    log_x = _log_gamma(prior[has].sum(axis=1), rng)
    log_q = np.zeros(len(counts))
    log_q[has] = log_x - np.logaddexp(log_x,
                                      np.log(rng.standard_gamma(N[has])))
    tables = table_counts(counts, prior, rng)
    active = state.A == 1
    log_b = (_log_gamma(hyper.b_shape + (tables * active).sum(axis=0), rng)
             - np.log(1.0 / hyper.b_scale - log_q @ active))
    log_bstar = (_log_gamma(hyper.bstar_shape + tables[~active].sum(), rng)
                 - np.log(1.0 / hyper.bstar_scale
                          - log_q @ (~active).sum(axis=1)))
    state.B = np.maximum(np.exp(log_b), PROB_FLOOR)
    state.Bstar = float(max(np.exp(log_bstar), PROB_FLOOR))


def local_step(state: ModelState, plan: ZPlan, clamp: np.ndarray,
               alpha: float, rng: np.random.Generator,
               b_prior: Hyperparameters = None):
    """The patient-local conditionals of the chain's state on the plan's
    corpus, in place: z given theta and phi (_sample_z_batch on the
    plan), then A given z with theta integrated out (activation_scan
    under `clamp`), then, when the chain samples B and passes b_prior (the
    Hyperparameters holding their Gamma priors), B and Bstar given z and A
    (draw_pseudocounts), then theta given A and z. The scan, the B step
    and the theta draw read the same phenotype counts, summed from the new
    z, which are returned."""
    corpus = plan.corpus
    for s, w in enumerate(corpus.tokens):
        state.z[s] = w.like(_sample_z_batch(state.theta, state.phi[s], plan,
                                            s, rng))
    counts = phenotype_counts(state, corpus)
    activation_scan(state.A, clamp, counts, state.B, state.Bstar, alpha, rng)
    if b_prior is not None:
        draw_pseudocounts(state, counts, b_prior, rng)
    draw_theta(state, counts, rng)
    return counts


def sweep(state: ModelState, plan: ZPlan, clamp: np.ndarray, b_mode: str,
          hyper: Hyperparameters, rng: np.random.Generator):
    """One full Gibbs pass of the state on the plan's corpus, in place:
    the local step over z, A, (with b_mode "sampled") B and Bstar, and
    theta, then phi. Returns model.collapsed_log_joint of the new state,
    computed from the counts of the new z on the plan's helper thread
    while phi is drawn."""
    corpus = plan.corpus
    n = local_step(state, plan, clamp, hyper.alpha, rng,
                   hyper if b_mode == B_SAMPLED else None)
    m = [token_counts(state, corpus, s) for s in range(corpus.num_sources)]
    log_joint = plan.submit(collapsed_log_joint, state, corpus, hyper, (n, m))
    draw_phi(state, corpus, hyper, rng, m)
    return log_joint.result()


def initialize_state(corpus: Corpus, clamp: np.ndarray,
                     hyper: Hyperparameters,
                     rng: np.random.Generator) -> ModelState:
    """Initial state: z uniform, A set to the clamped bits with free
    entries Bern(alpha), B/Bstar from their Gamma priors, theta/phi from
    their conditionals given the initial z and A."""
    D, P = corpus.num_patients, hyper.num_phenotypes

    z = initial_z(corpus, P, rng)
    A = (rng.random((D, P)) < hyper.alpha).astype(np.int8)
    A = np.where(clamp < 0, A, clamp).astype(np.int8)

    B, Bstar = draw_concentrations(hyper, rng)
    state = ModelState(theta=np.empty((D, P)), phi=[None] * corpus.num_sources,
                       z=z, A=A, B=B, Bstar=Bstar)
    draw_theta(state, phenotype_counts(state, corpus), rng)
    draw_phi(state, corpus, hyper, rng)
    return state


def _run_chain(state: ModelState, plan: ZPlan, clamp: np.ndarray,
               b_mode: str, hyper: Hyperparameters,
               rng: np.random.Generator) -> TrainTrace:
    """Run hyper.iterations sweeps from state on the chain's z plan,
    tracing the collapsed log joint each sweep returns and keeping a deep
    snapshot of the state where it is highest. The starting state is
    scored from its snapshot, which no sweep touches, on the plan's helper
    thread during the first sweep. An interrupt returns the partial
    trace."""
    trace = TrainTrace(best_state=state.copy(), best_iteration=0)
    start = plan.submit(collapsed_log_joint, trace.best_state, plan.corpus,
                        hyper)
    try:
        for it in range(1, hyper.iterations + 1):
            ll = sweep(state, plan, clamp, b_mode, hyper, rng)
            if it == 1:
                best_ll = start.result()
                trace.log_likelihoods.append(best_ll)
            trace.log_likelihoods.append(ll)
            if ll > best_ll:
                best_ll = ll
                trace.best_state = state.copy()
                trace.best_iteration = it
    except KeyboardInterrupt:
        logger.warning("training interrupted at iteration %d; returning "
                       "partial trace", max(len(trace.log_likelihoods) - 1, 0))
    if not trace.log_likelihoods:   # no sweep finished
        trace.log_likelihoods.append(start.result())
    return trace


def train(corpus: Corpus, labels: LabelMatrix, hyper: Hyperparameters,
          options: TrainOptions) -> TrainTrace:
    """Run hyper.iterations Gibbs sweeps, tracing the collapsed log joint
    and keeping a deep snapshot of the state where it is highest. The
    chain's z plan sorts its pairs on the helper while the starting state
    is drawn."""
    if corpus.num_patients == 0:
        raise ConfigError("corpus is empty")
    rng = substream(options.seed, "gibbs.train")
    clamp = clamp_matrix(labels, options, corpus.num_patients,
                         hyper.num_phenotypes)
    with ZPlan(corpus, hyper.num_phenotypes) as plan:
        state = initialize_state(corpus, clamp, hyper, rng)
        return _run_chain(state, plan, clamp, options.b_mode, hyper, rng)


def train_unstructured(corpus: Corpus, hyper: Hyperparameters,
                       concentration: float, seed: int) -> TrainTrace:
    """Baseline trainer (mc3m): a symmetric Dirichlet(concentration) prior
    on each theta_d, which is the gated chain with B = Bstar =
    concentration held fixed and every activation clamped on (the
    activation scan draws nothing)."""
    if corpus.num_patients == 0:
        raise ConfigError("corpus is empty")
    if not 0 < concentration < np.inf:
        raise ConfigError("concentration must be positive and finite")
    rng = substream(seed, "gibbs.train")
    D, P, c = corpus.num_patients, hyper.num_phenotypes, float(concentration)
    with ZPlan(corpus, P) as plan:
        state = ModelState(
            theta=np.empty((D, P)), phi=[None] * corpus.num_sources,
            z=initial_z(corpus, P, rng), A=np.ones((D, P), dtype=np.int8),
            B=np.full(P, c), Bstar=c)
        draw_theta(state, phenotype_counts(state, corpus), rng)
        draw_phi(state, corpus, hyper, rng)
        return _run_chain(state, plan, np.ones((D, P), dtype=np.int8),
                          B_FIXED, hyper, rng)
