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

The z pass works on distinct (patient, word) pairs, and the tokens are
read-only (model.Corpus), so each chain plans it once (ZPlan, which also
hands the kernels the chain's corpus): each source's pairs in stable
sort order, cut into blocks of whole patients, at most Z_CHUNK pairs or
one patient's, so that a block's tokens are one range in flat order;
each token's row within its block, each pair's patient and word and one
block table over all sources; and one scratch pair of P x the largest
block floats that every block of every sweep reuses. One call draws
every source (_sample_z_batch, once per local step): a block gathers its
theta and phi columns into the scratch, phenotype-major, multiplies them
in place, and turns the products into running sums by P - 1 contiguous
in-place row adds, a row cumsum's additions in its order, so the same
floats, without a fresh (block x P) temporary; the last row is each
pair's total. model.count_below, the search generate also draws with,
finds z, read and written in place over the block's tokens.

Threads. A chain runs on the calling thread plus at most one helper, a
single-worker executor its ZPlan starts when the process may use two or
more CPUs (os.sched_getaffinity) and some source has more than Z_CHUNK
tokens; the chain builds its plan first and shuts the helper down before
it returns or raises, also when drawing its starting state fails. The
helper sorts the plan's pairs and cuts its blocks while the calling
thread draws the starting state, and the first z pass waits for it. In a
z pass the two threads take blocks of every source from one shared
iterator, each in its own scratch, and write disjoint token ranges of z;
the uniforms are drawn up front and a block's floats do not depend on
the thread that builds them, so the draws are those of one thread. The
sweep computes the log joint of its new state on the helper while the
calling thread draws phi, which the log joint does not read, and the
chain scores its starting state, from the snapshot it keeps, during the
first sweep. The helper draws no
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

# Distinct (patient, word) pairs per block of the z pass, unless one
# patient has more: bounds its (P x block) scratch.
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
class _Blocks:
    """The z pass's blocks over every source of a corpus. Tokens are
    numbered end to end across the sources, each source's in flat order,
    and distinct (patient, word) pairs in (source, patient, word) order. A
    block holds whole patients of one source, with at most Z_CHUNK pairs
    between them or one patient's pairs if it has more, and so one range
    of tokens. rows holds each token's pair's row within its block
    (int32), patient and word each pair's, table one (source, first
    token, end token, first pair, end pair) row per block in source order,
    ends each source's token range (S + 1 offsets) and largest the most
    pairs of a block."""

    rows: np.ndarray
    patient: np.ndarray
    word: np.ndarray
    table: np.ndarray
    ends: np.ndarray
    largest: int


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ZPlan:
    """A chain's corpus (corpus) and what its z pass needs that stays
    fixed along the chain, built once per chain and reused by every
    sweep: the blocks of every source (blocks, a _Blocks) and one float64
    scratch pair of P x the largest block. With two or more usable CPUs
    and a source of more than Z_CHUNK tokens, unless built on a thread
    that sets _thread.no_helper, also a helper thread (helper, a
    single-worker executor; None otherwise) and its own scratch of the
    same shape (helper_scratch; scratch itself without a helper, when
    submit runs the helper's work inline). A plan is a context manager;
    close(), or leaving its with block, shuts the helper down.

    The z pass gathers columns at the token IDs and patients without
    checking them: the Corpus checked them and made them read-only. The
    constructor hands the pair sort to the helper, so that the caller can
    draw the chain's starting state meanwhile; blocks, and the scratch
    sized by them, wait for it. Of the sort only what the pass reads is
    kept: 4 bytes a token and 16 a pair.
    """

    def __init__(self, corpus: Corpus, num_phenotypes: int):
        self.corpus = corpus
        self.shape = (corpus.num_patients, num_phenotypes)
        self.chunk = Z_CHUNK
        self.helper = None
        if (_usable_cpus() > 1 and not getattr(_thread, "no_helper", False)
                and any(w.flat.size > self.chunk for w in corpus.tokens)):
            self.helper = ThreadPoolExecutor(1, thread_name_prefix="ss3m")
        self._blocks = self.submit(self._plan_blocks)

    @property
    def blocks(self) -> _Blocks:
        """The sources' blocks, once the sort the constructor started is
        done."""
        return self._blocks.result()

    @cached_property
    def scratch(self) -> np.ndarray:
        return np.empty((2, self.shape[1], self.blocks.largest))

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

    def _plan_blocks(self) -> _Blocks:
        """Every source's pairs, cut into blocks of whole patients."""
        tokens = self.corpus.tokens
        ends = np.cumsum([0] + [w.flat.size for w in tokens])
        rows = np.empty(ends[-1], dtype=np.int32)
        patient, word, table, pair_at = [], [], [], 0
        for s, (w, voc) in enumerate(zip(tokens, self.corpus.vocab)):
            order, new_pair = self._pair_sort(w.flat, w.doc_idx, len(voc))
            heads = order[np.flatnonzero(new_pair)]
            p_s = w.doc_idx[heads]
            # greedy cuts at patient boundaries in pair order: each block
            # takes the most whole patients that fit in chunk pairs, or one
            # patient whose pairs do not
            bounds = np.flatnonzero(np.diff(p_s, prepend=-1, append=-1))
            cuts, k = [0], 0
            while k < bounds.size - 1:
                j = np.searchsorted(bounds, bounds[k] + self.chunk, "right")
                k = max(int(j) - 1, k + 1)
                cuts.append(int(bounds[k]))
            cuts = np.array(cuts, dtype=np.int64)
            lo, hi = cuts[:-1], cuts[1:]
            a, b = w.offsets[p_s[lo]], w.offsets[p_s[hi - 1] + 1]
            # the sort keeps each patient's tokens at its flat positions,
            # so a block's tokens are positions a..b in both orders: each
            # one's row is its pair's rank, counted from 1, less the
            # block's first pair plus 1
            sorted_rows = np.cumsum(new_pair, dtype=np.int32)
            sorted_rows -= np.repeat(lo + 1, b - a)
            rows[ends[s]:ends[s + 1]][order] = sorted_rows
            table.append(np.stack([np.full(lo.size, s), ends[s] + a,
                                   ends[s] + b, pair_at + lo, pair_at + hi],
                                  axis=1))
            patient.append(p_s)
            word.append(w.flat[heads])
            pair_at += p_s.size
        table = np.concatenate([np.zeros((0, 5), dtype=np.int64), *table])
        none = np.zeros(0, dtype=np.int64)
        return _Blocks(rows=rows, patient=np.concatenate([none, *patient]),
                       word=np.concatenate([none, *word]), table=table,
                       ends=ends,
                       largest=int((table[:, 4] - table[:, 3]).max(initial=0)))

    def _pair_sort(self, w_flat, doc_idx, V: int):
        """One source's tokens in (patient, word) pair order, stably, and
        whether each, in that order, starts a new pair."""
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
        return order, new_pair


def _sample_z_batch(theta, phi, plan: ZPlan, rng):
    """Vectorized z resample for all tokens of every source of plan, one
    int64 array per source in flat order.

    A token's categorical depends only on its (patient, word) pair, so
    each distinct pair's weights and running sums are built once, a block
    of the plan at a time in a scratch of the plan, phenotype-major: the
    theta and phi columns of the block's pairs are gathered into it (theta
    from one transposed copy per call, phi in place) and multiplied there,
    and the running sums are P - 1 in-place row adds, the additions of a
    row cumsum in its order, whose last row is each pair's total. Each
    token's draw is then the number of its pair's first P - 1 running sums
    below u * total, found in O(log P) by model.count_below, so it is
    never the out-of-range P. A block holds whole patients, so its tokens
    are one range in flat order, which the pass reads and writes in
    place, the draws over the uniforms. The uniforms are drawn in one
    call up front, one per token, source after source in flat order: the
    numbers one call per source would give. So the draws depend neither on the blocking nor on the
    thread that takes a block: the helper's share, handed to plan.submit,
    takes blocks in the helper's scratch alongside this thread, which
    joins it before returning or raising, or, without a helper, takes
    them all first. theta must be (D, P) and phi hold one (P, V_s) array
    per source, for the plan's D, P and vocabularies (DimensionError).
    """
    blocks, (D, P) = plan.blocks, plan.shape
    sizes = [len(voc) for voc in plan.corpus.vocab]
    if (np.shape(theta) != (D, P) or len(phi) != len(sizes)
            or any(np.shape(f) != (P, V) for f, V in zip(phi, sizes))):
        raise DimensionError(
            f"theta {np.shape(theta)} and phi "
            f"{[np.shape(f) for f in phi]} for a z plan of {D} patients, "
            f"{P} phenotypes and {sizes} words")
    theta_t = np.ascontiguousarray(np.transpose(theta), dtype=np.float64)
    phi = [np.asarray(f, dtype=np.float64) for f in phi]
    N = blocks.rows.size
    u = rng.random(N)
    # each token's draw takes its uniform's place, once its block has
    # searched: the pass holds one token-long array
    z = u.view(np.int64)
    todo, lock = iter(blocks.table.tolist()), threading.Lock()

    def take():
        with lock:
            return next(todo, None)

    def work(scratch):
        """Draw the blocks this thread takes; return the index, source
        and patient of the first token of a corrupt pair among them."""
        first = (N, -1, -1)
        for s, a, b, lo, hi in iter(take, None):
            # two contiguous (P x pairs) views of the scratch
            probs, factor = scratch.reshape(2, -1)[:, :P * (hi - lo)].reshape(
                2, P, hi - lo)
            # the corpus checked the indices, so clipping changes none
            np.take(theta_t, blocks.patient[lo:hi], axis=1, out=probs,
                    mode="clip")
            np.take(phi[s], blocks.word[lo:hi], axis=1, out=factor,
                    mode="clip")
            np.multiply(probs, factor, out=probs)
            for p in range(1, P):
                np.add(probs[p - 1], probs[p], out=probs[p])
            totals, rows = probs[-1], blocks.rows[a:b]
            if not (totals.min() > 0.0 and totals.max() < np.inf):
                bad = ~(totals > 0.0) | ~np.isfinite(totals)
                i = int(np.argmax(bad[rows]))
                first = min(first, (a + i, s,
                                    int(blocks.patient[lo + rows[i]])))
                continue
            thr = u[a:b]
            thr *= totals[rows]
            z[a:b] = count_below(probs, rows, thr)
        return first

    other = plan.submit(work, plan.helper_scratch)
    try:
        first = work(plan.scratch)
    finally:
        wait([other])
    i, s, d = min(first, other.result())
    if i < N:
        raise SamplingError(
            f"all-zero assignment weights at patient {d}, "
            f"token {i - blocks.ends[s]} (corrupt state)")
    return np.split(z, blocks.ends[1:-1])


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
    z = _sample_z_batch(state.theta, state.phi, plan, rng)
    for s, w in enumerate(corpus.tokens):
        state.z[s] = w.like(z[s])
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
