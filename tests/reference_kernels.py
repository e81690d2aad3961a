"""Loop-by-loop reference implementations of the package's vectorized
kernels.

The activation reference is the per-cell loop of the activation update
(ss3m.gibbs.activation_scan, a column scan vectorized over patients): the
Dirichlet-multinomial log-odds of each bit given the phenotype counts,
theta integrated out. It visits patients then phenotypes and draws one
uniform per free cell, so it pins down the kernel and the draw order the
vectorized scan must reproduce exactly. Its total over q != p is summed
in the scan's order (the q < p prefix, then the q > p suffix), never as
the full row sum minus B_p, which loses Bstar; log-gamma is scipy's
gammaln on scalars, the function the vectorized kernel calls, and its
eight terms are added in the kernel's order, so the two agree bit for
bit in the log-odds as well as in the bits drawn.

The token-path references are the per-patient loops the package used
before every token-level pass went through the flat arrays each source
stores (ss3m.model.Ragged): the forward simulator with its per-patient
(n x K) categorical draws, the count matrices, the raw-token features
and the unchunked z pass. The complete-data log-likelihood, with its
token terms summed patient by patient and its logs floored at
PROB_FLOOR, is the chain objective the package used before the collapsed
log joint; with the Dirichlet log-density of theta and phi under their
full conditionals it is the oracle of that joint (Chib's identity).

The inverse-CDF reference is the sampler the forward model used before
it shared the z pass's binary search (ss3m.model.count_below): rows of
the cumulative weights divided by their totals, and one np.searchsorted
per row over the uniforms themselves.

The logistic-regression reference is the baseline's fit with a
gradient computed on every line-search trial along with its loss; the
package computes the gradient once per accepted step, from the logits
of that trial, and must give the same weights bit for bit. Both search
the same way: each label's first step tries t = 1, every later step
starts from the t the previous one accepted, and t doubles (up to 1)
while the loss still falls, or halves (down to 2^-46) until it does.
As the loss is convex along the search line, that accepts the step of
a search restarting at t = 1 every step, except where a trial's loss
ties the current loss within rounding.

The preprocessing reference is the per-token pass the package ran
before it interned each source's tokens once and counted them with
np.bincount: Counter totals, per-patient sets for the patient counts,
and a dictionary lookup per surviving token. It must give the same
vocabularies, token IDs and patient list.

The JSON-lines writer reference is the writer the package used before
it encoded each vocabulary word once per source: one json.dumps call
per record. Its file must match the package's byte for byte.

The chain references are the code the package ran before the mc3m
baseline and held-out inference became the gated chain with every
activation on and B = Bstar = c: the baseline trainer with its own init
and a sweep that skipped the activation scan and drew theta from a
constant prior, and held-out inference with its two prior branches.

The AUROC reference is the rank-sum formula the metric used before it
counted Mann-Whitney's U from the sorted negatives: average ranks, their
sum over the positives minus n_pos(n_pos + 1)/2, over n_pos * n_neg. The
ranks are half-integers and their sum is exact, so the two agree bit for
bit.
"""

import json
from collections import Counter
from math import lgamma, log

import numpy as np
from scipy.special import expit, gammaln
from scipy.stats import rankdata

from ss3m import gibbs, model
from ss3m.errors import (
    ConfigError,
    DataError,
    NumericalError,
    OptimizationError,
    SamplingError,
    UndefinedMetricError,
)
from ss3m.gibbs import MISSING_FIX_ZERO
from ss3m.model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    Corpus,
    ModelState,
    Ragged,
    count_pairs,
    log_gamma_pdf,
    prior_matrix,
)
from ss3m.util import PROB_FLOOR, sample_dirichlet, substream


def collapsed_scan(state, counts, hyper, rng, labels=None, options=None,
                   log_odds=None):
    """The activation update with theta integrated out, patients then
    phenotypes, honoring the label clamps (none when labels is None). The
    total over q != p is the q < p prefix added left to right plus the
    q > p suffix added right to left, and the log-odds terms are added
    in the kernel's order. log_odds, a D x P float array when given,
    takes the log-odds of each cell drawn."""
    D, P = state.A.shape
    prior_odds = log(hyper.alpha / (1.0 - hyper.alpha))
    totals = counts.sum(axis=1)
    for d in range(D):
        n_d = counts[d]
        N = totals[d]
        for p in range(P):
            if labels is not None and p < labels.num_labels:
                cell = int(labels.entries[d, p])
                if cell == LABEL_PRESENT:
                    state.A[d, p] = 1
                    continue
                if cell == LABEL_ABSENT or (
                        options.missing_label_mode == MISSING_FIX_ZERO):
                    state.A[d, p] = 0
                    continue
            gated = [state.B[q] if state.A[d, q] else state.Bstar
                     for q in range(P)]
            before = 0.0
            for q in range(p):
                before += gated[q]
            after = 0.0
            for q in range(P - 1, p, -1):
                after += gated[q]
            base = before + after
            t_on = base + state.B[p]
            t_off = base + state.Bstar
            odds = (gammaln(t_on) + prior_odds - gammaln(t_on + N)
                    + gammaln(state.B[p] + n_d[p]) - gammaln(state.B[p])
                    - gammaln(t_off) + gammaln(t_off + N)
                    - gammaln(state.Bstar + n_d[p]) + gammaln(state.Bstar))
            if log_odds is not None:
                log_odds[d, p] = odds
            state.A[d, p] = 1 if rng.random() < expit(odds) else 0


def categorical_rows(probs, rng):
    """One categorical draw per row of a (n, K) probability matrix."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    u = rng.random((probs.shape[0], 1))
    return (cum < u).sum(axis=1).astype(np.int64)


def cdf_rows(probs):
    """Row-wise cumulative sums, each divided by its last entry."""
    cum = np.cumsum(probs, axis=1)
    cum /= cum[:, -1:]
    return cum


def categorical_draws(cdf, rows, u):
    """Inverse-CDF draws: out[i] is the number of entries of the
    normalized cumulative row cdf[rows[i]] that lie below u[i], found by
    one np.searchsorted per row, the draws grouped by row."""
    out = np.empty(len(rows), dtype=np.int64)
    groups = Ragged(np.argsort(rows, kind="stable"),
                    np.bincount(rows, minlength=cdf.shape[0]))
    for r, group in enumerate(groups):
        out[group] = np.searchsorted(cdf[r], u[group], side="left")
    return out


def draw_tokens(theta, phi_s, lengths, rng):
    """model.draw_tokens on the sampler above: the same uniforms (2 * N in
    one call, patient by patient its z block then its w block), searched
    in the normalized CDF rows; returns (z, w) as flat arrays."""
    doc_idx = np.repeat(np.arange(lengths.size), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    u = rng.random(2 * doc_idx.size)
    u_at = np.arange(doc_idx.size) + offsets[doc_idx]
    z = categorical_draws(cdf_rows(theta), doc_idx, u[u_at])
    w = categorical_draws(cdf_rows(phi_s), z, u[u_at + lengths[doc_idx]])
    return z, w


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


def floored_log(x):
    """log(max(x, PROB_FLOOR)), elementwise."""
    return np.log(np.maximum(x, PROB_FLOOR))


def dirichlet_log_density(x, conc):
    """log Dir(x[i] | conc[i]) for each row i of the (R, K) arrays."""
    return (gammaln(conc.sum(axis=1)) - gammaln(conc).sum(axis=1)
            + ((conc - 1.0) * np.log(x)).sum(axis=1))


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


def unstructured_sweep(state, corpus, hyper, rng):
    """The sweep as the baseline ran it: z, no activation scan, theta from
    the constant prior B[0], phi, no HMC."""
    D, P = state.theta.shape
    plan = gibbs.ZPlan(corpus, P)
    z = gibbs._sample_z_batch(state.theta, state.phi, plan, rng)
    for s, w in enumerate(corpus.tokens):
        state.z[s] = w.like(z[s])
    counts = gibbs.phenotype_counts(state, corpus)
    prior = np.full((D, P), float(state.B[0]))
    state.theta = sample_dirichlet(prior + counts, rng)
    for s in range(corpus.num_sources):
        m = gibbs.token_counts(state, corpus, s)
        state.phi[s] = sample_dirichlet(hyper.gamma[s] + m, rng)


def train_unstructured(corpus, hyper, concentration, seed):
    """The baseline trainer with its own init; returns (log-likelihoods,
    best state, best iteration, the generator it drew from)."""
    rng = substream(seed, "gibbs.train")
    D = corpus.num_patients
    P = hyper.num_phenotypes
    z = [[rng.integers(0, P, size=w.size) for w in per_source]
         for per_source in corpus.tokens]
    state = ModelState(
        theta=np.empty((D, P)), phi=[None] * corpus.num_sources, z=z,
        A=np.ones((D, P), dtype=np.int8),
        B=np.full(P, float(concentration)), Bstar=float(concentration))
    state.theta = sample_dirichlet(
        concentration + gibbs.phenotype_counts(state, corpus), rng)
    for s in range(corpus.num_sources):
        m = gibbs.token_counts(state, corpus, s)
        state.phi[s] = sample_dirichlet(hyper.gamma[s] + m, rng)
    lls = [model.collapsed_log_joint(state, corpus, hyper)]
    best, best_it = state.copy(), 0
    for it in range(1, hyper.iterations + 1):
        unstructured_sweep(state, corpus, hyper, rng)
        lls.append(model.collapsed_log_joint(state, corpus, hyper))
        if lls[-1] > max(lls[:-1]):
            best, best_it = state.copy(), it
    return lls, best, best_it, rng


def heldout_infer(test_corpus, trained, hyper, burn_in, samples, seed,
                  theta_prior=None):
    """Held-out inference with its two prior branches; returns (theta
    mean, activation mean, the generator it drew from)."""
    rng = substream(seed, "evaluation.heldout")
    D = test_corpus.num_patients
    P = hyper.num_phenotypes
    gated = theta_prior is None
    flat = [(w.flat, w.doc_idx) for w in test_corpus.tokens]
    plan = gibbs.ZPlan(test_corpus, P)
    z = [Ragged.of([rng.integers(0, P, size=w.size) for w in per_source]).flat
         for per_source in test_corpus.tokens]
    state = ModelState(theta=np.empty((D, P)),
                       phi=[p.copy() for p in trained.phi], z=[],
                       A=np.ones((D, P), dtype=np.int8), B=trained.B.copy(),
                       Bstar=float(trained.Bstar))

    def assignment_counts():
        return sum(count_pairs(doc_idx, z_s, D, P)
                   for (_, doc_idx), z_s in zip(flat, z))

    def prior():
        return (prior_matrix(state.A, state.B, state.Bstar) if gated
                else np.full((D, P), float(theta_prior)))

    state.theta = sample_dirichlet(prior() + assignment_counts(), rng)
    a_sum = np.zeros((D, P))
    theta_sum = np.zeros((D, P))
    for it in range(burn_in + samples):
        z = gibbs._sample_z_batch(state.theta, state.phi, plan, rng)
        counts = assignment_counts()
        if gated:
            collapsed_scan(state, counts, hyper, rng)
        state.theta = sample_dirichlet(prior() + counts, rng)
        if it >= burn_in:
            a_sum += state.A
            theta_sum += state.theta
    return theta_sum / samples, a_sum / samples, rng


def _lr_loss_grad(w, Xb, y, lam):
    logits = Xb @ w
    m = np.where(y, logits, -logits)
    loss = float(np.logaddexp(0.0, -m).sum())
    p = expit(logits)
    grad = Xb.T @ (p - y)
    loss += 0.5 * lam * float(w[:-1] @ w[:-1])
    grad = grad + lam * np.append(w[:-1], 0.0)
    return loss, grad


def lr_train(features, truth, lam=1.0, epochs=200):
    """One-vs-rest L2 logistic regression, a gradient on every trial."""
    X = np.asarray(features, dtype=float)
    Y = np.asarray(truth).astype(bool)
    Xb = np.column_stack([X, np.ones(X.shape[0])])

    def trial(w, grad, t):
        w_new = w - t * grad
        new_loss, new_grad = _lr_loss_grad(w_new, Xb, y, lam)
        if not np.isfinite(new_loss):
            raise OptimizationError("objective diverged to a non-finite value")
        return w_new, new_loss, new_grad

    weights = []
    for j in range(Y.shape[1]):
        y = Y[:, j].astype(float)
        w = np.zeros(Xb.shape[1])
        loss, grad = _lr_loss_grad(w, Xb, y, lam)
        t = 1.0
        for _ in range(epochs):
            if float(grad @ grad) < 1e-18:
                break
            w_new, new_loss, new_grad = trial(w, grad, t)
            if new_loss < loss:
                # lengthen: double t while t < 1 and 2t still lowers the loss
                while t < 1.0:
                    longer = trial(w, grad, 2.0 * t)
                    if not longer[1] < loss:
                        break
                    t = 2.0 * t
                    w_new, new_loss, new_grad = longer
            else:
                # shorten: halve t until the loss falls, down to 2^-46
                while not new_loss < loss and t > 2.0 ** -46:
                    t = 0.5 * t
                    w_new, new_loss, new_grad = trial(w, grad, t)
                if not new_loss < loss:
                    break
            w, loss, grad = w_new, new_loss, new_grad
        weights.append(w)
    return {"weights": np.array(weights)}


def preprocess(records, config):
    """Corpus and patient IDs by per-token Counter passes."""
    if not records:
        raise DataError("no records to preprocess")
    patients = list(dict.fromkeys(rec.patient_id for rec in records))
    pidx = {pid: i for i, pid in enumerate(patients)}
    sources = sorted({rec.source for rec in records})
    D = len(patients)
    streams = {s: [[] for _ in range(D)] for s in sources}
    for rec in records:
        streams[rec.source][pidx[rec.patient_id]].extend(rec.tokens)
    vocab, tokens = [], []
    for s in sources:
        total = Counter()
        doc_count = Counter()
        for doc in streams[s]:
            total.update(doc)
            doc_count.update(set(doc))
        keep = {
            tok for tok, cnt in total.items()
            if tok not in config.stopwords
            and cnt >= config.min_count
            and doc_count[tok] / D <= config.max_doc_fraction
        }
        if not keep:
            raise ConfigError(
                f"preprocessing left an empty vocabulary for source {s!r}")
        voc = sorted(keep)
        tok2id = {tok: i for i, tok in enumerate(voc)}
        vocab.append(voc)
        tokens.append([
            np.array([tok2id[t] for t in doc if t in keep], dtype=np.int64)
            for doc in streams[s]
        ])
    keep_idx = [d for d in range(D)
                if any(per_source[d].size for per_source in tokens)]
    tokens = [[per_source[d] for d in keep_idx] for per_source in tokens]
    patients = [patients[d] for d in keep_idx]
    return Corpus(vocab=vocab, tokens=tokens), patients


def save_corpus_jsonl(corpus, labels, path):
    """The JSON-lines corpus, written with one json.dumps per record."""
    D = corpus.num_patients
    patient_ids = [f"p{d:06d}" for d in range(D)]
    width = len(str(corpus.num_sources - 1))
    source_names = [f"source{s:0{width}d}" for s in range(corpus.num_sources)]
    lines = []
    for d in range(D):
        present = []
        if labels is not None:
            present = [labels.label_names[j]
                       for j in np.flatnonzero(
                           labels.entries[d] == LABEL_PRESENT)]
        for s in range(corpus.num_sources):
            voc = corpus.vocab[s]
            obj = {
                "patient_id": patient_ids[d],
                "source": source_names[s],
                "tokens": [voc[v] for v in corpus.tokens[s][d].tolist()],
                "labels": present if s == 0 else [],
            }
            lines.append(json.dumps(obj))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def auroc(scores, truth):
    """Mann-Whitney AUROC from average ranks, ties counted half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "AUROC needs at least one positive and one negative")
    ranks = rankdata(scores, method="average")
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))
