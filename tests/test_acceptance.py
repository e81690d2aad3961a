"""End-to-end acceptance gate.

Each test below covers one numbered criterion, or (next to criterion 6)
training at the paper's Bstar prior, and prints a single pass/fail
line. They are deliberately redundant with the per-module tests: this
file is the one place where every load-bearing property is exercised at
its stated tolerance in a single run.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare, dirichlet_multinomial, gamma, norm, poisson

from conftest import cell_log_odds, make_hyper, random_tiny_state, z_pass
from ss3m.cli import main as cli_main
from ss3m.evaluation import auprc, auroc, heldout_infer, micro_macro
from ss3m.gibbs import (
    B_FIXED,
    B_SAMPLED,
    MISSING_ESTIMATE,
    MISSING_FIX_ZERO,
    TrainOptions,
    ZPlan,
    activation_scan,
    clamp_matrix,
    draw_phi,
    draw_pseudocounts,
    draw_theta,
    initialize_state,
    phenotype_counts,
    sweep,
    table_counts,
    train,
)
from ss3m.model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    DocLengthSpec,
    Hyperparameters,
    LabelMatrix,
    ModelState,
    collapsed_log_joint,
    generate,
    labels_from_activations,
    prior_matrix,
)
from ss3m.util import substream

pytestmark = pytest.mark.acceptance

N_DRAWS = 10 ** 5
SIGNIFICANCE = 0.001


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# matching helpers shared by criteria 4 and 5
# ---------------------------------------------------------------------------

def tv_matrix(phi_true, phi_learned):
    """Mean-over-sources total variation distance, true x learned."""
    P = phi_true[0].shape[0]
    tv = np.zeros((P, P))
    for s in range(len(phi_true)):
        for a in range(P):
            for b in range(P):
                tv[a, b] += 0.5 * np.abs(
                    phi_true[s][a] - phi_learned[s][b]).sum()
    return tv / len(phi_true)


def greedy_match(tv):
    """Repeatedly pair the globally closest (true, learned) columns."""
    work = tv.copy()
    match = {}
    for _ in range(tv.shape[0]):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        match[int(i)] = int(j)
        work[i, :] = np.inf
        work[:, j] = np.inf
    return match


RECOVERY_SEEDS = (0, 1, 2, 3, 4)
RECOVERY_P_LAB = 5


@pytest.fixture(scope="module")
def recovery_runs():
    """Shared training runs for criteria 4 and 5: five seeds of the
    recovery corpus (D=500, P=8, two sources), SS3M with clamped
    activations and fixed B, plus the label-free variant on the same
    data and seeds."""
    h = Hyperparameters(num_phenotypes=8, num_labeled=RECOVERY_P_LAB,
                        num_sources=2, alpha=0.1, gamma=(0.01, 0.01),
                        iterations=200)
    h0 = Hyperparameters(num_phenotypes=8, num_labeled=0, num_sources=2,
                         alpha=0.1, gamma=(0.01, 0.01), iterations=200)
    opts = lambda seed: TrainOptions(missing_label_mode=MISSING_FIX_ZERO,
                                     b_mode=B_FIXED, seed=seed)
    runs = []
    for seed in RECOVERY_SEEDS:
        corpus, truth = generate(h, [100, 100], DocLengthSpec.poisson(150, 2),
                                 500, seed=7000 + seed)
        labels = labels_from_activations(truth, RECOVERY_P_LAB)
        trained = train(corpus, labels, h, opts(seed))
        trained_free = train(corpus, None, h0, opts(seed))
        tv = tv_matrix(truth.phi, trained.best_state.phi)
        tv_free = tv_matrix(truth.phi, trained_free.best_state.phi)
        runs.append({
            "match": greedy_match(tv),
            "tv": tv,
            "match_free": greedy_match(tv_free),
        })
    return runs


# ---------------------------------------------------------------------------
# criterion 1: conditional exactness on frozen tiny states
# ---------------------------------------------------------------------------

def test_criterion_1_conditional_exactness(rng):
    t0 = time.time()
    failures = []

    # z: empirical law vs the normalized product theta * phi[:, w], from
    # the batched z kernel on N_DRAWS tokens of one patient, all word w
    theta = np.array([0.5, 0.3, 0.2])
    phi = np.array([[0.1, 0.2, 0.3, 0.4],
                    [0.4, 0.3, 0.2, 0.1],
                    [0.25, 0.25, 0.25, 0.25]])
    for w in range(4):
        want = theta * phi[:, w]
        want /= want.sum()
        draws = z_pass(theta[None, :], phi,
                       np.full(N_DRAWS, w, dtype=np.int64),
                       np.zeros(N_DRAWS, dtype=np.int64), rng)
        observed = np.bincount(draws, minlength=3)
        p = chisquare(observed, want * N_DRAWS).pvalue
        if p <= SIGNIFICANCE:
            failures.append(f"z chi2 p={p:.2e} at w={w}")

    # A: empirical activation frequency vs sigmoid(log odds), from the
    # training scan with labels clamping every cell but (0, 1) to its
    # current value, so that cell's conditional stays frozen
    state, corpus = random_tiny_state(rng, D=2, P=3, S=1, V=4, b_low=0.5,
                                      b_high=8.0, bstar_low=0.05,
                                      bstar_high=1.0)
    hyper = make_hyper(P=3, P_lab=0, alpha=0.25)
    options = TrainOptions(missing_label_mode=MISSING_ESTIMATE)
    entries = np.where(state.A == 1, LABEL_PRESENT, LABEL_ABSENT)
    entries[0, 1] = LABEL_UNKNOWN
    clamps = LabelMatrix(entries=entries.astype(np.int8),
                         label_names=["l0", "l1", "l2"])
    clamp = clamp_matrix(clamps, options, 2, 3)
    corpus_counts = phenotype_counts(state, corpus)
    want = 1.0 / (1.0 + math.exp(
        -cell_log_odds(0, 1, state, corpus_counts, hyper)))
    ones = sum(int(activation_scan(state.A.copy(), clamp, corpus_counts,
                                   state.B, state.Bstar, hyper.alpha,
                                   rng)[0, 1])
               for _ in range(N_DRAWS))
    observed = np.array([ones, N_DRAWS - ones])
    p = chisquare(observed, np.array([want, 1 - want]) * N_DRAWS).pvalue
    if p <= SIGNIFICANCE:
        failures.append(f"A chi2 p={p:.2e}")

    # theta: Dirichlet moment test against prior + counts (draw_theta)
    alpha_post = (prior_matrix(state.A, state.B, state.Bstar)[0]
                  + corpus_counts[0])
    mean_want = alpha_post / alpha_post.sum()
    var_want = mean_want * (1 - mean_want) / (alpha_post.sum() + 1)
    draws = np.empty((10 ** 4, 3))
    for i in range(10 ** 4):
        draw_theta(state, corpus_counts, rng)
        draws[i] = state.theta[0]
    zscores = (draws.mean(axis=0) - mean_want) / np.sqrt(var_want / 10 ** 4)
    if np.any(np.abs(zscores) > norm.isf(SIGNIFICANCE / 2)):
        failures.append(f"theta moments z={np.abs(zscores).max():.2f}")

    # phi: same moment test for the token distributions (draw_phi)
    counts = np.zeros(4)
    for d in range(2):
        for z, w in zip(state.z[0][d], corpus.tokens[0][d]):
            if z == 0:
                counts[w] += 1
    alpha_post = hyper.gamma[0] + counts
    mean_want = alpha_post / alpha_post.sum()
    var_want = mean_want * (1 - mean_want) / (alpha_post.sum() + 1)
    draws = np.empty((10 ** 4, 4))
    for i in range(10 ** 4):
        draw_phi(state, corpus, hyper, rng)
        draws[i] = state.phi[0][0]
    zscores = (draws.mean(axis=0) - mean_want) / np.sqrt(var_want / 10 ** 4)
    if np.any(np.abs(zscores) > norm.isf(SIGNIFICANCE / 2)):
        failures.append(f"phi moments z={np.abs(zscores).max():.2f}")

    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s")
    report(1, "conditional exactness", not failures,
           "; ".join(failures) or f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 2: activation log odds vs brute-force density normalization
# ---------------------------------------------------------------------------

def test_criterion_2_activation_log_odds(rng):
    # the scan's log-odds of A_dp given the phenotype counts (theta
    # integrated out) against the normalization over A_dp in {0, 1} of
    # Bernoulli(alpha) times the Dirichlet-multinomial law of the counts
    # under the gated prior
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        state, _ = random_tiny_state(rng, D=2, P=3, S=1, V=3, b_low=0.2,
                                     b_high=15.0, bstar_low=1e-3,
                                     bstar_high=2.0)
        counts = rng.integers(0, 30, size=(2, 3))
        alpha = rng.uniform(0.05, 0.9)
        hyper = make_hyper(P=3, P_lab=0, alpha=alpha)
        d, p = rng.integers(0, 2), rng.integers(0, 3)
        got = cell_log_odds(int(d), int(p), state, counts, hyper)

        log_joint = []
        for bit, prior_prob in ((1, alpha), (0, 1 - alpha)):
            a = state.A[d].copy()
            a[p] = bit
            gated = prior_matrix([a], state.B, state.Bstar)[0]
            log_joint.append(math.log(prior_prob) + dirichlet_multinomial
                             .logpmf(counts[d], gated, counts[d].sum()))
        log_norm = np.logaddexp(*log_joint)
        want = (log_joint[0] - log_norm) - (log_joint[1] - log_norm)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    elapsed = time.time() - t0
    report(2, "activation log odds oracle",
           worst < 1e-10 and elapsed < 10,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: concentration draw validity
# ---------------------------------------------------------------------------

CRT_CONCENTRATIONS = (1e-7, 0.3, 5.0)
CRT_MAX_N = 6
# (phenotype counts, activations) of D=2, P=2 models: every cell coupled,
# and one with an empty patient, which the B step skips
B_STEP_CASES = (
    (np.array([[3, 1], [0, 2]]), np.array([[1, 0], [0, 1]], dtype=np.int8)),
    (np.array([[2, 3], [0, 0]]), np.array([[1, 0], [0, 1]], dtype=np.int8)),
)
B_STEP_REPEATS = 20000
LOG_GRID = np.linspace(-10.0, 5.0, 121)


def _crt_pmf(n, c):
    """P(l) for l = 0..n under CRT(n, c): |s(n, l)| c^l Gamma(c) /
    Gamma(c + n), with s the Stirling numbers of the first kind."""
    row = [1]
    for m in range(n):
        row = [(row[k - 1] if k else 0) + m * (row[k] if k < len(row) else 0)
               for k in range(m + 2)]
    return np.array([math.exp(math.log(s) + k * math.log(c) + gammaln(c)
                               - gammaln(c + n)) if s else 0.0
                     for k, s in enumerate(row)])


def _histogram_pvalues(hist, pmf):
    """p-values of a histogram against a pmf: a chi-square test over the
    bins expecting at least 5 draws, and a Poisson upper-tail test of the
    draws in the other bins when they expect fewer than 5 together (else
    they are one more chi-square bin)."""
    expected = hist.sum() * pmf
    big = expected >= 5
    obs, exp = list(hist[big]), list(expected[big])
    rest_obs, rest_exp = hist[~big].sum(), expected[~big].sum()
    pvalues = []
    if rest_exp >= 5:
        obs.append(rest_obs)
        exp.append(rest_exp)
    else:
        pvalues.append(poisson.sf(rest_obs - 1, rest_exp))
        i = int(np.argmax(exp))
        obs[i] += rest_obs
        exp[i] += rest_exp
    if len(obs) > 1:
        pvalues.append(chisquare(obs, exp).pvalue)
    return pvalues


def _b_step_means(counts, A, hyper):
    """Means of B_0, B_1 and Bstar under p(B, Bstar | z, A), theta
    integrated out, by a Riemann sum over LOG_GRID in each log."""
    u = np.meshgrid(LOG_GRID, LOG_GRID, LOG_GRID, indexing="ij")
    b = [np.exp(x) for x in u]
    log_p = sum(gamma.logpdf(b[p], hyper.b_shape, scale=hyper.b_scale)
                + u[p] for p in range(2))
    log_p += gamma.logpdf(b[2], hyper.bstar_shape,
                          scale=hyper.bstar_scale) + u[2]
    for n_d, a_d in zip(counts, A):
        c = [b[p] if a_d[p] else b[2] for p in range(2)]
        log_p += gammaln(c[0] + c[1]) - gammaln(c[0] + c[1] + n_d.sum())
        log_p += sum(gammaln(c[p] + n_d[p]) - gammaln(c[p]) for p in range(2))
    w = np.exp(log_p - log_p.max())
    return np.array([(w * x).sum() / w.sum() for x in b])


def test_criterion_3_concentration_draws(rng):
    t0 = time.time()
    failures, pvalues = [], []

    # the CRT table counts against their exact pmf
    for c in CRT_CONCENTRATIONS:
        for n in range(CRT_MAX_N + 1):
            tables = table_counts(np.full(N_DRAWS, n), np.full(N_DRAWS, c),
                                  rng)
            hist = np.bincount(tables, minlength=n + 1)
            pmf = _crt_pmf(n, c)
            if hist.size > n + 1 or np.any(hist[pmf == 0]):
                failures.append(f"CRT({n}, {c:g}) outside its support")
            pvalues += [(f"CRT({n}, {c:g})", p)
                        for p in _histogram_pvalues(hist[:n + 1], pmf)]

    # the B step, repeated with z and A frozen, against quadrature
    hyper = make_hyper(P=2, b_shape=2.0, b_scale=2.0, bstar_shape=2.0,
                       bstar_scale=0.5)
    z_scores = []
    for k, (counts, A) in enumerate(B_STEP_CASES):
        state = ModelState(theta=np.empty((2, 2)), phi=[], z=[], A=A,
                           B=np.ones(2), Bstar=1.0)
        draws = np.empty((B_STEP_REPEATS, 3))
        for i in range(B_STEP_REPEATS):
            draw_pseudocounts(state, counts, hyper, rng)
            draws[i] = *state.B, state.Bstar
        batch = draws.reshape(50, -1, 3).mean(axis=1)
        se = batch.std(axis=0, ddof=1) / math.sqrt(50)
        z = (draws.mean(axis=0) - _b_step_means(counts, A, hyper)) / se
        z_scores += [(f"case {k} {name}", v)
                     for name, v in zip(("B_0", "B_1", "Bstar"), z)]

    tests = len(pvalues) + len(z_scores)
    bound = norm.isf(SIGNIFICANCE / (2 * tests))
    failures += [f"{name} p={p:.2e}" for name, p in pvalues
                 if p < SIGNIFICANCE / tests]
    failures += [f"{name} z={v:+.2f}" for name, v in z_scores
                 if abs(v) >= bound]
    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s")
    worst = max(abs(v) for _, v in z_scores)
    report(3, "concentration draw validity", not failures,
           "; ".join(failures) or f"{len(pvalues)} CRT tests, B step max "
           f"|z| {worst:.2f} < {bound:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criteria 4 and 5: parameter recovery and the semi-supervision effect
# ---------------------------------------------------------------------------

def test_criterion_4_parameter_recovery(recovery_runs):
    t0 = time.time()
    good_seeds = 0
    details = []
    for run in recovery_runs:
        match, tv = run["match"], run["tv"]
        mean_tv = float(np.mean([tv[i, match[i]] for i in match]))
        labeled_hits = sum(match[p] == p for p in range(RECOVERY_P_LAB))
        ok = mean_tv < 0.15 and labeled_hits >= 4
        good_seeds += ok
        details.append(f"tv={mean_tv:.3f} hits={labeled_hits}")
    report(4, "parameter recovery", good_seeds >= 4,
           "; ".join(details) + f"; fixture reuse, {time.time() - t0:.0f}s")


def test_criterion_5_semi_supervision(recovery_runs):
    wins = 0
    details = []
    for run in recovery_runs:
        acc = np.mean([run["match"][p] == p for p in range(RECOVERY_P_LAB)])
        acc_free = np.mean([run["match_free"][p] == p
                            for p in range(RECOVERY_P_LAB)])
        wins += acc > acc_free
        details.append(f"{acc:.2f}>{acc_free:.2f}")
    report(5, "semi-supervision effect", wins >= 4, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: likelihood ordering of model variants
# ---------------------------------------------------------------------------

def test_criterion_6_likelihood_ordering():
    # Setup where the flexibility matters and the sampler mixes: moderate
    # inactive pseudo-count prior (spike priors make fixed-activation
    # corner states unbeatable and freeze the flexible chain), plus labels
    # that under-report (half the Present entries dropped to Unknown), so
    # clamping missing labels to zero is genuinely wrong.
    wins = 0
    details = []
    h = Hyperparameters(num_phenotypes=5, num_labeled=3, num_sources=1,
                        alpha=0.5, gamma=(0.05,), bstar_shape=2.0,
                        bstar_scale=0.5, iterations=100)
    for seed in range(5):
        corpus, truth = generate(h, [60], DocLengthSpec.poisson(60, 1), 150,
                                 seed=100 + seed)
        labels = labels_from_activations(truth, 3)
        drop_rng = np.random.default_rng(1000 + seed)
        entries = labels.entries.copy()
        mask = (entries == 1) & (drop_rng.random(entries.shape) < 0.5)
        entries[mask] = -1
        labels = LabelMatrix(entries=entries, label_names=labels.label_names)
        flex = train(corpus, labels, h, TrainOptions(
            missing_label_mode=MISSING_ESTIMATE, b_mode=B_SAMPLED, seed=seed))
        fix = train(corpus, labels, h, TrainOptions(
            missing_label_mode=MISSING_FIX_ZERO, b_mode=B_FIXED, seed=seed))
        win = flex.best_log_likelihood >= fix.best_log_likelihood
        wins += win
        details.append(f"{flex.best_log_likelihood:.0f} vs "
                       f"{fix.best_log_likelihood:.0f}")
    report(6, "likelihood ordering", wins >= 4,
           f"{wins}/5 wins; " + "; ".join(details))


# ---------------------------------------------------------------------------
# not a numbered criterion: training at the paper's Bstar prior
# ---------------------------------------------------------------------------

def test_paper_prior_training_prunes_activations():
    # Criterion 6 runs at a moderate Bstar prior; this runs the sampler at
    # the paper's spike, bstar_shape = 0.01, with estimated missing labels
    # and sampled B. The uniform-z start gives every patient an interior
    # theta, so the first sweep turns most free cells on; the chain must
    # then prune them. Two of these seeds plateau near a third of the free
    # cells active, against about 5% in the generating state (ROADMAP,
    # Open item 3), so this asserts only a decline.
    h = Hyperparameters(num_phenotypes=10, num_labeled=5, num_sources=2,
                        alpha=0.1, gamma=(0.01, 0.01), bstar_shape=0.01)
    options = TrainOptions(missing_label_mode=MISSING_ESTIMATE,
                           b_mode=B_SAMPLED, seed=0)
    details = []
    ok = True
    for seed in range(1, 6):
        corpus, truth = generate(h, [200, 100], DocLengthSpec.poisson(60, 2),
                                 150, seed=seed)
        labels = labels_from_activations(truth, 5)
        clamp = clamp_matrix(labels, options, 150, 10)
        free = clamp < 0
        rng = substream(options.seed, "gibbs.train")
        state = initialize_state(corpus, clamp, h, rng)
        plan = ZPlan(corpus, 10)
        fractions = []
        for _ in range(20):
            sweep(state, plan, clamp, options.b_mode, h, rng)
            ok &= bool(np.all(state.A[~free] == clamp[~free]))
            ok &= bool(np.isfinite(
                collapsed_log_joint(state, corpus, h)))
            fractions.append(state.A[free].mean())
        ok &= bool(fractions[-1] < fractions[0])
        details.append(f"{fractions[0]:.2f}->{fractions[-1]:.2f} "
                       f"(truth {truth.A[free].mean():.2f})")
    line = (f"paper prior training: {'PASS' if ok else 'FAIL'} "
            f"({'; '.join(details)})")
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: metric oracles
# ---------------------------------------------------------------------------

def _brute_auroc(scores, truth):
    pos = scores[truth]
    neg = scores[~truth]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _brute_auprc(scores, truth):
    n_pos = truth.sum()
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= t
        tp = (predicted & truth).sum()
        area += (tp / n_pos - prev_recall) * (tp / predicted.sum())
        prev_recall = tp / n_pos
    return area


def test_criterion_7_metric_oracles(rng):
    t0 = time.time()
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(5, 501))
        if trial % 2:
            scores = rng.integers(0, 10, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        truth = rng.random(n) < 0.3
        if not truth.any() or truth.all():
            truth[0], truth[1] = True, False
        worst = max(worst,
                    abs(auroc(scores, truth) - _brute_auroc(scores, truth)),
                    abs(auprc(scores, truth) - _brute_auprc(scores, truth)))

    # hand-computed micro/macro fixtures
    scores = np.array([[0.9, 0.5], [0.1, 0.5], [0.8, 0.5], [0.2, 0.5]])
    truth = np.array([[1, 1], [0, 0], [1, 0], [0, 1]])
    _, macro = micro_macro(auroc, scores, truth)
    macro_ok = macro == pytest.approx(0.75)
    micro, _ = micro_macro(auroc, scores, truth)
    micro_ok = micro == pytest.approx(
        _brute_auroc(scores.ravel(), truth.ravel().astype(bool)))

    elapsed = time.time() - t0
    report(7, "metric oracles",
           worst < 1e-12 and macro_ok and micro_ok and elapsed < 30,
           f"worst abs err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: held-out prediction sanity with truth globals
# ---------------------------------------------------------------------------

def test_criterion_8_heldout_sanity():
    t0 = time.time()
    h = Hyperparameters(num_phenotypes=5, num_labeled=5, num_sources=1,
                        alpha=0.5, gamma=(0.05,), iterations=0)
    corpus, truth = generate(h, [80], DocLengthSpec.poisson(100, 1), 200,
                             seed=42)
    res = heldout_infer(corpus, truth, h, burn_in=50, samples=100, seed=3)
    scores = res.scores
    active = truth.A.astype(bool)
    gap = scores[active].mean() - scores[~active].mean()
    _, macro = micro_macro(auroc, scores, truth.A.astype(int))
    elapsed = time.time() - t0
    report(8, "held-out sanity",
           gap > 0.3 and macro > 0.85 and elapsed < 300,
           f"gap {gap:.3f}, macro AUROC {macro:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: determinism of cmd_train
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "model.num_phenotypes = 3\n"
        "model.num_labeled = 2\n"
        "model.alpha = 0.3\n"
        "model.gamma = 0.1\n"
        "train.iterations = 5\n"
        "train.b_mode = sampled\n"
        "train.missing_label_mode = estimate\n"
        "generate.num_sources = 1\n"
        "generate.vocab_size = 20\n"
        "generate.num_patients = 15\n"
        "generate.doc_length = 25\n"
        "preprocess.min_count = 1\n"
        "preprocess.max_doc_fraction = 1.0\n"
        "labels.top_k = 2\n")
    gen = str(tmp_path / "gen")
    assert cli_main(["--config", str(cfg), "--seed", "5", "--out", gen,
                     "generate"]) == 0
    digests = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert cli_main(["--config", str(cfg), "--seed", "5", "--out", out,
                         "train", "--corpus", os.path.join(gen, "corpus.jsonl"),
                         "--model-id", "ss3m"]) == 0
        pair = []
        for fname in ("trace.csv", "ss3m.state.json"):
            with open(os.path.join(out, fname), "rb") as fh:
                pair.append(hashlib.sha256(fh.read()).hexdigest())
        digests.append(tuple(pair))
    report(9, "determinism", digests[0] == digests[1],
           "trace and state byte-identical" if digests[0] == digests[1]
           else f"{digests[0]} != {digests[1]}")
