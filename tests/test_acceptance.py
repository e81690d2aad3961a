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
from scipy.stats import chisquare, dirichlet_multinomial, kstest, norm

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
    draw_theta,
    initialize_state,
    phenotype_counts,
    sweep,
    train,
)
from ss3m.hmc import FunctionTarget, b_target, bstar_target, hmc_step, leapfrog
from ss3m.model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    DocLengthSpec,
    Hyperparameters,
    LabelMatrix,
    complete_data_log_likelihood,
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
# criterion 3: HMC validity
# ---------------------------------------------------------------------------

def test_criterion_3_hmc(rng):
    t0 = time.time()
    failures = []

    # gradient vs central finite differences, both targets
    state, _ = random_tiny_state(rng, D=3, P=3, S=1, V=4, b_low=0.5,
                                 b_high=8.0, bstar_low=0.01, bstar_high=1.0)
    hyper = make_hyper(P=3, P_lab=0)
    h = 1e-6
    for name, target, dim in (("b", b_target(state, hyper), 3),
                              ("bstar", bstar_target(state, hyper), 1)):
        for _ in range(100):
            eta = rng.uniform(-3.0, 2.5, size=dim)
            grad = target.gradient(eta)
            fd = np.array([(target.log_density(eta + e)
                            - target.log_density(eta - e)) / (2 * h)
                           for e in np.eye(dim) * h])
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            if rel.max() >= 1e-5:
                failures.append(f"{name} grad rel={rel.max():.2e} at "
                                f"eta={np.round(eta, 2).tolist()}")
                break

    # leapfrog reversibility: integrate forward, flip momentum, return
    gauss = FunctionTarget(lambda q: -0.5 * float(q @ q), lambda q: -q)
    q0 = rng.normal(size=3)
    p0 = rng.normal(size=3)
    q1, p1 = leapfrog(q0, p0, gauss, 0.1, 30)
    q2, p2 = leapfrog(q1, -p1, gauss, 0.1, 30)
    if not (np.allclose(q2, q0, atol=1e-8) and np.allclose(-p2, p0, atol=1e-8)):
        failures.append("reversibility")

    # KS against the standard normal (well-mixing settings)
    chain = np.empty(N_DRAWS)
    q = np.zeros(1)
    for i in range(N_DRAWS):
        res = hmc_step(q, gauss, 0.45, 5, rng)
        q = res.next_point
        chain[i] = q[0]
    p = kstest(chain, "norm").pvalue
    if p <= SIGNIFICANCE:
        failures.append(f"KS p={p:.2e}")

    # acceptance rate at the production step size
    accepted = 0
    q = np.zeros(1)
    for _ in range(2000):
        res = hmc_step(q, gauss, 0.01, 25, rng)
        q = res.next_point
        accepted += res.accepted
    rate = accepted / 2000
    if rate <= 0.95:
        failures.append(f"acceptance {rate:.3f}")

    elapsed = time.time() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s")
    report(3, "hmc validity", not failures,
           "; ".join(failures) or f"rate {rate:.3f}, {elapsed:.0f}s")


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
    # Open item 1), so this asserts only a decline.
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
        plan = ZPlan.of(corpus, 10)
        fractions = []
        for _ in range(20):
            sweep(state, corpus, plan, clamp, options.b_mode, h, rng)
            ok &= bool(np.all(state.A[~free] == clamp[~free]))
            ok &= bool(np.isfinite(
                complete_data_log_likelihood(state, corpus, h)))
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
