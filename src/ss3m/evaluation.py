"""Held-out label prediction, baseline classifiers, and the metric suite
(micro/macro AUROC and AUPRC, plus the best state's collapsed log joint,
model.collapsed_log_joint, as the log_likelihood row).

The suite (evaluate_suite) checks all its inputs and settings before any
job starts (check_suite). It hands the held-out chains, in column order,
to a gibbs.Helper and fits the raw-token baseline on the calling thread.
Where the process may use two or more CPUs the Helper's worker runs the
chains beside the baseline, and by the Helper's rule they start no z-pass
helper; with one, submitting runs them on the calling thread, before the
baseline. The reports, and which error is raised, are the same either
way.
"""

import logging
import threading
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .errors import (
    ConfigError,
    DataError,
    OptimizationError,
    UndefinedMetricError,
)
from .model import (
    LABEL_PRESENT,
    Corpus,
    Hyperparameters,
    LabelMatrix,
    ModelState,
    count_pairs,
)
from .util import expit, seed_sequence, substream

logger = logging.getLogger(__name__)

SUITE_COLUMNS = (
    "ss3m_smplA0_smplB",
    "ss3m_smplA0_fixB",
    "ss3m_fixA0_smplB",
    "ss3m_fixA0_fixB",
    "mc3m_sp_lr",
    "mc3m_sp_nb",
    "mc3m_lr",
    "mc3m_nb",
    "raw_lr",
    "raw_nb",
)
# The mixed-membership artifacts evaluate_suite reads: one per ss3m
# column, then the two base models behind the mc3m_sp_* and mc3m_* columns.
STATE_ARTIFACTS = SUITE_COLUMNS[:4] + ("mc3m_sp", "mc3m")


@dataclass
class HeldoutResult:
    scores: np.ndarray  # D_test x P_lab; higher means more likely Present
    theta_mean: np.ndarray
    activation_mean: np.ndarray


@dataclass
class MetricsReport:
    model_id: str
    auroc_micro: float = None
    auroc_macro: float = None
    auprc_micro: float = None
    auprc_macro: float = None
    max_log_likelihood: float = None  # absent for raw-token baselines


def _check_chain_settings(burn_in: int, samples: int):
    """ConfigError unless a held-out chain can run with these settings."""
    if burn_in < 0:
        raise ConfigError("burn_in must be >= 0")
    if samples < 1:
        raise ConfigError("samples must be >= 1")


def _check_trained(trained: ModelState, test_corpus: Corpus,
                   hyper: Hyperparameters, name: str = "trained"):
    """DataError, its message starting with name, unless a held-out chain
    can run trained on test_corpus: one phi per test source, as wide as
    its vocabulary, and theta and B of the configured phenotypes."""
    widths = [phi_s.shape[1] for phi_s in trained.phi]
    if widths != [len(voc) for voc in test_corpus.vocab]:
        raise DataError(f"{name} phi has {widths} words per source, the test "
                        f"vocabularies {[len(v) for v in test_corpus.vocab]}")
    P = hyper.num_phenotypes
    if trained.theta.shape[1] != P or trained.B.shape != (P,):
        raise DataError(
            f"{name} state (theta {trained.theta.shape}, B "
            f"{trained.B.shape}) does not have the configured {P} phenotypes")


def heldout_infer(test_corpus: Corpus, trained: ModelState,
                  hyper: Hyperparameters, burn_in: int = 50,
                  samples: int = 100, seed: int = 0) -> HeldoutResult:
    """Patient-local Gibbs over (z, A, theta) with the trained globals
    (phi, B, Bstar) held fixed: gibbs.local_step, repeated.

    Every labeled activation runs in Estimate mode -- the labels are what
    is being predicted. score(d, p) is the mean of sampled A_dp over the
    retained samples. The bits of each phenotype with B_p == Bstar change
    no prior, so they are clamped on rather than drawn; the rest are free.
    An mc3m state (B = Bstar = c) thus keeps every activation on: the
    symmetric Dirichlet(c) prior.
    """
    _check_chain_settings(burn_in, samples)
    _check_trained(trained, test_corpus, hyper)
    rng = substream(seed, "evaluation.heldout")
    P, D = hyper.num_phenotypes, test_corpus.num_patients
    clamp = np.tile(np.where(trained.B == trained.Bstar, 1, -1).astype(np.int8),
                    (D, 1))
    a_sum, theta_sum = np.zeros((D, P)), np.zeros((D, P))
    with gibbs.ZPlan(test_corpus, P) as plan:
        state = ModelState(
            theta=np.empty((D, P)), phi=trained.phi,
            z=gibbs.initial_z(test_corpus, P, rng),
            # start fully active: when Bstar is a spike near zero the
            # off-to-on move has vanishing probability, so the chain must
            # prune activations rather than discover them
            A=np.ones((D, P), dtype=np.int8),
            B=trained.B, Bstar=float(trained.Bstar))
        gibbs.draw_theta(state, gibbs.phenotype_counts(state, test_corpus),
                         rng)
        for it in range(burn_in + samples):
            gibbs.local_step(state, plan, clamp, hyper.alpha, rng)
            if it >= burn_in:
                a_sum += state.A
                theta_sum += state.theta

    a_mean = a_sum / samples
    return HeldoutResult(scores=a_mean[:, :hyper.num_labeled],
                         theta_mean=theta_sum / samples,
                         activation_mean=a_mean)


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------

def auroc(scores, truth) -> float:
    """Mann-Whitney AUROC with ties counted half; NaN if a score is NaN."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    pos, neg = scores[truth], np.sort(scores[~truth])
    if pos.size == 0 or neg.size == 0:
        raise UndefinedMetricError(
            "AUROC needs at least one positive and one negative")
    twice_u = int(np.searchsorted(neg, pos, "left").sum()
                  + np.searchsorted(neg, pos, "right").sum())
    return (float("nan") if np.isnan(scores).any()
            else twice_u / 2.0 / (pos.size * neg.size))


def auprc(scores, truth) -> float:
    """Area under the precision-recall curve by step-wise summation over
    descending unique score thresholds, ties grouped; NaN if any score is
    NaN, as for auroc."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    n_pos = int(truth.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUPRC needs at least one positive")
    if np.isnan(scores).any():
        return float("nan")
    order = np.argsort(-scores, kind="stable")
    s_sorted, t_sorted = scores[order], truth[order]
    # indices where a threshold group ends (last occurrence of each value)
    distinct = np.flatnonzero(np.diff(s_sorted))
    ends = np.append(distinct, len(s_sorted) - 1)
    tp = np.cumsum(t_sorted)[ends]
    n_at = ends + 1.0
    precision = tp / n_at
    recall = tp / n_pos
    return float(np.sum(np.diff(np.concatenate(([0.0], recall))) * precision))


def micro_macro(per_label_fn, scores, truth):
    """(micro, macro) for a per-label metric. Macro averages over labels
    where the metric is defined (skips logged); micro pools all pairs."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise ConfigError("scores and truth must have identical shape")
    values, skipped = [], 0
    for j in range(scores.shape[1]):
        try:
            values.append(per_label_fn(scores[:, j], truth[:, j]))
        except UndefinedMetricError:
            skipped += 1
    if skipped:
        logger.warning("macro average skipped %d degenerate label(s)", skipped)
    if not values:
        raise UndefinedMetricError("metric undefined for every label")
    macro = float(np.mean(values))
    micro = float(per_label_fn(scores.ravel(), truth.ravel()))
    return micro, macro


# ---------------------------------------------------------------------------
# Baseline classifiers (one-vs-rest)
# ---------------------------------------------------------------------------

NB_MULTINOMIAL = "multinomial"
NB_GAUSSIAN = "gaussian"
_VAR_FLOOR = 1e-6


def nb_train(features, truth, mode: str):
    """Fit one-vs-rest naive Bayes: per label, a model of the training
    patients who carry it and one of those who do not.

    multinomial: token counts with add-one smoothing (raw-token features);
    gaussian: per-dimension mean/variance with a variance floor (simplex
    features). A class no patient is in is fitted to all of them, so a
    label that every or no patient carries scores its prior log-odds.
    Returns (mode, [(prior log-odds, class-1 fit, class-0 fit) per label])
    for nb_predict.
    """
    X = np.asarray(features, dtype=float)
    Y = np.asarray(truth).astype(bool)
    if mode not in (NB_MULTINOMIAL, NB_GAUSSIAN):
        raise ConfigError(f"unknown naive Bayes mode {mode!r}")
    n = X.shape[0]
    labels = []
    for y in Y.T:
        n1 = int(y.sum())
        log_prior = np.log((n1 + 1.0) / (n + 2.0)) - np.log(
            (n - n1 + 1.0) / (n + 2.0))
        fits = []
        for rows in (y, ~y):
            Xc = X[rows if rows.any() else ~rows]
            if mode == NB_MULTINOMIAL:
                c = Xc.sum(axis=0) + 1.0
                fits.append(np.log(c / c.sum()))
            else:
                fits.append((Xc.mean(axis=0),
                             np.maximum(Xc.var(axis=0), _VAR_FLOOR)))
        labels.append((log_prior, *fits))
    return mode, labels


def nb_predict(model, features) -> np.ndarray:
    """Posterior log-odds scores, one column per label."""
    mode, labels = model
    X = np.asarray(features, dtype=float)
    cols = []
    for log_prior, fit1, fit0 in labels:
        if mode == NB_MULTINOMIAL:
            cols.append(log_prior + X @ (fit1 - fit0))
            continue
        ll1, ll0 = (-0.5 * (np.log(2 * np.pi * var)
                            + (X - mu) ** 2 / var).sum(axis=1)
                    for mu, var in (fit1, fit0))
        # log_prior itself where the classes tie, as on a label that every
        # or no patient carries: (log_prior + ll1) - ll0 would round it
        cols.append(np.where(ll1 == ll0, log_prior, log_prior + ll1 - ll0))
    return np.column_stack(cols)


def _lr_loss(w, Xb, y, lam):
    """L2-regularized logistic loss, intercept (last coordinate) not
    regularized, and the logits Xb @ w it was computed from;
    OptimizationError if the loss is not finite."""
    logits = Xb @ w
    # log(1 + exp(-m)) with m = y_pm * logits, stable both directions
    m = np.where(y, logits, -logits)
    loss = float(np.logaddexp(0.0, -m).sum())
    loss += 0.5 * lam * float(w[:-1] @ w[:-1])
    if not np.isfinite(loss):
        raise OptimizationError("objective diverged to a non-finite value")
    return loss, logits


def _lr_grad(w, logits, Xb, y, lam):
    """Gradient of _lr_loss at w, given its logits."""
    grad = Xb.T @ (expit(logits) - y)
    return grad + lam * np.append(w[:-1], 0.0)


def _check_lr_settings(lam: float, epochs: int):
    """ConfigError unless lr_train can run with these settings."""
    if epochs < 0 or not 0 <= lam < np.inf:
        raise ConfigError("logistic regression needs epochs >= 0 and 0 <= "
                          f"lambda < inf, got epochs {epochs}, lambda {lam}")


def lr_train(features, truth, lam: float = 1.0, epochs: int = 200):
    """One-vs-rest L2 logistic regression by full-batch gradient descent.

    Each step's backtracking search starts from the t the previous step
    accepted (1 at first), doubles t up to 1 while the loss at 2t still
    falls below the current loss, or else halves t until the loss falls,
    down to 2^-46. The loss is convex along -grad, so this is the step of
    a search from t = 1 but where trial losses tie within rounding."""
    _check_lr_settings(lam, epochs)
    X = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    Y = np.asarray(truth).astype(bool)
    Xb = np.column_stack([X, np.ones(X.shape[0])])
    weights = []
    for j in range(Y.shape[1]):
        y = Y[:, j].astype(float)
        w = np.zeros(Xb.shape[1])
        loss, logits = _lr_loss(w, Xb, y, lam)
        grad = _lr_grad(w, logits, Xb, y, lam)
        t = 1.0
        for _ in range(epochs):
            if float(grad @ grad) < 1e-18:
                break
            trial = _lr_loss(w - t * grad, Xb, y, lam)
            while trial[0] < loss and t < 1.0:
                longer = _lr_loss(w - 2.0 * t * grad, Xb, y, lam)
                if longer[0] >= loss:
                    break
                t, trial = 2.0 * t, longer
            while trial[0] >= loss and t > 2.0 ** -46:
                t *= 0.5
                trial = _lr_loss(w - t * grad, Xb, y, lam)
            if trial[0] >= loss:
                break  # no t lowers the loss: the floating-point optimum
            w, (loss, logits) = w - t * grad, trial
            grad = _lr_grad(w, logits, Xb, y, lam)
        weights.append(w)
    return {"weights": np.array(weights)}


def lr_predict(model, features) -> np.ndarray:
    """Logit scores, one column per label."""
    X = np.asarray(features, dtype=float)
    Xb = np.column_stack([X, np.ones(X.shape[0])])
    return Xb @ model["weights"].T


# ---------------------------------------------------------------------------
# Feature extraction and the full suite
# ---------------------------------------------------------------------------

def raw_token_features(corpus: Corpus) -> np.ndarray:
    """Per-patient token-count vectors, sources concatenated."""
    counts = [count_pairs(w.doc_idx, w.flat, corpus.num_patients, len(voc))
              for w, voc in zip(corpus.tokens, corpus.vocab)]
    return np.hstack(counts).astype(float)


def truth_matrix(labels: LabelMatrix) -> np.ndarray:
    """Binary truth for metrics: Present -> 1, anything else -> 0."""
    return (labels.entries == LABEL_PRESENT).astype(int)


def compute_report(model_id: str, scores, truth,
                   max_log_likelihood=None) -> MetricsReport:
    roc_micro, roc_macro = micro_macro(auroc, scores, truth)
    prc_micro, prc_macro = micro_macro(auprc, scores, truth)
    return MetricsReport(
        model_id=model_id,
        auroc_micro=roc_micro, auroc_macro=roc_macro,
        auprc_micro=prc_micro, auprc_macro=prc_macro,
        max_log_likelihood=max_log_likelihood,
    )


def check_suite(artifacts: dict, train_corpus: Corpus,
                train_labels: LabelMatrix, test_corpus: Corpus,
                test_labels: LabelMatrix, hyper: Hyperparameters,
                burn_in: int = 50, samples: int = 100, seed: int = 0,
                lr_lam: float = 1.0, lr_epochs: int = 200):
    """ConfigError or DataError unless evaluate_suite, given the same
    arguments, can start: the chain, logistic-regression and seed
    settings; labels that name the same columns, at least one, and cover
    their corpus's patients; train and test vocabularies of one size per
    source; at most hyper.num_labeled label columns when an ss3m column is
    scored; each state's phi widths and phenotype count, one theta row
    per training patient in each base model, and a max_log_likelihood
    that is a number or None."""
    _check_chain_settings(burn_in, samples)
    _check_lr_settings(lr_lam, lr_epochs)
    seed_sequence(seed)
    if train_labels.label_names != test_labels.label_names:
        raise DataError(
            f"train labels {train_labels.label_names} and test labels "
            f"{test_labels.label_names} name different columns")
    if not test_labels.num_labels:
        raise DataError("the labels have no column to score")
    for split, corpus, labels in (("train", train_corpus, train_labels),
                                  ("test", test_corpus, test_labels)):
        if labels.num_patients != corpus.num_patients:
            raise DataError(
                f"{split} labels cover {labels.num_patients} patients, the "
                f"{split} corpus {corpus.num_patients}")
    widths = [[len(voc) for voc in c.vocab] for c in (train_corpus,
                                                      test_corpus)]
    if widths[0] != widths[1]:
        raise DataError(f"train vocabularies have {widths[0]} words per "
                        f"source, the test vocabularies {widths[1]}")
    if (test_labels.num_labels > hyper.num_labeled
            and any(col in artifacts for col in STATE_ARTIFACTS[:4])):
        raise ConfigError(
            f"label matrix has more columns ({test_labels.num_labels}) "
            f"than model.num_labeled ({hyper.num_labeled})")
    for name in filter(artifacts.__contains__, STATE_ARTIFACTS):
        state, max_ll = artifacts[name]
        if isinstance(max_ll, bool) or not isinstance(max_ll, (int, float,
                                                               type(None))):
            raise DataError(f"{name}: max_log_likelihood {max_ll!r} is not a "
                            "number or null")
        _check_trained(state, test_corpus, hyper, f"{name}: trained")
        if (name in STATE_ARTIFACTS[4:]
                and state.theta.shape[0] != train_corpus.num_patients):
            raise DataError(
                f"{name}: theta has {state.theta.shape[0]} patients, the "
                f"training corpus {train_corpus.num_patients}")


def evaluate_suite(artifacts: dict, train_corpus: Corpus,
                   train_labels: LabelMatrix, test_corpus: Corpus,
                   test_labels: LabelMatrix, hyper: Hyperparameters,
                   burn_in: int = 50, samples: int = 100, seed: int = 0,
                   lr_lam: float = 1.0, lr_epochs: int = 200):
    """One MetricsReport per configured column, in SUITE_COLUMNS order.

    artifacts maps a subset of STATE_ARTIFACTS to (ModelState,
    max_log_likelihood). Missing artifacts yield placeholder (all-None)
    reports. The raw-token columns need no artifact. An ss3m column
    scores the first phenotypes, one per label column. Every check of
    check_suite runs before any chain or fit starts.

    The jobs are one held-out chain per artifact, in column order, each
    base model's with its classifiers, and the raw-token baseline. A
    gibbs.Helper runs the chains: with two or more usable CPUs on its
    worker thread, beside this thread's raw-token baseline, and the
    worker's chains start no z-pass helper; with one, here, before the
    baseline. The worker is joined before the suite returns or raises.
    Each chain draws from a generator of its own, made from seed, so the
    reports are the same bytes either way, and where several jobs fail
    the error of the first in column order is raised. With one CPU the
    baseline still runs after a chain fails, before that chain's error is
    raised.
    """
    check_suite(artifacts, train_corpus, train_labels, test_corpus,
                test_labels, hyper, burn_in, samples, seed, lr_lam,
                lr_epochs)
    truth_test = truth_matrix(test_labels)
    truth_train = truth_matrix(train_labels)

    def classify(prefix, feats_train, feats_test, nb_mode, max_ll):
        """The <prefix>_lr and <prefix>_nb reports."""
        model = lr_train(feats_train, truth_train, lam=lr_lam,
                         epochs=lr_epochs)
        lr = compute_report(f"{prefix}_lr", lr_predict(model, feats_test),
                            truth_test, max_ll)
        model = nb_train(feats_train, truth_train, nb_mode)
        return [lr, compute_report(f"{prefix}_nb",
                                   nb_predict(model, feats_test),
                                   truth_test, max_ll)]

    def chain(name):
        """The reports of artifact name: placeholders without it, else its
        held-out chain's, scored directly for an ss3m column and through
        classify, on the best state's theta of the training patients, for
        a base model."""
        if name not in artifacts:
            cols = ([name] if name in SUITE_COLUMNS
                    else [f"{name}_lr", f"{name}_nb"])
            logger.warning("no artifact for %s; emitting placeholder %s",
                           name, ", ".join(cols))
            return [MetricsReport(model_id=col) for col in cols]
        state, max_ll = artifacts[name]
        res = heldout_infer(test_corpus, state, hyper, burn_in=burn_in,
                            samples=samples, seed=seed)
        if name in SUITE_COLUMNS:
            return [compute_report(name,
                                   res.scores[:, :test_labels.num_labels],
                                   truth_test, max_ll)]
        return classify(name, state.theta, res.theta_mean, NB_GAUSSIAN,
                        max_ll)

    def raw():
        return classify("raw", raw_token_features(train_corpus),
                        raw_token_features(test_corpus), NB_MULTINOMIAL, None)

    stop = threading.Event()

    def chains():
        return [r for name in STATE_ARTIFACTS if not stop.is_set()
                for r in chain(name)]

    with gibbs.Helper() as helper:
        worker = helper.submit(chains)
        try:
            try:
                baseline = raw()
            except Exception:
                worker.result()     # a chain's error comes first
                raise
            return worker.result() + baseline
        finally:
            stop.set()  # after an interrupt, no further chain starts


def reports_to_csv(reports) -> str:
    """CSV with columns model_id, metric, averaging, value."""
    lines = ["model_id,metric,averaging,value"]
    for r in reports:
        for metric, avg, value in (
                ("auroc", "micro", r.auroc_micro),
                ("auroc", "macro", r.auroc_macro),
                ("auprc", "micro", r.auprc_micro),
                ("auprc", "macro", r.auprc_macro),
                ("log_likelihood", "", r.max_log_likelihood)):
            rendered = "" if value is None else repr(float(value))
            lines.append(f"{r.model_id},{metric},{avg},{rendered}")
    return "\n".join(lines) + "\n"


def reports_to_table(reports) -> str:
    """Aligned text table: metric rows by model columns."""
    by_id = {r.model_id: r for r in reports}
    ids = [r.model_id for r in reports]
    rows = (("AUROC micro", "auroc_micro"), ("AUROC macro", "auroc_macro"),
            ("AUPRC micro", "auprc_micro"), ("AUPRC macro", "auprc_macro"),
            ("Log-likelihood", "max_log_likelihood"))
    width = max(14, max(len(i) for i in ids) + 2)
    header = f"{'':<16}" + "".join(f"{i:>{width}}" for i in ids)
    lines = [header]
    for title, attr in rows:
        cells = []
        for i in ids:
            v = getattr(by_id[i], attr)
            if v is None:
                cells.append(f"{'--':>{width}}")
            elif attr == "max_log_likelihood":
                cells.append(f"{v:>{width}.6g}")
            else:
                cells.append(f"{v:>{width}.3f}")
        lines.append(f"{title:<16}" + "".join(cells))
    return "\n".join(lines) + "\n"

