"""Held-out label prediction, baseline classifiers, and the metric suite
(micro/macro AUROC and AUPRC, plus the best state's collapsed log joint,
model.collapsed_log_joint, as the log_likelihood row).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

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
from .util import substream

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
    widths = [phi_s.shape[1] for phi_s in trained.phi]
    if widths != [len(voc) for voc in test_corpus.vocab]:
        raise DataError(f"trained phi has {widths} words per source, the test "
                        f"vocabularies {[len(v) for v in test_corpus.vocab]}")
    P = hyper.num_phenotypes
    if trained.theta.shape[1] != P or trained.B.shape != (P,):
        raise DataError(
            f"trained state (theta {trained.theta.shape}, B "
            f"{trained.B.shape}) does not have the configured {P} phenotypes")
    rng = substream(seed, "evaluation.heldout")
    D = test_corpus.num_patients
    state = ModelState(
        theta=np.empty((D, P)), phi=trained.phi,
        z=gibbs.initial_z(test_corpus, P, rng),
        # start fully active: when Bstar is a spike near zero the
        # off-to-on move has vanishing probability, so the chain must
        # prune activations rather than discover them
        A=np.ones((D, P), dtype=np.int8),
        B=trained.B, Bstar=float(trained.Bstar))
    gibbs.draw_theta(state, gibbs.phenotype_counts(state, test_corpus), rng)

    clamp = np.tile(np.where(trained.B == trained.Bstar, 1, -1).astype(np.int8),
                    (D, 1))
    plan = gibbs.ZPlan.of(test_corpus, P)
    a_sum, theta_sum = np.zeros((D, P)), np.zeros((D, P))
    try:
        for it in range(burn_in + samples):
            gibbs.local_step(state, test_corpus, plan, clamp, hyper.alpha,
                             rng)
            if it >= burn_in:
                a_sum += state.A
                theta_sum += state.theta
    finally:
        plan.close()

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
    s_sorted = scores[order]
    t_sorted = truth[order]
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
    values = []
    skipped = 0
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
    """Fit one-vs-rest naive Bayes.

    multinomial: token counts with add-one smoothing (raw-token features);
    gaussian: per-dimension mean/variance with a variance floor (simplex
    features). Returns an opaque model dict for nb_predict.
    """
    X = np.asarray(features, dtype=float)
    Y = np.asarray(truth).astype(bool)
    if mode not in (NB_MULTINOMIAL, NB_GAUSSIAN):
        raise ConfigError(f"unknown naive Bayes mode {mode!r}")
    n, _ = X.shape
    models = []
    for j in range(Y.shape[1]):
        y = Y[:, j]
        n1 = int(y.sum())
        n0 = n - n1
        log_prior = np.log((n1 + 1.0) / (n + 2.0)) - np.log(
            (n0 + 1.0) / (n + 2.0))
        if n1 == 0 or n0 == 0:
            # degenerate class: fall back to the prior log-odds alone
            models.append({"degenerate": True, "log_prior": log_prior})
            continue
        if mode == NB_MULTINOMIAL:
            c1 = X[y].sum(axis=0) + 1.0
            c0 = X[~y].sum(axis=0) + 1.0
            models.append({
                "degenerate": False,
                "log_prior": log_prior,
                "log_p1": np.log(c1 / c1.sum()),
                "log_p0": np.log(c0 / c0.sum()),
            })
        else:
            models.append({
                "degenerate": False,
                "log_prior": log_prior,
                "mu1": X[y].mean(axis=0),
                "var1": np.maximum(X[y].var(axis=0), _VAR_FLOOR),
                "mu0": X[~y].mean(axis=0),
                "var0": np.maximum(X[~y].var(axis=0), _VAR_FLOOR),
            })
    return {"mode": mode, "labels": models}


def nb_predict(model, features) -> np.ndarray:
    """Posterior log-odds scores, one column per label."""
    X = np.asarray(features, dtype=float)
    cols = []
    for m in model["labels"]:
        if m["degenerate"]:
            cols.append(np.full(X.shape[0], m["log_prior"]))
        elif model["mode"] == NB_MULTINOMIAL:
            cols.append(m["log_prior"] + X @ (m["log_p1"] - m["log_p0"]))
        else:
            ll1 = -0.5 * (np.log(2 * np.pi * m["var1"])
                          + (X - m["mu1"]) ** 2 / m["var1"]).sum(axis=1)
            ll0 = -0.5 * (np.log(2 * np.pi * m["var0"])
                          + (X - m["mu0"]) ** 2 / m["var0"]).sum(axis=1)
            cols.append(m["log_prior"] + ll1 - ll0)
    return np.column_stack(cols)


def _lr_loss(w, Xb, y, lam):
    """L2-regularized logistic loss, intercept (last coordinate) not
    regularized, and the logits Xb @ w it was computed from."""
    logits = Xb @ w
    # log(1 + exp(-m)) with m = y_pm * logits, stable both directions
    m = np.where(y, logits, -logits)
    loss = float(np.logaddexp(0.0, -m).sum())
    loss += 0.5 * lam * float(w[:-1] @ w[:-1])
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


# Below this scale no screened or exact line-search trial can overflow.
_SCREEN_MAX = 1e300


def _line_search(w, loss, logits, grad, Xb, y, lam, col_abs):
    """Backtracking along -grad from t = 1, halving while t > 1e-14: the
    (w_new, loss, logits) of the first trial whose exact _lr_loss falls
    below loss, or None if no trial does.

    Each trial is screened first on the cached logits, logits - t * Xg
    with Xg = Xb @ grad computed once, and the ridge term in closed form,
    lam/2 (|w|^2 - 2t <w, grad> + t^2 |grad|^2) over the non-intercept
    coordinates. A screened loss above loss + margin rejects the trial
    without a matvec. The margin, 4 (n + D + 8) eps times a scale that
    bounds every logit, loss and ridge term of the step's trials, bounds
    the screen's rounding error and that of the exact loss (the summation
    bounds of the matvecs, the sums and the ridge dots; log(1 + e^-m) is
    1-Lipschitz in m), so every trial it rejects the exact loss rejects
    too, and with a finite value. Before the screen, a cheaper bound
    rejects most trials: the sum of max(-m, 0) plus the ridge term. As
    log(1 + e^-m) >= max(-m, 0), and rounding is monotone, each computed
    logaddexp term is at least the exact max, and the same summation of
    smaller terms gives a sum no larger than the screen's. A bound above
    loss + margin thus means a screened loss above it: the bound rejects
    only trials the screen rejects. Every other trial, and every trial of
    a step whose scale reaches _SCREEN_MAX, gets the exact loss.
    """
    n, D = Xb.shape
    with np.errstate(over="ignore", invalid="ignore"):  # scale may be inf
        ww, wg, gg = (float(a[:-1] @ b[:-1])
                      for a, b in ((w, w), (w, grad), (grad, grad)))
        cw, cg = float(col_abs @ np.abs(w)), float(col_abs @ np.abs(grad))
    norms = math.sqrt(ww) + math.sqrt(gg)
    scale = n + cw + cg + (1.0 + lam) * norms * norms
    screen = scale < _SCREEN_MAX
    if screen:
        margin = 4 * (n + D + 8) * np.finfo(float).eps * scale
        sign = 2.0 * y - 1.0
        m_now, m_dir = sign * logits, sign * (Xb @ grad)
        buf, hinge = np.empty(n), np.empty(n)
    t = 1.0
    while t > 1e-14:
        if screen:
            # -m at w - t * grad is t * m_dir - m_now
            np.multiply(m_dir, t, out=buf)
            buf -= m_now
            ridge = 0.5 * lam * (ww - 2.0 * t * wg + t * t * gg)
            bound = float(np.maximum(buf, 0.0, out=hinge).sum()) + ridge
            if (bound > loss + margin
                    or float(np.logaddexp(0.0, buf, out=buf).sum()) + ridge
                    > loss + margin):
                t *= 0.5
                continue
        w_new = w - t * grad
        new_loss, new_logits = _lr_loss(w_new, Xb, y, lam)
        if not np.isfinite(new_loss):
            raise OptimizationError("objective diverged to a non-finite value")
        if new_loss < loss:
            return w_new, new_loss, new_logits
        t *= 0.5
    return None


def lr_train(features, truth, lam: float = 1.0, epochs: int = 200):
    """One-vs-rest L2 logistic regression by full-batch gradient descent
    with backtracking line search from a unit step (objective decreases
    monotonically).

    The line search (_line_search) screens each trial on the current
    logits and Xb @ grad: a trial whose screened loss is above the
    current loss by more than a margin that bounds the rounding error of
    the screen and of the exact loss is rejected without a matvec, and
    only the others get the exact _lr_loss. An accepted step thus costs
    three matvecs, Xb @ grad, the exact loss of the accepted trial and
    the gradient from its logits, and each rejected trial O(n). The
    screen skips only trials the exact loss rejects, so the weights, and
    any OptimizationError, are those of the loop that evaluates every
    trial exactly, bit for bit."""
    _check_lr_settings(lam, epochs)
    X = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DataError("features must be finite")
    Y = np.asarray(truth).astype(bool)
    Xb = np.column_stack([X, np.ones(X.shape[0])])
    col_abs = np.abs(Xb).sum(axis=0)
    weights = []
    for j in range(Y.shape[1]):
        y = Y[:, j].astype(float)
        w = np.zeros(Xb.shape[1])
        loss, logits = _lr_loss(w, Xb, y, lam)
        grad = _lr_grad(w, logits, Xb, y, lam)
        for _ in range(epochs):
            if float(grad @ grad) < 1e-18:
                break
            step = _line_search(w, loss, logits, grad, Xb, y, lam, col_abs)
            if step is None:
                # no step along -grad improves the objective: we are at
                # the floating-point optimum, which counts as converged
                break
            w, loss, logits = step
            grad = _lr_grad(w, logits, Xb, y, lam)
        weights.append(w)
    return {"weights": np.array(weights), "lam": lam}


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
    blocks = []
    for s, w in enumerate(corpus.tokens):
        blocks.append(count_pairs(w.doc_idx, w.flat, corpus.num_patients,
                                  len(corpus.vocab[s])))
    return np.hstack(blocks).astype(float)


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


def evaluate_suite(artifacts: dict, train_corpus: Corpus,
                   train_labels: LabelMatrix, test_corpus: Corpus,
                   test_labels: LabelMatrix, hyper: Hyperparameters,
                   burn_in: int = 50, samples: int = 100, seed: int = 0,
                   lr_lam: float = 1.0, lr_epochs: int = 200):
    """One MetricsReport per configured column.

    artifacts maps a subset of STATE_ARTIFACTS to (ModelState,
    max_log_likelihood). Missing artifacts yield placeholder (all-None)
    reports. The raw-token columns need no artifact. An ss3m column
    scores the first phenotypes, one per label column; the train and test
    labels must name the same columns, at least one (DataError), and at
    most hyper.num_labeled when an ss3m column is scored (ConfigError).
    The chain and logistic-regression settings are checked before any
    chain runs.
    """
    _check_chain_settings(burn_in, samples)
    _check_lr_settings(lr_lam, lr_epochs)
    if train_labels.label_names != test_labels.label_names:
        raise DataError(
            f"train labels {train_labels.label_names} and test labels "
            f"{test_labels.label_names} name different columns")
    if not test_labels.num_labels:
        raise DataError("the labels have no column to score")
    truth_test = truth_matrix(test_labels)
    truth_train = truth_matrix(train_labels)
    reports = []

    def classify(prefix, feats_train, feats_test, nb_mode, max_ll):
        """The <prefix>_lr and <prefix>_nb reports."""
        model = lr_train(feats_train, truth_train, lam=lr_lam,
                         epochs=lr_epochs)
        reports.append(compute_report(f"{prefix}_lr",
                                      lr_predict(model, feats_test),
                                      truth_test, max_ll))
        model = nb_train(feats_train, truth_train, nb_mode)
        reports.append(compute_report(f"{prefix}_nb",
                                      nb_predict(model, feats_test),
                                      truth_test, max_ll))

    for col in STATE_ARTIFACTS[:4]:
        if col not in artifacts:
            logger.warning("no artifact for %s; emitting placeholder", col)
            reports.append(MetricsReport(model_id=col))
            continue
        if test_labels.num_labels > hyper.num_labeled:
            raise ConfigError(
                f"label matrix has more columns ({test_labels.num_labels}) "
                f"than model.num_labeled ({hyper.num_labeled})")
        state, max_ll = artifacts[col]
        res = heldout_infer(test_corpus, state, hyper, burn_in=burn_in,
                            samples=samples, seed=seed)
        reports.append(compute_report(
            col, res.scores[:, :test_labels.num_labels], truth_test, max_ll))

    for base_id in STATE_ARTIFACTS[4:]:
        if base_id not in artifacts:
            logger.warning("no artifact for %s; emitting placeholders", base_id)
            reports += [MetricsReport(model_id=f"{base_id}_{clf}")
                        for clf in ("lr", "nb")]
            continue
        # one held-out chain per base model feeds both classifiers; they
        # train on the best state's theta of the training patients
        state, max_ll = artifacts[base_id]
        if state.theta.shape[0] != train_corpus.num_patients:
            raise DataError(
                f"{base_id}: theta has {state.theta.shape[0]} patients, the "
                f"training corpus {train_corpus.num_patients}")
        res = heldout_infer(test_corpus, state, hyper, burn_in=burn_in,
                            samples=samples, seed=seed)
        classify(base_id, state.theta, res.theta_mean, NB_GAUSSIAN, max_ll)

    classify("raw", raw_token_features(train_corpus),
             raw_token_features(test_corpus), NB_MULTINOMIAL, None)
    return reports


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

