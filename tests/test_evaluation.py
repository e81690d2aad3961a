import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels
from conftest import fresh_stdout, make_hyper
from ss3m import evaluation
from ss3m.errors import (
    ConfigError,
    DataError,
    OptimizationError,
    SamplingError,
    UndefinedMetricError,
)
from ss3m.evaluation import (
    NB_GAUSSIAN,
    NB_MULTINOMIAL,
    auprc,
    auroc,
    evaluate_suite,
    heldout_infer,
    lr_train,
    lr_predict,
    micro_macro,
    nb_train,
    nb_predict,
    raw_token_features,
    truth_matrix,
)
from ss3m.model import (
    Corpus,
    DocLengthSpec,
    LabelMatrix,
    ModelState,
    generate,
    labels_from_activations,
    prior_matrix,
)
from ss3m.util import sample_dirichlet


def brute_force_auroc(scores, truth):
    """O(n^2) pair counting: P(pos > neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    pos = scores[truth]
    neg = scores[~truth]
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def brute_force_auprc(scores, truth):
    """Threshold enumeration: sum precision * recall increments over the
    descending unique thresholds."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    n_pos = truth.sum()
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = int((predicted & truth).sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def random_instance(rng, n=200, tie_prone=True):
    scores = (rng.integers(0, 12, size=n).astype(float) if tie_prone
              else rng.normal(size=n))
    truth = rng.random(n) < 0.3
    if truth.all() or not truth.any():
        truth[0], truth[1] = True, False
    return scores, truth


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            scores, truth = random_instance(rng)
            assert auroc(scores, truth) == pytest.approx(
                brute_force_auroc(scores, truth), abs=1e-12)

    def test_degenerate_truth(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_nan_score_gives_nan(self):
        assert math.isnan(auroc([0.1, np.nan, 0.3], [1, 0, 1]))
        assert math.isnan(auroc([np.nan, 0.2, 0.3], [1, 0, 1]))
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, np.nan], [1, 1])


# Scores where sorting and tie handling are easiest to get wrong: signed
# zeros, infinities, the ends of the float range and small integers,
# which tie often.
AUROC_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 1e300, -1e300,
                     5e-324]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False))


class TestAurocMatchesRankSum:
    """auroc counts U from the sorted negatives; the rank-sum formula it
    replaced (reference_kernels.auroc) must give the same float, bit for
    bit, and the same error for one-class truth."""

    @staticmethod
    def _assert_same(scores, truth):
        try:
            expected = reference_kernels.auroc(scores, truth)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                auroc(scores, truth)
            return
        got = auroc(scores, truth)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(AUROC_SCORES, st.booleans()), min_size=1,
                    max_size=60))
    @example([(0.5, True), (0.5, False), (0.5, False), (0.5, True)])
    @example([(np.inf, True), (np.inf, False), (-np.inf, False)])
    @example([(-0.0, True), (0.0, False), (0.0, True), (-0.0, False)])
    @example([(1e300, True), (-1e300, False), (1e300, False)])
    @example([(2.0, True), (2.0, True)])
    def test_bitwise_equal_to_rank_sum(self, pairs):
        scores, truth = zip(*pairs)
        self._assert_same(list(scores), list(truth))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, st.integers(1, 60),
                  elements=st.integers(-5, 5)),
           st.data())
    def test_integer_scores_bitwise_equal(self, scores, data):
        truth = data.draw(arrays(np.bool_, scores.shape))
        self._assert_same(scores, truth)

    def test_long_tied_vectors_bitwise_equal(self, rng):
        for n in (1000, 100_000):
            scores = rng.integers(0, 7, size=n).astype(float)
            truth = rng.random(n) < 0.3
            self._assert_same(scores, truth)


def test_package_imports_no_scipy():
    # the package calls two scipy.special ufuncs, which it imports at
    # their first call: scipy.special alone is more than half the start-up
    # time of every command, scipy.stats more again
    code = ("import sys, ss3m, ss3m.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    assert fresh_stdout(code).strip() == "[]"


class TestAuprc:
    def test_perfect_ranking(self):
        scores = [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]
        truth = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        assert auprc(scores, truth) == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            scores, truth = random_instance(rng)
            assert auprc(scores, truth) == pytest.approx(
                brute_force_auprc(scores, truth), abs=1e-12)

    def test_random_scores_approach_prevalence(self, rng):
        # permutation oracle: a random ranker scores near the prevalence
        # pi (slightly above it at finite n, the usual small-sample bias)
        n, trials = 200, 1000
        truth = np.zeros(n, dtype=bool)
        truth[:50] = True  # pi = 0.25
        values = [auprc(rng.normal(size=n), truth) for _ in range(trials)]
        mean = np.mean(values)
        assert 0.25 <= mean < 0.30

    def test_no_positives(self):
        with pytest.raises(UndefinedMetricError):
            auprc([0.3, 0.4], [0, 0])

    def test_nan_score_gives_nan(self):
        # as auroc does; a NaN is not ranked below every other score
        assert math.isnan(auprc([0.1, np.nan, 0.3], [1, 0, 1]))
        assert math.isnan(auprc([np.nan, 0.2, 0.3], [1, 0, 1]))
        with pytest.raises(UndefinedMetricError):
            auprc([0.1, np.nan], [0, 0])


class TestMicroMacro:
    def test_single_label(self):
        scores = np.array([[0.9], [0.1], [0.5]])
        truth = np.array([[1], [0], [0]])
        micro, macro = micro_macro(auroc, scores, truth)
        assert micro == macro == auroc(scores[:, 0], truth[:, 0])

    def test_macro_is_unweighted_mean(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.5], [0.8, 0.5], [0.2, 0.5]])
        truth = np.array([[1, 1], [0, 0], [1, 0], [0, 1]])
        _, macro = micro_macro(auroc, scores, truth)
        assert macro == pytest.approx((1.0 + 0.5) / 2)

    def test_micro_pools_flattened_pairs(self, rng):
        scores = rng.normal(size=(30, 2))
        truth = (rng.random((30, 2)) < 0.4).astype(int)
        truth[0] = [1, 1]
        truth[1] = [0, 0]
        micro, _ = micro_macro(auroc, scores, truth)
        assert micro == pytest.approx(
            brute_force_auroc(scores.ravel(), truth.ravel()), abs=1e-12)

    def test_degenerate_labels_skipped(self, rng):
        scores = rng.normal(size=(10, 2))
        truth = np.zeros((10, 2), dtype=int)
        truth[:3, 0] = 1  # second label has no positives
        _, macro = micro_macro(auroc, scores, truth)
        assert macro == auroc(scores[:, 0], truth[:, 0])


class TestNaiveBayes:
    def test_self_similarity_tops_column(self, rng):
        X = rng.integers(0, 5, size=(20, 6)).astype(float)
        Y = np.zeros((20, 1), dtype=int)
        Y[3] = 1
        model = nb_train(X, Y, NB_MULTINOMIAL)
        all_scores = nb_predict(model, X)
        assert int(np.argmax(all_scores[:, 0])) == 3

    def test_hand_computed_smoothed_ratios(self):
        # two tokens, two patients per class
        X = np.array([[3.0, 0.0], [2.0, 1.0], [0.0, 3.0], [1.0, 2.0]])
        Y = np.array([[1], [1], [0], [0]])
        model = nb_train(X, Y, NB_MULTINOMIAL)
        # class 1 counts: (5, 1) + 1 smoothing -> p1 = (6/8, 2/8)
        # class 0 counts: (1, 5) + 1 smoothing -> p0 = (2/8, 6/8)
        x = np.array([[2.0, 1.0]])
        want = (math.log(0.5) - math.log(0.5)
                + 2 * (math.log(6 / 8) - math.log(2 / 8))
                + 1 * (math.log(2 / 8) - math.log(6 / 8)))
        got = nb_predict(model, x)[0, 0]
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", [NB_MULTINOMIAL, NB_GAUSSIAN])
    @pytest.mark.parametrize("carried", [0, 1], ids=["absent", "present"])
    def test_degenerate_label_scores_exactly_the_prior(self, rng, mode,
                                                       carried):
        # an ordinary column beside one that no (or every) patient carries
        X = rng.integers(0, 5, size=(8, 3)).astype(float)
        Y = np.column_stack([rng.integers(0, 2, size=8), np.full(8, carried)])
        Y[:2, 0] = [0, 1]
        scores = nb_predict(nb_train(X, Y, mode), X)
        # smoothed prior log-odds: (1/10) / (9/10) absent, its inverse present
        want = np.log(1 / 10) - np.log(9 / 10)
        assert (scores[:, 1] == (-want if carried else want)).all()
        for j in range(2):
            alone = nb_predict(nb_train(X, Y[:, j:j + 1], mode), X)
            assert np.array_equal(scores[:, j], alone[:, 0])

    def test_gaussian_mode_separates(self, rng):
        X = np.vstack([rng.normal(0, 0.1, size=(25, 2)),
                       rng.normal(3, 0.1, size=(25, 2))])
        Y = np.zeros((50, 1), dtype=int)
        Y[25:] = 1
        model = nb_train(X, Y, NB_GAUSSIAN)
        scores = nb_predict(model, X)
        assert auroc(scores[:, 0], Y[:, 0]) == 1.0


class TestLogisticRegression:
    def test_separable_fixture(self):
        X = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 1.1]])
        Y = np.array([[0], [0], [1], [1]])
        model = lr_train(X, Y, lam=0.01, epochs=500)
        scores = lr_predict(model, X)
        assert auroc(scores[:, 0], Y[:, 0]) == 1.0

    def test_gradient_matches_finite_differences(self, rng):
        from ss3m.evaluation import _lr_grad, _lr_loss
        X = rng.normal(size=(15, 3))
        Xb = np.column_stack([X, np.ones(15)])
        y = (rng.random(15) < 0.5).astype(float)
        w = rng.normal(size=4)
        _, logits = _lr_loss(w, Xb, y, lam=0.7)
        assert np.array_equal(logits, Xb @ w)
        grad = _lr_grad(w, logits, Xb, y, lam=0.7)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp, _ = _lr_loss(w + e, Xb, y, 0.7)
            fm, _ = _lr_loss(w - e, Xb, y, 0.7)
            assert grad[i] == pytest.approx((fp - fm) / (2 * h), rel=1e-6,
                                            abs=1e-8)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 4),
           labels=st.integers(1, 3),
           scale=st.sampled_from([1.0, 30.0, 1e200]),
           lam=st.sampled_from([0.0, 1e-3, 1.0, 1e8]),
           epochs=st.integers(0, 40))
    @example(data=None, n=6, d=2, labels=1, scale=1e200, lam=1.0, epochs=5)
    def test_weights_match_the_gradient_per_trial_loop(
            self, data, n, d, labels, scale, lam, epochs):
        # the loop that computed a gradient on every line-search trial:
        # the same weights bit for bit, or the same error
        if data is None:  # features ~1e200: the objective diverges
            X = np.full((n, d), scale)
            X[::2] *= -1.0
            Y = np.arange(n)[:, None] % 2
        else:
            X = scale * data.draw(arrays(np.float64, (n, d),
                                         elements=st.floats(-1.0, 1.0)))
            Y = data.draw(arrays(np.int64, (n, labels),
                                 elements=st.integers(0, 1)))
        outcomes = []
        for fit in (lr_train, reference_kernels.lr_train):
            try:
                with np.errstate(all="ignore"):
                    outcomes.append(fit(X, Y, lam=lam, epochs=epochs)
                                    ["weights"].tobytes())
            except OptimizationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if data is None:
            assert outcomes[0] == "objective diverged to a non-finite value"

    @staticmethod
    def _count_problem():
        """Raw-token-shaped features: 800 patients, Poisson counts over 500
        words of Gamma-spread rates, 6 labels."""
        rng = np.random.default_rng(7)
        X = rng.poisson(rng.gamma(0.3, 2.0, size=500), size=(800, 500))
        return X.astype(float), (rng.random((800, 6)) < 0.3).astype(int)

    def test_count_features_match_the_gradient_per_trial_loop(self):
        # raw-token-shaped features, where the accepted t is far below 1
        X, Y = self._count_problem()
        ours = lr_train(X, Y, lam=1.0, epochs=30)["weights"]
        theirs = reference_kernels.lr_train(X, Y, lam=1.0, epochs=30)["weights"]
        assert ours.tobytes() == theirs.tobytes()

    @staticmethod
    def _small_count_problem(seed):
        """(X, Y, lam): up to 60 patients, Poisson counts over up to 19
        words, 2 labels; tools/cli_digest.py builds the same problems."""
        rng = np.random.default_rng(seed)
        n, d = rng.integers(5, 60), rng.integers(1, 20)
        X = rng.poisson(rng.gamma(0.5, 2.0, size=d), size=(n, d))
        Y = (rng.random((n, 2)) < 0.4).astype(int)
        return X.astype(float), Y, (0.0, 1e-3, 1.0)[seed % 3]

    def test_fits_run_to_the_float_optimum_match_the_loop(self):
        # 400 epochs on small count problems reach steps whose loss change
        # is at rounding level, where trial losses tie the current loss;
        # tools/cli_digest.py hashes these fits (library/lr-optimum-*)
        for seed in range(60):
            X, Y, lam = self._small_count_problem(seed)
            fits = [fit(X, Y, lam=lam, epochs=400)["weights"]
                    for fit in (lr_train, reference_kernels.lr_train)]
            assert fits[0].tobytes() == fits[1].tobytes(), seed

    def test_a_search_that_finds_no_step_stops_after_t_2_to_the_minus_46(
            self, monkeypatch):
        # features of 1e12 give the loss along -grad a curvature that no
        # t >= 2^-46 survives: the first search tries t = 1, 1/2, ...,
        # 2^-46 (the last halving above 1e-14) and the fit stops at w = 0
        X = np.array([[1e12], [1e12], [-1e12]])
        Y = np.array([[1], [0], [0]])
        calls = []
        loss_fn = evaluation._lr_loss
        monkeypatch.setattr(evaluation, "_lr_loss",
                            lambda *args: calls.append(1) or loss_fn(*args))
        assert not lr_train(X, Y, lam=1.0, epochs=5)["weights"].any()
        assert len(calls) == 1 + 47

    def test_at_most_three_losses_per_accepted_step(self, monkeypatch):
        # _lr_grad runs once per label at the start and once per accepted
        # step; a search that starts from the last step's t mostly needs
        # that trial and one doubling, not a backtrack from t = 1
        X, Y = self._count_problem()
        calls = {"loss": 0, "grad": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(evaluation, "_lr_loss",
                            counted("loss", evaluation._lr_loss))
        monkeypatch.setattr(evaluation, "_lr_grad",
                            counted("grad", evaluation._lr_grad))
        lr_train(X, Y, lam=1.0, epochs=30)
        assert calls["grad"] > 6 * 20  # most of the 30 epochs take a step
        assert calls["loss"] <= 3 * calls["grad"]

    @staticmethod
    def _accepted_steps(X, Y, lam, epochs):
        """Every step lr_train accepts on (X, Y), up to an
        OptimizationError, as (Xb, y, w, grad, t), read from its _lr_grad
        calls: w - t * grad is the next point, t the largest power of two
        that gives it."""
        points = []
        grad_fn = evaluation._lr_grad

        def recorded(w, logits, Xb, y, lam):
            grad = grad_fn(w, logits, Xb, y, lam)
            points.append((Xb, y, w, grad))
            return grad

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(evaluation, "_lr_grad", recorded)
            try:
                lr_train(X, Y, lam=lam, epochs=epochs)
            except OptimizationError:
                pass
        steps = []
        for (Xb, y, w, grad), (_, y_next, w_next, _) in zip(points,
                                                            points[1:]):
            if y_next is not y:  # the next label's first point
                continue
            t = next(t for t in 0.5 ** np.arange(47)
                     if np.array_equal(w - t * grad, w_next))
            steps.append((Xb, y, w, grad, t))
        return steps

    @staticmethod
    def _losses(Xb, y, w, grad, lam, ts):
        """_lr_loss at w and at w - t * grad for each t."""
        with np.errstate(all="ignore"):
            return [evaluation._lr_loss(w - t * grad, Xb, y, lam)[0]
                    for t in (0.0, *ts)]

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 4),
           labels=st.integers(1, 3),
           scale=st.sampled_from([1.0, 30.0, 1e200]),
           lam=st.sampled_from([0.0, 1e-3, 1.0, 1e8]),
           epochs=st.integers(0, 40))
    def test_each_step_lowers_the_loss_and_its_double_does_not(
            self, data, n, d, labels, scale, lam, epochs):
        X = scale * data.draw(arrays(np.float64, (n, d),
                                     elements=st.floats(-1.0, 1.0)))
        Y = data.draw(arrays(np.int64, (n, labels),
                             elements=st.integers(0, 1)))
        for Xb, y, w, grad, t in self._accepted_steps(X, Y, lam, epochs):
            longer = (2.0 * t,) if t < 1.0 else ()
            now, at_t, *at_2t = self._losses(Xb, y, w, grad, lam,
                                             (t, *longer))
            assert at_t < now
            assert all(loss >= now for loss in at_2t)

    def test_steps_on_traffic_shaped_features_are_those_from_a_unit_start(
            self):
        # each accepted t is the largest 2^-k <= 1 that lowers the loss,
        # the step of a backtracking search restarted at t = 1 every time;
        # the theta of a pipeline-shaped generate stands in for mc3m's
        h = make_hyper(P=10, P_lab=6, S=2, alpha=0.1, gamma=0.01,
                       b_shape=10.0, b_scale=1.0, bstar_shape=0.01,
                       bstar_scale=1.0)
        _, truth = generate(h, [1000, 300], DocLengthSpec.fixed(1, 2), 800,
                            seed=3006)
        theta_problem = (truth.theta, truth.A[:, :6])
        for X, Y in (self._count_problem(), theta_problem):
            steps = self._accepted_steps(X, Y, 1.0, 30)
            assert len(steps) > 6 * 20
            for Xb, y, w, grad, t in steps:
                longer = 2.0 ** -np.arange(round(-np.log2(t)))
                now, at_t, *at_longer = self._losses(Xb, y, w, grad, 1.0,
                                                     (t, *longer))
                assert at_t < now
                assert all(loss >= now for loss in at_longer)

    @pytest.mark.parametrize("lam, epochs", [
        (1.0, -3), (-1.0, 10), (float("nan"), 10), (float("inf"), 10),
    ])
    def test_bad_settings_are_config_errors(self, lam, epochs):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[0], [1]])
        with pytest.raises(ConfigError, match="epochs >= 0 and 0 <= lambda"):
            lr_train(X, Y, lam=lam, epochs=epochs)

    def test_huge_regularization_kills_weights(self, rng):
        X = rng.normal(size=(40, 3))
        Y = (rng.random((40, 1)) < 0.3).astype(int)
        model = lr_train(X, Y, lam=1e8, epochs=300)
        w = model["weights"][0]
        assert np.all(np.abs(w[:-1]) < 1e-4)  # intercept-only predictor
        scores = lr_predict(model, X)
        assert np.ptp(scores[:, 0]) < 1e-3


def _trained_toy(seed=0, P=3, P_lab=2, D=40):
    h = make_hyper(P=P, P_lab=P_lab, S=1, alpha=0.3, gamma=0.05,
                   iterations=0)
    corpus, truth = generate(h, [30], DocLengthSpec.poisson(40, 1), D,
                             seed=seed)
    return h, corpus, truth


class TestHeldoutInfer:
    def test_single_sample_scores_are_binary(self):
        h, corpus, truth = _trained_toy()
        res = heldout_infer(corpus, truth, h, burn_in=0, samples=1, seed=1)
        assert set(np.unique(res.scores)) <= {0.0, 1.0}

    @pytest.mark.parametrize("settings, message", [
        ({"burn_in": -2, "samples": 4}, "burn_in"),
        ({"samples": 0}, "samples"),
    ])
    def test_bad_chain_settings_are_config_errors(self, settings, message):
        h, corpus, truth = _trained_toy()
        with pytest.raises(ConfigError, match=message):
            heldout_infer(corpus, truth, h, seed=1, **settings)

    def test_state_with_fewer_sources_is_data_error(self):
        h = make_hyper(P=3, P_lab=2, S=2, alpha=0.3, gamma=0.05)
        corpus, truth = generate(h, [20, 10], DocLengthSpec.poisson(10, 2),
                                 12, seed=3)
        truth.phi = truth.phi[:1]
        with pytest.raises(DataError, match=r"phi has \[20\] words per "
                                            r"source, the test vocabularies "
                                            r"\[20, 10\]"):
            heldout_infer(corpus, truth, h, burn_in=0, samples=1, seed=1)

    def test_state_with_more_sources_is_data_error(self):
        h, corpus, truth = _trained_toy()
        truth.phi = truth.phi * 2
        with pytest.raises(DataError, match=r"phi has \[30, 30\] words "
                                            r"per source, the test "
                                            r"vocabularies \[30\]"):
            heldout_infer(corpus, truth, h, burn_in=0, samples=1, seed=1)

    def test_phenotype_with_b_equal_to_bstar_is_clamped_on(self):
        # B_1 == Bstar: phenotype 1's bits change no prior and stay on,
        # while phenotypes 0 and 2 are drawn (each has a patient whose
        # bit is off in every retained sample; the chain starts all on)
        h, corpus, truth = _trained_toy()
        truth.B[1] = truth.Bstar
        res = heldout_infer(corpus, truth, h, burn_in=2, samples=5, seed=1)
        assert np.all(res.activation_mean[:, 1] == 1.0)
        assert np.all(res.activation_mean[:, [0, 2]].min(axis=0) == 0.0)

    def test_non_finite_log_odds_names_the_cell(self):
        # an infinite Bstar makes every activation log-odds inf - inf; the
        # held-out scan stops at the first cell instead of reading it as
        # inactive
        h, corpus, truth = _trained_toy()
        truth.Bstar = float("inf")
        with pytest.raises(SamplingError,
                           match=r"patient 0, phenotype 0\b"):
            heldout_infer(corpus, truth, h, burn_in=0, samples=1, seed=1)

    def test_zero_token_patient_scores_prior_marginal(self):
        # with no tokens, theta integrates out and the exact activation
        # marginal is alpha (enumeration over A configurations: the
        # Dirichlet normalizers cancel patient-wise)
        h = make_hyper(P=3, P_lab=3, alpha=0.3, gamma=0.5)
        corpus = Corpus(vocab=[["a", "b"]], tokens=[[np.empty(0, dtype=int)]])
        trained = ModelState(
            theta=np.full((1, 3), 1 / 3), phi=[np.full((3, 2), 0.5)],
            z=[[np.empty(0, dtype=int)]], A=np.ones((1, 3), dtype=np.int8),
            B=np.array([2.0, 2.0, 2.0]), Bstar=0.5)
        res = heldout_infer(corpus, trained, h, burn_in=200, samples=4000,
                            seed=5)
        assert np.all(np.abs(res.scores - h.alpha) < 0.05)

    def test_scores_match_enumerated_posterior(self):
        # disjoint phenotype supports force every token assignment, so
        # theta integrates out and the activation posterior is an exact
        # 2^P enumeration:
        #   log p(A) + lgamma(T) - lgamma(T + N)
        #     + sum_p [lgamma(prior_p + n_p) - lgamma(prior_p)]
        from scipy.special import gammaln

        h = make_hyper(P=3, P_lab=3, alpha=0.1, gamma=0.05)
        phi = np.zeros((3, 30))
        for p in range(3):
            phi[p, 10 * p:10 * (p + 1)] = 0.1
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 10, size=200).astype(np.int64)
        counts = np.array([200.0, 0.0, 0.0])
        corpus = Corpus(vocab=[[f"w{v}" for v in range(30)]],
                        tokens=[[tokens]])
        trained = ModelState(
            theta=np.full((1, 3), 1 / 3), phi=[phi],
            z=[[np.zeros(200, dtype=np.int64)]],
            A=np.ones((1, 3), dtype=np.int8),
            B=np.full(3, 10.0), Bstar=0.01)

        log_post = {}
        for bits in range(8):
            a = np.array([(bits >> p) & 1 for p in range(3)])
            prior = np.where(a == 1, trained.B, trained.Bstar)
            lp = (np.sum(a * math.log(h.alpha)
                         + (1 - a) * math.log(1 - h.alpha))
                  + gammaln(prior.sum()) - gammaln(prior.sum() + 200)
                  + np.sum(gammaln(prior + counts) - gammaln(prior)))
            log_post[bits] = lp
        norm = np.logaddexp.reduce(list(log_post.values()))
        want = [sum(math.exp(lp - norm) for bits, lp in log_post.items()
                    if (bits >> p) & 1) for p in range(3)]

        res = heldout_infer(corpus, trained, h, burn_in=100, samples=3000,
                            seed=6)
        got = res.scores[0]
        assert np.all(np.abs(got - np.array(want)) < 0.04)

    def test_patient_order_invariance_in_distribution(self):
        # use a gently mixing state (moderate B, B*) so per-patient chains
        # explore both activation values and the score means are stable
        h = make_hyper(P=2, P_lab=2, alpha=0.4, gamma=0.5)
        rng = np.random.default_rng(11)
        phi = sample_dirichlet(np.full((2, 10), 0.5), rng)
        tokens = [rng.integers(0, 10, size=12).astype(np.int64)
                  for _ in range(5)]
        corpus = Corpus(vocab=[[f"w{v}" for v in range(10)]],
                        tokens=[tokens])
        trained = ModelState(
            theta=np.full((5, 2), 0.5), phi=[phi],
            z=[[np.zeros(12, dtype=np.int64) for _ in range(5)]],
            A=np.ones((5, 2), dtype=np.int8),
            B=np.full(2, 2.0), Bstar=0.5)
        res = heldout_infer(corpus, trained, h, burn_in=50, samples=2000,
                            seed=7)
        reordered = Corpus(vocab=corpus.vocab,
                           tokens=[[corpus.tokens[0][d]
                                    for d in reversed(range(5))]])
        res2 = heldout_infer(reordered, trained, h, burn_in=50, samples=2000,
                             seed=8)
        flipped = res2.scores[::-1]
        assert np.all(np.abs(res.scores - flipped) < 0.08)

    def test_monotone_transform_leaves_metrics_unchanged(self, rng):
        scores = rng.normal(size=60)
        truth = rng.random(60) < 0.4
        truth[0], truth[1] = True, False
        transformed = np.exp(3 * scores) + 7
        assert auroc(scores, truth) == pytest.approx(
            auroc(transformed, truth), abs=1e-12)
        assert auprc(scores, truth) == pytest.approx(
            auprc(transformed, truth), abs=1e-12)


class TestEvaluateSuite:
    def _setup(self):
        h = make_hyper(P=3, P_lab=2, S=1, alpha=0.3, gamma=0.05,
                       iterations=2)
        corpus, truth = generate(h, [25], DocLengthSpec.poisson(30, 1), 30,
                                 seed=9)
        labels = labels_from_activations(truth, 2)
        return h, corpus, labels, truth

    def test_full_column_structure(self):
        h, corpus, labels, truth = self._setup()
        artifacts = {col: (truth, -1000.0)
                     for col in evaluation.SUITE_COLUMNS[:4]}
        artifacts["mc3m_sp"] = (truth, -1100.0)
        artifacts["mc3m"] = (truth, -1200.0)
        reports = evaluate_suite(artifacts, corpus, labels, corpus, labels, h,
                                 burn_in=2, samples=5, seed=1, lr_epochs=30)
        assert [r.model_id for r in reports] == list(evaluation.SUITE_COLUMNS)
        # raw-token columns carry no log-likelihood
        for r in reports:
            if r.model_id.startswith("raw_"):
                assert r.max_log_likelihood is None
            else:
                assert r.max_log_likelihood is not None
            assert 0.0 <= r.auroc_micro <= 1.0

    def test_missing_artifacts_give_placeholders(self):
        h, corpus, labels, truth = self._setup()
        reports = evaluate_suite({}, corpus, labels, corpus, labels, h,
                                 burn_in=1, samples=2, seed=1, lr_epochs=20)
        placeholders = [r for r in reports if r.auroc_micro is None]
        assert len(placeholders) == 8  # everything but the raw columns

    @pytest.mark.parametrize("base_id", ["mc3m_sp", "mc3m"])
    def test_base_model_of_other_patients_is_data_error(self, base_id):
        # the classifiers train on the base model's theta, one row per
        # training patient
        h, corpus, labels, truth = self._setup()
        other = generate(h, [25], DocLengthSpec.poisson(30, 1), 31,
                         seed=9)[1]
        with pytest.raises(DataError, match=f"{base_id}: theta has 31 "
                                            "patients, the training "
                                            "corpus 30"):
            evaluate_suite({base_id: (other, -1000.0)}, corpus, labels,
                           corpus, labels, h, burn_in=1, samples=2, seed=1,
                           lr_epochs=20)

    def test_fewer_label_columns_than_labeled_phenotypes(self):
        # one label column for two labeled phenotypes: the ss3m column
        # scores phenotype 0 against it
        h, corpus, labels, truth = self._setup()
        one = LabelMatrix(entries=labels.entries[:, :1],
                          label_names=labels.label_names[:1])
        reports = evaluate_suite({"ss3m_fixA0_fixB": (truth, -1000.0)},
                                 corpus, one, corpus, one, h, burn_in=1,
                                 samples=2, seed=1, lr_epochs=20)
        res = heldout_infer(corpus, truth, h, burn_in=1, samples=2, seed=1)
        ss3m = next(r for r in reports if r.model_id == "ss3m_fixA0_fixB")
        assert ss3m.auroc_micro == auroc(res.scores[:, 0],
                                         truth_matrix(one)[:, 0])

    def test_more_label_columns_than_labeled_phenotypes(self):
        # three label columns for two labeled phenotypes: an ss3m column
        # is a config error naming both counts; the base models and raw
        # columns alone still score every label column
        h, corpus, labels, truth = self._setup()
        three = labels_from_activations(truth, 3)
        with pytest.raises(ConfigError, match=r"label matrix has more "
                                              r"columns \(3\) than "
                                              r"model.num_labeled \(2\)"):
            evaluate_suite({"ss3m_fixA0_fixB": (truth, -1000.0)}, corpus,
                           three, corpus, three, h, burn_in=1, samples=2,
                           seed=1, lr_epochs=20)
        reports = evaluate_suite({"mc3m": (truth, -1000.0)}, corpus, three,
                                 corpus, three, h, burn_in=1, samples=2,
                                 seed=1, lr_epochs=20)
        scored = {r.model_id for r in reports if r.auroc_micro is not None}
        assert scored == {"mc3m_lr", "mc3m_nb", "raw_lr", "raw_nb"}

    @pytest.mark.parametrize("settings, message", [
        ({"burn_in": -5}, "burn_in must be >= 0"),
        ({"samples": 0}, "samples must be >= 1"),
        ({"lr_epochs": -3}, "logistic regression needs epochs >= 0"),
        ({"lr_lam": np.nan}, "logistic regression needs epochs >= 0"),
    ])
    @pytest.mark.parametrize("with_artifacts", [True, False])
    def test_bad_settings_fail_before_any_chain(self, monkeypatch, settings,
                                                message, with_artifacts):
        h, corpus, labels, truth = self._setup()

        def no_chain(*args, **kwargs):
            raise AssertionError("a held-out chain ran")

        monkeypatch.setattr(evaluation, "heldout_infer", no_chain)
        artifacts = ({name: (truth, -1000.0)
                      for name in evaluation.STATE_ARTIFACTS}
                     if with_artifacts else {})
        with pytest.raises(ConfigError, match=message):
            evaluate_suite(artifacts, corpus, labels, corpus, labels, h,
                           **{"burn_in": 1, "samples": 2, "seed": 1,
                              "lr_epochs": 20, **settings})

    @pytest.mark.parametrize("bad, error, message", [
        ("seed", ConfigError, "seed must be >= 0, got -1"),
        ("train labels", DataError, "train labels cover 29 patients, the "
                                    "train corpus 30"),
        ("test vocabulary", DataError, r"train vocabularies have \[25\] "
                                       r"words per source, the test "
                                       r"vocabularies \[26\]"),
        ("phenotypes", DataError, r"mc3m: trained state \(theta \(30, 3\), "
                                  r"B \(3,\)\) does not have the configured "
                                  r"4 phenotypes"),
    ])
    def test_bad_inputs_fail_before_any_job(self, monkeypatch, bad, error,
                                            message):
        h, corpus, labels, truth = self._setup()
        test_corpus, train_labels, kw = corpus, labels, {"seed": 1}
        if bad == "seed":
            kw["seed"] = -1
        if bad == "train labels":
            train_labels = LabelMatrix(entries=labels.entries[1:],
                                       label_names=labels.label_names)
        if bad == "test vocabulary":
            test_corpus = Corpus(vocab=[corpus.vocab[0] + ["extra"]],
                                 tokens=corpus.tokens)
        if bad == "phenotypes":
            h = make_hyper(P=4, P_lab=2, S=1, alpha=0.3, gamma=0.05)

        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")

        for job in ("heldout_infer", "lr_train", "raw_token_features"):
            monkeypatch.setattr(evaluation, job, no_job)
        with pytest.raises(error, match=message):
            evaluate_suite({"mc3m": (truth, -1000.0)}, corpus, train_labels,
                           test_corpus, labels, h, burn_in=1, samples=2,
                           lr_epochs=20, **kw)

    def test_labels_naming_other_columns_is_data_error(self):
        h, corpus, labels, truth = self._setup()
        renamed = LabelMatrix(entries=labels.entries,
                              label_names=labels.label_names[::-1])
        with pytest.raises(DataError, match="name different columns"):
            evaluate_suite({}, corpus, labels, corpus, renamed, h,
                           burn_in=1, samples=2, seed=1, lr_epochs=20)

    def test_labels_without_columns_is_data_error(self):
        h, corpus, labels, truth = self._setup()
        none = LabelMatrix(entries=labels.entries[:, :0], label_names=[])
        with pytest.raises(DataError, match="no column to score"):
            evaluate_suite({"ss3m_fixA0_fixB": (truth, -1000.0)}, corpus,
                           none, corpus, none, h, burn_in=1, samples=2,
                           seed=1, lr_epochs=20)

    def test_csv_and_table_render(self):
        h, corpus, labels, truth = self._setup()
        reports = evaluate_suite({}, corpus, labels, corpus, labels, h,
                                 burn_in=1, samples=2, seed=1, lr_epochs=20)
        csv_text = evaluation.reports_to_csv(reports)
        assert csv_text.splitlines()[0] == "model_id,metric,averaging,value"
        assert len(csv_text.splitlines()) == 1 + 5 * len(reports)
        table = evaluation.reports_to_table(reports)
        assert "AUROC micro" in table and "Log-likelihood" in table
        assert "--" in table

    def test_raw_features_count_tokens(self):
        h, corpus, labels, truth = self._setup()
        feats = raw_token_features(corpus)
        assert feats.shape == (30, 25)
        assert feats.sum() == corpus.num_tokens()

    def test_truth_matrix_maps_present_only(self):
        h, corpus, labels, truth = self._setup()
        tm = truth_matrix(labels)
        assert set(np.unique(tm)) <= {0, 1}
        assert np.array_equal(tm == 1, labels.entries == 1)
