import dataclasses
import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from conftest import (
    cell_log_odds,
    corpora,
    make_hyper,
    random_tiny_state,
    z_pass,
)
from ss3m import gibbs
from ss3m.data_io import split
from ss3m.errors import ConfigError, DimensionError, SamplingError
from ss3m.evaluation import heldout_infer
from ss3m.gibbs import (
    TrainOptions,
    ZPlan,
    activation_scan,
    clamp_matrix,
    draw_phi,
    draw_theta,
    initialize_state,
    phenotype_counts,
    sweep,
    token_counts,
    train,
    train_unstructured,
)
from ss3m.model import (
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    DocLengthSpec,
    LabelMatrix,
    ModelState,
    collapsed_log_joint,
    generate,
    labels_from_activations,
    prior_matrix,
)
from ss3m.util import sample_dirichlet, substream


def _z_draws(theta, phi, w, n, rng):
    """n z draws for n copies of token w in one patient, from the batched
    z kernel the sweep runs."""
    return z_pass(np.asarray([theta], dtype=float), phi,
                  np.full(n, w, dtype=np.int64), np.zeros(n, dtype=np.int64),
                  rng)


class TestSampleZToken:
    def test_degenerate_theta(self, rng):
        phi = np.array([[0.5, 0.5], [0.9, 0.1]])
        assert np.all(_z_draws([1.0, 0.0], phi, 0, 50, rng) == 0)

    def test_exact_normalization(self, rng):
        # hand-check oracle: 0.5*0.6 / (0.5*0.2 + 0.5*0.6) = 0.75
        phi = np.array([[0.2, 0.8], [0.6, 0.4]])
        n = 10 ** 5
        hits = int(_z_draws([0.5, 0.5], phi, 0, n, rng).sum())
        p = 0.75
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_uniform_symmetry(self, rng):
        P = 4
        phi = np.full((P, 3), 1 / 3)
        n = 10 ** 5
        theta = np.full(P, 1 / P)
        draws = z_pass(
            np.tile(theta, (n, 1))[:1], phi,
            np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), rng)
        counts = np.bincount(draws, minlength=P)
        assert st.chisquare(counts).pvalue > 0.001

    def test_corrupt_state_raises(self, rng):
        phi = np.array([[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(SamplingError):
            _z_draws([0.5, 0.5], phi, 0, 1, rng)


def _state_with_counts(counts_row, A_row, B, Bstar, P):
    """One patient whose z counts equal counts_row."""
    total = int(sum(counts_row))
    z = np.repeat(np.arange(P), counts_row).astype(np.int64)
    corpus = Corpus(vocab=[["w"]], tokens=[[np.zeros(total, dtype=np.int64)]])
    state = ModelState(
        theta=np.full((1, P), 1.0 / P), phi=[np.ones((P, 1))], z=[[z]],
        A=np.array([A_row], dtype=np.int8), B=np.asarray(B, dtype=float),
        Bstar=float(Bstar))
    return state, corpus


def _theta_draws(state, corpus, n, rng):
    """Patient 0's theta after each of n draw_theta steps."""
    counts = phenotype_counts(state, corpus)
    draws = []
    for _ in range(n):
        draw_theta(state, counts, rng)
        draws.append(state.theta[0])
    return np.array(draws)


def _phi_draws(state, corpus, h, p, n, rng):
    """phi_0p after each of n draw_phi steps."""
    draws = []
    for _ in range(n):
        draw_phi(state, corpus, h, rng)
        draws.append(state.phi[0][p])
    return np.array(draws)


class TestSampleTheta:
    def test_prior_only_moments(self, rng):
        # Dirichlet mean oracle: E[theta_0] = 10 / 10.01
        state, corpus = _state_with_counts([0, 0], [1, 0], [10.0, 5.0], 0.01, 2)
        n = 10 ** 4
        draws = _theta_draws(state, corpus, n, rng)[:, 0]
        mean = 10.0 / 10.01
        var = mean * (1 - mean) / (10.01 + 1)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)

    def test_counts_dominate(self, rng):
        state, corpus = _state_with_counts([100, 0], [0, 0], [1.0, 1.0], 0.01, 2)
        n = 10 ** 4
        draws = _theta_draws(state, corpus, n, rng)[:, 0]
        total = 100.02
        mean = 100.01 / total
        var = mean * (1 - mean) / (total + 1)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)

    def test_simplex_closure(self, rng):
        state, corpus = _state_with_counts([3, 1], [1, 1], [2.0, 2.0], 0.01, 2)
        for out in _theta_draws(state, corpus, 100, rng):
            assert abs(out.sum() - 1.0) < 1e-9 and np.all(out >= 0)


class TestSamplePhi:
    def _empty_assignment_state(self, V, P=2):
        corpus = Corpus(vocab=[[f"w{v}" for v in range(V)]],
                        tokens=[[np.empty(0, dtype=np.int64)]])
        state = ModelState(
            theta=np.full((1, P), 1.0 / P), phi=[np.full((P, V), 1.0 / V)],
            z=[[np.empty(0, dtype=np.int64)]],
            A=np.ones((1, P), dtype=np.int8), B=np.ones(P), Bstar=0.5)
        return state, corpus

    def test_symmetric_prior_is_sparse(self, rng):
        # simulation oracle: symmetric Dir(0.01) on V=10 concentrates mass
        h = make_hyper(P=2, gamma=0.01)
        state, corpus = self._empty_assignment_state(V=10)
        hits = (_phi_draws(state, corpus, h, 0, 400, rng).max(axis=1)
                > 0.9).sum()
        assert hits / 400 > 0.5

    def test_count_moments(self, rng):
        h = make_hyper(P=1, gamma=0.01)
        corpus = Corpus(vocab=[["a", "b", "c"]],
                        tokens=[[np.zeros(1000, dtype=np.int64)]])
        state = ModelState(
            theta=np.ones((1, 1)), phi=[np.full((1, 3), 1 / 3)],
            z=[[np.zeros(1000, dtype=np.int64)]],
            A=np.ones((1, 1), dtype=np.int8), B=np.ones(1), Bstar=0.5)
        n = 10 ** 4
        draws = _phi_draws(state, corpus, h, 0, n, rng)[:, 0]
        total = 1000.03
        mean = 1000.01 / total
        var = mean * (1 - mean) / (total + 1)
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)

    def test_simplex_closure(self, rng):
        h = make_hyper(P=2, gamma=0.3)
        state, corpus = self._empty_assignment_state(V=6)
        for out in _phi_draws(state, corpus, h, 1, 100, rng):
            assert abs(out.sum() - 1.0) < 1e-9


def _oracle_log_odds(d, p, state, counts, hyper):
    """Direct two-point normalization over A_dp of Bernoulli(alpha) times
    the Dirichlet-multinomial law of patient d's phenotype counts under
    the gated prior (scipy's dirichlet_multinomial)."""
    prior1 = prior_matrix(state.A[[d]], state.B, state.Bstar)[0]
    prior0 = prior1.copy()
    prior1[p] = state.B[p]
    prior0[p] = state.Bstar
    n = counts[d]
    log_p1 = math.log(hyper.alpha) + st.dirichlet_multinomial.logpmf(
        n, prior1, n.sum())
    log_p0 = math.log(1 - hyper.alpha) + st.dirichlet_multinomial.logpmf(
        n, prior0, n.sum())
    return log_p1 - log_p0


class TestActivationLogOdds:
    def test_equal_b_reduces_to_prior_odds(self, rng):
        h = make_hyper(P=2, alpha=0.1)
        state, _ = random_tiny_state(rng, P=2)
        state.B = np.array([0.7, 0.7])
        state.Bstar = 0.7
        counts = rng.integers(0, 20, size=(2, 2))
        got = cell_log_odds(0, 1, state, counts, h)
        assert got == pytest.approx(math.log(1 / 9), abs=1e-12)

    def test_matches_density_ratio_oracle(self, rng):
        h = make_hyper(P=3, alpha=0.3)
        for _ in range(200):
            state, _ = random_tiny_state(rng, D=2, P=3, bstar_low=1e-3)
            counts = rng.integers(0, 20, size=(2, 3))
            d, p = int(rng.integers(2)), int(rng.integers(3))
            got = cell_log_odds(d, p, state, counts, h)
            want = _oracle_log_odds(d, p, state, counts, h)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("P", [2, 5, 70])
    def test_lone_active_phenotype_at_tiny_bstar(self, rng, P):
        # Patient 0's only active phenotype is 1, every one of its N
        # tokens is on phenotype 1, and P * Bstar lies far below ulp(B_1).
        # Then t_on = B_1 exactly, the A_d1 = 1 marginal is 1 + O(Bstar),
        # and the A_d1 = 0 marginal is lgamma(N + Bstar) - lgamma(Bstar)
        # + lgamma(P * Bstar) - lgamma(N + P * Bstar) = -log P + O(Bstar),
        # so the log-odds reduce to logit(alpha) + log P. Subtracting B_1
        # back out of the row total loses the P Bstar terms and is off by
        # exactly -log P.
        h = make_hyper(P=P, alpha=0.1)
        state, _ = random_tiny_state(rng, D=1, P=P)
        state.A[:] = 0
        state.A[0, 1] = 1
        state.B = np.full(P, 3.0)
        state.Bstar = 1e-18
        counts = np.zeros((1, P), dtype=np.int64)
        counts[0, 1] = 7
        want = math.log(0.1 / 0.9) + math.log(P)
        got = cell_log_odds(0, 1, state, counts, h)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_monotone_in_counts_when_b_exceeds_bstar(self, rng):
        # N = 40 tokens, n of them on phenotype 0, the other phenotype
        # active
        h = make_hyper(P=2, alpha=0.1)
        state, _ = random_tiny_state(rng, D=1, P=2)
        state.A = np.array([[0, 1]], dtype=np.int8)
        state.B = np.array([10.0, 10.0])
        state.Bstar = 0.01
        values = [cell_log_odds(0, 0, state, np.array([[n, 40 - n]]), h)
                  for n in range(41)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 10  # large and positive when every token is on 0


class TestSampleActivation:
    def _setup(self, rng, alpha=0.5, D=1):
        h = make_hyper(P=2, P_lab=1, alpha=alpha)
        state, _ = random_tiny_state(rng, D=D, P=2)
        state.B = np.array([0.7, 0.7])
        state.Bstar = 0.7  # log-odds = prior odds only
        return h, state, rng.integers(0, 20, size=(D, 2))

    def test_present_label_clamps_to_one(self, rng):
        h, state, counts = self._setup(rng)
        labels = LabelMatrix(entries=np.array([[LABEL_PRESENT]]),
                             label_names=["l0"])
        opts = TrainOptions(missing_label_mode="estimate")
        clamp = clamp_matrix(labels, opts, 1, 2)
        for _ in range(50):
            A = activation_scan(state.A.copy(), clamp, counts, state.B,
                                state.Bstar, h.alpha, rng)
            assert A[0, 0] == 1

    def test_unknown_fix_zero_clamps_to_zero(self, rng):
        h, state, counts = self._setup(rng)
        labels = LabelMatrix(entries=np.array([[LABEL_UNKNOWN]]),
                             label_names=["l0"])
        opts = TrainOptions(missing_label_mode="fix_zero")
        clamp = clamp_matrix(labels, opts, 1, 2)
        for _ in range(50):
            A = activation_scan(state.A.copy(), clamp, counts, state.B,
                                state.Bstar, h.alpha, rng)
            assert A[0, 0] == 0

    def test_zero_log_odds_is_fair_coin(self, rng):
        # alpha = 0.5 and B == Bstar gives exactly zero log-odds; the scan
        # draws cell (d, 0) of n independent patients
        n = 10 ** 5
        h, state, counts = self._setup(rng, alpha=0.5, D=n)
        labels = LabelMatrix(entries=np.full((n, 1), LABEL_UNKNOWN,
                                             dtype=np.int8),
                             label_names=["l0"])
        opts = TrainOptions(missing_label_mode="estimate")
        clamp = clamp_matrix(labels, opts, n, 2)
        A = activation_scan(state.A.copy(), clamp, counts, state.B,
                            state.Bstar, h.alpha, rng)
        hits = int(A[:, 0].sum())
        assert abs(hits / n - 0.5) < 3 * math.sqrt(0.25 / n)


class TestSweep:
    def _toy(self, seed=0, P_lab=2):
        h = make_hyper(P=4, P_lab=P_lab, S=2, gamma=0.1, iterations=3)
        corpus, truth = generate(h, [12, 9], DocLengthSpec.poisson(15, 2), 20,
                                 seed=seed)
        labels = labels_from_activations(truth, P_lab)
        return h, corpus, labels, truth

    def test_deterministic_given_seed(self):
        h, corpus, labels, _ = self._toy()
        clamp = clamp_matrix(labels, TrainOptions(), 20, 4)
        states = []
        for _ in range(2):
            rng = substream(5, "sweep-test")
            state = initialize_state(corpus, clamp, h, rng)
            sweep(state, ZPlan(corpus, 4), clamp, "sampled", h, rng)
            states.append(state)
        a, b = states
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B) and a.Bstar == b.Bstar
        for s in range(2):
            assert np.array_equal(a.phi[s], b.phi[s])
            for d in range(corpus.num_patients):
                assert np.array_equal(a.z[s][d], b.z[s][d])

    def test_post_sweep_invariants(self):
        h, corpus, labels, _ = self._toy()
        clamp = clamp_matrix(labels, TrainOptions(), 20, 4)
        rng = substream(1, "sweep-test")
        state = initialize_state(corpus, clamp, h, rng)
        plan = ZPlan(corpus, 4)
        for _ in range(3):
            sweep(state, plan, clamp, "sampled", h, rng)
            state.validate(corpus)

    def test_z_accuracy_above_chance_at_truth(self):
        # with globals clamped to the generating values, one z pass matches
        # the true assignments more often than 1/P
        P = 5
        h = make_hyper(P=P, S=1, gamma=0.05)
        corpus, truth = generate(h, [50], DocLengthSpec.fixed(20, 1), 500,
                                 seed=9)
        rng = substream(2, "sweep-test")
        lengths = [w.size for w in corpus.tokens[0]]
        w_flat = np.concatenate([w for w in corpus.tokens[0] if w.size])
        doc_idx = np.repeat(np.arange(500), lengths)
        z_flat = z_pass(truth.theta, truth.phi[0], w_flat, doc_idx, rng)
        z_true = np.concatenate(truth.z[0])
        accuracy = (z_flat == z_true).mean()
        assert accuracy > 1.0 / P
        assert len(z_true) >= 10 ** 4

    def test_count_bookkeeping_matches_recount(self):
        h, corpus, labels, _ = self._toy()
        clamp = clamp_matrix(labels, TrainOptions(), 20, 4)
        rng = substream(3, "sweep-test")
        state = initialize_state(corpus, clamp, h, rng)
        sweep(state, ZPlan(corpus, 4), clamp, "fixed", h, rng)
        c = phenotype_counts(state, corpus)
        brute = np.zeros_like(c)
        for s in range(corpus.num_sources):
            for d in range(corpus.num_patients):
                for z in state.z[s][d]:
                    brute[d, z] += 1
        assert np.array_equal(c, brute)
        for s in range(corpus.num_sources):
            m = token_counts(state, corpus, s)
            brute_m = np.zeros_like(m)
            for d in range(corpus.num_patients):
                for z, w in zip(state.z[s][d], corpus.tokens[s][d]):
                    brute_m[z, w] += 1
            assert np.array_equal(m, brute_m)


@hst.composite
def degenerate_problems(draw):
    """(corpus, labels, hyper): D in 1..5, P in 1..4, one or two sources
    with vocabularies of one to three words, documents of 0..5 tokens (all
    empty in some examples), P_lab = 0, P or between, tri-state labels,
    and Bstar priors from the paper spike to a moderate one."""
    D = draw(hst.integers(1, 5))
    P = draw(hst.integers(1, 4))
    vocab_sizes = draw(hst.lists(hst.integers(1, 3), min_size=1, max_size=2))
    P_lab = draw(hst.sampled_from([0, P, draw(hst.integers(0, P))]))
    hyper = make_hyper(P=P, P_lab=P_lab, S=len(vocab_sizes),
                       gamma=draw(hst.sampled_from([0.01, 0.5])),
                       bstar_shape=draw(hst.sampled_from([0.01, 2.0])))
    entries = draw(arrays(np.int8, (D, P_lab), elements=hst.integers(-1, 1)))
    labels = LabelMatrix(entries=entries,
                         label_names=[f"l{p}" for p in range(P_lab)])
    return draw(corpora(D, vocab_sizes)), labels, hyper


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(degenerate_problems(), hst.integers(0, 2**32))
def test_sampled_b_sweep_keeps_invariants_on_degenerate_inputs(problem,
                                                                seed):
    # A sampled-B, estimate-mode sweep: the B step skips empty patients and
    # every phenotype may have no tokens.
    corpus, labels, hyper = problem
    D, P = corpus.num_patients, hyper.num_phenotypes
    options = TrainOptions(missing_label_mode="estimate", b_mode="sampled")
    clamp = clamp_matrix(labels, options, D, P)
    rng = np.random.default_rng(seed)
    state = initialize_state(corpus, clamp, hyper, rng)
    sweep(state, ZPlan(corpus, P), clamp, options.b_mode, hyper, rng)
    assert np.all(np.isfinite(state.B) & (state.B > 0))
    assert np.isfinite(state.Bstar) and state.Bstar > 0
    lengths = sum(np.array([w.size for w in tokens])
                  for tokens in corpus.tokens)
    assert np.array_equal(phenotype_counts(state, corpus).sum(axis=1),
                          lengths)
    for s, w in enumerate(corpus.tokens):
        assert np.array_equal(token_counts(state, corpus, s).sum(axis=0),
                              np.bincount(w.flat, minlength=len(
                                  corpus.vocab[s])))
    for rows in (state.theta, *state.phi):
        assert np.all(rows >= 0)
        assert np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    fixed = clamp >= 0
    assert np.array_equal(state.A[fixed], clamp[fixed])
    assert np.isfinite(collapsed_log_joint(state, corpus, hyper))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(degenerate_problems(), hst.integers(1, 3), hst.integers(0, 2**32))
def test_log_joint_from_the_sweep_counts_is_the_recount(problem, sweeps,
                                                        seed):
    # every chain (train in each label and B mode, and the mc3m chain)
    # hands each sweep's counts to the log joint; recounting the state
    # it scores must give the same float
    corpus, labels, hyper = problem
    hyper = dataclasses.replace(hyper, iterations=sweeps)
    pairs = []

    def checked(state, corpus, hyper, counts=None):
        got = collapsed_log_joint(state, corpus, hyper, counts)
        if counts is not None:
            pairs.append((got, collapsed_log_joint(state, corpus, hyper)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "collapsed_log_joint", checked)
        for missing in ("fix_zero", "estimate"):
            for b_mode in ("fixed", "sampled"):
                train(corpus, labels, hyper, TrainOptions(
                    missing_label_mode=missing, b_mode=b_mode, seed=seed))
        train_unstructured(corpus, hyper, 0.5, seed)
    assert len(pairs) == 5 * sweeps
    for got, recount in pairs:
        assert np.float64(got).tobytes() == np.float64(recount).tobytes()


class TestClampInvariants:
    def test_all_present_stays_one(self):
        h = make_hyper(P=3, P_lab=2, gamma=0.2, iterations=4)
        corpus, truth = generate(h, [10], DocLengthSpec.fixed(8, 1), 15, seed=2)
        labels = LabelMatrix(
            entries=np.full((15, 2), LABEL_PRESENT, dtype=np.int8),
            label_names=["a", "b"])
        trace = train(corpus, labels, h, TrainOptions(
            missing_label_mode="estimate", seed=4))
        assert np.all(trace.best_state.A[:, :2] == 1)

    def test_fix_zero_with_unknown_stays_zero(self):
        h = make_hyper(P=3, P_lab=2, gamma=0.2, iterations=4)
        corpus, truth = generate(h, [10], DocLengthSpec.fixed(8, 1), 15, seed=2)
        labels = LabelMatrix(
            entries=np.full((15, 2), LABEL_UNKNOWN, dtype=np.int8),
            label_names=["a", "b"])
        trace = train(corpus, labels, h, TrainOptions(
            missing_label_mode="fix_zero", seed=4))
        assert np.all(trace.best_state.A[:, :2] == 0)


class TestTrain:
    @pytest.mark.parametrize("concentration",
                             [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_unstructured_concentration_is_config_error(
            self, concentration):
        h = make_hyper(P=2, gamma=0.2, iterations=0)
        corpus, _ = generate(h, [6], DocLengthSpec.fixed(5, 1), 8, seed=1)
        with pytest.raises(ConfigError, match="positive and finite"):
            train_unstructured(corpus, h, concentration, seed=0)

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainOptions(seed=-1)

    @pytest.mark.parametrize("entry", ["generate", "train_unstructured",
                                       "heldout_infer", "split"])
    def test_library_entry_point_negative_seed_is_config_error(self, entry):
        h = make_hyper(P=2, P_lab=1, gamma=0.2, iterations=1)
        corpus, truth = generate(h, [6], DocLengthSpec.fixed(5, 1), 8, seed=1)
        calls = {
            "generate": lambda: generate(h, [6], DocLengthSpec.fixed(5, 1),
                                         8, seed=-1),
            "train_unstructured": lambda: train_unstructured(corpus, h, 1.0,
                                                             seed=-1),
            "heldout_infer": lambda: heldout_infer(corpus, truth, h, burn_in=1,
                                                   samples=1, seed=-1),
            "split": lambda: split(corpus, labels_from_activations(truth, 1),
                                   0.5, seed=-1),
        }
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1$"):
            calls[entry]()

    def test_zero_iterations(self):
        h = make_hyper(P=2, gamma=0.2, iterations=0)
        corpus, truth = generate(h, [6], DocLengthSpec.fixed(5, 1), 8, seed=1)
        trace = train(corpus, None, h, TrainOptions(seed=0))
        assert len(trace.log_likelihoods) == 1
        assert trace.best_iteration == 0
        assert trace.best_state is not None

    def test_likelihood_improves_over_initialization(self):
        h = make_hyper(P=5, S=1, gamma=0.05, iterations=10)
        corpus, _ = generate(h, [50], DocLengthSpec.poisson(40, 1), 200, seed=0)
        improved = 0
        for seed in range(20):
            trace = train(corpus, None, h, TrainOptions(seed=seed))
            if max(trace.log_likelihoods) > trace.log_likelihoods[0]:
                improved += 1
        assert improved >= 19

    def test_best_state_matches_best_iteration(self):
        h = make_hyper(P=3, P_lab=1, gamma=0.2, iterations=6)
        corpus, truth = generate(h, [10], DocLengthSpec.fixed(10, 1), 12, seed=3)
        labels = labels_from_activations(truth, 1)
        trace = train(corpus, labels, h, TrainOptions(seed=7))
        assert trace.best_log_likelihood == max(trace.log_likelihoods)
        assert (trace.log_likelihoods[trace.best_iteration]
                == trace.best_log_likelihood)

    def test_no_labels_path_is_reproducible(self):
        # the unsupervised reduction (zero labeled phenotypes) is the same
        # code path; identical seeds give bit-identical traces
        h = make_hyper(P=3, P_lab=0, gamma=0.2, iterations=4)
        corpus, _ = generate(h, [10], DocLengthSpec.fixed(10, 1), 12, seed=5)
        empty = LabelMatrix(entries=np.empty((12, 0), dtype=np.int8),
                            label_names=[])
        t1 = train(corpus, None, h, TrainOptions(seed=11))
        t2 = train(corpus, empty, h, TrainOptions(seed=11))
        assert t1.log_likelihoods == t2.log_likelihoods
        assert np.array_equal(t1.best_state.theta, t2.best_state.theta)

    @pytest.mark.parametrize("shape", [(11, 1), (13, 1), (12, 4)])
    def test_label_matrix_of_wrong_shape_is_dimension_error(self, shape):
        # 12 patients and 3 phenotypes: a label row per patient and at
        # most one column per phenotype
        h = make_hyper(P=3, P_lab=1, gamma=0.2, iterations=1)
        corpus, _ = generate(h, [10], DocLengthSpec.fixed(10, 1), 12, seed=5)
        labels = LabelMatrix(entries=np.full(shape, LABEL_PRESENT,
                                             dtype=np.int8),
                             label_names=[f"l{j}" for j in range(shape[1])])
        with pytest.raises(DimensionError, match="label matrix"):
            clamp_matrix(labels, TrainOptions(), 12, 3)
        with pytest.raises(DimensionError, match="label matrix"):
            train(corpus, labels, h, TrainOptions(seed=1))
