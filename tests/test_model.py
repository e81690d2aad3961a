import itertools
import math

import numpy as np
import pytest
import scipy.stats as st

from conftest import make_hyper, random_tiny_state
from ss3m.errors import ConfigError, DimensionError
from ss3m.model import (
    Corpus,
    DocLengthSpec,
    Hyperparameters,
    ModelState,
    collapsed_log_joint,
    count_below,
    generate,
    phenotype_summary,
    prior_matrix,
)
from ss3m.util import sample_dirichlet


def _prior_row(A_row, B, Bstar):
    return prior_matrix([A_row], B, Bstar)[0]


class TestDirichletPriorRow:
    def test_direct_substitution(self):
        out = _prior_row([1, 0], [10.0, 7.0], 0.01)
        assert out.tolist() == [10.0, 0.01]

    def test_all_zeros_gives_symmetric_bstar(self):
        out = _prior_row([0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0], 0.25)
        assert out.tolist() == [0.25] * 5

    def test_all_active_ignores_bstar(self):
        out = _prior_row([1, 1], [3.0, 4.0], 0.5)
        assert out.tolist() == [3.0, 4.0]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            _prior_row([1, 0, 1], [1.0, 2.0], 0.1)

    def test_exhaustive_masks(self):
        # every 2^P mask: output equals B on active coords, Bstar elsewhere
        P = 6
        B = np.arange(1.0, P + 1.0)
        for mask in itertools.product((0, 1), repeat=P):
            out = _prior_row(np.array(mask), B, 0.125)
            assert np.all(out > 0)
            for p, bit in enumerate(mask):
                assert out[p] == (B[p] if bit else 0.125)


class TestHyperparameters:
    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            make_hyper(alpha=0.0)
        with pytest.raises(ConfigError):
            make_hyper(alpha=1.0)

    def test_labeled_cannot_exceed_total(self):
        with pytest.raises(ConfigError):
            make_hyper(P=3, P_lab=4)

    def test_gamma_per_source(self):
        with pytest.raises(ConfigError):
            Hyperparameters(num_phenotypes=2, num_labeled=0, num_sources=2,
                            alpha=0.1, gamma=(0.01,))

    def test_positive_reals(self):
        with pytest.raises(ConfigError):
            make_hyper(b_shape=0.0)
        with pytest.raises(ConfigError):
            make_hyper(hmc_step_size=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["b_shape", "b_scale", "bstar_shape",
                                      "bstar_scale", "hmc_step_size"])
    def test_non_finite_reals(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be positive "
                                              "and finite"):
            make_hyper(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_gamma(self, value):
        with pytest.raises(ConfigError, match="gamma entries"):
            Hyperparameters(num_phenotypes=2, num_labeled=0, num_sources=2,
                            alpha=0.1, gamma=(0.01, value))


class TestDocLengthSpec:
    @pytest.mark.parametrize("n", [-1, 7.9, math.nan, math.inf])
    def test_fixed_needs_a_whole_number(self, n):
        with pytest.raises(ConfigError, match="whole number >= 0"):
            DocLengthSpec.fixed(n, 2)

    def test_fixed_accepts_a_whole_float(self):
        assert DocLengthSpec.fixed(7.0, 2).modes == (("fixed", 7),) * 2

    @pytest.mark.parametrize("lam", [0.0, -2.0, math.nan, math.inf])
    def test_poisson_needs_a_finite_positive_mean(self, lam):
        with pytest.raises(ConfigError, match="poisson mean"):
            DocLengthSpec.poisson(lam, 1)


class TestGenerate:
    def test_seed_reproducibility(self):
        h = make_hyper(P=4, P_lab=2, S=2, gamma=0.1)
        spec = DocLengthSpec.poisson(20, 2)
        c1, s1 = generate(h, [15, 10], spec, 25, seed=7)
        c2, s2 = generate(h, [15, 10], spec, 25, seed=7)
        assert np.array_equal(s1.theta, s2.theta)
        assert np.array_equal(s1.A, s2.A)
        assert np.array_equal(s1.B, s2.B)
        assert s1.Bstar == s2.Bstar
        for s in range(2):
            assert np.array_equal(s1.phi[s], s2.phi[s])
            for d in range(25):
                assert np.array_equal(c1.tokens[s][d], c2.tokens[s][d])
                assert np.array_equal(s1.z[s][d], s2.z[s][d])
        assert c1.vocab == c2.vocab

    def test_alpha_near_one_activates_everything(self):
        h = make_hyper(P=10, alpha=1 - 1e-12)
        _, state = generate(h, [5], DocLengthSpec.fixed(0, 1), 1000, seed=3)
        assert state.A.mean() > 0.999

    def test_large_gamma_is_near_uniform(self):
        # Dirichlet moment oracle: Var = (1/V)(1-1/V)/(gamma*V + 1)
        V, gamma, draws = 5, 1000.0, 100
        h = make_hyper(P=1, gamma=gamma)
        rows = []
        for seed in range(draws):
            _, state = generate(h, [V], DocLengthSpec.fixed(0, 1), 1, seed=seed)
            rows.append(state.phi[0][0])
        means = np.mean(rows, axis=0)
        se = math.sqrt((1 / V) * (1 - 1 / V) / (gamma * V + 1) / draws)
        assert np.all(np.abs(means - 1 / V) < 3 * se)

    def test_zero_vocab_rejected(self):
        h = make_hyper()
        with pytest.raises(ConfigError):
            generate(h, [0], DocLengthSpec.fixed(1, 1), 2, seed=0)

    def test_ground_truth_state_is_consistent(self):
        h = make_hyper(P=3, S=2, gamma=0.2)
        corpus, state = generate(h, [8, 6], DocLengthSpec.poisson(10, 2), 12,
                                 seed=11)
        state.validate(corpus)

    def test_token_marginal_matches_mixture(self):
        # chi^2 goodness of fit of sampled tokens against
        # sum_p E[theta_p] * phi[p, v] at a fixed ground truth
        rng = np.random.default_rng(5)
        P, V = 3, 6
        phi = sample_dirichlet(np.full((P, V), 1.0), rng)
        prior = np.array([4.0, 1.0, 0.5])
        n_docs, tokens_per_doc = 1000, 100
        theta = sample_dirichlet(np.tile(prior, (n_docs, 1)), rng)
        # the inverse-CDF search generate() draws z and w with
        doc_idx = np.repeat(np.arange(n_docs), tokens_per_doc)
        cum = np.cumsum(theta, axis=1)
        z = count_below(cum, doc_idx,
                        rng.random(doc_idx.size) * cum[doc_idx, -1])
        cum = np.cumsum(phi, axis=1)
        w = count_below(cum, z, rng.random(z.size) * cum[z, -1])
        counts = np.bincount(w, minlength=V).astype(float)
        expected = (prior / prior.sum()) @ phi * counts.sum()
        result = st.chisquare(counts, expected)
        assert result.pvalue > 0.001


def _oracle_log_likelihood(state, corpus, hyper):
    """Independent sum-of-log-densities oracle built on scipy.stats: the
    complete-data log-likelihood less the log-densities of theta and phi
    under their full conditionals, which by Chib's identity is the
    collapsed log joint."""
    total = 0.0
    P = state.theta.shape[1]
    for s in range(corpus.num_sources):
        m = np.zeros((P, len(corpus.vocab[s])))
        for z_sd, w_sd in zip(state.z[s], corpus.tokens[s]):
            np.add.at(m, (z_sd, w_sd), 1)
        for p in range(P):
            phi = state.phi[s][p] / state.phi[s][p].sum()
            gam = np.full(len(corpus.vocab[s]), hyper.gamma[s])
            total += (st.dirichlet.logpdf(phi, gam)
                      - st.dirichlet.logpdf(phi, gam + m[p]))
    for p in range(P):
        total += st.gamma.logpdf(state.B[p], a=hyper.b_shape,
                                 scale=hyper.b_scale)
    total += st.gamma.logpdf(state.Bstar, a=hyper.bstar_shape,
                             scale=hyper.bstar_scale)
    for d in range(state.theta.shape[0]):
        for p in range(P):
            total += st.bernoulli.logpmf(state.A[d, p], hyper.alpha)
        prior = np.where(state.A[d] == 1, state.B, state.Bstar)
        theta = state.theta[d] / state.theta[d].sum()
        n = np.zeros(P)
        for s in range(corpus.num_sources):
            np.add.at(n, state.z[s][d], 1)
        total += (st.dirichlet.logpdf(theta, prior)
                  - st.dirichlet.logpdf(theta, prior + n))
        for s in range(corpus.num_sources):
            for z, w in zip(state.z[s][d], corpus.tokens[s][d]):
                total += math.log(state.theta[d, z])
                total += math.log(state.phi[s][z, w])
    return total


class TestCompleteDataLogLikelihood:
    """The chain objective that TrainTrace.log_likelihoods traces,
    model.collapsed_log_joint."""

    def test_degenerate_single_outcome(self):
        # P=1, V=1, N=1: both Dirichlet-multinomial terms are log(1) = 0,
        # so the total is the Gamma and Bernoulli terms alone.
        h = make_hyper(P=1, alpha=0.4, gamma=0.7)
        corpus = Corpus(vocab=[["only"]], tokens=[[np.zeros(1, dtype=int)]])
        state = ModelState(
            theta=np.ones((1, 1)), phi=[np.ones((1, 1))],
            z=[[np.zeros(1, dtype=int)]],
            A=np.ones((1, 1), dtype=np.int8), B=np.array([2.0]), Bstar=0.5)
        got = collapsed_log_joint(state, corpus, h)
        expected = (st.gamma.logpdf(2.0, a=h.b_shape, scale=h.b_scale)
                    + st.gamma.logpdf(0.5, a=h.bstar_shape, scale=h.bstar_scale)
                    + math.log(0.4))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_oracle(self, rng):
        h = make_hyper(P=2, S=1, alpha=0.3, gamma=0.5)
        for _ in range(100):
            state, corpus = random_tiny_state(rng, bstar_low=0.05)
            got = collapsed_log_joint(state, corpus, h)
            want = _oracle_log_likelihood(state, corpus, h)
            assert got == pytest.approx(want, rel=1e-10)

    def test_gamma_mode_maximizes_prior_term(self, rng):
        # grid scan over B_p: the Gamma term peaks at the mode
        # (shape-1)*scale
        h = make_hyper(P=1, b_shape=10.0, b_scale=1.0)
        state, corpus = random_tiny_state(rng, D=1, P=1, V=3)
        state.A[:] = 0  # decouple theta prior from B
        grid = np.linspace(1.0, 25.0, 241)
        values = []
        for b in grid:
            state.B = np.array([b])
            values.append(collapsed_log_joint(state, corpus, h))
        best = grid[int(np.argmax(values))]
        mode = (h.b_shape - 1.0) * h.b_scale
        assert abs(best - mode) <= grid[1] - grid[0]

    def test_finite_on_sampled_states(self, rng):
        h = make_hyper(P=2, gamma=0.5)
        for _ in range(20):
            state, corpus = random_tiny_state(rng)
            assert math.isfinite(collapsed_log_joint(state, corpus, h))


class TestPhenotypeSummary:
    def _corpus(self, phi_row):
        vocab = [["a", "b", "c"]]
        corpus = Corpus(vocab=vocab, tokens=[[np.empty(0, dtype=int)]])
        phi = np.array([phi_row])
        state = ModelState(theta=np.ones((1, 1)), phi=[phi],
                           z=[[np.empty(0, dtype=int)]],
                           A=np.ones((1, 1), dtype=np.int8),
                           B=np.array([1.0]), Bstar=0.5)
        return corpus, state

    def test_direct_sort(self):
        corpus, state = self._corpus([0.7, 0.2, 0.1])
        got = phenotype_summary(state, corpus, 2)
        assert got[0][0] == [("a", 0.7), ("b", 0.2)]

    def test_k_truncated_to_vocab(self):
        corpus, state = self._corpus([0.7, 0.2, 0.1])
        got = phenotype_summary(state, corpus, 10)
        assert len(got[0][0]) == 3

    def test_tie_break_by_token_id(self):
        corpus, state = self._corpus([1 / 3, 1 / 3, 1 / 3])
        got = phenotype_summary(state, corpus, 3)
        assert [t for t, _ in got[0][0]] == ["a", "b", "c"]


class TestCorpusInvariants:
    def test_token_out_of_range(self):
        with pytest.raises(DimensionError):
            Corpus(vocab=[["a"]], tokens=[[np.array([1])]])

    def test_duplicate_vocab(self):
        with pytest.raises(ConfigError):
            Corpus(vocab=[["a", "a"]], tokens=[[np.array([0])]])

    def test_prior_matrix_matches_rows(self, rng):
        A = rng.integers(0, 2, size=(4, 3)).astype(np.int8)
        B = np.array([1.0, 2.0, 3.0])
        full = prior_matrix(A, B, 0.125)
        for d in range(4):
            assert np.array_equal(full[d], np.where(A[d] == 1, B, 0.125))
