"""The flat per-source token passes against their per-patient references.

Each property runs the package's kernel and the per-patient loop from
tests/reference_kernels.py on the same input (and, where they draw, on
identically seeded generators) and asserts exactly equal arrays and
floats and the same generator state afterwards. The inputs reach the
corners: one patient, documents that are all empty, a vocabulary of one,
one phenotype, one to three sources, and phi with exact zeros.

The collapsed log joint has no per-patient loop to match; it is checked
against the per-patient complete-data reference by Chib's identity
instead: the complete-data value less the log-densities of theta and phi
under their full conditionals.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from conftest import make_hyper, z_pass
from ss3m import gibbs
from ss3m.errors import SamplingError
from ss3m.evaluation import raw_token_features
from ss3m.gibbs import Z_CHUNK, phenotype_counts, token_counts
from ss3m.model import (
    Corpus,
    DocLengthSpec,
    ModelState,
    collapsed_log_joint,
    generate,
    prior_matrix,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)


def _simplex_rows(draw, shape, zeros):
    """Rows on the simplex; with `zeros`, some entries are exactly 0."""
    low = 0.0 if zeros else 0.05
    x = draw(arrays(np.float64, shape, elements=st.floats(low, 1.0)))
    x[np.arange(shape[0]), draw(st.integers(0, shape[1] - 1))] += 0.5
    return x / x.sum(axis=1, keepdims=True)


@st.composite
def token_problems(draw):
    """(state, corpus, hyper) with D in 1..5, P in 1..4, S in 1..3,
    vocabularies of 1..5 and documents of 0..6 tokens (all empty in some
    examples); phi may hold exact zeros."""
    D = draw(st.integers(1, 5))
    P = draw(st.integers(1, 4))
    S = draw(st.integers(1, 3))
    vocab_sizes = draw(st.lists(st.integers(1, 5), min_size=S, max_size=S))
    low, high = draw(st.sampled_from([(1, 6), (0, 6), (0, 0)]))
    tokens, z = [], []
    for v in vocab_sizes:
        lengths = draw(st.lists(st.integers(low, high), min_size=D,
                                max_size=D))
        tokens.append([draw(arrays(np.int64, n, elements=st.integers(0, v - 1)))
                       for n in lengths])
        z.append([draw(arrays(np.int64, n, elements=st.integers(0, P - 1)))
                  for n in lengths])
    corpus = Corpus(vocab=[[f"s{s}_{i}" for i in range(v)]
                           for s, v in enumerate(vocab_sizes)], tokens=tokens)
    zeros = draw(st.booleans())
    state = ModelState(
        theta=_simplex_rows(draw, (D, P), zeros=False),
        phi=[_simplex_rows(draw, (P, v), zeros) for v in vocab_sizes],
        z=z, A=draw(arrays(np.int8, (D, P), elements=st.integers(0, 1))),
        B=draw(arrays(np.float64, P, elements=st.floats(0.1, 20.0))),
        Bstar=draw(st.sampled_from([1e-18, 1e-3, 0.5])))
    return state, corpus, make_hyper(P=P, S=S, gamma=0.3)


@contextlib.contextmanager
def generators_made():
    """The np.random.default_rng generators made inside the block."""
    made = []
    real = np.random.default_rng

    def make(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    np.random.default_rng = make
    try:
        yield made
    finally:
        np.random.default_rng = real


@PROPERTY_SETTINGS
@given(D=st.integers(1, 6), P=st.integers(1, 5), S=st.integers(1, 3),
       data=st.data())
def test_generate_matches_per_patient_loop(D, P, S, data):
    vocab_sizes = data.draw(st.lists(st.integers(1, 8), min_size=S,
                                     max_size=S))
    lengths = data.draw(st.sampled_from([
        DocLengthSpec.fixed(0, S), DocLengthSpec.fixed(3, S),
        DocLengthSpec.poisson(4.0, S)]))
    hyper = make_hyper(P=P, S=S, gamma=data.draw(st.sampled_from([0.05, 1.0])))
    seed = data.draw(st.integers(0, 2**32))
    want_corpus, want, rng_want = ref.generate(hyper, vocab_sizes, lengths,
                                               D, seed)
    with generators_made() as made:
        corpus, state = generate(hyper, vocab_sizes, lengths, D, seed)
    assert made[-1].bit_generator.state == rng_want.bit_generator.state
    assert np.array_equal(state.theta, want.theta)
    assert np.array_equal(state.A, want.A)
    for s in range(S):
        assert np.array_equal(state.phi[s], want.phi[s])
        for d in range(D):
            assert np.array_equal(corpus.tokens[s][d], want_corpus.tokens[s][d])
            assert np.array_equal(state.z[s][d], want.z[s][d])
            assert state.z[s][d].dtype == np.int64
    state.validate(corpus)


@PROPERTY_SETTINGS
@given(token_problems())
def test_counts_match_per_patient_loops(problem):
    state, corpus, _ = problem
    c = phenotype_counts(state, corpus)
    assert np.array_equal(c, ref.phenotype_counts(state, corpus))
    assert c.dtype == np.int64 and c.sum() == corpus.num_tokens()
    total = 0
    for s in range(corpus.num_sources):
        m = token_counts(state, corpus, s)
        assert np.array_equal(m, ref.token_counts(state, corpus, s))
        assert m.sum() == sum(w.size for w in corpus.tokens[s])
        total += int(m.sum())
    assert total == corpus.num_tokens()
    feats = raw_token_features(corpus)
    assert feats.dtype == float
    assert np.array_equal(feats, ref.raw_token_features(corpus))


@PROPERTY_SETTINGS
@given(token_problems(), st.data())
def test_collapsed_log_joint_chib_identity(problem, data):
    # log p(w, z, theta, phi, A, B, Bstar) = log p(w, z, A, B, Bstar)
    # + log Dir(theta | prior + n) + sum_s log Dir(phi_s | gamma_s + m_s),
    # at theta and phi drawn with no entry near the floor
    state, corpus, hyper = problem
    D, P = state.theta.shape
    state.theta = _simplex_rows(data.draw, (D, P), zeros=False)
    state.phi = [_simplex_rows(data.draw, phi_s.shape, zeros=False)
                 for phi_s in state.phi]
    want = ref.complete_data_log_likelihood(state, corpus, hyper)
    want -= ref.dirichlet_log_density(
        state.theta, prior_matrix(state.A, state.B, state.Bstar)
        + phenotype_counts(state, corpus)).sum()
    for s, phi_s in enumerate(state.phi):
        want -= ref.dirichlet_log_density(
            phi_s, hyper.gamma[s] + token_counts(state, corpus, s)).sum()
    assert collapsed_log_joint(state, corpus, hyper) == pytest.approx(
        want, rel=1e-10)


@PROPERTY_SETTINGS
@given(token_problems(), st.data())
def test_collapsed_log_joint_ignores_theta_and_phi(problem, data):
    state, corpus, hyper = problem
    got = collapsed_log_joint(state, corpus, hyper)
    assert math.isfinite(got)
    D, P = state.theta.shape
    state.theta = _simplex_rows(data.draw, (D, P), zeros=True)
    state.phi = [_simplex_rows(data.draw, phi_s.shape, zeros=True)
                 for phi_s in state.phi]
    assert collapsed_log_joint(state, corpus, hyper) == got
    state.theta = np.zeros((D, P))
    state.phi = [np.zeros_like(phi_s) for phi_s in state.phi]
    assert collapsed_log_joint(state, corpus, hyper) == got


@PROPERTY_SETTINGS
@given(token_problems(), st.integers(1, 4), st.integers(0, 2**32))
def test_z_pass_matches_single_block(problem, chunk, seed):
    # a small chunk makes every example span several blocks
    state, corpus, _ = problem
    for s in range(corpus.num_sources):
        w_flat, doc_idx = corpus.tokens[s].flat, corpus.tokens[s].doc_idx
        phi_s = np.where(state.phi[s] > 0.0, state.phi[s], 0.01)
        rng_want = np.random.default_rng(seed)
        want = ref.sample_z_batch(state.theta, phi_s, w_flat, doc_idx,
                                  rng_want)
        rng = np.random.default_rng(seed)
        saved, gibbs.Z_CHUNK = gibbs.Z_CHUNK, chunk
        try:
            got = z_pass(state.theta, phi_s, w_flat, doc_idx, rng)
        finally:
            gibbs.Z_CHUNK = saved
        assert np.array_equal(got, want) and got.dtype == np.int64
        assert rng.bit_generator.state == rng_want.bit_generator.state


def _z_problem(n, P=12, V=11, D=3, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.dirichlet(np.ones(P), size=D)
    phi_s = rng.dirichlet(np.ones(V), size=P)
    w_flat = rng.integers(0, V, size=n)
    doc_idx = np.sort(rng.integers(0, D, size=n))
    return theta, phi_s, w_flat, doc_idx


@pytest.mark.parametrize("n", [Z_CHUNK - 1, Z_CHUNK, Z_CHUNK + 1,
                               2 * Z_CHUNK + 3])
def test_z_pass_chunk_boundaries(n):
    theta, phi_s, w_flat, doc_idx = _z_problem(n)
    rng_want = np.random.default_rng(n)
    want = ref.sample_z_batch(theta, phi_s, w_flat, doc_idx, rng_want)
    rng = np.random.default_rng(n)
    got = z_pass(theta, phi_s, w_flat, doc_idx, rng)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("n", [Z_CHUNK + 1, 2 * Z_CHUNK + 3])
def test_zero_weight_row_in_last_chunk_names_patient_and_token(n):
    theta, phi_s, w_flat, doc_idx = _z_problem(n)
    doc_idx = np.zeros(n, dtype=np.int64)
    doc_idx[-1] = 2                 # patient 2 owns only the last token
    theta[2] = 0.0
    message = f"patient 2, token {n - 1}"
    with pytest.raises(SamplingError, match=message):
        ref.sample_z_batch(theta, phi_s, w_flat, doc_idx,
                           np.random.default_rng(0))
    with pytest.raises(SamplingError, match=message):
        z_pass(theta, phi_s, w_flat, doc_idx, np.random.default_rng(0))


@pytest.mark.parametrize("chunk", [1, 2, 4096])
@pytest.mark.parametrize("P", [1, 2, 63, 64, 65, 70, 128])
@pytest.mark.parametrize("shape", ["mixed", "one_word", "one_token", "empty"])
def test_z_pass_search_edges(shape, P, chunk, monkeypatch):
    # blocks of 1 or 2 pairs split every patient's pairs across blocks
    D, V, n = {"mixed": (4, 7, 90), "one_word": (5, 1, 40),
               "one_token": (1, 3, 1), "empty": (3, 4, 0)}[shape]
    theta, phi_s, w_flat, doc_idx = _z_problem(n, P=P, V=V, D=D, seed=P)
    monkeypatch.setattr(gibbs, "Z_CHUNK", chunk)
    rng_want = np.random.default_rng(chunk)
    want = ref.sample_z_batch(theta, phi_s, w_flat, doc_idx, rng_want)
    rng = np.random.default_rng(chunk)
    got = z_pass(theta, phi_s, w_flat, doc_idx, rng)
    assert np.array_equal(got, want) and got.dtype == np.int64
    assert rng.bit_generator.state == rng_want.bit_generator.state


class _TopUniforms:
    """A generator stub whose uniforms are all the largest double below 1."""

    def random(self, n):
        return np.full(n, 1.0 - 2.0**-53)


def test_z_pass_never_returns_phenotype_P():
    # a row whose pairwise total rounds above its sequential cumsum's last
    # entry: u * total then exceeds every CDF entry
    P, top = 70, 1.0 - 2.0**-53
    for seed in range(100):
        theta = np.random.default_rng(seed).dirichlet(np.ones(P))[None, :]
        if top * theta.sum() > np.cumsum(theta)[-1]:
            break
    else:
        pytest.fail("no Dirichlet row with total above its cumsum")
    phi_s = np.ones((P, 1))
    w_flat = doc_idx = np.zeros(3, dtype=np.int64)
    z = z_pass(theta, phi_s, w_flat, doc_idx, _TopUniforms())
    assert np.array_equal(z, [P - 1] * 3)


def test_zero_weight_error_names_first_flat_token_across_pair_blocks(
        monkeypatch):
    # patient 1's tokens are words 5 then 1: its first pair, (1, 1), sits
    # in an earlier block than its first token's pair, (1, 5)
    theta, phi_s, _, _ = _z_problem(0, P=4, V=7, D=3)
    theta[1] = 0.0
    w_flat = np.array([3, 2, 5, 1, 4])
    doc_idx = np.array([0, 0, 1, 1, 2])
    with pytest.raises(SamplingError) as want:
        ref.sample_z_batch(theta, phi_s, w_flat, doc_idx,
                           np.random.default_rng(0))
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    with pytest.raises(SamplingError) as got:
        z_pass(theta, phi_s, w_flat, doc_idx, np.random.default_rng(0))
    assert str(got.value) == str(want.value)
    assert "patient 1, token 2" in str(got.value)
