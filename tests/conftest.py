import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ss3m import gibbs
from ss3m.gibbs import ZPlan, activation_log_odds
from ss3m.model import Corpus, Hyperparameters, ModelState, prior_matrix
from ss3m.util import sample_dirichlet


def make_hyper(P=3, P_lab=0, S=1, alpha=0.3, gamma=0.5, **kw):
    return Hyperparameters(
        num_phenotypes=P, num_labeled=P_lab, num_sources=S,
        alpha=alpha, gamma=(gamma,) * S, **kw)


def random_tiny_state(rng, D=2, P=2, S=1, V=3, max_tokens=3,
                      b_low=0.1, b_high=20.0, bstar_low=1e-4, bstar_high=1.0):
    """A consistent random (state, corpus) pair with moderate parameter
    ranges (keeps independent density oracles away from underflow)."""
    vocab = [[f"s{s}_w{v}" for v in range(V)] for s in range(S)]
    tokens = [[rng.integers(0, V, size=rng.integers(0, max_tokens + 1))
               for _ in range(D)] for _ in range(S)]
    corpus = Corpus(vocab=vocab, tokens=tokens)
    A = rng.integers(0, 2, size=(D, P)).astype(np.int8)
    B = rng.uniform(b_low, b_high, size=P)
    Bstar = float(np.exp(rng.uniform(np.log(bstar_low), np.log(bstar_high))))
    theta = sample_dirichlet(np.full((D, P), 2.0), rng)
    phi = [sample_dirichlet(np.full((P, V), 2.0), rng) for _ in range(S)]
    z = [[rng.integers(0, P, size=w.size) for w in per_source]
         for per_source in tokens]
    state = ModelState(theta=theta, phi=phi, z=z, A=A, B=B, Bstar=Bstar)
    return state, corpus


def z_pass(theta, phi_s, w_flat, doc_idx, rng):
    """The z kernel on a one-source plan over the given tokens."""
    theta, phi_s = np.asarray(theta), np.asarray(phi_s)
    plan = ZPlan([(w_flat, doc_idx, phi_s.shape[1])], *theta.shape)
    return gibbs._sample_z_batch(theta, phi_s, plan, 0, rng)


@st.composite
def corpora(draw, D, vocab_sizes):
    """A corpus of D patients over the given vocabularies; documents of
    0..5 tokens, all empty in some examples."""
    low, high = draw(st.sampled_from([(1, 5), (0, 5), (0, 0)]))
    tokens = []
    for v in vocab_sizes:
        lengths = draw(st.lists(st.integers(low, high), min_size=D,
                                max_size=D))
        tokens.append([draw(arrays(np.int64, n,
                                   elements=st.integers(0, v - 1)))
                       for n in lengths])
    return Corpus(vocab=[[f"s{s}_{i}" for i in range(v)]
                         for s, v in enumerate(vocab_sizes)], tokens=tokens)


def cell_log_odds(d, p, state, counts, hyper):
    """Log-odds of activation cell (d, p) given the phenotype counts: the
    scan's column kernel on patient d's row alone, its total over q != p
    summed as the scan sums it (q < p left to right, plus q > p right to
    left)."""
    prior = prior_matrix(state.A[[d]], state.B, state.Bstar)[0]
    before = 0.0
    for q in range(p):
        before += prior[q]
    after = 0.0
    for q in range(len(prior) - 1, p, -1):
        after += prior[q]
    return float(activation_log_odds(
        counts[d, p], counts[d].sum(), before + after, state.B[p],
        state.Bstar, hyper.alpha))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
