"""The mc3m baseline and held-out inference against the code they
replaced.

The baseline trainer runs the gated chain with every activation held on
and B = Bstar = c, and held-out inference reads that prior from the
trained state. Each property runs the package and the reference from
tests/reference_kernels.py on the same input and asserts the same
floats, arrays and final generator state. The inputs reach the corners:
one patient, one phenotype, one to three sources, vocabularies of one,
documents that are all empty, P_lab from 0 to P, and Bstar at the paper
spike 1e-18.
"""

import contextlib

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from conftest import corpora, make_hyper
from ss3m import evaluation, gibbs
from ss3m.evaluation import heldout_infer
from ss3m.gibbs import train_unstructured
from ss3m.model import ModelState

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)


@contextlib.contextmanager
def substreams_made(module):
    """The generators module.substream makes inside the block."""
    made = []
    real = module.substream

    def make(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    module.substream = make
    try:
        yield made
    finally:
        module.substream = real


def _simplex_rows(draw, shape):
    x = draw(arrays(np.float64, shape, elements=st.floats(0.05, 1.0)))
    return x / x.sum(axis=1, keepdims=True)


@st.composite
def chain_problems(draw):
    """(corpus, vocab sizes, hyper) with D in 1..6, P in 1..5, S in 1..3,
    P_lab in 0..P, vocabularies of 1..3 and 0..3 iterations."""
    D = draw(st.integers(1, 6))
    P = draw(st.integers(1, 5))
    S = draw(st.integers(1, 3))
    vocab_sizes = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))
    hyper = make_hyper(P=P, P_lab=draw(st.integers(0, P)), S=S,
                       gamma=draw(st.sampled_from([0.05, 1.0])),
                       iterations=draw(st.integers(0, 3)))
    return draw(corpora(D, vocab_sizes)), vocab_sizes, hyper


def _assert_same_state(got, want):
    assert np.array_equal(got.theta, want.theta)
    assert np.array_equal(got.A, want.A) and got.A.dtype == want.A.dtype
    assert np.array_equal(got.B, want.B) and got.Bstar == want.Bstar
    for phi, phi_want in zip(got.phi, want.phi, strict=True):
        assert np.array_equal(phi, phi_want)
    for z_s, z_want in zip(got.z, want.z, strict=True):
        for z_sd, z_sd_want in zip(z_s, z_want, strict=True):
            assert np.array_equal(z_sd, z_sd_want)


@PROPERTY_SETTINGS
@given(chain_problems(), st.sampled_from([0.1, 1.0, 2.5]),
       st.integers(0, 2**32))
def test_mc3m_chain_matches_flagged_sweep(problem, concentration, seed):
    corpus, _, hyper = problem
    lls, best, best_it, rng_want = ref.train_unstructured(
        corpus, hyper, concentration, seed)
    with substreams_made(gibbs) as made:
        trace = train_unstructured(corpus, hyper, concentration, seed)
    assert trace.log_likelihoods == lls
    assert trace.best_iteration == best_it
    _assert_same_state(trace.best_state, best)
    assert made[-1].bit_generator.state == rng_want.bit_generator.state


@PROPERTY_SETTINGS
@given(chain_problems(), st.sampled_from([None, 0.5, 1.0]),
       st.sampled_from([1e-18, 1e-3, 0.5]), st.integers(0, 2),
       st.integers(1, 3), st.data())
def test_heldout_matches_prior_branches(problem, theta_prior, bstar, burn_in,
                                        samples, data):
    # An mc3m state (B = Bstar = theta_prior) runs the reference's
    # unstructured branch; a gated state, every B_p != Bstar, its gated one.
    test_corpus, vocab_sizes, hyper = problem
    P = hyper.num_phenotypes
    D = test_corpus.num_patients
    trained = ModelState(
        theta=_simplex_rows(data.draw, (D, P)),
        phi=[_simplex_rows(data.draw, (P, v)) for v in vocab_sizes], z=[],
        A=data.draw(arrays(np.int8, (D, P), elements=st.integers(0, 1))),
        B=data.draw(arrays(np.float64, P, elements=st.floats(0.1, 20.0))),
        Bstar=bstar)
    if theta_prior is None:
        assume(np.all(trained.B != trained.Bstar))
    else:
        trained.B, trained.Bstar = np.full(P, theta_prior), theta_prior
    seed = data.draw(st.integers(0, 2**32))
    theta_want, a_want, rng_want = ref.heldout_infer(
        test_corpus, trained, hyper, burn_in, samples, seed, theta_prior)
    with substreams_made(evaluation) as made:
        res = heldout_infer(test_corpus, trained, hyper, burn_in=burn_in,
                            samples=samples, seed=seed)
    assert np.array_equal(res.theta_mean, theta_want)
    assert np.array_equal(res.activation_mean, a_want)
    assert np.array_equal(res.scores, a_want[:, :hyper.num_labeled])
    assert made[-1].bit_generator.state == rng_want.bit_generator.state
