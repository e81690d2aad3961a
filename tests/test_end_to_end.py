"""Invariants of train followed by heldout_infer on degenerate inputs.

One property trains a model and runs held-out inference with it on inputs
that reach the corners: one patient, one phenotype, one to three sources,
vocabularies of one, documents that are all empty, P_lab from 0 to P,
both missing-label modes, both B modes and the paper's Bstar prior shape
next to a flat one. Whatever the input, the best state must be a valid
state of the corpus with a finite log-likelihood trace, it must keep
every Present and Absent label clamp, and the held-out scores, of that
state or of the mc3m baseline's, must be activation frequencies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import corpora, make_hyper
from ss3m.evaluation import heldout_infer
from ss3m.gibbs import (
    B_FIXED,
    B_SAMPLED,
    MISSING_ESTIMATE,
    MISSING_FIX_ZERO,
    TrainOptions,
    train,
    train_unstructured,
)
from ss3m.model import LABEL_ABSENT, LABEL_PRESENT, LabelMatrix


@st.composite
def pipelines(draw):
    """(corpus, labels, hyper, options, test corpus) with D in 1..6, P in
    1..5, S in 1..3, P_lab in 0..P, vocabularies of 1..3, 0..3 sweeps and
    Bstar shape 0.01 or 2.0."""
    D = draw(st.integers(1, 6))
    P = draw(st.integers(1, 5))
    S = draw(st.integers(1, 3))
    P_lab = draw(st.integers(0, P))
    vocab_sizes = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))
    hyper = make_hyper(P=P, P_lab=P_lab, S=S,
                       alpha=draw(st.floats(0.05, 0.95)),
                       gamma=draw(st.sampled_from([0.01, 0.5])),
                       bstar_shape=draw(st.sampled_from([0.01, 2.0])),
                       iterations=draw(st.integers(0, 3)))
    labels = LabelMatrix(
        entries=draw(arrays(np.int8, (D, P_lab), elements=st.integers(-1, 1))),
        label_names=[f"l{j}" for j in range(P_lab)])
    options = TrainOptions(
        missing_label_mode=draw(st.sampled_from([MISSING_FIX_ZERO,
                                                 MISSING_ESTIMATE])),
        b_mode=draw(st.sampled_from([B_FIXED, B_SAMPLED])),
        seed=draw(st.integers(0, 2**16)))
    test_corpus = draw(corpora(draw(st.integers(1, 6)), vocab_sizes))
    return draw(corpora(D, vocab_sizes)), labels, hyper, options, test_corpus


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pipelines(), st.sampled_from([None, 1.0]), st.integers(0, 2),
       st.integers(1, 3))
def test_train_then_heldout_invariants(problem, concentration, burn_in,
                                       samples):
    corpus, labels, hyper, options, test_corpus = problem
    trace = train(corpus, labels, hyper, options)
    best = trace.best_state
    best.validate(corpus)
    assert len(trace.log_likelihoods) == hyper.iterations + 1
    assert np.all(np.isfinite(trace.log_likelihoods))
    labeled = best.A[:, :hyper.num_labeled]
    assert np.all(labeled[labels.entries == LABEL_PRESENT] == 1)
    assert np.all(labeled[labels.entries == LABEL_ABSENT] == 0)

    if concentration is not None:
        # the mc3m baseline's best state: B = Bstar = concentration
        best = train_unstructured(corpus, hyper, concentration,
                                  options.seed).best_state
    res = heldout_infer(test_corpus, best, hyper, burn_in=burn_in,
                        samples=samples, seed=options.seed)
    assert res.scores.shape == (test_corpus.num_patients, hyper.num_labeled)
    assert np.all((res.scores >= 0.0) & (res.scores <= 1.0))
