"""The vectorized activation scan against its cell-by-cell reference.

Each property builds a random activation problem, runs the package's
column scan (under the training label clamps of clamp_matrix, and as
held-out inference calls it with every cell free) and the reference loop
from tests/reference_kernels.py on identically seeded generators, and
asserts the same activation matrix and the same generator state
afterwards: the same kernel, draw for draw. Under the label clamps it
also asserts the same log-odds float at every free cell, also at the
ends of the tables the scan looks its count log-gammas up in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from conftest import make_hyper
from ss3m import gibbs
from ss3m.errors import SamplingError
from ss3m.gibbs import (
    MISSING_ESTIMATE,
    MISSING_FIX_ZERO,
    TrainOptions,
    activation_scan,
    clamp_matrix,
)
from ss3m.model import (
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    LabelMatrix,
    ModelState,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)


@st.composite
def activation_problems(draw):
    """(state, labels, options, hyper, counts, seed) with D in 1..6,
    P in 1..8, P_lab in 0..P and Bstar from the paper spike to 2."""
    D = draw(st.integers(1, 6))
    P = draw(st.integers(1, 8))
    P_lab = draw(st.integers(0, P))
    state = ModelState(
        theta=np.full((D, P), 1.0 / P), phi=[], z=[],
        A=draw(arrays(np.int8, (D, P), elements=st.integers(0, 1))),
        B=draw(arrays(np.float64, P, elements=st.floats(0.05, 50.0))),
        Bstar=draw(st.sampled_from([1e-18, 1e-3, 2.0])))
    entries = draw(arrays(np.int8, (D, P_lab), elements=st.integers(-1, 1)))
    labels = (None if P_lab == 0 and draw(st.booleans()) else
              LabelMatrix(entries=entries,
                          label_names=[f"l{j}" for j in range(P_lab)]))
    options = TrainOptions(missing_label_mode=draw(
        st.sampled_from([MISSING_FIX_ZERO, MISSING_ESTIMATE])))
    hyper = make_hyper(P=P, P_lab=P_lab, alpha=draw(st.floats(0.05, 0.95)))
    counts = draw(arrays(np.int64, (D, P), elements=st.integers(0, 40)))
    return state, labels, options, hyper, counts, draw(st.integers(0, 2**32))


def _copy(state):
    return ModelState(theta=state.theta, phi=[], z=[], A=state.A.copy(),
                      B=state.B, Bstar=state.Bstar)


def _check_scan(state, labels, options, hyper, counts, seed):
    """Run the scan under the clamps of labels and the reference loop on
    identically seeded generators, and assert the same bits, the same
    generator state afterwards and, at every free cell, the same
    log-odds float: the scan's as it hands a column to expit."""
    want = _copy(state)
    rng_want = np.random.default_rng(seed)
    want_odds = np.full(state.A.shape, np.nan)
    ref.collapsed_scan(want, counts, hyper, rng_want, labels, options,
                       want_odds)
    clamp = clamp_matrix(labels, options, *state.A.shape)
    rng, seen, real_expit = np.random.default_rng(seed), [], gibbs.expit

    def expit(odds, out=None):
        seen.append(odds.copy())
        return real_expit(odds, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "expit", expit)
        got = activation_scan(state.A.copy(), clamp, counts, state.B,
                              state.Bstar, hyper.alpha, rng)
    assert np.array_equal(got, want.A)
    assert rng.bit_generator.state == rng_want.bit_generator.state
    free = clamp < 0
    sampled = np.flatnonzero(free.any(axis=0))
    assert len(seen) == sampled.size
    for p, odds in zip(sampled, seen):
        assert np.array_equal(odds[free[:, p]], want_odds[free[:, p], p]), p


@PROPERTY_SETTINGS
@given(activation_problems())
def test_training_scan_matches_cell_loop(problem):
    _check_scan(*problem)


@PROPERTY_SETTINGS
@given(activation_problems())
def test_collapsed_scan_matches_cell_loop(problem):
    state, _, _, hyper, counts, seed = problem
    want = _copy(state)
    rng_want = np.random.default_rng(seed)
    ref.collapsed_scan(want, counts, hyper, rng_want)
    rng = np.random.default_rng(seed)
    every_cell_free = np.full(state.A.shape, -1, dtype=np.int8)
    activation_scan(state.A, every_cell_free, counts, state.B, state.Bstar,
                    hyper.alpha, rng)
    assert np.array_equal(state.A, want.A)
    assert rng.bit_generator.state == rng_want.bit_generator.state


@st.composite
def table_problems(draw):
    """activation_problems at the ends of the scan's lookup tables: B_p
    from 1e-300 to 1e3, Bstar from 1e-300 to 2, cell counts of 0..5 or
    1,000..3,000 with at least one of 1,000 or more, a column whose counts
    are all 0, and (with fix_zero labels) fully clamped columns."""
    D = draw(st.integers(1, 5))
    P = draw(st.integers(2, 6))
    P_lab = draw(st.integers(0, P - 1))
    tiny_to_large = st.one_of(st.sampled_from([1e-300, 1e-20, 1e3]),
                              st.floats(1e-300, 1e3))
    state = ModelState(
        theta=np.full((D, P), 1.0 / P), phi=[], z=[],
        A=draw(arrays(np.int8, (D, P), elements=st.integers(0, 1))),
        B=draw(arrays(np.float64, P, elements=tiny_to_large)),
        Bstar=draw(st.one_of(st.sampled_from([1e-300, 1e-18]),
                             st.floats(1e-300, 2.0))))
    labels = LabelMatrix(
        entries=draw(arrays(np.int8, (D, P_lab), elements=st.integers(-1, 1))),
        label_names=[f"l{j}" for j in range(P_lab)])
    options = TrainOptions(missing_label_mode=draw(
        st.sampled_from([MISSING_FIX_ZERO, MISSING_ESTIMATE])))
    hyper = make_hyper(P=P, P_lab=P_lab, alpha=draw(st.floats(0.05, 0.95)))
    counts = draw(arrays(np.int64, (D, P), elements=st.one_of(
        st.integers(0, 5), st.integers(1000, 3000))))
    counts[draw(st.integers(0, D - 1)), draw(st.integers(0, P - 1))] = draw(
        st.integers(1000, 3000))
    counts[:, draw(st.integers(0, P - 1))] = 0
    return state, labels, options, hyper, counts, draw(st.integers(0, 2**32))


@PROPERTY_SETTINGS
@given(table_problems())
def test_scan_tables_match_cell_loop(problem):
    # the scan looks its count log-gammas up, the reference calls gammaln
    # on every term of every cell
    _check_scan(*problem)


def _corner_case(case):
    """(state, labels, options, hyper, counts) of one named corner."""
    rng = np.random.default_rng(11)
    D, P, P_lab = 7, (1 if case == "one phenotype" else 4), 1
    mode = MISSING_ESTIMATE
    A = rng.integers(0, 2, size=(D, P)).astype(np.int8)
    entries = rng.integers(-1, 2, size=(D, P_lab)).astype(np.int8)
    if case == "clamps disagree with A":
        P_lab = 3
        entries = np.where(A[:, :P_lab] == 1, LABEL_ABSENT, LABEL_PRESENT)
        entries[::3, 1] = LABEL_UNKNOWN
    elif case == "column without a free cell":
        P_lab = 2
        entries = rng.integers(-1, 2, size=(D, P_lab)).astype(np.int8)
        mode = MISSING_FIX_ZERO
    state = ModelState(theta=np.full((D, P), 1.0 / P), phi=[], z=[], A=A,
                       B=rng.uniform(0.5, 20.0, size=P), Bstar=1e-3)
    labels = LabelMatrix(entries=entries,
                         label_names=[f"l{j}" for j in range(P_lab)])
    counts = rng.integers(0, 30, size=(D, P))
    return (state, labels, TrainOptions(missing_label_mode=mode),
            make_hyper(P=P, P_lab=P_lab), counts)


@pytest.mark.parametrize("case", ["clamps disagree with A",
                                  "column without a free cell",
                                  "one phenotype"])
def test_corner_cases_match_cell_loop(case):
    state, labels, options, hyper, counts = _corner_case(case)
    clamp = clamp_matrix(labels, options, *state.A.shape)
    if case == "clamps disagree with A":
        fixed = clamp >= 0
        assert np.all(state.A[fixed] != clamp[fixed]) and fixed.any()
    if case == "column without a free cell":
        assert not (clamp < 0)[:, :2].any() and (clamp < 0)[:, 2:].all()
    want = _copy(state)
    rng_want = np.random.default_rng(5)
    ref.collapsed_scan(want, counts, hyper, rng_want, labels, options)
    rng = np.random.default_rng(5)
    got = activation_scan(state.A.copy(), clamp, counts, state.B,
                          state.Bstar, hyper.alpha, rng)
    assert np.array_equal(got, want.A)
    assert rng.bit_generator.state == rng_want.bit_generator.state


def _error_state(D=5, P=4):
    rng = np.random.default_rng(7)
    return ModelState(theta=rng.dirichlet(np.ones(P), size=D), phi=[], z=[],
                      A=rng.integers(0, 2, size=(D, P)).astype(np.int8),
                      B=np.full(P, 5.0), Bstar=0.1)


def test_non_finite_log_odds_names_the_cell():
    # B_2 = NaN spoils the totals of every row active at phenotype 2; only
    # patient 3 is, so the first cell the scan cannot score is (3, 0)
    state = _error_state()
    state.A[:] = 0
    state.A[3, 2] = 1
    state.B[2] = np.nan
    hyper = make_hyper(P=4)
    counts = np.ones((5, 4), dtype=np.int64)
    with pytest.raises(SamplingError, match=r"patient 3, phenotype 0\b"):
        activation_scan(state.A.copy(),
                        clamp_matrix(None, TrainOptions(), 5, 4), counts,
                        state.B, state.Bstar, hyper.alpha,
                        np.random.default_rng(0))
    every_cell_free = np.full((5, 4), -1, dtype=np.int8)
    with pytest.raises(SamplingError, match=r"patient 3, phenotype 0\b"):
        activation_scan(state.A, every_cell_free, counts, state.B,
                        state.Bstar, hyper.alpha, np.random.default_rng(0))


def test_non_finite_log_odds_names_the_first_free_patient():
    # B_0 = inf spoils column 0 for every patient; patients 0 and 1 are
    # clamped Present there, so the first cell the scan resamples is (2, 0).
    state = _error_state()
    state.B[0] = np.inf
    entries = np.full((5, 1), -1, dtype=np.int8)
    entries[:2] = LABEL_PRESENT
    labels = LabelMatrix(entries=entries, label_names=["l0"])
    with pytest.raises(SamplingError, match=r"patient 2, phenotype 0\b"):
        activation_scan(
            state.A.copy(),
            clamp_matrix(labels,
                         TrainOptions(missing_label_mode=MISSING_ESTIMATE),
                         5, 4),
            np.ones((5, 4), dtype=np.int64), state.B, state.Bstar,
            make_hyper(P=4, P_lab=1).alpha, np.random.default_rng(0))
