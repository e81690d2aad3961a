"""The one stored token layout, model.Ragged: a round trip from the
per-patient arrays that Corpus and ModelState are built from, the layout
check at construction, views that alias the flat buffer, a corpus's
read-only tokens, and deep ModelState copies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tiny_state
from ss3m.errors import DataError, DimensionError
from ss3m.model import Corpus, ModelState, Ragged

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)

# one patient, empty patients, and sources with no tokens at all
per_patient_arrays = st.lists(
    st.lists(st.integers(0, 6), max_size=5).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    min_size=1, max_size=6)


@PROPERTY_SETTINGS
@given(per_patient_arrays)
def test_round_trip_from_per_patient_arrays(arrays_in):
    r = Ragged.of(arrays_in)
    assert len(r) == len(arrays_in)
    assert r.flat.dtype == np.int64 and r.flat.ndim == 1
    assert r.offsets[0] == 0 and r.offsets[-1] == r.flat.size
    for d, (view, want) in enumerate(zip(r, arrays_in, strict=True)):
        assert np.array_equal(view, want) and view.dtype == np.int64
        assert np.array_equal(r[d], want)
        assert np.array_equal(r[d - len(r)], want)
        assert np.all(r.doc_idx[r.offsets[d]:r.offsets[d + 1]] == d)
    assert np.array_equal(np.concatenate(r), r.flat)
    assert [w.tolist() for w in Ragged.of(list(r))] == [
        w.tolist() for w in arrays_in]
    with pytest.raises(IndexError):
        r[len(r)]


@pytest.mark.parametrize("entry", [1.7, float("nan"), float("inf"), -0.5])
def test_non_integer_entries_are_data_errors(entry):
    with pytest.raises(DataError, match="must be integers"):
        Ragged.of([[0, 1], [0, entry]])
    with pytest.raises(DataError, match="must be integers"):
        Ragged(np.arange(2), [entry, 1])
    with pytest.raises(DataError, match="must be integers"):
        Corpus(vocab=[["a", "b"]], tokens=[[[0, entry]]])
    with pytest.raises(DataError, match="must be integers"):
        ModelState(theta=np.full((1, 2), 0.5), phi=[np.full((2, 2), 0.5)],
                   z=[[np.array([entry])]], A=np.ones((1, 2), dtype=np.int8),
                   B=np.ones(2), Bstar=0.1)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, float])
def test_integer_entries_are_kept(dtype):
    # integral values keep their value whatever the array's dtype; an
    # empty list (float64 to numpy) is an empty patient
    r = Ragged.of([np.array([2, 0, 5], dtype=dtype), [], [1]])
    assert r.flat.dtype == np.int64
    assert r.flat.tolist() == [2, 0, 5, 1]
    assert r.offsets.tolist() == [0, 3, 3, 4]
    corpus = Corpus(vocab=[["a", "b", "c"]],
                    tokens=[[np.array([2, 0], dtype=dtype), []]])
    assert corpus.tokens[0].flat.tolist() == [2, 0]


@PROPERTY_SETTINGS
@given(st.lists(st.integers(-1, 4), max_size=6), st.integers(-2, 2),
       st.booleans())
def test_layout_is_checked_when_built(lengths, slack, two_d):
    # flat must be 1-D and the lengths non-negative and sum to its size;
    # a mis-cut layout would count tokens of one patient as another's
    size = max(sum(lengths) + slack, 0)
    flat = np.arange(size).reshape((1, size) if two_d else size)
    if two_d or min(lengths, default=0) < 0 or sum(lengths) != size:
        with pytest.raises(DimensionError, match="do not cut a 1-D array"):
            Ragged(flat, lengths)
        return
    r = Ragged(flat, lengths)
    assert r.flat is flat and [v.size for v in r] == lengths
    assert r.offsets.tolist() == np.cumsum([0, *lengths]).tolist()


@PROPERTY_SETTINGS
@given(per_patient_arrays, st.integers(0, 99))
def test_views_alias_the_flat_buffer(arrays_in, value):
    r = Ragged.of(arrays_in)
    for d, view in enumerate(r):
        if view.size:
            assert np.shares_memory(view, r.flat)
            view[0] = value
            assert r.flat[r.offsets[d]] == value
    # the layout is built from a copy: the caller's arrays are left alone
    assert not any(np.shares_memory(a, r.flat) for a in arrays_in)
    with pytest.raises(ValueError):
        r.offsets[0] = 1
    with pytest.raises(ValueError):
        r.doc_idx[:] = 0


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 4))
def test_state_copy_is_deep(seed, D, max_tokens):
    state, corpus = random_tiny_state(np.random.default_rng(seed), D=D,
                                      S=2, max_tokens=max_tokens)
    before = [z_s.flat.copy() for z_s in state.z]
    snapshot = state.copy()
    snapshot.validate(corpus)
    for z_s, z_copy in zip(state.z, snapshot.z, strict=True):
        assert not np.shares_memory(z_s.flat, z_copy.flat)
        z_copy.flat += 1
        for view in z_copy:
            view[:] = -1
    for z_s, want in zip(state.z, before, strict=True):
        assert np.array_equal(z_s.flat, want)


def test_corpus_leaves_the_callers_list_alone():
    toks = [[[0, 1], np.array([2], dtype=np.int32), []]]
    corpus = Corpus(vocab=[["a", "b", "c"]], tokens=toks)
    assert toks == [[[0, 1], toks[0][1], []]]
    assert toks[0][1].dtype == np.int32
    assert corpus.tokens[0].flat.tolist() == [0, 1, 2]
    assert corpus.num_patients == 3 and corpus.num_tokens() == 3


def test_a_built_corpus_is_read_only():
    own = Ragged(np.array([1, 0, 1]), [2, 1])
    corpus = Corpus(vocab=[["a", "b"], ["c"]], tokens=[own, [[0], []]])
    assert corpus.tokens[0] is own and not own.flat.flags.writeable
    for w in corpus.tokens:
        assert not any(view.flags.writeable for view in w)
    with pytest.raises(ValueError, match="read-only"):
        corpus.tokens[0].flat[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        corpus.tokens[1][0][0] = 0
    # a corpus that fails to build makes nothing read-only
    mine = Ragged(np.array([1, 0]), [2])
    with pytest.raises(DimensionError, match="source 1"):
        Corpus(vocab=[["a", "b"], ["c"]],
               tokens=[mine, Ragged(np.array([1]), [1])])
    assert mine.flat.flags.writeable
    # assignments in the corpus's layout, and a state's, stay writable
    z = corpus.tokens[0].like(np.zeros(3, dtype=np.int64))
    z[0][1] = 1
    assert z.flat.tolist() == [0, 1, 0]
    state, _ = random_tiny_state(np.random.default_rng(0), D=2,
                                 max_tokens=3)
    for z in state.z:
        z.flat[:] = 1


def test_out_of_range_token_names_its_patient():
    with pytest.raises(DimensionError, match="source 1, patient 2"):
        Corpus(vocab=[["a"], ["a", "b"]],
               tokens=[[[0], [], [0]], [[1], [0], [0, 2]]])


def test_state_z_must_match_the_corpus_layout():
    corpus = Corpus(vocab=[["a"]], tokens=[[[0, 0], [0]]])
    state = ModelState(theta=np.full((2, 1), 1.0), phi=[np.ones((1, 1))],
                       z=[[[0], [0, 0]]], A=np.ones((2, 1), dtype=np.int8),
                       B=np.ones(1), Bstar=1.0)
    with pytest.raises(DimensionError, match="document lengths"):
        state.validate(corpus)


@pytest.mark.parametrize("bad", [[np.zeros((2, 2))], [np.int64(3)]])
def test_patient_entries_must_be_1d(bad):
    with pytest.raises(DimensionError, match="1-D"):
        Ragged.of(bad)


def test_no_patients():
    r = Ragged.of([])
    assert len(r) == 0 and list(r) == [] and r.flat.dtype == np.int64
    assert Corpus(vocab=[["a"]], tokens=[[]]).num_patients == 0
