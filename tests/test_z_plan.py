"""The z pass's per-chain plan (gibbs.ZPlan): reused across local steps
with the draws of the unchunked reference, the corpus checks it relies
on, its shape checks, its block table (whole patients, one token range
each, every token's pair found through its row), its corner cases (P = 1,
sources without tokens, a patient with more pairs than a block), and a
peak allocation per pass that grows with the tokens and not with the
(pair x phenotype) rows."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from conftest import flat_corpus, make_hyper, random_tiny_state
from test_flat_kernels import token_problems
from ss3m import gibbs
from ss3m.errors import DimensionError
from ss3m.gibbs import Z_CHUNK, ZPlan, clamp_matrix, local_step
from ss3m.model import Corpus, Ragged


def _tokens(n, D, V, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, V, size=n), np.sort(rng.integers(0, D, size=n))


def _token_pairs(blocks):
    """Each token's pair, numbered over all sources: its block's first
    pair plus its row."""
    table = blocks.table
    return np.repeat(table[:, 3], table[:, 2] - table[:, 1]) + blocks.rows


@pytest.mark.parametrize("chunk", [2, Z_CHUNK])
def test_one_plan_serves_consecutive_local_steps(chunk, monkeypatch):
    rng = np.random.default_rng(7)
    state, corpus = random_tiny_state(rng, D=6, P=5, S=2, V=4, max_tokens=6)
    hyper = make_hyper(P=5, S=2)
    monkeypatch.setattr(gibbs, "Z_CHUNK", chunk)
    plan = ZPlan(corpus, 5)
    scratch = plan.scratch
    clamp = clamp_matrix(None, gibbs.TrainOptions(), 6, 5)
    for step in range(3):
        # the reference draws the z pass's uniforms from a copy of the
        # generator, source by source, as the local step does
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        want = [ref.sample_z_batch(state.theta, state.phi[s], w.flat,
                                   w.doc_idx, twin)
                for s, w in enumerate(corpus.tokens)]
        theta = state.theta.copy()
        local_step(state, plan, clamp, hyper.alpha, rng)
        for s in range(2):
            assert np.array_equal(state.z[s].flat, want[s]), (step, s)
        assert not np.array_equal(state.theta, theta)
        assert plan.scratch is scratch


@pytest.mark.parametrize("w_flat, doc_idx", [
    ([0, 5], [0, 0]),       # token ID == V
    ([0, -1], [0, 0]),      # negative token ID
])
def test_plan_rejects_out_of_range_indices(w_flat, doc_idx):
    # the plan gathers at the token IDs unchecked: the corpus rejects
    # these when it is built, and a built corpus refuses them written in
    with pytest.raises(DimensionError, match="out of range"):
        flat_corpus([(np.array(w_flat), doc_idx, 5)], 2)
    corpus = flat_corpus([(np.zeros(2, dtype=np.int64), doc_idx, 5)], 2)
    with pytest.raises(ValueError, match="read-only"):
        corpus.tokens[0].flat[:] = w_flat
    with pytest.raises(ValueError, match="read-only"):
        corpus.tokens[0][0][1] = w_flat[1]
    assert ZPlan(corpus, 3).blocks.word.tolist() == [0]


def test_pass_rejects_arrays_the_plan_was_not_built_for():
    # a clipped gather would read the last row of a too-short theta or
    # phi; the pass refuses the shapes instead
    plan = ZPlan(flat_corpus([(np.array([0, 4]), [0, 2], 5)], 3), 2)
    theta = np.full((3, 2), 0.5)
    phi_s = np.full((2, 5), 0.2)
    (z,) = gibbs._sample_z_batch(theta, [phi_s], plan,
                                 np.random.default_rng(0))
    assert z.shape == (2,)
    for bad_theta, bad_phi in [(theta[:2], [phi_s]), (theta, [phi_s[:, :4]]),
                               (np.full((3, 3), 1 / 3), [phi_s]),
                               (theta, []), (theta, [phi_s, phi_s])]:
        with pytest.raises(DimensionError, match="z plan"):
            gibbs._sample_z_batch(bad_theta, bad_phi, plan,
                                  np.random.default_rng(0))
    # a Ragged whose lengths do not sum to its size fails when it is
    # built, before a corpus or a plan can hold it
    with pytest.raises(DimensionError, match="1-D"):
        Ragged(np.array([0, 4]), [1])


def test_one_phenotype_and_empty_sources():
    # source 1 has no tokens at all: no pairs, no blocks, no uniforms
    w_flat, doc_idx = _tokens(30, 4, 6, seed=1)
    empty = np.zeros(0, dtype=np.int64)
    plan = ZPlan(flat_corpus([(w_flat, doc_idx, 6), (empty, empty, 3)], 4),
                 1)
    U = plan.blocks.patient.size
    assert plan.scratch.shape == (2, 1, U) and plan.blocks.largest == U
    assert plan.blocks.table[:, 0].tolist() == [0]
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    z0, z1 = gibbs._sample_z_batch(np.ones((4, 1)), [np.full((1, 6), 1 / 6),
                                                    np.full((1, 3), 1 / 3)],
                                   plan, rng)
    assert z0.dtype == z1.dtype == np.int64
    assert z0.tolist() == [0] * 30 and z1.size == 0
    twin.random(30)
    assert rng.bit_generator.state == twin.bit_generator.state
    only_empty = ZPlan(flat_corpus([(empty, empty, 3)], 4), 5)
    assert only_empty.scratch.shape == (2, 5, 0)
    assert only_empty.blocks.table.shape == (0, 5)
    corpus = Corpus(vocab=[["a"]], tokens=[[[], []]])
    assert ZPlan(corpus, 2).blocks.patient.size == 0


# around the 8- and 16-bit limits of the radix-sorted key types
_SIZES = (1, 2, 255, 256, 257, 65535, 65536, 65537)


@pytest.mark.parametrize("V", _SIZES)
def test_pair_order_is_the_stable_sort_of_the_pair_keys(V):
    # tokens drawn from 40 (patient, word) pairs, so that every pair
    # repeats at unsorted positions within its patient, the extreme IDs
    # among them; grouped by patient, as a corpus holds them
    rng = np.random.default_rng(V)
    empty = np.zeros(0, dtype=np.int64)
    for D in _SIZES:
        words, patients = rng.integers(0, V, 40), rng.integers(0, D, 40)
        words[:2], patients[:2] = (0, V - 1), (D - 1, 0)
        pick = rng.integers(0, 40, 600)
        pick = pick[np.argsort(patients[pick], kind="stable")]
        w_flat, doc_idx = words[pick], patients[pick]
        plan = ZPlan(flat_corpus([(w_flat, doc_idx, V), (empty, empty, V)],
                                 D), 1)
        blocks = plan.blocks
        # the pairs are the distinct keys in sorted order, and every
        # token finds its own pair through its row
        key = doc_idx * V + w_flat
        assert np.array_equal(blocks.patient * V + blocks.word,
                              np.unique(key)), D
        assert np.array_equal(
            np.take(blocks.patient * V + blocks.word, _token_pairs(blocks)),
            key), D
        assert blocks.ends.tolist() == [0, 600, 600]


def _pass_peak_bytes(theta, phi_s, plan, rng):
    """Peak bytes allocated above the starting level by one z pass."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gibbs._sample_z_batch(theta, [phi_s], plan, rng)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_pass_memory_grows_with_tokens_not_pair_rows():
    # nearly every token is its own (patient, word) pair, so U is close to
    # N and a (pairs x P) temporary would cost P * 8 = 560 bytes a token
    P, D, V = 70, 1000, 1000
    rng = np.random.default_rng(0)
    theta = rng.dirichlet(np.ones(P), size=D)
    phi_s = rng.dirichlet(np.ones(V), size=P)
    peaks, sizes = [], []
    for n in (20_000, 80_000):
        w_flat, doc_idx = _tokens(n, D, V, seed=n)
        plan = ZPlan(flat_corpus([(w_flat, doc_idx, V)], D), P)
        U = plan.blocks.patient.size
        assert U > 0.9 * n
        assert plan.scratch.shape == (2, P, plan.blocks.largest)
        assert Z_CHUNK - 100 < plan.blocks.largest <= Z_CHUNK
        gibbs._sample_z_batch(theta, [phi_s], plan, rng)  # warm up
        peaks.append(_pass_peak_bytes(theta, phi_s, plan, rng))
        sizes.append((n, U))
    (n1, u1), (n4, u4) = sizes
    # the pass holds theta transposed (D x P), its uniforms, which its
    # draws overwrite (one N-long array), and one block's per-token index
    # arrays; phi is read in place, and one block's (P x Z_CHUNK)
    # weights, let alone all U x P, would break the bound
    for peak, n in zip(peaks, (n1, n4)):
        assert peak < D * P * 8 + 16 * n + 64 * Z_CHUNK, (peak, n)
    assert peaks[1] - peaks[0] < 16 * (n4 - n1)
    assert peaks[1] < (u4 - u1) * P * 8 / 10
    # a corpus with fewer pairs than Z_CHUNK gets a scratch of its size
    w_flat, doc_idx = _tokens(500, 3, 7, seed=2)
    plan = ZPlan(flat_corpus([(w_flat, doc_idx, 7)], 3), P)
    assert plan.scratch.shape == (2, P, plan.blocks.patient.size)
    assert plan.blocks.patient.size <= 21


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(token_problems(), st.integers(1, 4))
def test_blocks_tile_the_tokens_by_whole_patients(problem, chunk):
    _, corpus, _ = problem
    saved, gibbs.Z_CHUNK = gibbs.Z_CHUNK, chunk
    try:
        blocks = ZPlan(corpus, 2).blocks
    finally:
        gibbs.Z_CHUNK = saved
    table, at = blocks.table, 0
    for s, w in enumerate(corpus.tokens):
        lo, hi = blocks.ends[s], blocks.ends[s + 1]
        assert hi - lo == w.flat.size
        mine = table[table[:, 0] == s]
        # in flat order, end to end, none empty
        assert mine[:, 1].tolist() == [lo, *mine[:-1, 2]][:len(mine)]
        assert mine[-1:, 2].tolist() == ([hi] if w.flat.size else [])
        assert np.all(mine[:, 2] > mine[:, 1])
        assert mine[:, 3].tolist() == [at, *mine[:-1, 4]][:len(mine)]
        at = mine[-1, 4] if mine.size else at
        for _, a, b, p_lo, p_hi in mine:
            # whole patients: a block's range starts and ends at patient
            # boundaries; at most chunk pairs, or one patient's
            first, last = w.doc_idx[a - lo], w.doc_idx[b - 1 - lo]
            assert a - lo == w.offsets[first] and b - lo == w.offsets[last + 1]
            assert p_hi - p_lo <= chunk or first == last
            rows = blocks.rows[a:b]
            assert 0 <= rows.min() and rows.max() == p_hi - p_lo - 1
            assert np.array_equal(blocks.patient[p_lo + rows],
                                  w.doc_idx[a - lo:b - lo])
            assert np.array_equal(blocks.word[p_lo + rows],
                                  w.flat[a - lo:b - lo])
    assert at == blocks.patient.size == blocks.word.size
    assert blocks.rows.dtype == np.int32
    assert blocks.largest == (table[:, 4] - table[:, 3]).max(initial=0)


def test_patient_with_more_pairs_than_a_block_gets_its_own(monkeypatch):
    # patient 1 uses 6 distinct words, more than the 4 pairs a block may
    # hold; its neighbours share blocks of whole patients
    w_flat = np.array([0, 1, 5, 4, 3, 2, 1, 0, 5, 2, 2, 3, 3, 1])
    doc_idx = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3, 4, 4])
    monkeypatch.setattr(gibbs, "Z_CHUNK", 4)
    corpus = flat_corpus([(w_flat, doc_idx, 6)], 5)
    plan = ZPlan(corpus, 3)
    # (source, first token, end token, first pair, end pair)
    assert plan.blocks.table.tolist() == [[0, 0, 2, 0, 2], [0, 2, 9, 2, 8],
                                          [0, 9, 12, 8, 11],
                                          [0, 12, 14, 11, 13]]
    assert plan.blocks.largest == 6 and plan.scratch.shape == (2, 3, 6)
    rng = np.random.default_rng(4)
    theta = rng.dirichlet(np.ones(3), size=5)
    phi_s = rng.dirichlet(np.ones(6), size=3)
    want = ref.sample_z_batch(theta, phi_s, w_flat, doc_idx,
                              np.random.default_rng(9))
    (got,) = gibbs._sample_z_batch(theta, [phi_s], plan,
                                   np.random.default_rng(9))
    assert np.array_equal(got, want)
