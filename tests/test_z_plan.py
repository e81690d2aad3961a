"""The z pass's per-chain plan (gibbs.ZPlan): reused across local steps
with the draws of the unchunked reference, the corpus checks it relies
on, its shape checks, its corner
cases (P = 1, sources without tokens), and a peak allocation per pass
that grows with the tokens and not with the (pair x phenotype) rows."""

import tracemalloc

import numpy as np
import pytest

import reference_kernels as ref
from conftest import flat_corpus, make_hyper, random_tiny_state
from ss3m import gibbs
from ss3m.errors import DimensionError
from ss3m.gibbs import Z_CHUNK, ZPlan, clamp_matrix, local_step
from ss3m.model import Corpus, Ragged


def _tokens(n, D, V, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, V, size=n), np.sort(rng.integers(0, D, size=n))


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
    assert ZPlan(corpus, 3).pairs[0].word.tolist() == [0]


def test_pass_rejects_arrays_the_plan_was_not_built_for():
    # a clipped gather would read the last row of a too-short theta or
    # phi; the pass refuses the shapes instead
    plan = ZPlan(flat_corpus([(np.array([0, 4]), [0, 2], 5)], 3), 2)
    theta = np.full((3, 2), 0.5)
    phi_s = np.full((2, 5), 0.2)
    assert gibbs._sample_z_batch(theta, phi_s, plan, 0,
                                 np.random.default_rng(0)).shape == (2,)
    for bad_theta, bad_phi in [(theta[:2], phi_s), (theta, phi_s[:, :4]),
                               (np.full((3, 3), 1 / 3), phi_s)]:
        with pytest.raises(DimensionError, match="z plan"):
            gibbs._sample_z_batch(bad_theta, bad_phi, plan, 0,
                                  np.random.default_rng(0))
    # a Ragged whose lengths do not sum to its size fails when it is
    # built, before a corpus or a plan can hold it
    with pytest.raises(DimensionError, match="1-D"):
        Ragged(np.array([0, 4]), [1])


def test_one_phenotype_and_empty_sources():
    # source 1 has no tokens at all: no pairs, an empty draw, no uniforms
    w_flat, doc_idx = _tokens(30, 4, 6, seed=1)
    empty = np.zeros(0, dtype=np.int64)
    plan = ZPlan(flat_corpus([(w_flat, doc_idx, 6), (empty, empty, 3)], 4),
                 1)
    assert plan.scratch.shape == (2, plan.pairs[0].heads.size, 1)
    theta = np.ones((4, 1))
    rng = np.random.default_rng(3)
    z = gibbs._sample_z_batch(theta, np.full((1, 6), 1 / 6), plan, 0, rng)
    assert z.dtype == np.int64 and z.tolist() == [0] * 30
    before = rng.bit_generator.state
    z = gibbs._sample_z_batch(theta, np.full((1, 3), 1 / 3), plan, 1, rng)
    assert z.dtype == np.int64 and z.size == 0
    assert rng.bit_generator.state == before
    only_empty = ZPlan(flat_corpus([(empty, empty, 3)], 4), 5)
    assert only_empty.scratch.shape == (2, 0, 5)
    corpus = Corpus(vocab=[["a"]], tokens=[[[], []]])
    assert ZPlan(corpus, 2).pairs[0].heads.size == 0


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
        want = np.argsort(doc_idx * V + w_flat, kind="stable")
        assert np.array_equal(plan.pairs[0].order, want), D
        assert plan.pairs[1].order.size == 0


def _pass_peak_bytes(theta, phi_s, plan, rng):
    """Peak bytes allocated above the starting level by one z pass."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gibbs._sample_z_batch(theta, phi_s, plan, 0, rng)
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
        U = plan.pairs[0].heads.size
        assert U > 0.9 * n
        assert plan.scratch.shape == (2, min(Z_CHUNK, U), P)
        gibbs._sample_z_batch(theta, phi_s, plan, 0, rng)  # warm up
        peaks.append(_pass_peak_bytes(theta, phi_s, plan, rng))
        sizes.append((n, U))
    (n1, u1), (n4, u4) = sizes
    # the pass holds phi transposed (V x P), its uniforms and draws (two
    # N-long arrays) and one block's per-token index arrays; one block's
    # (Z_CHUNK x P) weights, let alone all U x P, would break the bound
    for peak, n in zip(peaks, (n1, n4)):
        assert peak < V * P * 8 + 24 * n + 64 * Z_CHUNK, (peak, n)
    assert peaks[1] - peaks[0] < 24 * (n4 - n1)
    assert peaks[1] < (u4 - u1) * P * 8 / 10
    # a corpus with fewer pairs than Z_CHUNK gets a scratch of its size
    w_flat, doc_idx = _tokens(500, 3, 7, seed=2)
    plan = ZPlan(flat_corpus([(w_flat, doc_idx, 7)], 3), P)
    assert plan.scratch.shape == (2, plan.pairs[0].heads.size, P)
    assert plan.pairs[0].heads.size <= 21
