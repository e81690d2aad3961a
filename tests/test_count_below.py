"""The one inverse-CDF search, model.count_below, and the forward model's
draw_tokens built on it.

draw_tokens is checked bit for bit against the searchsorted sampler it
replaced (tests/reference_kernels.py) on identically seeded generators:
one phenotype, a vocabulary of one, empty patients and weight rows with
exact zeros. count_below is checked against counting every entry, with
thresholds past the last entry of a row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels as ref
from ss3m.model import count_below, draw_tokens

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)


def _weight_rows(draw, shape):
    """Nonnegative rows with a positive total; some entries may be exact
    zeros, at the start, the middle or the end of a row."""
    x = draw(arrays(np.float64, shape, elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1.0))))
    x[np.arange(shape[0]), draw(st.integers(0, shape[1] - 1))] += 0.5
    if draw(st.booleans()):
        x /= x.sum(axis=1, keepdims=True)
    return x


@PROPERTY_SETTINGS
@given(D=st.integers(1, 6), P=st.integers(1, 5), V=st.integers(1, 6),
       data=st.data())
def test_draw_tokens_matches_searchsorted_sampler(D, P, V, data):
    theta = _weight_rows(data.draw, (D, P))
    phi = _weight_rows(data.draw, (P, V))
    lengths = np.array(data.draw(st.lists(
        st.integers(0, data.draw(st.sampled_from([0, 1, 8]))),
        min_size=D, max_size=D)), dtype=np.int64)
    seed = data.draw(st.integers(0, 2**32))
    rng, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    z, w = draw_tokens(theta, phi, lengths, rng)
    z_want, w_want = ref.draw_tokens(theta, phi, lengths, rng_want)
    assert np.array_equal(z.flat, z_want) and np.array_equal(w.flat, w_want)
    assert z.flat.dtype == w.flat.dtype == np.int64
    assert np.array_equal(np.diff(w.offsets), lengths)
    assert rng.bit_generator.state == rng_want.bit_generator.state
    # no draw lands on a zero weight (barring a uniform of exactly 0)
    assert np.all(theta[z.doc_idx, z.flat] > 0)
    assert np.all(phi[z.flat, w.flat] > 0)


@PROPERTY_SETTINGS
@given(R=st.integers(1, 4), K=st.integers(1, 9), data=st.data())
def test_count_below_counts_entries_below_and_never_returns_K(R, K, data):
    cum = np.cumsum(_weight_rows(data.draw, (R, K)), axis=1)
    n = data.draw(st.integers(0, 12))
    rows = np.array(data.draw(st.lists(st.integers(0, R - 1), min_size=n,
                                       max_size=n)), dtype=np.int64)
    # thresholds at, between and past the entries, up to inf
    top = float(cum[:, -1].max())
    thr = np.array(data.draw(st.lists(st.one_of(
        st.floats(0.0, 2.0 * top), st.sampled_from(
            [0.0, top, np.nextafter(top, np.inf), np.inf])),
        min_size=n, max_size=n)), dtype=np.float64)
    got = count_below(cum, rows, thr)
    want = (cum[rows, :K - 1] < thr[:, None]).sum(axis=1)
    assert np.array_equal(got, want)
    assert got.shape == (n,) and np.all((0 <= got) & (got <= K - 1))

