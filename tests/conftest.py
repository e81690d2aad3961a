import base64
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ss3m import gibbs
from ss3m.gibbs import ZPlan, activation_scan
from ss3m.model import Corpus, Hyperparameters, ModelState, Ragged
from ss3m.util import sample_dirichlet


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def fresh_stdout(code, *args):
    """What code prints, run with args in a fresh interpreter that imports
    this checkout's ss3m: where a test sees what importing costs."""
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC}).stdout


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


def flat_corpus(sources, D):
    """A corpus of D patients from one (w_flat, doc_idx, V) per source:
    the token IDs end to end, the patient of each, in sorted order, and
    the vocabulary size."""
    vocab, tokens = [], []
    for w_flat, doc_idx, V in sources:
        lengths = np.bincount(np.asarray(doc_idx, dtype=np.int64),
                              minlength=D)
        assert np.all(np.diff(doc_idx) >= 0) and lengths.size == D, \
            "patients must be sorted and lie in [0, D)"
        vocab.append([f"w{v}" for v in range(V)])
        tokens.append(Ragged(np.asarray(w_flat), lengths))
    return Corpus(vocab=vocab, tokens=tokens)


def z_pass(theta, phi_s, w_flat, doc_idx, rng):
    """The z kernel on the plan of a one-source corpus of the given
    tokens, their patients sorted."""
    theta, phi_s = np.asarray(theta), np.asarray(phi_s)
    corpus = flat_corpus([(w_flat, doc_idx, phi_s.shape[1])], len(theta))
    plan = ZPlan(corpus, theta.shape[1])
    return gibbs._sample_z_batch(theta, [phi_s], plan, rng)[0]


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
    float the scan hands to expit when it runs on patient d's row alone
    with every other bit clamped to its value in state.A, so that its
    total over q != p is summed as in any scan (q < p left to right, plus
    q > p right to left)."""
    clamp = state.A[[d]].astype(np.int8)
    clamp[0, p] = -1
    seen, real_expit = [], gibbs.expit

    def expit(odds, out=None):
        seen.append(float(odds[0]))
        return real_expit(odds, out=out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "expit", expit)
        activation_scan(state.A[[d]].copy(), clamp, np.asarray(counts)[[d]],
                        state.B, state.Bstar, hyper.alpha,
                        np.random.default_rng(0))
    (odds,) = seen
    return odds


# the keys of the v2 state and corpus containers that hold arrays
_V2_ARRAY_KEYS = ("theta", "phi", "z", "A", "B", "tokens")
# the dtypes the readers accept for a ragged field's flat and lengths
RAGGED_DTYPES = ("|u1", "<u2", "<i4")


def v2_array(field):
    """The array a v2 {"dtype", "shape", "data"} field holds."""
    return np.frombuffer(base64.b64decode(field["data"]),
                         dtype=field["dtype"]).reshape(field["shape"])


def v2_field(values, dtype, shape=None):
    """values as a v2 field of dtype; shape, when given, is written in
    place of the shape of values."""
    array = np.ascontiguousarray(values, dtype=dtype)
    return {"dtype": np.dtype(dtype).str,
            "shape": list(array.shape if shape is None else shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def _as_lists(field):
    """A v2 array field, a {"flat", "lengths"} pair or a list of them, as
    nested lists (a pair as one list per patient)."""
    if isinstance(field, list):
        return [_as_lists(f) for f in field]
    if "flat" in field:
        flat = v2_array(field["flat"]).tolist()
        ends = np.cumsum(v2_array(field["lengths"])).tolist()
        return [flat[a:b] for a, b in zip([0] + ends, ends)]
    return v2_array(field).tolist()


def _fits(values, dtype) -> bool:
    """Whether the array values holds exactly what dtype can."""
    if values.size == 0 or values.dtype.kind == dtype.kind == "f":
        return True
    if values.dtype.kind in "iu" and dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.min <= values.min() and values.max() <= info.max
    return False


def _encoded_as(lists, like, wider=()):
    """The nested lists of _as_lists(like), maybe edited, as v2 fields
    again: each array in like's dtype where its values still fit it, else
    in the first of the dtypes wider that they fit, else in theirs, so
    that 2.5 written into A makes a '<f8' field. A {"flat", "lengths"}
    pair's flat may widen to any dtype of RAGGED_DTYPES, so that -1
    written into a '|u1' z makes a '<i4' field, which the reader accepts;
    its lengths are written as '<i4'. Rows of unequal length keep like's
    shape and lose the bytes of the missing entries."""
    if isinstance(like, list):
        return [_encoded_as(v, f) for v, f in zip(lists, like)]
    if "flat" in like:
        return {"flat": _encoded_as([v for d in lists for v in d],
                                    like["flat"], RAGGED_DTYPES),
                "lengths": v2_field([len(d) for d in lists], "<i4")}
    dtype = np.dtype(like["dtype"])
    try:
        values = np.array(lists)
    except ValueError:  # ragged rows
        return v2_field(np.concatenate(lists), dtype, like["shape"])
    fitting = (t for t in (dtype, *map(np.dtype, wider))
               if _fits(values, t))
    return v2_field(values, next(fitting, values.dtype))


def corrupt_v2(payload, corrupt):
    """Applies corrupt, an edit written for a payload whose arrays are
    nested lists, to the v2 payload in place: its array fields are
    decoded to nested lists, corrupt edits the payload, and each array
    field still there is encoded again (_encoded_as)."""
    fields = {key: payload[key] for key in _V2_ARRAY_KEYS if key in payload}
    for key, field in fields.items():
        payload[key] = _as_lists(field)
    corrupt(payload)
    for key, field in fields.items():
        if key in payload:
            payload[key] = _encoded_as(payload[key], field)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
