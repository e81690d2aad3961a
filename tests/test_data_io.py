import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_kernels
from ss3m import data_io
from ss3m.data_io import (
    PreprocessConfig,
    RawRecord,
    build_labels,
    load_raw,
    load_state,
    preprocess,
    save_state,
    split,
)
from ss3m.errors import ConfigError, DataError, VersionError
from ss3m.model import (
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    DocLengthSpec,
    LabelMatrix,
    ModelState,
    Ragged,
    generate,
    labels_from_activations,
)
from ss3m.util import PROB_FLOOR
from conftest import (
    corpora,
    corrupt_v2,
    make_hyper,
    random_tiny_state,
    v2_array,
    v2_field,
)

IDENTITY = PreprocessConfig()


def write_jsonl(path, objects):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


class TestLoadRaw:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_raw(path) == []

    def test_direct_parse(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [{"patient_id": "p1", "source": "notes",
                            "tokens": ["fever", "cough"], "labels": ["486"]}])
        records = load_raw(path)
        assert len(records) == 1
        rec = records[0]
        assert rec.patient_id == "p1" and rec.source == "notes"
        assert rec.tokens == ["fever", "cough"] and rec.labels == ["486"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"patient_id": "p1", "source": "s", "tokens": []}\n'
                        "not json\n")
        with pytest.raises(DataError, match="line 2"):
            load_raw(path)

    @pytest.mark.parametrize("field, value, kind", [
        ("tokens", "abc", "str"),    # was split into ['a', 'b', 'c']
        ("labels", "flu", "str"),    # was labels f, l and u
        ("tokens", 5, "int"),        # was a TypeError traceback
    ])
    def test_field_that_is_not_an_array(self, tmp_path, field, value, kind):
        path = tmp_path / "scalar.jsonl"
        record = {"patient_id": "p1", "source": "s", "tokens": ["a"]}
        write_jsonl(path, [record, {**record, field: value}])
        with pytest.raises(DataError, match=rf"scalar\.jsonl: line 2: "
                           rf"{field} must be a JSON array, got {kind}"):
            load_raw(path)

    @pytest.mark.parametrize("value, kind", [
        (123, "int"),       # was reported as an empty patient_id
        (None, "NoneType"),
        (["p1"], "list"),
        ("", "str"),
    ])
    def test_patient_id_that_is_not_a_string(self, tmp_path, value, kind):
        path = tmp_path / "ids.jsonl"
        record = {"patient_id": "p1", "source": "s", "tokens": ["a"]}
        write_jsonl(path, [record, {**record, "patient_id": value}])
        with pytest.raises(DataError, match=rf"ids\.jsonl: line 2: "
                           rf"patient_id must be a non-empty string, "
                           rf"got {kind}$"):
            load_raw(path)

    def test_entries_that_are_not_strings_are_cast(self, tmp_path):
        path = tmp_path / "numbers.jsonl"
        write_jsonl(path, [{"patient_id": "p1", "source": "s",
                            "tokens": ["a", 7, 1.5], "labels": [486]}])
        rec = load_raw(path)[0]
        assert rec.tokens == ["a", "7", "1.5"] and rec.labels == ["486"]

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        write_jsonl(path, [{"patient_id": "p1", "source": "s",
                            "tokens": ["a"], "labels": [], "extra": 1}])
        records = load_raw(path)
        assert records[0].tokens == ["a"]

    def test_equal_tokens_share_one_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"patient_id": "p0", "source": "s", "tokens": ["ab", "cd", "ab"]},
            {"patient_id": "p1", "source": "t", "tokens": ["cd", "ab"]},
            {"patient_id": "p1", "source": "s", "tokens": [70, 70.5, 70]}])
        first, second, cast = (rec.tokens for rec in load_raw(path))
        assert (first, second, cast) == (["ab", "cd", "ab"], ["cd", "ab"],
                                         ["70", "70.5", "70"])
        assert first[0] is first[2] is second[1]
        assert first[1] is second[0]
        assert cast[0] is cast[2]

    def test_duplicate_patient_source_concatenated(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [
            {"patient_id": "p1", "source": "s", "tokens": ["a", "b"]},
            {"patient_id": "p1", "source": "s", "tokens": ["c"]},
        ])
        corpus, pids = preprocess(load_raw(path), IDENTITY)
        assert pids == ["p1"]
        assert [corpus.vocab[0][v] for v in corpus.tokens[0][0]] == \
            ["a", "b", "c"]


class TestPreprocess:
    def _records(self):
        return [
            RawRecord("p1", "s", ["alpha", "beta", "common"]),
            RawRecord("p2", "s", ["alpha", "common"]),
            RawRecord("p3", "s", ["gamma", "common"]),
        ]

    def test_identity_pass_through(self):
        corpus, pids = preprocess(self._records(), IDENTITY)
        assert pids == ["p1", "p2", "p3"]
        assert corpus.vocab[0] == ["alpha", "beta", "common", "gamma"]
        assert corpus.num_tokens() == 7

    def test_max_doc_fraction_removes_ubiquitous_token(self):
        # common (3/3 patients) and alpha (2/3) exceed the 0.5 fraction;
        # p2 is left with no tokens and is dropped
        cfg = PreprocessConfig(max_doc_fraction=0.5)
        corpus, pids = preprocess(self._records(), cfg)
        assert corpus.vocab[0] == ["beta", "gamma"]
        assert pids == ["p1", "p3"]
        assert corpus.num_tokens() == 2

    def test_min_count_drops_rare_tokens(self):
        # hand enumeration: beta and gamma occur once, alpha twice,
        # common three times
        cfg = PreprocessConfig(min_count=2)
        corpus, _ = preprocess(self._records(), cfg)
        assert corpus.vocab[0] == ["alpha", "common"]

    def test_stopwords_removed(self):
        cfg = PreprocessConfig(stopwords={"common"})
        corpus, _ = preprocess(self._records(), cfg)
        assert "common" not in corpus.vocab[0]

    def test_empty_vocabulary_is_config_error(self):
        cfg = PreprocessConfig(min_count=10)
        with pytest.raises(ConfigError, match="'s'"):
            preprocess(self._records(), cfg)

    def test_patients_with_no_tokens_dropped(self):
        records = self._records() + [RawRecord("p4", "s", ["beta"])]
        cfg = PreprocessConfig(stopwords={"beta"})
        corpus, pids = preprocess(records, cfg)
        assert pids == ["p1", "p2", "p3"]

    def test_idempotent(self):
        corpus1, _ = preprocess(self._records(), PreprocessConfig(min_count=2))
        # feed the surviving tokens back through an identity pass
        records = [
            RawRecord(f"p{d+1}", "s",
                      [corpus1.vocab[0][v] for v in corpus1.tokens[0][d]])
            for d in range(corpus1.num_patients)
        ]
        corpus2, _ = preprocess(records, IDENTITY)
        assert corpus1.vocab == corpus2.vocab
        for d in range(corpus1.num_patients):
            assert np.array_equal(corpus1.tokens[0][d], corpus2.tokens[0][d])

    def test_vocabulary_independent_of_record_order(self):
        records = self._records()
        corpus1, _ = preprocess(records, IDENTITY)
        corpus2, _ = preprocess(records[::-1], IDENTITY)
        assert corpus1.vocab == corpus2.vocab

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), integer_tokens=st.booleans(),
           min_count=st.integers(0, 4), fraction=st.sampled_from(
               [1.0, 0.75, 2 / 3, 0.6, 0.5, 0.4, 1 / 3, 0.25, 0.2]))
    def test_matches_the_counter_pass(self, data, integer_tokens, min_count,
                                      fraction):
        # the per-token Counter loop the interned bincount pass replaced:
        # the same vocabularies, token IDs and patients, or the same error.
        # Few patients and words make the fractions land on k / D exactly;
        # repeated patient IDs give duplicate records
        pool = list(range(5)) if integer_tokens else list("abcde")
        records = data.draw(st.lists(st.builds(
            RawRecord, st.sampled_from(["p0", "p1", "p2", "p3"]),
            st.sampled_from(["s0", "s1"]),
            st.lists(st.sampled_from(pool), max_size=6)),
            min_size=1, max_size=10))
        cfg = PreprocessConfig(
            stopwords=data.draw(st.sets(st.sampled_from(pool))),
            min_count=min_count, max_doc_fraction=fraction)
        outcomes = []
        for fit in (preprocess, reference_kernels.preprocess):
            try:
                corpus, pids = fit(records, cfg)
                outcomes.append((pids, corpus.vocab,
                                 [(w.flat.dtype, w.flat.tolist(),
                                   w.offsets.tolist())
                                  for w in corpus.tokens]))
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestBuildLabels:
    def test_top_k_columns(self):
        records = [RawRecord(f"p{i}", "s", ["t"], labels=["A", "B"])
                   for i in range(5)]
        records += [RawRecord("p9", "s", ["t"], labels=["C"])]
        labels = build_labels(records, top_k=2)
        assert labels.label_names == ["A", "B"]
        assert labels.num_labels == 2

    def test_unlabeled_patient_row_is_unknown(self):
        records = [RawRecord("p1", "s", ["t"], labels=["A"]),
                   RawRecord("p2", "s", ["t"], labels=[])]
        labels = build_labels(records, top_k=1)
        assert labels.entries[0, 0] == LABEL_PRESENT
        assert labels.entries[1, 0] == LABEL_UNKNOWN

    def test_tie_broken_lexicographically(self):
        # five labels, freq: X:2, then B, C, D, E once each; rank-2 tie is
        # broken lexicographically so top 3 = X, B, C
        records = [
            RawRecord("p1", "s", ["t"], labels=["X", "E", "C"]),
            RawRecord("p2", "s", ["t"], labels=["X", "D", "B"]),
        ]
        labels = build_labels(records, top_k=3)
        assert labels.label_names == ["X", "B", "C"]

    def test_fewer_labels_than_requested(self):
        records = [RawRecord("p1", "s", ["t"], labels=["A"])]
        labels = build_labels(records, top_k=5)
        assert labels.label_names == ["A"]

    def test_labels_unioned_across_records(self):
        records = [RawRecord("p1", "s1", ["t"], labels=["A"]),
                   RawRecord("p1", "s2", ["t"], labels=["B"])]
        labels = build_labels(records, top_k=2)
        assert np.all(labels.entries[0] == LABEL_PRESENT)


class TestSplit:
    def _data(self, D=10):
        h = make_hyper(P=2, P_lab=1, gamma=0.3)
        corpus, truth = generate(h, [6], DocLengthSpec.fixed(4, 1), D, seed=1)
        return corpus, labels_from_activations(truth, 1)

    def test_exact_fraction(self):
        corpus, labels = self._data()
        (tr_c, tr_l), (te_c, te_l), spl = split(corpus, labels, 0.8, seed=0)
        assert tr_c.num_patients == 8 and te_c.num_patients == 2
        combined = sorted(spl.train_indices.tolist()
                          + spl.test_indices.tolist())
        assert combined == list(range(10))

    def test_deterministic(self):
        corpus, labels = self._data()
        _, _, s1 = split(corpus, labels, 0.8, seed=42)
        _, _, s2 = split(corpus, labels, 0.8, seed=42)
        assert np.array_equal(s1.train_indices, s2.train_indices)

    def test_shared_vocabulary_objects(self):
        corpus, labels = self._data()
        (tr_c, _), (te_c, _), _ = split(corpus, labels, 0.8, seed=0)
        assert tr_c.vocab is corpus.vocab and te_c.vocab is corpus.vocab

    def test_degenerate_side_rejected(self):
        corpus, labels = self._data(D=3)
        with pytest.raises(DataError):
            split(corpus, labels, 0.01, seed=0)


# edits of a state payload whose arrays are nested lists; corrupt_v2
# applies each to a v2 payload
STATE_CORRUPTIONS = [
    lambda pl: pl["phi"][0].pop(),                   # P-1 rows of phi
    lambda pl: pl["B"].append(1.0),                  # P+1 pseudo-counts
    lambda pl: pl["theta"][0].__setitem__(0, -0.5),  # off the simplex
    lambda pl: pl["theta"][1].pop(),                 # ragged theta
    lambda pl: pl.pop("A"),                          # missing field
    lambda pl: pl["B"].__setitem__(0, float("nan")),  # NaN pseudo-count
    lambda pl: pl.__setitem__("Bstar", float("inf")),  # infinite Bstar
    lambda pl: pl["theta"][0].__setitem__(0, float("nan")),  # NaN theta
    lambda pl: pl["phi"][0][1].__setitem__(0, float("nan")),  # NaN phi
    lambda pl: pl["A"][0].__setitem__(0, 7),         # non-binary A
    lambda pl: pl["A"][0].__setitem__(0, 2.5),       # fractional A
    lambda pl: pl["A"][0].__setitem__(0, 300),       # A beyond int8
    lambda pl: pl["z"][0][0].append(0.5),            # fractional z
]


class TestStateRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        state, corpus = random_tiny_state(rng, D=3, P=2, S=2, V=4)
        path = tmp_path / "state.json"
        save_state(state, path, extra={"max_log_likelihood": -1.25})
        loaded, meta = load_state(path)
        assert np.array_equal(loaded.theta, state.theta)
        assert np.array_equal(loaded.A, state.A)
        assert loaded.A.dtype == np.int8
        assert np.array_equal(loaded.B, state.B)
        assert loaded.Bstar == state.Bstar
        for s in range(2):
            assert np.array_equal(loaded.phi[s], state.phi[s])
            for d in range(3):
                assert np.array_equal(loaded.z[s][d], state.z[s][d])
        assert meta == {"max_log_likelihood": -1.25}

    def test_corrupted_file_is_data_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\x00\xff definitely not json")
        with pytest.raises(DataError):
            load_state(path)

    @pytest.mark.parametrize("corrupt", STATE_CORRUPTIONS)
    def test_malformed_state_is_data_error(self, tmp_path, rng, corrupt):
        state, _ = random_tiny_state(rng, D=3, P=2)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        corrupt_v2(payload, corrupt)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed state"):
            load_state(path)

    @staticmethod
    def _set_first_assignment(payload, value):
        next(z for z in payload["z"][0] if z)[0] = value

    @pytest.mark.parametrize("value", [99, 2, -1])
    def test_out_of_range_assignment_is_data_error(self, tmp_path, rng,
                                                   value):
        # P = 2, so z must lie in [0, 2)
        state, _ = random_tiny_state(rng, D=4, P=2, max_tokens=3)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        corrupt_v2(payload, lambda pl: self._set_first_assignment(pl, value))
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"z of source 0 outside \[0, 2\)"):
            load_state(path)

    def test_future_version_names_both(self, tmp_path, rng):
        state, _ = random_tiny_state(rng)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = "ss3m-state-v99"
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionError, match="ss3m-state-v99") as exc:
            load_state(path)
        assert "ss3m-state-v2" in str(exc.value)
        assert "ss3m-state-v1" not in str(exc.value)


class TestContainers:
    def test_corpus_and_labels_round_trip(self, tmp_path):
        h = make_hyper(P=2, P_lab=2, S=2, gamma=0.3)
        corpus, truth = generate(h, [5, 4], DocLengthSpec.fixed(6, 2), 7,
                                 seed=2)
        labels = labels_from_activations(truth, 2)
        pids = [f"p{d}" for d in range(7)]
        cpath, lpath = tmp_path / "c.json", tmp_path / "l.json"
        data_io.save_corpus(corpus, pids, cpath, ["s0", "s1"])
        data_io.save_labels(labels, pids, lpath)
        corpus2, pids2, _ = data_io.load_corpus(cpath)
        labels2, pids3 = data_io.load_labels(lpath)
        assert pids2 == pids and pids3 == pids
        assert corpus2.vocab == corpus.vocab
        for s in range(2):
            for d in range(7):
                assert np.array_equal(corpus2.tokens[s][d], corpus.tokens[s][d])
        assert np.array_equal(labels2.entries, labels.entries)

    def test_jsonl_round_trip_through_pipeline(self, tmp_path):
        h = make_hyper(P=2, P_lab=1, S=2, gamma=0.3)
        corpus, truth = generate(h, [5, 4], DocLengthSpec.poisson(8, 2), 6,
                                 seed=3)
        labels = labels_from_activations(truth, 1)
        path = tmp_path / "corpus.jsonl"
        data_io.save_corpus_jsonl(corpus, labels, path)
        records = load_raw(path)
        corpus2, pids = preprocess(records, IDENTITY)
        # identity preprocess rebuilds the same token streams (vocab is
        # restricted to tokens that actually occur)
        for s in range(2):
            for i, d in enumerate(range(corpus2.num_patients)):
                got = [corpus2.vocab[s][v] for v in corpus2.tokens[s][d]]
                want = [corpus.vocab[s][v] for v in corpus.tokens[s][i]]
                assert got == want


# characters json.dumps escapes or passes through: quotes, backslashes,
# control and non-ASCII characters, a line separator, a lone surrogate
WORDS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028'
                                          '\U0001f600\ud800'),
                          st.characters()), max_size=4)


@st.composite
def jsonl_corpora(draw):
    """(corpus, labels or None) for the JSON-lines writer: up to 4
    patients, some without tokens, one to three sources or eleven (two
    digits in the source names), and words and label names of WORDS."""
    D = draw(st.integers(0, 4))
    S = draw(st.sampled_from([1, 2, 3, 11]))
    vocab = [draw(st.lists(WORDS, min_size=1, max_size=4, unique=True))
             for _ in range(S)]
    tokens = [[draw(arrays(np.int64, draw(st.integers(0, 5)),
                           elements=st.integers(0, len(voc) - 1)))
               for _ in range(D)] for voc in vocab]
    corpus = Corpus(vocab=vocab, tokens=tokens)
    if draw(st.booleans()):
        return corpus, None
    names = draw(st.lists(WORDS, max_size=3, unique=True))
    entries = draw(arrays(np.int8, (D, len(names)),
                          elements=st.sampled_from([-1, 0, 1])))
    return corpus, LabelMatrix(entries=entries, label_names=names)


class TestJsonlWriter:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(jsonl_corpora())
    def test_matches_the_per_record_dumps(self, tmp_path_factory, problem):
        # the writer that called json.dumps once per record: the same bytes
        corpus, labels = problem
        tmp = tmp_path_factory.mktemp("jsonl")
        data_io.save_corpus_jsonl(corpus, labels, tmp / "corpus.jsonl")
        reference_kernels.save_corpus_jsonl(corpus, labels, tmp / "ref.jsonl")
        assert ((tmp / "corpus.jsonl").read_bytes()
                == (tmp / "ref.jsonl").read_bytes())


class TestMalformedContainers:
    """A corpus or labels container whose fields are missing, of the
    wrong type or of the wrong length is a DataError (CLI exit 2). The
    corpus edits are made on nested lists, which corrupt_v2 encodes as
    v2 fields again."""

    def _corpus_payload(self, tmp_path):
        path = tmp_path / "written.json"
        data_io.save_corpus(Corpus(vocab=[["a", "b"]], tokens=[[[0, 1]]]),
                            ["p0"], path, ["s0"])
        return json.loads(path.read_text())

    def _labels_payload(self):
        return {"format_version": data_io.LABELS_FORMAT_VERSION,
                "patient_ids": ["p0", "p1"], "label_names": ["l0"],
                "entries": [[1], [-1]]}

    def _write(self, tmp_path, payload):
        path = tmp_path / "container.json"
        path.write_text(json.dumps(payload))
        return path

    def test_well_formed_containers_load(self, tmp_path):
        corpus, pids, sources = data_io.load_corpus(
            self._write(tmp_path, self._corpus_payload(tmp_path)))
        assert pids == ["p0"] and sources == ["s0"]
        assert corpus.tokens[0][0].tolist() == [0, 1]
        labels, pids = data_io.load_labels(
            self._write(tmp_path, self._labels_payload()))
        assert pids == ["p0", "p1"] and labels.entries.tolist() == [[1], [-1]]

    @pytest.mark.parametrize("corrupt", [
        lambda pl: pl["tokens"][0][0].__setitem__(1, 1.7),  # fractional ID
        lambda pl: pl.pop("tokens"),                         # missing field
        lambda pl: pl.__setitem__("patient_ids", ["p0", "p1", "p2"]),
        lambda pl: pl.__setitem__("sources", []),            # no source name
        lambda pl: pl["tokens"][0][0].__setitem__(1, 2),     # out of range
        lambda pl: pl["tokens"][0].__setitem__(0, [[0, 1]]),  # nested tokens
        # string fields whose list() would pass: one char per entry
        lambda pl: pl.__setitem__("vocab", ["ab"]),
        lambda pl: pl.__setitem__("patient_ids", "p"),
        lambda pl: pl.__setitem__("sources", "s"),
        lambda pl: pl.__setitem__("vocab", [["a", None]]),   # not a string
        lambda pl: pl.__setitem__("patient_ids", [0]),
    ])
    def test_malformed_corpus_is_data_error(self, tmp_path, corrupt):
        payload = self._corpus_payload(tmp_path)
        corrupt_v2(payload, corrupt)
        with pytest.raises(DataError, match="malformed corpus"):
            data_io.load_corpus(self._write(tmp_path, payload))

    @pytest.mark.parametrize("corrupt", [
        lambda pl: pl["entries"][0].__setitem__(0, 0.9),    # not an integer
        lambda pl: pl["entries"][0].__setitem__(0, 300),    # beyond int8
        lambda pl: pl["entries"][0].__setitem__(0, 257),    # wraps to 1
        lambda pl: pl.__setitem__("patient_ids", ["p0"]),   # one id, 2 rows
        lambda pl: pl.pop("label_names"),                   # missing field
        lambda pl: pl["entries"][1].append(1),              # ragged rows
        lambda pl: pl.__setitem__("label_names", "l"),      # one char each
        lambda pl: pl.__setitem__("patient_ids", "pq"),
        lambda pl: pl.__setitem__("label_names", [7]),      # not a string
        lambda pl: pl.__setitem__("patient_ids", ["p0", None]),
    ])
    def test_malformed_labels_is_data_error(self, tmp_path, corrupt):
        payload = self._labels_payload()
        corrupt(payload)
        with pytest.raises(DataError):
            data_io.load_labels(self._write(tmp_path, payload))


SPECIAL_FLOATS = [0.0, -0.0, PROB_FLOOR, 5e-324, 1e-310,
                  2.2250738585072014e-308]


@st.composite
def simplex_rows(draw, rows, cols):
    """(rows, cols) rows summing to 1, built from the special floats and
    small draws, each row's last entry taking up the remainder."""
    small = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                      st.floats(0.0, 1.0 / cols))
    out = np.empty((rows, cols))
    for r in range(rows):
        head = draw(st.lists(small, min_size=cols - 1, max_size=cols - 1))
        out[r] = head + [1.0 - math.fsum(head)]
    return out


@st.composite
def containers(draw):
    """(state, corpus) with D in 1..4, P in 1..3, S in 1..2 and
    vocabularies of 1..3 words: patients without tokens, in some examples
    a source without tokens, and floats at PROB_FLOOR, subnormal and
    -0.0."""
    D, P, S = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
               draw(st.integers(1, 2)))
    vocab_sizes = draw(st.lists(st.integers(1, 3), min_size=S, max_size=S))
    corpus = draw(corpora(D, vocab_sizes))
    positive = st.one_of(st.sampled_from([PROB_FLOOR, 5e-324, 1e300]),
                         st.floats(1e-3, 1e3))
    state = ModelState(
        theta=draw(simplex_rows(D, P)),
        phi=[draw(simplex_rows(P, v)) for v in vocab_sizes],
        z=[w.like(draw(arrays(np.int64, w.flat.size,
                              elements=st.integers(0, P - 1))))
           for w in corpus.tokens],
        A=draw(arrays(np.int8, (D, P), elements=st.integers(0, 1))),
        B=np.array(draw(st.lists(positive, min_size=P, max_size=P))),
        Bstar=draw(positive))
    return state, corpus


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes (so -0.0 differs from 0.0)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_same_state(loaded, state):
    for got, want in [(loaded.theta, state.theta), (loaded.A, state.A),
                      (loaded.B, state.B), *zip(loaded.phi, state.phi),
                      *((g.flat, w.flat) for g, w in zip(loaded.z, state.z)),
                      *((g.offsets, w.offsets)
                        for g, w in zip(loaded.z, state.z))]:
        assert same_bits(got, want)
    assert same_bits(np.float64(loaded.Bstar), np.float64(state.Bstar))


def assert_same_corpus(loaded, corpus):
    assert loaded.vocab == corpus.vocab
    for got, want in zip(loaded.tokens, corpus.tokens):
        assert same_bits(got.flat, want.flat)
        assert same_bits(got.offsets, want.offsets)


class TestV2Containers:
    """The v2 state and corpus containers: bitwise round trips, and every
    undecodable field a DataError."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(containers())
    def test_round_trip_is_bitwise(self, tmp_path_factory, problem):
        state, corpus = problem
        tmp = tmp_path_factory.mktemp("v2")
        ids = [f"p{d}" for d in range(corpus.num_patients)]
        names = [f"s{s}" for s in range(corpus.num_sources)]
        save_state(state, tmp / "state.json", extra={"seed": 3})
        data_io.save_corpus(corpus, ids, tmp / "corpus.json", names)
        loaded, meta = load_state(tmp / "state.json")
        assert_same_state(loaded, state)
        assert meta == {"seed": 3}
        corpus2, ids2, names2 = data_io.load_corpus(tmp / "corpus.json")
        assert_same_corpus(corpus2, corpus)
        assert (ids2, names2) == (ids, names)
        loaded.validate(corpus2)

    def test_writers_write_v2(self, tmp_path, rng):
        state, corpus = random_tiny_state(rng, D=3, P=2, S=2, V=4)
        save_state(state, tmp_path / "state.json")
        data_io.save_corpus(corpus, ["a", "b", "c"], tmp_path / "corpus.json",
                            ["x", "y"])
        state_payload = json.loads((tmp_path / "state.json").read_text())
        corpus_payload = json.loads((tmp_path / "corpus.json").read_text())
        assert state_payload["format_version"] == "ss3m-state-v2"
        assert corpus_payload["format_version"] == "ss3m-corpus-v2"
        assert state_payload["A"]["dtype"] == "|i1"
        assert same_bits(v2_array(state_payload["theta"]), state.theta)
        assert v2_array(corpus_payload["tokens"][1]["lengths"]).tolist() == \
            [w.size for w in corpus.tokens[1]]

    # both edit lengths as int64 and write them as '<i4', the widest
    # ragged dtype, whatever the width the writer chose

    @staticmethod
    def _negative_length(ragged):
        lengths = v2_array(ragged["lengths"]).astype(np.int64)
        lengths[0] += lengths[1] + 1
        lengths[1] = -1  # same sum, one length below zero
        ragged["lengths"] = v2_field(lengths, "<i4")

    @staticmethod
    def _longer_lengths(ragged):
        lengths = v2_array(ragged["lengths"]).astype(np.int64) + 1
        ragged["lengths"] = v2_field(lengths, "<i4")

    @pytest.mark.parametrize("top, dtype", [
        (255, "|u1"), (256, "<u2"), (65535, "<u2"), (65536, "<i4")])
    def test_ragged_fields_take_the_narrowest_width(self, tmp_path, top,
                                                    dtype):
        # one patient of `top` tokens, the last of ID `top`
        flat = np.zeros(top, dtype=np.int64)
        flat[-1] = top
        corpus = Corpus(vocab=[[f"w{v}" for v in range(top + 1)]],
                        tokens=[Ragged(flat, [top])])
        path = tmp_path / "corpus.json"
        data_io.save_corpus(corpus, ["p0"], path, ["s"])
        (field,) = json.loads(path.read_text())["tokens"]
        assert field["flat"]["dtype"] == field["lengths"]["dtype"] == dtype
        assert_same_corpus(data_io.load_corpus(path)[0], corpus)

    def test_negative_assignment_is_written_as_i4_and_named(self, tmp_path):
        state, _ = random_tiny_state(np.random.default_rng(5), D=3, P=2,
                                     max_tokens=4)
        state.z[0].flat[0] = -1
        path = tmp_path / "state.json"
        save_state(state, path)
        assert json.loads(path.read_text())["z"][0]["flat"]["dtype"] == "<i4"
        with pytest.raises(DataError, match=r"z of source 0 outside \[0, 2\)"):
            load_state(path)

    @staticmethod
    def _as_i4(path, key, out):
        """The container at path with each ragged field of payload[key]
        written as '<i4', at out; the (flat, lengths) dtypes it had."""
        payload = json.loads(path.read_text())
        widths = []
        for pair in payload[key]:
            widths.append((pair["flat"]["dtype"], pair["lengths"]["dtype"]))
            for part in ("flat", "lengths"):
                pair[part] = v2_field(v2_array(pair[part]), "<i4")
        out.write_text(json.dumps(payload))
        return widths

    def test_files_with_i4_ragged_fields_load_the_same(self, tmp_path):
        # files written before the writers chose a width held every
        # ragged field as '<i4'
        hyper = make_hyper(P=3, S=2, gamma=0.3)
        corpus, truth = generate(hyper, [300, 4], DocLengthSpec.poisson(20, 2),
                                 6, seed=4)
        state, old_state = tmp_path / "state.json", tmp_path / "state-i4.json"
        save_state(truth, state)
        assert self._as_i4(state, "z", old_state) == [("|u1", "|u1")] * 2
        assert_same_state(load_state(old_state)[0], truth)
        assert_same_state(load_state(state)[0], truth)

        path, old_path = tmp_path / "corpus.json", tmp_path / "corpus-i4.json"
        data_io.save_corpus(corpus, [f"p{d}" for d in range(6)], path,
                            ["s0", "s1"])
        assert self._as_i4(path, "tokens", old_path) == [("<u2", "|u1"),
                                                         ("|u1", "|u1")]
        assert_same_corpus(data_io.load_corpus(old_path)[0], corpus)
        assert_same_corpus(data_io.load_corpus(path)[0], corpus)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda pl: pl["theta"].__setitem__("data", "not base64!"),
         "not base64"),
        (lambda pl: pl["B"].__setitem__("data", pl["B"]["data"][:-2]),
         "not base64"),
        (lambda pl: pl["B"].__setitem__("data", 5), ""),
        (lambda pl: pl["theta"].__setitem__("dtype", "<f4"), "dtype '<f4'"),
        (lambda pl: pl.__setitem__("A", v2_field(v2_array(pl["A"]), "<i8")),
         "dtype '<i8'"),
        (lambda pl: pl.__setitem__("B", v2_field(v2_array(pl["B"]), ">f8")),
         "dtype '>f8'"),
        (lambda pl: pl["theta"].__setitem__("shape", [3, 3]), "48 bytes"),
        (lambda pl: pl["B"].__setitem__("shape", [1, 2]), "shape"),
        (lambda pl: pl["theta"].__setitem__("shape", [-3, -2]), "shape"),
        (lambda pl: pl["B"].__setitem__("shape", 2), "shape"),
        (lambda pl: pl["A"].pop("shape"), "shape"),
        (lambda pl: pl.__setitem__("theta", [[0.5, 0.5]] * 3), ""),
        (lambda pl: TestV2Containers._negative_length(pl["z"][0]),
         "lengths"),
        (lambda pl: TestV2Containers._longer_lengths(pl["z"][0]),
         "lengths"),
        (lambda pl: pl["z"][0].__setitem__(
            "flat", v2_field(v2_array(pl["z"][0]["flat"]), "<i8")),
         "dtype '<i8'"),
        (lambda pl: pl["z"][0].__setitem__(
            "flat", v2_field(v2_array(pl["z"][0]["flat"]), "<f8")),
         "dtype '<f8'"),
        (lambda pl: pl["z"][0].__setitem__(
            "lengths", v2_field(v2_array(pl["z"][0]["lengths"]), "<i8")),
         r"dtype '<i8' where '\|u1' or '<u2' or '<i4' is expected"),
        (lambda pl: pl.__setitem__("meta", [1]), "meta is not a JSON object"),
        (lambda pl: pl.__setitem__("meta", "x"), "meta is not a JSON object"),
    ], ids=["bad-base64", "bad-padding", "data-not-a-string", "theta-f4",
            "A-i8", "B-big-endian", "shape-too-big", "B-2d", "shape-negative",
            "shape-not-a-list", "shape-missing", "theta-as-lists",
            "z-negative-length", "z-lengths-too-long", "z-flat-i8",
            "z-flat-f8", "z-lengths-i8", "meta-a-list", "meta-a-string"])
    def test_malformed_v2_state_is_data_error(self, tmp_path, corrupt,
                                              message):
        state, _ = random_tiny_state(np.random.default_rng(5), D=3, P=2,
                                     max_tokens=4)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed state") as exc:
            load_state(path)
        assert re.search(message, str(exc.value))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda pl: pl["tokens"][0]["flat"].__setitem__("data", "@@@@"),
         "not base64"),
        (lambda pl: TestV2Containers._negative_length(pl["tokens"][0]),
         "lengths"),
        (lambda pl: TestV2Containers._longer_lengths(pl["tokens"][0]),
         "lengths"),
        (lambda pl: pl["tokens"][0].__setitem__(
            "lengths", v2_field([3], "<i4")), "same patients"),
        (lambda pl: pl["tokens"][0].__setitem__(
            "flat", v2_field([0, 1, 9], "<i4")), "out of range"),
        (lambda pl: pl["tokens"][0].__setitem__(
            "flat", v2_field([0.0, 1.0, 0.0], "<f8")), "dtype '<f8'"),
        (lambda pl: pl["tokens"][0].__setitem__(
            "flat", v2_field([0, 1, 0], "<i8")), "dtype '<i8'"),
        (lambda pl: pl["tokens"][0].__setitem__(
            "lengths", v2_field([2.0, 1.0], "<f8")),
         r"dtype '<f8' where '\|u1' or '<u2' or '<i4' is expected"),
        (lambda pl: pl.__setitem__("tokens", [[[0, 1], [0]]] * 2), ""),
    ], ids=["bad-base64", "negative-length", "lengths-too-long",
            "fewer-patients", "id-out-of-range", "flat-f8", "flat-i8",
            "lengths-f8", "as-lists"])
    def test_malformed_v2_corpus_is_data_error(self, tmp_path, corrupt,
                                               message):
        corpus = Corpus(vocab=[["a", "b"], ["c"]],
                        tokens=[[[0, 1], [0]], [[0], []]])
        path = tmp_path / "corpus.json"
        data_io.save_corpus(corpus, ["p0", "p1"], path, ["x", "y"])
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="malformed corpus") as exc:
            data_io.load_corpus(path)
        assert re.search(message, str(exc.value))

    def test_other_corpus_version_names_the_accepted(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"format_version": "ss3m-corpus-v3"}))
        with pytest.raises(VersionError, match="ss3m-corpus-v3") as exc:
            data_io.load_corpus(path)
        assert str(exc.value).endswith("(accepted: 'ss3m-corpus-v2')")
