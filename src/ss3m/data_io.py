"""Corpus ingestion, preprocessing, label construction, train/test
splitting, and (de)serialization of corpora, labels, and model states.

Wire formats:
  * corpus: JSON-lines, one object per line with keys patient_id, source,
    tokens, labels (labels may appear on any record of a patient and are
    unioned per patient), written as json.dumps writes each object;
  * preprocessed corpus, label matrix and model state: JSON containers
    with format_version "ss3m-corpus-v2", "ss3m-labels-v1" and
    "ss3m-state-v2". In the v2 containers every numeric array is an
    object {"dtype", "shape", "data"}, data being the base64 of the
    array's little-endian C-order bytes: theta, each phi_s and B as
    "<f8", A as "|i1", and each source's tokens and z as one
    {"flat", "lengths"} pair of integer arrays, each written in the
    narrowest of "|u1", "<u2" and "<i4" that holds it ("<i4" if an entry
    is negative) and read as int64 from any of the three, so that files
    written all in "<i4" still load. vocab (one array per source),
    patient_ids, sources and label_names are JSON arrays of strings, meta
    a JSON object and Bstar a number; a reader raises DataError naming
    the file for any other type. Each reader accepts only the version its
    writer writes.
"""

import base64
import binascii
import contextlib
import json
import logging
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, SS3MError, VersionError
from .model import (
    LABEL_PRESENT,
    LABEL_UNKNOWN,
    Corpus,
    LabelMatrix,
    ModelState,
    Ragged,
)
from .util import seed_sequence

logger = logging.getLogger(__name__)

STATE_FORMAT_VERSION = "ss3m-state-v2"
CORPUS_FORMAT_VERSION = "ss3m-corpus-v2"
LABELS_FORMAT_VERSION = "ss3m-labels-v1"
# wire dtype of a v2 array -> the dtype it is read into
F8, I1, U1, U2, I4 = "<f8", "|i1", "|u1", "<u2", "<i4"
_READ_AS = {F8: np.float64, I1: np.int8, U1: np.int64, U2: np.int64,
            I4: np.int64}
# the wire dtypes of a ragged field's flat and lengths, narrowest first
_RAGGED = (U1, U2, I4)
_RECORD_FIELDS = {"patient_id", "source", "tokens", "labels"}


@dataclass
class RawRecord:
    patient_id: str
    source: str
    tokens: list
    labels: list = field(default_factory=list)


@dataclass(frozen=True)
class PreprocessConfig:
    """Token filters, applied to every source: stopwords, minimum corpus
    count, maximum fraction of patients a token may appear in."""

    stopwords: frozenset = frozenset()
    min_count: int = 0
    max_doc_fraction: float = 1.0

    def __post_init__(self):
        if self.min_count < 0:
            raise ConfigError("min_count must be >= 0")
        if not 0.0 < self.max_doc_fraction <= 1.0:
            raise ConfigError("max_doc_fraction must lie in (0, 1]")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))


@dataclass(frozen=True)
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray


def _strings(obj: dict, key: str, path, lineno: int) -> list:
    """obj[key], [] when absent, as a list of str: the decoded list itself
    when every entry is a str, which "".join checks at C speed, else a
    cast of each entry. DataError if it is not a JSON array."""
    values = obj.get(key, [])
    if not isinstance(values, list):
        raise DataError(f"{path}: line {lineno}: {key} must be a JSON array, "
                        f"got {type(values).__name__}")
    try:
        "".join(values)
    except TypeError:
        return [str(v) for v in values]
    return values


def text_lines(path):
    """The lines of the file at path as UTF-8 text; DataError if not."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def load_raw(path) -> list:
    """Parse a JSON-lines corpus file into RawRecords, in file order. Equal
    tokens share one str object across the file, so a corpus holds one
    string per distinct token, each hashed once."""
    records = []
    words = {}
    unknown_fields = 0
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: malformed JSON on line {lineno}: {exc}")
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {lineno} is not a JSON object")
        missing = {"patient_id", "source", "tokens"} - obj.keys()
        if missing:
            raise DataError(
                f"{path}: line {lineno} missing fields {sorted(missing)}")
        unknown_fields += len(obj.keys() - _RECORD_FIELDS)
        pid = obj["patient_id"]
        if not isinstance(pid, str) or not pid:
            raise DataError(f"{path}: line {lineno}: patient_id must be a "
                            f"non-empty string, got {type(pid).__name__}")
        tokens = _strings(obj, "tokens", path, lineno)
        records.append(RawRecord(
            patient_id=pid,
            source=str(obj["source"]),
            tokens=list(map(words.setdefault, tokens, tokens)),
            labels=_strings(obj, "labels", path, lineno),
        ))
    if unknown_fields:
        logger.warning("%s: ignored %d unknown field(s)", path, unknown_fields)
    return records


def _patient_order(records) -> list:
    return list(dict.fromkeys(rec.patient_id for rec in records))


def source_names(records) -> list:
    """The sources of records, sorted: the order of preprocess's columns."""
    return sorted({rec.source for rec in records})


def preprocess(records, config: PreprocessConfig):
    """Build a Corpus from raw records after stopword/frequency filtering.

    Vocabularies are sorted lexicographically per source, so the
    string-to-ID map depends only on the surviving token multiset.
    Patients ending with zero tokens in every source are dropped (count
    logged).

    Returns (Corpus, patient_ids).
    """
    if not records:
        raise DataError("no records to preprocess")

    patients = _patient_order(records)
    pidx = {pid: i for i, pid in enumerate(patients)}
    sources = source_names(records)
    D = len(patients)

    # token streams per (source, patient), duplicates concatenated in order
    streams = {s: [[] for _ in range(D)] for s in sources}
    for rec in records:
        streams[rec.source][pidx[rec.patient_id]].extend(rec.tokens)

    vocab, kept_ids, kept_lengths = [], [], []
    for s in sources:
        index = {}
        ids = np.array([index.setdefault(t, len(index))
                        for doc in streams[s] for t in doc], dtype=np.int64)
        doc_idx = np.repeat(np.arange(D), [len(doc) for doc in streams[s]])
        V = len(index)
        # patients per ID: the distinct keys doc * V + ID, by one sort
        pairs = np.sort(doc_idx * V + ids)
        doc_count = np.bincount(pairs[np.diff(pairs, prepend=-1) != 0] % V,
                                minlength=V)
        passes = ((np.bincount(ids, minlength=V) >= config.min_count)
                  & (doc_count / D <= config.max_doc_fraction))
        voc = sorted(tok for tok, ok in zip(index, passes)
                     if ok and tok not in config.stopwords)
        if not voc:
            raise ConfigError(
                f"preprocessing left an empty vocabulary for source {s!r}")
        new_id = np.full(V, -1, dtype=np.int64)
        new_id[[index[tok] for tok in voc]] = np.arange(len(voc))
        ids = new_id[ids]
        survives = ids >= 0
        vocab.append(voc)
        kept_ids.append(ids[survives])
        kept_lengths.append(np.bincount(doc_idx[survives], minlength=D))

    keep = sum(kept_lengths) > 0
    if not keep.all():
        logger.warning("dropping %d patient(s) with no surviving tokens",
                       D - int(keep.sum()))
        patients = [pid for pid, k in zip(patients, keep) if k]
    # a dropped patient has no token left, so only the lengths change
    tokens = [Ragged(flat, lengths[keep])
              for flat, lengths in zip(kept_ids, kept_lengths)]
    return Corpus(vocab=vocab, tokens=tokens), patients


def build_labels(records, top_k: int, patient_ids=None) -> LabelMatrix:
    """Label matrix over the top_k most frequent label names (patient-level
    frequency, ties broken lexicographically). Cells are Present where the
    patient carries the label and Unknown otherwise; Absent is reserved for
    explicit negative label streams."""
    if top_k < 1:
        raise ConfigError("top_k must be positive")
    per_patient = {}
    for rec in records:
        per_patient.setdefault(rec.patient_id, set()).update(rec.labels)
    if patient_ids is None:
        patient_ids = _patient_order(records)

    freq = Counter(name for labels in per_patient.values() for name in labels)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) < top_k:
        logger.warning("only %d distinct labels available (requested %d)",
                       len(ranked), top_k)
    names = [name for name, _ in ranked[:top_k]]

    entries = np.full((len(patient_ids), len(names)), LABEL_UNKNOWN,
                      dtype=np.int8)
    col = {name: j for j, name in enumerate(names)}
    for i, pid in enumerate(patient_ids):
        for name in per_patient.get(pid, ()):
            j = col.get(name)
            if j is not None:
                entries[i, j] = LABEL_PRESENT
    return LabelMatrix(entries=entries, label_names=names)


def split(corpus: Corpus, labels: LabelMatrix, train_fraction: float,
          seed: int):
    """Uniform random patient-level split; both halves share the vocabulary
    objects. Returns ((train_corpus, train_labels), (test_corpus,
    test_labels), Split)."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must lie strictly in (0, 1)")
    D = corpus.num_patients
    n_train = int(round(train_fraction * D))
    if n_train < 1 or n_train > D - 1:
        raise DataError("split would leave a side with zero patients")
    perm = np.random.default_rng(seed_sequence(seed)).permutation(D)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    def take(indices):
        sub = Corpus(
            vocab=corpus.vocab,  # shared, IDs identical across halves
            tokens=[[per_source[d] for d in indices]
                    for per_source in corpus.tokens],
        )
        return sub, None if labels is None else LabelMatrix(
            entries=labels.entries[indices], label_names=labels.label_names)

    return take(train_idx), take(test_idx), Split(train_idx, test_idx)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_state(state: ModelState, path, extra=None):
    """Write a ModelState as a versioned JSON container (atomic)."""
    payload = {
        "format_version": STATE_FORMAT_VERSION,
        "theta": _encode(state.theta, F8),
        "phi": [_encode(p, F8) for p in state.phi],
        "z": [_encode_ragged(z) for z in state.z],
        "A": _encode(state.A, I1),
        "B": _encode(state.B, F8),
        "Bstar": float(state.Bstar),
    }
    if extra:
        payload["meta"] = extra
    _atomic_write(path, json.dumps(payload))


def load_state(path):
    """Inverse of save_state. Returns (ModelState, meta dict). A state
    whose arrays are malformed or inconsistent (ModelState.validate), or
    whose meta is not a JSON object, raises DataError."""
    payload = _load_container(path, STATE_FORMAT_VERSION)
    with _reading(path, "state"):
        state = ModelState(
            theta=_decode(payload["theta"], 2, F8),
            phi=[_decode(p, 2, F8) for p in payload["phi"]],
            z=[_decode_ragged(z) for z in payload["z"]],
            A=_decode(payload["A"], 2, I1),
            B=_decode(payload["B"], 1, F8),
            Bstar=float(payload["Bstar"]))
        state.validate()
        if type(meta := payload.get("meta", {})) is not dict:
            raise TypeError("meta is not a JSON object")
    return state, meta


@contextlib.contextmanager
def _reading(path, what: str):
    """Turns an error raised while building `what` from the fields of the
    container at path into a DataError naming the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError, SS3MError) as exc:
        raise DataError(f"{path}: malformed {what}: {exc}") from exc


def _names(values, key: str) -> list:
    """values, the field key; TypeError unless it is a JSON array of
    strings."""
    if type(values) is not list or not all(type(v) is str for v in values):
        raise TypeError(f"{key} is not a JSON array of strings")
    return values


def _integers(values) -> np.ndarray:
    """values as an int64 array; ValueError if one is not a JSON integer
    that int64 holds (a cast would truncate or wrap it)."""
    read = np.array(values)
    if read.size and read.dtype != np.int64:
        raise ValueError("entries that are not 64-bit integers")
    return read.astype(np.int64, copy=False)


def _encode(array, dtype: str) -> dict:
    """array as a v2 field: its dtype, shape and base64 bytes."""
    array = np.ascontiguousarray(array, dtype=dtype)
    return {"dtype": dtype, "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


def _narrowest(array: np.ndarray) -> str:
    """The narrowest of _RAGGED that holds every entry of the integer
    array: "<i4" if one is negative, so that a reader's range check sees
    the value itself."""
    if array.min(initial=0) < 0:
        return I4
    top = array.max(initial=0)
    return U1 if top <= 0xFF else U2 if top <= 0xFFFF else I4


def _encode_ragged(ragged: Ragged) -> dict:
    """ragged as a v2 {"flat", "lengths"} pair, each at its narrowest."""
    lengths = np.diff(ragged.offsets)
    return {"flat": _encode(ragged.flat, _narrowest(ragged.flat)),
            "lengths": _encode(lengths, _narrowest(lengths))}


def _decode(field, ndim: int, *dtypes: str) -> np.ndarray:
    """The array a v2 field holds, as a new array of its dtype's _READ_AS
    type. ValueError unless the field's dtype is one of dtypes, its shape
    ndim non-negative integers and its data base64 of exactly that many
    items."""
    dtype = field["dtype"]
    if dtype not in dtypes:
        raise ValueError(f"dtype {dtype!r} where "
                         f"{' or '.join(map(repr, dtypes))} is expected")
    shape = field["shape"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not {ndim} non-negative "
                         "integers")
    try:
        data = base64.b64decode(field["data"], validate=True)
    except binascii.Error as exc:
        raise ValueError(f"data that is not base64 ({exc})") from exc
    if len(data) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"{len(data)} bytes for a {dtype} array of shape "
                         f"{shape}")
    return np.frombuffer(data, dtype=dtype).reshape(shape).astype(
        _READ_AS[dtype])


def _decode_ragged(field) -> Ragged:
    """A v2 {"flat", "lengths"} pair as a Ragged, which raises
    DimensionError if the lengths do not cut flat."""
    return Ragged(_decode(field["flat"], 1, *_RAGGED),
                  _decode(field["lengths"], 1, *_RAGGED))


def _load_container(path, version: str):
    """The JSON object in path, after checking its format_version: a
    DataError if it is not a container, a VersionError naming version
    if it is another version."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a valid container: {exc}")
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise DataError(f"{path}: missing format_version field")
    if payload["format_version"] != version:
        raise VersionError(
            f"{path}: format version {payload['format_version']!r} is not "
            f"supported (accepted: {version!r})")
    return payload


def save_corpus(corpus: Corpus, patient_ids, path, source_names):
    """Preprocessed-corpus container (token IDs, shared vocab)."""
    payload = {
        "format_version": CORPUS_FORMAT_VERSION,
        "patient_ids": list(patient_ids),
        "sources": list(source_names),
        "vocab": [list(v) for v in corpus.vocab],
        "tokens": [_encode_ragged(w) for w in corpus.tokens],
    }
    _atomic_write(path, json.dumps(payload))


def load_corpus(path):
    """Inverse of save_corpus. Returns (Corpus, patient_ids,
    source_names); DataError if a field is missing, undecodable, of the
    wrong type or of the wrong length."""
    payload = _load_container(path, CORPUS_FORMAT_VERSION)
    with _reading(path, "corpus"):
        corpus = Corpus(vocab=[_names(v, "vocab") for v in payload["vocab"]],
                        tokens=[_decode_ragged(w) for w in payload["tokens"]])
        ids, names = (_names(payload[key], key)
                      for key in ("patient_ids", "sources"))
        if (len(ids), len(names)) != (corpus.num_patients, corpus.num_sources):
            raise ValueError(
                f"{len(ids)} patient_ids and {len(names)} source names for "
                f"{corpus.num_patients} patients and {corpus.num_sources} "
                "sources")
    return corpus, ids, names


def save_labels(labels: LabelMatrix, patient_ids, path):
    payload = {
        "format_version": LABELS_FORMAT_VERSION,
        "patient_ids": list(patient_ids),
        "label_names": list(labels.label_names),
        "entries": labels.entries.tolist(),
    }
    _atomic_write(path, json.dumps(payload))


def load_labels(path):
    """Returns (LabelMatrix, patient_ids); DataError if a field is
    missing, not integer where it must be, not an array of strings where
    it must be, or of the wrong length."""
    payload = _load_container(path, LABELS_FORMAT_VERSION)
    with _reading(path, "labels"):
        labels = LabelMatrix(
            entries=_integers(payload["entries"]),
            label_names=_names(payload["label_names"], "label_names"),
        )
        ids = _names(payload["patient_ids"], "patient_ids")
        if len(ids) != labels.num_patients:
            raise ValueError(f"{len(ids)} patient_ids for "
                             f"{labels.num_patients} rows")
    return labels, ids


def save_corpus_jsonl(corpus: Corpus, labels, path):
    """Write a corpus (and Present labels, attached to each patient's first
    record) back to the JSON-lines wire format. Patient d is p{d:06d} and
    source s is source{s}, s zero-padded to the digits of the last source,
    so that preprocess's sorted sources keep the corpus's order. Each
    line is the text json.dumps gives its record, joined from the JSON
    text of each word and label name, encoded once."""
    D, width = corpus.num_patients, len(str(corpus.num_sources - 1))
    entries = np.zeros((D, 0)) if labels is None else labels.entries
    rows, cols = np.nonzero(entries == LABEL_PRESENT)
    present = Ragged(cols, np.bincount(rows, minlength=len(entries)))
    names = [] if labels is None else labels.label_names
    texts = [np.array([json.dumps(w) for w in words], dtype=object)
             for words in (names, *corpus.vocab)]
    heads = [f', "source": "source{s:0{width}d}", "tokens": ['
             for s in range(corpus.num_sources)]
    lines = []
    for d, (cols, *docs) in enumerate(zip(present, *corpus.tokens,
                                          strict=True)):
        label_list = ", ".join(texts[0][cols].tolist())
        for s, doc in enumerate(docs):
            lines.append(f'{{"patient_id": "p{d:06d}"{heads[s]}'
                         f'{", ".join(texts[s + 1][doc].tolist())}], '
                         f'"labels": [{label_list if s == 0 else ""}]}}')
    _atomic_write(path, "\n".join(lines) + "\n")
