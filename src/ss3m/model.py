"""Core model: domain types, the activation-gated Dirichlet prior, the
forward generative sampler, and the chain's objective, the collapsed log joint.

The model describes D patients observed through S token sources. Each
patient d carries a distribution theta_d over P phenotypes; each phenotype p
carries, per source s, a distribution phi_sp over that source's vocabulary.
Binary activations A_dp gate the Dirichlet prior on theta_d between a
per-phenotype pseudo-count B_p (active) and a shared small pseudo-count
Bstar (inactive), which pushes patient mass onto activated phenotypes.

Each source's tokens, and their assignments z, are stored once, end to
end (Ragged); per-patient arrays are views of the flat one. Every
categorical draw, generate's and the Gibbs z pass's, is count_below.
"""

from dataclasses import dataclass
from math import lgamma, log

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericalError
from .util import PROB_FLOOR, gammaln, sample_dirichlet, seed_sequence

# Tri-state label cell values.
LABEL_PRESENT = 1
LABEL_ABSENT = 0
LABEL_UNKNOWN = -1


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed model parameters and sampler settings.

    gamma is one symmetric Dirichlet concentration per source.
    b_shape/b_scale and bstar_shape/bstar_scale are shape-scale Gamma
    parameters for B_p and Bstar. hmc_path_length and hmc_step_size are
    validated but unread, since B and Bstar are drawn by a Gibbs step with
    nothing to tune; they stay while perfbench/run.py still passes them.
    """

    num_phenotypes: int
    num_labeled: int
    num_sources: int
    alpha: float
    gamma: tuple
    b_shape: float = 10.0
    b_scale: float = 1.0
    bstar_shape: float = 0.01
    bstar_scale: float = 1.0
    hmc_path_length: int = 25
    hmc_step_size: float = 0.01
    iterations: int = 200

    def __post_init__(self):
        if self.num_phenotypes < 1:
            raise ConfigError("num_phenotypes must be positive")
        if not 0 <= self.num_labeled <= self.num_phenotypes:
            raise ConfigError("num_labeled must lie in [0, num_phenotypes]")
        if self.num_sources < 1:
            raise ConfigError("num_sources must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly in (0, 1)")
        gam = tuple(float(g) for g in self.gamma)
        if len(gam) != self.num_sources:
            raise ConfigError("gamma must have one entry per source")
        if not all(0 < g < np.inf for g in gam):
            raise ConfigError("gamma entries must be positive and finite")
        object.__setattr__(self, "gamma", gam)
        for name in ("b_shape", "b_scale", "bstar_shape", "bstar_scale",
                     "hmc_step_size"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.hmc_path_length < 1:
            raise ConfigError("hmc_path_length must be a positive integer")
        if self.iterations < 0:
            raise ConfigError("iterations must be non-negative")


def _int64(values) -> np.ndarray:
    """values as an int64 array; DataError if an entry is not an integer."""
    read = np.asarray(values)
    if read.dtype.kind in "iu":
        return read.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
        cast = read.astype(np.int64)
    if not np.array_equal(cast, read):
        raise DataError("token IDs, assignments and lengths must be integers")
    return cast


class Ragged:
    """One source's per-patient integer arrays, stored end to end:
    flat[offsets[d]:offsets[d + 1]] is patient d's array and doc_idx[i]
    the patient of flat[i]. len(), indexing and iteration give the
    per-patient arrays as views of flat. offsets and doc_idx are read-only
    and shared by every Ragged of the layout (like): a source's tokens and
    its assignments z. flat is as writable as it was given; a Corpus
    makes its tokens' flat read-only."""

    __slots__ = ("flat", "offsets", "doc_idx")

    def __init__(self, flat: np.ndarray, lengths):
        """flat cut into spans of the given lengths; DimensionError unless
        flat is 1-D and the lengths are non-negative and sum to its size;
        DataError if a length is not an integer."""
        lengths = _int64(lengths)
        if (np.ndim(flat) != 1 or lengths.ndim != 1 or (lengths < 0).any()
                or lengths.sum() != np.size(flat)):
            raise DimensionError(f"lengths that do not cut a 1-D array of "
                                 f"{np.size(flat)} entries")
        self.flat = flat
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.doc_idx = np.repeat(np.arange(len(lengths)), lengths)
        self.offsets.flags.writeable = self.doc_idx.flags.writeable = False

    @classmethod
    def of(cls, per_patient) -> "Ragged":
        """per_patient's 1-D arrays as int64, copied end to end; a Ragged
        is returned as it is. An entry that is not an integer (1.7, NaN)
        is a DataError, where a cast would truncate it."""
        if isinstance(per_patient, cls):
            return per_patient
        arrays = [_int64(a) for a in per_patient]
        if any(a.ndim != 1 for a in arrays):
            raise DimensionError("each patient's entries must be a 1-D array")
        return cls(np.concatenate([np.empty(0, dtype=np.int64), *arrays]),
                   [a.size for a in arrays])

    def like(self, flat: np.ndarray) -> "Ragged":
        """flat in this layout; DimensionError unless flat is 1-D and as
        long as self.flat."""
        if np.ndim(flat) != 1 or np.size(flat) != self.flat.size:
            raise DimensionError(f"an array of shape {np.shape(flat)} "
                                 f"for a layout of {self.flat.size} entries")
        out = object.__new__(Ragged)
        out.flat, out.offsets, out.doc_idx = flat, self.offsets, self.doc_idx
        return out

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, d: int) -> np.ndarray:
        d = range(len(self))[d]
        return self.flat[self.offsets[d]:self.offsets[d + 1]]

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.flat[a:b] for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class Corpus:
    """Per-source, per-patient token-ID sequences with per-source vocabularies.

    vocab[s] is the token-string list for source s; tokens[s] is a Ragged
    built from the given per-patient arrays, tokens[s][d] the token IDs of
    patient d in source s (possibly empty). Once every ID is in range,
    each tokens[s].flat, a given Ragged's in place, is made read-only.
    """

    vocab: list
    tokens: list

    def __post_init__(self):
        if len(self.vocab) != len(self.tokens):
            raise DimensionError("vocab and tokens must have one entry per source")
        tokens = [Ragged.of(per_source) for per_source in self.tokens]
        object.__setattr__(self, "tokens", tokens)
        if len({len(w) for w in tokens}) > 1:
            raise DimensionError("all sources must cover the same patients")
        for s, (voc, w) in enumerate(zip(self.vocab, tokens)):
            if len(set(voc)) != len(voc):
                raise ConfigError(f"vocabulary for source {s} has duplicates")
            bad = np.flatnonzero((w.flat < 0) | (w.flat >= len(voc)))
            if bad.size:
                raise DimensionError(
                    f"token ID out of range for source {s}, patient "
                    f"{int(w.doc_idx[bad[0]])}")
        for w in tokens:
            w.flat.flags.writeable = False

    @property
    def num_sources(self) -> int:
        return len(self.vocab)

    @property
    def num_patients(self) -> int:
        return len(self.tokens[0]) if self.tokens else 0

    def num_tokens(self) -> int:
        return sum(int(w.flat.size) for w in self.tokens)


@dataclass(frozen=True)
class LabelMatrix:
    """D x P_lab tri-state observations (LABEL_PRESENT/ABSENT/UNKNOWN)."""

    entries: np.ndarray
    label_names: list

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2:
            raise DimensionError("label entries must be a 2-D matrix")
        if entries.shape[1] != len(self.label_names):
            raise DimensionError("label_names must match the number of columns")
        # checked before the int8 cast, which would wrap 257 to Present
        valid = np.isin(entries, (LABEL_PRESENT, LABEL_ABSENT, LABEL_UNKNOWN))
        if not valid.all():
            raise DataError("label entries must be Present/Absent/Unknown")
        object.__setattr__(self, "entries", entries.astype(np.int8))

    @property
    def num_patients(self) -> int:
        return self.entries.shape[0]

    @property
    def num_labels(self) -> int:
        return self.entries.shape[1]


@dataclass
class ModelState:
    """Full latent state: theta (D,P), phi (per source (P,V_s)), z (per
    source a Ragged built from the given per-patient arrays, laid out as
    the corpus tokens), A (D,P) binary, B (P,) positive, Bstar positive."""

    theta: np.ndarray
    phi: list
    z: list
    A: np.ndarray
    B: np.ndarray
    Bstar: float

    def __post_init__(self):
        self.z = [Ragged.of(z_s) for z_s in self.z]

    def validate(self, corpus: Corpus = None):
        D, P = self.theta.shape
        atol = 1e-9  # how far a theta or phi row sum may stray from 1
        if self.A.shape != (D, P):
            raise DimensionError("A must be D x P")
        if not np.isin(self.A, (0, 1)).all():
            raise DataError("A must be binary")
        if self.B.shape != (P,):
            raise DimensionError("B must have length P")
        # each test is written to fail on NaN, so a non-finite entry fails
        if not (np.all(self.theta >= 0) and np.all(
                np.abs(self.theta.sum(axis=1) - 1.0) <= atol)):
            raise NumericalError("theta rows must be finite simplex vectors")
        for phi_s in self.phi:
            if phi_s.shape[0] != P:
                raise DimensionError("phi must have P rows per source")
            if not (np.all(phi_s >= 0) and np.all(
                    np.abs(phi_s.sum(axis=1) - 1.0) <= atol)):
                raise NumericalError("phi rows must be finite simplex vectors")
        if not (np.all((self.B > 0) & np.isfinite(self.B))
                and 0 < self.Bstar < np.inf):
            raise NumericalError("B and Bstar must be finite and strictly "
                                 "positive")
        for s, z in enumerate(self.z):
            if z.flat.size and not (0 <= z.flat.min() and z.flat.max() < P):
                raise DataError(f"z of source {s} outside [0, {P})")
        if corpus is not None and [z.offsets.tolist() for z in self.z] != [
                w.offsets.tolist() for w in corpus.tokens]:
            raise DimensionError("z does not have the corpus's sources, "
                                 "patients and document lengths")

    def copy(self) -> "ModelState":
        return ModelState(
            theta=self.theta.copy(),
            phi=[p.copy() for p in self.phi],
            z=[z.like(z.flat.copy()) for z in self.z],
            A=self.A.copy(),
            B=self.B.copy(),
            Bstar=float(self.Bstar),
        )


@dataclass(frozen=True)
class DocLengthSpec:
    """Per-source document-length law for synthesis: ('fixed', n) or
    ('poisson', lam)."""

    modes: tuple

    @classmethod
    def fixed(cls, n: float, num_sources: int) -> "DocLengthSpec":
        if not (n >= 0 and float(n).is_integer()):
            raise ConfigError("fixed document length must be a whole "
                              f"number >= 0, got {n}")
        return cls(tuple(("fixed", int(n)) for _ in range(num_sources)))

    @classmethod
    def poisson(cls, lam: float, num_sources: int) -> "DocLengthSpec":
        if not 0 < lam < np.inf:
            raise ConfigError(
                f"poisson mean must be > 0 and finite, got {lam}")
        return cls(tuple(("poisson", float(lam)) for _ in range(num_sources)))

    def draw(self, s: int, size: int, rng: np.random.Generator) -> np.ndarray:
        kind, value = self.modes[s]
        if kind == "fixed":
            return np.full(size, int(value), dtype=np.int64)
        if kind == "poisson":
            return rng.poisson(value, size=size).astype(np.int64)
        raise ConfigError(f"unknown document-length mode {kind!r}")


def prior_matrix(A, B, Bstar: float) -> np.ndarray:
    """Gated Dirichlet concentrations, (D,P): B[p] where the activation
    bit A[d, p] is set, Bstar elsewhere."""
    B = np.asarray(B, dtype=float)
    if np.shape(A)[-1] != B.shape[0]:
        raise DimensionError("activation rows and B must share length P")
    return np.where(np.asarray(A) == 1, B[None, :], float(Bstar))


def count_pairs(rows, cols, n_rows: int, n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) int64 matrix counting each (rows[i], cols[i])."""
    return np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols
                       ).reshape(n_rows, n_cols)


def phenotype_counts(state: ModelState, corpus: Corpus) -> np.ndarray:
    """c[d, p] = number of tokens of patient d assigned to phenotype p."""
    D, P = state.A.shape
    c = np.zeros((D, P), dtype=np.int64)
    for s in range(corpus.num_sources):
        z = state.z[s]
        c += count_pairs(z.doc_idx, z.flat, D, P)
    return c


def token_counts(state: ModelState, corpus: Corpus, s: int) -> np.ndarray:
    """m[p, v] = number of source-s tokens with value v assigned to p."""
    return count_pairs(state.z[s].flat, corpus.tokens[s].flat,
                       state.A.shape[1], len(corpus.vocab[s]))


def count_below(cum, cols, thr) -> np.ndarray:
    """out[i]: how many of the first K - 1 entries of column cum[:, cols[i]]
    of the (K, R) array cum lie below thr[i]. For running sums of weights
    down each column and thr[i] = u * the column's last entry, an
    inverse-CDF draw from the column; the last entry is never searched, so
    a thr that rounds above it cannot give K. A branchless binary search:
    the count stays in (at - cols) / R + [0, n], and n halves with each of
    the ceil(log2(K - 1)) gathers, each taken through a view of cum offset
    by the step's rows, so that it holds no more than two arrays of thr's
    length besides the position."""
    K, R = cum.shape
    flat = cum.reshape(-1)
    at, n = cols.astype(np.intp), K - 1
    while n > 1:
        half = n // 2
        at += half * R * (flat[half * R:][at] < thr)
        n -= half
    if n:
        at += R * (flat[at] < thr)
    at -= cols
    at //= R
    return at


def draw_tokens(theta, phi_s, lengths, rng: np.random.Generator):
    """One source's assignments and tokens given theta and the source's
    phi: (z, w), two Ragged of one layout, patient d holding lengths[d]
    tokens.

    Draws 2 * N uniforms in one call: for patient 0 its n_0 assignment
    uniforms then its n_0 token uniforms, then patient 1's two blocks, and
    so on. An assignment z is count_below over the running sums of the
    patient's theta row, phenotype-major as the z pass builds them, at its
    uniform times their last entry; a token is the same search over the
    running sums of the phi row of z.
    """
    z = Ragged(np.empty(int(lengths.sum()), dtype=np.int64), lengths)
    u = rng.random(2 * z.flat.size)
    # patient d's blocks start at 2 * offsets[d], so the token at flat
    # index i takes u[offsets[d] + i] for z and u[offsets[d] + i + n_d]
    # for w
    doc_idx = z.doc_idx
    u_at = np.arange(doc_idx.size) + z.offsets[doc_idx]
    cum = np.cumsum(np.transpose(theta), axis=0)
    z.flat[:] = count_below(cum, doc_idx, u[u_at] * cum[-1, doc_idx])
    cum = np.cumsum(np.transpose(phi_s), axis=0)
    w = z.like(count_below(cum, z.flat,
                           u[u_at + lengths[doc_idx]] * cum[-1, z.flat]))
    return z, w


def draw_concentrations(hyper: Hyperparameters, rng: np.random.Generator):
    """(B, Bstar) from their Gamma priors floored at PROB_FLOOR, B first."""
    B = np.maximum(rng.gamma(hyper.b_shape, hyper.b_scale,
                             size=hyper.num_phenotypes), PROB_FLOOR)
    Bstar = float(max(rng.gamma(hyper.bstar_shape, hyper.bstar_scale),
                      PROB_FLOOR))
    return B, Bstar


def generate(hyper: Hyperparameters, vocab_sizes, doc_lengths: DocLengthSpec,
             D: int, seed: int):
    """Forward-simulate a corpus and the latent state that produced it.

    Identical seed gives bit-identical output. Returns (Corpus, ModelState).

    After phi, B, Bstar, A and theta, each source s draws its document
    lengths, then its assignments and tokens (draw_tokens).
    """
    if D < 1:
        raise ConfigError("D must be positive")
    vocab_sizes = [int(v) for v in vocab_sizes]
    if len(vocab_sizes) != hyper.num_sources:
        raise ConfigError("vocab_sizes must have one entry per source")
    if any(v < 1 for v in vocab_sizes):
        raise ConfigError("vocabulary sizes must be positive")

    rng = np.random.default_rng(seed_sequence(seed))
    P, S = hyper.num_phenotypes, hyper.num_sources

    phi = [sample_dirichlet(np.full((P, v), g), rng)
           for v, g in zip(vocab_sizes, hyper.gamma)]

    B, Bstar = draw_concentrations(hyper, rng)
    A = (rng.random((D, P)) < hyper.alpha).astype(np.int8)
    theta = sample_dirichlet(prior_matrix(A, B, Bstar), rng)

    z, tokens = zip(*[draw_tokens(theta, phi[s], doc_lengths.draw(s, D, rng),
                                  rng) for s in range(S)])

    vocab = [[f"s{s}_w{v:05d}" for v in range(vocab_sizes[s])]
             for s in range(S)]
    return (Corpus(vocab=vocab, tokens=tokens),
            ModelState(theta=theta, phi=phi, z=z, A=A, B=B, Bstar=Bstar))


def labels_from_activations(state: ModelState,
                            num_labeled: int) -> LabelMatrix:
    """Derive a Present/Unknown label matrix, labels label_0, label_1, ...,
    from ground-truth activations on the first num_labeled phenotype
    columns."""
    A = state.A[:, :num_labeled]
    entries = np.where(A == 1, LABEL_PRESENT, LABEL_UNKNOWN).astype(np.int8)
    return LabelMatrix(entries=entries,
                       label_names=[f"label_{p}" for p in range(num_labeled)])


def log_gamma_pdf(x: float, shape: float, scale: float) -> float:
    """log of the shape-scale Gamma density."""
    return ((shape - 1.0) * log(x) - x / scale
            - lgamma(shape) - shape * log(scale))


def collapsed_log_joint(state: ModelState, corpus: Corpus,
                        hyper: Hyperparameters, counts=None) -> float:
    """log p(w, z, A, B, Bstar), theta and phi integrated out (Griffiths &
    Steyvers 2004): a Dirichlet-multinomial term per (source, phenotype)
    over its token counts under gamma_s and one per patient over its
    phenotype counts under the gated prior, summed cell by cell so that an
    empty cell adds exactly 0, plus the Bernoulli terms of A and the Gamma
    terms of B and Bstar. Reads neither theta nor phi. A NaN total is a
    NumericalError.

    counts, when given, is (n, m): the (D, P) phenotype counts of state.z
    and the list of each source's (P, V_s) token counts, as a sweep
    returns them; None counts them here (phenotype_counts, token_counts).
    The log-gammas repeat a few arguments, so they are looked up: a
    source's gammaln(gamma_s + m) in a table over 0..max m, each cell's
    gammaln(prior) gated like the prior from the P + 1 values gammaln(B)
    and gammaln(Bstar), and gammaln(prior + n) taken only where n > 0, an
    empty cell's term being exactly 0. The cell arrays are summed whole,
    in the same order, so the value is the float that evaluating every
    cell gives."""
    D, P = state.A.shape
    if counts is None:
        counts = (phenotype_counts(state, corpus),
                  [token_counts(state, corpus, s)
                   for s in range(corpus.num_sources)])
    n, total = counts[0], 0.0
    for s, m in enumerate(counts[1]):
        gam, V = hyper.gamma[s], len(corpus.vocab[s])
        cell = gammaln(gam + np.arange(m.max(initial=0) + 1)) - lgamma(gam)
        total += float(
            (lgamma(V * gam) - gammaln(V * gam + m.sum(axis=1))).sum()
            + cell[m].sum())

    prior = prior_matrix(state.A, state.B, state.Bstar)
    T = prior.sum(axis=1)
    hit = n > 0
    gain = np.zeros((D, P))
    gain[hit] = gammaln(prior[hit] + n[hit]) - prior_matrix(
        state.A, gammaln(state.B), gammaln(state.Bstar))[hit]
    total += float((gammaln(T) - gammaln(T + n.sum(axis=1))).sum()
                   + gain.sum())

    total += sum(log_gamma_pdf(float(b), hyper.b_shape, hyper.b_scale)
                 for b in state.B)
    total += log_gamma_pdf(float(state.Bstar), hyper.bstar_shape,
                           hyper.bstar_scale)
    n_active = int(state.A.sum())
    total += n_active * log(hyper.alpha) + (D * P - n_active) * log(
        1.0 - hyper.alpha)

    if np.isnan(total):
        raise NumericalError("collapsed log joint is NaN")
    return float(total)


def phenotype_summary(state: ModelState, corpus: Corpus, k: int):
    """Top-k tokens per (source, phenotype), sorted by descending
    probability with ties broken by ascending token ID.

    Returns a nested list: summary[s][p] = [(token, prob), ...].
    """
    if k < 1:
        raise ConfigError("k must be positive")
    if len(state.phi) != corpus.num_sources:
        raise DataError(f"state has phi for {len(state.phi)} sources, the "
                        f"corpus {corpus.num_sources}")
    out = []
    for s in range(corpus.num_sources):
        phi_s = state.phi[s]
        v_s = phi_s.shape[1]
        if v_s != len(corpus.vocab[s]):
            raise DataError(f"state phi for source {s} has {v_s} tokens, the "
                            f"corpus vocabulary {len(corpus.vocab[s])}")
        kk = min(k, v_s)
        per_phen = []
        for p in range(phi_s.shape[0]):
            # lexsort: primary key descending probability, ties by token ID.
            order = np.lexsort((np.arange(v_s), -phi_s[p]))[:kk]
            per_phen.append([(corpus.vocab[s][v], float(phi_s[p, v]))
                             for v in order])
        out.append(per_phen)
    return out
