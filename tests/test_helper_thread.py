"""The z plan's helper thread (gibbs.ZPlan.helper): it changes no draw,
float or error of any chain, and it never outlives the chain.

The CPU probe (gibbs._usable_cpus) is monkeypatched to force the helper
on or off, and gibbs.Z_CHUNK is cut to 1 or 2 pairs, so that the small
corpora here have many blocks and the two threads share them.
"""

import copy
import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from conftest import make_hyper
from ss3m import gibbs
from ss3m.errors import NumericalError, SamplingError
from ss3m.evaluation import heldout_infer
from ss3m.gibbs import (
    TrainOptions,
    ZPlan,
    clamp_matrix,
    initialize_state,
    sweep,
    train,
    train_unstructured,
)
from ss3m.model import Corpus, LabelMatrix

REAL_SCAN = gibbs.activation_scan
MODES = [(missing, b_mode) for missing in ("fix_zero", "estimate")
         for b_mode in ("fixed", "sampled")]


def _corpus(vocab_sizes, D, seed, empty=()):
    """D patients of 0..7 tokens per source; the sources in `empty` have
    no tokens at all."""
    rng = np.random.default_rng(seed)
    tokens = [[rng.integers(0, V, size=0 if s in empty else rng.integers(0, 8))
               for _ in range(D)] for s, V in enumerate(vocab_sizes)]
    return Corpus(vocab=[[f"s{s}_{v}" for v in range(V)]
                         for s, V in enumerate(vocab_sizes)], tokens=tokens)


CORPORA = {
    "one source": lambda: _corpus([6], 9, seed=1),
    "an empty source": lambda: _corpus([5, 4], 8, seed=2, empty=(1,)),
    "V = 1": lambda: _corpus([1, 3], 7, seed=3),
}


class Counting(ThreadPoolExecutor):
    """A helper executor that counts the work handed to it."""

    submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        Counting.submitted += 1
        return super().submit(fn, *args, **kwargs)


class Eager(Counting):
    """A counting helper executor that runs each task on its thread to
    the end before submit returns, so the helper takes every block of a z
    pass."""

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        assert wait([future], timeout=30).done
        return future


def _cpus(monkeypatch, n):
    monkeypatch.setattr(gibbs, "_usable_cpus", lambda: n)


def _bytes(*arrays):
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _trace_bytes(trace):
    best = trace.best_state
    return _bytes(np.array(trace.log_likelihoods), trace.best_iteration,
                  best.theta, best.A, best.B, best.Bstar, *best.phi,
                  *(z.flat for z in best.z))


def _every_chain(corpus, labels, hyper):
    """Bytes of the best state and trace of train in each label and B
    mode and of train_unstructured, and of heldout_infer's result from
    the first trained state."""
    out, first = [], None
    for missing, b_mode in MODES:
        trace = train(corpus, labels, hyper, TrainOptions(
            missing_label_mode=missing, b_mode=b_mode, seed=5))
        if first is None:
            first = trace.best_state
        out.append(_trace_bytes(trace))
    out.append(_trace_bytes(train_unstructured(corpus, hyper, 0.7, seed=6)))
    res = heldout_infer(corpus, first, hyper, burn_in=2, samples=3, seed=7)
    out.append(_bytes(res.scores, res.theta_mean, res.activation_mean))
    return out


@pytest.mark.parametrize("executor", [Counting, Eager])
@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_helper_changes_no_byte_of_any_chain(name, chunk, executor,
                                             monkeypatch):
    # the counting helper races the calling thread for the blocks, the
    # eager one takes them all
    corpus = CORPORA[name]()
    hyper = make_hyper(P=3, P_lab=2, S=corpus.num_sources, iterations=3)
    rng = np.random.default_rng(11)
    labels = LabelMatrix(
        entries=rng.integers(-1, 2, size=(corpus.num_patients, 2)).astype(
            np.int8), label_names=["a", "b"])
    monkeypatch.setattr(gibbs, "Z_CHUNK", chunk)
    monkeypatch.setattr(gibbs, "ThreadPoolExecutor", executor)
    runs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        Counting.submitted = 0
        runs[cpus] = _every_chain(corpus, labels, hyper)
        # one z pass per source and sweep, and one log joint per sweep
        assert (Counting.submitted > 0) == (cpus > 1)
    assert runs[1] == runs[2]


def _corrupt_problem():
    """A one-source plan of 12 patients with two tokens each, and theta
    with zero rows at patients 4 and 9: their pairs are corrupt."""
    corpus = Corpus(vocab=[[f"w{v}" for v in range(5)]],
                    tokens=[[np.array([d % 5, 0]) for d in range(12)]])
    theta = np.full((12, 3), 1 / 3)
    theta[[4, 9]] = 0.0
    return corpus, theta, np.full((3, 5), 0.2)


def _z_error(corpus, theta, phi_s):
    plan = ZPlan.of(corpus, 3)
    try:
        with pytest.raises(SamplingError) as err:
            gibbs._sample_z_batch(theta, phi_s, plan, 0,
                                  np.random.default_rng(0))
        return str(err.value), plan.helper is not None
    finally:
        plan.close()


@pytest.mark.parametrize("executor", [Eager, ThreadPoolExecutor])
def test_corrupt_pair_on_the_helper_raises_the_single_thread_error(
        executor, monkeypatch):
    corpus, theta, phi_s = _corrupt_problem()
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    _cpus(monkeypatch, 1)
    want, helped = _z_error(corpus, theta, phi_s)
    assert not helped
    assert want == ("all-zero assignment weights at patient 4, token 8 "
                    "(corrupt state)")
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(gibbs, "ThreadPoolExecutor", executor)
    # the eager helper takes every block; the real one races for them
    for _ in range(1 if executor is Eager else 20):
        assert _z_error(corpus, theta, phi_s) == (want, True)


def test_concurrent_chains_under_fast_thread_switching(monkeypatch):
    # three chains' z passes at once, each with its helper: six threads on
    # shared code, switching every microsecond; a block that no thread
    # took would leave np.empty's garbage in z, one taken twice a race
    corpus = _corpus([7, 3], 40, seed=8)
    theta = np.random.default_rng(1).dirichlet(np.ones(4), size=40)
    phis = [np.random.default_rng(2).dirichlet(np.ones(V), size=4)
            for V in (7, 3)]
    monkeypatch.setattr(gibbs, "Z_CHUNK", 3)

    def passes(out, seed):
        plan, rng = ZPlan.of(corpus, 4), np.random.default_rng(seed)
        try:
            out.extend(gibbs._sample_z_batch(theta, phis[s], plan, s, rng)
                       for _ in range(10) for s in range(2))
        finally:
            plan.close()

    _cpus(monkeypatch, 1)
    want = [[] for _ in range(3)]
    for seed, out in enumerate(want):
        passes(out, seed)
    _cpus(monkeypatch, 2)
    got = [[] for _ in range(3)]
    workers = [threading.Thread(target=passes, args=(out, seed))
               for seed, out in enumerate(got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for g, w in zip(got, want):
        assert len(g) == len(w) == 20
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


def test_nan_log_joint_on_the_helper_raises_numerical_error(monkeypatch):
    corpus = CORPORA["one source"]()
    hyper = make_hyper(P=3, S=1)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    _cpus(monkeypatch, 2)
    real, threads = gibbs.collapsed_log_joint, []

    def nan_joint(state, corpus, hyper, counts=None):
        threads.append(threading.current_thread())
        bad = copy.copy(hyper)
        object.__setattr__(bad, "b_scale", float("nan"))
        return real(state, corpus, bad, counts)

    monkeypatch.setattr(gibbs, "collapsed_log_joint", nan_joint)
    clamp = clamp_matrix(None, TrainOptions(), corpus.num_patients, 3)
    rng = np.random.default_rng(0)
    state = initialize_state(corpus, clamp, hyper, rng)
    plan = ZPlan.of(corpus, 3)
    try:
        assert plan.helper is not None
        assert plan.helper_scratch.shape == plan.scratch.shape
        assert not np.shares_memory(plan.helper_scratch, plan.scratch)
        with pytest.raises(NumericalError, match="NaN"):
            sweep(state, corpus, plan, clamp, "fixed", hyper, rng)
    finally:
        plan.close()
    assert threads and threads[-1] is not threading.current_thread()
    # the starting state's log joint, too, is scored on the helper
    threads.clear()
    with pytest.raises(NumericalError, match="NaN"):
        train(corpus, None, dataclasses.replace(hyper, iterations=2),
              TrainOptions())
    assert threads[0] is not threading.current_thread()


class _Scan:
    """activation_scan that records the live threads and raises `error`
    on call number `at`."""

    def __init__(self, monkeypatch, error=None, at=2):
        self.calls, self.names, self.error, self.at = 0, set(), error, at
        monkeypatch.setattr(gibbs, "activation_scan", self)

    def __call__(self, *args):
        self.calls += 1
        self.names |= {t.name for t in threading.enumerate()}
        if self.error is not None and self.calls == self.at:
            raise self.error
        return REAL_SCAN(*args)

    @property
    def helped(self):
        return any(name.startswith("ss3m") for name in self.names)


def _chains(corpus, hyper):
    """Each chain kind, as a call: train, train_unstructured and
    heldout_infer."""
    trained = train(corpus, None, hyper, TrainOptions(seed=1)).best_state
    return {
        "train": lambda: train(corpus, None, hyper, TrainOptions(seed=2)),
        "train_unstructured": lambda: train_unstructured(corpus, hyper, 0.5,
                                                         seed=3),
        "heldout_infer": lambda: heldout_infer(corpus, trained, hyper,
                                               burn_in=2, samples=2, seed=4),
    }


@pytest.mark.parametrize("fail", [False, True])
def test_no_helper_thread_outlives_its_chain(fail, monkeypatch):
    corpus = CORPORA["an empty source"]()
    hyper = make_hyper(P=3, S=2, iterations=3)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 2)
    _cpus(monkeypatch, 2)
    chains = _chains(corpus, hyper)
    start = threading.active_count()
    for name, chain in chains.items():
        scan = _Scan(monkeypatch, RuntimeError("scan failed") if fail
                     else None)
        if fail:
            with pytest.raises(RuntimeError, match="scan failed"):
                chain()
        else:
            chain()
        assert scan.helped, name
        assert threading.active_count() == start, name


@pytest.mark.parametrize("at", [1, 2])
def test_interrupt_in_a_sweep_returns_the_partial_trace(at, monkeypatch):
    # the starting log joint, scored on the helper during sweep 1, is in
    # the trace even when sweep 1 never finishes
    corpus = CORPORA["one source"]()
    hyper = make_hyper(P=3, S=1, iterations=5)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    _cpus(monkeypatch, 1)
    want = train(corpus, None, hyper, TrainOptions(seed=0)).log_likelihoods
    _cpus(monkeypatch, 2)
    start = threading.active_count()
    scan = _Scan(monkeypatch, KeyboardInterrupt(), at=at)
    trace = train(corpus, None, hyper, TrainOptions(seed=0))
    assert trace.log_likelihoods == want[:at] and scan.calls == at
    assert scan.helped
    assert threading.active_count() == start


def test_one_cpu_starts_no_thread(monkeypatch):
    corpus = CORPORA["one source"]()
    hyper = make_hyper(P=3, S=1, iterations=2)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    _cpus(monkeypatch, 1)
    assert ZPlan.of(corpus, 3).helper is None
    start = threading.active_count()
    chains = _chains(corpus, hyper)
    for name, chain in chains.items():
        scan = _Scan(monkeypatch)
        chain()
        assert not scan.helped, name
        assert threading.active_count() == start, name
    # with a second CPU but one block per source there is no helper either
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 4096)
    assert ZPlan.of(corpus, 3).helper is None
