"""The threads gibbs.Helper starts, at most one beside the calling
thread and none on a Helper's worker. The z plan's helper thread
(gibbs.ZPlan.helper): it changes no draw, float or error of any chain,
and it never outlives the chain, not even one whose starting state
fails to draw. Likewise evaluate_suite's worker thread, which runs the
held-out chains beside the raw-token baseline: it changes no byte of
the reports, its chains start no helper, and it is joined before the
suite returns or raises.

The CPU probe (gibbs._usable_cpus) is monkeypatched to force the helper
on or off, and gibbs.Z_CHUNK is cut to 1 or 2 pairs, so that the small
corpora here have many blocks and the two threads share them.
"""

import copy
import dataclasses
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from conftest import fresh_stdout, make_hyper
from ss3m import evaluation, gibbs
from ss3m.errors import DimensionError, NumericalError, SamplingError
from ss3m.evaluation import STATE_ARTIFACTS, evaluate_suite, heldout_infer
from ss3m.gibbs import (
    TrainOptions,
    ZPlan,
    clamp_matrix,
    initialize_state,
    sweep,
    train,
    train_unstructured,
)
from ss3m.model import (
    Corpus,
    DocLengthSpec,
    LabelMatrix,
    generate,
    labels_from_activations,
)

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


def _few_pairs():
    """Source 0 holds 6 tokens in one (patient, word) pair: more tokens
    than a block of 1 or 2 pairs, but a single block."""
    return Corpus(vocab=[["a", "b"], ["c"]],
                  tokens=[[np.array([1] * 6), [], []], [[], [0], []]])


CORPORA = {
    "one source": lambda: _corpus([6], 9, seed=1),
    "an empty source": lambda: _corpus([5, 4], 8, seed=2, empty=(1,)),
    "V = 1": lambda: _corpus([1, 3], 7, seed=3),
    "few pairs": _few_pairs,
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
        # the pair sort, the blocks of the z passes, the log joints
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
    plan = ZPlan(corpus, 3)
    try:
        with pytest.raises(SamplingError) as err:
            gibbs._sample_z_batch(theta, [phi_s], plan,
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
        plan, rng = ZPlan(corpus, 4), np.random.default_rng(seed)
        try:
            out.extend(z for _ in range(10)
                       for z in gibbs._sample_z_batch(theta, phis, plan, rng))
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
    plan = ZPlan(corpus, 3)
    try:
        assert plan.helper is not None
        assert plan.helper_scratch.shape == plan.scratch.shape
        assert not np.shares_memory(plan.helper_scratch, plan.scratch)
        with pytest.raises(NumericalError, match="NaN"):
            sweep(state, plan, clamp, "fixed", hyper, rng)
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


def test_failed_start_leaves_no_helper(monkeypatch):
    # the plan, and its helper sorting the pairs, comes before the starting
    # state; a failure drawing that state must still shut the helper down
    corpus = CORPORA["an empty source"]()
    hyper = make_hyper(P=3, S=2, iterations=2)
    monkeypatch.setattr(gibbs, "Z_CHUNK", 2)
    _cpus(monkeypatch, 2)
    chains = _chains(corpus, hyper)
    start = threading.active_count()
    for name, chain in chains.items():
        names = set()

        def draw_theta(*args):
            names.update(t.name for t in threading.enumerate())
            raise RuntimeError("theta failed")

        monkeypatch.setattr(gibbs, "draw_theta", draw_theta)
        with pytest.raises(RuntimeError, match="theta failed"):
            chain()
        assert any(n.startswith("ss3m") for n in names), name
        assert threading.active_count() == start, name


def test_bad_token_id_fails_before_the_helper_starts(monkeypatch):
    # the corpus is the one check of its token IDs: a bad ID fails when
    # the corpus is built, or when it is written into a built one
    corpus = CORPORA["an empty source"]()
    monkeypatch.setattr(gibbs, "Z_CHUNK", 2)
    _cpus(monkeypatch, 2)
    start = threading.active_count()
    V = len(corpus.vocab[0])
    with pytest.raises(ValueError, match="read-only"):
        corpus.tokens[0].flat[3] = V
    bad = corpus.tokens[0].flat.copy()
    bad[3] = V
    with pytest.raises(DimensionError, match="out of range"):
        Corpus(vocab=corpus.vocab,
               tokens=[corpus.tokens[0].like(bad), corpus.tokens[1]])
    assert threading.active_count() == start


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
    assert ZPlan(corpus, 3).helper is None
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
    assert ZPlan(corpus, 3).helper is None


# In a fresh interpreter, so that the first call reaches scipy.special's
# import: two train() calls on a chain with a helper (two usable CPUs, a
# source of more than Z_CHUNK tokens), whose first log joint runs on the
# helper and first A scan on this thread; it prints each call's trace
# digest. The first z pass joins the helper before the scan, so here the
# helper imports alone; FIRST_CALLS below makes the first calls race.
FIRST_TRAIN = """\
import hashlib, sys
import numpy as np
from ss3m import gibbs, model
gibbs._usable_cpus = lambda: 2
hyper = model.Hyperparameters(num_phenotypes=4, num_labeled=2, num_sources=1,
                              alpha=0.3, gamma=(0.1,), iterations=3)
corpus, truth = model.generate(hyper, [50], model.DocLengthSpec.fixed(50, 1),
                               100, seed=1)
assert corpus.tokens[0].flat.size > gibbs.Z_CHUNK
with gibbs.ZPlan(corpus, 4) as plan:
    assert plan.helper is not None
labels = model.labels_from_activations(truth, 2)
options = gibbs.TrainOptions(missing_label_mode="estimate", b_mode="sampled")
assert "scipy.special" not in sys.modules
for _ in range(2):
    trace = gibbs.train(corpus, labels, hyper, options)
    best = trace.best_state
    arrays = [trace.log_likelihoods, trace.best_iteration, best.theta, best.A,
              best.B, best.Bstar, *best.phi, *(z.flat for z in best.z)]
    print(hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                  for a in arrays)).hexdigest())
"""

# Eight threads make their first gammaln or expit call in a fresh
# interpreter, the first four at once and the others 50-200 ms later,
# while the import is under way; it prints whether each got scipy's value.
FIRST_CALLS = """\
import sys, threading, time
import numpy as np
from ss3m import util
x = np.linspace(-3.0, 40.0, 1000)
barrier, got = threading.Barrier(8), {}
def call(i):
    barrier.wait()
    time.sleep(max(i - 3, 0) * 0.05)
    got[i] = (util.gammaln if i % 2 else util.expit)(x)
threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
sys.setswitchinterval(1e-6)
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
import scipy.special
print(*(np.array_equal(got[i], scipy.special.gammaln(x) if i % 2
                       else scipy.special.expit(x)) for i in range(8)))
"""


def test_first_train_with_a_helper_draws_the_same_bytes():
    first, second = fresh_stdout(FIRST_TRAIN).split()
    assert first == second


def test_concurrent_first_calls_of_the_scipy_special_proxies():
    assert fresh_stdout(FIRST_CALLS).split() == ["True"] * 8


def _suite_problem():
    """(hyper, corpus, labels, artifacts) of a small evaluate_suite run
    with every artifact, the generating state, on one corpus."""
    hyper = make_hyper(P=3, P_lab=2, S=1, gamma=0.05, iterations=2)
    corpus, truth = generate(hyper, [25], DocLengthSpec.poisson(30, 1), 30,
                             seed=9)
    return (hyper, corpus, labels_from_activations(truth, 2),
            {name: (truth, -1000.0) for name in STATE_ARTIFACTS})


def _suite(hyper, corpus, labels, artifacts):
    return evaluate_suite(artifacts, corpus, labels, corpus, labels, hyper,
                          burn_in=1, samples=2, seed=1, lr_epochs=20)


def _watch(monkeypatch, seen):
    """Record, at each local step and LR fit, the thread it runs on and
    how many threads exist."""
    for module, name in ((gibbs, "local_step"), (evaluation, "lr_train")):
        def wrapper(*args, fn=getattr(module, name), name=name, **kwargs):
            seen.append((name, threading.current_thread(),
                         threading.active_count()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)


def _corrupt(artifacts, name):
    """An all-zero phi for artifact name: its z pass raises
    SamplingError."""
    state, max_ll = artifacts[name]
    artifacts[name] = (dataclasses.replace(
        state, phi=[np.zeros_like(phi_s) for phi_s in state.phi]), max_ll)


def _nan_features(corpus):
    return np.full((corpus.num_patients, len(corpus.vocab[0])), np.nan)


@pytest.mark.parametrize("fail", [None, "chain", "chain and raw LR",
                                  "interrupt"])
def test_suite_runs_one_worker_and_joins_it(fail, monkeypatch):
    # Z_CHUNK at 2 would give every chain a helper, were it started
    hyper, corpus, labels, artifacts = _suite_problem()
    monkeypatch.setattr(gibbs, "Z_CHUNK", 2)
    _cpus(monkeypatch, 2)
    seen = []
    _watch(monkeypatch, seen)
    if fail in ("chain", "chain and raw LR"):
        _corrupt(artifacts, "mc3m")
    if fail == "chain and raw LR":
        # lr_train refuses features that are not finite (DataError), but
        # the mc3m chain comes first in column order
        monkeypatch.setattr(evaluation, "raw_token_features", _nan_features)
    if fail == "interrupt":
        # the interrupt lands while the first chain runs: no other starts
        started, chain = threading.Event(), evaluation.heldout_infer

        def slow_chain(*args, **kwargs):
            started.set()
            time.sleep(0.2)
            return chain(*args, **kwargs)

        def interrupt(corpus):
            started.wait(30)
            raise KeyboardInterrupt

        monkeypatch.setattr(evaluation, "heldout_infer", slow_chain)
        monkeypatch.setattr(evaluation, "raw_token_features", interrupt)
    start = threading.active_count()
    if fail is None:
        reports = _suite(hyper, corpus, labels, artifacts)
        assert [r.model_id for r in reports] == list(
            evaluation.SUITE_COLUMNS)
    else:
        with pytest.raises({"chain": SamplingError,
                            "chain and raw LR": SamplingError,
                            "interrupt": KeyboardInterrupt}[fail]):
            _suite(hyper, corpus, labels, artifacts)
    assert threading.active_count() == start
    caller = threading.current_thread()
    assert all(count <= start + 1 for _, _, count in seen)
    steps = [thread for name, thread, _ in seen if name == "local_step"]
    fits = [thread for name, thread, _ in seen if name == "lr_train"]
    assert steps and caller not in steps
    if fail is None:
        # the LR fits of mc3m_sp and mc3m on the worker, the raw one here
        assert fits.count(caller) == 1 and len(fits) == 3
    if fail == "chain and raw LR":
        assert fits.count(caller) == 1
    if fail == "interrupt":
        assert len(steps) == 1 + 2  # burn_in + samples of one chain


def test_suite_with_one_cpu_starts_no_thread(monkeypatch):
    hyper, corpus, labels, artifacts = _suite_problem()
    monkeypatch.setattr(gibbs, "Z_CHUNK", 2)
    _cpus(monkeypatch, 1)
    seen = []
    _watch(monkeypatch, seen)

    def start(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    reports = _suite(hyper, corpus, labels, artifacts)
    assert [r.model_id for r in reports] == list(evaluation.SUITE_COLUMNS)
    assert {thread for _, thread, _ in seen} == {threading.current_thread()}
    # a failing chain: its error is raised, after the raw-token baseline,
    # the one job left, has run here too
    seen.clear()
    _corrupt(artifacts, "mc3m")
    with pytest.raises(SamplingError):
        _suite(hyper, corpus, labels, artifacts)
    assert {thread for _, thread, _ in seen} == {threading.current_thread()}
    # the LR fits of mc3m_sp and of the raw token counts
    assert [name for name, _, _ in seen].count("lr_train") == 2


def test_a_helpers_worker_starts_no_helper(monkeypatch):
    # the one rule: a plan built on a Helper's worker starts no thread,
    # one built on any other thread does
    corpus = CORPORA["one source"]()
    monkeypatch.setattr(gibbs, "Z_CHUNK", 1)
    _cpus(monkeypatch, 2)

    def helped():
        with ZPlan(corpus, 3) as plan:
            return plan.helper is not None

    assert helped()
    with gibbs.Helper() as worker:
        assert worker.helper is not None
        assert worker.submit(helped).result() is False
        assert worker.submit(threading.current_thread).result() is not (
            threading.current_thread())
    with gibbs.Helper(wanted=False) as none:
        assert none.helper is None and none.submit(helped).result()


# In a fresh interpreter, so that the suite's first A scan on the worker
# and first LR fit on the calling thread both reach scipy.special's
# import: evaluate_suite with gibbs._usable_cpus at sys.argv[1], every
# artifact, two sources of 5,000 tokens; it prints metrics.csv and
# metrics.txt as evaluate writes them, then the threads its chains ran on.
SUITE_BYTES = """\
import sys, threading
from ss3m import evaluation, gibbs, model
gibbs._usable_cpus = lambda: int(sys.argv[1])
hyper = model.Hyperparameters(num_phenotypes=4, num_labeled=2, num_sources=2,
                              alpha=0.3, gamma=(0.1, 0.1), iterations=2)
lengths = model.DocLengthSpec.fixed(50, 2)
train_c, truth = model.generate(hyper, [50, 30], lengths, 100, seed=1)
test_c, test_truth = model.generate(hyper, [50, 30], lengths, 60, seed=2)
train_l = model.labels_from_activations(truth, 2)
test_l = model.labels_from_activations(test_truth, 2)
artifacts = {name: (truth, -1000.0) for name in evaluation.STATE_ARTIFACTS}
threads, local_step = set(), gibbs.local_step
def watched(*args):
    threads.add(threading.current_thread() is threading.main_thread())
    return local_step(*args)
gibbs.local_step = watched
assert "scipy.special" not in sys.modules
reports = evaluation.evaluate_suite(artifacts, train_c, train_l, test_c,
                                    test_l, hyper, burn_in=2, samples=3,
                                    seed=4, lr_epochs=30)
print(evaluation.reports_to_csv(reports), end="")
print(evaluation.reports_to_table(reports), end="")
print("chains on the calling thread:", *sorted(threads))
"""


def test_suite_with_a_worker_writes_the_same_bytes():
    inline = fresh_stdout(SUITE_BYTES, "1").splitlines()
    worker = fresh_stdout(SUITE_BYTES, "2").splitlines()
    assert inline[-1] == "chains on the calling thread: True"
    assert worker[-1] == "chains on the calling thread: False"
    assert inline[:-1] == worker[:-1]
