"""Benchmark for ss3m: paper-scale training and a token-heavy CLI
pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 40 --trace 0

The seed makes the inputs; the sampler seeds given to the program stay
fixed at 0. The run sets up (imports ss3m and builds the inputs, several
times, reporting the median), then repeats the workload's operation until
--seconds have passed, checking every output. Every call into the
program is bracketed by runs of a fixed reference kernel
(perfbench/reference.py), so that its time can also be read in units of
the kernel's time at that moment, which cancels the shared host's drift.
The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see perfbench/README.md). The lines before it are a readable report of the
same numbers under per-workload names, with units and sample counts.
"""

import os

# The program is single-threaded; pin BLAS before numpy is first imported
# so the raw-token logistic regression in `evaluate` cannot use more cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "runs"

SETUP_REPEATS = 5
SOLVER_SEED = 0

# Priors of configs/paper_default.cfg, copied so that the inputs stay
# fixed if that file changes.
PAPER_PRIORS = dict(alpha=0.1, b_shape=10.0, b_scale=1.0, bstar_shape=0.01,
                    bstar_scale=1.0, hmc_path_length=25, hmc_step_size=0.01)
PAPER_GAMMA = 0.01

# Paper scale: D=300, P=70, P_lab=50, S=2, vocabularies 500 and 200,
# Poisson(100) tokens per source (about 60k tokens).
PAPER_D, PAPER_P, PAPER_P_LAB = 300, 70, 50
PAPER_VOCAB = (500, 200)
PAPER_DOC_LENGTH = 100.0
# Short train() calls (about 0.6 s) keep each call close in time to the
# reference kernel runs around it.
TRAIN_SWEEPS = 2

# Pipeline: D=1000, P=10, P_lab=6, S=2, vocabularies 1000 and 300,
# Poisson(150) tokens per source (about 300k tokens). The prior lines come
# from PAPER_PRIORS and PAPER_GAMMA, so both workloads share one copy.
_CONFIG_KEYS = dict(alpha="model.alpha", b_shape="model.b_shape",
                    b_scale="model.b_scale", bstar_shape="model.bstar_shape",
                    bstar_scale="model.bstar_scale",
                    hmc_path_length="hmc.path_length",
                    hmc_step_size="hmc.step_size")
PIPELINE_CONFIG = "".join(
    f"{_CONFIG_KEYS[k]} = {v}\n" for k, v in PAPER_PRIORS.items()) + f"""\
model.gamma = {PAPER_GAMMA}
model.num_phenotypes = 10
model.num_labeled = 6
train.iterations = 10
train.missing_label_mode = fix_zero
train.b_mode = fixed
generate.num_patients = 1000
generate.num_sources = 2
generate.vocab_size = 1000,300
generate.doc_length_mode = poisson
generate.doc_length = 150
preprocess.min_count = 5
preprocess.max_doc_fraction = 0.5
labels.top_k = 6
split.train_fraction = 0.8
eval.burn_in = 5
eval.samples = 10
eval.lr_epochs = 30
"""
PIPELINE_MODEL = "ss3m_fixA0_fixB"
# Each run cycles through this many corpora made from its seed, and its
# quality is the mean AUROC over them: one corpus gives ss3m an AUROC
# anywhere from 0.70 to 0.82, depending on the seed.
PIPELINE_CORPORA = 6
# metrics.csv columns that the two trained artifacts populate
PIPELINE_COLUMNS = (PIPELINE_MODEL, "mc3m_lr", "mc3m_nb", "raw_lr", "raw_nb")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import ss3m, ss3m.cli; "
                "print(repr(time.perf_counter() - t))")


class OpResult:
    """Outcome of one timed benchmark operation."""

    def __init__(self):
        self.wall = 0.0         # seconds inside timed calls
        self.ref_units = 0.0    # the same calls in reference kernel times
        self.work = 0.0         # tokens processed by the timed calls
        self.quality = None
        self.inputs = 0         # which of the workload's inputs it used
        self.attempted = 0
        self.failures = []      # one message per failed call or check
        self.report = {}        # readable-report name -> (value, unit)
        self.complete = False   # every call of the operation ran


class Clock:
    """Times calls into the program against the reference kernel.

    The kernel runs once at the start and again after every timed call,
    so each call lies between two kernel runs. A call's time in reference
    units is its wall time divided by the mean of those two.
    """

    def __init__(self, reference):
        self.reference = reference
        self.refs = [reference()]

    def time(self, res, fn, *args):
        """Call fn(*args), add its time to `res`, and return its result
        and its wall time."""
        t = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t
        self.refs.append(self.reference())
        res.wall += wall
        res.ref_units += wall / ((self.refs[-2] + self.refs[-1]) / 2)
        return out, wall


def _check(result, ok, message):
    if not ok:
        result.failures.append(message)


def _token_nll(state, corpus, chunk=4096):
    """Mean negative log predictive probability per token,
    -log sum_p theta[d, p] * phi_s[p, w], over every token of the corpus.
    Chunked so that the check does not set the run's peak RSS."""
    total, n = 0.0, 0
    for s, per_source in enumerate(corpus.tokens):
        lengths = [w.size for w in per_source]
        w = np.concatenate(per_source)
        d = np.repeat(np.arange(len(lengths)), lengths)
        for i in range(0, w.size, chunk):
            p = np.einsum("np,pn->n", state.theta[d[i:i + chunk]],
                          state.phi[s][:, w[i:i + chunk]])
            total -= float(np.log(p).sum())
        n += w.size
    return total / n


class TrainPaper:
    """Library `train` at paper scale with estimated missing labels and
    HMC-sampled B."""

    name = "train-paper"
    corpora = 1

    def __init__(self, ss3m, seed):
        self.ss3m, self.seed = ss3m, seed
        self.hyper = ss3m.model.Hyperparameters(
            num_phenotypes=PAPER_P, num_labeled=PAPER_P_LAB, num_sources=2,
            gamma=(PAPER_GAMMA,) * 2, iterations=TRAIN_SWEEPS, **PAPER_PRIORS)
        self.options = ss3m.gibbs.TrainOptions(
            missing_label_mode="estimate", b_mode="sampled", seed=SOLVER_SEED)

    def build(self):
        model = self.ss3m.model
        self.corpus, self.truth = model.generate(
            self.hyper, PAPER_VOCAB,
            model.DocLengthSpec.poisson(PAPER_DOC_LENGTH, 2), PAPER_D,
            self.seed)
        self.labels = model.labels_from_activations(self.truth, PAPER_P_LAB)

    def after_setup(self):
        self.tokens = self.corpus.num_tokens()
        self.truth_nll = _token_nll(self.truth, self.corpus)

    def cleanup(self):
        pass

    def op(self, clock, tracer, index):
        res = OpResult()
        res.attempted = 1
        trace, _ = clock.time(res, self.ss3m.gibbs.train, self.corpus,
                              self.labels, self.hyper, self.options)
        res.complete = True
        sweeps = len(trace.log_likelihoods) - 1
        res.work = self.tokens * sweeps
        best = trace.best_state
        ll = trace.best_log_likelihood
        try:
            best.validate(self.corpus)
        except self.ss3m.errors.SS3MError as exc:
            res.failures.append(f"best state invalid: {exc}")
        _check(res, math.isfinite(ll), "best log-likelihood not finite")
        _check(res, sweeps == TRAIN_SWEEPS, f"ran {sweeps} sweeps")
        for s, per_source in enumerate(self.corpus.tokens):
            n_z = sum(int(z.size) for z in best.z[s])
            n_w = sum(int(w.size) for w in per_source)
            _check(res, n_z == n_w,
                   f"source {s}: z holds {n_z} tokens, corpus {n_w}")
            _check(res, all(z.size == 0 or (0 <= z.min() and z.max() < PAPER_P)
                            for z in best.z[s]),
                   f"source {s}: z outside [0, P)")
        present = self.labels.entries == self.ss3m.model.LABEL_PRESENT
        _check(res, bool(best.A[:, :PAPER_P_LAB][present].all()),
               "a labeled Present cell is inactive in the best state")
        # The complete-data log-likelihood is dominated by the Dirichlet
        # prior on phi at gamma=0.01 and swings by ~10% between input
        # seeds; the predictive fit of the tokens does not.
        nll = _token_nll(best, self.corpus)
        _check(res, math.isfinite(nll), "token NLL of the best state not finite")
        res.quality = self.truth_nll / nll
        res.report = {
            "train_tokens_per_s": (res.work / res.wall, "tokens/s"),
            "train_tokens_per_ref": (res.work / res.ref_units, "tokens/ref"),
            "train_ll_per_token": (ll / self.tokens, "nats/token"),
            "train_token_nll": (nll, "nats/token"),
            "truth_token_nll": (self.truth_nll, "nats/token"),
            "train_s": (res.wall, "s"),
        }
        return res


class PipelineTokens:
    """In-process `ss3m.cli.main`: generate -> preprocess -> train ->
    train mc3m -> evaluate -> summarize, in a fresh directory each time."""

    name = "pipeline-tokens"
    corpora = PIPELINE_CORPORA
    COMMANDS = ("generate", "preprocess", "train", "train_mc3m", "evaluate",
                "summarize")

    def __init__(self, ss3m, seed):
        self.ss3m, self.seed = ss3m, seed
        self.tokens = {}

    def build(self):
        RUNS.mkdir(parents=True, exist_ok=True)
        self.config = RUNS / f"pipeline-seed{self.seed}-{os.getpid()}.cfg"
        self.config.write_text(PIPELINE_CONFIG, encoding="utf-8")

    def after_setup(self):
        pass

    def cleanup(self):
        self.config.unlink(missing_ok=True)

    def _argv(self, work, corpus_seed):
        cfg = ["--config", str(self.config)]
        gen, prep, states = work / "gen", work / "prep", work / "states"
        train_c = str(prep / "corpus_train.json")
        train_l = str(prep / "labels_train.json")
        solver = ["--seed", str(SOLVER_SEED)]
        return {
            "generate": cfg + ["--seed", str(corpus_seed), "--out", str(gen),
                               "generate"],
            "preprocess": cfg + ["--seed", str(corpus_seed), "--out", str(prep),
                                 "preprocess", "--corpus",
                                 str(gen / "corpus.jsonl")],
            "train": cfg + solver + ["--out", str(states), "train",
                                     "--corpus", train_c, "--labels", train_l,
                                     "--model-id", PIPELINE_MODEL],
            "train_mc3m": cfg + solver + ["--out", str(states), "--force",
                                          "train", "--corpus", train_c,
                                          "--model-id", "mc3m"],
            "evaluate": cfg + solver + [
                "--out", str(work / "eval"), "evaluate",
                "--train-corpus", train_c, "--train-labels", train_l,
                "--test-corpus", str(prep / "corpus_test.json"),
                "--test-labels", str(prep / "labels_test.json"),
                "--state-dir", str(states)],
            "summarize": cfg + ["--out", str(work / "summary"), "summarize",
                                "--state",
                                str(states / f"{PIPELINE_MODEL}.state.json"),
                                "--corpus", train_c, "--labels", train_l],
        }

    @staticmethod
    def _expected_files(cmd, out):
        if cmd in ("evaluate", "summarize"):
            # these two commands write no manifest
            return (["metrics.csv", "metrics.txt"] if cmd == "evaluate"
                    else ["summary.json", "summary.txt"])
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        return manifest["files"]

    @staticmethod
    def _read_metrics(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        found = {}
        for row in rows:
            found[(row["model_id"], row["metric"], row["averaging"])] = (
                row["value"])
        return found

    def op(self, clock, tracer, index):
        res = OpResult()
        res.inputs = index % self.corpora
        RUNS.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="pipeline-", dir=RUNS))
        try:
            self._run(res, work, clock, tracer)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return res

    def _run(self, res, work, clock, tracer):
        argv = self._argv(work, self.corpora * self.seed + res.inputs)
        outs = {"generate": "gen", "preprocess": "prep", "train": "states",
                "train_mc3m": "states", "evaluate": "eval",
                "summarize": "summary"}
        for cmd in self.COMMANDS:
            res.attempted += 1
            out = work / outs[cmd]
            span = tracer.span(f"cli.{cmd}") if tracer else (
                contextlib.nullcontext())
            stdout = open(work / f"{cmd}.stdout", "w", encoding="utf-8")
            try:
                with stdout, contextlib.redirect_stdout(stdout), span:
                    rc, dt = clock.time(res, self.ss3m.cli.main, argv[cmd])
            except Exception:
                traceback.print_exc()
                res.failures.append(f"{cmd} raised")
                return
            res.report[f"cli.{cmd}_s"] = (dt, "s")
            if rc != 0:
                res.failures.append(f"{cmd} exited {rc}")
                return
            try:
                missing = [f for f in self._expected_files(cmd, out)
                           if not (out / f).is_file()]
            except (OSError, ValueError, KeyError) as exc:
                missing = [f"manifest.json ({exc})"]
            _check(res, not missing, f"{cmd} did not write {missing}")
        res.complete = True
        if res.inputs not in self.tokens:
            with open(work / "gen" / "corpus.jsonl", encoding="utf-8") as fh:
                self.tokens[res.inputs] = sum(len(json.loads(line)["tokens"])
                                              for line in fh if line.strip())
        res.work = self.tokens[res.inputs]
        try:
            found = self._read_metrics(work / "eval" / "metrics.csv")
            ss3m_auroc = float(found[(PIPELINE_MODEL, "auroc", "micro")])
            aurocs = {model_id: float(value)
                      for (model_id, metric, avg), value in found.items()
                      if metric == "auroc" and avg == "micro" and value}
        except (OSError, KeyError, ValueError) as exc:
            res.failures.append(f"metrics.csv unreadable or lacks "
                                f"{PIPELINE_MODEL}: {exc!r}")
            return
        _check(res, set(PIPELINE_COLUMNS) <= set(aurocs),
               f"metrics.csv has AUROCs for {sorted(aurocs)} only")
        _check(res, all(0.0 <= v <= 1.0 for v in aurocs.values()),
               "an AUROC lies outside [0, 1]")
        res.quality = ss3m_auroc
        res.report.update({
            "pipeline_s": (res.wall, "s"),
            "pipeline_tokens_per_s": (res.work / res.wall, "tokens/s"),
            "pipeline_tokens_per_ref": (res.work / res.ref_units,
                                        "tokens/ref"),
        })


WORKLOADS = {w.name: w for w in (TrainPaper, PipelineTokens)}


def import_seconds():
    """Median wall time of `import ss3m, ss3m.cli` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_ops(workload, seconds, clock, tracer):
    """Repeat the operation until the next one would end more than half
    an operation past `seconds`, and at least until every input of the
    workload has been used once. With a tracer, operations alternate
    untraced and traced, starting untraced, and each untraced/traced pair
    uses the same input.

    Returns the operations and the peak RSS in MB after the first one.
    Later repeats need no more memory, but they can grow the heap through
    allocator fragmentation: in 3 of 10 train-paper runs of 8 to 11
    repeats of an 8-sweep train() call the peak rose from 157 to 172 MB, while runs of 2 or 3
    repeats stayed at 157 MB.
    """
    done = []
    rss_mb = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        root = None
        if traced:
            tracer.install()
            root = tracer.begin_op(i)
        try:
            res = workload.op(clock, tracer if traced else None,
                              i // 2 if tracer else i)
        except Exception:
            traceback.print_exc()
            res = OpResult()
            res.attempted = 1
            res.failures.append("operation raised")
        finally:
            if traced:
                tracer.end_op(root)
                tracer.uninstall()
        done.append((i, traced, res))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
        elapsed = time.perf_counter() - start
        if i < (2 if tracer else workload.corpora):
            continue
        # an operation's share of the run includes its checks and the
        # reference kernel runs around its calls
        if elapsed + elapsed / i / 2 > seconds:
            return done, rss_mb


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ss3m" / "__init__.py").is_file():
        print(f"error: no ss3m package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ss3m
    import ss3m.cli
    import ss3m.errors
    from reference import reference_seconds
    from tracer import TARGETS, Tracer, layer_metrics

    workload = WORKLOADS[args.workload](ss3m, args.seed)
    tracer = None
    if args.trace:
        modules = {}
        for name in {t[0].partition(".")[0] for t in TARGETS}:
            try:
                modules[name] = importlib.import_module(f"ss3m.{name}")
            except ImportError:
                pass    # its wrappers are reported absent
        tracer = Tracer(modules)

    t_import = import_seconds()
    builds = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install()
        t = time.perf_counter()
        try:
            workload.build()
        finally:
            builds.append(time.perf_counter() - t)
            if tracer:
                tracer.uninstall()
    setup_s = t_import + statistics.median(builds)
    workload.after_setup()

    clock = Clock(reference_seconds)
    try:
        done, peak_rss_mb = run_ops(workload, args.seconds, clock, tracer)
    finally:
        workload.cleanup()

    attempted = sum(r.attempted for _, _, r in done)
    # a call fails once however many of its checks fail
    failed = sum(min(len(r.failures), r.attempted) for _, _, r in done)
    for i, traced, r in done:
        for msg in r.failures:
            print(f"op {i}{' (traced)' if traced else ''} failed: {msg}",
                  file=sys.stderr)
    complete = [(traced, r) for _, traced, r in done if r.complete]
    qualities = {}      # input -> the quality of every operation on it
    for _, r in complete:
        if r.quality is not None:
            qualities.setdefault(r.inputs, set()).add(r.quality)
    for inputs, values in sorted(qualities.items()):
        if len(values) > 1:
            failed = min(failed + 1, attempted)
            print(f"outputs differ between operations on input {inputs}: "
                  f"{sorted(values)}", file=sys.stderr)
    plain = [r for traced, r in complete if not traced]
    if not plain or not qualities:
        print("error: no operation completed with checked outputs",
              file=sys.stderr)
        return 1
    if not args.trace and len(qualities) < workload.corpora:
        print(f"error: only {len(qualities)} of {workload.corpora} inputs "
              "gave checked outputs", file=sys.stderr)
        return 1
    quality = statistics.fmean(min(v) for v in qualities.values())

    units = [r.ref_units for r in plain]
    rates = [r.work / r.ref_units for r in plain]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"operations {len(done)}  trace {args.trace}")
    print("# operation walls (s, * traced): " + " ".join(
        f"{r.wall:.4g}{'*' if traced else ''}" for _, traced, r in done))

    def show(name, value, unit, n, note=None):
        extra = f"  ({note})" if note else ""
        print(f"  {name:<34} {value:>16.6g} {unit:<10} n={n}{extra}")

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "tokens_per_ref": (statistics.median(rates), "tokens/ref"),
            "quality": (quality, "1"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        show("setup_s", setup_s, "s", SETUP_REPEATS,
             f"import {t_import:.4g} s + median build "
             f"{statistics.median(builds):.4g} s")
        names = sorted({k for r in plain for k in r.report})
        for name in names:
            vals = [r.report[name][0] for r in plain if name in r.report]
            q1, q3 = _quartiles(vals)
            show(name, statistics.median(vals), plain[0].report[name][1],
                 len(vals), f"quartiles {q1:.6g} .. {q3:.6g}")
        q1, q3 = _quartiles(clock.refs)
        show("reference_s", statistics.median(clock.refs), "s",
             len(clock.refs), f"quartiles {q1:.6g} .. {q3:.6g}")
        if workload.corpora > 1:
            show("pipeline_auroc_micro", quality, "1", len(qualities),
                 f"{PIPELINE_MODEL}, mean over {len(qualities)} corpora")
        show("peak_rss_mb", peak_rss_mb, "MB", 1)
        show("ops_failed_frac", failed / attempted, "1", attempted)
    else:
        traced_ops = [i for i, traced, r in done if traced and r.complete]
        layers = layer_metrics(tracer, traced_ops)
        # Each traced operation against the untraced one just before it,
        # on the same input, in reference units, so that the host's drift
        # cancels.
        ratios = [r.ref_units / done[i - 1][2].ref_units - 1.0
                  for i, traced, r in done
                  if traced and r.complete and done[i - 1][2].complete]
        overhead = statistics.median(ratios) if ratios else 0.0
        q1, q3 = _quartiles(units)
        noise = (q3 - q1) / statistics.median(units)
        note = ("no traced operation completed" if not ratios else
                f"unresolved: below the untraced spread {noise:.3g}"
                if overhead < noise else None)
        layers["trace.overhead_frac"] = (overhead, "1", len(ratios), note)
        for name, (value, unit, n, note) in layers.items():
            show(name, value, unit, n, note)
        metrics = {k: (v[0], v[1]) for k, v in layers.items()}
        RUNS.mkdir(parents=True, exist_ok=True)
        tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
