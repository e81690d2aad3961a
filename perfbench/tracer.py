"""Per-layer timing for the ss3m benchmark, installed from outside the
package.

The package's own call sites look their callees up at call time through
module globals (`sweep` calls `_sample_z_batch`, `train` calls `sweep`,
`evaluate_suite` calls `heldout_infer`, the CLI calls `data_io.*`), so
replacing a module attribute with a timing wrapper intercepts the call
without editing the package. `install` does that for every name in
TARGETS and `uninstall` puts the originals back.

Each wrapped call becomes a span: name, start, end, parent span and the
benchmark operation it belongs to. Spans stay in memory and are written
out once, when the run ends. Calls made once per activation cell
(`gibbs.sample_activation`, about 21k per sweep at paper scale) are not
spans: their count and busy time are added to the enclosing span.

A name that no longer exists (a refactor removed or renamed it) is
skipped with a note, and the metrics it feeds are reported as absent.
"""

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


def _first_path(args, kwargs):
    """The file path argument of a data_io reader or writer."""
    if "path" in kwargs:
        return kwargs["path"]
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return a
    return None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# -- hooks: (before, after) pairs, run outside the timed interval ----------

def _sweep_before(tracer, fn, args, kwargs):
    state = kwargs.get("state", args[0] if args else None)
    A = getattr(state, "A", None)
    return (state, A.copy()) if A is not None else None


def _sweep_after(tracer, span, args, kwargs, result, ctx):
    if ctx is not None:
        state, A0 = ctx
        span["flips"] = int(np.count_nonzero(state.A != A0))


def _z_before(tracer, fn, args, kwargs):
    # _sample_z_batch(theta, phi_s, w_flat, doc_idx, rng): the pass holds
    # (tokens x P) float64 temporaries.
    try:
        theta = kwargs.get("theta", args[0])
        w_flat = kwargs.get("w_flat", args[2])
        return int(len(w_flat)) * int(theta.shape[1]) * 8
    except (IndexError, AttributeError, TypeError):
        tracer.note("gibbs.z.temp_bytes",
                    "argument layout of _sample_z_batch changed")
        return None


def _z_after(tracer, span, args, kwargs, result, ctx):
    if ctx is not None:
        span["temp_bytes"] = ctx


def _train_after(tracer, span, args, kwargs, result, ctx):
    span["hmc_accepts"] = int(sum(getattr(result, "hmc_accepts", []) or []))
    span["hmc_attempts"] = int(sum(getattr(result, "hmc_attempts", []) or []))


def _read_before(tracer, fn, args, kwargs):
    return _file_size(_first_path(args, kwargs))


def _read_after(tracer, span, args, kwargs, result, ctx):
    span["bytes"] = ctx


def _write_after(tracer, span, args, kwargs, result, ctx):
    span["bytes"] = _file_size(_first_path(args, kwargs))


def _heldout_before(tracer, fn, args, kwargs):
    # A chain is identified by the trained state it starts from, the
    # prior mode and the seed; repeating one repeats its draws exactly.
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        tracer.note("evaluation.heldout.useful_ratio",
                    "heldout_infer signature changed")
        return None
    bound.apply_defaults()
    a = bound.arguments
    return [id(a.get("trained")), repr(a.get("theta_prior")),
            repr(a.get("seed"))]


def _heldout_after(tracer, span, args, kwargs, result, ctx):
    if ctx is not None:
        span["chain"] = ctx


# (module, attribute, span name, kind, hooks, metrics fed).
# kind "span" records one span per call; "cell" aggregates into the
# enclosing span. The module "model.ModelState" means the class.
TARGETS = (
    ("gibbs", "train", "gibbs.train", "span", (None, _train_after),
     ("hmc.accept_ratio",)),
    ("gibbs", "train_unstructured", "gibbs.train", "span",
     (None, _train_after), ()),
    ("gibbs", "sweep", "gibbs.sweep", "span", (_sweep_before, _sweep_after),
     ("gibbs.sweep.p50_ms", "gibbs.sweep.tail_ms", "gibbs.sweep.count",
      "gibbs.sweep.busy_s", "gibbs.sweep.self_s", "gibbs.A.flips",
      "gibbs.A.flip_ratio")),
    ("gibbs", "_sample_z_batch", "gibbs.z", "span", (_z_before, _z_after),
     ("gibbs.z.busy_s", "gibbs.z.temp_bytes")),
    ("gibbs", "sample_activation", "gibbs.A", "cell", None,
     ("gibbs.A.busy_s", "gibbs.A.cells", "gibbs.A.flip_ratio")),
    ("gibbs", "phenotype_counts", "gibbs.counts", "span", None,
     ("gibbs.counts.busy_s",)),
    ("gibbs", "token_counts", "gibbs.counts", "span", None,
     ("gibbs.counts.busy_s",)),
    ("gibbs", "sample_dirichlet", "gibbs.draw", "span", None,
     ("gibbs.draw.busy_s",)),
    ("gibbs", "initialize_state", "gibbs.init", "span", None,
     ("gibbs.init.busy_s",)),
    ("gibbs", "complete_data_log_likelihood", "model.loglik", "span", None,
     ("model.loglik.busy_s", "model.loglik.calls")),
    ("hmc", "hmc_step", "hmc.step", "span", None,
     ("hmc.step.busy_s", "hmc.step.calls")),
    ("hmc", "b_target", "hmc.target", "span", None, ("hmc.target.busy_s",)),
    ("hmc", "bstar_target", "hmc.target", "span", None,
     ("hmc.target.busy_s",)),
    ("model.ModelState", "copy", "model.snapshot", "span", None,
     ("model.snapshot.busy_s", "model.snapshot.calls")),
    ("model", "generate", "model.generate", "span", None,
     ("model.generate.busy_s",)),
    ("evaluation", "heldout_infer", "evaluation.heldout", "span",
     (_heldout_before, _heldout_after),
     ("evaluation.heldout.busy_s", "evaluation.heldout.calls",
      "evaluation.heldout.useful_ratio", "evaluation.heldout.self_s")),
    ("evaluation", "_sample_activations_collapsed", "evaluation.heldout.A",
     "span", None, ("evaluation.heldout.A.busy_s",)),
    ("evaluation", "sample_dirichlet", "evaluation.draw", "span", None,
     ("evaluation.draw.busy_s",)),
    ("evaluation", "lr_train", "evaluation.baselines", "span", None,
     ("evaluation.baselines.busy_s",)),
    ("evaluation", "lr_predict", "evaluation.baselines", "span", None,
     ("evaluation.baselines.busy_s",)),
    ("evaluation", "nb_train", "evaluation.baselines", "span", None,
     ("evaluation.baselines.busy_s",)),
    ("evaluation", "nb_predict", "evaluation.baselines", "span", None,
     ("evaluation.baselines.busy_s",)),
    ("evaluation", "compute_report", "evaluation.metrics", "span", None,
     ("evaluation.metrics.busy_s",)),
    ("data_io", "load_raw", "data_io.read", "span",
     (_read_before, _read_after), ("data_io.read.busy_s", "data_io.read.bytes")),
    ("data_io", "load_corpus", "data_io.read", "span",
     (_read_before, _read_after), ("data_io.read.busy_s", "data_io.read.bytes")),
    ("data_io", "load_labels", "data_io.read", "span",
     (_read_before, _read_after), ("data_io.read.busy_s", "data_io.read.bytes")),
    ("data_io", "load_state", "data_io.read", "span",
     (_read_before, _read_after), ("data_io.read.busy_s", "data_io.read.bytes")),
    ("data_io", "save_corpus_jsonl", "data_io.write", "span",
     (None, _write_after), ("data_io.write.busy_s", "data_io.write.bytes")),
    ("data_io", "save_corpus", "data_io.write", "span",
     (None, _write_after), ("data_io.write.busy_s", "data_io.write.bytes")),
    ("data_io", "save_labels", "data_io.write", "span",
     (None, _write_after), ("data_io.write.busy_s", "data_io.write.bytes")),
    ("data_io", "save_state", "data_io.write", "span",
     (None, _write_after), ("data_io.write.busy_s", "data_io.write.bytes")),
    ("data_io", "preprocess", "data_io.preprocess", "span", None,
     ("data_io.preprocess.busy_s",)),
    ("data_io", "build_labels", "data_io.preprocess", "span", None,
     ("data_io.preprocess.busy_s",)),
    ("data_io", "split", "data_io.preprocess", "span", None,
     ("data_io.preprocess.busy_s",)),
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, modules):
        self.modules = modules      # short name -> module, if it exists
        self.spans = []
        self.notes = {}             # metric name -> why it is absent
        self._stack = []
        self._op = None
        self._originals = []        # (owner, attribute, original)
        self._t0 = _now()

    def note(self, metric, text):
        self.notes.setdefault(metric, text)

    def _owner(self, module_name):
        head, _, rest = module_name.partition(".")
        obj = self.modules.get(head)
        return getattr(obj, rest, None) if rest else obj

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        span = {"name": name, "start": _now() - self._t0, "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "op": self._op}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span["end"] = _now() - self._t0
        self._stack.pop()

    def begin_op(self, op_id):
        """Start the root span of one timed benchmark operation."""
        self._op = op_id
        return self._open("op")

    def end_op(self, span):
        self._close(span)
        self._op = None

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, hooks):
        before, after = hooks or (None, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(tracer, fn, args, kwargs) if before else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after:
                after(tracer, span, args, kwargs, result, ctx)
            return result
        return wrapper

    def _cell_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t
                if tracer._stack:
                    cells = tracer.spans[tracer._stack[-1]].setdefault(
                        "cells", {})
                    agg = cells.get(name)
                    if agg is None:
                        agg = cells[name] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
        return wrapper

    def install(self):
        for module_name, attr, name, kind, hooks, metrics in TARGETS:
            owner = self._owner(module_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                for m in metrics:
                    self.note(m, f"absent: {module_name}.{attr} not found")
                continue
            wrapped = (self._cell_wrapper(fn, name) if kind == "cell"
                       else self._span_wrapper(fn, name, hooks))
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "notes": self.notes}, fh)


# -- span arithmetic --------------------------------------------------------

def _tail_percentile(n):
    """Highest percentile on the ladder with at least ten samples beyond
    it, or None when there are fewer than twenty samples."""
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def layer_metrics(tracer, ops):
    """Per-layer metrics from the spans of the traced operations `ops`.

    Busy times, counts and bytes are totals per traced operation; the
    sweep percentiles pool every sweep of every traced operation;
    model.generate.busy_s is per call, because on the library workloads
    generate runs in set-up, outside any operation.
    Returns {metric: (value, unit, samples, note)}.
    """
    ops = list(ops)
    n_ops = max(len(ops), 1)
    in_ops = set(ops)
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
        for count_busy in s.get("cells", {}).values():
            child[i] += count_busy[1]

    busy = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    extra = defaultdict(float)
    sweep_ms = []
    temp_bytes = 0
    chains = defaultdict(set)
    chain_calls = defaultdict(int)
    gen = []
    for i, s in enumerate(spans):
        name = s["name"]
        if name == "model.generate":
            gen.append(dur[i])
        if s["op"] not in in_ops:
            continue
        busy[name] += dur[i]
        calls[name] += 1
        self_time[name] += dur[i] - child[i]
        for cell, (count, cell_busy) in s.get("cells", {}).items():
            busy[cell] += cell_busy
            calls[cell] += count
        for key in ("flips", "bytes", "hmc_accepts", "hmc_attempts"):
            if key in s:
                extra[(name, key)] += s[key]
        if name == "gibbs.sweep":
            sweep_ms.append(dur[i] * 1e3)
        if "temp_bytes" in s:
            temp_bytes = max(temp_bytes, s["temp_bytes"])
        if "chain" in s:
            chains[s["op"]].add(tuple(s["chain"]))
            chain_calls[s["op"]] += 1

    out = {}

    def put(metric, value, unit, samples, note=None):
        out[metric] = (float(value), unit, samples,
                       tracer.notes.get(metric, note))

    def per_op(metric, layer, unit="s"):
        put(metric, busy[layer] / n_ops, unit, calls[layer])

    def count(metric, layer):
        put(metric, calls[layer] / n_ops, "count", calls[layer])

    n_sweeps = len(sweep_ms)
    tail_q = _tail_percentile(n_sweeps)
    put("gibbs.sweep.p50_ms",
        np.percentile(sweep_ms, 50) if sweep_ms else 0.0, "ms", n_sweeps,
        None if sweep_ms else "no sweeps")
    put("gibbs.sweep.tail_ms",
        np.percentile(sweep_ms, tail_q) if tail_q else 0.0, "ms", n_sweeps,
        f"p{tail_q:g}" if tail_q else "fewer than 20 sweeps")
    count("gibbs.sweep.count", "gibbs.sweep")
    per_op("gibbs.sweep.busy_s", "gibbs.sweep")
    put("gibbs.sweep.self_s", self_time["gibbs.sweep"] / n_ops, "s", n_sweeps)
    per_op("gibbs.z.busy_s", "gibbs.z")
    put("gibbs.z.temp_bytes", temp_bytes, "bytes", calls["gibbs.z"],
        "computed: max tokens per source x P x 8")
    per_op("gibbs.A.busy_s", "gibbs.A")
    count("gibbs.A.cells", "gibbs.A")
    flips = extra[("gibbs.sweep", "flips")]
    put("gibbs.A.flips", flips / n_ops, "count", n_sweeps)
    put("gibbs.A.flip_ratio",
        flips / calls["gibbs.A"] if calls["gibbs.A"] else 0.0, "1",
        calls["gibbs.A"], None if calls["gibbs.A"] else "no cells sampled")
    per_op("gibbs.counts.busy_s", "gibbs.counts")
    per_op("gibbs.draw.busy_s", "gibbs.draw")
    per_op("gibbs.init.busy_s", "gibbs.init")

    per_op("hmc.step.busy_s", "hmc.step")
    count("hmc.step.calls", "hmc.step")
    per_op("hmc.target.busy_s", "hmc.target")
    acc = extra[("gibbs.train", "hmc_accepts")]
    att = extra[("gibbs.train", "hmc_attempts")]
    put("hmc.accept_ratio", acc / att if att else 0.0, "1", int(att),
        None if att else "no HMC attempts")

    per_op("model.loglik.busy_s", "model.loglik")
    count("model.loglik.calls", "model.loglik")
    per_op("model.snapshot.busy_s", "model.snapshot")
    count("model.snapshot.calls", "model.snapshot")
    put("model.generate.busy_s", float(np.mean(gen)) if gen else 0.0, "s",
        len(gen), None if gen else "no generate calls")

    per_op("evaluation.heldout.busy_s", "evaluation.heldout")
    count("evaluation.heldout.calls", "evaluation.heldout")
    ratios = [len(chains[o]) / chain_calls[o] for o in chain_calls]
    put("evaluation.heldout.useful_ratio",
        float(np.mean(ratios)) if ratios else 0.0, "1",
        calls["evaluation.heldout"],
        None if ratios else "no held-out chains")
    per_op("evaluation.heldout.A.busy_s", "evaluation.heldout.A")
    put("evaluation.heldout.self_s",
        self_time["evaluation.heldout"] / n_ops, "s",
        calls["evaluation.heldout"])
    per_op("evaluation.draw.busy_s", "evaluation.draw")
    per_op("evaluation.baselines.busy_s", "evaluation.baselines")
    per_op("evaluation.metrics.busy_s", "evaluation.metrics")

    per_op("data_io.read.busy_s", "data_io.read")
    put("data_io.read.bytes", extra[("data_io.read", "bytes")] / n_ops,
        "bytes", calls["data_io.read"])
    per_op("data_io.write.busy_s", "data_io.write")
    put("data_io.write.bytes", extra[("data_io.write", "bytes")] / n_ops,
        "bytes", calls["data_io.write"])
    per_op("data_io.preprocess.busy_s", "data_io.preprocess")

    for cmd in ("generate", "preprocess", "train", "train_mc3m", "evaluate",
                "summarize"):
        per_op(f"cli.{cmd}_s", f"cli.{cmd}")
    return out
