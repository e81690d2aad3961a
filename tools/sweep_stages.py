"""Time each stage of a training chain on the benchmark's train-paper
corpus, kernel by kernel, for one checkout.

    python3 tools/sweep_stages.py CHECKOUT --seed 501 [--repeats 50]

CHECKOUT is a repository root; its `src/` is imported, and the corpus,
labels, priors and options are those of its perfbench/run.py train-paper
workload for the given input seed (D=300, P=70, about 60k tokens,
estimated labels, sampled B). The script starts a chain as train() does
(sampler seed 0), runs --warm sweeps (default 30) on it, and then calls
each kernel on copies of that state, printing the best and the median of
--repeats calls in milliseconds:

  * the chain's start-up: `ZPlan` until its pair index is ready, and
    `initialize_state`;
  * each stage of a sweep: the z pass of every source, the phenotype
    counts, the A scan, the B and B* step, the theta draw, the token
    counts, the phi draw and the collapsed log joint;
  * a whole `sweep`, and a whole `train()` call of the workload's sweeps.

Each stage is timed alone on the calling thread, except that the z pass
and `sweep` use the chain's helper thread as a chain does; the helper
exists only where the process may use two or more CPUs, so run the
script under `taskset -c 0` for the one-thread times. A kernel that
allocates token-long temporaries (the B and B* step above all) may or
may not page-fault them anew on each call, depending on what the
earlier stages left in the memory allocator, so its time can move when
only an earlier stage changed. Compare two checkouts on one host in one
session, one after the other:

    python3 tools/sweep_stages.py ../ss3m-parent --seed 501
    python3 tools/sweep_stages.py . --seed 501
"""

import os

# Pin BLAS to one thread before numpy is imported, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cli_digest import perfbench_module


def best_and_median(fn, prepare, repeats: int):
    """Milliseconds of fn(*prepare()) over `repeats` calls, prepare()
    untimed: (best, median)."""
    times = []
    for _ in range(repeats):
        args = prepare()
        t = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t) * 1e3)
    return min(times), statistics.median(times)


def stages(ss3m, bench, seed: int, warm: int):
    """(name, fn, prepare) for each timed stage, on the train-paper state
    after `warm` sweeps, and the plan to close at the end."""
    gibbs, model, util = ss3m.gibbs, ss3m.model, ss3m.util
    work = bench.TrainPaper(ss3m, seed)
    work.build()
    corpus, labels, hyper, options = (work.corpus, work.labels, work.hyper,
                                      work.options)
    P = hyper.num_phenotypes
    clamp = gibbs.clamp_matrix(labels, options, corpus.num_patients, P)
    rng = util.substream(options.seed, "gibbs.train")
    state = gibbs.initialize_state(corpus, clamp, hyper, rng)
    plan = gibbs.ZPlan(corpus, P)
    for _ in range(warm):
        gibbs.sweep(state, plan, clamp, options.b_mode, hyper, rng)
    counts = gibbs.phenotype_counts(state, corpus)
    m = [gibbs.token_counts(state, corpus, s)
         for s in range(corpus.num_sources)]
    rngs = iter(np.random.SeedSequence(seed).spawn(10 ** 6))

    def fresh():
        return np.random.default_rng(next(rngs))

    def start_plan():
        # closing a plan waits for its pair index
        gibbs.ZPlan(corpus, P).close()

    def z_pass(rng):
        for s in range(corpus.num_sources):
            gibbs._sample_z_batch(state.theta, state.phi[s], plan, s, rng)

    def train():
        gibbs.train(corpus, labels, hyper, options)

    return [
        ("ZPlan", start_plan, lambda: ()),
        ("initialize_state", gibbs.initialize_state,
         lambda: (corpus, clamp, hyper, fresh())),
        ("z pass", z_pass, lambda: (fresh(),)),
        ("phenotype_counts", gibbs.phenotype_counts,
         lambda: (state, corpus)),
        ("activation_scan", gibbs.activation_scan,
         lambda: (state.A.copy(), clamp, counts, state.B, state.Bstar,
                  hyper.alpha, fresh())),
        ("draw_pseudocounts", gibbs.draw_pseudocounts,
         lambda: (state.copy(), counts, hyper, fresh())),
        ("draw_theta", gibbs.draw_theta,
         lambda: (state.copy(), counts, fresh())),
        ("token_counts", lambda: [gibbs.token_counts(state, corpus, s)
                                  for s in range(corpus.num_sources)],
         lambda: ()),
        ("draw_phi", gibbs.draw_phi,
         lambda: (state.copy(), corpus, hyper, fresh(), m)),
        ("collapsed_log_joint", model.collapsed_log_joint,
         lambda: (state, corpus, hyper, (counts, m))),
        ("sweep", gibbs.sweep,
         lambda: (state.copy(), plan, clamp, options.b_mode, hyper,
                  fresh())),
        (f"train ({hyper.iterations} sweeps)", train, lambda: ()),
    ], plan


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True,
                        help="train-paper input seed")
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--warm", type=int, default=30,
                        help="sweeps run before the kernels are timed")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.warm < 0:
        parser.error("--repeats must be at least 1 and --warm at least 0")
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    import ss3m
    import ss3m.gibbs
    import ss3m.model
    import ss3m.util

    todo, plan = stages(ss3m, perfbench_module(checkout), args.seed,
                        args.warm)
    try:
        print(f"# {checkout}  seed {args.seed}, {args.warm} warm sweeps, "
              f"{len(os.sched_getaffinity(0))} CPUs, best and median of "
              f"{args.repeats} (ms)")
        for name, fn, prepare in todo:
            best, median = best_and_median(fn, prepare, args.repeats)
            print(f"{name:<22} {best:9.3f} {median:9.3f}")
    finally:
        plan.close()


if __name__ == "__main__":
    main()
