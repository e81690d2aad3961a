"""Time each stage of `evaluate` on one pipeline-tokens corpus, for one
checkout.

    python3 tools/eval_stages.py CHECKOUT --seed 501 [--repeats 10]

CHECKOUT is a repository root; its `src/` is imported. In a temporary
directory the script runs the pipeline of its perfbench/run.py
pipeline-tokens workload on that workload's first corpus for benchmark
seed S (generate and preprocess seed 6 S, sampler seed 0, training
ss3m_fixA0_fixB and mc3m), as tools/cli_digest.py does, and then calls
each stage of evaluate on its outputs, printing the best and the median
of --repeats calls in milliseconds:

  * each container load: the two corpora, the two label matrices and the
    two states;
  * each held-out chain (`heldout_infer`);
  * each pair of classifiers: LR and NB on the mc3m theta and on the raw
    token counts, with their predictions and reports, as evaluate_suite
    runs them;
  * the raw token features of both corpora;
  * the whole `evaluate_suite`.

The chains are timed as the checkout's evaluate runs them. Where the
checkout has gibbs.Helper, each runs on a Helper's worker, so that it
starts no z-pass helper (on one CPU the worker is the calling thread).
In an older checkout whose evaluate worker starts no helper
(gibbs._thread exists, gibbs.Helper does not), each runs on the calling
thread with the CPU probe reporting one CPU, so that its z plan starts
no helper either; in one older still, on the calling thread as its
chains run, with a helper when the process may use two or more CPUs.
Run under `taskset -c 0` for the one-CPU times. The suite is timed as
evaluate runs it. This script stands in for the benchmark
tracer's `evaluation.*` spans, which one span stack cannot attribute
once two threads run them. Compare two checkouts on one host in one
session, one after the other:

    python3 tools/eval_stages.py ../ss3m-parent --seed 501
    python3 tools/eval_stages.py . --seed 501
"""

import os

# Pin BLAS to one thread before numpy is imported, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import logging
import sys
import tempfile
from pathlib import Path

from cli_digest import MODEL_ID, perfbench_module, run_pipeline
from sweep_stages import best_and_median


def stages(ss3m, work: Path, config: Path, solver_seed: int):
    """(name, fn) for each timed stage of evaluate on run_pipeline's
    outputs in work."""
    cli, data_io, evaluation = ss3m.cli, ss3m.data_io, ss3m.evaluation
    cfg = ss3m.config.RunConfig.from_file(config)
    prep, states = work / "prep", work / "states"
    paths = {split: (prep / f"corpus_{split}.json",
                     prep / f"labels_{split}.json")
             for split in ("train", "test")}
    corpora = {split: data_io.load_corpus(c)[0]
               for split, (c, _) in paths.items()}
    labels = {split: data_io.load_labels(lab)[0]
              for split, (_, lab) in paths.items()}
    loaded = {model_id: data_io.load_state(states / f"{model_id}.state.json")
              for model_id in (MODEL_ID, "mc3m")}
    hyper = cli.hyper_from_config(cfg, corpora["train"].num_sources)
    chain = dict(burn_in=cfg.get("eval.burn_in"),
                 samples=cfg.get("eval.samples"), seed=solver_seed)
    lr = dict(lam=cfg.get("eval.lr_lambda"), epochs=cfg.get("eval.lr_epochs"))
    truth = {split: evaluation.truth_matrix(labels[split])
             for split in labels}

    def heldout(model_id):
        def run():
            return evaluation.heldout_infer(corpora["test"],
                                            loaded[model_id][0], hyper,
                                            **chain)

        gibbs = ss3m.gibbs
        if hasattr(gibbs, "Helper"):
            # on a Helper's worker, as evaluate runs a chain
            with gibbs.Helper() as worker:
                return worker.submit(run).result()
        if not hasattr(gibbs, "_thread"):
            return run()
        # an older evaluate's worker starts no z-pass helper: a plan built
        # while the probe reports one CPU starts none either
        cpus, gibbs._usable_cpus = gibbs._usable_cpus, lambda: 1
        try:
            return run()
        finally:
            gibbs._usable_cpus = cpus

    def classify(prefix, feats_train, feats_test, nb_mode):
        model = evaluation.lr_train(feats_train, truth["train"], **lr)
        evaluation.compute_report(f"{prefix}_lr",
                                  evaluation.lr_predict(model, feats_test),
                                  truth["test"])
        model = evaluation.nb_train(feats_train, truth["train"], nb_mode)
        evaluation.compute_report(f"{prefix}_nb",
                                  evaluation.nb_predict(model, feats_test),
                                  truth["test"])

    def raw_features():
        return [evaluation.raw_token_features(corpora[split])
                for split in ("train", "test")]

    def suite():
        evaluation.evaluate_suite(
            {model_id: (state, meta.get("max_log_likelihood"))
             for model_id, (state, meta) in loaded.items()},
            corpora["train"], labels["train"], corpora["test"],
            labels["test"], hyper, lr_lam=lr["lam"], lr_epochs=lr["epochs"],
            **chain)

    mc3m_theta = heldout("mc3m").theta_mean
    raw_train, raw_test = raw_features()
    todo = [(f"load_corpus {split}", lambda c=c: data_io.load_corpus(c))
            for split, (c, _) in paths.items()]
    todo += [(f"load_labels {split}", lambda lab=lab: data_io.load_labels(lab))
             for split, (_, lab) in paths.items()]
    todo += [(f"load_state {model_id}",
              lambda m=model_id: data_io.load_state(states / f"{m}.state.json"))
             for model_id in loaded]
    todo += [(f"heldout {model_id}", lambda m=model_id: heldout(m))
             for model_id in loaded]
    todo += [
        ("classify mc3m", lambda: classify("mc3m", loaded["mc3m"][0].theta,
                                           mc3m_theta,
                                           evaluation.NB_GAUSSIAN)),
        ("raw_token_features", raw_features),
        ("classify raw", lambda: classify("raw", raw_train, raw_test,
                                          evaluation.NB_MULTINOMIAL)),
        ("evaluate_suite", suite),
    ]
    return todo


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True,
                        help="pipeline-tokens benchmark seed")
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seed < 0:
        parser.error("--repeats must be at least 1 and --seed at least 0")
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    import ss3m
    import ss3m.cli
    import ss3m.config
    import ss3m.data_io
    import ss3m.evaluation
    import ss3m.gibbs

    bench = perfbench_module(checkout)
    data_seed = bench.PipelineTokens.corpora * args.seed
    with tempfile.TemporaryDirectory(prefix="eval-stages-") as tmp:
        work, config = Path(tmp) / "work", Path(tmp) / "pipeline.cfg"
        config.write_text(bench.PIPELINE_CONFIG, encoding="utf-8")
        work.mkdir()
        # the suite's "no artifact" warnings, once per call, are not news
        logging.getLogger("ss3m").setLevel(logging.ERROR)
        run_pipeline(ss3m.cli, config, work, data_seed, bench.SOLVER_SEED)
        todo = stages(ss3m, work, config, bench.SOLVER_SEED)
        chains = ("on a Helper's worker" if hasattr(ss3m.gibbs, "Helper")
                  else "without a helper" if hasattr(ss3m.gibbs, "_thread")
                  else "as the checkout runs them")
        print(f"# {checkout}  seed {args.seed} (corpus seed {data_seed}), "
              f"{ss3m.gibbs._usable_cpus()} CPUs, chains {chains}, best and "
              f"median of {args.repeats} (ms)")
        for name, fn in todo:
            best, median = best_and_median(fn, lambda: (), args.repeats)
            print(f"{name:<28} {best:9.3f} {median:9.3f}")


if __name__ == "__main__":
    main()
