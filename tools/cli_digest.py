"""Print a sha256 digest of every file the ss3m command line writes, for a
given checkout, so that two checkouts can be compared byte for byte.

    python3 tools/cli_digest.py CHECKOUT > digest.txt

CHECKOUT is a repository root; its `src/` is imported. In a temporary
directory the script runs generate, preprocess, train (each model into
its own directory, so every trace is kept), evaluate (on a directory
holding the trained states) and summarize:

  * on configs/toy.cfg with seed 1, training ss3m_fixA0_fixB,
    ss3m_smplA0_smplB (estimated labels, sampled B and Bstar) and
    mc3m;
  * at P=70 on configs/paper_default.cfg shortened by PAPER_OVERRIDES
    (300 patients, 3 sweeps), seed 1, training the same three models;
  * on the six pipeline corpora of perfbench's pipeline-tokens workload
    for benchmark seed 501: perfbench/run.py's PIPELINE_CONFIG, generate
    and preprocess seeds 3006-3011, sampler seed 0, training
    ss3m_fixA0_fixB and mc3m.

It prints one `sha256  relative/path` line per output file, sorted by
path, then one `sha256  reload/relative/path` line per container among
them (states, preprocessed corpora, label matrices), hashing what
load_state, load_corpus or load_labels reads back: every array with its
dtype and shape, and the ids, names, vocabularies and meta. A change to a
reader shows there even where the written bytes stay the same. On each
pipeline corpus it then repeats evaluate's arithmetic in-process and
prints one `sha256  evaluation/...` line per result:
heldout_infer's scores and theta_mean for each trained state,
lr_train's weights on the mc3m theta and on the raw token counts, and
nb_predict's test scores on the same features (gaussian on the theta,
multinomial on the counts). metrics.csv's AUROC is rank-based and does
not show a change of these numbers at the rounding level. Last it
prints one `sha256  library/...` line per library result:

  * generate() for seeds 501-503 at each shape of GENERATE_SHAPES (the
    train-paper and pipeline-tokens inputs, the toy config, a single
    phenotype and word, and a sparse corpus with empty patients and a
    one-word source), hashing the corpus tokens and the whole state;
  * train() on the train-paper corpus of perfbench/run.py for seeds
    501-503, each missing-label mode and each B mode, 3 sweeps, sampler
    seed 0, hashing the best state, its iteration and the log-likelihood
    trace;
  * lr_train()'s weights after 400 epochs on each of the 60 small count
    problems of tests/test_evaluation.py's float-optimum test (seeds
    0-59), fits that run to steps whose loss change is at rounding level,
    where a change of the line search's step rule shows;
  * nb_predict()'s scores of both modes on the same 60 problems, each
    with one all-present and one all-absent label column appended.

Two checkouts that draw the same numbers print the same lines:

    diff <(python3 tools/cli_digest.py old) <(python3 tools/cli_digest.py new)
"""

import os

# Pin BLAS to one thread before numpy is imported, as the benchmark does,
# so that the logistic-regression baselines sum in one fixed order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

TOY_SEED = 1
PIPELINE_SEEDS = range(3006, 3012)
SOLVER_SEED = 0
PAPER_SEED = 1
# appended to configs/paper_default.cfg: later lines win
PAPER_OVERRIDES = """\
train.iterations = 3
eval.burn_in = 2
eval.samples = 3
eval.lr_epochs = 30
generate.num_patients = 300
generate.vocab_size = 500,200
"""
MODEL_ID = "ss3m_fixA0_fixB"
# ss3m_smplA0_smplB: the label-estimation clamps and the B and Bstar draws.
SAMPLED_MODEL = ("ss3m_smplA0_smplB",
                 ["--train.missing_label_mode", "estimate",
                  "--train.b_mode", "sampled"])


LIBRARY_SEEDS = range(501, 504)
LIBRARY_SWEEPS = 3
LR_OPTIMUM_SEEDS = range(60)
LR_OPTIMUM_EPOCHS = 400
# name -> (num_phenotypes, num_labeled, vocabulary sizes, document-length
# law, patients); the priors are perfbench's PAPER_PRIORS and PAPER_GAMMA
GENERATE_SHAPES = {
    "paper": (70, 50, (500, 200), ("poisson", 100.0), 300),
    "pipeline": (10, 6, (1000, 300), ("poisson", 150.0), 1000),
    "toy": (4, 3, (40,), ("poisson", 50.0), 80),
    "single": (1, 0, (1,), ("fixed", 3), 5),
    "sparse": (5, 2, (3, 1), ("poisson", 0.5), 40),
}


def perfbench_module(checkout: Path):
    """The checkout's perfbench/run.py, imported."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pipeline(cli, config: Path, work: Path, data_seed: int,
                 solver_seed: int, extra_models=()):
    """Run the five commands of one pipeline into subdirectories of work.
    extra_models holds (model_id, config overrides) pairs, trained on the
    labels like MODEL_ID."""
    cfg = ["--config", str(config)]
    gen, prep, states = work / "gen", work / "prep", work / "states"
    train_c = str(prep / "corpus_train.json")
    train_l = str(prep / "labels_train.json")
    solver = ["--seed", str(solver_seed)]

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)} exited {rc}")

    run(cfg + ["--seed", str(data_seed), "--out", str(gen), "generate"])
    run(cfg + ["--seed", str(data_seed), "--out", str(prep), "preprocess",
               "--corpus", str(gen / "corpus.jsonl")])
    states.mkdir()
    for model_id, overrides in [(MODEL_ID, []), *extra_models, ("mc3m", [])]:
        labels = [] if model_id == "mc3m" else ["--labels", train_l]
        out = work / f"train-{model_id}"
        run(cfg + solver + overrides
            + ["--out", str(out), "train", "--corpus", train_c,
               "--model-id", model_id] + labels)
        name = f"{model_id}.state.json"
        shutil.copyfile(out / name, states / name)
    run(cfg + solver + ["--out", str(work / "eval"), "evaluate",
                        "--train-corpus", train_c, "--train-labels", train_l,
                        "--test-corpus", str(prep / "corpus_test.json"),
                        "--test-labels", str(prep / "labels_test.json"),
                        "--state-dir", str(states)])
    run(cfg + ["--out", str(work / "summary"), "summarize", "--state",
               str(states / f"{MODEL_ID}.state.json"), "--corpus", train_c,
               "--labels", train_l])


def array_digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def state_arrays(state):
    return [state.theta, *state.phi, *(z.flat for z in state.z), state.A,
            state.B, np.float64(state.Bstar)]


def library_lines(bench):
    """`sha256  library/...` lines for generate(), train(), lr_train() and
    nb_predict() results; bench is the checkout's perfbench/run.py."""
    import ss3m
    from ss3m import evaluation, gibbs, model

    for name, (P, P_lab, vocab, (mode, length), D) in GENERATE_SHAPES.items():
        hyper = model.Hyperparameters(
            num_phenotypes=P, num_labeled=P_lab, num_sources=len(vocab),
            gamma=(bench.PAPER_GAMMA,) * len(vocab), **bench.PAPER_PRIORS)
        law = getattr(model.DocLengthSpec, mode)(length, len(vocab))
        for seed in LIBRARY_SEEDS:
            corpus, state = model.generate(hyper, vocab, law, D, seed)
            tokens = [a for w in corpus.tokens for a in (w.flat, w.offsets)]
            yield (f"{array_digest(*tokens, *state_arrays(state))}  "
                   f"library/generate-{name}-{seed}")
    for seed in LIBRARY_SEEDS:
        paper = bench.TrainPaper(ss3m, seed)
        paper.build()
        hyper = dataclasses.replace(paper.hyper, iterations=LIBRARY_SWEEPS)
        for missing in (gibbs.MISSING_FIX_ZERO, gibbs.MISSING_ESTIMATE):
            for b_mode in (gibbs.B_FIXED, gibbs.B_SAMPLED):
                options = gibbs.TrainOptions(missing_label_mode=missing,
                                             b_mode=b_mode, seed=SOLVER_SEED)
                trace = gibbs.train(paper.corpus, paper.labels, hyper,
                                    options)
                digest = array_digest(
                    *state_arrays(trace.best_state),
                    np.int64(trace.best_iteration),
                    np.array(trace.log_likelihoods))
                yield f"{digest}  library/train-{seed}-{missing}-{b_mode}"
    for seed in LR_OPTIMUM_SEEDS:
        # the problem of test_fits_run_to_the_float_optimum_match_the_loop
        rng = np.random.default_rng(seed)
        n, d = rng.integers(5, 60), rng.integers(1, 20)
        X = rng.poisson(rng.gamma(0.5, 2.0, size=d), size=(n, d))
        Y = (rng.random((n, 2)) < 0.4).astype(int)
        weights = evaluation.lr_train(X.astype(float), Y,
                                      lam=(0.0, 1e-3, 1.0)[seed % 3],
                                      epochs=LR_OPTIMUM_EPOCHS)["weights"]
        yield f"{array_digest(weights)}  library/lr-optimum-{seed}"
        # with a label every patient carries and one no patient carries
        Y = np.column_stack([Y, np.ones(n, int), np.zeros(n, int)])
        for mode in (evaluation.NB_MULTINOMIAL, evaluation.NB_GAUSSIAN):
            scores = evaluation.nb_predict(evaluation.nb_train(X, Y, mode), X)
            yield f"{array_digest(scores)}  library/nb-{mode}-{seed}"


def evaluation_lines(work: Path, config: Path, solver_seed: int):
    """`sha256  evaluation/...` lines for the evaluate run of the
    pipeline in work (run_pipeline's layout): what evaluate_suite
    computes before it ranks, from the same inputs and settings."""
    from ss3m import cli, data_io, evaluation
    from ss3m.config import RunConfig

    cfg = RunConfig.from_file(config)
    prep, states = work / "prep", work / "states"
    train_c, _, _ = data_io.load_corpus(prep / "corpus_train.json")
    test_c, _, _ = data_io.load_corpus(prep / "corpus_test.json")
    truth = evaluation.truth_matrix(
        data_io.load_labels(prep / "labels_train.json")[0])
    hyper = cli.hyper_from_config(cfg, train_c.num_sources)
    lr = dict(lam=cfg.get("eval.lr_lambda"), epochs=cfg.get("eval.lr_epochs"))
    for model_id in (MODEL_ID, "mc3m"):
        state, _ = data_io.load_state(states / f"{model_id}.state.json")
        res = evaluation.heldout_infer(
            test_c, state, hyper, burn_in=cfg.get("eval.burn_in"),
            samples=cfg.get("eval.samples"), seed=solver_seed)
        yield (f"{array_digest(res.scores, res.theta_mean)}  "
               f"evaluation/{work.name}/heldout-{model_id}")
        if model_id == "mc3m":
            yield from classify_lines(
                f"evaluation/{work.name}", model_id, state.theta,
                res.theta_mean, truth, evaluation.NB_GAUSSIAN, lr)
    yield from classify_lines(
        f"evaluation/{work.name}", "raw",
        evaluation.raw_token_features(train_c),
        evaluation.raw_token_features(test_c), truth,
        evaluation.NB_MULTINOMIAL, lr)


def classify_lines(prefix, name, feats_train, feats_test, truth, nb_mode,
                   lr):
    """The `prefix/lr-name` line, lr_train's weights, and the
    `prefix/nb-name` line, nb_predict's scores on feats_test."""
    from ss3m import evaluation

    weights = evaluation.lr_train(feats_train, truth, **lr)["weights"]
    yield f"{array_digest(weights)}  {prefix}/lr-{name}"
    scores = evaluation.nb_predict(
        evaluation.nb_train(feats_train, truth, nb_mode), feats_test)
    yield f"{array_digest(scores)}  {prefix}/nb-{name}"


def reload_digest(arrays, strings) -> str:
    """sha256 over array_digest(*arrays) and the JSON text of strings."""
    text = array_digest(*arrays) + json.dumps(strings, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def reload_lines(root: Path):
    """`sha256  reload/...` lines, one per container under root, sorted
    by path: what the container's reader returns for it."""
    from ss3m import data_io

    for path in sorted(root.rglob("*.json")):
        if path.name.endswith("state.json"):
            state, meta = data_io.load_state(path)
            digest = reload_digest(
                [*state_arrays(state), *(z.offsets for z in state.z)], meta)
        elif path.name.startswith("corpus_"):
            corpus, ids, names = data_io.load_corpus(path)
            digest = reload_digest(
                [a for w in corpus.tokens for a in (w.flat, w.offsets)],
                [corpus.vocab, ids, names])
        elif path.name.startswith("labels_"):
            labels, ids = data_io.load_labels(path)
            digest = reload_digest([labels.entries],
                                   [labels.label_names, ids])
        else:
            continue
        yield f"{digest}  reload/{path.relative_to(root).as_posix()}"


def digest_lines(root: Path):
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        yield (f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
               f"{path.relative_to(root).as_posix()}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    checkout = Path(argv[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from ss3m import cli

    bench = perfbench_module(checkout)
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        tmp = Path(tmp)
        configs, outputs = tmp / "configs", tmp / "out"
        configs.mkdir()
        pipeline_cfg = configs / "pipeline.cfg"
        pipeline_cfg.write_text(bench.PIPELINE_CONFIG, encoding="utf-8")
        paper_cfg = configs / "paper.cfg"
        paper_cfg.write_text(
            (checkout / "configs" / "paper_default.cfg").read_text(
                encoding="utf-8") + PAPER_OVERRIDES, encoding="utf-8")
        run_pipeline(cli, checkout / "configs" / "toy.cfg", outputs / "toy",
                     TOY_SEED, TOY_SEED, [SAMPLED_MODEL])
        run_pipeline(cli, paper_cfg, outputs / "paper", PAPER_SEED,
                     PAPER_SEED, [SAMPLED_MODEL])
        for seed in PIPELINE_SEEDS:
            run_pipeline(cli, pipeline_cfg, outputs / f"pipeline-{seed}",
                         seed, SOLVER_SEED)
        for line in digest_lines(outputs):
            print(line)
        for line in reload_lines(outputs):
            print(line)
        for seed in PIPELINE_SEEDS:
            for line in evaluation_lines(outputs / f"pipeline-{seed}",
                                         pipeline_cfg, SOLVER_SEED):
                print(line)
    for line in library_lines(bench):
        print(line)


if __name__ == "__main__":
    main()
