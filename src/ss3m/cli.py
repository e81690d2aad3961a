"""Command-line entry point.

Commands: generate | preprocess | train | evaluate | summarize.
Global flags: --config PATH, --seed INT, --force, --out DIR,
plus one override flag per dotted config key (e.g. --model.alpha 0.2).
Exit codes: 0 success, 1 usage/config, 2 data error, 3 numerical error.
"""

import argparse
import json
import logging
import os
import sys

from . import data_io, evaluation, gibbs, model
from .config import SCHEMA, RunConfig
from .errors import ConfigError, DataError, NumericalError, SS3MError
from .util import substream

logger = logging.getLogger(__name__)

# (error class, message prefix, exit code), the first class that matches
EXITS = ((ConfigError, "config error", 1), (DataError, "data error", 2),
         (NumericalError, "numerical error", 3), (SS3MError, "error", 1),
         (OSError, "data error", 2))


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors, exit code 1, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def non_negative_int(text) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser():
    parser = _Parser(
        prog="ss3m",
        description="Semi-supervised mixed membership modeling of "
                    "multi-source count data")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=non_negative_int, default=0)
    parser.add_argument("--force", action="store_true",
                        help="overwrite a non-empty output directory")
    parser.add_argument("--out", default="out", help="output directory")
    for key in sorted(SCHEMA):
        parser.add_argument(f"--{key}", dest=f"cfg:{key}", metavar="VALUE")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write a synthetic corpus with ground truth")

    p = sub.add_parser("preprocess", help="filter a raw JSONL corpus and split")
    p.add_argument("--corpus", required=True, help="raw JSON-lines corpus")

    p = sub.add_parser("train", help="run the Gibbs trainer")
    p.add_argument("--corpus", required=True,
                   help="preprocessed corpus container (or raw .jsonl)")
    p.add_argument("--labels", help="labels container (required unless "
                                    "training without labels)")
    p.add_argument("--model-id", default="ss3m",
                   help="artifact name; 'mc3m' selects the unstructured "
                        "Dirichlet baseline")

    p = sub.add_parser("evaluate", help="metric suite over trained artifacts")
    for name in ("--train-corpus", "--train-labels", "--test-corpus",
                 "--test-labels"):
        p.add_argument(name, required=True)
    p.add_argument("--state-dir", required=True,
                   help="directory holding <model_id>.state.json artifacts")

    p = sub.add_parser("summarize", help="top-k tokens per phenotype")
    p.add_argument("--state", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--labels", help="labels container for phenotype names")
    return parser


def load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    for key in SCHEMA:
        raw = getattr(args, f"cfg:{key}", None)
        if raw is not None:
            cfg.override(key, raw)
    return cfg


def check_out_dir(out_dir, force):
    """ConfigError if out_dir holds files and force is off. A command
    checks this first and makes the directory only at its first write
    (out_path), so a command that fails before it writes leaves no
    directory behind."""
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise ConfigError(
            f"output directory {out_dir!r} is not empty (use --force)")


def out_path(out_dir, name):
    """The path of output file name, making out_dir first: every writer
    of a command's output takes its path from here."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_text(out_dir, name, text):
    with open(out_path(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def echo_config(cfg, out_dir):
    write_text(out_dir, "resolved_config.cfg", cfg.resolved_text())


def hyper_from_config(cfg: RunConfig, num_sources: int) -> model.Hyperparameters:
    return model.Hyperparameters(
        num_phenotypes=cfg.get("model.num_phenotypes"),
        num_labeled=cfg.get("model.num_labeled"),
        num_sources=num_sources,
        alpha=cfg.get("model.alpha"),
        gamma=cfg.per_source("model.gamma", num_sources),
        b_shape=cfg.get("model.b_shape"),
        b_scale=cfg.get("model.b_scale"),
        bstar_shape=cfg.get("model.bstar_shape"),
        bstar_scale=cfg.get("model.bstar_scale"),
        hmc_path_length=cfg.get("hmc.path_length"),
        hmc_step_size=cfg.get("hmc.step_size"),
        iterations=cfg.get("train.iterations"),
    )


def preprocess_config_from(cfg: RunConfig) -> data_io.PreprocessConfig:
    path = cfg.get("preprocess.stopword_file")
    lines = data_io.text_lines(path) if path else ()
    return data_io.PreprocessConfig(
        stopwords=frozenset(line.strip() for line in lines if line.strip()),
        min_count=cfg.get("preprocess.min_count"),
        max_doc_fraction=cfg.get("preprocess.max_doc_fraction"),
    )


def write_manifest(out_dir, seed, cfg, files):
    manifest = {"seed": seed, "config_sha256": cfg.digest(),
                "files": sorted(files)}
    write_text(out_dir, "manifest.json",
               json.dumps(manifest, indent=2, sort_keys=True))


def cmd_generate(args, cfg: RunConfig):
    check_out_dir(args.out, args.force)
    S = cfg.get("generate.num_sources")
    hyper = hyper_from_config(cfg, S)
    vocab_sizes = cfg.per_source("generate.vocab_size", S)
    mode = cfg.get("generate.doc_length_mode")
    length = cfg.get("generate.doc_length")
    if mode == "poisson":
        lengths = model.DocLengthSpec.poisson(length, S)
    elif mode == "fixed":
        lengths = model.DocLengthSpec.fixed(length, S)
    else:
        raise ConfigError(f"unknown doc_length_mode {mode!r}")

    corpus, truth = model.generate(
        hyper, vocab_sizes, lengths, cfg.get("generate.num_patients"),
        args.seed)
    labels = model.labels_from_activations(truth, hyper.num_labeled)

    data_io.save_corpus_jsonl(corpus, labels,
                              out_path(args.out, "corpus.jsonl"))
    data_io.save_state(truth, out_path(args.out, "truth_state.json"),
                       extra={"seed": args.seed})
    echo_config(cfg, args.out)
    write_manifest(args.out, args.seed, cfg,
                   ["corpus.jsonl", "truth_state.json", "resolved_config.cfg"])
    print(f"wrote synthetic corpus ({corpus.num_patients} patients, "
          f"{corpus.num_tokens()} tokens) to {args.out}")
    return 0


def cmd_preprocess(args, cfg: RunConfig):
    check_out_dir(args.out, args.force)
    corpus, labels, patient_ids, sources = _load_raw_corpus(args.corpus, cfg)
    (train_c, train_l), (test_c, test_l), spl = data_io.split(
        corpus, labels, cfg.get("split.train_fraction"), args.seed)
    train_ids = [patient_ids[i] for i in spl.train_indices]
    test_ids = [patient_ids[i] for i in spl.test_indices]

    files = {
        "corpus_train.json": (data_io.save_corpus, train_c, train_ids,
                              sources),
        "corpus_test.json": (data_io.save_corpus, test_c, test_ids, sources),
        "labels_train.json": (data_io.save_labels, train_l, train_ids),
        "labels_test.json": (data_io.save_labels, test_l, test_ids),
    }
    for name, (saver, obj, ids, *names) in files.items():
        saver(obj, ids, out_path(args.out, name), *names)
    echo_config(cfg, args.out)
    write_manifest(args.out, args.seed, cfg,
                   list(files) + ["resolved_config.cfg"])
    print(f"preprocessed {corpus.num_patients} patients "
          f"({len(spl.train_indices)} train / {len(spl.test_indices)} test)")
    return 0


def _load_raw_corpus(path, cfg):
    """The raw JSON-lines corpus at path, preprocessed: (corpus, labels,
    patient_ids, source names in the order of the corpus's sources)."""
    records = data_io.load_raw(path)
    corpus, patient_ids = data_io.preprocess(records,
                                             preprocess_config_from(cfg))
    labels = data_io.build_labels(records, cfg.get("labels.top_k"),
                                  patient_ids=patient_ids)
    return corpus, labels, patient_ids, data_io.source_names(records)


def _load_labels_for(path, patient_ids):
    """The labels at path; DataError unless they cover patient_ids."""
    labels, label_pids = data_io.load_labels(path)
    if label_pids != patient_ids:
        raise DataError(f"{path}: corpus and labels cover different patients")
    return labels


def cmd_train(args, cfg: RunConfig):
    check_out_dir(args.out, args.force)
    labels = None
    if args.corpus.endswith(".jsonl"):
        corpus, labels, _, _ = _load_raw_corpus(args.corpus, cfg)
    else:
        corpus, patient_ids, _ = data_io.load_corpus(args.corpus)
        if args.labels:
            labels = _load_labels_for(args.labels, patient_ids)
    hyper = hyper_from_config(cfg, corpus.num_sources)

    if args.model_id == "mc3m":
        trace = gibbs.train_unstructured(
            corpus, hyper, cfg.get("train.mc3m_concentration"), args.seed)
    else:
        if labels is not None and labels.num_labels > hyper.num_labeled:
            raise ConfigError(
                "label matrix has more columns than model.num_labeled")
        options = gibbs.TrainOptions(
            missing_label_mode=cfg.get("train.missing_label_mode"),
            b_mode=cfg.get("train.b_mode"),
            seed=args.seed)
        trace = gibbs.train(corpus, labels, hyper, options)

    state_path = out_path(args.out, f"{args.model_id}.state.json")
    data_io.save_state(trace.best_state, state_path, extra={
        "max_log_likelihood": trace.best_log_likelihood,
        "best_iteration": trace.best_iteration,
        "seed": args.seed,
        "model_id": args.model_id,
    })
    rows = ["iteration,log_likelihood"]
    rows += [f"{it},{ll!r}" for it, ll in enumerate(trace.log_likelihoods)]
    write_text(args.out, "trace.csv", "\n".join(rows) + "\n")
    echo_config(cfg, args.out)
    write_manifest(args.out, args.seed, cfg,
                   [f"{args.model_id}.state.json", "trace.csv",
                    "resolved_config.cfg"])
    print(f"best log-likelihood {trace.best_log_likelihood:.6g} at "
          f"iteration {trace.best_iteration}")
    return 0


def cmd_evaluate(args, cfg: RunConfig):
    check_out_dir(args.out, args.force)
    train_c, train_ids, _ = data_io.load_corpus(args.train_corpus)
    test_c, test_ids, _ = data_io.load_corpus(args.test_corpus)
    train_l = _load_labels_for(args.train_labels, train_ids)
    test_l = _load_labels_for(args.test_labels, test_ids)
    hyper = hyper_from_config(cfg, train_c.num_sources)

    if cfg.get("eval.shuffle_labels"):
        rng = substream(args.seed, "evaluation.shuffle_control")
        perm = rng.permutation(test_l.num_patients)
        test_l = model.LabelMatrix(entries=test_l.entries[perm],
                                   label_names=test_l.label_names)
        logger.warning("label-shuffle control enabled: test labels permuted")

    artifacts = {}
    for name in evaluation.STATE_ARTIFACTS:
        path = os.path.join(args.state_dir, f"{name}.state.json")
        if os.path.exists(path):
            state, meta = data_io.load_state(path)
            artifacts[name] = (state, meta.get("max_log_likelihood"))
    reports = evaluation.evaluate_suite(
        artifacts, train_c, train_l, test_c, test_l, hyper,
        cfg.get("eval.burn_in"), cfg.get("eval.samples"), args.seed,
        cfg.get("eval.lr_lambda"), cfg.get("eval.lr_epochs"))

    write_text(args.out, "metrics.csv", evaluation.reports_to_csv(reports))
    table = evaluation.reports_to_table(reports)
    write_text(args.out, "metrics.txt", table)
    echo_config(cfg, args.out)
    print(table, end="")
    return 0


def cmd_summarize(args, cfg: RunConfig):
    check_out_dir(args.out, args.force)
    state, meta = data_io.load_state(args.state)
    corpus, _, source_names = data_io.load_corpus(args.corpus)
    label_names = []
    if args.labels:
        labels, _ = data_io.load_labels(args.labels)
        label_names = labels.label_names
    k = cfg.get("summarize.top_k")
    summary = model.phenotype_summary(state, corpus, k)

    P = state.theta.shape[1]
    payload = []
    text = []
    for p in range(P):
        name = label_names[p] if p < len(label_names) else None
        entry = {"phenotype": p, "label": name, "sources": []}
        title = f"phenotype {p}" + (f" [{name}]" if name else "")
        text.append(title)
        for s in range(corpus.num_sources):
            tokens = [{"token": t, "probability": pr}
                      for t, pr in summary[s][p]]
            entry["sources"].append({"source": source_names[s],
                                     "top_tokens": tokens})
            rendered = ", ".join(f"{t} ({pr:.4f})" for t, pr in summary[s][p])
            text.append(f"  {source_names[s]}: {rendered}")
        payload.append(entry)

    write_text(args.out, "summary.json",
               json.dumps({"top_k": k, "phenotypes": payload}, indent=2))
    rendered = "\n".join(text) + "\n"
    write_text(args.out, "summary.txt", rendered)
    print(rendered, end="")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "summarize": cmd_summarize,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        return COMMANDS[args.command](args, cfg)
    except (SS3MError, OSError) as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in EXITS
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
