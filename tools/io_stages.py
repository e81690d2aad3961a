"""Time each reader and writer on one pipeline-tokens corpus, for one
checkout.

    python3 tools/io_stages.py CHECKOUT --seed 501 [--repeats 10]

CHECKOUT is a repository root; its `src/` is imported. In a temporary
directory the script runs the pipeline of its perfbench/run.py
pipeline-tokens workload on that workload's first corpus for benchmark
seed S (generate and preprocess seed 6 S, sampler seed 0, training
ss3m_fixA0_fixB and mc3m), as tools/eval_stages.py does. It then calls
each stage of the I/O path on those files, printing the best and the
median of --repeats calls in milliseconds and the size of the file the
stage reads or writes:

  * `save_corpus_jsonl` of the generated corpus and labels, which must
    write the bytes of generate's corpus.jsonl;
  * `load_raw` of that file, and `preprocess` with the workload's
    filters of records fresh from `load_raw` (untimed), as the command
    line reads them;
  * for each container the pipeline wrote (the two preprocessed corpora,
    the two label matrices, the two trained states and generate's
    truth_state.json), its load and the save of what was loaded.

Compare two checkouts on one host in one session, one after the other:

    python3 tools/io_stages.py ../ss3m-parent --seed 501
    python3 tools/io_stages.py . --seed 501
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


def generated(ss3m, config: Path, seed: int):
    """The corpus and labels `generate --seed seed` draws from config."""
    cfg = ss3m.config.RunConfig.from_file(config)
    model = ss3m.model
    S = cfg.get("generate.num_sources")
    hyper = ss3m.cli.hyper_from_config(cfg, S)
    law = getattr(model.DocLengthSpec, cfg.get("generate.doc_length_mode"))
    lengths = law(cfg.get("generate.doc_length"), S)
    corpus, truth = model.generate(
        hyper, cfg.per_source("generate.vocab_size", S), lengths,
        cfg.get("generate.num_patients"), seed)
    return corpus, model.labels_from_activations(truth, hyper.num_labeled)


def stages(ss3m, work: Path, config: Path, seed: int, out: Path):
    """(name, fn, prepare, path of the file fn reads or writes or None)
    for each timed stage, on run_pipeline's outputs in work, fn to be
    called as fn(*prepare()); saves write into out."""
    data_io = ss3m.data_io
    cfg = ss3m.config.RunConfig.from_file(config)
    corpus, labels = generated(ss3m, config, seed)
    jsonl = work / "gen" / "corpus.jsonl"
    data_io.save_corpus_jsonl(corpus, labels, out / "corpus.jsonl")
    if (out / "corpus.jsonl").read_bytes() != jsonl.read_bytes():
        raise SystemExit("save_corpus_jsonl does not write generate's file")
    filters = ss3m.cli.preprocess_config_from(cfg)
    todo = [
        ("save_corpus_jsonl",
         lambda: data_io.save_corpus_jsonl(corpus, labels,
                                           out / "corpus.jsonl"),
         tuple, out / "corpus.jsonl"),
        ("load_raw", lambda: data_io.load_raw(jsonl), tuple, jsonl),
        ("preprocess", lambda records: data_io.preprocess(records, filters),
         lambda: (data_io.load_raw(jsonl),), None),
    ]
    prep, states = work / "prep", work / "states"
    containers = [(prep / f"corpus_{split}.json", data_io.load_corpus,
                   lambda c, p: data_io.save_corpus(c[0], c[1], p, c[2]))
                  for split in ("train", "test")]
    containers += [(prep / f"labels_{split}.json", data_io.load_labels,
                    lambda lab, p: data_io.save_labels(lab[0], lab[1], p))
                   for split in ("train", "test")]
    containers += [(path, data_io.load_state,
                    lambda st, p: data_io.save_state(st[0], p, st[1]))
                   for path in (states / f"{MODEL_ID}.state.json",
                                states / "mc3m.state.json",
                                work / "gen" / "truth_state.json")]
    for path, load, save in containers:
        name = path.name.removesuffix(".json")
        loaded = load(path)
        todo += [(f"load {name}", lambda p=path, f=load: f(p), tuple, path),
                 (f"save {name}",
                  lambda obj=loaded, p=out / path.name, f=save: f(obj, p),
                  tuple, out / path.name)]
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
    import ss3m.model

    bench = perfbench_module(checkout)
    data_seed = bench.PipelineTokens.corpora * args.seed
    with tempfile.TemporaryDirectory(prefix="io-stages-") as tmp:
        work, out = Path(tmp) / "work", Path(tmp) / "out"
        config = Path(tmp) / "pipeline.cfg"
        config.write_text(bench.PIPELINE_CONFIG, encoding="utf-8")
        work.mkdir()
        out.mkdir()
        logging.getLogger("ss3m").setLevel(logging.ERROR)
        run_pipeline(ss3m.cli, config, work, data_seed, bench.SOLVER_SEED)
        todo = stages(ss3m, work, config, data_seed, out)
        print(f"# {checkout}  seed {args.seed} (corpus seed {data_seed}), "
              f"best and median of {args.repeats} (ms), file size (MB)")
        for name, fn, prepare, path in todo:
            best, median = best_and_median(fn, prepare, args.repeats)
            size = f"{path.stat().st_size / 1e6:9.3f}" if path else ""
            print(f"{name:<28} {best:9.3f} {median:9.3f} {size}")


if __name__ == "__main__":
    main()
