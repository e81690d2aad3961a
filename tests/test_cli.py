import hashlib
import json
import os

import pytest

from conftest import corrupt_v2, fresh_stdout, random_tiny_state, v2_array
from ss3m import data_io, evaluation, model
from ss3m.cli import hyper_from_config, main
from ss3m.config import RunConfig
from ss3m.errors import VersionError
from ss3m.util import substream

REPO_TOY_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", "toy.cfg")


TOY_CONFIG = """\
# toy settings, small enough for a fast end-to-end run
model.num_phenotypes = 3
model.num_labeled = 2
model.alpha = 0.3
model.gamma = 0.1
train.iterations = 3
generate.num_sources = 1
generate.vocab_size = 20
generate.num_patients = 12
generate.doc_length_mode = poisson
generate.doc_length = 25
preprocess.min_count = 1
preprocess.max_doc_fraction = 1.0
labels.top_k = 2
split.train_fraction = 0.75
eval.burn_in = 2
eval.samples = 3
eval.lr_epochs = 25
summarize.top_k = 4
"""


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CONFIG)
    return str(path)


def run(*argv):
    return main(list(argv))


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestPipeline:
    def test_full_pipeline(self, tmp_path, toy_config, capsys):
        gen = str(tmp_path / "gen")
        assert run("--config", toy_config, "--seed", "7",
                   "--out", gen, "generate") == 0
        assert os.path.exists(os.path.join(gen, "corpus.jsonl"))
        assert os.path.exists(os.path.join(gen, "truth_state.json"))
        assert os.path.exists(os.path.join(gen, "manifest.json"))

        prep = str(tmp_path / "prep")
        assert run("--config", toy_config, "--seed", "7", "--out", prep,
                   "preprocess",
                   "--corpus", os.path.join(gen, "corpus.jsonl")) == 0
        for name in ("corpus_train.json", "corpus_test.json",
                     "labels_train.json", "labels_test.json"):
            assert os.path.exists(os.path.join(prep, name))

        states = str(tmp_path / "states")
        assert run("--config", toy_config, "--seed", "7", "--out", states,
                   "train",
                   "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--labels", os.path.join(prep, "labels_train.json"),
                   "--model-id", "ss3m_fixA0_fixB") == 0
        state_path = os.path.join(states, "ss3m_fixA0_fixB.state.json")
        assert os.path.exists(state_path)
        trace = open(os.path.join(states, "trace.csv")).read().splitlines()
        assert trace[0] == "iteration,log_likelihood"
        assert len(trace) == 1 + 3 + 1  # initial state plus 3 sweeps

        with open(state_path) as fh:
            payload = json.load(fh)
        assert payload["format_version"] == "ss3m-state-v2"
        assert "max_log_likelihood" in payload["meta"]

        ev = str(tmp_path / "eval")
        assert run("--config", toy_config, "--seed", "7", "--out", ev,
                   "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 0
        csv_lines = open(os.path.join(ev, "metrics.csv")).read().splitlines()
        assert csv_lines[0] == "model_id,metric,averaging,value"
        assert any(line.startswith("ss3m_fixA0_fixB,auroc,micro,")
                   for line in csv_lines)
        assert os.path.exists(os.path.join(ev, "metrics.txt"))

        summ = str(tmp_path / "summ")
        assert run("--config", toy_config, "--out", summ, "summarize",
                   "--state", state_path,
                   "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--labels", os.path.join(prep, "labels_train.json")) == 0
        with open(os.path.join(summ, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["top_k"] == 4
        assert len(summary["phenotypes"]) == 3
        ph0 = summary["phenotypes"][0]
        assert ph0["label"] is not None  # named from the label container
        assert len(ph0["sources"][0]["top_tokens"]) == 4
        for tok in ph0["sources"][0]["top_tokens"]:
            assert set(tok) == {"token", "probability"}

    def test_mc3m_model_id_trains_baseline(self, tmp_path, toy_config):
        gen = str(tmp_path / "gen")
        run("--config", toy_config, "--seed", "1", "--out", gen, "generate")
        out = str(tmp_path / "mc3m")
        assert run("--config", toy_config, "--seed", "1", "--out", out,
                   "train", "--corpus", os.path.join(gen, "corpus.jsonl"),
                   "--model-id", "mc3m") == 0
        with open(os.path.join(out, "mc3m.state.json")) as fh:
            payload = json.load(fh)
        # unstructured baseline keeps every activation on
        A = v2_array(payload["A"])
        assert A.size and (A == 1).all()


class TestSourceNames:
    def _preprocess(self, tmp_path, toy_config, raw_path):
        """corpus_train.json's path, and the corpus and source names it
        holds, after preprocessing the raw corpus at raw_path."""
        path = os.path.join(str(tmp_path / "prep"), "corpus_train.json")
        assert run("--config", toy_config, "--out", str(tmp_path / "prep"),
                   "preprocess", "--corpus", raw_path) == 0
        corpus, _, names = data_io.load_corpus(path)
        return path, corpus, names

    def test_raw_source_names_reach_corpus_and_summary(self, tmp_path,
                                                       toy_config):
        records = []
        for d in range(8):
            records.append({"patient_id": f"p{d}", "source": "notes",
                            "tokens": ["cough", "fever", f"n{d % 3}"],
                            "labels": ["flu", "cold"][d % 2:]})
            records.append({"patient_id": f"p{d}", "source": "meds",
                            "tokens": ["aspirin", f"m{d % 2}"],
                            "labels": []})
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in records))
        path, corpus, names = self._preprocess(tmp_path, toy_config, str(raw))
        # the columns follow the sorted names
        assert names == ["meds", "notes"]
        assert "aspirin" in corpus.vocab[0] and "cough" in corpus.vocab[1]

        states, summ = str(tmp_path / "states"), str(tmp_path / "summ")
        assert run("--config", toy_config, "--out", states, "train",
                   "--corpus", path, "--model-id", "ss3m_fixA0_fixB") == 0
        assert run("--config", toy_config, "--out", summ, "summarize",
                   "--state",
                   os.path.join(states, "ss3m_fixA0_fixB.state.json"),
                   "--corpus", path) == 0
        with open(os.path.join(summ, "summary.txt")) as fh:
            text = fh.read()
        # one line per phenotype and source, naming the source whose words
        # it lists
        assert text.count("  meds: ") == text.count("  notes: ") == 3
        for line in text.splitlines():
            if line.startswith("  "):
                name, rendered = line.strip().split(": ", 1)
                vocab = corpus.vocab[names.index(name)]
                assert all(item.split(" (")[0] in vocab
                           for item in rendered.split(", "))

    def test_many_generated_sources_keep_names_on_columns(self, tmp_path,
                                                          toy_config):
        # with 11 sources the names are zero-padded, so preprocess's sort
        # keeps generation order; generate writes source s's words as
        # s{s}_w..., so column s must hold them
        gen = str(tmp_path / "gen")
        assert run("--config", toy_config, "--seed", "3", "--out", gen,
                   "--generate.num_sources", "11", "generate") == 0
        _, corpus, names = self._preprocess(
            tmp_path, toy_config, os.path.join(gen, "corpus.jsonl"))
        assert names == [f"source{s:02d}" for s in range(11)]
        for s, voc in enumerate(corpus.vocab):
            assert voc and all(word.startswith(f"s{s}_") for word in voc)


class TestDeterminism:
    def test_same_seed_identical_outputs(self, tmp_path, toy_config):
        hashes = []
        for run_dir in ("a", "b"):
            gen = str(tmp_path / run_dir / "gen")
            run("--config", toy_config, "--seed", "3", "--out", gen,
                "generate")
            out = str(tmp_path / run_dir / "train")
            run("--config", toy_config, "--seed", "3", "--out", out,
                "--train.b_mode", "sampled",
                "--train.missing_label_mode", "estimate", "train",
                "--corpus", os.path.join(gen, "corpus.jsonl"),
                "--model-id", "ss3m_smplA0_smplB")
            hashes.append((
                file_hash(os.path.join(gen, "corpus.jsonl")),
                file_hash(os.path.join(out, "trace.csv")),
                file_hash(os.path.join(out, "ss3m_smplA0_smplB.state.json")),
                file_hash(os.path.join(out, "manifest.json")),
            ))
        assert hashes[0] == hashes[1]

    def test_shuffle_labels_control(self, tmp_path):
        # configs/toy.cfg: evaluate with eval.shuffle_labels scores the test
        # patients against their labels permuted by the shuffle substream,
        # and does so identically on every same-seed run
        cfg_args = ["--config", REPO_TOY_CONFIG, "--seed", "1"]
        gen, prep = str(tmp_path / "gen"), str(tmp_path / "prep")
        states = str(tmp_path / "states")
        run(*cfg_args, "--out", gen, "generate")
        run(*cfg_args, "--out", prep, "preprocess",
            "--corpus", os.path.join(gen, "corpus.jsonl"))
        paths = {name: os.path.join(prep, f"{name}.json")
                 for name in ("corpus_train", "labels_train", "corpus_test",
                              "labels_test")}
        assert run(*cfg_args, "--out", states, "train",
                   "--corpus", paths["corpus_train"],
                   "--labels", paths["labels_train"],
                   "--model-id", "ss3m_fixA0_fixB") == 0
        outputs = []
        for run_dir in ("a", "b"):
            out = str(tmp_path / run_dir)
            assert run(*cfg_args, "--out", out, "--eval.shuffle_labels",
                       "true", "evaluate",
                       "--train-corpus", paths["corpus_train"],
                       "--train-labels", paths["labels_train"],
                       "--test-corpus", paths["corpus_test"],
                       "--test-labels", paths["labels_test"],
                       "--state-dir", states) == 0
            with open(os.path.join(out, "metrics.csv"), "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]

        cfg = RunConfig.from_file(REPO_TOY_CONFIG)
        train_c, _, _ = data_io.load_corpus(paths["corpus_train"])
        test_c, _, _ = data_io.load_corpus(paths["corpus_test"])
        train_l, _ = data_io.load_labels(paths["labels_train"])
        test_l, _ = data_io.load_labels(paths["labels_test"])
        perm = substream(1, "evaluation.shuffle_control").permutation(
            test_l.num_patients)
        assert not (perm == range(len(perm))).all()
        shuffled = model.LabelMatrix(entries=test_l.entries[perm],
                                     label_names=test_l.label_names)
        state, meta = data_io.load_state(
            os.path.join(states, "ss3m_fixA0_fixB.state.json"))
        reports = evaluation.evaluate_suite(
            {"ss3m_fixA0_fixB": (state, meta["max_log_likelihood"])},
            train_c, train_l, test_c, shuffled,
            hyper_from_config(cfg, train_c.num_sources),
            burn_in=cfg.get("eval.burn_in"), samples=cfg.get("eval.samples"),
            seed=1, lr_lam=cfg.get("eval.lr_lambda"),
            lr_epochs=cfg.get("eval.lr_epochs"))
        assert outputs[0] == evaluation.reports_to_csv(reports).encode()

    def test_different_seed_changes_corpus(self, tmp_path, toy_config):
        gen1 = str(tmp_path / "g1")
        gen2 = str(tmp_path / "g2")
        run("--config", toy_config, "--seed", "1", "--out", gen1, "generate")
        run("--config", toy_config, "--seed", "2", "--out", gen2, "generate")
        assert (file_hash(os.path.join(gen1, "corpus.jsonl"))
                != file_hash(os.path.join(gen2, "corpus.jsonl")))


class TestErrorPaths:
    def test_refuses_nonempty_out_dir(self, tmp_path, toy_config):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("old run")
        assert run("--config", toy_config, "--out", str(out),
                   "generate") == 1
        assert (out / "stale.txt").read_text() == "old run"
        # and --force proceeds
        assert run("--config", toy_config, "--out", str(out), "--force",
                   "generate") == 0

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.num_phenotypes = 3\nmodel.typo_key = 1\n")
        assert run("--config", cfg.as_posix(),
                   "--out", str(tmp_path / "o"), "generate") == 1

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.alpha 0.2\n")
        assert run("--config", cfg.as_posix(),
                   "--out", str(tmp_path / "o"), "generate") == 1

    def test_missing_corpus_file_is_data_error(self, tmp_path, toy_config):
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "preprocess", "--corpus",
                   str(tmp_path / "nope.jsonl")) == 2

    def test_corrupt_state_is_data_error(self, tmp_path, toy_config):
        state = tmp_path / "broken.state.json"
        state.write_text("{not json")
        gen = str(tmp_path / "gen")
        run("--config", toy_config, "--seed", "1", "--out", gen, "generate")
        prep = str(tmp_path / "prep")
        run("--config", toy_config, "--seed", "1", "--out", prep,
            "preprocess", "--corpus", os.path.join(gen, "corpus.jsonl"))
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state", str(state),
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2

    def _trained(self, tmp_path, toy_config, *overrides):
        """(prep dir, states dir) after generate, preprocess and a train
        of ss3m_fixA0_fixB on the toy config with the given overrides."""
        gen, prep = str(tmp_path / "gen"), str(tmp_path / "prep")
        states = str(tmp_path / "states")
        cfg = ["--config", toy_config, "--seed", "1", *overrides]
        run(*cfg, "--out", gen, "generate")
        run(*cfg, "--out", prep, "preprocess",
            "--corpus", os.path.join(gen, "corpus.jsonl"))
        assert run(*cfg, "--out", states, "train",
                   "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--labels", os.path.join(prep, "labels_train.json"),
                   "--model-id", "ss3m_fixA0_fixB") == 0
        return prep, states

    def test_state_missing_a_phi_row_is_data_error(self, tmp_path,
                                                   toy_config):
        prep, states = self._trained(tmp_path, toy_config)
        path = os.path.join(states, "ss3m_fixA0_fixB.state.json")
        with open(path) as fh:
            payload = json.load(fh)
        corrupt_v2(payload, lambda pl: pl["phi"][0].pop())
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state", path,
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2

    def test_non_finite_state_is_data_error(self, tmp_path, toy_config,
                                            capsys):
        prep, states = self._trained(tmp_path, toy_config)
        path = os.path.join(states, "ss3m_fixA0_fixB.state.json")
        with open(path) as fh:
            payload = json.load(fh)
        corrupt_v2(payload, lambda pl: pl["B"].__setitem__(0, float("nan")))
        with open(path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 2
        assert "malformed state" in capsys.readouterr().err
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state", path,
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2
        assert "malformed state" in capsys.readouterr().err

    def test_out_of_range_activation_is_data_error(self, tmp_path,
                                                   toy_config, capsys):
        prep, states = self._trained(tmp_path, toy_config)
        path = os.path.join(states, "ss3m_fixA0_fixB.state.json")
        with open(path) as fh:
            payload = json.load(fh)
        corrupt_v2(payload, lambda pl: pl["A"][0].__setitem__(0, 300))
        with open(path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state", path,
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2
        assert "malformed state" in capsys.readouterr().err

    def test_out_of_range_assignment_is_data_error(self, tmp_path,
                                                   toy_config, capsys):
        prep, states = self._trained(tmp_path, toy_config)
        path = os.path.join(states, "ss3m_fixA0_fixB.state.json")
        with open(path) as fh:
            payload = json.load(fh)
        corrupt_v2(payload, lambda pl: next(
            z for z in pl["z"][0] if z).__setitem__(0, 99))
        with open(path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 2
        assert "z of source 0 outside" in capsys.readouterr().err
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state", path,
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2
        assert "malformed state" in capsys.readouterr().err

    def test_v1_containers_are_version_errors(self, tmp_path, toy_config,
                                              rng, capsys):
        # genuine v1 files: every array as nested JSON lists
        v1_state = tmp_path / "v1.state.json"
        v1_state.write_text(json.dumps({
            "format_version": "ss3m-state-v1", "theta": [[1.0]],
            "phi": [[[1.0]]], "z": [[[0]]], "A": [[1]], "B": [1.0],
            "Bstar": 1.0}))
        v1_corpus = tmp_path / "v1.corpus.json"
        v1_corpus.write_text(json.dumps({
            "format_version": "ss3m-corpus-v1", "patient_ids": ["p0"],
            "sources": ["s0"], "vocab": [["a"]], "tokens": [[[0]]]}))
        v2_state = tmp_path / "v2.state.json"
        data_io.save_state(random_tiny_state(rng, D=1, P=1, V=1)[0],
                           v2_state)
        for load, path, accepted in [
                (data_io.load_state, v1_state, "'ss3m-state-v2'"),
                (data_io.load_corpus, v1_corpus, "'ss3m-corpus-v2'")]:
            with pytest.raises(VersionError) as exc:
                load(path)
            assert str(exc.value).endswith(f"(accepted: {accepted})")
        for state, corpus, accepted in [
                (v1_state, v1_corpus, "'ss3m-state-v2'"),
                (v2_state, v1_corpus, "'ss3m-corpus-v2'")]:
            capsys.readouterr()
            assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                       "--force", "summarize", "--state", str(state),
                       "--corpus", str(corpus)) == 2
            assert f"(accepted: {accepted})" in capsys.readouterr().err

    def test_undecodable_v2_corpus_is_data_error(self, tmp_path, toy_config,
                                                 capsys):
        gen, prep = str(tmp_path / "gen"), str(tmp_path / "prep")
        run("--config", toy_config, "--seed", "1", "--out", gen, "generate")
        run("--config", toy_config, "--seed", "1", "--out", prep,
            "preprocess", "--corpus", os.path.join(gen, "corpus.jsonl"))
        path = os.path.join(prep, "corpus_train.json")
        with open(path) as fh:
            payload = json.load(fh)
        payload["tokens"][0]["flat"]["data"] = "%%%%"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "train", "--corpus", path) == 2
        assert "malformed corpus" in capsys.readouterr().err

    def _evaluate(self, tmp_path, toy_config, prep, states, *overrides):
        return run("--config", toy_config, "--seed", "1", *overrides,
                   "--out", str(tmp_path / "eval"), "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states)

    def test_evaluate_scores_fewer_labels_than_labeled_phenotypes(
            self, tmp_path, toy_config):
        # one label column for the two labeled phenotypes: train accepts
        # it, and evaluate scores phenotype 0 against it
        prep, states = self._trained(tmp_path, toy_config,
                                     "--labels.top_k", "1")
        assert self._evaluate(tmp_path, toy_config, prep, states,
                              "--labels.top_k", "1") == 0
        with open(tmp_path / "eval" / "metrics.csv") as fh:
            rows = fh.read().splitlines()
        assert any(row.startswith("ss3m_fixA0_fixB,auroc,micro,")
                   and not row.endswith(",") for row in rows)

    def test_evaluate_labels_without_columns_is_data_error(
            self, tmp_path, toy_config, capsys):
        # no labeled phenotype, so the corpus carries no label: the labels
        # containers have no column to score
        prep, states = self._trained(tmp_path, toy_config,
                                     "--model.num_labeled", "0")
        capsys.readouterr()
        assert self._evaluate(tmp_path, toy_config, prep, states,
                              "--model.num_labeled", "0") == 2
        assert "no column to score" in capsys.readouterr().err

    def test_evaluate_more_labels_than_labeled_phenotypes_is_config_error(
            self, tmp_path, capsys):
        # configs/toy.cfg: three label columns, a model trained with two
        # labeled phenotypes; the message gives both counts
        cfg = ["--config", REPO_TOY_CONFIG, "--seed", "1"]
        gen, prep = str(tmp_path / "gen"), str(tmp_path / "prep")
        states = str(tmp_path / "states")
        run(*cfg, "--out", gen, "generate")
        run(*cfg, "--out", prep, "--labels.top_k", "3", "preprocess",
            "--corpus", os.path.join(gen, "corpus.jsonl"))
        assert run(*cfg, "--out", states, "--model.num_labeled", "2",
                   "train", "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--model-id", "ss3m_fixA0_fixB") == 0
        capsys.readouterr()
        assert self._evaluate(tmp_path, REPO_TOY_CONFIG, prep, states,
                              "--model.num_labeled", "2") == 1
        assert ("label matrix has more columns (3) than model.num_labeled "
                "(2)") in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        ["--eval.burn_in", "-2"],
    ])
    def test_bad_heldout_settings_are_config_errors(self, tmp_path,
                                                    toy_config, capsys,
                                                    override):
        prep, states = self._trained(tmp_path, toy_config)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   *override, "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, code, message", [
        (["--model.num_labeled", "1"], 1, "config error: label matrix has "
                                          "more columns (2) than "
                                          "model.num_labeled (1)"),
        (["--eval.lr_epochs", "-1"], 1, "config error: logistic regression "
                                        "needs epochs >= 0 and 0 <= lambda < "
                                        "inf, got epochs -1, lambda 1.0"),
        (["--eval.samples", "0"], 1, "config error: samples must be >= 1"),
        (["--model.num_phenotypes", "5"], 2,
         "data error: ss3m_fixA0_fixB: trained state (theta (9, 3), B (3,)) "
         "does not have the configured 5 phenotypes"),
    ], ids=["num_labeled", "lr_epochs", "samples", "num_phenotypes"])
    def test_evaluate_checks_everything_before_out_and_any_job(
            self, tmp_path, toy_config, capsys, monkeypatch, override, code,
            message):
        prep, states = self._trained(tmp_path, toy_config)
        mc3m = str(tmp_path / "mc3m")
        assert run("--config", toy_config, "--seed", "1", "--out", mc3m,
                   "train", "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--model-id", "mc3m") == 0
        os.replace(os.path.join(mc3m, "mc3m.state.json"),
                   os.path.join(states, "mc3m.state.json"))

        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")

        for job in ("heldout_infer", "lr_train", "raw_token_features"):
            monkeypatch.setattr(evaluation, job, no_job)
        capsys.readouterr()
        assert self._evaluate(tmp_path, toy_config, prep, states,
                              *override) == code
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("override, command, message", [
        (["--generate.num_patients", "0"], ["generate"],
         "D must be positive"),
        (["--split.train_fraction", "1.5"],
         ["preprocess", "--corpus", "{gen}/corpus.jsonl"],
         "train_fraction must lie strictly in (0, 1)"),
        (["--model.alpha", "2"],
         ["train", "--corpus", "{prep}/corpus_train.json",
          "--labels", "{prep}/labels_train.json"],
         "alpha must lie strictly in (0, 1)"),
        (["--train.b_mode", "bogus"],
         ["train", "--corpus", "{prep}/corpus_train.json",
          "--labels", "{prep}/labels_train.json"],
         "unknown b_mode 'bogus'"),
        (["--summarize.top_k", "0"],
         ["summarize", "--state", "{states}/ss3m_fixA0_fixB.state.json",
          "--corpus", "{prep}/corpus_train.json"],
         "k must be positive"),
    ], ids=["generate", "preprocess", "train alpha", "train b_mode",
            "summarize"])
    def test_command_failing_after_its_inputs_load_leaves_no_out(
            self, tmp_path, toy_config, capsys, override, command, message):
        prep, states = self._trained(tmp_path, toy_config)
        paths = {"gen": str(tmp_path / "gen"), "prep": prep,
                 "states": states}
        out = tmp_path / "o"
        capsys.readouterr()
        assert run("--config", toy_config, *override, "--out", str(out),
                   *(arg.format(**paths) for arg in command)) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        ["--eval.lr_epochs", "-3"],
        ["--eval.lr_lambda", "-1"],
        ["--eval.lr_lambda", "nan"],
    ])
    def test_bad_lr_settings_are_config_errors(self, tmp_path, toy_config,
                                               capsys, override):
        prep, states = self._trained(tmp_path, toy_config)
        capsys.readouterr()
        assert self._evaluate(tmp_path, toy_config, prep, states,
                              *override) == 1
        assert ("config error: logistic regression needs epochs >= 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_mc3m_concentration_is_config_error(self, tmp_path,
                                                    toy_config, capsys,
                                                    value):
        gen = str(tmp_path / "gen")
        run("--config", toy_config, "--seed", "1", "--out", gen, "generate")
        capsys.readouterr()
        assert run("--config", toy_config, "--seed", "1",
                   "--out", str(tmp_path / "mc3m"),
                   "--train.mc3m_concentration", value, "train",
                   "--corpus", os.path.join(gen, "corpus.jsonl"),
                   "--model-id", "mc3m") == 1
        assert ("config error: concentration must be positive and finite"
                in capsys.readouterr().err)

    def test_evaluate_rejects_old_mc3m_concentration_key(
            self, tmp_path, toy_config, capsys):
        # only train --model-id mc3m reads the concentration, under train.
        prep, states = self._trained(tmp_path, toy_config)
        capsys.readouterr()
        assert run("--config", toy_config, "--seed", "1",
                   "--out", str(tmp_path / "eval"), "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states,
                   "--eval.mc3m_concentration", "1") == 1
        assert ("config error: unrecognized arguments: "
                "--eval.mc3m_concentration 1" in capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    def test_summarize_vocabulary_mismatch_is_data_error(self, tmp_path,
                                                         toy_config, capsys):
        # phi trained over the toy vocabulary is wider than this corpus's
        _, states = self._trained(tmp_path, toy_config)
        gen, prep = str(tmp_path / "gen7"), str(tmp_path / "prep7")
        run("--config", toy_config, "--seed", "1", "--out", gen,
            "--generate.vocab_size", "7", "generate")
        run("--config", toy_config, "--seed", "1", "--out", prep,
            "preprocess", "--corpus", os.path.join(gen, "corpus.jsonl"))
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "summarize", "--state",
                   os.path.join(states, "ss3m_fixA0_fixB.state.json"),
                   "--corpus", os.path.join(prep, "corpus_train.json")) == 2
        assert "source 0" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_evaluate_labels_of_other_patients_is_data_error(
            self, tmp_path, toy_config, capsys, which):
        # the same number of rows, other patients: without the patient_ids
        # check the metrics would silently score the wrong rows
        prep, states = self._trained(tmp_path, toy_config)
        corpora = {name: os.path.join(prep, f"corpus_{name}.json")
                   for name in ("train", "test")}
        labels = {name: os.path.join(prep, f"labels_{name}.json")
                  for name in ("train", "test")}
        with open(labels[which]) as fh:
            payload = json.load(fh)
        payload["patient_ids"] = payload["patient_ids"][::-1]
        labels[which] = str(tmp_path / "other_labels.json")
        with open(labels[which], "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   "evaluate",
                   "--train-corpus", corpora["train"],
                   "--train-labels", labels["train"],
                   "--test-corpus", corpora["test"],
                   "--test-labels", labels["test"],
                   "--state-dir", states) == 2
        assert "cover different patients" in capsys.readouterr().err

    def test_corpus_missing_tokens_is_data_error(self, tmp_path, toy_config,
                                                 capsys):
        prep, _ = self._trained(tmp_path, toy_config)
        path = os.path.join(prep, "corpus_train.json")
        with open(path) as fh:
            payload = json.load(fh)
        del payload["tokens"]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "o"),
                   "train", "--corpus", path) == 2
        assert "malformed corpus" in capsys.readouterr().err

    def test_phenotype_count_mismatch_is_data_error(self, tmp_path,
                                                    toy_config):
        prep, states = self._trained(tmp_path, toy_config)
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   "--model.num_phenotypes", "4", "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_train.json"),
                   "--train-labels", os.path.join(prep, "labels_train.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 2

    def test_base_model_of_other_patients_is_data_error(self, tmp_path,
                                                        toy_config, capsys):
        # mc3m trained on the training split, evaluated against the test
        # split given as the training corpus: its theta rows are other
        # patients
        prep, _ = self._trained(tmp_path, toy_config)
        states = str(tmp_path / "mc3m")
        assert run("--config", toy_config, "--seed", "1", "--out", states,
                   "train",
                   "--corpus", os.path.join(prep, "corpus_train.json"),
                   "--model-id", "mc3m") == 0
        capsys.readouterr()
        assert run("--config", toy_config, "--out", str(tmp_path / "eval"),
                   "evaluate",
                   "--train-corpus", os.path.join(prep, "corpus_test.json"),
                   "--train-labels", os.path.join(prep, "labels_test.json"),
                   "--test-corpus", os.path.join(prep, "corpus_test.json"),
                   "--test-labels", os.path.join(prep, "labels_test.json"),
                   "--state-dir", states) == 2
        assert "mc3m: theta has 9 patients" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_invalid_hyperparameter_is_config_error(self, tmp_path,
                                                    toy_config):
        assert run("--config", toy_config, "--model.alpha", "1.5",
                   "--out", str(tmp_path / "o"), "generate") == 1

    @pytest.mark.parametrize("override", [
        ["--model.b_shape", "nan"],
        ["--model.gamma", "nan"],
        ["--hmc.step_size", "inf"],
        ["--generate.doc_length", "nan"],
        ["--generate.doc_length_mode", "fixed", "--generate.doc_length",
         "inf"],
        ["--generate.doc_length_mode", "fixed", "--generate.doc_length",
         "7.9"],
    ])
    def test_non_finite_or_fractional_setting_is_config_error(
            self, tmp_path, capsys, override):
        assert run("--config", REPO_TOY_CONFIG, "--seed", "1", *override,
                   "--out", str(tmp_path / "o"), "generate") == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_chain_settings_fail_without_states(self, tmp_path,
                                                    toy_config, capsys):
        # no state to run a chain on: the settings are still checked
        prep, _ = self._trained(tmp_path, toy_config)
        empty = tmp_path / "empty"
        empty.mkdir()
        capsys.readouterr()
        assert self._evaluate(tmp_path, toy_config, prep, str(empty),
                              "--eval.burn_in", "-5",
                              "--eval.samples", "0") == 1
        assert "config error: burn_in must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["generate"],
                                         ["train", "--corpus", "x.jsonl"]])
    def test_bad_config_value_fails_before_any_output(self, tmp_path, capsys,
                                                      command):
        out = tmp_path / "o"
        assert run("--config", REPO_TOY_CONFIG, "--eval.samples", "abc",
                   "--out", str(out), *command) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for eval.samples")
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("--config", REPO_TOY_CONFIG, "--seed", "-1",
                   "--out", str(out), "generate") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: argument --seed: must be >= 0")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad_file, command, code, prefix", [
        ("config", "preprocess", 1, "config error"),
        ("corpus", "preprocess", 2, "data error"),
        ("corpus", "train", 2, "data error"),
        ("stopwords", "preprocess", 2, "data error"),
    ])
    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, toy_config,
                                                  capsys, bad_file, command,
                                                  code, prefix):
        gen = str(tmp_path / "gen")
        run("--config", toy_config, "--seed", "1", "--out", gen, "generate")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"model.alpha = 0.2\n\xff\n")
        args = {"config": ["--config", str(bad)],
                "corpus": ["--config", toy_config],
                "stopwords": ["--config", toy_config,
                              "--preprocess.stopword_file", str(bad)]}
        corpus = str(bad) if bad_file == "corpus" else os.path.join(
            gen, "corpus.jsonl")
        capsys.readouterr()
        assert run(*args[bad_file], "--out", str(tmp_path / "o"), command,
                   "--corpus", corpus) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}: {bad}: not UTF-8 text")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["preprocess", "train", "evaluate",
                                         "summarize"])
    def test_input_that_fails_to_load_leaves_no_out_dir(self, tmp_path,
                                                        capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"patient_id": "p\xff"}\n')
        flags = {"preprocess": ["--corpus"], "train": ["--corpus"],
                 "evaluate": ["--train-corpus", "--train-labels",
                              "--test-corpus", "--test-labels", "--state-dir"],
                 "summarize": ["--state", "--corpus"]}[command]
        out = tmp_path / "o"
        assert run("--config", REPO_TOY_CONFIG, "--out", str(out), command,
                   *[arg for flag in flags for arg in (flag, str(bad))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}") and "Traceback" not in err
        assert not out.exists()


# Runs each argv of the JSON list in sys.argv[1] through ss3m.cli.main in
# this one interpreter and prints, after each, whether scipy.special is
# loaded.
LOADS_SCIPY_SPECIAL = """\
import contextlib, io, json, sys
from ss3m.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded.append("scipy.special" in sys.modules)
print(json.dumps(loaded))
"""


def _loads_scipy_special(*argvs):
    out = fresh_stdout(LOADS_SCIPY_SPECIAL, json.dumps(argvs))
    return json.loads(out.strip().splitlines()[-1])


def test_only_commands_that_fit_load_scipy_special(tmp_path, toy_config):
    # scipy.special is imported at the first A scan, log joint or LR fit
    gen, prep, states = (str(tmp_path / name) for name in
                         ("gen", "prep", "states"))
    cfg = ["--config", toy_config]
    corpus = os.path.join(prep, "corpus_train.json")
    labels = os.path.join(prep, "labels_train.json")
    assert _loads_scipy_special(
        cfg + ["--out", gen, "generate"],
        cfg + ["--out", prep, "preprocess",
               "--corpus", os.path.join(gen, "corpus.jsonl")],
        cfg + ["--out", states, "train", "--corpus", corpus,
               "--labels", labels]) == [False, False, True]
    assert _loads_scipy_special(
        cfg + ["--out", str(tmp_path / "summ"), "summarize",
               "--state", os.path.join(states, "ss3m.state.json"),
               "--corpus", corpus, "--labels", labels]) == [False]


class TestManifest:
    def test_manifest_records_config_digest(self, tmp_path, toy_config):
        gen = str(tmp_path / "gen")
        run("--config", toy_config, "--seed", "9", "--out", gen, "generate")
        with open(os.path.join(gen, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 9
        assert len(manifest["config_sha256"]) == 64
        assert "corpus.jsonl" in manifest["files"]

    def test_config_override_changes_digest(self, tmp_path, toy_config):
        gen1 = str(tmp_path / "g1")
        gen2 = str(tmp_path / "g2")
        run("--config", toy_config, "--seed", "9", "--out", gen1, "generate")
        run("--config", toy_config, "--seed", "9", "--out", gen2,
            "--model.alpha", "0.25", "generate")
        d1 = json.load(open(os.path.join(gen1, "manifest.json")))
        d2 = json.load(open(os.path.join(gen2, "manifest.json")))
        assert d1["config_sha256"] != d2["config_sha256"]
