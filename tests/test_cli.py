import json
import os

import pytest

from helpers import toy_treebank, transitive_tree
from scrambleparse.cli import run
from scrambleparse.conllu import Treebank, dump_treebank, load_treebank
from scrambleparse.ngram import NGramModel
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import UD_MAPPING, order_distribution


@pytest.fixture()
def synth_files(tmp_path):
    """Small synthetic treebank + text corpus + trained LM on disk."""
    tb_path = tmp_path / "train.conllu"
    text_path = tmp_path / "corpus.txt"
    lm_path = tmp_path / "lm.nglm"
    assert run(["gen-synthetic", "--n", "80", "--out", str(tb_path),
                "--orders", "uniform", "--text-out", str(text_path),
                "--seed", "3"]) == 0
    assert run(["train-lm", "--corpus", str(text_path), "--out", str(lm_path),
                "--order", "2"]) == 0
    return tmp_path, tb_path, lm_path


def test_usage_error_exit_code_2(capsys):
    assert run(["definitely-not-a-command"]) == 2
    assert run(["stats", "--no-such-flag"]) == 2


def test_pipeline_error_exit_code_1(tmp_path, capsys):
    missing = tmp_path / "nope.conllu"
    assert run(["stats", "--in", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "error [" in err


def test_gen_synthetic_and_stats(tmp_path, capsys):
    out = tmp_path / "sov.conllu"
    assert run(["gen-synthetic", "--n", "50", "--out", str(out),
                "--orders", "sov=1.0", "--seed", "1"]) == 0
    tb = load_treebank(out)
    assert len(tb) == 50
    dist = order_distribution(tb, UD_MAPPING)
    from scrambleparse.scramble import OrderLabel

    assert dist[OrderLabel.SOV] == 100.0
    capsys.readouterr()
    assert run(["stats", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "S.No.\tOrder\tPercentage" in text
    assert "S O V\t100.00" in text
    assert "seed=" in text


def test_provenance_comment_written(tmp_path):
    out = tmp_path / "x.conllu"
    run(["gen-synthetic", "--n", "3", "--out", str(out)])
    first_line = out.read_text().splitlines()[0]
    assert first_line.startswith("# generated_by = scrambleparse gen-synthetic")


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    out = tmp_path / "a.conllu"
    monkeypatch.setenv("SCRAMBLE_SEED", "777")
    run(["gen-synthetic", "--n", "3", "--out", str(out)])
    assert "seed=777" in capsys.readouterr().out


def test_projectivize_and_deproj_round_trip(tmp_path):
    from scrambleparse.conllu import DepTree, Token

    bad = DepTree([Token(1, "w1", head=3, deprel="a"),
                   Token(2, "w2", head=0, deprel="root"),
                   Token(3, "w3", head=2, deprel="c"),
                   Token(4, "w4", head=2, deprel="d")])
    src = tmp_path / "np.conllu"
    proj = tmp_path / "proj.conllu"
    back = tmp_path / "back.conllu"
    dump_treebank(Treebank([bad]), src)
    assert run(["projectivize", "--in", str(src), "--out", str(proj)]) == 0
    assert all(is_projective(t) for t in load_treebank(proj))
    assert run(["deproj", "--in", str(proj), "--out", str(back)]) == 0
    restored = load_treebank(back)[0]
    assert restored.tokens == bad.tokens


def test_select_subcommand(synth_files):
    tmp_path, tb_path, _ = synth_files
    out = tmp_path / "subset.conllu"
    assert run(["select", "--in", str(tb_path), "--n", "10", "--out", str(out)]) == 0
    assert len(load_treebank(out)) == 10


def test_train_lm_creates_loadable_model(synth_files):
    _, _, lm_path = synth_files
    model = NGramModel.load(lm_path)
    assert model.order == 2
    assert len(model.vocab) > 3


def test_permute_respects_budget_and_preserves_arcs(synth_files, capsys):
    tmp_path, tb_path, lm_path = synth_files
    out = tmp_path / "aug.conllu"
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path),
                "--out", str(out), "--budget", "60", "--seed", "5"]) == 0
    aug = load_treebank(out)
    assert 0 < len(aug) <= 60
    # Every augmented tree is a permutation of some source: spot-check shape.
    for tree in aug.trees[:10]:
        assert any(c.startswith("# scramble_order=") for c in tree.comments)
        assert sum(1 for t in tree.tokens if t.head == 0) == 1
    text = capsys.readouterr().out
    assert "augmented order distribution" in text


def test_permute_with_jobs_matches_serial(synth_files):
    tmp_path, tb_path, lm_path = synth_files
    out1 = tmp_path / "aug1.conllu"
    out2 = tmp_path / "aug2.conllu"
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path),
                "--out", str(out1), "--budget", "40", "--seed", "5"]) == 0
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path),
                "--out", str(out2), "--budget", "40", "--seed", "5",
                "--jobs", "2"]) == 0
    def body(path):
        return [line for line in path.read_text().splitlines()
                if not line.startswith("# generated_by")]

    assert body(out1) == body(out2)


def test_train_parse_eval_cycle(tmp_path, capsys):
    train_path = tmp_path / "train.conllu"
    test_path = tmp_path / "test.conllu"
    cfg_path = tmp_path / "cfg.txt"
    model_path = tmp_path / "parser.spnn"
    pred_path = tmp_path / "pred.conllu"
    run(["gen-synthetic", "--n", "30", "--out", str(train_path), "--seed", "1"])
    run(["gen-synthetic", "--n", "10", "--out", str(test_path), "--seed", "2"])
    cfg_path.write_text("word_dim = 8\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 4\n"
                        "enc_hidden = 8\nmlp_hidden = 12\nepochs = 2\nlr = 0.05\n"
                        "mlp_dropout = 0.0\nword_dropout = 0.0\n")
    capsys.readouterr()
    assert run(["train", "--train", str(train_path), "--out", str(model_path),
                "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "config" in out and "epochs=2" in out
    assert run(["parse", "--model", str(model_path), "--in", str(test_path),
                "--out", str(pred_path)]) == 0
    pred = load_treebank(pred_path)
    assert len(pred) == 10
    capsys.readouterr()
    assert run(["eval", "--gold", str(test_path), "--pred", str(pred_path)]) == 0
    text = capsys.readouterr().out
    record = json.loads(text.strip().splitlines()[-1])
    assert set(record) >= {"las", "uas", "n_tokens", "pos", "by_order"}
    assert "LAS\t" in text


def test_parse_matches_per_sentence_parsing_and_has_no_jobs(tmp_path, capsys):
    from scrambleparse.parser import ParserModel, parse_tree

    train_path = tmp_path / "train.conllu"
    test_path = tmp_path / "test.conllu"
    model_path = tmp_path / "parser.spnn"
    pred_path = tmp_path / "pred.conllu"
    run(["gen-synthetic", "--n", "20", "--out", str(train_path), "--seed", "6"])
    run(["gen-synthetic", "--n", "12", "--out", str(test_path), "--seed", "7"])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("word_dim = 6\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 3\n"
                   "enc_hidden = 6\nmlp_hidden = 8\nepochs = 1\nmax_word_chars = 3\n")
    assert run(["train", "--train", str(train_path), "--out", str(model_path),
                "--config", str(cfg)]) == 0
    assert run(["parse", "--model", str(model_path), "--in", str(test_path),
                "--out", str(pred_path)]) == 0
    model = ParserModel.load(model_path)
    expected = [parse_tree(model, tree) for tree in load_treebank(test_path)]
    assert [t.tokens for t in load_treebank(pred_path)] == [t.tokens for t in expected]
    capsys.readouterr()
    assert run(["parse", "--model", str(model_path), "--in", str(test_path),
                "--out", str(pred_path), "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_train_union_of_two_files(tmp_path):
    a = tmp_path / "a.conllu"
    b = tmp_path / "b.conllu"
    model_path = tmp_path / "m.spnn"
    dump_treebank(toy_treebank(), a)
    dump_treebank(Treebank([transitive_tree("SOV")]), b)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("word_dim = 6\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 3\n"
                   "enc_hidden = 6\nmlp_hidden = 8\nepochs = 1\n"
                   "mlp_dropout = 0.0\nword_dropout = 0.0\n")
    assert run(["train", "--train", str(a), "--train", str(b),
                "--out", str(model_path), "--config", str(cfg)]) == 0
    from scrambleparse.parser import ParserModel

    model = ParserModel.load(model_path)
    assert "Ram" in model.vocabs.words
    assert "ana" in model.vocabs.words


def test_tagger_cycle_and_predicted_pos_parse(tmp_path):
    train_path = tmp_path / "train.conllu"
    test_path = tmp_path / "test.conllu"
    tagger_path = tmp_path / "tagger.spnn"
    parser_path = tmp_path / "parser.spnn"
    tagged_path = tmp_path / "tagged.conllu"
    pred_path = tmp_path / "pred.conllu"
    run(["gen-synthetic", "--n", "30", "--out", str(train_path), "--seed", "4"])
    run(["gen-synthetic", "--n", "8", "--out", str(test_path), "--seed", "5"])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("word_dim = 8\ntag_dim = 4\nchar_dim = 6\nchar_hidden = 6\n"
                   "enc_hidden = 8\nmlp_hidden = 12\nepochs = 3\nlr = 0.1\n"
                   "momentum = 0.5\nmlp_dropout = 0.0\nword_dropout = 0.0\n")
    assert run(["train-tagger", "--train", str(train_path),
                "--out", str(tagger_path), "--config", str(cfg)]) == 0
    assert run(["tag", "--model", str(tagger_path), "--in", str(test_path),
                "--out", str(tagged_path)]) == 0
    tagged = load_treebank(tagged_path)
    assert all(t.upos for tree in tagged for t in tree.tokens)
    assert run(["train", "--train", str(train_path), "--out", str(parser_path),
                "--config", str(cfg)]) == 0
    assert run(["parse", "--model", str(parser_path), "--in", str(test_path),
                "--out", str(pred_path), "--tagger", str(tagger_path)]) == 0
    assert len(load_treebank(pred_path)) == 8


def test_curve_subcommand(tmp_path, capsys):
    train_path = tmp_path / "train.conllu"
    dev_path = tmp_path / "dev.conllu"
    run(["gen-synthetic", "--n", "24", "--out", str(train_path), "--seed", "1"])
    run(["gen-synthetic", "--n", "6", "--out", str(dev_path), "--seed", "2"])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("word_dim = 6\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 3\n"
                   "enc_hidden = 6\nmlp_hidden = 8\nepochs = 1\n"
                   "mlp_dropout = 0.0\nword_dropout = 0.0\n")
    capsys.readouterr()
    assert run(["curve", "--train", str(train_path), "--dev", str(dev_path),
                "--sizes", "8,16,24", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "size\tLAS\tUAS" in out
    assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 3
