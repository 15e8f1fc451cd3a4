"""Training, parsing, tagging and the n-gram LM are deterministic across
processes, the augmentation chain does not depend on hash order, and bad
model files and configs exit 1.

Every run is a fresh ``python -m scrambleparse.cli`` process. Two runs of
one command take the same argv, output path included, since checkpoints
and predictions record the command line; each output is renamed before
the next run, and the two must be the same bytes. The hash-order check
runs the gen-synthetic, train-lm and permute chain under two
``PYTHONHASHSEED`` values, which only a new interpreter reads. A fresh
process gets zero-filled pages, so an uninitialised buffer can pass here;
the in-process reference tests catch that.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scrambleparse
from scrambleparse.conllu import load_treebank
from scrambleparse.nn import load_checkpoint

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scrambleparse.__file__)))

# Several optimizer update blocks, and a clip norm low enough for some
# steps to clip.
TRAIN_CFG = ("word_dim = 32\ntag_dim = 16\nchar_dim = 16\nchar_hidden = 32\nenc_hidden = 64\n"
             "mlp_hidden = 64\nepochs = 2\nclip_norm = 1.0\n")


def cli(*argv, env=ENV):
    """One CLI run in a fresh process."""
    return subprocess.run([sys.executable, "-m", "scrambleparse.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def ok(*argv, env=ENV):
    proc = cli(*argv, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def twice(out: Path, *argv) -> list[Path]:
    """Run ``argv``, which writes ``out``, twice; the two outputs renamed
    ``out``-1 and ``out``-2."""
    kept = []
    for k in (1, 2):
        ok(*argv)
        kept.append(out.rename(out.with_name(f"{out.stem}-{k}{out.suffix}")))
    return kept


def same_bytes(paths) -> bool:
    a, b = paths
    return a.read_bytes() == b.read_bytes()


def _vectors(train: Path) -> str:
    """A 32-wide vectors file for the first 20 word forms of ``train``."""
    words = sorted({t.form for s in load_treebank(train) for t in s.tokens})[:20]
    return "".join(w + "".join(f" {((i * 7 + j * 13) % 50 - 25) / 100:.2f}" for j in range(32))
                   + "\n" for i, w in enumerate(words))


@pytest.fixture(scope="module")
def d(tmp_path_factory):
    """30 training and 20 test trees, a vectors file that gives the rows of
    some vocabulary words, and the config that reads it."""
    d = tmp_path_factory.mktemp("processes")
    ok("gen-synthetic", "--n", 30, "--out", d / "train.conllu", "--orders", "uniform",
       "--seed", 1)
    ok("gen-synthetic", "--n", 20, "--out", d / "test.conllu", "--orders", "uniform",
       "--seed", 2)
    (d / "vectors.txt").write_text(_vectors(d / "train.conllu"), encoding="utf-8")
    (d / "train.cfg").write_text(TRAIN_CFG + f"embeddings_path = {d / 'vectors.txt'}\n",
                                 encoding="utf-8")
    (d / "blank.conllu").write_text("# a block of no token\n\n"
                                    + (d / "test.conllu").read_text(encoding="utf-8"),
                                    encoding="utf-8")
    return d


@pytest.fixture(scope="module")
def parsers(d):
    """Two checkpoints of one seeded ``train`` argv, and each one's parse
    of the test set."""
    models, preds = [], []
    for k in (1, 2):
        ok("train", "--train", d / "train.conllu", "--config", d / "train.cfg", "--seed", 3,
           "--out", d / "model.spnn")
        ok("parse", "--in", d / "test.conllu", "--model", d / "model.spnn",
           "--out", d / "pred.conllu")
        models.append((d / "model.spnn").rename(d / f"model-{k}.spnn"))
        preds.append((d / "pred.conllu").rename(d / f"pred-{k}.conllu"))
    return models, preds


@pytest.fixture(scope="module")
def taggers(d):
    """The same for ``train-tagger`` and ``tag``."""
    models, tagged = [], []
    for k in (1, 2):
        ok("train-tagger", "--train", d / "train.conllu", "--config", d / "train.cfg",
           "--seed", 3, "--out", d / "tagger.spnn")
        ok("tag", "--in", d / "test.conllu", "--model", d / "tagger.spnn",
           "--out", d / "tagged.conllu")
        models.append((d / "tagger.spnn").rename(d / f"tagger-{k}.spnn"))
        tagged.append((d / "tagged.conllu").rename(d / f"tagged-{k}.conllu"))
    return models, tagged


def test_parser_checkpoints_and_predictions_are_the_same_bytes(parsers):
    """The JSON header included: uninitialised optimizer buffers or an
    order dependence would fail here."""
    models, preds = parsers
    assert same_bytes(models)
    assert same_bytes(preds)


def test_checkpoints_are_the_same_bytes_without_momentum_or_l2(d):
    """The settings where a gradient written as -0.0 can reach the velocity."""
    (d / "plain.cfg").write_text((d / "train.cfg").read_text(encoding="utf-8")
                                 + "momentum = 0\nl2 = 0\n", encoding="utf-8")
    assert same_bytes(twice(d / "plain.spnn", "train", "--train", d / "train.conllu",
                            "--config", d / "plain.cfg", "--seed", 3,
                            "--out", d / "plain.spnn"))


def test_tagger_checkpoints_and_tags_are_the_same_bytes(taggers):
    models, tagged = taggers
    assert same_bytes(models)
    assert same_bytes(tagged)


@pytest.mark.parametrize("command", ["parse", "tag"])
def test_comment_only_block_is_passed_through(d, parsers, taggers, command):
    """parse and tag on the test set with a comment-only block prepended
    exit 0 and write as many blocks as they read."""
    model = (parsers if command == "parse" else taggers)[0][0]
    out = d / f"blank-{command}.conllu"
    ok(command, "--in", d / "blank.conllu", "--model", model, "--out", out)
    assert len(load_treebank(out)) == len(load_treebank(d / "blank.conllu")) == 21


def test_comment_only_training_block_gives_no_example(d, parsers):
    """Such a block is skipped: the same arrays as without it, and 30
    trees trained on."""
    blank = d / "blank-train.conllu"
    blank.write_text("# a block of no token\n\n"
                     + (d / "train.conllu").read_text(encoding="utf-8"), encoding="utf-8")
    proc = ok("train", "--train", blank, "--config", d / "train.cfg", "--seed", 3,
              "--out", d / "blank-model.spnn")
    assert "trained parser on 30 sentences" in proc.stdout
    a, b = (load_checkpoint(p)["arrays"] for p in (d / "blank-model.spnn", parsers[0][0]))
    assert list(a) == list(b)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_cut_checkpoint_exits_1(d, parsers):
    cut = d / "cut.spnn"
    cut.write_bytes(parsers[0][0].read_bytes()[:2000])
    assert cli("parse", "--in", d / "test.conllu", "--model", cut,
               "--out", d / "cut.conllu").returncode == 1


@pytest.mark.parametrize("line, message", [("seed = 7", "seed"),
                                           ("enc_layers = 0", "enc_layers must be")])
def test_bad_config_exits_1_and_writes_no_model(d, line, message):
    """The seed comes from --seed or SCRAMBLE_SEED, not from a config
    file; and a stack of no layer is out of range."""
    cfg, out = d / "bad.cfg", d / "bad.spnn"
    cfg.write_text((d / "train.cfg").read_text(encoding="utf-8") + line + "\n",
                   encoding="utf-8")
    proc = cli("train", "--train", d / "train.conllu", "--config", cfg, "--seed", 3,
               "--out", out)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert not out.exists()


def test_language_model_is_the_same_bytes_and_a_cut_one_exits_1(d):
    ok("gen-synthetic", "--n", 200, "--out", d / "lm.conllu", "--orders", "uniform",
       "--seed", 4, "--text-out", d / "lm.txt")
    lms = twice(d / "lm.nglm", "train-lm", "--corpus", d / "lm.txt", "--order", 3,
                "--out", d / "lm.nglm")
    assert same_bytes(lms)
    cut, out = d / "cut.nglm", d / "cut-aug.conllu"
    cut.write_bytes(lms[0].read_bytes()[:50])
    assert cli("permute", "--in", d / "train.conllu", "--lm", cut,
               "--out", out).returncode == 1
    assert not out.exists()


def test_augmentation_chain_does_not_depend_on_hash_order(tmp_path):
    """The same chain under two string-hash seeds, with the same argv,
    writes the same bytes: no set or dict iteration order reaches a
    generated treebank, an LM file or permute's output. --max-variants 20
    makes five-unit clauses take the sampled path."""
    files = ("lm.conllu", "lm.txt", "train.conllu", "lm.nglm", "aug.conllu")
    lm_conllu, lm_txt, train, lm, aug = (tmp_path / f for f in files)
    for k in (1, 2):
        env = dict(ENV, PYTHONHASHSEED=str(k))
        ok("gen-synthetic", "--n", 300, "--out", lm_conllu, "--orders", "uniform", "--seed", 4,
           "--text-out", lm_txt, env=env)
        ok("gen-synthetic", "--n", 200, "--out", train, "--orders", "sov=0.7,osv=0.3",
           "--seed", 1, env=env)
        ok("train-lm", "--corpus", lm_txt, "--order", 3, "--out", lm, env=env)
        ok("permute", "--in", train, "--lm", lm, "--budget", 200, "--max-variants", 20,
           "--out", aug, env=env)
        (tmp_path / str(k)).mkdir()
        for f in files:
            (tmp_path / f).rename(tmp_path / str(k) / f)
    for f in files:
        assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes(), f
