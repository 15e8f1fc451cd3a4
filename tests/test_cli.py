import contextlib
import io
import json
import logging
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_tree, random_nonprojective_tree, toy_treebank, transitive_tree
import scrambleparse
from scrambleparse.cli import run
from scrambleparse.conllu import (DepTree, Token, Treebank, dump_treebank, load_treebank,
                                  validate_tree)
from scrambleparse import conllu, nn, projectivity
from scrambleparse.ngram import ARRAYS as LM_ARRAYS
from scrambleparse.ngram import MAGIC as LM_MAGIC
from scrambleparse.ngram import NGramModel
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import UD_MAPPING, classify_order, order_distribution
from scrambleparse.serialize import load_arrays, save_arrays


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


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_141_without_an_error_line(tmp_path, unbuffered):
    """``eval ... | head -1`` with the reader already gone: every write to
    stdout fails, whether each print is written at once or at the end."""
    gold = tmp_path / "g.conllu"
    dump_treebank(toy_treebank(), gold)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(scrambleparse.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "scrambleparse.cli", "eval", "--gold",
                             str(gold), "--pred", str(gold)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_gen_synthetic_and_stats(tmp_path, capsys):
    out = tmp_path / "sov.conllu"
    assert run(["gen-synthetic", "--n", "50", "--out", str(out),
                "--orders", "sov=1.0", "--seed", "1"]) == 0
    tb = load_treebank(out)
    assert len(tb) == 50
    dist = order_distribution(classify_order(t, UD_MAPPING) for t in tb)
    from scrambleparse.scramble import OrderLabel

    assert dist[OrderLabel.SOV] == 100.0
    capsys.readouterr()
    assert run(["stats", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "S.No.\tOrder\tPercentage" in text
    assert "S O V\t100.00" in text
    assert "seed=" in text


def test_stats_on_deep_chain(tmp_path, capsys):
    path = tmp_path / "deep.conllu"
    dump_treebank(Treebank([transitive_tree("SOV"), chain_tree(1500)]), path)
    capsys.readouterr()
    assert run(["stats", "--in", str(path)]) == 0
    assert "sentences\t2" in capsys.readouterr().out


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
    monkeypatch.setenv("SCRAMBLE_SEED", "seven")
    assert run(["gen-synthetic", "--n", "3", "--out", str(out)]) == 1
    assert "error [scrambleparse.cli]" in capsys.readouterr().err


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


def test_short_treebank_noted_on_stderr_not_warned(synth_files, capfd):
    """The note goes to stderr with the library's notes; stdout's last two
    lines, which the benchmark reads, stay as they were."""
    tmp_path, tb_path, lm_path = synth_files
    capfd.readouterr()
    # Default --select 4000 on an 80-tree treebank.
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path),
                "--out", str(tmp_path / "aug.conllu"), "--budget", "20"]) == 0
    captured = capfd.readouterr()
    note = "[scrambleparse] note: --select 4000 exceeds the treebank's 80 trees; using all of them"
    assert captured.err.splitlines() == [note]
    assert "note:" not in captured.out
    assert captured.out.splitlines()[-2].startswith("permuted 80 sentences")
    assert run(["select", "--in", str(tb_path), "--n", "81",
                "--out", str(tmp_path / "all.conllu")]) == 0
    captured = capfd.readouterr()
    assert captured.err.splitlines() == [
        "[scrambleparse] note: --n 81 exceeds the treebank's 80 trees; using all of them"]
    assert "note:" not in captured.out


@pytest.mark.parametrize("cut", [5, 2000])
def test_truncated_model_files_exit_1(synth_files, capsys, cut):
    """A checkpoint or LM cut short ends the command with one error line,
    not a traceback: at 5 bytes only the magic is left, at 2,000 the file
    stops part-way."""
    from scrambleparse.parser import TrainConfig, _init_model, build_vocabs

    tmp_path, tb_path, lm_path = synth_files
    cfg = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                      mlp_hidden=8, seed=1)
    model_path = tmp_path / "parser.spnn"
    _init_model("parser", cfg, build_vocabs(load_treebank(tb_path))).save(model_path)
    commands = {model_path: ["parse", "--in", str(tb_path), "--out", str(tmp_path / "p.conllu"),
                             "--model"],
                lm_path: ["permute", "--in", str(tb_path), "--out", str(tmp_path / "a.conllu"),
                          "--lm"]}
    for path, argv in commands.items():
        data = path.read_bytes()
        assert len(data) > cut
        cut_path = tmp_path / f"cut-{path.name}"
        cut_path.write_bytes(data[:cut])
        capsys.readouterr()
        assert run(argv + [str(cut_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error [scrambleparse.serialize]: ")
        assert str(cut_path) in err[0] and "truncated" in err[0]


@pytest.fixture(scope="module")
def spnn_case(tmp_path_factory):
    """A small saved parser, its bytes, and five sentences to parse with it."""
    from scrambleparse.parser import TrainConfig, _init_model, build_vocabs

    tmp_path = tmp_path_factory.mktemp("spnn")
    tb_path = tmp_path / "train.conllu"
    assert run(["gen-synthetic", "--n", "40", "--out", str(tb_path), "--orders", "uniform",
                "--seed", "3"]) == 0
    tb = load_treebank(tb_path)
    test_path = tmp_path / "test.conllu"
    dump_treebank(Treebank(tb.trees[:5]), test_path)
    cfg = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                      mlp_hidden=8, seed=1)
    model_path = tmp_path / "parser.spnn"
    _init_model("parser", cfg, build_vocabs(tb)).save(model_path)
    return tmp_path, model_path.read_bytes(), test_path


def _parse_with_model_bytes(case, data: bytes):
    """Run ``parse --model`` on ``data``; returns the exit status, the
    stderr lines and the model file's path."""
    tmp_path, _, test_path = case
    model_path = tmp_path / "mutated.spnn"
    model_path.write_bytes(data)
    out_path = tmp_path / "pred.conllu"
    if out_path.exists():
        out_path.unlink()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = run(["parse", "--in", str(test_path), "--out", str(out_path),
                      "--model", str(model_path)])
    lines = err.getvalue().splitlines()
    if status == 0:
        gold, pred = load_treebank(test_path).trees, load_treebank(out_path).trees
        assert [t.forms() for t in pred] == [t.forms() for t in gold]
        assert all(validate_tree(t) == [] for t in pred)
    return status, lines, model_path


def _assert_rejected(status, lines, model_path):
    assert status == 1
    assert len(lines) == 1, lines
    assert lines[0].startswith("error [scrambleparse.serialize]: ")
    assert str(model_path) in lines[0]


@settings(max_examples=30, deadline=None)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoint_is_rejected(spnn_case, fraction):
    data = spnn_case[1]
    _assert_rejected(*_parse_with_model_bytes(spnn_case, data[:int(fraction * len(data))]))


@settings(max_examples=60, deadline=None)
@given(position=st.floats(0.0, 1.0, exclude_max=True))
def test_bit_flip_in_checkpoint_parses_or_is_rejected(spnn_case, position):
    """One flipped bit anywhere, header or data, either still parses into
    valid trees or ends with one error line naming the file."""
    data = bytearray(spnn_case[1])
    bit = int(position * 8 * len(data))
    data[bit // 8] ^= 1 << bit % 8
    status, lines, model_path = _parse_with_model_bytes(spnn_case, bytes(data))
    if status != 0:
        _assert_rejected(status, lines, model_path)


@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=200), prefix=st.sampled_from([b"", b"SPNN2", b"SPNN1", b"SPNN3"]))
def test_random_bytes_as_checkpoint_are_rejected(spnn_case, data, prefix):
    _assert_rejected(*_parse_with_model_bytes(spnn_case, prefix + data))


def test_version_1_checkpoint_is_rejected_without_unpickling(spnn_case):
    """An SPNN1 file is a pickle, and unpickling one can run code: this one
    would create a directory. It is refused on its magic alone."""
    marker = spnn_case[0] / "unpickled"

    class CreatesFile:
        def __reduce__(self):
            return (os.mkdir, (str(marker),))

    status, lines, model_path = _parse_with_model_bytes(
        spnn_case, b"SPNN1" + pickle.dumps({"meta": {}, "arrays": {}, "x": CreatesFile()}))
    _assert_rejected(status, lines, model_path)
    assert "SPNN1" in lines[0] and "never loaded" in lines[0]
    assert not marker.exists()
    pickle.loads(pickle.dumps(CreatesFile()))  # the payload does act when unpickled
    assert marker.exists()


@pytest.fixture(scope="module")
def nglm_case(tmp_path_factory):
    """A saved order-3 LM, its bytes, and five sentences to permute with it."""
    tmp_path = tmp_path_factory.mktemp("nglm")
    tb_path, text_path, lm_path = (tmp_path / "train.conllu", tmp_path / "corpus.txt",
                                   tmp_path / "lm.nglm")
    assert run(["gen-synthetic", "--n", "40", "--out", str(tb_path), "--orders", "uniform",
                "--text-out", str(text_path), "--seed", "3"]) == 0
    assert run(["train-lm", "--corpus", str(text_path), "--out", str(lm_path)]) == 0
    test_path = tmp_path / "test.conllu"
    dump_treebank(Treebank(load_treebank(tb_path).trees[:5]), test_path)
    return tmp_path, lm_path.read_bytes(), test_path


def _permute_with_lm_bytes(case, data: bytes):
    """Run ``permute --lm`` on ``data``; returns the exit status, the
    stderr lines and the LM file's path. A failed run writes no output."""
    tmp_path, _, test_path = case
    lm_path = tmp_path / "mutated.nglm"
    lm_path.write_bytes(data)
    out_path = tmp_path / "aug.conllu"
    if out_path.exists():
        out_path.unlink()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = run(["permute", "--in", str(test_path), "--out", str(out_path), "--select", "5",
                      "--budget", "5", "--lm", str(lm_path)])
    if status == 0:
        assert all(validate_tree(t) == [] for t in load_treebank(out_path))
    else:
        assert not out_path.exists()
    return status, err.getvalue().splitlines(), lm_path


@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=200), prefix=st.sampled_from([b"", b"NGLM2", b"NGLM1", b"NGLM3"]))
def test_random_bytes_as_lm_are_rejected(nglm_case, data, prefix):
    _assert_rejected(*_permute_with_lm_bytes(nglm_case, prefix + data))


@pytest.mark.parametrize("cut", [0, 3, 5, 9, 13, 14, -2, -1])
def test_truncated_lm_is_rejected(nglm_case, cut):
    """Cut to nothing, inside the magic, right after it, inside the header
    length, right after it, after the header's first byte, and one or two
    bytes short of the end."""
    data = nglm_case[1]
    _assert_rejected(*_permute_with_lm_bytes(nglm_case, data[:cut]))


@settings(max_examples=30, deadline=None)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_any_truncation_of_lm_is_rejected(nglm_case, fraction):
    data = nglm_case[1]
    _assert_rejected(*_permute_with_lm_bytes(nglm_case, data[:int(fraction * len(data))]))


@settings(max_examples=60, deadline=None)
@given(position=st.floats(0.0, 1.0, exclude_max=True))
def test_bit_flip_in_lm_permutes_or_is_rejected(nglm_case, position):
    """One flipped bit anywhere, in a count, a word or the JSON syntax,
    either still permutes into valid trees or ends with one error line
    naming the file."""
    data = bytearray(nglm_case[1])
    bit = int(position * 8 * len(data))
    data[bit // 8] ^= 1 << bit % 8
    status, lines, lm_path = _permute_with_lm_bytes(nglm_case, bytes(data))
    if status != 0:
        _assert_rejected(status, lines, lm_path)


def _lm_with(case, fault):
    """The bytes of the case's LM with one fault in its header or arrays."""
    tmp_path, data, _ = case
    valid = tmp_path / "valid.nglm"
    valid.write_bytes(data)
    saved = load_arrays(valid, LM_MAGIC)
    header, arrays = saved["meta"], {name: a.copy() for name, a in saved["arrays"].items()}
    contexts, offsets, words, counts = (arrays[name] for name in LM_ARRAYS)
    if fault == "fractional count":
        counts[3] = 1.5
    elif fault == "zero count":
        counts[3] = 0
    elif fault == "word id out of range":
        words[3] = len(header["vocab"])
    elif fault == "context id out of range":
        contexts[-1, -1] = len(header["vocab"])
    elif fault == "repeated context":
        contexts[-1] = contexts[-2]
    elif fault == "unsorted contexts":
        contexts[[-2, -1]] = contexts[[-1, -2]]
    elif fault == "repeated next word":
        words[1] = words[0]
    elif fault == "missing empty context":
        first = int(offsets[1])
        arrays.update(contexts=contexts[1:], offsets=offsets[1:] - first,
                      words=words[first:], counts=counts[first:])
    elif fault == "padding after a word":
        contexts[-1, -1] = -1
    elif fault == "context longer than order - 1":
        header["order"] = 2
    elif fault == "offsets short of words":
        offsets[-1] -= 1
    elif fault == "offsets beyond words":
        offsets[-1] += 1
    elif fault == "context total over 2**53":
        counts[0] = 2**53  # the empty context's first count: its total passes 2**53
    path = tmp_path / "faulty.nglm"
    save_arrays(path, LM_MAGIC, header, arrays.items())
    return path.read_bytes()


@pytest.mark.parametrize("fault, message", [
    ("fractional count", "not an integer"), ("zero count", "count"),
    ("word id out of range", "word id"), ("context id out of range", "word id"),
    ("repeated context", "repeated"), ("unsorted contexts", "not sorted"),
    ("repeated next word", "repeats a word"), ("missing empty context", "empty context"),
    ("padding after a word", "-1 after a word"), ("context longer than order - 1", "order - 1"),
    ("offsets short of words", "offsets"), ("offsets beyond words", "offsets"),
    ("context total over 2**53", "exceeds 2**53"),
])
def test_hostile_lm_files_are_rejected(nglm_case, fault, message):
    """Each fault, in an otherwise valid file, fails at load with one line
    and no output."""
    status, lines, path = _permute_with_lm_bytes(nglm_case, _lm_with(nglm_case, None))
    assert status == 0
    status, lines, path = _permute_with_lm_bytes(nglm_case, _lm_with(nglm_case, fault))
    _assert_rejected(status, lines, path)
    assert message in lines[0]


def test_version_1_lm_is_rejected_without_unpickling(nglm_case):
    """An NGLM1 file is a pickle, and unpickling one can run code: this one
    would create a directory. It is refused on its magic alone."""
    marker = nglm_case[0] / "unpickled"

    class CreatesFile:
        def __reduce__(self):
            return (os.mkdir, (str(marker),))

    status, lines, lm_path = _permute_with_lm_bytes(
        nglm_case, b"NGLM1" + pickle.dumps({"order": 3, "counts": {}, "x": CreatesFile()}))
    _assert_rejected(status, lines, lm_path)
    assert "NGLM1" in lines[0] and "never loaded" in lines[0]
    assert not marker.exists()
    pickle.loads(pickle.dumps(CreatesFile()))  # the payload does act when unpickled
    assert marker.exists()


@pytest.mark.parametrize("case, version", [("checkpoint", b"1"), ("checkpoint", b"3"),
                                           ("lm", b"1"), ("lm", b"2")])
def test_other_format_versions_are_named(spnn_case, nglm_case, case, version):
    """A file of another version of the format is refused on its magic; only
    a version 1 file gets the advice about version 1 files."""
    magic, current = (b"SPNN", "SPNN2") if case == "checkpoint" else (b"NGLM", "NGLM3")
    run_with = _parse_with_model_bytes if case == "checkpoint" else _permute_with_lm_bytes
    status, lines, path = run_with(spnn_case if case == "checkpoint" else nglm_case,
                                   magic + version + b"\x00" * 64)
    _assert_rejected(status, lines, path)
    assert f"format {(magic + version).decode()} is not read, only {current}" in lines[0]
    assert ("never loaded" in lines[0]) == (version == b"1")


def test_other_exceptions_from_the_package_exit_1(synth_files, monkeypatch, capsys):
    """A fault with no mapped type, raised in a package module, ends the
    command with one error line naming the module and the type; one raised
    outside the package keeps its traceback."""
    from scrambleparse import cli, scramble

    _, tb_path, _ = synth_files
    monkeypatch.setattr(cli, "MAPPING_PRESETS", {})  # stats reads MAPPING_PRESETS["ud"]
    capsys.readouterr()
    assert run(["stats", "--in", str(tb_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error [scrambleparse.cli]: KeyError: 'ud'"]
    monkeypatch.undo()

    def outside(*args):
        raise KeyError("raised outside the package")

    monkeypatch.setattr(scramble, "order_distribution", outside)
    with pytest.raises(KeyError, match="raised outside the package"):
        run(["stats", "--in", str(tb_path)])


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


def test_treebank_without_a_transitive_clause(synth_files, capsys):
    """stats, permute and eval succeed on valid clauses of subject, adverb
    and verb; the order distributions they print read n/a."""
    tmp_path, _, lm_path = synth_files
    tb_path, out = tmp_path / "intransitive.conllu", tmp_path / "aug.conllu"
    dump_treebank(Treebank([DepTree([Token(1, subj, upos="NOUN", head=3, deprel="nsubj"),
                                     Token(2, adv, upos="ADV", head=3, deprel="advmod"),
                                     Token(3, verb, upos="VERB", head=0, deprel="root")])
                            for subj, adv, verb in (("ram", "jaldi", "gaya"),
                                                    ("sita", "dhire", "aayi"))]), tb_path)
    capsys.readouterr()
    assert run(["stats", "--in", str(tb_path)]) == 0
    text = capsys.readouterr().out
    assert "1\tS O V\tn/a\n" in text and "6\tV S O\tn/a\n" in text
    assert "sentences\t2\ntransitive_sentences\t0\n" in text
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "[scrambleparse] note: --select 4000 exceeds the treebank's 2 trees; using all of them"]
    assert captured.out.endswith("augmented order distribution: SOV=n/a OSV=n/a OVS=n/a "
                                 "SVO=n/a VOS=n/a VSO=n/a\n")
    aug = load_treebank(out)
    assert len(aug) > 0
    assert all("# scramble_order=NONTRANSITIVE" in tree.comments[-1] for tree in aug)
    assert run(["eval", "--gold", str(tb_path), "--pred", str(tb_path)]) == 0
    assert "NONTRANSITIVE\t100.00\t100.00\t6\n" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["", "# a comment block of no token\n\n"])
def test_treebank_without_a_token(synth_files, capsys, text):
    """An empty file, or one of comment blocks only: stats and eval exit 0
    and print n/a for every ratio and percentage; permute writes nothing."""
    tmp_path, _, lm_path = synth_files
    tb_path, out = tmp_path / "empty.conllu", tmp_path / "aug.conllu"
    tb_path.write_text(text)
    capsys.readouterr()
    assert run(["stats", "--in", str(tb_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "1\tS O V\tn/a\n" in captured.out
    assert captured.out.endswith("transitive_sentences\t0\nnonprojective_arc_ratio\tn/a\n")
    assert run(["eval", "--gold", str(tb_path), "--pred", str(tb_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "LAS\tn/a\nUAS\tn/a\nPOS\tn/a\n" in captured.out
    record = json.loads(captured.out.splitlines()[-1])
    assert (record["las"], record["uas"], record["n_tokens"], record["pos"]) == (None, None, 0,
                                                                               None)
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path), "--out", str(out)]) == 0
    assert len(load_treebank(out)) == 0


def test_stats_builds_one_tree_shape_per_tree(synth_files, capsys):
    _, tb_path, _ = synth_files
    calls = []
    real = conllu.tree_shape

    def counting(heads):
        calls.append(len(heads))
        return real(heads)

    with mock.patch.object(conllu, "tree_shape", counting), \
            mock.patch.object(projectivity, "tree_shape", counting):
        assert run(["stats", "--in", str(tb_path)]) == 0
    assert len(calls) == len(load_treebank(tb_path)) == 80


def test_permute_and_eval_have_no_jobs(synth_files, capsys):
    tmp_path, tb_path, lm_path = synth_files
    capsys.readouterr()
    assert run(["permute", "--in", str(tb_path), "--lm", str(lm_path),
                "--out", str(tmp_path / "aug.conllu"), "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert run(["eval", "--gold", str(tb_path), "--pred", str(tb_path), "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def _eval_pair():
    """Gold: SOV, OSV (with indirect object) and an intransitive clause;
    pred: one wrong head, one wrong label, one wrong tag."""
    gold = [transitive_tree("SOV"), transitive_tree("OSV", with_io=True)] + toy_treebank().trees[:1]
    pred = [t.with_tokens(list(t.tokens)) for t in gold]
    pred[0].tokens[0] = replace(pred[0].tokens[0], head=3)
    pred[1].tokens[2] = replace(pred[1].tokens[2], deprel="obl")
    pred[2].tokens[0] = replace(pred[2].tokens[0], upos="V")
    return Treebank(gold), Treebank(pred)


EVAL_STDOUT = (
    '[scrambleparse] command=eval seed=42\n'
    'LAS\t83.33\n'
    'UAS\t91.67\n'
    'POS\t92.86\n'
    'class\tLAS\tUAS\ttokens\n'
    'SOV\t75.00\t75.00\t4\n'
    'OSV\t83.33\t100.00\t6\n'
    'NONTRANSITIVE\t100.00\t100.00\t2\n'
    '{"las": 83.33, "uas": 91.67, "n_tokens": 12, "pos": 92.86, "by_order": '
    '{"SOV": {"las": 75.0, "uas": 75.0, "n_tokens": 4}, '
    '"OSV": {"las": 83.33, "uas": 100.0, "n_tokens": 6}, '
    '"NONTRANSITIVE": {"las": 100.0, "uas": 100.0, "n_tokens": 2}}}\n'
)


def test_eval_output_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SCRAMBLE_SEED", raising=False)
    gold, pred = _eval_pair()
    dump_treebank(gold, tmp_path / "gold.conllu")
    dump_treebank(pred, tmp_path / "pred.conllu")
    capsys.readouterr()
    assert run(["eval", "--gold", str(tmp_path / "gold.conllu"),
                "--pred", str(tmp_path / "pred.conllu")]) == 0
    assert capsys.readouterr().out == EVAL_STDOUT


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


@pytest.mark.parametrize("bad_line, fault", [
    ("pseudo_projective = ture", "pseudo_projective must be one of 1/0/true/false/yes/no"),
    ("epochs = 3.5", "epochs must be int, got '3.5'"),
    ("lr = fast", "lr must be float, got 'fast'"),
    ("no_such_key = 1", "bad config line 'no_such_key = 1'"),
])
def test_malformed_config_value_names_file_and_line(tmp_path, capsys, bad_line, fault):
    train_path = tmp_path / "train.conllu"
    cfg = tmp_path / "train.cfg"
    run(["gen-synthetic", "--n", "3", "--out", str(train_path)])
    cfg.write_text(f"# tiny\nword_dim = 8\n{bad_line}\n")
    capsys.readouterr()
    assert run(["train", "--train", str(train_path), "--out", str(tmp_path / "m.spnn"),
                "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error [scrambleparse.parser]: {cfg}:3: {fault}")
    assert not (tmp_path / "m.spnn").exists()


@pytest.mark.parametrize("bad_line, fault", [
    ("epochs = -1", "epochs must be finite and at least 1, got -1"),
    ("word_dim = 0", "word_dim must be finite and at least 1, got 0"),
    ("enc_layers = 0", "enc_layers must be finite and at least 1, got 0"),
    ("max_word_chars = 0", "max_word_chars must be finite and at least 1, got 0"),
    ("mlp_dropout = 1.0", "mlp_dropout must be in [0, 1), got 1.0"),
    ("word_dropout = -0.1", "word_dropout must be in [0, 1), got -0.1"),
    ("lr = nan", "lr must be finite and above 0, got nan"),
    ("lr = 0", "lr must be finite and above 0, got 0.0"),
    ("momentum = -0.9", "momentum must be finite and at least 0, got -0.9"),
    ("l2 = -1e-6", "l2 must be finite and at least 0, got -1e-06"),
    ("clip_norm = inf", "clip_norm must be finite and above 0, got inf"),
    ("clip_norm = 0", "clip_norm must be finite and above 0, got 0.0"),
])
def test_config_value_out_of_range_is_rejected_before_training(tmp_path, capsys, bad_line,
                                                               fault):
    train_path = tmp_path / "train.conllu"
    cfg = tmp_path / "train.cfg"
    run(["gen-synthetic", "--n", "3", "--out", str(train_path)])
    cfg.write_text(f"word_dim = 8\nepochs = 1\n{bad_line}\n")
    capsys.readouterr()
    assert run(["train", "--train", str(train_path), "--out", str(tmp_path / "m.spnn"),
                "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error [scrambleparse.parser]: {cfg}:3: {fault}"]
    assert "config" not in captured.out  # rejected before the config is echoed
    assert not (tmp_path / "m.spnn").exists()


@pytest.mark.parametrize("command", ["train", "train-tagger", "curve"])
def test_config_seed_line_is_rejected_before_training(tmp_path, capsys, command):
    """The run's seed comes from --seed or SCRAMBLE_SEED and is echoed; a
    config file's seed would be overwritten, so the file is refused."""
    train_path, cfg, model = tmp_path / "train.conllu", tmp_path / "train.cfg", tmp_path / "m.spnn"
    run(["gen-synthetic", "--n", "3", "--out", str(train_path)])
    cfg.write_text("word_dim = 8\nepochs = 1\nseed = 7\n")
    argv = ([command, "--train", str(train_path), "--dev", str(train_path), "--sizes", "1"]
            if command == "curve" else [command, "--train", str(train_path), "--out", str(model)])
    capsys.readouterr()
    assert run(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error [scrambleparse.parser]: {cfg}:3: seed is not a config file field; "
        "set it with --seed or SCRAMBLE_SEED"]
    assert "config" not in captured.out
    assert not model.exists()


@pytest.mark.parametrize("argv", [
    ["gen-synthetic", "--n", "-1"],
    ["gen-synthetic", "--n", "0"],
    ["select", "--in", "{tb}", "--n", "0"],
    ["train-lm", "--corpus", "{corpus}", "--order", "0"],
    ["permute", "--in", "{tb}", "--lm", "{lm}", "--budget", "0"],
    ["permute", "--in", "{tb}", "--lm", "{lm}", "--select", "-3"],
    ["permute", "--in", "{tb}", "--lm", "{lm}", "--keep", "0"],
    ["permute", "--in", "{tb}", "--lm", "{lm}", "--max-variants", "1.5"],
])
def test_counts_below_one_are_usage_errors(synth_files, capsys, argv):
    tmp_path, tb_path, lm_path = synth_files
    out = tmp_path / "out"
    argv = [a.format(tb=tb_path, lm=lm_path, corpus=tmp_path / "corpus.txt") for a in argv]
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected an integer >= 1, got '{argv[-1]}'" in err
    assert not out.exists()


@pytest.fixture()
def embeddings_case(tmp_path):
    """A small treebank, a config that reads ``vectors.txt`` as word
    embeddings, and a word of the treebank's vocabulary."""
    train_path, cfg = tmp_path / "train.conllu", tmp_path / "train.cfg"
    run(["gen-synthetic", "--n", "3", "--out", str(train_path)])
    cfg.write_text(f"word_dim = 4\nepochs = 1\nembeddings_path = {tmp_path / 'vectors.txt'}\n")
    return tmp_path, train_path, cfg, load_treebank(train_path)[0].tokens[0].form


@pytest.mark.parametrize("command", ["train", "train-tagger"])
@pytest.mark.parametrize("bad", ["nan", "1e400", "-inf", "x"])
def test_embeddings_value_that_is_not_a_finite_number_is_rejected(embeddings_case, capsys, bad,
                                                                  command):
    tmp_path, train_path, cfg, word = embeddings_case
    (tmp_path / "vectors.txt").write_text(f"2 4\n{word} 0.1 {bad} 0.3 0.4\n")
    capsys.readouterr()
    assert run([command, "--train", str(train_path), "--out", str(tmp_path / "m.spnn"),
                "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error [scrambleparse.parser]: {tmp_path / 'vectors.txt'}:2: the vector of "
                   f"'{word}' holds a value that is not a finite number"]
    assert not (tmp_path / "m.spnn").exists()


@pytest.mark.parametrize("command", ["train", "train-tagger"])
def test_embeddings_file_trains(embeddings_case, caplog, command):
    tmp_path, train_path, cfg, word = embeddings_case
    (tmp_path / "vectors.txt").write_text(f"2 4\n{word} 0.1 0.2 0.3 0.4\nzzz 1 2 3 4\n")
    with caplog.at_level(logging.INFO, logger="scrambleparse.parser"):
        assert run([command, "--train", str(train_path), "--out", str(tmp_path / "m.spnn"),
                    "--config", str(cfg)]) == 0
    assert "loaded 1 pre-trained word vectors, skipped 1 lines of another width" in caplog.text


@pytest.mark.parametrize("reader", ["conllu", "corpus", "config", "vectors"])
def test_input_that_is_not_utf8_names_file_and_line(embeddings_case, capsys, reader):
    tmp_path, train_path, cfg, word = embeddings_case
    path, argv = {
        "conllu": (tmp_path / "latin1.conllu", ["stats", "--in"]),
        "corpus": (tmp_path / "corpus.txt", ["train-lm", "--out", str(tmp_path / "lm.nglm"),
                                             "--corpus"]),
        "config": (cfg, ["train", "--train", str(train_path), "--out",
                         str(tmp_path / "m.spnn"), "--config"]),
        "vectors": (tmp_path / "vectors.txt", ["train", "--train", str(train_path), "--out",
                                               str(tmp_path / "m.spnn"), "--config"]),
    }[reader]
    first = cfg.read_bytes() if reader == "config" else b"# a first line\n"
    path.write_bytes(first + b"# caf\xe9\n")
    capsys.readouterr()
    assert run(argv + [str(cfg if reader == "vectors" else path)]) == 1
    line = first.count(b"\n") + 1
    module = {"conllu": "conllu", "corpus": "ngram", "config": "parser", "vectors": "parser"}
    assert capsys.readouterr().err.splitlines() == [
        f"error [scrambleparse.{module[reader]}]: {path}:{line}: byte 0xe9 is not UTF-8"]
    assert not (tmp_path / "m.spnn").exists() and not (tmp_path / "lm.nglm").exists()


GOOD_LINE = "1\tgaya\t_\tVERB\t_\t_\t0\troot\t_\t_\n"


@pytest.mark.parametrize("pred_text, line, fault", [
    ("1\tRam\t_\tNOUN\n", 1, "expected 10 tab-separated columns, got 4"),
    (GOOD_LINE + "\n# sent_id = s2\n" + GOOD_LINE.replace("\t0\t", "\t1\t"), 3,
     "sentence s2: self-loop at token 1"),
], ids=["columns", "tree"])
def test_conllu_errors_name_the_file_and_line(tmp_path, capsys, pred_text, line, fault):
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(GOOD_LINE + "\n" + GOOD_LINE)
    pred.write_text(pred_text)
    capsys.readouterr()
    assert run(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error [scrambleparse.conllu]: {pred}:{line}: {fault}"]


def test_notes_and_warnings_reach_stderr_in_the_cli_format(tmp_path):
    """Run as a program, ``stats`` reports a file's multiword-token and
    empty-node lines once, with their count, and ``deproj`` a lift it
    cannot undo, each as one stderr line in the CLI's format and none as
    a Python warning."""
    multiword = tmp_path / "mw.conllu"
    multiword.write_text("1-2\tgayaa\t_\t_\t_\t_\t_\t_\t_\t_\n" + GOOD_LINE
                         + "1.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
                         + "1-2\tgayaa\t_\t_\t_\t_\t_\t_\t_\t_\n" + GOOD_LINE)
    lifted = tmp_path / "lifted.conllu"
    lifted.write_text("# sent_id = s1\n1\tw1\t_\t_\t_\t_\t2\ta\u2225missing\t_\t_\n"
                      + GOOD_LINE.replace("1\tgaya", "2\tw2"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scrambleparse.__file__)))

    def stderr_lines(*argv):
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "scrambleparse.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.splitlines()

    assert stderr_lines("stats", "--in", str(multiword)) == [
        f"[scrambleparse] {multiword}: skipped 3 multiword-token or empty-node lines"]
    assert stderr_lines("deproj", "--in", str(lifted), "--out", str(tmp_path / "out.conllu")) \
        == ["[scrambleparse] no attachment target labelled 'missing' found for token 1 of "
            "sentence s1; keeping the lifted attachment"]


def test_curve_trains_pseudo_projective_on_non_projective_trees(tmp_path, capsys):
    rng = np.random.default_rng(2)
    train_path, dev_path, cfg = (tmp_path / "train.conllu", tmp_path / "dev.conllu",
                                 tmp_path / "train.cfg")
    dump_treebank(Treebank([random_nonprojective_tree(rng, n_lifts=k) for k in (1, 2, 1, 2)]),
                  train_path)
    dump_treebank(Treebank([random_nonprojective_tree(rng, n_lifts=2)]), dev_path)
    cfg.write_text("word_dim = 6\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 3\nenc_hidden = 6\n"
                   "mlp_hidden = 8\nepochs = 1\npseudo_projective = true\n")
    capsys.readouterr()
    assert run(["curve", "--train", str(train_path), "--dev", str(dev_path),
                "--sizes", "2,4", "--config", str(cfg)]) == 0
    assert len([l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]) == 2


@pytest.mark.parametrize("sizes", ["8,x", ",", "0", "8,4", "8,8", "-1", ""])
def test_curve_sizes_are_increasing_counts(tmp_path, capsys, sizes):
    capsys.readouterr()
    assert run(["curve", "--train", str(tmp_path / "train.conllu"),
                "--dev", str(tmp_path / "dev.conllu"), "--sizes", sizes]) == 2
    assert ("argument --sizes: expected strictly increasing integers >= 1 separated by "
            f"commas, got '{sizes}'") in capsys.readouterr().err


def test_curve_size_above_the_training_treebank_exits_1(tmp_path, capsys):
    train_path, dev_path = tmp_path / "train.conllu", tmp_path / "dev.conllu"
    run(["gen-synthetic", "--n", "6", "--out", str(train_path), "--seed", "1"])
    run(["gen-synthetic", "--n", "2", "--out", str(dev_path), "--seed", "2"])
    capsys.readouterr()
    assert run(["curve", "--train", str(train_path), "--dev", str(dev_path),
                "--sizes", "4,7"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error [scrambleparse.cli]: largest size 7 exceeds the training treebank's 6 trees"]
    assert "size\tLAS\tUAS" not in captured.out


def test_config_bools_accept_any_case(tmp_path):
    from scrambleparse.parser import TrainConfig

    cfg = tmp_path / "train.cfg"
    for text, expected in [("TRUE", True), ("Yes", True), ("1", True),
                           ("False", False), ("NO", False), ("0", False)]:
        cfg.write_text(f"pseudo_projective = {text}\n")
        assert TrainConfig.from_file(cfg).pseudo_projective is expected


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


def test_parse_reports_fallback_attachments(tmp_path, capsys):
    from scrambleparse.arceager import LEFT_ARC, SHIFT
    from scrambleparse.parser import TrainConfig, _init_model, build_vocabs

    tb = toy_treebank()
    cfg = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                      mlp_hidden=8, seed=1)
    model = _init_model("parser", cfg, build_vocabs(tb))
    # A classifier that prefers a left arc, then a shift: each stack top
    # takes the buffer front as its head, and the last token is left
    # headless, so exactly one fallback attachment per sentence.
    model.mlp.lin2.W.value[...] = 0.0
    model.mlp.lin2.b.value[...] = -1.0
    kinds = [t.kind for t in model.transitions]
    model.mlp.lin2.b.value[kinds.index(LEFT_ARC)] = 2.0
    model.mlp.lin2.b.value[kinds.index(SHIFT)] = 1.0
    model.save(tmp_path / "parser.spnn")
    dump_treebank(tb, tmp_path / "in.conllu")
    capsys.readouterr()
    assert run(["parse", "--model", str(tmp_path / "parser.spnn"),
                "--in", str(tmp_path / "in.conllu"), "--out", str(tmp_path / "out.conllu")]) == 0
    out = capsys.readouterr().out
    assert f"parsed {len(tb)} sentences (input tags), {len(tb)} headless tokens attached " \
        f"to ROOT -> {tmp_path / 'out.conllu'}" in out.splitlines()
    pred = load_treebank(tmp_path / "out.conllu")
    assert [[t.head for t in tree.tokens] for tree in pred] == \
        [list(range(2, len(tree) + 1)) + [0] for tree in tb]
    assert all(tree.tokens[-1].deprel == "dep" for tree in pred)


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


TINY_CFG = ("word_dim = 6\ntag_dim = 4\nchar_dim = 4\nchar_hidden = 3\nenc_hidden = 6\n"
            "mlp_hidden = 8\nepochs = 1\n")
NO_TOKEN_BLOCK = "# a block of no token\n\n"
PUNCT_ONLY = "1\t.\t_\tPUNCT\t_\t_\t0\tpunct\t_\t_\n\n"


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """A one-epoch parser and tagger, and a test file led by a block of no token."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    train_path, test_path, cfg = (tmp_path / "train.conllu", tmp_path / "test.conllu",
                                  tmp_path / "train.cfg")
    assert run(["gen-synthetic", "--n", "12", "--out", str(train_path), "--seed", "1"]) == 0
    assert run(["gen-synthetic", "--n", "4", "--out", str(test_path), "--seed", "2"]) == 0
    test_path.write_text(NO_TOKEN_BLOCK + test_path.read_text())
    cfg.write_text(TINY_CFG)
    for command, name in (("train", "parser.spnn"), ("train-tagger", "tagger.spnn")):
        assert run([command, "--train", str(train_path), "--out", str(tmp_path / name),
                    "--config", str(cfg)]) == 0
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["parse", "--model", "parser.spnn"],
    ["parse", "--model", "parser.spnn", "--tagger", "tagger.spnn"],
    ["tag", "--model", "tagger.spnn"],
])
def test_parse_and_tag_pass_a_block_of_no_token_through(tiny_models, capsys, argv):
    tmp_path = tiny_models
    test_path, out = tmp_path / "test.conllu", tmp_path / "out.conllu"
    argv = [str(tmp_path / a) if a.endswith(".spnn") else a for a in argv]
    assert run(argv + ["--in", str(test_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    got, want = load_treebank(out), load_treebank(test_path)
    assert len(got) == len(want) == 5
    assert got[0].tokens == [] and got[0].comments[-1] == NO_TOKEN_BLOCK.strip()
    assert [t.forms() for t in got] == [t.forms() for t in want]


@pytest.mark.parametrize("command, name", [("train", "parser.spnn"),
                                           ("train-tagger", "tagger.spnn")])
def test_training_skips_a_block_of_no_token(tiny_models, capsys, command, name):
    """A comment-only block in the training data gives no example: the
    model is the one the other blocks train, array for array, and the
    count printed is of the 12 trees trained on, not of the 13 blocks."""
    tmp_path = tiny_models
    train_path, out = tmp_path / "blank-train.conllu", tmp_path / f"blank-{name}"
    train_path.write_text(NO_TOKEN_BLOCK + (tmp_path / "train.conllu").read_text())
    capsys.readouterr()
    assert run([command, "--train", str(train_path), "--out", str(out),
                "--config", str(tmp_path / "train.cfg")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    kind = "parser" if command == "train" else "tagger"
    assert f"trained {kind} on 12 sentences -> {out}" in captured.out.splitlines()
    got, want = (nn.load_checkpoint(path)["arrays"] for path in (out, tmp_path / name))
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize("command", ["train", "train-tagger"])
def test_training_data_of_no_token_exits_before_training(tiny_models, capsys, caplog,
                                                          command):
    tmp_path = tiny_models
    train_path, model_path = tmp_path / "no-token.conllu", tmp_path / "no-token.spnn"
    train_path.write_text(NO_TOKEN_BLOCK * 2)
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="scrambleparse.parser"):
        assert run([command, "--train", str(train_path), "--out", str(model_path),
                    "--config", str(tmp_path / "train.cfg")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error [scrambleparse.parser]: the training treebank has no token"]
    assert "epoch" not in caplog.text
    assert not model_path.exists()


def test_train_with_a_dev_block_of_no_token(tiny_models):
    tmp_path = tiny_models
    assert run(["train", "--train", str(tmp_path / "train.conllu"),
                "--dev", str(tmp_path / "test.conllu"), "--out", str(tmp_path / "dev.spnn"),
                "--config", str(tmp_path / "train.cfg")]) == 0


@pytest.mark.parametrize("command, dev", [
    ("train", PUNCT_ONLY),
    ("train", NO_TOKEN_BLOCK),
    ("train", ""),
    ("train-tagger", NO_TOKEN_BLOCK),
], ids=["punct-only", "no-token-block", "empty-file", "tagger-no-token-block"])
def test_dev_with_nothing_to_score_exits_before_training(tiny_models, capsys, caplog,
                                                         command, dev):
    tmp_path = tiny_models
    dev_path, model_path = tmp_path / "nothing.conllu", tmp_path / "nothing.spnn"
    dev_path.write_text(dev)
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="scrambleparse.parser"):
        assert run([command, "--train", str(tmp_path / "train.conllu"), "--dev", str(dev_path),
                    "--out", str(model_path), "--config", str(tmp_path / "train.cfg")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error [scrambleparse.parser]: the dev treebank has no token to score"]
    assert "epoch" not in caplog.text
    assert not model_path.exists()


def test_curve_prints_na_without_a_scored_token(tiny_models, capsys):
    tmp_path = tiny_models
    dev_path = tmp_path / "punct.conllu"
    dev_path.write_text(PUNCT_ONLY)
    capsys.readouterr()
    assert run(["curve", "--train", str(tmp_path / "train.conllu"), "--dev", str(dev_path),
                "--sizes", "4", "--config", str(tmp_path / "train.cfg")]) == 0
    assert capsys.readouterr().out.endswith("size\tLAS\tUAS\n4\tn/a\tn/a\n")
