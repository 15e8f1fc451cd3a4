"""Parser and tagger training against their separate reference loops.

``train_parser`` and ``train_tagger`` share one epoch loop (``_fit``) and
the two models share one ``save``. The functions below are the two loops
and the two ``save`` methods they replaced, kept as they were apart from
building the model through ``_init_model`` and reading the pseudo-projective
flag from ``cfg``. Training draws from the same
generator in the same order with the same arithmetic, so the parameters,
the checkpoint bytes and the epoch log lines must all be identical.

``ref_fit`` is the older arithmetic of the update: every gradient zeroed
before a sentence and backpropagated into from there, so a written
``-0.0`` reaches the step as ``0.0 + (-0.0) = +0.0``, and a plain
per-parameter step (``ref_step``). ``_fit`` writes each gradient once and
never zeroes one; its parameters must still be the same bytes.

The loops are per-sentence training, so every config here sets
``batch_sentences = 1``, and the checkpoint must be the bytes of one
written before that field existed.
"""

import logging
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrambleparse import nn, parser
from scrambleparse.conllu import Treebank
from scrambleparse.parser import (ParserModel, TaggerModel, TrainConfig, _init_model,
                                  build_vocabs, oracle_rollout, parse_batch, sentence_loss,
                                  tag_batch, train_parser, train_tagger)
from scrambleparse.projectivity import is_projective, projectivize
from scrambleparse.synthetic import default_grammar, gen_synthetic, uniform_orders

from helpers import random_nonprojective_tree
from test_nn_reference import ref_step

log = logging.getLogger("scrambleparse.parser")


def ref_train_parser(train, dev, cfg):
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    for tree in train:
        if not is_projective(tree):
            raise ValueError(f"training sentence {tree.label()} is non-projective; "
                             "projectivize first (the flag is recorded in the model)")
    vocabs = build_vocabs(train)
    model = _init_model("parser", cfg, vocabs)
    if cfg.embeddings_path:
        loaded = model.encoder.load_pretrained_words(cfg.embeddings_path)
        log.info("loaded %d pre-trained word vectors", loaded)

    examples = []
    for tree in train:
        idx_rows, seq = oracle_rollout(tree)
        gold_ids = [model.transition_id(t) for t in seq]
        examples.append((tree.forms(), tree.upos_tags(), idx_rows, gold_ids))

    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    best_las = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        order = rng.permutation(len(examples))
        total = 0.0
        n_steps = 0
        for i in order:
            words, tags, idx_rows, gold_ids = examples[i]
            (loss,), backprop = sentence_loss(model, [(words, tags, idx_rows, gold_ids)],
                                              training=True, rng=rng)
            backprop()
            opt.step()
            total += loss * len(gold_ids)
            n_steps += len(gold_ids)
        msg = f"epoch {epoch + 1}/{cfg.epochs}: loss/transition {total / n_steps:.4f}"
        if dev is not None and len(dev) > 0:
            from scrambleparse.metrics import score

            pred = Treebank(parse_batch(model, dev.trees)[0])
            las = score(dev, pred).las
            msg += f", dev LAS {las:.2f}"
            if las > best_las:
                best_las = las
                best_values = [p.value.copy() for p in model.params()]
        log.info(msg)
    if best_values is not None:
        for p, v in zip(model.params(), best_values):
            p.value[...] = v
    return model


def ref_train_tagger(train, dev, cfg):
    if len(train) == 0:
        raise ValueError("training treebank is empty")
    vocabs = build_vocabs(train)
    if len(vocabs.tags) <= 3:  # only the reserved entries
        raise ValueError("training data carries no POS tags")
    model = _init_model("tagger", cfg, vocabs)
    examples = [(tree.forms(), [vocabs.tags.id(t) for t in tree.upos_tags()])
                for tree in train]
    rng = np.random.default_rng(cfg.seed)
    opt = nn.MomentumSGD(model.params(), lr=cfg.lr, momentum=cfg.momentum, l2=cfg.l2,
                         clip_norm=cfg.clip_norm)
    best_acc = -1.0
    best_values = None
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        order = rng.permutation(len(examples))
        total = 0.0
        n_tok = 0
        for i in order:
            words, gold_ids = examples[i]
            ctx, enc_cache = model.encoder.encode([words], None, training=True, rng=rng)
            logits, mlp_cache = model.mlp.forward(ctx[1:], training=True, rng=rng)
            loss, dlogits = nn.nll_loss(logits, gold_ids)
            dctx = np.zeros_like(ctx)
            dctx[1:] = model.mlp.backward(dlogits / len(words), mlp_cache)
            model.encoder.backward(dctx, enc_cache)
            opt.step()
            total += loss.sum()
            n_tok += len(words)
        msg = f"tagger epoch {epoch + 1}/{cfg.epochs}: loss/token {total / n_tok:.4f}"
        if dev is not None and len(dev) > 0:
            predicted = tag_batch(model, [t.forms() for t in dev])
            correct = sum(sum(p == g.upos for p, g in zip(tags, t.tokens))
                          for tags, t in zip(predicted, dev))
            n_dev = sum(len(t) for t in dev)
            acc = 100.0 * correct / n_dev
            msg += f", dev acc {acc:.2f}"
            if acc > best_acc:
                best_acc = acc
                best_values = [p.value.copy() for p in model.params()]
        log.info(msg)
    if best_values is not None:
        for p, v in zip(model.params(), best_values):
            p.value[...] = v
    return model


def _old_cfg(cfg):
    """The config as the older ``TrainConfig``, which had no
    ``batch_sentences``, saved it: these loops are per-sentence training."""
    assert cfg.batch_sentences == 1
    return {k: v for k, v in cfg.__dict__.items() if k != "batch_sentences"}


def ref_save_parser(self, path, extra_meta=None):
    meta = {
        "kind": "parser",
        "cfg": _old_cfg(self.cfg),
        "vocab_items": {"words": self.vocabs.words.itos,
                        "tags": self.vocabs.tags.itos,
                        "chars": self.vocabs.chars.itos,
                        "labels": self.vocabs.labels.itos},
    }
    meta.update(extra_meta or {})
    nn.save_checkpoint(path, self.params(), meta)


def ref_save_tagger(self, path, extra_meta=None):
    meta = {
        "kind": "tagger",
        "cfg": _old_cfg(self.cfg),
        "vocab_items": {"words": self.vocabs.words.itos,
                        "tags": self.vocabs.tags.itos,
                        "chars": self.vocabs.chars.itos,
                        "labels": self.vocabs.labels.itos},
    }
    meta.update(extra_meta or {})
    nn.save_checkpoint(path, self.params(), meta)


# A learning rate high enough that dev scores move between epochs, so the
# best-epoch restore picks an epoch other than the last in some cases.
BASE = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                   mlp_hidden=8, mlp_dropout=0.0, word_dropout=0.0, epochs=3,
                   seed=3, lr=0.3, batch_sentences=1)

CASES = {
    "plain": (dict(), False),
    "dev": (dict(), True),
    "lr_decay": (dict(lr_decay=0.5), True),
    "dropout": (dict(word_dropout=0.25, mlp_dropout=0.3), True),
}


def _data(pseudo_projective=False):
    g = default_grammar(order_weights=uniform_orders())
    train = gen_synthetic(g, n=14, seed=5)
    dev = gen_synthetic(g, n=6, seed=6)
    if pseudo_projective:
        rng = np.random.default_rng(0)
        lifted = [projectivize(random_nonprojective_tree(rng, n_lifts=k))[0] for k in (1, 2)]
        train = Treebank(train.trees + lifted)
    return train, dev


def _run(train_fn, save_fn, train, dev, cfg, path, caplog):
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="scrambleparse.parser"):
        model = train_fn(train, dev, cfg)
    save_fn(model, path, extra_meta={"command": "train --test"})
    return model, [r.getMessage() for r in caplog.records], path.read_bytes()


def _assert_same(ref, new):
    (ref_model, ref_log, ref_bytes), (model, lines, data) = ref, new
    assert lines == ref_log
    for p, q in zip(ref_model.params(), model.params(), strict=True):
        assert p.name == q.name and p.value.tobytes() == q.value.tobytes()
    assert data == ref_bytes


@pytest.mark.parametrize("case", [*CASES, "pseudo_projective"])
def test_train_parser_matches_reference(case, tmp_path, caplog):
    overrides, with_dev = CASES.get(case, (dict(pseudo_projective=True), True))
    cfg = replace(BASE, **overrides)
    train, dev = _data(cfg.pseudo_projective)
    dev = dev if with_dev else None
    ref = _run(ref_train_parser, ref_save_parser, train, dev, cfg, tmp_path / "ref.spnn", caplog)
    new = _run(train_parser, ParserModel.save, train, dev, cfg, tmp_path / "new.spnn", caplog)
    _assert_same(ref, new)
    assert len(new[1]) == cfg.epochs
    assert ParserModel.load(tmp_path / "new.spnn").cfg.pseudo_projective is cfg.pseudo_projective


@pytest.mark.parametrize("case", list(CASES))
def test_train_tagger_matches_reference(case, tmp_path, caplog):
    overrides, with_dev = CASES[case]
    cfg = replace(BASE, **overrides)
    train, dev = _data()
    dev = dev if with_dev else None
    ref = _run(ref_train_tagger, ref_save_tagger, train, dev, cfg, tmp_path / "ref.spnn", caplog)
    new = _run(train_tagger, TaggerModel.save, train, dev, cfg, tmp_path / "new.spnn", caplog)
    _assert_same(ref, new)
    assert len(new[1]) == cfg.epochs


@settings(max_examples=8, deadline=None)
@given(scores=st.lists(st.sampled_from([10.0, 20.0, 30.0]), min_size=3, max_size=3))
def test_train_parser_restores_best_epoch_values(scores):
    """With a dev set, training ends on the values the best-scoring epoch
    was scored with (the first of equal best scores), read through the
    parameter views of the optimizer's buffer."""
    train, dev = _data()
    snapshots = []
    real_parse_batch = parser.parse_batch

    def parse_batch(model, trees):
        snapshots.append([p.value.copy() for p in model.params()])
        return real_parse_batch(model, trees)

    dev_scores = iter(scores)
    with mock.patch.object(parser, "parse_batch", parse_batch), \
            mock.patch.object(parser.metrics, "score",
                              lambda gold, pred: SimpleNamespace(las=next(dev_scores))):
        model = train_parser(train, dev, BASE)
    assert len(snapshots) == BASE.epochs
    best = snapshots[scores.index(max(scores))]
    for p, v in zip(model.params(), best, strict=True):
        assert p.value.tobytes() == v.tobytes(), p.name


def ref_fit(model, examples):
    """``_fit`` without a dev set, on the older gradient arithmetic."""
    cfg = model.cfg
    params = model.params()
    velocity = [np.zeros(p.value.shape) for p in params]
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        lr = cfg.lr / (1.0 + epoch * cfg.lr_decay)
        for i in rng.permutation(len(examples)):
            for p in params:
                p.grad[...] = 0.0
            _, backprop = sentence_loss(model, [examples[i]], training=True, rng=rng)
            backprop()
            for p in params:
                p.grad[...] = 0.0 + p.grad
            ref_step(params, velocity, lr, cfg.momentum, cfg.l2, cfg.clip_norm)
    return model


def _examples(model, trees):
    if model.kind == "tagger":
        return [(tree.forms(), None, np.arange(1, len(tree) + 1)[:, None],
                 [model.vocabs.tags.id(t) for t in tree.upos_tags()]) for tree in trees]
    rollouts = [oracle_rollout(tree) for tree in trees]
    return [(tree.forms(), tree.upos_tags(), idx_rows, [model.transition_id(t) for t in seq])
            for tree, (idx_rows, seq) in zip(trees, rollouts)]


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["parser", "tagger"]), l2=st.sampled_from([0.0, 1e-6]),
       momentum=st.sampled_from([0.0, 0.9]), clip_norm=st.sampled_from([5.0, 0.05]),
       mlp_dropout=st.sampled_from([0.0, 0.3]), zero_rows=st.booleans())
def test_fit_matches_zeroed_gradient_reference(kind, l2, momentum, clip_norm, mlp_dropout,
                                               zero_rows):
    """At ``clip_norm = 0.05`` every step clips; with ``momentum = 0`` and
    ``l2 = 0`` a written ``-0.0`` can reach the velocity. ``zero_rows``
    starts some word vectors at ``-0.0``, as a vectors file can."""
    cfg = replace(BASE, l2=l2, momentum=momentum, clip_norm=clip_norm, mlp_dropout=mlp_dropout,
                  word_dropout=0.2, epochs=2)
    trees = _data()[0].trees
    ref, new = (_init_model(kind, cfg, build_vocabs(trees)) for _ in range(2))
    if zero_rows:
        for model in (ref, new):
            model.encoder.word_emb.value[3::4] = -0.0
    ref_fit(ref, _examples(ref, trees))
    parser._fit(new, _examples(new, trees))
    for p, q in zip(ref.params(), new.params(), strict=True):
        assert p.value.tobytes() == q.value.tobytes(), p.name
