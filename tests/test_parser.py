import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (check_gradients, random_nonprojective_tree, random_projective_tree,
                     toy_treebank)
from scrambleparse import arceager, nn
from scrambleparse import parser
from scrambleparse.conllu import DepTree, Token, Treebank, validate_tree
from scrambleparse.metrics import score
from scrambleparse.parser import (FEATURE_SELECTORS, ParserModel, TaggerModel,
                                  TrainConfig, build_vocabs, feature_indices,
                                  oracle_rollout, parse, parse_batch, parse_tree,
                                  sentence_loss, tag_batch, train_parser,
                                  train_tagger, _init_model)
from scrambleparse.projectivity import HEAD_SEP, PATH_MARK, deprojectivize, projectivize
from scrambleparse.scramble import OrderLabel
from scrambleparse.synthetic import default_grammar, gen_synthetic, uniform_orders

TINY = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                   mlp_hidden=8, mlp_dropout=0.0, word_dropout=0.0, epochs=2,
                   seed=1, lr=0.05)


def tiny_model():
    tb = toy_treebank()
    return _init_model("parser", TINY, build_vocabs(tb)), tb


class TestEncoder:
    def test_output_shape_covers_root(self):
        model, tb = tiny_model()
        words, tags = tb[1].forms(), tb[1].upos_tags()
        ctx, _, _ = model.encoder.encode([words], [tags])
        assert ctx.shape == (len(words) + 1, 2 * TINY.enc_hidden)

    def test_rejects_empty_and_misaligned(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError):
            model.encoder.encode([[]], [[]])
        with pytest.raises(ValueError):
            model.encoder.encode([["a", "b"]], [["N"]])

    def test_oov_word_maps_to_unk_and_chars_differentiate(self):
        model, _ = tiny_model()
        cache1 = model.encoder.encode([["zzz"]], [["N"]], cache=True)[2]
        assert cache1[0].ravel().tolist() == [1, 0]  # ROOT row then <unk>
        # Both words are OOV (same UNK embedding) and built from known
        # characters, so only the character encoder can tell them apart.
        a, _, _ = model.encoder.encode([["nana"]], [["N"]])
        b, _, _ = model.encoder.encode([["nana"]], [["N"]])
        c, _, _ = model.encoder.encode([["anan"]], [["N"]])
        assert model.encoder.encode([["nana"]], [["N"]], cache=True)[2][0].ravel().tolist() == [1, 0]
        assert model.encoder.encode([["anan"]], [["N"]], cache=True)[2][0].ravel().tolist() == [1, 0]
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_pretrained_words_set_only_vocabulary_rows(self, tmp_path, caplog):
        """Rows of vocabulary words are set; other words, and lines of
        another width (a word2vec header, a short row), are left alone."""
        model, _ = tiny_model()
        expected = model.encoder.word_emb.value.copy()
        expected[model.vocabs.words.id("ana")] = [1, 2, 3, 4, 5, 6]
        path = tmp_path / "vectors.txt"
        path.write_text("3 6\nana 1 2 3 4 5 6\nzzz 9 9 9 9 9 9\nbo 1 2 3\nbo nan\n")
        with caplog.at_level("INFO", logger="scrambleparse.parser"):
            model.encoder.load_pretrained_words(path)
        assert np.array_equal(model.encoder.word_emb.value, expected)
        assert "loaded 1 pre-trained word vectors, skipped 3 lines of another width" in caplog.text

    def test_word_dropout_rate_monte_carlo(self):
        model, tb = tiny_model()
        model.encoder.cfg = dataclasses.replace(TINY, word_dropout=0.1)
        rng = np.random.default_rng(0)
        words = tb[1].forms() * 4  # 12 tokens per call
        tags = tb[1].upos_tags() * 4
        dropped = total = 0
        while total < 10_000:
            _, _, cache = model.encoder.encode([words], [tags], training=True, rng=rng,
                                               cache=True)
            drop = cache[1]
            dropped += int(drop.sum())
            total += len(drop)
        assert abs(dropped / total - 0.1) < 0.01

    def test_no_dropout_at_inference(self):
        model, tb = tiny_model()
        _, _, cache = model.encoder.encode([tb[0].forms()], [tb[0].upos_tags()],
                                           training=False, cache=True)
        assert not cache[1].any()


def reference_features(c, ctx):
    """The concatenated 11 context vectors of a configuration, absent
    nodes as zeros: the classifier input the decoder used before it split
    the first layer by feature slot."""
    dim = ctx.shape[1]
    row = np.zeros(len(FEATURE_SELECTORS) * dim)
    for slot, idx in enumerate(feature_indices(c)):
        if idx >= 0:
            row[slot * dim:(slot + 1) * dim] = ctx[idx]
    return row


def reference_parse(model, words, tags):
    """The per-sentence greedy decode ``parse_batch`` replaced: one
    encoder pass per sentence, one classifier row per transition."""
    ctx, _, _ = model.encoder.encode([words], [tags])
    table = model.mlp.table(ctx)
    c = arceager.Configuration(len(words))
    while not arceager.is_terminal(c):
        logits, _ = model.mlp.forward(np.array([feature_indices(c)]), table)
        c = arceager.apply(c, model.transitions[int(np.argmax(logits[0] + model.legal_mask(c)))])
    tokens = [Token(index=i + 1, form=w, upos=t) for i, (w, t) in enumerate(zip(words, tags))]
    return arceager.tree_from_config(c, tokens, upos=list(tags))


class TestFeaturize:
    def test_template_must_have_eleven(self):
        assert len(FEATURE_SELECTORS) == 11
        _, tb = tiny_model()
        for tree in tb:
            idx_rows, _ = oracle_rollout(tree)
            assert {len(row) for row in idx_rows} == {11}

    def test_initial_config_slots(self):
        c = arceager.Configuration(4)
        idxs = feature_indices(c)
        # s0 = ROOT, b0 = 1; everything else absent.
        assert idxs[0] == 0 and idxs[3] == 1
        assert all(i == -1 for k, i in enumerate(idxs) if k not in (0, 3))

    def test_terminal_config_buffer_slots_null(self):
        c = arceager.Configuration(1)
        c = arceager.apply(c, arceager.Transition(arceager.RIGHT_ARC, "root"))
        idxs = feature_indices(c)
        assert idxs[3] == -1 and idxs[10] == -1

    def test_width_constant_and_null_is_zero(self):
        # The split first layer: summing one row of the slot table per
        # feature (the zero row for absent ones) gives the concatenated
        # features times W1, along a whole decode.
        model, tb = tiny_model()
        tree = tb[1]
        ctx, _, _ = model.encoder.encode([tree.forms()], [tree.upos_tags()])
        table = model.mlp.table(ctx)
        absent = len(ctx)
        assert not table[:, absent].any()
        c = arceager.Configuration(len(tree))
        while not arceager.is_terminal(c):
            rows = np.array(feature_indices(c))
            split = table[np.arange(len(rows)), np.where(rows < 0, absent, rows)].sum(axis=0)
            assert np.allclose(split, reference_features(c, ctx) @ model.mlp.W1.value,
                               rtol=1e-12, atol=1e-12)
            kind = sorted(arceager.legal_transitions(c))[0]
            label = "x" if kind in (arceager.LEFT_ARC, arceager.RIGHT_ARC) else None
            c = arceager.apply(c, arceager.Transition(kind, label))


def _chunk_treebank() -> Treebank:
    """Repeated forms, and long forms that share their first five characters."""
    sents = [[("ramesh", "N", "s"), ("ne", "P", "case"), ("kitabein", "N", "o"), ("di", "V", "root")],
             [("kitabghar", "N", "o"), ("ramesh", "N", "s"), ("ne", "P", "case"), ("di", "V", "root")],
             [("ne", "P", "case"), ("kitab", "N", "o"), ("ne", "P", "case"), ("di", "V", "root")]]
    trees = []
    for sent in sents:
        root = next(i for i, (_, _, rel) in enumerate(sent, start=1) if rel == "root")
        trees.append(DepTree([Token(i, form, upos=tag, head=0 if rel == "root" else root,
                                    deprel=rel)
                              for i, (form, tag, rel) in enumerate(sent, start=1)]))
    return Treebank(trees)


_KNOWN = ["ramesh", "ne", "kitabein", "kitabghar", "kitab", "di"]
_word = st.one_of(st.sampled_from(_KNOWN),
                  st.text(alphabet="abkmnrst\u00e9\u0915\u03c9", min_size=1, max_size=9))
_sentence = st.lists(st.tuples(_word, st.sampled_from(["N", "P", "V", "ADJ"])),
                     min_size=1, max_size=9)
_batch = st.lists(_sentence, min_size=1, max_size=7)


def _trees(sentences):
    return [DepTree([Token(i, w, upos=t, lemma=w.upper(), misc=f"m{i}")
                     for i, (w, t) in enumerate(sent, start=1)], sentence_id=f"s{k}",
                    comments=[f"# text = {k}"])
            for k, sent in enumerate(sentences)]


class TestBatchedInference:
    """``parse_batch`` and ``tag_batch`` against one-sentence calls and the
    per-sentence reference decode; form strategies mix known words, OOV
    words and characters the vocabulary has never seen."""

    CFG = dataclasses.replace(TINY, max_word_chars=5)

    @pytest.fixture(scope="class")
    def models(self):
        tb = _chunk_treebank()
        return train_parser(tb, None, self.CFG), train_tagger(tb, None, self.CFG)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=_batch, chunk_tokens=st.sampled_from([1, 12, 30, 1024]))
    def test_parse_batch_equals_single_sentence_parse(self, models, sentences, chunk_tokens):
        model, _ = models
        trees = _trees(sentences)
        with mock.patch.object(parser, "CHUNK_TOKENS", chunk_tokens):
            batch, fallbacks = parse_batch(model, trees)
        assert len(batch) == len(trees)
        headless = 0
        for tree, pred in zip(trees, batch):
            assert validate_tree(pred) == []
            assert [(t.index, t.form, t.upos, t.lemma, t.misc) for t in pred.tokens] == \
                [(t.index, t.form, t.upos, t.lemma, t.misc) for t in tree.tokens]
            assert (pred.sentence_id, pred.comments) == (tree.sentence_id, tree.comments)
            assert pred.tokens == parse_tree(model, tree).tokens
            single = parse(model, tree.forms(), tree.upos_tags())
            assert [(t.head, t.deprel) for t in single.tokens] == \
                [(t.head, t.deprel) for t in pred.tokens]
            ref = reference_parse(model, tree.forms(), tree.upos_tags())
            assert ref.tokens == single.tokens
            headless += parse_batch(model, [tree])[1]
        assert fallbacks == headless

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=_batch, chunk_tokens=st.sampled_from([1, 12, 30, 1024]))
    def test_char_bilstm_runs_once_per_truncated_form_per_chunk(self, models, sentences,
                                                                chunk_tokens):
        model, _ = models
        trees = _trees(sentences)
        encoder = model.encoder
        batches = []

        def counting(C, lengths, cache=True):
            batches.append(C.shape[1])
            return type(encoder.char_rnn).forward(encoder.char_rnn, C, lengths, cache)

        with mock.patch.object(parser, "CHUNK_TOKENS", chunk_tokens), \
                mock.patch.object(encoder.char_rnn, "forward", counting):
            parse_batch(model, trees)
            chunks = list(parser._chunks([len(t) for t in trees]))
        k = self.CFG.max_word_chars
        assert batches == [len({t.form[:k] for i in chunk for t in trees[i].tokens})
                           for chunk in chunks]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=_batch, chunk_tokens=st.sampled_from([1, 12, 30, 1024]))
    def test_tag_batch_equals_tag(self, models, sentences, chunk_tokens):
        _, tagger = models
        words = [[w for w, _ in sent] for sent in sentences]
        with mock.patch.object(parser, "CHUNK_TOKENS", chunk_tokens):
            batch = tag_batch(tagger, words)
        assert batch == [tag_batch(tagger, [ws])[0] for ws in words]
        for ws, tags in zip(words, batch):
            ctx, _, _ = tagger.encoder.encode([ws], None)
            logits, _ = tagger.mlp.forward(np.arange(1, len(ctx))[:, None], tagger.mlp.table(ctx))
            assert tags == [tagger.vocabs.tags.itos[i] for i in logits.argmax(axis=1)]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sentences=_batch)
    def test_batched_encode_matches_one_sentence_encode(self, models, sentences):
        model, _ = models
        words = [[w for w, _ in sent] for sent in sentences]
        tags = [[t for _, t in sent] for sent in sentences]
        rows, lengths, cache = model.encoder.encode(words, tags)
        assert cache is None
        assert list(lengths) == [len(ws) + 1 for ws in words]
        ref = np.concatenate([model.encoder.encode([ws], [ts], cache=True)[0]
                              for ws, ts in zip(words, tags)])
        assert np.allclose(rows, ref, rtol=1e-12, atol=1e-12)

    def test_empty_inputs(self, models):
        """No sentence gives no output. A sentence of no token is not
        encoded (the encoder refuses one) and passes through with its
        comments, among the others."""
        model, tagger = models
        assert parse_batch(model, []) == ([], 0)
        assert tag_batch(tagger, []) == []
        with pytest.raises(ValueError, match="cannot encode an empty sentence"):
            model.encoder.encode([["a"], []], [["NOUN"], []])
        blank = DepTree([], comments=["# a block of no token"])
        word = DepTree([Token(1, "a", upos="NOUN", head=0, deprel="root")])
        trees, _ = parse_batch(model, [blank, word, blank])
        assert [(t.tokens, t.comments) for t in trees] == [
            ([], blank.comments), (parse_batch(model, [word])[0][0].tokens, []),
            ([], blank.comments)]
        assert trees[0] is not blank
        assert tag_batch(tagger, [[], ["a"], []]) == [[], tag_batch(tagger, [["a"]])[0], []]


class TestTrainingAndParse:
    def test_train_rejects_empty_and_nonprojective(self):
        with pytest.raises(ValueError):
            train_parser(Treebank([]), None, TINY)
        bad = DepTree([Token(1, "w1", head=3, deprel="a"),
                       Token(2, "w2", head=0, deprel="root"),
                       Token(3, "w3", head=2, deprel="c"),
                       Token(4, "w4", head=2, deprel="d")])
        with pytest.raises(ValueError, match="non-projective"):
            train_parser(Treebank([bad]), None, TINY)

    def test_training_is_bit_deterministic(self):
        tb = toy_treebank()
        m1 = train_parser(tb, tb, TINY)
        m2 = train_parser(tb, tb, TINY)
        for a, b in zip(m1.params(), m2.params()):
            assert a.value.tobytes() == b.value.tobytes()

    def test_union_training_consumes_all_trees(self, caplog):
        tb = toy_treebank()
        union = Treebank(tb.trees + tb.trees)
        import logging

        with caplog.at_level(logging.INFO, logger="scrambleparse.parser"):
            train_parser(union, None, dataclasses.replace(TINY, epochs=1))
        # 6 sentences, oracle length = 2n per sentence here; just check the
        # loop saw every tree via the per-epoch log line.
        assert any("epoch 1/1" in r.message for r in caplog.records)

    def test_parse_output_always_valid(self):
        model, tb = tiny_model()
        rng = np.random.default_rng(3)
        known = list(model.vocabs.words.itos[3:]) or ["w"]
        for _ in range(25):
            n = int(rng.integers(1, 9))
            words = [known[int(rng.integers(len(known)))] if rng.random() < 0.5
                     else f"oov{rng.integers(100)}" for _ in range(n)]
            tags = [model.vocabs.tags.itos[3:][int(rng.integers(max(1, len(model.vocabs.tags) - 3)))]
                    for _ in range(n)]
            tree = parse(model, words, tags)
            assert validate_tree(tree) == []
            assert len(tree) == n

    def test_parse_single_token_attaches_to_root(self):
        model, _ = tiny_model()
        tree = parse(model, ["solo"], ["N"])
        assert tree.token(1).head == 0

    def test_memorization_small(self):
        tb = gen_synthetic(default_grammar({OrderLabel.SOV: 1.0}), 8, seed=2)
        cfg = TrainConfig(word_dim=24, tag_dim=12, char_dim=12, char_hidden=16,
                          enc_hidden=48, mlp_hidden=64, mlp_dropout=0.0,
                          word_dropout=0.0, epochs=20, seed=5, lr=0.1,
                          momentum=0.9, lr_decay=0.05)
        model = train_parser(tb, tb, cfg)
        pred = Treebank([parse_tree(model, t) for t in tb])
        assert score(tb, pred, exclude_punct=False).las == 100.0

    def test_end_to_end_gradients(self):
        model, tb = tiny_model()
        examples = []
        for tree in tb:
            idx_rows, seq = oracle_rollout(tree)
            gold = [model.transition_id(t) for t in seq]
            examples.append((tree.forms(), tree.upos_tags(), idx_rows, gold))

        def loss_fn():
            return sum(sentence_loss(model, [(w, tg, ir, g)])[0]
                       for w, tg, ir, g in examples)

        # Each backprop writes its sentence's gradients; the loss sums them.
        totals = [np.zeros(p.value.shape) for p in model.params()]
        for w, tg, ir, g in examples:
            _, back = sentence_loss(model, [(w, tg, ir, g)])
            back()
            for total, p in zip(totals, model.params()):
                total += p.grad
        for total, p in zip(totals, model.params()):
            p.grad[...] = total
        err = check_gradients(loss_fn, model.params(), max_coords=6,
                                 rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_pseudo_projective_flag_decodes_output(self):
        # Train on projectivized trees; parse() must deprojectivize, so no
        # encoded separators appear in emitted labels.
        bad = DepTree([Token(1, "w1", upos="A", head=3, deprel="a"),
                       Token(2, "w2", upos="B", head=0, deprel="root"),
                       Token(3, "w3", upos="C", head=2, deprel="c"),
                       Token(4, "w4", upos="D", head=2, deprel="d")])
        proj, _ = projectivize(bad)
        tb = Treebank([proj] * 4)
        cfg = dataclasses.replace(TINY, pseudo_projective=True, epochs=25, lr=0.1,
                                  word_dim=12, enc_hidden=16, mlp_hidden=24)
        model = train_parser(tb, None, cfg)
        assert model.cfg.pseudo_projective
        out = parse(model, bad.forms(), bad.upos_tags())
        assert validate_tree(out) == []
        from scrambleparse.projectivity import HEAD_SEP, PATH_MARK

        for t in out.tokens:
            assert HEAD_SEP not in t.deprel and PATH_MARK not in t.deprel

    def test_pseudo_projective_training_projectivizes_its_trees(self):
        """With the flag, ``train_parser`` takes non-projective trees as they
        are: it trains as on their projectivized copies, and the model's
        parses are those of the same weights without the flag,
        deprojectivized."""
        rng = np.random.default_rng(4)
        raw = Treebank([random_nonprojective_tree(rng, n_lifts=k) for k in (1, 2, 1)])
        cfg = dataclasses.replace(TINY, pseudo_projective=True)
        model = train_parser(raw, None, cfg)
        lifted = train_parser(Treebank([projectivize(t)[0] for t in raw]), None, cfg)
        for p, q in zip(model.params(), lifted.params(), strict=True):
            assert p.value.tobytes() == q.value.tobytes()
        plain = dataclasses.replace(model, cfg=TINY)
        trees, _ = parse_batch(model, raw.trees)
        assert [t.tokens for t in trees] == [
            deprojectivize(t).tokens for t in parse_batch(plain, raw.trees)[0]]
        assert all(HEAD_SEP not in t.deprel and PATH_MARK not in t.deprel
                   for tree in trees for t in tree.tokens)

    def test_load_draws_no_random_initialisation(self, tmp_path, monkeypatch):
        tb = toy_treebank()
        model = train_parser(tb, None, TINY)
        model.save(tmp_path / "parser.spnn")
        tagger = train_tagger(tb, None, dataclasses.replace(TINY, epochs=1))
        tagger.save(tmp_path / "tagger.spnn")

        def no_generator(*args, **kwargs):
            raise AssertionError("load drew a random initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for cls, path, saved in ((ParserModel, "parser.spnn", model),
                                 (TaggerModel, "tagger.spnn", tagger)):
            back = cls.load(tmp_path / path)
            for p, q in zip(saved.params(), back.params()):
                assert p.name == q.name and p.value.tobytes() == q.value.tobytes()

    def test_load_binds_views_of_one_buffer_and_allocates_no_gradient(self, tmp_path):
        model = train_parser(toy_treebank(), None, TINY)
        model.save(tmp_path / "parser.spnn")
        back = ParserModel.load(tmp_path / "parser.spnn")
        buffer = back.params()[0].value.base
        assert buffer is not None
        assert all(p.value.base is buffer and p._grad is None for p in back.params())

    @pytest.mark.parametrize("edit, problem", [
        (lambda m: m["cfg"].update(no_such_field=1), "cfg has unknown field 'no_such_field'"),
        (lambda m: m["cfg"].update(word_dim="6"), "word_dim must be int, got '6'"),
        (lambda m: m["cfg"].update(pseudo_projective=0), "pseudo_projective must be bool, got 0"),
        (lambda m: m.update(cfg=[1, 2]), "cfg is not a mapping"),
        (lambda m: m["vocab_items"].pop("chars"), "vocab_items is not"),
        (lambda m: m["vocab_items"]["labels"].append(7), "vocab_items is not"),
        (lambda m: m["cfg"].update(word_dim=7), r"word_emb has shape \(\d+, 6\), the model's is"),
        (lambda m: m["cfg"].update(enc_layers=1), "holds arrays the model does not have: enc.1"),
        (lambda m: m["cfg"].update(enc_layers=3), "no parameter enc.2"),
        (lambda m: m["cfg"].update(enc_layers=0), "enc_layers must be finite and at least 1"),
    ])
    def test_load_rejects_meta_that_does_not_describe_the_arrays(self, tmp_path, edit, problem):
        model = parser._init_model("parser", TINY, parser.build_vocabs(toy_treebank()))
        path = tmp_path / "parser.spnn"
        model.save(path)
        meta = nn.load_checkpoint(path)["meta"]
        edit(meta)
        nn.save_checkpoint(path, model.params(), meta)
        with pytest.raises(ValueError, match=problem) as err:
            ParserModel.load(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_checkpoint_round_trip_preserves_parses(self, tmp_path):
        tb = toy_treebank()
        model = train_parser(tb, None, TINY)
        path = tmp_path / "parser.spnn"
        model.save(path)
        back = ParserModel.load(path)
        for tree in tb:
            a = parse_tree(model, tree)
            b = parse_tree(back, tree)
            assert a.tokens == b.tokens
        for p, q in zip(model.params(), back.params()):
            assert p.value.tobytes() == q.value.tobytes()

    @pytest.mark.parametrize("old_value", [True, False])
    def test_checkpoint_with_a_top_level_pseudo_projective_key_loads(self, tmp_path, old_value):
        """Checkpoints once carried a copy of ``cfg.pseudo_projective`` in
        their meta; such a file still loads, whatever the copy says, and
        parses as the ``cfg`` it holds directs."""
        rng = np.random.default_rng(4)
        raw = Treebank([random_nonprojective_tree(rng, n_lifts=k) for k in (1, 2, 1)])
        model = train_parser(raw, None, dataclasses.replace(TINY, pseudo_projective=True))
        path = tmp_path / "parser.spnn"
        model.save(path)
        meta = nn.load_checkpoint(path)["meta"]
        assert "pseudo_projective" not in meta
        meta["pseudo_projective"] = old_value
        nn.save_checkpoint(tmp_path / "old.spnn", model.params(), meta)
        back = ParserModel.load(tmp_path / "old.spnn")
        assert back.cfg == model.cfg
        for p, q in zip(model.params(), back.params(), strict=True):
            assert p.value.tobytes() == q.value.tobytes()
        want, got = parse_batch(model, raw.trees), parse_batch(back, raw.trees)
        assert [t.tokens for t in got[0]] == [t.tokens for t in want[0]]
        assert got[1] == want[1]

    def test_tagger_checkpoint_kind_guard(self, tmp_path):
        tb = toy_treebank()
        for train, wrong_cls, kind in ((train_parser, TaggerModel, "tagger"),
                                       (train_tagger, ParserModel, "parser")):
            path = tmp_path / "model.spnn"
            train(tb, None, TINY).save(path)
            with pytest.raises(ValueError, match=f"not a {kind}"):
                wrong_cls.load(path)


class TestTagger:
    def test_suffix_determined_tags(self):
        rng = np.random.default_rng(8)
        stems = ["ba", "do", "ki", "mu", "pe", "ra", "su", "ta", "vo", "ze"]

        def make_tb(n, seed):
            r = np.random.default_rng(seed)
            trees = []
            for i in range(n):
                tokens = []
                for j in range(1, 5):
                    stem = stems[int(r.integers(len(stems)))] + stems[int(r.integers(len(stems)))]
                    if r.random() < 0.5:
                        form, tag = stem + "xx", "AXE"
                    else:
                        form, tag = stem + "oo", "BOO"
                    tokens.append(Token(j, form, upos=tag, head=0 if j == 1 else 1,
                                        deprel="root" if j == 1 else "dep"))
                trees.append(DepTree(tokens))
            return Treebank(trees)

        train = make_tb(60, 1)
        held_out = make_tb(40, 2)  # new stem combinations, same suffixes
        cfg = TrainConfig(word_dim=8, char_dim=8, char_hidden=10, enc_hidden=12,
                          mlp_hidden=16, mlp_dropout=0.0, word_dropout=0.1,
                          epochs=25, seed=4, lr=0.2, momentum=0.5, lr_decay=0.05)
        model = train_tagger(train, train, cfg)
        correct = total = 0
        for tree in held_out:
            tags = tag_batch(model, [tree.forms()])[0]
            assert len(tags) == len(tree)
            correct += sum(p == t.upos for p, t in zip(tags, tree.tokens))
            total += len(tree)
        assert correct / total > 0.99

    def test_single_tag_inventory_trivial(self):
        trees = [DepTree([Token(1, f"w{i}", upos="ONLY", head=0, deprel="root")])
                 for i in range(6)]
        tb = Treebank(trees)
        cfg = TrainConfig(word_dim=4, char_dim=4, char_hidden=3, enc_hidden=4,
                          mlp_hidden=6, mlp_dropout=0.0, word_dropout=0.0,
                          epochs=1, seed=1, lr=0.01)
        model = train_tagger(tb, None, cfg)
        assert tag_batch(model, [["anything", "at", "all"]])[0] == ["ONLY"] * 3

    def test_tagger_rejects_empty(self):
        with pytest.raises(ValueError):
            train_tagger(Treebank([]), None, TINY)

    def test_tagger_deterministic(self):
        tb = toy_treebank()
        cfg = dataclasses.replace(TINY, epochs=2)
        m1 = train_tagger(tb, None, cfg)
        m2 = train_tagger(tb, None, cfg)
        for a, b in zip(m1.params(), m2.params()):
            assert a.value.tobytes() == b.value.tobytes()

    def test_tag_oov_heavy_input_total(self):
        tb = toy_treebank()
        model = train_tagger(tb, None, dataclasses.replace(TINY, epochs=1))
        out = tag_batch(model, [["xqj", "zzzz", "%%%", "a"]])[0]
        assert len(out) == 4
        assert all(isinstance(t, str) and t for t in out)


class TestConfigFile:
    def test_round_trip_key_values(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lr = 0.5\nepochs=3\n# comment\nword_dropout = 0.0\n"
                        "pseudo_projective = true\n")
        cfg = TrainConfig.from_file(path)
        assert cfg.lr == 0.5 and cfg.epochs == 3
        assert cfg.word_dropout == 0.0 and cfg.pseudo_projective is True

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        """A '#' inside a value, as in a directory name, is part of it."""
        path = tmp_path / "train.cfg"
        vectors = tmp_path / "v#1" / "vec.txt"
        path.write_text(f"embeddings_path = {vectors}\nlr = 0.1  # note\n\t# indented\n")
        cfg = TrainConfig.from_file(path)
        assert cfg.embeddings_path == str(vectors)
        assert cfg.lr == 0.1

    def test_seed_line_rejected(self, tmp_path):
        """The seed is set per run (--seed, SCRAMBLE_SEED), never by a file."""
        path = tmp_path / "seeded.cfg"
        path.write_text("lr = 0.5\nseed = 7\n")
        with pytest.raises(ValueError, match="seeded.cfg:2: seed .* --seed or SCRAMBLE_SEED"):
            TrainConfig.from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            TrainConfig.from_file(path)


@pytest.mark.parametrize("make, message", [
    (lambda: dataclasses.replace(TINY, epochs=0), "epochs must be finite and at least 1, got 0"),
    (lambda: TrainConfig(word_dropout=1.0), r"word_dropout must be in \[0, 1\), got 1.0"),
    (lambda: TrainConfig(epochs=2.5), "epochs must be int, got 2.5"),
    (lambda: TrainConfig(epochs=True), "epochs must be int, got True"),
    (lambda: TrainConfig(word_dim="8"), "word_dim must be int, got '8'"),
    (lambda: dataclasses.replace(TINY, pseudo_projective=1),
     "pseudo_projective must be bool, got 1"),
    (lambda: TrainConfig(embeddings_path=3), "embeddings_path must be str or None, got 3"),
])
def test_train_config_is_checked_however_it_is_made(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_train_config_takes_an_int_for_a_float_field():
    cfg = dataclasses.replace(TINY, lr=1, momentum=0.0, l2=0.0, mlp_dropout=0,
                              embeddings_path="v.txt")
    assert cfg.lr == 1 and cfg.embeddings_path == "v.txt"


# Mini-batch training. Trees of 3 to 8 tokens; every parser example has
# steps with absent (-1) feature nodes.
_POOL = (gen_synthetic(default_grammar(uniform_orders()), 6, seed=3).trees
         + toy_treebank().trees)
_NO_DROPOUT = dataclasses.replace(TINY, mlp_dropout=0.0, word_dropout=0.0)


def _example(model, tree):
    if model.kind == "tagger":
        return (tree.forms(), None, np.arange(1, len(tree) + 1)[:, None],
                [model.vocabs.tags.id(t) for t in tree.upos_tags()])
    idx_rows, seq = oracle_rollout(tree)
    return (tree.forms(), tree.upos_tags(), idx_rows, [model.transition_id(t) for t in seq])


def _gradients(model, batch):
    losses, backprop = sentence_loss(model, batch)
    backprop()
    return losses, [p.grad.copy() for p in model.params()]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["parser", "tagger"]),
       picks=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=5))
def test_batched_backward_writes_the_mean_of_sentence_gradients(kind, picks):
    """One backward pass over a batch writes the mean of its sentences'
    one-sentence gradients, and the loss of each of them."""
    model = _init_model(kind, _NO_DROPOUT, build_vocabs(_POOL))
    batch = [_example(model, _POOL[i]) for i in picks]
    losses, batched = _gradients(model, batch)
    singles = [_gradients(model, [example]) for example in batch]
    assert np.allclose(losses, [loss[0] for loss, _ in singles], rtol=1e-12, atol=0.0)
    for k, p in enumerate(model.params()):
        mean = sum(grads[k] for _, grads in singles) / len(batch)
        assert np.allclose(batched[k], mean, rtol=1e-12, atol=1e-12 * np.abs(mean).max()), p.name


def test_fit_steps_once_per_batch_at_lr_times_root_b():
    """Seven examples at B = 3 take three steps, the last of one example,
    each at lr * sqrt(3) in the first epoch."""
    model = _init_model("parser", dataclasses.replace(TINY, batch_sentences=3, epochs=1),
                        build_vocabs(_POOL))
    examples = [_example(model, tree) for tree in _POOL[:7]]
    sizes, rates = [], []
    real_loss, real_step = parser.sentence_loss, nn.MomentumSGD.step

    def loss(model, batch, **kw):
        sizes.append(len(batch))
        return real_loss(model, batch, **kw)

    def step(opt):
        rates.append(opt.lr)
        return real_step(opt)

    with mock.patch.object(parser, "sentence_loss", loss), \
            mock.patch.object(nn.MomentumSGD, "step", step):
        parser._fit(model, examples)
    assert sizes == [3, 3, 1]
    assert rates == [TINY.lr * np.sqrt(3)] * 3


def test_divergence_is_reported_without_a_numpy_warning(caplog):
    """A learning rate far too high kills every hidden unit of the
    classifier within the first epoch; each later epoch logs one warning
    naming it. The first epoch's loss, once infinite, is finite, and numpy
    warns of nothing."""
    cfg = dataclasses.replace(TINY, lr=50.0, epochs=3, batch_sentences=2)
    with warnings.catch_warnings(), caplog.at_level("INFO", logger="scrambleparse.parser"):
        warnings.simplefilter("error")
        train_parser(Treebank(_POOL), None, cfg)
    found = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert found == [f"warning: epoch {k}/3: no hidden unit of the classifier fired; the model "
                     "predicts from its output bias alone (lower lr)" for k in (2, 3)]
    first = caplog.records[0].getMessage()
    assert first.startswith("epoch 1/3: loss/transition ")
    assert 100.0 < float(first.split()[-1]) < math.inf


def test_training_at_a_sane_rate_warns_of_nothing(caplog):
    with caplog.at_level("INFO", logger="scrambleparse.parser"):
        train_parser(Treebank(_POOL), None, TINY)
    assert [r.levelname for r in caplog.records] == ["INFO"] * TINY.epochs


def test_checkpoint_without_batch_sentences_loads_as_per_sentence_training(tmp_path):
    """Files written before ``batch_sentences`` existed have no such key in
    their cfg; one loads as batch_sentences = 1 and parses as the model
    it holds. A per-sentence model writes no key, a batched one its B."""
    model = train_parser(Treebank(_POOL), None, TINY)
    path = tmp_path / "parser.spnn"
    model.save(path)
    meta = nn.load_checkpoint(path)["meta"]
    assert meta["cfg"]["batch_sentences"] == TINY.batch_sentences == 4
    del meta["cfg"]["batch_sentences"]
    nn.save_checkpoint(tmp_path / "old.spnn", model.params(), meta)
    back = ParserModel.load(tmp_path / "old.spnn")
    assert back.cfg == dataclasses.replace(model.cfg, batch_sentences=1)
    want, got = parse_batch(model, _POOL), parse_batch(back, _POOL)
    assert [t.tokens for t in got[0]] == [t.tokens for t in want[0]]
    back.save(tmp_path / "again.spnn")
    assert (tmp_path / "again.spnn").read_bytes() == (tmp_path / "old.spnn").read_bytes()


def test_non_finite_epoch_loss_is_reported(caplog):
    real_loss = parser.sentence_loss

    def loss(model, batch, **kw):
        losses, backprop = real_loss(model, batch, **kw)
        return losses + np.inf, backprop

    with mock.patch.object(parser, "sentence_loss", loss), \
            caplog.at_level("INFO", logger="scrambleparse.parser"):
        train_parser(Treebank(_POOL), None, dataclasses.replace(TINY, epochs=1))
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "warning: epoch 1/1: the loss is inf; training diverged (lower lr)"]
