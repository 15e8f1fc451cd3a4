"""The shared sentence encoder and the classifier's slot table against
their per-token and dense versions.

``SentenceEncoder.encode``/``backward`` run the character BiLSTM once per
batch over its distinct truncated forms, as a length-masked batch, and
write each gradient once: the embedding gradients are ``nn.segment_sum``
results (one ``np.bincount``), assigned. The classifier applies its first
layer through a slot table (``nn.MLP.table``). The functions below are
the versions they replaced: one encoder pass per sentence with one
character BiLSTM call per token, and the classifier input gathered as
the concatenated context vectors by Python loops over the feature slots,
times ``W1``. Each character BiLSTM call writes that token's gradients,
so ``ref_backward`` sums them itself, as it sums the embedding rows. The
batched passes sum in another order, so context vectors and losses are
compared to 1e-12 and gradients to 1e-10 of each parameter's largest
entry. ``segment_sum`` is compared with ``np.add.at`` into zeros byte for
byte: both add each value in input order to a 0.0.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import toy_treebank
from test_train_reference import _examples
from scrambleparse import nn
from scrambleparse.parser import TrainConfig, _init_model, build_vocabs, sentence_loss


def ref_encode(enc, words, tags, training=False, rng=None):
    drop = np.zeros(len(words), dtype=bool)
    if training and enc.cfg.word_dropout > 0.0:
        drop = rng.random(len(words)) < enc.cfg.word_dropout
    cfg = enc.cfg
    h = cfg.char_hidden
    word_ids = [1] + [enc.vocabs.words.id(w) for w in words]
    rows = []
    char_caches = []
    for pos, wid in enumerate(word_ids):
        char_vec = np.zeros(2 * h)
        char_caches.append(None)
        if pos == 0:
            word_vec = enc.word_emb.value[wid]
        else:
            chars = words[pos - 1][:cfg.max_word_chars]
            if chars:
                char_ids = [enc.vocabs.chars.id(c) for c in chars]
                Hs, cache = enc.char_rnn.forward(enc.char_emb.value[char_ids][:, None],
                                                 [len(char_ids)], cache=True)
                Hs = Hs[:, 0]
                char_vec = np.concatenate([Hs[-1, :h], Hs[0, h:]])
                char_caches[-1] = (char_ids, Hs.shape[0], cache)
            word_vec = np.zeros(cfg.word_dim) if drop[pos - 1] else enc.word_emb.value[wid]
        parts = [word_vec, char_vec]
        if enc.use_tags:
            tag_id = 1 if pos == 0 else enc.vocabs.tags.id(tags[pos - 1])
            parts.append(enc.tag_emb.value[tag_id])
        rows.append(np.concatenate(parts))
    ctx, stack_caches = enc.stack.forward(np.asarray(rows)[:, None], [len(rows)], cache=True)
    ctx = ctx[:, 0]
    tag_ids = [1] + [enc.vocabs.tags.id(t) for t in tags] if enc.use_tags else None
    return ctx, (word_ids, drop, char_caches, stack_caches, tag_ids)


def ref_backward(enc, dctx, cache):
    word_ids, drop, char_caches, stack_caches, tag_ids = cache
    cfg = enc.cfg
    dX = enc.stack.backward(dctx[:, None], stack_caches)[:, 0]
    wd = cfg.word_dim
    cd = 2 * cfg.char_hidden
    h = cfg.char_hidden
    char_params = [enc.char_emb] + enc.char_rnn.params()
    embs = [enc.word_emb, enc.tag_emb] if enc.use_tags else [enc.word_emb]
    sums = {id(p): np.zeros_like(p.value) for p in char_params + embs}
    for pos, wid in enumerate(word_ids):
        if pos == 0 or not drop[pos - 1]:
            sums[id(enc.word_emb)][wid] += dX[pos, :wd]
        if char_caches[pos] is not None:
            char_ids, T, rnn_cache = char_caches[pos]
            dchar = dX[pos, wd:wd + cd]
            dHs = np.zeros((T, cd))
            dHs[-1, :h] = dchar[:h]
            dHs[0, h:] += dchar[h:]
            dC = enc.char_rnn.backward(dHs[:, None], rnn_cache)[:, 0]
            for p in enc.char_rnn.params():  # this token's, written by the call
                sums[id(p)] += p.grad
            for row, cid in enumerate(char_ids):
                sums[id(enc.char_emb)][cid] += dC[row]
        if enc.use_tags:
            sums[id(enc.tag_emb)][tag_ids[pos]] += dX[pos, wd + cd:]
    for p in char_params + embs:
        p.grad[...] = sums[id(p)]


def ref_gather(ctx, idx_rows):
    dim = ctx.shape[1]
    F = np.zeros((len(idx_rows), len(idx_rows[0]) * dim))
    for r, idxs in enumerate(idx_rows):
        for slot, idx in enumerate(idxs):
            if idx is not None:
                F[r, slot * dim:(slot + 1) * dim] = ctx[idx]
    return F


def ref_scatter(dF, idx_rows, ctx_shape):
    dim = ctx_shape[1]
    dctx = np.zeros(ctx_shape)
    for r, idxs in enumerate(idx_rows):
        for slot, idx in enumerate(idxs):
            if idx is not None:
                dctx[idx] += dF[r, slot * dim:(slot + 1) * dim]
    return dctx


def ref_sentence_loss(model, batch, training=False, rng=None):
    """Each example's mean loss, one encoder pass per sentence and the
    classifier's first layer as the gathered features times ``W1``; the
    parameter gradients of the batch loss, the mean of those, are written."""
    enc, mlp = model.encoder, model.mlp
    sents = []
    for words, tags, idx_rows, _ in batch:
        rows = [[None if i < 0 else int(i) for i in row] for row in idx_rows]
        ctx, enc_cache = ref_encode(enc, words, tags, training=training, rng=rng)
        sents.append((rows, ctx, enc_cache))
    F = np.concatenate([ref_gather(ctx, rows) for rows, ctx, _ in sents])
    Z1 = F @ mlp.W1.value + mlp.b1.value
    A = np.maximum(Z1, 0.0)
    mask = 1.0
    if training and mlp.dropout > 0.0:
        mask = (rng.random(A.shape) >= mlp.dropout) / (1.0 - mlp.dropout)
    logits, c2 = mlp.lin2.forward(A * mask)
    loss, dlogits = nn.nll_loss(logits, np.concatenate([gold for *_, gold in batch]))
    steps = np.array([len(gold) for *_, gold in batch])
    dZ1 = mlp.lin2.backward(dlogits / np.repeat(steps, steps)[:, None] / len(batch), c2)
    dZ1 *= mask * (Z1 > 0.0)
    mlp.W1.grad[...] = F.T @ dZ1
    mlp.b1.grad[...] = dZ1.sum(axis=0)
    dF = dZ1 @ mlp.W1.value.T
    sums = {id(p): np.zeros_like(p.value) for p in enc.params()}
    for (rows, ctx, enc_cache), end, n in zip(sents, np.cumsum(steps), steps):
        ref_backward(enc, ref_scatter(dF[end - n:end], rows, ctx.shape), enc_cache)
        for p in enc.params():  # this sentence's, written by the call
            sums[id(p)] += p.grad
    for p in enc.params():
        p.grad[...] = sums[id(p)]
    return np.array([loss[end - n:end].sum() for end, n in zip(np.cumsum(steps), steps)]) / steps


# Forms truncate at 5 characters, so "kitab", "kitabein" and "kitabghar"
# share one character vector; "é", "क" and "ω" are characters
# the vocabulary has never seen.
CFG = TrainConfig(word_dim=6, tag_dim=4, char_dim=4, char_hidden=3, enc_hidden=5,
                  mlp_hidden=8, mlp_dropout=0.3, word_dropout=0.3, max_word_chars=5, seed=4)
_KNOWN = ["ana", "bo", "jam", "cats", "kitab", "kitabein", "kitabghar", "."]
_word = st.one_of(st.sampled_from(_KNOWN),
                  st.text(alphabet="abkmnrstéकω", min_size=1, max_size=9))
_sentence = st.lists(st.tuples(_word, st.sampled_from(["N", "V", "PUNCT", "ADJ"])),
                     min_size=1, max_size=10)


def _models():
    tb = toy_treebank()
    vocabs = build_vocabs(tb)
    return {kind: _init_model(kind, CFG, vocabs) for kind in ("parser", "tagger")}


MODELS = _models()


def _assert_grads_close(params, ref_params):
    for p, q in zip(params, ref_params, strict=True):
        err = np.abs(p.grad - q.grad).max()
        assert err <= 1e-10 * np.abs(q.grad).max(), (p.name, err)


@settings(max_examples=60, deadline=None)
@given(sentence=_sentence, kind=st.sampled_from(["parser", "tagger"]),
       training=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_encoder_matches_per_token_reference(sentence, kind, training, seed):
    model = copy.deepcopy(MODELS[kind])
    ref_model = copy.deepcopy(model)
    words = [w for w, _ in sentence]
    tags = [t for _, t in sentence] if kind == "parser" else None
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    ctx, _, cache = model.encoder.encode([words], None if tags is None else [tags],
                                          training=training, rng=rng, cache=True)
    ref_ctx, ref_cache = ref_encode(ref_model.encoder, words, tags, training=training,
                                    rng=ref_rng)
    assert np.allclose(ctx, ref_ctx, rtol=1e-12, atol=1e-12)
    assert np.array_equal(cache[1], ref_cache[1])  # the same dropped words
    assert rng.random() == ref_rng.random()  # and the same draws from the stream

    dctx = np.random.default_rng(seed + 1).normal(size=ctx.shape)
    model.encoder.backward(dctx, cache)
    ref_backward(ref_model.encoder, dctx, ref_cache)
    _assert_grads_close(model.encoder.params(), ref_model.encoder.params())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["parser", "tagger"]),
       tree_indices=st.lists(st.integers(0, 2), min_size=1, max_size=4))
def test_sentence_loss_matches_reference(seed, kind, tree_indices):
    """Batches of one to four trees, repeats among them."""
    model = copy.deepcopy(MODELS[kind])
    ref_model = copy.deepcopy(model)
    trees = toy_treebank()
    batch = _examples(model, [trees[i] for i in tree_indices])
    losses, backprop = sentence_loss(model, batch, training=True,
                                     rng=np.random.default_rng(seed))
    backprop()
    ref_losses = ref_sentence_loss(ref_model, batch, training=True,
                                   rng=np.random.default_rng(seed))
    assert np.allclose(losses, ref_losses, rtol=1e-12, atol=0.0)
    _assert_grads_close(model.params(), ref_model.params())


# Mostly moderate values, so that the sums of three or more round in ways
# that depend on the order of addition.
_value = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@settings(max_examples=150, deadline=None)
@given(n_rows=st.integers(1, 4), shape=st.tuples(st.integers(0, 6), st.integers(1, 3)),
       dim=st.integers(1, 4), data=st.data())
def test_segment_sum_is_add_at_into_zeros_byte_for_byte(n_rows, shape, dim, data):
    """Repeated rows, -0.0 and infinities (whose sums can be NaN), and no
    row at all (a first dimension of 0)."""
    size = shape[0] * shape[1]
    rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=size,
                                       max_size=size)), dtype=np.intp).reshape(shape)
    values = np.array(data.draw(st.lists(_value, min_size=size * dim, max_size=size * dim)),
                      dtype=np.float64).reshape(shape + (dim,))
    want = np.zeros((n_rows, dim))
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf, huge + huge
        np.add.at(want, rows, values)
    assert nn.segment_sum(rows, values, n_rows).tobytes() == want.tobytes()


def test_empty_word_form_is_refused():
    """No input reaches the encoder with an empty form (CoNLL-U validation
    rejects one, and ``max_word_chars`` is at least 1), so every form goes
    through the character BiLSTM: an empty one is an error."""
    enc = MODELS["parser"].encoder
    with pytest.raises(ValueError, match="cannot encode an empty word form"):
        enc.encode([["ana", "kitab"], ["", "kitab"]], [["N", "V"], ["N", "V"]], cache=True)