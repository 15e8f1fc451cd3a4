"""The n-gram model as dicts, kept as the reference for the count arrays
and the one-pass scorer.

``ref_train`` counts events in one dict per context, and ``RefModel``
tabulates every context's (total, types, counts) up front and
interpolates over them one n-gram at a time, in Python ints and floats.
The properties below hold ``train_lm`` and the array model to them with
``==``: the same counts, and the same float for every probability, log
probability and perplexity, on random corpora of orders 1-5 with
out-of-vocabulary words, hapaxes and the reserved tokens used as words.
Batches of orders of different lengths scored in one pass rank as the
reference ranks them, and as each batch scored alone does, also over a
vocabulary too large for a key that packs ``order - 1`` word ids into
an int64.
"""

import functools
import itertools
import math
from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lm_counts, lm_filter, lm_logprobs, lm_perplexity, lm_prob, order_words
from scrambleparse.conllu import DepTree, Token
from scrambleparse.ngram import (ARRAYS, BOS, EOS, UNK, NGramModel, filter_by_perplexity,
                                 score_batches, train_lm)
from scrambleparse.scramble import PermutationBatch


def ref_train(corpus, order):
    """{context tuple: {word: count}} and the vocabulary, counted one event at a time."""
    freq = Counter(tok for sent in corpus for tok in sent)
    hapax = {w for w, c in freq.items() if c == 1}
    counts = defaultdict(Counter)
    for sent in corpus:
        history = [BOS] * (order - 1) + list(sent)
        for i, word in enumerate(list(sent) + [EOS]):
            context = history[i:i + order - 1]
            for k in range(order):
                ctx = tuple(context[len(context) - k:])
                counts[ctx][word] += 1
                if word in hapax:
                    counts[ctx][UNK] += 1
    vocab = frozenset(freq) | {BOS, EOS, UNK}
    return {ctx: dict(c) for ctx, c in counts.items()}, vocab


class RefModel:
    def __init__(self, order, counts, vocab):
        self.order, self.vocab = order, vocab
        self.contexts = {ctx: (sum(c.values()), len(c), c) for ctx, c in counts.items()}

    def interp(self, word, context):
        p = 1.0 / (len(self.vocab) - 1)
        for start in range(len(context), -1, -1):
            entry = self.contexts.get(context[start:])
            if entry is not None:
                total, types, counts = entry
                p = (counts.get(word, 0) + types * p) / (total + types)
        return p

    def prob(self, word, context=()):
        vocab, k = self.vocab, self.order - 1
        context = tuple([w if w in vocab else UNK for w in context[-k:]]) if k else ()
        if word not in vocab or word == BOS:
            word = UNK
        return self.interp(word, context)

    def logprob(self, sentence):
        k = self.order - 1
        events = (BOS,) * k + tuple(sentence) + (EOS,)
        return sum(math.log(self.prob(g[-1], g[:-1]))
                   for g in zip(*(events[i:] for i in range(k + 1))))

    def perplexity(self, sentence):
        return math.exp(-self.logprob(sentence) / (len(sentence) + 1))


# A small vocabulary so that contexts repeat, the reserved tokens as
# words, and a pool of rarer words that become hapaxes.
WORDS = st.sampled_from(["a", "b", "c", "d", BOS, EOS, UNK])
RARE = st.sampled_from([f"r{i}" for i in range(12)])
SENTENCE = st.lists(st.one_of(WORDS, WORDS, RARE), max_size=8)
CORPUS = st.lists(SENTENCE, min_size=1, max_size=12)
OOV = st.sampled_from(["zz", "yy"])


@settings(max_examples=150, deadline=None)
@given(corpus=CORPUS, order=st.integers(1, 5))
def test_train_lm_counts_as_the_reference(corpus, order):
    model = train_lm(corpus, order)
    counts, vocab = ref_train(corpus, order)
    assert lm_counts(model) == counts
    assert frozenset(model.vocab) == vocab and list(model.vocab) == sorted(vocab)


@settings(max_examples=150, deadline=None)
@given(corpus=CORPUS, order=st.integers(1, 5),
       queries=st.lists(st.lists(st.one_of(WORDS, RARE, OOV), min_size=1, max_size=8),
                        min_size=1, max_size=6))
def test_logprob_and_perplexity_equal_the_reference(corpus, order, queries):
    model = train_lm(corpus, order)
    ref = RefModel(order, *ref_train(corpus, order))
    for sentence in [s for s in corpus if s] + queries:
        assert lm_logprobs(model, [sentence])[0] == ref.logprob(sentence)
        assert lm_perplexity(model, sentence) == ref.perplexity(sentence)


@settings(max_examples=60, deadline=None)
@given(corpus=CORPUS, order=st.integers(1, 5),
       query=st.lists(st.one_of(WORDS, RARE, OOV), min_size=1, max_size=8))
def test_a_saved_model_reloads_equal(tmp_path_factory, corpus, order, query):
    model = train_lm(corpus, order)
    path = tmp_path_factory.mktemp("lm") / "lm.nglm"
    model.save(path)
    back = NGramModel.load(path)
    assert (back.order, back.vocab) == (model.order, model.vocab)
    assert all(np.array_equal(getattr(back, name), getattr(model, name)) for name in ARRAYS)
    assert lm_counts(back) == lm_counts(model)
    assert lm_logprobs(back, [query])[0] == lm_logprobs(model, [query])[0]


def _batch(sentences):
    """The sentences, all of one length, as the orders of a batch whose
    source tree holds their words one after another. Order i's perm is
    (n - i,), so equal perplexities rank against the input order."""
    n, width = len(sentences), len(sentences[0])
    source = DepTree([Token(i, w) for i, w in enumerate(itertools.chain(*sentences), start=1)])
    return PermutationBatch(source, None, np.arange(n, 0, -1)[:, None],
                            np.arange(1, n * width + 1).reshape(n, width), [])


def assert_ranked_as_the_reference(model, ref, batches, keep):
    """Scored in one pass or one batch at a time, each batch keeps the
    reference's ``keep`` best rows, in its order, with its perplexities."""
    together = [_batch(sentences) for sentences in batches]
    score_batches(together, model)
    for sentences, batch in zip(batches, together):
        expected = sorted((ref.perplexity(words), tuple(perm))
                          for perm, words in zip(batch.perms.tolist(), order_words(batch)))[:keep]
        for survivors in (filter_by_perplexity(batch, k=keep),
                          lm_filter(_batch(sentences), model, keep)):
            assert [(v.perplexity, v.perm) for v in survivors.variants] == expected
            assert survivors.perplexities == [ppl for ppl, _ in expected]


def one_length(batch):
    """A batch's sentences cut to the length of its shortest: the orders of
    a batch are of one sentence."""
    return [sentence[:min(map(len, batch))] for sentence in batch]


QUERY = st.lists(st.one_of(WORDS, RARE, OOV), min_size=1, max_size=10)


@settings(max_examples=150, deadline=None)
@given(corpus=CORPUS, order=st.integers(1, 5),
       batches=st.lists(st.lists(QUERY, min_size=1, max_size=6).map(one_length),
                        min_size=1, max_size=5),
       keep=st.integers(1, 6))
def test_batches_scored_in_one_pass_rank_as_the_reference(corpus, order, batches, keep):
    model = train_lm(corpus, order)
    ref = RefModel(order, *ref_train(corpus, order))
    assert_ranked_as_the_reference(model, ref, batches, keep)
    sentences = [s for batch in batches for s in batch]
    assert lm_logprobs(model, sentences).tolist() == [ref.logprob(s) for s in sentences]


# 60,000 words that sort between the reserved tokens and "x" and "y": an
# order-5 context of four such ids overflows an int64 key packed base |V|.
FILLERS = [f"f{i:05d}" for i in range(60_000)]


@functools.cache
def large_vocabulary_models():
    corpus = [FILLERS[i:i + 8] + ["x", "y"] for i in range(0, len(FILLERS), 8)]
    corpus += [["y", "x", BOS, UNK, "x"], ["x", EOS, "y"]]
    model = train_lm(corpus, 5)
    assert len(model.vocab) ** 4 > 2**63
    return model, RefModel(5, *ref_train(corpus, 5))


LARGE_TOKEN = st.one_of(st.sampled_from(["x", "y", "zz", BOS, EOS, UNK]),
                        st.sampled_from(FILLERS))
LARGE_QUERY = st.one_of(
    st.lists(LARGE_TOKEN, min_size=1, max_size=8),
    st.builds(lambda at, n, tail: FILLERS[at:at + n] + tail, st.integers(0, len(FILLERS) - 8),
              st.integers(1, 8), st.lists(LARGE_TOKEN, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(st.lists(LARGE_QUERY, min_size=1, max_size=6).map(one_length),
                       min_size=1, max_size=4),
       keep=st.integers(1, 6))
def test_a_large_vocabulary_ranks_as_the_reference(batches, keep):
    model, ref = large_vocabulary_models()
    assert_ranked_as_the_reference(model, ref, batches, keep)
    for sentence in batches[0]:
        history = [BOS] * 4 + list(sentence)
        for i, word in enumerate(list(sentence) + [EOS]):
            assert lm_prob(model, word, history[i:i + 4]) == ref.prob(word, history[i:i + 4])


def test_n_gram_keys_past_int64_are_renumbered():
    """With exactly 2**16 words an order-5 key of five base-|V| digits
    would need 2**80: its oldest word would wrap out of an int64, and the
    two last n-grams below, which differ only there, would be scored as
    one. ``abcd`` is a held context and ``zbcd`` is not."""
    fillers = [f"g{i:05d}" for i in range(2**16 - 3 - 6)] + ["z"]
    corpus = [fillers[i:i + 8] for i in range(0, len(fillers), 8)] + [list("abcde")]
    model = train_lm(corpus, 5)
    assert len(model.vocab) == 2**16
    ref = RefModel(5, *ref_train(corpus, 5))
    queries = [list("abcde"), list("zbcde")]
    assert lm_logprobs(model, queries).tolist() == [ref.logprob(q) for q in queries]
