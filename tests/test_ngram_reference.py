"""The n-gram model as dicts, kept as the reference for the count arrays.

``ref_train`` counts events in one dict per context, and ``RefModel``
tabulates every context's (total, types, counts) up front and
interpolates over them in the loop that ``NGramModel._interp`` keeps.
The properties below hold ``train_lm`` and the array model to them with
``==``: the same counts, and the same float for every log probability
and perplexity, on random corpora of orders 1-5 with out-of-vocabulary
words, hapaxes and the reserved tokens used as words.
"""

import math
from collections import Counter, defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lm_counts
from scrambleparse.ngram import ARRAYS, BOS, EOS, UNK, NGramModel, perplexity, train_lm


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
        assert model.logprob(sentence) == ref.logprob(sentence)
        assert perplexity(model, sentence) == ref.perplexity(sentence)


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
    assert back.logprob(query) == model.logprob(query)
