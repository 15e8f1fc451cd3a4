"""Witten-Bell smoothed n-gram language model for ranking permutations.

Probability of a word given a context interpolates the maximum-likelihood
estimate with the next-shorter context, weighted by the number of
distinct continuation types:

    P(w | c) = (count(c, w) + T(c) * P(w | c')) / (count(c) + T(c))

where c' drops the oldest context token and T(c) is the number of
distinct words seen after c. The empty-context base case interpolates
with the uniform distribution over the vocabulary. Tokens seen exactly
once in the corpus additionally contribute an <unk> event in the same
context, which reserves observed mass for out-of-vocabulary words.

The recursion is evaluated as one loop, from the empty context up through
the longer suffixes, in the same arithmetic order. ``filter_by_perplexity``
scores each order's word tuple and builds variants for its survivors only.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain

from .scramble import PermutationBatch
from .serialize import load_arrays, save_arrays

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

MAGIC = b"NGLM2"  # order, sorted vocabulary, meta and counts in the header; no arrays


@dataclass
class NGramModel:
    order: int
    counts: dict = field(repr=False)  # context tuple -> {next token: count >= 1}
    vocab: frozenset
    # Derived from ``counts``: context tuple -> (its total event count, its
    # number of distinct continuation types, its counts)
    _contexts: dict = field(init=False, repr=False, compare=False)
    # n-gram (context words, then the word) -> log probability, filled by ``logprob``
    _logprobs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._contexts = {ctx: (sum(c.values()), len(c), c) for ctx, c in self.counts.items()}

    @property
    def event_vocab_size(self) -> int:
        return len(self.vocab) - 1  # BOS is context-only, never predicted

    def _interp(self, word: str, context: tuple) -> float:
        """Interpolates from the uniform distribution up through each
        context suffix, shortest first; an unseen suffix passes P on."""
        p = 1.0 / self.event_vocab_size
        contexts = self._contexts
        for start in range(len(context), -1, -1):
            entry = contexts.get(context[start:])
            if entry is not None:
                total, types, counts = entry
                p = (counts.get(word, 0) + types * p) / (total + types)
        return p

    def prob(self, word: str, context=()) -> float:
        """Smoothed P(word | context); OOV words and context tokens map to <unk>."""
        vocab, k = self.vocab, self.order - 1
        context = tuple([w if w in vocab else UNK for w in context[-k:]]) if k else ()
        if word not in vocab or word == BOS:
            word = UNK
        return self._interp(word, context)

    def logprob(self, sentence: list[str]) -> float:
        """Natural-log probability of a sentence including the </s> event.

        Each distinct n-gram's log probability is computed once per model.
        """
        memo = self._logprobs
        k = self.order - 1
        events = (BOS,) * k + tuple(sentence) + (EOS,)
        total = 0.0
        for gram in zip(*(events[i:] for i in range(k + 1))):
            lp = memo.get(gram)
            if lp is None:
                lp = memo[gram] = math.log(self.prob(gram[-1], gram[:-1]))
            total += lp
        return total

    def save(self, path, meta: dict | None = None) -> None:
        save_arrays(path, MAGIC, {"order": self.order, "vocab": sorted(self.vocab),
                                  "meta": meta or {}, "counts": list(self.counts.items())}, [])

    @classmethod
    def load(cls, path) -> "NGramModel":
        """The saved model; a file that does not hold one raises ``ValueError``."""
        return load_arrays(path, MAGIC, build=cls._from_header)

    @classmethod
    def _from_header(cls, header: dict, arrays: dict) -> "NGramModel":
        order, vocab, entries = header.get("order"), header.get("vocab"), header.get("counts")
        if type(order) is not int or not 1 <= order <= 5:
            raise ValueError(f"order is not an integer in [1, 5]: {str(order)[:20]}")
        if type(vocab) is not list or set(map(type, vocab)) != {str} or {BOS, EOS, UNK} - {*vocab}:
            raise ValueError(f"vocab is not a list of strings holding {BOS}, {EOS} and {UNK}")
        if (type(entries) is not list or set(map(type, entries)) != {list}
                or set(map(len, entries)) != {2}):
            raise ValueError("counts is not a list of [context, {word: count}] pairs")
        ctxs, nexts = zip(*entries)  # checked in bulk: this is most of a load's time
        if set(map(type, ctxs)) != {list} or set(map(type, nexts)) != {dict} or not all(nexts):
            raise ValueError("a context is not a list, or its counts not a non-empty object")
        if not set(map(type, chain.from_iterable(ctxs))) <= {str} or max(map(len, ctxs)) >= order:
            raise ValueError(f"a context is not a list of at most {order - 1} strings")
        counts = dict(zip(map(tuple, ctxs), nexts))
        if len(counts) < len(ctxs) or () not in counts:
            raise ValueError("a context is repeated, or the empty context is missing")
        values = list(chain.from_iterable(map(dict.values, nexts)))
        if set(map(type, values)) != {int} or min(values) < 1 or max(values) > 2**53:  # no bools
            raise ValueError("a count is not an integer in [1, 2**53]")
        return cls(order=order, counts=counts, vocab=frozenset(vocab))


def train_lm(corpus: list[list[str]], order: int = 3) -> NGramModel:
    """Train a Witten-Bell model on tokenized sentences."""
    if not corpus:
        raise ValueError("training corpus is empty")
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in [1, 5], got {order}")
    freq = Counter(tok for sent in corpus for tok in sent)
    hapax = {w for w, c in freq.items() if c == 1}

    counts: dict[tuple, Counter] = defaultdict(Counter)
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
    return NGramModel(order=order, counts={ctx: dict(c) for ctx, c in counts.items()}, vocab=vocab)


def perplexity(model: NGramModel, sentence: list[str]) -> float:
    """exp of the average negative log-probability per event (tokens + </s>)."""
    if not sentence:
        raise ValueError("cannot score an empty sentence")
    n_events = len(sentence) + 1
    return math.exp(-model.logprob(sentence) / n_events)


def filter_by_perplexity(batch, model: NGramModel, k: int | None = None):
    """Keep the k lowest-perplexity variants of a permutation batch.

    k defaults to the number of permuted units of the batch's projection.
    Ties break on the lexicographic order of the permutation, so the
    result is deterministic. The batch's word tuples are scored, and only
    the survivors' variants are built. Returns a new batch; scores are
    recorded on the surviving variants.
    """
    if k is None:
        k = batch.projection.unit_count
    scored = sorted((perplexity(model, words), perm, i)
                    for i, (perm, words) in enumerate(batch.rows))
    survivors = []
    for ppl, _, i in scored[:k]:
        v = batch.variant(i)
        v.perplexity = ppl
        survivors.append(v)
    return PermutationBatch(batch.source, batch.projection, survivors)


def read_corpus(path) -> list[list[str]]:
    """One whitespace-tokenized sentence per line; blank lines ignored."""
    sentences = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences
