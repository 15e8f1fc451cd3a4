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
the longer suffixes, in the same arithmetic order. The counts are arrays,
saved and loaded as they are; a context's row is found with one dict
lookup, and its counts are gathered the first time a probability reads
them. ``filter_by_perplexity`` scores each order's word tuple and builds
variants for its survivors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scramble import PermutationBatch
from .serialize import load_arrays, save_arrays

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

MAGIC = b"NGLM3"  # order, sorted vocabulary and meta in the header; the counts as arrays
ARRAYS = ("contexts", "offsets", "words", "counts")
_MAX_COUNT = 2**53  # float64 holds every integer up to here exactly
_UNREAD = object()


@dataclass(eq=False)
class NGramModel:
    """Counts as arrays: context i, the row ``contexts[i]``, is followed by
    the words ``words[offsets[i]:offsets[i + 1]]`` with their ``counts``.

    A word is its position in ``vocab``. A row holds ``order - 1`` word
    ids, the context's words right-aligned after -1 padding, so the rows
    sort by context length, then word by word; the empty context (all -1)
    comes first. Each context's words are increasing.
    """
    order: int
    vocab: tuple  # sorted
    contexts: np.ndarray = field(repr=False)  # (n contexts, order - 1)
    offsets: np.ndarray = field(repr=False)  # (n contexts + 1,)
    words: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)  # >= 1
    _ids: dict = field(init=False, repr=False)  # word -> id
    _rows: dict = field(init=False, repr=False)  # padded context row (a tuple of ids) -> row index
    # offsets, words and counts as lists of ints, which a context's read
    # indexes without a numpy call
    _lists: tuple = field(init=False, repr=False)
    # context ids -> (its total event count, its number of distinct
    # continuation types, {word id: count}), or None for an unseen context;
    # filled the first time ``_interp`` reads the context
    _entries: dict = field(default_factory=dict, init=False, repr=False)
    # n-gram (context words, then the word) -> log probability, filled by ``logprob``
    _logprobs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self._ids = {w: i for i, w in enumerate(self.vocab)}
        self._rows = dict(zip(map(tuple, self.contexts.astype(np.int64).tolist()),
                              range(len(self.contexts))))
        self._lists = tuple(a.astype(np.int64).tolist() for a in (self.offsets, self.words,
                                                                    self.counts))

    @property
    def event_vocab_size(self) -> int:
        return len(self.vocab) - 1  # BOS is context-only, never predicted

    def _read(self, context: tuple):
        """The entry of ``context`` (word ids) from the arrays; None when unseen."""
        i = self._rows.get((-1,) * (self.order - 1 - len(context)) + context)
        if i is None:
            return None
        offsets, words, counts = self._lists
        start, end = offsets[i], offsets[i + 1]
        counts = counts[start:end]
        return sum(counts), len(counts), dict(zip(words[start:end], counts))

    def _interp(self, word: int, context: tuple) -> float:
        """Interpolates from the uniform distribution up through each
        context suffix, shortest first; an unseen suffix passes P on."""
        p = 1.0 / self.event_vocab_size
        entries = self._entries
        for start in range(len(context), -1, -1):
            suffix = context[start:]
            entry = entries.get(suffix, _UNREAD)
            if entry is _UNREAD:
                entry = entries[suffix] = self._read(suffix)
            if entry is not None:
                total, types, counts = entry
                p = (counts.get(word, 0) + types * p) / (total + types)
        return p

    def prob(self, word: str, context=()) -> float:
        """Smoothed P(word | context); OOV words and context tokens map to <unk>."""
        ids, k = self._ids, self.order - 1
        unk = ids[UNK]
        context = tuple([ids.get(w, unk) for w in context[-k:]]) if k else ()
        return self._interp(unk if word == BOS else ids.get(word, unk), context)

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
        save_arrays(path, MAGIC, {"order": self.order, "vocab": list(self.vocab),
                                  "meta": meta or {}},
                    [(name, getattr(self, name)) for name in ARRAYS])

    @classmethod
    def load(cls, path) -> "NGramModel":
        """The saved model; a file that does not hold one raises ``ValueError``."""
        return load_arrays(path, MAGIC, build=cls._from_header)

    @classmethod
    def _from_header(cls, header: dict, arrays: dict) -> "NGramModel":
        """Checks every value, so that reading a context later cannot fail."""
        order, vocab = header.get("order"), header.get("vocab")
        if type(order) is not int or not 1 <= order <= 5:
            raise ValueError(f"order is not an integer in [1, 5]: {str(order)[:20]}")
        if (type(vocab) is not list or set(map(type, vocab)) != {str}
                or {BOS, EOS, UNK} - {*vocab}):
            raise ValueError(f"vocab is not a list of strings holding {BOS}, {EOS} and {UNK}")
        if any(a >= b for a, b in zip(vocab, vocab[1:])):
            raise ValueError("vocab is not sorted, or repeats a word")
        missing = [name for name in ARRAYS if name not in arrays]
        if missing:
            raise ValueError(f"arrays missing: {', '.join(missing)}")
        contexts, offsets, words, counts = (arrays.pop(name) for name in ARRAYS)
        k, n = order - 1, len(contexts)
        if contexts.ndim != 2 or contexts.shape[1] != k:
            raise ValueError(f"contexts is not a table of rows of order - 1 = {k} words, "
                             f"but of shape {contexts.shape}")
        if offsets.shape != (n + 1,) or words.ndim != 1 or counts.shape != words.shape:
            raise ValueError(f"offsets, words and counts do not have shapes ({n + 1},), (m,) "
                             f"and (m,) for {n} contexts")
        for name, a in zip(ARRAYS, (contexts, offsets, words, counts)):
            if (a != np.trunc(a)).any():
                raise ValueError(f"{name} holds a value that is not an integer")
        if (contexts < -1).any() or (contexts >= len(vocab)).any() or \
                (words < 0).any() or (words >= len(vocab)).any():
            raise ValueError(f"a word id is outside [0, {len(vocab)})")
        if ((counts < 1) | (counts > _MAX_COUNT)).any():
            raise ValueError("a count is not an integer in [1, 2**53]")
        pad = contexts == -1
        if (pad[:, 1:] & ~pad[:, :-1]).any():
            raise ValueError("a context row has -1 after a word")
        if n == 0 or not pad[0].all():
            raise ValueError("the empty context is missing")
        step = np.zeros(n - 1)  # each row's first nonzero difference from the row before
        for column in np.diff(contexts, axis=0).T[::-1]:
            step = np.where(column != 0, column, step)
        if (step <= 0).any():
            raise ValueError("a context is repeated, or the contexts are not sorted")
        if offsets[0] != 0 or offsets[-1] != len(words) or (np.diff(offsets) < 1).any():
            raise ValueError("offsets do not split words into one non-empty run per context")
        rising = np.diff(words) > 0
        rising[offsets[1:-1].astype(np.intp) - 1] = True  # where one context's run ends
        if not rising.all():
            raise ValueError("a context repeats a word, or its words are not increasing")
        return cls(order, tuple(vocab), contexts, offsets, words, counts)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of a sorted table starts."""
    starts = np.zeros(len(rows), dtype=bool)
    starts[0] = True
    for column in rows.T:  # a column at a time: faster than any(axis=1) on a few columns
        starts[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(starts)


def train_lm(corpus: list[list[str]], order: int = 3) -> NGramModel:
    """Train a Witten-Bell model on tokenized sentences."""
    if not corpus:
        raise ValueError("training corpus is empty")
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in [1, 5], got {order}")
    vocab = sorted({tok for sent in corpus for tok in sent} | {BOS, EOS, UNK})
    ids = {w: i for i, w in enumerate(vocab)}
    k, n = order - 1, len(corpus)
    lengths = np.array([len(sent) for sent in corpus], dtype=np.int64)
    tokens = np.array([ids[tok] for sent in corpus for tok in sent], dtype=np.int64)
    # One stream of every sentence's k <s>, its words and </s>: an event's
    # context is the k ids before it.
    at = np.arange(len(tokens)) + order * np.repeat(np.arange(n), lengths) + k
    ends = np.cumsum(lengths) + order * np.arange(n) + k
    stream = np.full(len(tokens) + order * n, ids[BOS], dtype=np.int64)
    stream[at], stream[ends] = tokens, ids[EOS]
    grams = stream[np.concatenate([at, ends])[:, None] + np.arange(-k, 1)]
    # Each event once per context length, as (-1 padding, context, word)
    # rows, in the smallest type that holds the ids: numpy sorts 8- and
    # 16-bit integers by radix.
    small = np.min_scalar_type(-len(vocab))
    keys = np.full((order, len(grams), order), -1, dtype=small)
    for length in range(order):
        keys[length, :, k - length:] = grams[:, k - length:]
    keys = keys.reshape(-1, order)
    # An event whose word occurs once in the corpus also counts as <unk>.
    hapax = keys[(np.bincount(tokens, minlength=len(vocab)) == 1)[keys[:, k]]]
    hapax[:, k] = ids[UNK]
    keys = np.concatenate([keys, hapax])
    keys = keys[np.lexsort(keys.T[::-1])]  # lexicographic row order, no packed key
    firsts = _run_starts(keys)
    rows, counts = keys[firsts], np.diff(np.append(firsts, len(keys)))
    starts = _run_starts(rows[:, :k])
    return NGramModel(order, tuple(vocab), rows[starts, :k],
                      np.append(starts, len(rows)), rows[:, k], counts)


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
    the survivors' variants are built. Returns a new batch of the
    survivors' rows, with the input batch's ``build``; scores are recorded
    on its variants.
    """
    if k is None:
        k = batch.projection.unit_count
    scored = sorted((perplexity(model, words), perm, i)
                    for i, (perm, words) in enumerate(batch.rows))[:k]
    survivors = PermutationBatch(batch.source, batch.projection,
                                 [batch.rows[i] for _, _, i in scored], batch.build)
    for v, (ppl, _, _) in zip(survivors.variants, scored):
        v.perplexity = ppl
    return survivors


def read_corpus(path) -> list[list[str]]:
    """One whitespace-tokenized sentence per line; blank lines ignored."""
    sentences = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences
