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

The counts are arrays, saved and loaded as they are. ``id_logprobs``,
the one scoring routine, scores many sentences, a matrix of word ids and
their lengths, in one pass of numpy calls, with no Python work per
n-gram. A pass numbers the distinct n-grams first, and each finds its
longest held context suffix by walking its context from the newest word,
one ``np.searchsorted`` per word. A context is keyed by its parent
(itself without its oldest word) and that word, so no key packs more
than one word id. Every suffix of a held context is held too, so an
n-gram's probability depends only on that suffix and the word; each
distinct pair is interpolated once, from the empty context up through
the longer suffixes in the recursion's arithmetic order, and its log
taken once with ``math.log``. Each sentence's log probabilities are
summed left to right, so every perplexity is the float the recursion
gives. ``score_batches`` is the one way to score ``permute``'s orders:
it scores the orders of many batches in one pass, mapping each source
tree's words to ids once and gathering each order's ids through its
position row, and leaves each batch one perplexity per row.
``filter_by_perplexity`` then only ranks: the survivors are a new batch
of their rows and perplexities, so variants are built for them alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .conllu import read_lines
from .scramble import PermutationBatch
from .serialize import load_arrays, save_arrays

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

MAGIC = b"NGLM3"  # order, sorted vocabulary and meta in the header; the counts as arrays
ARRAYS = ("contexts", "offsets", "words", "counts")
_MAX_COUNT = 2**53  # float64 holds every integer up to here exactly
_KEY_END = np.iinfo(np.int64).max  # ends each key table, above every key: a search stays inside
# Rows that ``permute`` scores in one pass: tens of batches, so that the
# pass's numpy calls cost little per row, and few enough rows that its
# arrays take a few MB (at ~16 words a row: about 17,000 n-grams).
PASS_ROWS = 1024


@dataclass(eq=False)
class NGramModel:
    """Counts as arrays: context i, the row ``contexts[i]``, is followed by
    the words ``words[offsets[i]:offsets[i + 1]]`` with their ``counts``.

    A word is its position in ``vocab``. A row holds ``order - 1`` word
    ids, the context's words right-aligned after -1 padding, so the rows
    sort by context length, then word by word; the empty context (all -1)
    comes first. Each context's words are increasing. Every suffix of a
    context is a context.
    """
    order: int
    vocab: tuple  # sorted
    contexts: np.ndarray = field(repr=False)  # (n contexts, order - 1)
    offsets: np.ndarray = field(repr=False)  # (n contexts + 1,)
    words: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)  # >= 1
    _ids: dict = field(init=False, repr=False)  # word -> id
    # Per context: its number of words, its parent (the context without
    # its oldest word; the empty context is its own), its total event
    # count and its number of distinct continuation types.
    _depths: np.ndarray = field(init=False, repr=False)
    _parents: np.ndarray = field(init=False, repr=False)
    _totals: np.ndarray = field(init=False, repr=False)
    _types: np.ndarray = field(init=False, repr=False)
    # Each non-empty context's key, parent * (|V| + 1) + oldest word + 1,
    # sorted, then _KEY_END; and the context row of each key.
    _keys: np.ndarray = field(init=False, repr=False)
    _key_rows: np.ndarray = field(init=False, repr=False)
    # Each count's key, context * |V| + word, increasing, then _KEY_END;
    # and the counts, then 0.
    _count_keys: np.ndarray = field(init=False, repr=False)
    _count_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v, k = len(self.vocab), self.order - 1
        self._ids = {w: i for i, w in enumerate(self.vocab)}
        contexts = self.contexts.astype(np.int64)
        counts = self.counts.astype(np.int64)
        self._types = np.diff(self.offsets).astype(np.int64)
        self._totals = np.add.reduceat(counts, self.offsets[:-1].astype(np.intp))
        self._count_keys = np.append(np.repeat(np.arange(len(contexts)), self._types) * v
                                     + self.words.astype(np.int64), _KEY_END)
        self._count_values = np.append(counts, 0)
        self._depths = (contexts >= 0).sum(axis=1)
        self._parents = np.zeros(len(contexts), dtype=np.int64)
        self._keys, self._key_rows = np.array([_KEY_END]), np.zeros(1, dtype=np.int64)
        # One context length at a time, each found through the shorter ones'
        # keys. A length's parents are all rows after the previous length's,
        # so its keys all sort after theirs.
        for length in range(1, k + 1):
            rows = np.flatnonzero(self._depths == length)
            parents = self._deepest(contexts[rows, k - length + 1:])
            if (self._depths[parents] != length - 1).any():
                raise ValueError("a context without its oldest word is not a context")
            self._parents[rows] = parents
            keys = parents * (v + 1) + contexts[rows, k - length] + 1
            order = np.argsort(keys)
            self._keys = np.concatenate([self._keys[:-1], keys[order], [_KEY_END]])
            self._key_rows = np.concatenate([self._key_rows[:-1], rows[order], [0]])

    @property
    def event_vocab_size(self) -> int:
        return len(self.vocab) - 1  # BOS is context-only, never predicted

    def _deepest(self, context: np.ndarray) -> np.ndarray:
        """The row of each context's longest suffix that is a context (0,
        the empty one, when no word is). ``context`` holds word ids, the
        newest last, -1 where there is no word."""
        rows = np.zeros(len(context), dtype=np.int64)
        found = np.ones(len(context), dtype=bool)
        base = len(self.vocab) + 1
        for column in context.T[::-1]:
            key = rows * base + column + 1  # -1 gives no key: every key's word part is >= 1
            at = np.searchsorted(self._keys, key)
            found &= self._keys[at] == key
            if not found.any():
                break
            rows = np.where(found, self._key_rows[at], rows)
        return rows

    def _probs(self, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """P(word | context) of each context row and word id: interpolates
        from the uniform distribution up through the row's suffixes,
        shortest first, as the recursion's Python ints and floats do."""
        v, k = len(self.vocab), self.order - 1
        chain = [rows]  # chain[j]: the suffix j words shorter than the row
        for _ in range(k):
            chain.append(self._parents[chain[-1]])
        depths = self._depths[rows]
        p = np.full(len(rows), 1.0 / self.event_vocab_size)
        for j in range(k, -1, -1):
            row = chain[j]
            key = row * v + words
            at = np.searchsorted(self._count_keys, key)
            count = np.where(self._count_keys[at] == key, self._count_values[at], 0)
            types = self._types[row]
            p = np.where(j <= depths, (count + types * p) / (self._totals[row] + types), p)
        return p

    def word_ids(self, words) -> np.ndarray:
        """The id of each word; a word outside the vocabulary is <unk>."""
        return np.fromiter(map(self._ids.get, words, itertools.repeat(self._ids[UNK])),
                           dtype=np.int64)

    def id_logprobs(self, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Natural-log probability of each sentence including the </s>
        event, all scored in one pass. Sentence i is ``ids[i, :lengths[i]]``;
        the rest of its row is not read.

        Each distinct n-gram finds its longest held context suffix once,
        ``math.log`` runs once per distinct (suffix, word) pair, and each
        sentence's terms are summed left to right.
        """
        k, v = self.order - 1, len(self.vocab)
        bos, eos, unk = self._ids[BOS], self._ids[EOS], self._ids[UNK]
        width = ids.shape[1] + 1  # the events of the widest row
        # Row i: k <s>, sentence i's words, then </s> to the end. A literal
        # <s> is <s> in a context and <unk> as the predicted word.
        grid = np.full((len(ids), k + width), eos, dtype=np.int64)
        grid[:, :k] = bos
        grid[:, k:-1] = np.where(np.arange(width - 1) < lengths[:, None], ids, eos)
        events = np.arange(width) <= lengths[:, None]
        grams = np.lib.stride_tricks.sliding_window_view(grid, k + 1, axis=1)[events]
        # Number the distinct n-grams by a key of one base-|V| digit per
        # word. Where a digit more could overflow an int64, the keys so far
        # are renumbered from 0 first, so an n-gram of any order has a key.
        key, bound = np.zeros(len(grams), dtype=np.int64), 1
        for column in grams.T:
            if bound * v > _KEY_END:
                key, bound = np.unique(key, return_inverse=True)[1], len(grams)
            key, bound = key * v + column, bound * v
        by_key = np.argsort(key)
        ordered = key[by_key]
        first = np.ones(len(key), dtype=bool)  # where a run of equal keys starts
        first[1:] = ordered[1:] != ordered[:-1]
        gram_of = np.empty(len(key), dtype=np.intp)
        gram_of[by_key] = np.cumsum(first) - 1
        grams = grams[by_key[first]]
        words = np.where(grams[:, k] == bos, unk, grams[:, k])
        pairs, pair_of = np.unique(self._deepest(grams[:, :k]) * v + words, return_inverse=True)
        logs = np.array(list(map(math.log, self._probs(pairs // v, pairs % v).tolist())))
        terms = np.zeros((len(ids), width), order="F")
        terms[events] = logs[pair_of[gram_of]]
        total = np.zeros(len(ids))
        for column in terms.T:  # left to right; past a sentence's end each term is +0.0
            total += column
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
        if n * (len(vocab) + 1) >= 2**63:
            raise ValueError(f"{n} contexts over {len(vocab)} words give keys beyond int64")
        # A float64 sum of counts in [1, 2**53] is exact up to 2**53 and at
        # least 2**53 above it, so this compares the exact totals.
        totals = np.add.reduceat(counts, offsets[:-1].astype(np.intp))
        if (totals > _MAX_COUNT - np.diff(offsets)).any():
            raise ValueError("a context's total count plus its type count exceeds 2**53")
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


def _perplexities(logprobs: np.ndarray, lengths: np.ndarray) -> list[float]:
    """exp of the average negative log-probability per event (tokens +
    </s>) of each sentence."""
    return list(map(math.exp, (-logprobs / (lengths + 1)).tolist()))


def score_batches(batches: list[PermutationBatch], model: NGramModel) -> None:
    """Scores the orders of every batch in one pass; each batch keeps its
    orders' perplexities in ``perplexities``. Each source tree's words
    are mapped to ids once, and an order's ids are gathered through its
    position row."""
    trees = list({id(b.source): b.source for b in batches}.values())
    words = model.word_ids(itertools.chain.from_iterable([t.forms() for t in trees]))
    bounds = np.cumsum([0] + [len(t) for t in trees]).tolist()
    tree_ids = {id(t): words[a:b] for t, a, b in zip(trees, bounds, bounds[1:])}
    lengths = np.repeat([b.positions.shape[1] for b in batches], [len(b.perms) for b in batches])
    ids = np.zeros((len(lengths), int(lengths.max(initial=0))), dtype=np.int64)
    at = 0
    for b in batches:
        rows, n = b.positions.shape
        ids[at:at + rows, :n] = tree_ids[id(b.source)][b.positions - 1]
        at += rows
    scores = _perplexities(model.id_logprobs(ids, lengths), lengths)
    at = 0
    for b in batches:
        b.perplexities = scores[at:at + len(b.perms)]
        at += len(b.perms)


def filter_by_perplexity(batch: PermutationBatch, k: int | None = None) -> PermutationBatch:
    """The batch of the k lowest-perplexity orders of a batch that
    ``score_batches`` has scored, lowest first, with their perplexities.

    k defaults to the number of permuted units of the batch's projection.
    Ties break on the lexicographic order of the permutation, so the
    result is deterministic.
    """
    if k is None:
        k = batch.projection.unit_count
    rows = np.lexsort((*batch.perms.T[::-1], batch.perplexities))[:k].tolist()
    return PermutationBatch(batch.source, batch.projection, batch.perms[rows],
                            batch.positions[rows], batch.roles,
                            [batch.perplexities[i] for i in rows])


def read_corpus(path) -> list[list[str]]:
    """One whitespace-tokenized sentence per line; blank lines ignored."""
    return [toks for toks in map(str.split, read_lines(path)) if toks]
