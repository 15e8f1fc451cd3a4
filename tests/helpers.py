"""Shared builders and checks for the test suite: random trees, tiny
treebanks, transition mnemonics, n-gram models as count dicts, n-gram
probabilities and perplexities of words, and a finite-difference
gradient check."""

from __future__ import annotations

import numpy as np

from scrambleparse import nn
from scrambleparse.arceager import _MNEMONICS, Configuration, Transition, apply
from scrambleparse.conllu import DepTree, Token, Treebank
from scrambleparse.ngram import (BOS, UNK, NGramModel, _perplexities, filter_by_perplexity,
                                 score_batches)
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import (TRANSITIVE_ORDERS, OrderLabel, PermutationBatch,
                                    PermutationVariant)


def chain_tree(n: int, label: str = "dep") -> DepTree:
    """Left-to-right chain 0 -> 1 -> 2 -> ... -> n (each token heads the next)."""
    tokens = [Token(index=i, form=f"w{i}", upos="X", head=i - 1, deprel=label if i > 1 else "root")
              for i in range(1, n + 1)]
    return DepTree(tokens)


def random_projective_tree(rng: np.random.Generator, n: int,
                           labels=("a", "b", "c", "d"), tags=("N", "V", "X")) -> DepTree:
    """Uniform-ish random projective tree built by recursive interval merging."""

    def build(lo: int, hi: int, heads: dict) -> int:
        if lo == hi:
            return lo
        split = int(rng.integers(lo, hi))
        left = build(lo, split, heads)
        right = build(split + 1, hi, heads)
        if rng.random() < 0.5:
            heads[right] = left
            return left
        heads[left] = right
        return right

    heads: dict[int, int] = {}
    root = build(1, n, heads)
    heads[root] = 0
    tokens = [Token(index=i, form=f"w{i}", upos=str(tags[int(rng.integers(len(tags)))]),
                    head=heads[i],
                    deprel="root" if heads[i] == 0 else str(labels[int(rng.integers(len(labels)))]))
              for i in range(1, n + 1)]
    tree = DepTree(tokens)
    assert is_projective(tree)
    return tree


def random_nonprojective_tree(rng: np.random.Generator, n_lifts: int = 1,
                              block: int = 6) -> DepTree:
    """Tree with ``n_lifts`` non-interacting non-projective arcs.

    Built from independent clauses (one per lift) hanging off the root,
    each occupying a contiguous block, so lifting chains never interact.
    Every token gets a unique deprel, which makes the head+path decoding
    unambiguous.
    """
    heads: dict[int, int] = {}
    n = block * n_lifts
    for b in range(n_lifts):
        base = b * block
        # Chain inside the block: base+1 <- base+2 ... ; block head attaches to root.
        heads[base + 1] = 0 if b == 0 else 1
        for i in range(2, block + 1):
            heads[base + i] = base + i - 1
    # In each block, reattach the last token under an early node so the arc
    # crosses the middle of the chain: head(base+block) = base+1 is fine and
    # projective (chain suffix)... instead create a crossing pair:
    # attach token base+3 to base+5's subtree? Simplest known-nonprojective
    # gadget: arcs (i -> i+2) and (i+1 -> i+3):
    trees = []
    for b in range(n_lifts):
        base = b * block
        heads[base + 3] = base + 1          # arc 1 -> 3
        heads[base + 4] = base + 2          # arc 2 -> 4 crosses it
    tokens = [Token(index=i, form=f"w{i}", upos="X", head=heads[i],
                    deprel=f"r{i}" if heads[i] != 0 else "root")
              for i in range(1, n + 1)]
    tree = DepTree(tokens)
    assert not is_projective(tree)
    return tree


def toy_treebank() -> Treebank:
    """Three tiny hand-built sentences used across module tests."""
    t1 = DepTree([Token(1, "ana", upos="N", head=2, deprel="s"),
                  Token(2, "runs", upos="V", head=0, deprel="root")])
    t2 = DepTree([Token(1, "bo", upos="N", head=3, deprel="s"),
                  Token(2, "jam", upos="N", head=3, deprel="o"),
                  Token(3, "eats", upos="V", head=0, deprel="root")])
    t3 = DepTree([Token(1, "cats", upos="N", head=2, deprel="s"),
                  Token(2, "sleep", upos="V", head=0, deprel="root"),
                  Token(3, ".", upos="PUNCT", head=2, deprel="punct")])
    return Treebank([t1, t2, t3])


def transitive_tree(order: str = "SOV", with_io: bool = False) -> DepTree:
    """Hand-built clause in the given S/O/V order with case markers."""
    chunks = {"S": [("Ram", "NOUN", "nsubj"), ("ne", "ADP", "case")],
              "O": [("kitab", "NOUN", "obj")],
              "V": [("di", "VERB", "root")]}
    seq = [chunks[c] for c in order]
    if with_io:
        at = order.index("O")
        seq.insert(at, [("Gopal", "NOUN", "iobj"), ("ko", "ADP", "case")])
    seq.append([(".", "PUNCT", "punct")])
    pos = 0
    head_pos = {}
    for ci, chunk in enumerate(seq):
        head_pos[ci] = pos + 1
        pos += len(chunk)
    verb_chunk = next(ci for ci, chunk in enumerate(seq) if chunk[0][2] == "root")
    tokens = []
    pos = 0
    for ci, chunk in enumerate(seq):
        for j, (form, upos, deprel) in enumerate(chunk):
            pos += 1
            if deprel == "root":
                head = 0
            elif j == 0:
                head = head_pos[verb_chunk]
            else:
                head = head_pos[ci]
            tokens.append(Token(index=pos, form=form, upos=upos, head=head, deprel=deprel))
    return DepTree(tokens)


_FROM_MNEMONIC = {v: k for k, v in _MNEMONICS.items()}


def transition_from_mnemonic(text: str) -> Transition:
    """Inverse of ``Transition.mnemonic``: "SH", "LA:nsubj", ..."""
    head, _, label = text.partition(":")
    if head not in _FROM_MNEMONIC:
        raise ValueError(f"unknown transition mnemonic '{text}'")
    return Transition(_FROM_MNEMONIC[head], label or None)


def format_sequence(seq: list[Transition]) -> str:
    return " ".join(t.mnemonic() for t in seq)


def parse_sequence(text: str) -> list[Transition]:
    return [transition_from_mnemonic(m) for m in text.split()]


def run_sequence(n: int, seq: list[Transition]) -> Configuration:
    c = Configuration(n)
    for t in seq:
        c = apply(c, t)
    return c


def arcs(tree: DepTree) -> set[tuple[int, int, str]]:
    """The tree's (head, dependent, label) triples."""
    return {(t.head, t.index, t.deprel) for t in tree.tokens}


def config_arcs(c: Configuration) -> tuple[tuple[int, int, str], ...]:
    """(head, dependent, label) triples in the order the arcs were made."""
    return tuple((h, d, label) for d, (h, label) in c.heads.items())


def pool_skew(labels: list[OrderLabel]) -> float:
    """Max minus min class percentage over the six transitive orders."""
    counts = {label: 0 for label in TRANSITIVE_ORDERS}
    total = 0
    for lbl in labels:
        if lbl is not OrderLabel.NONTRANSITIVE:
            counts[lbl] += 1
            total += 1
    if total == 0:
        return 0.0
    pcts = [100.0 * c / total for c in counts.values()]
    return max(pcts) - min(pcts)


def ready_variant(tree: DepTree, order: OrderLabel, perm: tuple, positions: tuple = (),
                  perplexity: float | None = None) -> PermutationVariant:
    """A variant made by the one constructor whose tree is ``tree``, already
    built: it sits where ``cached_property`` keeps the built tree."""
    v = PermutationVariant(order, perm, positions, tree, perplexity)
    v.__dict__["tree"] = tree
    return v


def batch_of(source: DepTree, projection, variants: list, roles=()) -> PermutationBatch:
    """A batch of ready variants, one order each, already built: they sit
    where ``cached_property`` keeps the batch's variants, and the batch's
    perplexities are theirs. ``roles`` labels the orders of batches made
    from it, such as the filter's survivors."""
    batch = PermutationBatch(source, projection, np.array([v.perm for v in variants]),
                             np.array([v.positions for v in variants]), list(roles),
                             [v.perplexity for v in variants])
    batch.__dict__["variants"] = list(variants)
    return batch


def lm_filter(batch: PermutationBatch, model: NGramModel, k: int | None = None):
    """The survivors of one batch scored alone: ``score_batches``, then
    ``filter_by_perplexity``."""
    score_batches([batch], model)
    return filter_by_perplexity(batch, k=k)


def order_words(batch: PermutationBatch) -> list[tuple[str, ...]]:
    """Each order's words: the source's forms through its position row."""
    forms = batch.source.forms()
    return [tuple([forms[p - 1] for p in row]) for row in batch.positions.tolist()]


def lm_counts(model: NGramModel) -> dict:
    """The model's counts as {context words: {word: count}}."""
    vocab, offsets = model.vocab, model.offsets.astype(int).tolist()
    words, counts = model.words.astype(int).tolist(), model.counts.astype(int).tolist()
    return {tuple(vocab[i] for i in row if i >= 0):
            {vocab[w]: c for w, c in zip(words[a:b], counts[a:b])}
            for row, a, b in zip(model.contexts.astype(int).tolist(), offsets, offsets[1:])}


def lm_from_counts(order: int, counts: dict, vocab) -> NGramModel:
    """A model over ``vocab`` holding ``counts``, {context words: {word: count}};
    the inverse of ``lm_counts``."""
    vocab = sorted(vocab)
    ids = {w: i for i, w in enumerate(vocab)}
    k = order - 1
    table = sorted(((-1,) * (k - len(ctx)) + tuple(ids[w] for w in ctx),
                    sorted((ids[w], c) for w, c in nexts.items()))
                   for ctx, nexts in counts.items())
    pairs = [pair for _, run in table for pair in run]
    contexts = np.array([row for row, _ in table]).reshape(len(table), k)
    return NGramModel(order, tuple(vocab), contexts, np.cumsum([0] + [len(r) for _, r in table]),
                      np.array([w for w, _ in pairs]), np.array([c for _, c in pairs]))


def lm_prob(model: NGramModel, word: str, context=()) -> float:
    """Smoothed P(word | context) through the model's own suffix walk
    (``_deepest``) and interpolation (``_probs``); an out-of-vocabulary
    word or context token is <unk>, and so is a predicted <s>."""
    k = model.order - 1
    context = model.word_ids(context[-k:] if k else ()).tolist()
    row = model._deepest(np.array([[-1] * (k - len(context)) + context], dtype=np.int64))
    word_id = model.word_ids([UNK if word == BOS else word])
    return float(model._probs(row, word_id)[0])


def lm_logprobs(model: NGramModel, sentences) -> np.ndarray:
    """``id_logprobs`` of sentences given as words."""
    lengths = np.array([len(words) for words in sentences], dtype=np.intp)
    ids = np.zeros((len(sentences), int(lengths.max(initial=0))), dtype=np.int64)
    for row, words in zip(ids, sentences):
        row[:len(words)] = model.word_ids(words)
    return model.id_logprobs(ids, lengths)


def lm_perplexity(model: NGramModel, sentence) -> float:
    """The perplexity of one sentence given as words, as ``score_batches``
    computes it."""
    return _perplexities(lm_logprobs(model, [sentence]), np.array([len(sentence)]))[0]


def softmax(logits):
    """Row-wise softmax of a matrix."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(mlp: nn.MLP, x):
    """Class probabilities of a one-slot classifier on one input vector or
    a matrix of them, one per row."""
    rows = np.atleast_2d(x)
    logits, _ = mlp.forward(np.arange(len(rows))[:, None], mlp.table(rows))
    p = softmax(logits)
    return p if np.ndim(x) > 1 else p[0]


def check_gradients(loss_fn, params, step: float = 1e-5, max_coords: int | None = None,
                    rng=None, floor: float = 1e-4) -> float:
    """Largest relative error between stored gradients and central differences.

    ``loss_fn`` must recompute the scalar loss from current parameter
    values without touching gradients; the caller fills the gradients
    beforehand. For tensors bigger than ``max_coords`` a random subset of
    coordinates is probed. The ``floor`` in the error denominator turns
    the comparison into an absolute one for near-zero coordinates, where
    central differences cannot resolve below eps*|loss|/(2*step) anyway.
    """
    worst = 0.0
    for p in params:
        flat_v = p.value.reshape(-1)
        flat_g = p.grad.reshape(-1)
        n = flat_v.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for idx in coords:
            orig = flat_v[idx]
            flat_v[idx] = orig + step
            up = loss_fn()
            flat_v[idx] = orig - step
            down = loss_fn()
            flat_v[idx] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = flat_g[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
            worst = max(worst, err)
    return worst
