"""Synthetic case-marking grammar for self-contained experiments.

Generates flat transitive clauses in any of the six S/O/V orders with
gold heads, labels, and tags. Subjects carry an ergative-style marker
and indirect objects a dative-style marker, so grammatical roles stay
recoverable under scrambling, mirroring morphologically-rich languages.

A ``SyntheticGrammar`` holds what varies between grammars: each role's
vocabulary and the weight of each order. The markers and the rates at
which a clause gets an indirect object and an adverb are module
constants. Two options make the task harder: objects that draw from the
subjects' nouns (``default_grammar(shared_nouns=True)``), and a subject
marker dropped at a given rate (``gen_synthetic(drop_case=P)``). With
both, a bare noun's role shows only in the word order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .conllu import DepTree, Token, Treebank
from .scramble import OrderLabel, TRANSITIVE_ORDERS

_CONSONANTS = "bdgkmnprstvz"
_VOWELS = "aeiou"

SUBJECT_MARKER = "ne"  # follows every subject
IOBJ_MARKER = "ko"     # follows every indirect object
P_IOBJ = 0.3           # chance that a clause has an indirect object
P_ADJUNCT = 0.3        # chance that a clause has an adverb


def _pseudo_words(count: int, syllables: int, seed: int, suffix: str = "") -> tuple[str, ...]:
    rng = np.random.default_rng(seed)
    words: list[str] = []
    seen = set()
    while len(words) < count:
        w = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                    + _VOWELS[rng.integers(len(_VOWELS))]
                    for _ in range(syllables)) + suffix
        if w not in seen:
            seen.add(w)
            words.append(w)
    return tuple(words)


@dataclass
class SyntheticGrammar:
    """Each role's vocabulary and the weight of each S/O/V order."""
    subjects: tuple[str, ...]
    objects: tuple[str, ...]
    indirect_objects: tuple[str, ...]
    adjuncts: tuple[str, ...]
    verbs: tuple[str, ...]
    order_weights: dict = field(default_factory=lambda: {OrderLabel.SOV: 1.0})

    def __post_init__(self):
        weights = {l: self.order_weights.get(l, 0.0) for l in TRANSITIVE_ORDERS}
        total = sum(weights.values())
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"order weights must sum to 1, got {total}")
        if min(weights.values()) < 0:
            raise ValueError("order weights must be >= 0")
        self.order_weights = weights


def default_grammar(order_weights: dict, shared_nouns: bool = False) -> SyntheticGrammar:
    """Reasonably diverse vocabulary, with the given order distribution;
    with ``shared_nouns`` the objects are the subjects' nouns."""
    seed, n_nouns = 7, 150
    subjects = _pseudo_words(n_nouns, 2, seed)
    return SyntheticGrammar(
        subjects=subjects,
        objects=subjects if shared_nouns else _pseudo_words(n_nouns, 2, seed + 1),
        indirect_objects=_pseudo_words(n_nouns // 3, 2, seed + 2),
        adjuncts=_pseudo_words(24, 3, seed + 3),
        verbs=_pseudo_words(60, 2, seed + 4, suffix="na"),
        order_weights=order_weights,
    )


def uniform_orders() -> dict:
    return {label: 1.0 / len(TRANSITIVE_ORDERS) for label in TRANSITIVE_ORDERS}


def parse_order_spec(spec: str) -> dict:
    """Parse CLI order distributions like "uniform" or "sov=0.8,osv=0.2"."""
    if spec.strip().lower() == "uniform":
        return uniform_orders()
    weights = {}
    for part in spec.split(","):
        name, _, value = part.partition("=")
        try:
            label = OrderLabel(name.strip().upper())
        except ValueError:
            raise ValueError(f"unknown order class '{name.strip()}'") from None
        try:
            weight = float(value)
        except ValueError:  # no number, as in "sov" or "sov=high"
            weight = math.nan
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"bad order weight '{part.strip()}' "
                             "(expected name=weight with a finite weight >= 0)")
        if label in weights:
            raise ValueError(f"order class '{name.strip()}' given twice")
        weights[label] = weight
    return weights


def _clause_chunks(g: SyntheticGrammar, order: OrderLabel, rng) -> list[tuple[str, list[tuple[str, str, str]]]]:
    """Chunks in linear order; each chunk is (role, [(form, upos, deprel), ...])."""
    subj = [(g.subjects[rng.integers(len(g.subjects))], "NOUN", "nsubj"),
            (SUBJECT_MARKER, "ADP", "case")]
    obj = [(g.objects[rng.integers(len(g.objects))], "NOUN", "obj")]
    verb = [(g.verbs[rng.integers(len(g.verbs))], "VERB", "root")]
    chunks = {"S": ("S", subj), "O": ("O", obj), "V": ("V", verb)}
    ordered = [chunks[letter] for letter in order.value]

    if rng.random() < P_IOBJ:
        io = [(g.indirect_objects[rng.integers(len(g.indirect_objects))], "NOUN", "iobj"),
              (IOBJ_MARKER, "ADP", "case")]
        at = next(i for i, (role, _) in enumerate(ordered) if role == "O")
        ordered.insert(at, ("IO", io))
    if rng.random() < P_ADJUNCT:
        adv = [(g.adjuncts[rng.integers(len(g.adjuncts))], "ADV", "advmod")]
        at = next(i for i, (role, _) in enumerate(ordered) if role == "V")
        ordered.insert(at, ("ADV", adv))
    ordered.append(("PUNCT", [(".", "PUNCT", "punct")]))
    return ordered


def _clause_tree(chunks, order: OrderLabel, sent_id: str) -> DepTree:
    """The gold tree of ``_clause_chunks``' output. Each chunk's head is its
    first token; all chunk heads attach to the verb."""
    chunk_head_pos = {}
    pos = 0
    for role, items in chunks:
        chunk_head_pos[role] = pos + 1
        pos += len(items)
    verb_pos = chunk_head_pos["V"]
    tokens: list[Token] = []
    pos = 0
    for role, items in chunks:
        for j, (form, upos, deprel) in enumerate(items):
            pos += 1
            if deprel == "root":
                head = 0
            elif j == 0:
                head = verb_pos
            else:
                head = chunk_head_pos[role]
            tokens.append(Token(index=pos, form=form, upos=upos,
                                head=head, deprel=deprel))
    comments = [f"# sent_id = {sent_id}",
                f"# text = {' '.join(t.form for t in tokens)}",
                f"# order = {order.value}"]
    return DepTree(tokens=tokens, sentence_id=sent_id, comments=comments)


def gen_synthetic(g: SyntheticGrammar, n: int, seed: int,
                  drop_case: float = 0.0) -> Treebank:
    """Sample n gold trees; order class of each drawn from the grammar weights.

    With ``drop_case`` > 0, each clause loses its subject marker with that
    probability, drawn from a stream of its own, so the clauses are
    otherwise those of ``drop_case = 0``, which draws nothing.
    """
    if not 0.0 <= drop_case <= 1.0:
        raise ValueError(f"drop_case must be in [0, 1], got {drop_case}")
    rng = np.random.default_rng(seed)
    drop_rng = np.random.default_rng([seed, 1]) if drop_case > 0.0 else None
    labels = list(TRANSITIVE_ORDERS)
    probs = np.array([g.order_weights[l] for l in labels])
    probs = probs / probs.sum()
    # The draw of rng.choice(len(labels), p=probs), without its per-call
    # overhead: one random() searched in the normalized cumulative sum.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    trees = []
    for i in range(n):
        order = labels[bisect.bisect_right(cdf, rng.random())]
        chunks = _clause_chunks(g, order, rng)
        if drop_rng is not None and drop_rng.random() < drop_case:
            chunks = [(role, items[:1] if role == "S" else items) for role, items in chunks]
        trees.append(_clause_tree(chunks, order, f"synth-{seed}-{i}"))
    return Treebank(trees, source_name="synthetic")


def text_corpus(tb: Treebank) -> list[list[str]]:
    """Token sequences for language-model training."""
    return [[t.form for t in tree.tokens] for tree in tb]
