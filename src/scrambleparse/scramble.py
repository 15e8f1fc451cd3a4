"""Argument-scrambling data augmentation.

Identifies verbal projections in projective trees, permutes the linear
order of the verb and its argument/adjunct subtrees while keeping all
dominance relations intact, labels each variant with its S/O/V order,
and balances the class distribution of the resulting pool.

A ``VerbalProjection`` is its verb and the sorted inclusive spans of its
units: the verb and each non-frozen dependent's subtree. A projection's
orders are two arrays of a ``PermutationBatch``: each order's
permutation of the units and the source token at each of its new
positions. They depend only on the layout (sentence length, unit spans,
``limit`` and ``seed``), so each layout's table is built once and kept,
read-only, in a bounded memo. The LM step (``ngram``) scores every
batch's orders in one pass through their position rows, one perplexity
per row, and ranks each batch into a new batch of its survivors. A batch
builds its orders' ``PermutationVariant``s (each S/O/V label from its
position row, each perplexity from its row) when they are first read,
which ``permute`` does for the survivors only; a variant builds its tree
later still, for the orders the balancer keeps. So ``permute`` runs no
Python code once per order. Every tree read here uses the shape it keeps
(``DepTree.shape``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .conllu import DepTree, Treebank
from .projectivity import base_label, is_projective


class OrderLabel(Enum):
    SOV = "SOV"
    OSV = "OSV"
    OVS = "OVS"
    SVO = "SVO"
    VOS = "VOS"
    VSO = "VSO"
    NONTRANSITIVE = "NONTRANSITIVE"


TRANSITIVE_ORDERS = (OrderLabel.SOV, OrderLabel.OSV, OrderLabel.OVS,
                     OrderLabel.SVO, OrderLabel.VOS, OrderLabel.VSO)


@dataclass(frozen=True)
class DeprelMapping:
    """Bridges a label inventory to subject/object roles for order labelling."""
    subject_labels: frozenset[str]
    object_labels: frozenset[str]
    frozen_labels: frozenset[str] = frozenset({"punct"})

    def __post_init__(self):
        if self.subject_labels & self.object_labels:
            raise ValueError("subject and object label sets must be disjoint")


UD_MAPPING = DeprelMapping(subject_labels=frozenset({"nsubj"}),
                           object_labels=frozenset({"obj", "dobj"}))
PG_MAPPING = DeprelMapping(subject_labels=frozenset({"k1"}),
                           object_labels=frozenset({"k2"}),
                           frozen_labels=frozenset({"rsym", "punct"}))

MAPPING_PRESETS = {"ud": UD_MAPPING, "pg": PG_MAPPING}


@dataclass(frozen=True)
class VerbalProjection:
    verb_index: int
    spans: tuple[tuple[int, int], ...]  # each unit's inclusive span, verb included, sorted

    @property
    def unit_count(self) -> int:
        return len(self.spans)


@dataclass(eq=False)
class PermutationVariant:
    """One linear order of a projection's units.

    ``positions`` holds the source token at each new position. The
    relinearized tree is built from ``source`` the first time ``tree`` is
    read, so variants that the balancer drops never build one.
    """
    order: OrderLabel
    perm: tuple[int, ...]        # permutation of unit slots, identity = (0, 1, ...)
    positions: tuple[int, ...]   # source token index occupying each new position
    source: DepTree = field(repr=False)
    perplexity: float | None = None

    @cached_property
    def tree(self) -> DepTree:
        src = self.source
        new_index = {old: new for new, old in enumerate(self.positions, start=1)}
        new_index[0] = 0
        tokens = []
        for new_pos, old in enumerate(self.positions, start=1):
            tok = src.token(old)
            tokens.append(replace(tok, index=new_pos, head=new_index[tok.head]))
        tree = src.with_tokens(tokens)
        perm_str = ",".join(map(str, self.perm))
        tree.comments = list(src.comments) + [
            f"# scramble_order={self.order.value} perm={perm_str}"]
        return tree

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))


@dataclass(eq=False)
class PermutationBatch:
    """The orders of one projection's units, as arrays.

    Row i of ``perms`` is order i's permutation of the unit slots and row
    i of ``positions`` the source token at each of its new positions: all
    that the LM filter scores. ``perplexities`` holds row i's score at i
    once ``score_batches`` has scored the batch. ``variants`` builds each
    order's ``PermutationVariant``, labelled through ``roles`` (the
    source's ``_clause_roles``) and carrying its row's perplexity, the
    first time it is read (before scoring, with none), so orders that are
    only scored build none.
    """
    source: DepTree
    projection: VerbalProjection
    perms: np.ndarray = field(repr=False)      # (orders, units)
    positions: np.ndarray = field(repr=False)  # (orders, tokens), 1-based
    roles: list = field(repr=False)
    perplexities: list[float] | None = field(default=None, repr=False)

    @cached_property
    def variants(self) -> list[PermutationVariant]:
        ppls = self.perplexities or [None] * len(self.perms)
        return [PermutationVariant(_order_label(self.roles, positions.index), tuple(perm),
                                   positions, self.source, ppl)
                for perm, positions, ppl in zip(self.perms.tolist(),
                                                map(tuple, self.positions.tolist()), ppls)]


def _verbal_heads(tree: DepTree, mapping: DeprelMapping,
                  children: list[list[int]]) -> list[int]:
    role_labels = mapping.subject_labels | mapping.object_labels
    heads = []
    for tok in tree.tokens:
        if tok.upos in ("VERB", "AUX"):
            heads.append(tok.index)
        elif any(base_label(tree.deprel_of(c)) in role_labels for c in children[tok.index]):
            heads.append(tok.index)
    return heads


def extract_projections(tree: DepTree, mapping: DeprelMapping) -> list[VerbalProjection]:
    """One projection per verbal head; its units are the head itself and
    its direct dependents' full subtrees, minus frozen labels."""
    if not is_projective(tree):
        raise ValueError(f"sentence {tree.label()} is non-projective; projectivize first")
    shape = tree.shape()
    children, lo, hi = shape.children, shape.lo, shape.hi
    return [VerbalProjection(v, tuple(sorted([(v, v)] + [
                (lo[c], hi[c]) for c in children[v]
                if base_label(tree.deprel_of(c)) not in mapping.frozen_labels])))
            for v in _verbal_heads(tree, mapping, children)]


def _clause_roles(tree: DepTree,
                  mapping: DeprelMapping) -> list[tuple[int, list[int], list[int]]]:
    """The shallowest verbal heads of ``tree``, each with its subject and
    object children. Relinearizing the tree changes none of these; it
    only changes which of the heads comes first."""
    shape = tree.shape()
    children, depth = shape.children, shape.depth
    heads = _verbal_heads(tree, mapping, children)
    if not heads:
        return []
    top = min(depth[h] for h in heads)
    roles = []
    for h in heads:
        if depth[h] == top:
            subjects = [c for c in children[h]
                        if base_label(tree.deprel_of(c)) in mapping.subject_labels]
            objects = [c for c in children[h]
                       if base_label(tree.deprel_of(c)) in mapping.object_labels]
            roles.append((h, subjects, objects))
    return roles


def _order_label(roles, position) -> OrderLabel:
    """S/O/V label of a linearization, given ``_clause_roles`` of the tree
    and a function from token to its (increasing) position."""
    if not roles:
        return OrderLabel.NONTRANSITIVE
    main, subjects, objects = roles[0] if len(roles) == 1 else min(
        roles, key=lambda r: position(r[0]))
    if len(subjects) != 1 or len(objects) != 1:
        return OrderLabel.NONTRANSITIVE
    (_, a), (_, b), (_, c) = sorted([(position(subjects[0]), "S"),
                                     (position(objects[0]), "O"), (position(main), "V")])
    return OrderLabel(a + b + c)


def classify_order(tree: DepTree, mapping: DeprelMapping) -> OrderLabel:
    """S/O/V order of the main clause, or NONTRANSITIVE when the main
    verbal head does not have exactly one subject and one object."""
    return _order_label(_clause_roles(tree, mapping), lambda i: i)


def order_distribution(labels) -> dict[OrderLabel, float]:
    """Percentage of each S/O/V order among the transitive ``labels``;
    empty when none of them is transitive."""
    counts = Counter(labels)
    total = sum(counts[label] for label in TRANSITIVE_ORDERS)
    return {label: 100.0 * counts[label] / total for label in TRANSITIVE_ORDERS} if total else {}


def select_representative(tb: Treebank, n: int = 4000, seed: int = 42) -> Treebank:
    """Seeded uniform sample of n trees, kept in corpus order (all of them
    when the treebank has no more than n)."""
    if n >= len(tb):
        return Treebank(list(tb.trees), source_name=tb.source_name)
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(tb), size=n, replace=False))
    return Treebank([tb[int(i)] for i in picked], source_name=tb.source_name)


@lru_cache(maxsize=64)
def _orders(n: int, spans: tuple, limit: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``perms`` and ``positions`` of every order of the units with the
    sorted inclusive ``spans`` in a sentence of ``n`` tokens, read-only.

    The units' tokens fill the same slots in every order: maximal runs of
    adjacent spans. Frozen tokens between runs never move, and an order
    fits when each run ends where one of its units ends.
    """
    m = len(spans)
    identity = tuple(range(m))
    if math.factorial(m) > limit:
        rng = np.random.default_rng(seed)
        chosen = {identity}
        while len(chosen) < limit:
            # One row per rng.permutation(m) call, in the same stream; a
            # block of the rows still missing cannot overfill the set.
            block = rng.permuted(np.tile(identity, (limit - len(chosen), 1)), axis=1)
            chosen.update(map(tuple, block.tolist()))
        perms = np.array(sorted(chosen))
    else:
        perms = np.array(list(itertools.permutations(identity)))
    lo, hi = np.array(spans).T
    sizes = hi - lo + 1
    run_ends = np.flatnonzero(lo[1:] != hi[:-1] + 1)  # the last unit of each run but the last
    if len(run_ends):
        reach = np.cumsum(sizes[perms], axis=1)  # tokens placed after each unit of an order
        ends = np.cumsum(sizes)[run_ends]
        perms = perms[(reach[:, :, None] == ends).any(axis=1).all(axis=1)]
    # The slots in order, refilled by each order's units in sequence: the
    # token at refill place j of unit u, which starts at place s, is lo_u + j - s.
    units = perms.ravel()
    width = sizes[units]
    refill = np.repeat(lo[units] - (np.cumsum(width) - width), width) + np.arange(width.sum())
    positions = np.tile(np.arange(1, n + 1), (len(perms), 1))
    positions[:, np.concatenate([np.arange(a - 1, b) for a, b in spans])] = \
        refill.reshape(len(perms), -1)
    perms, positions = perms.astype(np.min_scalar_type(m)), positions.astype(np.min_scalar_type(n))
    perms.flags.writeable = positions.flags.writeable = False
    return perms, positions


def permute_projection(tree: DepTree, projection: VerbalProjection, limit: int, *,
                       mapping: DeprelMapping = UD_MAPPING,
                       seed: int = 42) -> PermutationBatch:
    """All linear orderings of a projection's units, or ``limit`` of them
    drawn with ``seed`` when there are more.

    Each unit keeps its internal token order; heads and labels are
    remapped to the new indices; frozen tokens never move. When frozen
    tokens split the units' slots into runs, only the orders that place
    every unit inside one run are kept (a sampled batch may then hold
    fewer than ``limit``), so no unit is torn apart and the variant stays
    projective; the identity order always fits. Every variant
    carries a comment recording its order class and permutation. The
    orders are the layout's memoised arrays (see ``_orders``); the
    variants are built when read (see ``PermutationBatch``) and a
    variant's tree later still (see ``PermutationVariant``).
    """
    perms, positions = _orders(len(tree), projection.spans, limit, seed)
    return PermutationBatch(tree, projection, perms, positions, _clause_roles(tree, mapping))


def balance_orders(batches: list[PermutationBatch], budget: int) -> list[PermutationVariant]:
    """Round-robin over the six order classes, lowest perplexity first.

    Each class's variants are ranked by (perplexity, permutation), a
    missing perplexity last; among equal keys the variant pooled later
    ranks first. The picks are every class's first variant in class
    order, then every class's second, and so on, skipping classes that
    have run out, until the budget is reached: one sort by (rank within
    class, class). Identity permutations are always dropped (the source
    trees are kept in the training data anyway); variants from
    non-transitive clauses, ranked the same way, fill any budget left
    after the six classes are exhausted. Returns the chosen variants;
    only their trees are ever built.
    """
    def cost(v: PermutationVariant):
        return (v.perplexity if v.perplexity is not None else math.inf, v.perm)

    pooled = [v for batch in batches for v in batch.variants if not v.is_identity]
    ranked = sorted(reversed(pooled), key=cost)  # stable: later-pooled first among ties
    taken = Counter()
    places = []  # (rank within class, class) of each ranked variant; leftovers last
    for v in ranked:
        if v.order is OrderLabel.NONTRANSITIVE:
            places.append((math.inf, 0))
        else:
            places.append((taken[v.order], TRANSITIVE_ORDERS.index(v.order)))
            taken[v.order] += 1
    order = sorted(range(len(ranked)), key=places.__getitem__)
    return [ranked[i] for i in order[:budget]]
