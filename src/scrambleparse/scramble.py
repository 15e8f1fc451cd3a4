"""Argument-scrambling data augmentation.

Identifies verbal projections in projective trees, permutes the linear
order of the verb and its argument/adjunct subtrees while keeping all
dominance relations intact, labels each variant with its S/O/V order,
and balances the class distribution of the resulting pool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .conllu import DepTree, TreeShape, Treebank
from .projectivity import base_label, is_projective

MAX_UNITS_WITHOUT_LIMIT = 8  # 8! = 40320 variants; beyond that require an explicit cap


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
    constituent_roots: tuple[int, ...]
    span_map: dict  # unit root (verb included) -> inclusive (lo, hi) span
    # The source tree's shape, so permuting does not walk the tree again.
    shape: TreeShape | None = field(default=None, compare=False, repr=False)

    @property
    def unit_count(self) -> int:
        return 1 + len(self.constituent_roots)


class PermutationVariant:
    """One linear order of a projection's units.

    ``positions`` holds the source token at each new position and
    ``forms`` the words in that order. The relinearized tree is built
    from ``source`` the first time ``tree`` is read, so variants that the
    LM filter or the balancer drop never build one. A variant can also
    be made from a ready ``tree``.
    """

    def __init__(self, *, order: OrderLabel, perm: tuple[int, ...],
                 positions: tuple[int, ...], perplexity: float | None = None,
                 tree: DepTree | None = None, source: DepTree | None = None,
                 forms: tuple[str, ...] | None = None):
        self.order = order
        self.perm = perm              # permutation of unit slots, identity = (0, 1, ...)
        self.positions = positions    # source token index occupying each new position
        self.perplexity = perplexity
        self.source = source
        if tree is not None:
            self.__dict__["tree"] = tree
        self.forms = forms if forms is not None else tuple(self.tree.forms())

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


@dataclass
class PermutationBatch:
    source: DepTree
    projection: VerbalProjection
    variants: list[PermutationVariant]


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
    """One projection per verbal head; constituents are the head's direct
    dependents' full subtrees, minus frozen labels."""
    shape = tree.shape()
    if not is_projective(tree, shape):
        raise ValueError(f"sentence {tree.label()} is non-projective; projectivize first")
    children = shape.children
    projections = []
    for v in _verbal_heads(tree, mapping, children):
        roots = [c for c in children[v]
                 if base_label(tree.deprel_of(c)) not in mapping.frozen_labels]
        span_map = {v: (v, v)}
        for r in roots:
            span_map[r] = (shape.lo[r], shape.hi[r])
        projections.append(VerbalProjection(verb_index=v,
                                            constituent_roots=tuple(roots),
                                            span_map=span_map, shape=shape))
    return projections


def _clause_roles(tree: DepTree, mapping: DeprelMapping,
                  shape: TreeShape | None = None) -> list[tuple[int, list[int], list[int]]]:
    """The shallowest verbal heads of ``tree`` (of shape ``shape``), each
    with its subject and object children. Relinearizing the tree changes
    none of these; it only changes which of the heads comes first."""
    shape = shape or tree.shape()
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


def order_distribution(tb: Treebank, mapping: DeprelMapping) -> dict[OrderLabel, float]:
    """Percentage of each S/O/V order among the transitive sentences."""
    counts = {label: 0 for label in TRANSITIVE_ORDERS}
    total = 0
    for tree in tb:
        label = classify_order(tree, mapping)
        if label is not OrderLabel.NONTRANSITIVE:
            counts[label] += 1
            total += 1
    if total == 0:
        raise ValueError("treebank contains no transitive sentences")
    return {label: 100.0 * c / total for label, c in counts.items()}


def select_representative(tb: Treebank, n: int = 4000, seed: int = 42) -> Treebank:
    """Seeded uniform sample of n trees, kept in corpus order (all of them
    when the treebank has no more than n)."""
    if n >= len(tb):
        return Treebank(list(tb.trees), source_name=tb.source_name)
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(tb), size=n, replace=False))
    return Treebank([tb[int(i)] for i in picked], source_name=tb.source_name)


def permute_projection(tree: DepTree, projection: VerbalProjection,
                       limit: int | None = None, *,
                       mapping: DeprelMapping = UD_MAPPING,
                       seed: int = 42) -> PermutationBatch:
    """All linear orderings of a projection's units (capped at ``limit``).

    Each unit keeps its internal token order; heads and labels are
    remapped to the new indices; frozen tokens never move. Every variant
    carries a comment recording its order class and permutation. Variants
    get their order class and word sequence here; their trees are built
    only when read (see ``PermutationVariant``).
    """
    m = projection.unit_count
    if m > MAX_UNITS_WITHOUT_LIMIT and limit is None:
        raise ValueError(f"projection has {m} units ({math.factorial(m)} permutations); "
                         "pass an explicit limit")
    spans = sorted(projection.span_map.values())
    unit_tokens = [list(range(lo, hi + 1)) for lo, hi in spans]
    forms = tree.forms()
    unit_forms = [forms[lo - 1:hi] for lo, hi in spans]
    # The units' tokens fill the same slots in every variant: maximal runs
    # of adjacent spans, as 0-based [start, stop). Frozen tokens between
    # runs never move.
    runs: list[list[int]] = []
    for lo, hi in spans:
        if runs and runs[-1][1] == lo - 1:
            runs[-1][1] = hi
        else:
            runs.append([lo - 1, hi])

    identity = tuple(range(m))
    total = math.factorial(m)
    if limit is not None and total > limit:
        rng = np.random.default_rng(seed)
        chosen = {identity}
        while len(chosen) < limit:
            chosen.add(tuple(int(x) for x in rng.permutation(m)))
        perms = sorted(chosen)
    else:
        perms = [tuple(p) for p in itertools.permutations(range(m))]

    roles = _clause_roles(tree, mapping, projection.shape)
    base = list(range(1, len(forms) + 1))
    variants = []
    for perm in perms:
        refill = [i for u in perm for i in unit_tokens[u]]
        refill_forms = [w for u in perm for w in unit_forms[u]]
        positions = base[:]
        words = forms[:]
        at = 0
        for start, stop in runs:
            end = at + stop - start
            positions[start:stop] = refill[at:end]
            words[start:stop] = refill_forms[at:end]
            at = end
        positions = tuple(positions)
        variants.append(PermutationVariant(
            order=_order_label(roles, positions.index), perm=perm, positions=positions,
            source=tree, forms=tuple(words)))
    return PermutationBatch(source=tree, projection=projection, variants=variants)


def balance_orders(batches: list[PermutationBatch], budget: int,
                   include_identity: bool = False) -> Treebank:
    """Round-robin over the six order classes, lowest perplexity first.

    Repeatedly takes the cheapest unused variant of the currently
    least-represented class until the budget is reached or the pool runs
    dry. Identity permutations are dropped by default (the source trees
    are kept in the training data anyway); variants from non-transitive
    clauses fill any budget left after the six classes are exhausted.
    Only the chosen variants build their trees.
    """
    pools: dict[OrderLabel, list[PermutationVariant]] = {l: [] for l in TRANSITIVE_ORDERS}
    leftovers: list[PermutationVariant] = []
    for batch in batches:
        for v in batch.variants:
            if v.is_identity and not include_identity:
                continue
            if v.order is OrderLabel.NONTRANSITIVE:
                leftovers.append(v)
            else:
                pools[v.order].append(v)

    def cost(v: PermutationVariant):
        return (v.perplexity if v.perplexity is not None else math.inf, v.perm)

    for pool in pools.values():
        pool.sort(key=cost, reverse=True)  # cheapest last, popped first
    leftovers.sort(key=cost, reverse=True)

    chosen: list[PermutationVariant] = []
    taken = {label: 0 for label in TRANSITIVE_ORDERS}
    while len(chosen) < budget and any(pools.values()):
        label = min((l for l in TRANSITIVE_ORDERS if pools[l]),
                    key=lambda l: (taken[l], TRANSITIVE_ORDERS.index(l)))
        chosen.append(pools[label].pop())
        taken[label] += 1
    while len(chosen) < budget and leftovers:
        chosen.append(leftovers.pop())
    return Treebank([v.tree for v in chosen], source_name="augmented")
