"""Projectivity testing and pseudo-projective encoding/decoding.

Non-projective arcs are lifted to the closest ancestor that makes them
projective. The lifted dependent's label is rewritten to
``<original>∥<label-of-original-head>`` and every arc on the lifting
chain gets a ``†`` suffix, so that a breadth-first search from the
lifted head can undo the transformation after parsing.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace

from .conllu import DepTree, Treebank

HEAD_SEP = "∥"   # ∥ joins original label and original-head label
PATH_MARK = "†"  # † suffix on arcs along the lifting chain


@dataclass(frozen=True)
class LiftRecord:
    dependent: int
    original_head: int
    lifted_head: int
    encoded_label: str


def base_label(label: str) -> str:
    """Strip pseudo-projective encoding and path markers from a label."""
    label = label.split(HEAD_SEP, 1)[0]
    return label.rstrip(PATH_MARK)


def _descendant_sets(heads: dict[int, int], n: int) -> dict[int, set[int]]:
    children: dict[int, list[int]] = {i: [] for i in range(n + 1)}
    for d, h in heads.items():
        children[h].append(d)
    order = [0]  # breadth-first; walked backwards, every child comes before its head
    for node in order:
        order.extend(children[node])
    out: dict[int, set[int]] = {}
    for node in reversed(order):
        acc: set[int] = set()
        for c in children[node]:
            acc.add(c)
            acc |= out[c]
        out[node] = acc
    return out


def _nonprojective_arcs(heads: dict[int, int], n: int) -> list[tuple[int, int]]:
    desc = _descendant_sets(heads, n)
    bad = []
    for d, h in heads.items():
        if h == 0:
            continue  # arcs from the artificial root cannot cross anything
        lo, hi = (h, d) if h < d else (d, h)
        if any(k not in desc[h] for k in range(lo + 1, hi)):
            bad.append((h, d))
    return bad


def is_projective(tree: DepTree) -> bool:
    """True iff every token between a head and its dependent descends from the head."""
    heads = {t.index: t.head for t in tree.tokens}
    return not _nonprojective_arcs(heads, len(tree.tokens))


def nonprojective_arc_ratio(tb: Treebank) -> float:
    """Fraction of arcs, over the whole treebank, that are non-projective."""
    total = 0
    bad = 0
    for tree in tb:
        heads = {t.index: t.head for t in tree.tokens}
        total += len(tree.tokens)
        bad += len(_nonprojective_arcs(heads, len(tree.tokens)))
    if total == 0:
        raise ValueError("cannot compute non-projective ratio of an empty treebank")
    return bad / total


def projectivize(tree: DepTree) -> tuple[DepTree, list[LiftRecord]]:
    """Lift non-projective arcs until the tree is projective.

    Returns the transformed tree and one record per lifted dependent.
    Projective input comes back unchanged with an empty record list.
    """
    n = len(tree.tokens)
    heads = {t.index: t.head for t in tree.tokens}
    orig_heads = dict(heads)
    orig_labels = {t.index: t.deprel for t in tree.tokens}
    first_lift: dict[int, int] = {}

    while True:
        bad = _nonprojective_arcs(heads, n)
        if not bad:
            break
        # Shortest arc first keeps the number of lifts minimal.
        h, d = min(bad, key=lambda arc: (abs(arc[0] - arc[1]), arc[1]))
        first_lift.setdefault(d, h)
        heads[d] = heads[h]

    if not first_lift:
        return tree, []

    labels = dict(orig_labels)
    marked: set[int] = set()
    records = []
    for d in sorted(first_lift):
        origin = first_lift[d]
        target_label = orig_labels[origin]
        labels[d] = f"{orig_labels[d]}{HEAD_SEP}{target_label}"
        # Mark the chain from the original head up to the final head.
        chain = []
        node = origin
        while node not in (heads[d], 0):
            chain.append(node)
            node = heads[node]
        if node == heads[d]:
            marked.update(chain)
        records.append(LiftRecord(dependent=d, original_head=origin,
                                  lifted_head=heads[d], encoded_label=labels[d]))

    tokens = []
    for t in tree.tokens:
        lbl = labels[t.index]
        if t.index in marked and HEAD_SEP not in lbl:
            lbl = lbl + PATH_MARK
        tokens.append(replace(t, head=heads[t.index], deprel=lbl))
    return tree.with_tokens(tokens), records


def deprojectivize(tree: DepTree) -> DepTree:
    """Undo pseudo-projective lifting by breadth-first label search.

    For an arc labelled ``base∥target`` the dependent is reattached to the
    first descendant of its current head whose (decoded) label equals
    ``target``; path-marked arcs are explored first, ties leftmost-first.
    If no target is found the encoding is stripped and the attachment kept.
    """
    heads = {t.index: t.head for t in tree.tokens}
    labels = {t.index: t.deprel for t in tree.tokens}

    def child_order(node: int) -> list[int]:
        kids = [d for d, h in heads.items() if h == node]
        return sorted(kids, key=lambda k: (not labels[k].endswith(PATH_MARK), k))

    def depth(i: int) -> int:
        d = 0
        node = i
        while node != 0:
            node = heads[node]
            d += 1
        return d

    # Outermost first (closest to root) so nested reattachments see the
    # already-recovered structure above them.
    encoded = sorted((i for i in heads if HEAD_SEP in labels[i]),
                     key=lambda i: (depth(i), i))
    for d in encoded:
        base, _, target = labels[d].partition(HEAD_SEP)
        base = base.rstrip(PATH_MARK)
        target = target.rstrip(PATH_MARK)
        start = heads[d]
        # Reattaching inside d's own subtree would create a cycle.
        forbidden = {d}
        stack = [d]
        while stack:
            node = stack.pop()
            kids = [k for k, h in heads.items() if h == node and k not in forbidden]
            forbidden.update(kids)
            stack.extend(kids)
        queue = deque(k for k in child_order(start) if k not in forbidden)
        found = None
        while queue:
            node = queue.popleft()
            if base_label(labels[node]) == target:
                found = node
                break
            queue.extend(k for k in child_order(node) if k not in forbidden)
        if found is None:
            warnings.warn(f"no attachment target labelled '{target}' found for token {d}; "
                          "keeping lifted attachment")
        else:
            heads[d] = found
        labels[d] = base

    tokens = [replace(t, head=heads[t.index], deprel=base_label(labels[t.index]))
              for t in tree.tokens]
    return tree.with_tokens(tokens)
