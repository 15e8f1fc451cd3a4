"""Projectivity testing and pseudo-projective encoding/decoding.

Non-projective arcs are lifted to the closest ancestor that makes them
projective. The lifted dependent's label is rewritten to
``<original>∥<label-of-original-head>`` and every arc on the lifting
chain gets a ``†`` suffix, so that a breadth-first search from the
lifted head can undo the transformation after parsing.

Every test reads the tree's ``conllu.tree_shape``: a token descends from
a head when its preorder position falls inside the head's subtree, and a
head whose subtree is contiguous cannot have a crossing arc, so a
projective tree is checked in linear time.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, replace

from .conllu import DepTree, TreeShape, Treebank, tree_shape

log = logging.getLogger(__name__)

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


def _nonprojective_arcs(heads: list[int], shape: TreeShape | None = None) -> list[tuple[int, int]]:
    """(head, dependent) arcs with a token between them that the head does
    not dominate. A head whose subtree is contiguous has none. ``shape``
    is the head column's ``tree_shape``, built here when not given."""
    shape = shape or tree_shape(heads)
    pre, size, lo, hi = shape.pre, shape.size, shape.lo, shape.hi
    bad = []
    for d in range(1, len(heads)):
        h = heads[d]
        if h == 0 or hi[h] - lo[h] + 1 == size[h]:
            continue  # arcs from ROOT or over a contiguous subtree cross nothing
        first, end = pre[h], pre[h] + size[h]
        a, b = (h, d) if h < d else (d, h)
        if any(not first < pre[k] < end for k in range(a + 1, b)):
            bad.append((h, d))
    return bad


def _head_column(tree: DepTree) -> list[int]:
    return [0] + [t.head for t in tree.tokens]


def is_projective(tree: DepTree) -> bool:
    """True iff every token between a head and its dependent descends from
    the head. The tree keeps the verdict, so it is tested once."""
    if tree._projective is None:
        tree._projective = not _nonprojective_arcs(_head_column(tree), tree.shape())
    return tree._projective


def nonprojective_arc_ratio(tb: Treebank) -> float | None:
    """Fraction of arcs, over the whole treebank, that are non-projective;
    None when the treebank has no token."""
    total = 0
    bad = 0
    for tree in tb:
        total += len(tree.tokens)
        bad += len(_nonprojective_arcs(_head_column(tree), tree.shape()))
    return bad / total if total else None


def projectivize(tree: DepTree) -> tuple[DepTree, list[LiftRecord]]:
    """Lift non-projective arcs until the tree is projective.

    Returns the transformed tree and one record per lifted dependent.
    Projective input comes back unchanged with an empty record list.
    """
    heads = _head_column(tree)
    orig_labels = {t.index: t.deprel for t in tree.tokens}
    first_lift: dict[int, int] = {}

    while True:
        bad = _nonprojective_arcs(heads)
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
    If no target is found the encoding is stripped, the attachment kept and
    a warning logged.
    """
    heads = _head_column(tree)
    labels = {t.index: t.deprel for t in tree.tokens}
    # Outermost first (closest to root) so nested reattachments see the
    # already-recovered structure above them.
    depth = tree_shape(heads).depth
    encoded = sorted((i for i in labels if HEAD_SEP in labels[i]), key=lambda i: (depth[i], i))
    for d in encoded:
        base, _, target = labels[d].partition(HEAD_SEP)
        base = base.rstrip(PATH_MARK)
        target = target.rstrip(PATH_MARK)
        # Heads change with every reattachment, so each label gets its own shape.
        shape = tree_shape(heads)
        children, pre = shape.children, shape.pre
        # Reattaching inside d's own subtree would create a cycle.
        first, end = pre[d], pre[d] + shape.size[d]

        def child_order(node: int) -> list[int]:
            """Children outside d's subtree, path-marked first, then leftmost."""
            return sorted((k for k in children[node] if not first <= pre[k] < end),
                          key=lambda k: not labels[k].endswith(PATH_MARK))

        queue = deque(child_order(heads[d]))
        found = None
        while queue:
            node = queue.popleft()
            if base_label(labels[node]) == target:
                found = node
                break
            queue.extend(child_order(node))
        if found is None:
            log.warning("no attachment target labelled '%s' found for token %d of sentence %s;"
                        " keeping the lifted attachment", target, d, tree.label())
        else:
            heads[d] = found
        labels[d] = base

    tokens = [replace(t, head=heads[t.index], deprel=base_label(labels[t.index]))
              for t in tree.tokens]
    return tree.with_tokens(tokens)
