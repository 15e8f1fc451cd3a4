"""One tree-shape walk against the walks it replaced.

``conllu.tree_shape`` derives children, preorder positions, subtree sizes,
spans and depths in one pass, and projectivity, scrambling and the oracle
read them from there. The functions below are the versions they replaced:
descendant sets per head, a children map and a subtree walk per
constituent, a depth walk per token and a scan over all heads per search
step. Each consumer must give exactly the same result on random head
columns, projective or not, with one or two roots. The last tests hold
the long inputs that the replaced walks took quadratic time or memory on.
"""

import time
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_tree
from scrambleparse import conllu, projectivity
from scrambleparse.arceager import (LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT, Transition, apply,
                                    Configuration, is_terminal, static_oracle)
from scrambleparse.conllu import DepTree, Token, Treebank, tree_shape
from scrambleparse.projectivity import (HEAD_SEP, PATH_MARK, LiftRecord, base_label,
                                        deprojectivize, is_projective,
                                        nonprojective_arc_ratio, projectivize)
from scrambleparse.scramble import (UD_MAPPING, _order_label, _verbal_heads, classify_order,
                                    extract_projections, permute_projection)

LABELS = ("nsubj", "obj", "case", "obl", "punct", "a", "b")
UPOS = ("VERB", "NOUN", "ADP", "X")


# --- reference versions --------------------------------------------------

def ref_children(tree):
    children = {i: [] for i in range(len(tree.tokens) + 1)}
    for t in tree.tokens:
        children[t.head].append(t.index)
    return children


def ref_descendants(tree, index):
    children = ref_children(tree)
    out = set()
    stack = list(children[index])
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        stack.extend(children[node])
    return out


def ref_subtree_span(tree, index):
    nodes = ref_descendants(tree, index) | {index}
    return min(nodes), max(nodes)


def ref_depth(heads, i):
    d = 0
    node = i
    while node != 0:
        node = heads[node]
        d += 1
    return d


def ref_descendant_sets(heads, n):
    children = {i: [] for i in range(n + 1)}
    for d, h in heads.items():
        children[h].append(d)
    order = [0]
    for node in order:
        order.extend(children[node])
    out = {}
    for node in reversed(order):
        acc = set()
        for c in children[node]:
            acc.add(c)
            acc |= out[c]
        out[node] = acc
    return out


def ref_nonprojective_arcs(heads, n):
    desc = ref_descendant_sets(heads, n)
    bad = []
    for d, h in heads.items():
        if h == 0:
            continue
        lo, hi = (h, d) if h < d else (d, h)
        if any(k not in desc[h] for k in range(lo + 1, hi)):
            bad.append((h, d))
    return bad


def ref_is_projective(tree):
    heads = {t.index: t.head for t in tree.tokens}
    return not ref_nonprojective_arcs(heads, len(tree.tokens))


def ref_projectivize(tree):
    n = len(tree.tokens)
    heads = {t.index: t.head for t in tree.tokens}
    orig_labels = {t.index: t.deprel for t in tree.tokens}
    first_lift = {}
    while True:
        bad = ref_nonprojective_arcs(heads, n)
        if not bad:
            break
        h, d = min(bad, key=lambda arc: (abs(arc[0] - arc[1]), arc[1]))
        first_lift.setdefault(d, h)
        heads[d] = heads[h]
    if not first_lift:
        return tree, []
    labels = dict(orig_labels)
    marked = set()
    records = []
    for d in sorted(first_lift):
        origin = first_lift[d]
        labels[d] = f"{orig_labels[d]}{HEAD_SEP}{orig_labels[origin]}"
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


def ref_deprojectivize(tree):
    heads = {t.index: t.head for t in tree.tokens}
    labels = {t.index: t.deprel for t in tree.tokens}

    def child_order(node):
        kids = [d for d, h in heads.items() if h == node]
        return sorted(kids, key=lambda k: (not labels[k].endswith(PATH_MARK), k))

    encoded = sorted((i for i in heads if HEAD_SEP in labels[i]),
                     key=lambda i: (ref_depth(heads, i), i))
    for d in encoded:
        base, _, target = labels[d].partition(HEAD_SEP)
        base = base.rstrip(PATH_MARK)
        target = target.rstrip(PATH_MARK)
        forbidden = {d}
        stack = [d]
        while stack:
            node = stack.pop()
            kids = [k for k, h in heads.items() if h == node and k not in forbidden]
            forbidden.update(kids)
            stack.extend(kids)
        queue = deque(k for k in child_order(heads[d]) if k not in forbidden)
        found = None
        while queue:
            node = queue.popleft()
            if base_label(labels[node]) == target:
                found = node
                break
            queue.extend(k for k in child_order(node) if k not in forbidden)
        if found is not None:
            heads[d] = found
        labels[d] = base
    tokens = [replace(t, head=heads[t.index], deprel=base_label(labels[t.index]))
              for t in tree.tokens]
    return tree.with_tokens(tokens)


def ref_projections(tree, mapping):
    """(verb, sorted unit spans) of each verbal head, a walk per unit."""
    children = ref_children(tree)
    out = []
    for v in _verbal_heads(tree, mapping, children):
        span_map = {v: (v, v)}
        for c in children[v]:
            if base_label(tree.deprel_of(c)) not in mapping.frozen_labels:
                span_map[c] = ref_subtree_span(tree, c)
        out.append((v, tuple(sorted(span_map.values()))))
    return out


def ref_classify_order(tree, mapping):
    children = ref_children(tree)
    verbal = _verbal_heads(tree, mapping, children)
    if not verbal:
        return _order_label([], None)
    heads = {t.index: t.head for t in tree.tokens}
    depths = {h: ref_depth(heads, h) for h in verbal}
    top = min(depths.values())
    roles = []
    for h in verbal:
        if depths[h] == top:
            labels = [(c, base_label(tree.deprel_of(c))) for c in children[h]]
            roles.append((h, [c for c, lbl in labels if lbl in mapping.subject_labels],
                          [c for c, lbl in labels if lbl in mapping.object_labels]))
    return _order_label(roles, lambda i: i)


def ref_static_oracle(tree):
    gold_head = {t.index: t.head for t in tree.tokens}
    gold_label = {t.index: t.deprel for t in tree.tokens}
    dependents = ref_children(tree)
    c = Configuration(len(tree.tokens))
    seq = []
    while not is_terminal(c):
        s = c.stack[-1]
        b = c.buffer_start
        if s is not None and s != 0 and gold_head[s] == b and s not in c.heads:
            t = Transition(LEFT_ARC, gold_label[s])
        elif s is not None and gold_head[b] == s:
            t = Transition(RIGHT_ARC, gold_label[b])
        elif (s not in (None, 0) and s in c.heads
              and not any(d >= c.buffer_start for d in dependents[s])):
            t = Transition(REDUCE)
        else:
            t = Transition(SHIFT)
        seq.append(t)
        c = apply(c, t)
    return seq


# --- random trees --------------------------------------------------------

@st.composite
def head_columns(draw, max_tokens=12):
    """Trees with one or two roots. Each token, in a random order, attaches
    to ROOT or to a token placed before it, so crossing arcs are common."""
    n = draw(st.integers(1, max_tokens))
    order = draw(st.permutations(range(1, n + 1)))
    n_roots = draw(st.integers(1, min(2, n)))
    heads = {}
    for rank, tok in enumerate(order):
        heads[tok] = 0 if rank < n_roots else order[draw(st.integers(0, rank - 1))]
    tokens = [Token(i, f"w{i}", upos=draw(st.sampled_from(UPOS)), head=heads[i],
                    deprel="root" if heads[i] == 0 else draw(st.sampled_from(LABELS)))
              for i in range(1, n + 1)]
    return DepTree(tokens, sentence_id="r1")


@st.composite
def encoded_trees(draw):
    """Random trees whose labels carry random lift encodings and path marks,
    including targets that are missing or sit inside the dependent's subtree."""
    tree = draw(head_columns())
    tokens = []
    for t in tree.tokens:
        label = t.deprel
        if t.head != 0 and draw(st.booleans()):
            label += HEAD_SEP + draw(st.sampled_from(LABELS + ("root", "missing")))
        if draw(st.integers(0, 3)) == 0:
            label += PATH_MARK
        tokens.append(replace(t, deprel=label))
    return tree.with_tokens(tokens)


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


@settings(max_examples=200, deadline=None)
@given(tree=head_columns())
def test_matches_replaced_walks(tree):
    n = len(tree.tokens)
    shape = tree.shape()
    heads = {t.index: t.head for t in tree.tokens}
    children = ref_children(tree)
    assert shape.children == [children[i] for i in range(n + 1)]
    for i in range(1, n + 1):
        assert shape.depth[i] == ref_depth(heads, i)
        assert (shape.lo[i], shape.hi[i]) == ref_subtree_span(tree, i)
        assert shape.size[i] == 1 + len(ref_descendants(tree, i))

    assert is_projective(tree) == ref_is_projective(tree)
    assert nonprojective_arc_ratio(Treebank([tree])) == \
        len(ref_nonprojective_arcs(heads, n)) / n

    proj, records = projectivize(tree)
    ref_proj, ref_records = ref_projectivize(tree)
    assert proj.tokens == ref_proj.tokens
    assert records == ref_records
    assert _quiet(deprojectivize, proj).tokens == _quiet(ref_deprojectivize, ref_proj).tokens

    assert classify_order(tree, UD_MAPPING) == ref_classify_order(tree, UD_MAPPING)
    assert classify_order(proj, UD_MAPPING) == ref_classify_order(proj, UD_MAPPING)
    assert [(p.verb_index, p.spans) for p in extract_projections(proj, UD_MAPPING)] == \
        ref_projections(proj, UD_MAPPING)
    assert static_oracle(proj)[1] == ref_static_oracle(proj)


@settings(max_examples=200, deadline=None)
@given(tree=encoded_trees())
def test_deprojectivize_matches_reference_on_arbitrary_encodings(tree):
    assert _quiet(deprojectivize, tree).tokens == _quiet(ref_deprojectivize, tree).tokens


def test_shape_of_a_small_tree():
    #        ROOT
    #         |
    #         2
    #       /   \
    #      1     4
    #           /
    #          3
    shape = tree_shape([0, 2, 0, 4, 2])
    assert shape.children == [[2], [], [1, 4], [], [3]]
    assert shape.pre == [0, 2, 1, 4, 3]
    assert shape.size == [5, 1, 4, 1, 2]
    assert shape.depth == [0, 2, 1, 3, 2]
    assert (shape.lo, shape.hi) == ([0, 1, 1, 3, 3], [4, 1, 4, 3, 4])


def test_a_tree_keeps_its_shape_and_a_copy_builds_its_own():
    tree = DepTree([Token(1, "a", head=2), Token(2, "b", head=0, deprel="root")])
    flipped = [Token(1, "a", head=0, deprel="root"), Token(2, "b", head=1)]
    with mock.patch.object(conllu, "tree_shape", side_effect=conllu.tree_shape) as build:
        shape = tree.shape()
        assert tree.shape() is shape
        assert build.call_count == 1
        for copy in (tree.with_tokens(flipped), replace(tree, tokens=flipped)):
            assert copy.shape() is not shape
            assert copy.shape().children == [[1], [2], []]
            assert copy.shape() is copy.shape()
        assert tree.with_tokens(list(tree.tokens)).shape() is not shape
        assert build.call_count == 4
    # The kept shape takes no part in equality or repr.
    assert tree == DepTree(list(tree.tokens))
    assert repr(tree) == repr(DepTree(list(tree.tokens)))


def test_a_tree_keeps_its_projectivity_verdict_and_a_copy_tests_its_own():
    tree = DepTree([Token(1, "a", head=3), Token(2, "b", head=0, deprel="root"),
                    Token(3, "c", head=2)])
    with mock.patch.object(projectivity, "_nonprojective_arcs",
                           side_effect=projectivity._nonprojective_arcs) as check:
        assert not is_projective(tree)
        assert not is_projective(tree)
        assert check.call_count == 1
        fixed = [Token(1, "a", head=2), Token(2, "b", head=0, deprel="root"), Token(3, "c", head=2)]
        for copy in (tree.with_tokens(fixed), replace(tree, tokens=fixed)):
            assert is_projective(copy) and is_projective(copy)
        assert check.call_count == 3
    # The kept verdict takes no part in equality or repr.
    assert tree == DepTree(list(tree.tokens))
    assert repr(tree) == repr(DepTree(list(tree.tokens)))


def _fresh(tree: DepTree) -> DepTree:
    return DepTree(list(tree.tokens), tree.sentence_id, list(tree.comments))


@settings(max_examples=200, deadline=None)
@given(tree=head_columns())
def test_a_kept_shape_gives_the_results_of_a_fresh_one(tree):
    """A tree whose shape was built earlier, and the trees derived from it
    (projectivized, relinearized), answer as a fresh copy does."""
    proj = projectivize(tree)[0]
    variants = [v.tree for p in extract_projections(proj, UD_MAPPING)
                for v in permute_projection(proj, p, limit=6, mapping=UD_MAPPING,
                                            seed=42).variants]
    for t in [tree, proj] + variants:
        t.shape()
        assert is_projective(t) == is_projective(_fresh(t))
        assert classify_order(t, UD_MAPPING) == classify_order(_fresh(t), UD_MAPPING)
    for t in [proj] + [v for v in variants if is_projective(v)]:
        assert extract_projections(t, UD_MAPPING) == extract_projections(_fresh(t), UD_MAPPING)


@pytest.mark.parametrize("heads", [[0, 2, 1], [0, 0, 3, 2], [0, 1], [0, 2, 3, 2]])
def test_cycle_raises(heads):
    with pytest.raises(ValueError, match="cycle"):
        tree_shape(heads)


def test_head_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        tree_shape([0, 0, 5])


# --- long inputs ---------------------------------------------------------

N_LONG = 4000


def star_tree(n):
    """One verb at token 1 heading every other token."""
    return DepTree([Token(1, "v", upos="VERB", head=0, deprel="root")]
                   + [Token(i, f"w{i}", upos="NOUN", head=1, deprel="obl")
                      for i in range(2, n + 1)])


def verb_chain(n):
    return DepTree([replace(t, upos="VERB") for t in chain_tree(n).tokens])


def test_extract_projections_on_a_long_star_is_linear():
    tree = star_tree(N_LONG)
    start = time.perf_counter()
    [projection] = extract_projections(tree, UD_MAPPING)
    elapsed = time.perf_counter() - start
    assert projection.spans == tuple((i, i) for i in range(1, N_LONG + 1))
    assert elapsed < 1.5  # linear: about 30 ms; a walk per constituent takes seconds


def test_classify_order_on_a_long_verb_chain_is_linear():
    tree = verb_chain(N_LONG)
    start = time.perf_counter()
    label = classify_order(tree, UD_MAPPING)
    elapsed = time.perf_counter() - start
    assert label.value == "NONTRANSITIVE"
    assert elapsed < 0.3  # linear: about 6 ms; a depth walk per verb takes over 1 s


def test_is_projective_on_a_long_chain_keeps_memory_linear():
    tree = chain_tree(N_LONG)
    tracemalloc.start()
    try:
        assert is_projective(tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # bytes, about 1.2 MB; descendant sets per head take 350 MB
