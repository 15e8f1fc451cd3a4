"""The in-place arc-eager state against the frozen configuration it replaced.

``arceager.apply`` updates one mutable state per sentence and keeps each
head's leftmost and rightmost dependents as arcs are made, so
``parser.feature_indices`` reads them instead of rescanning every arc.
The functions below are the versions they replaced: a frozen value whose
``apply`` copies the arc dict, a legal set built per call and a feature
read that derives the children from all arcs. Driven by the same moves,
both must agree at every step on the stack, the buffer, the arcs in the
order they were made, the legal moves and the 11 feature indices. The
last tests hold the long inputs that the replaced state took quadratic
time on.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_tree, random_projective_tree
from scrambleparse import arceager
from scrambleparse.arceager import (LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT, Transition,
                                    static_oracle)
from scrambleparse.conllu import DepTree, Token
from scrambleparse.parser import feature_indices, oracle_rollout
from scrambleparse.projectivity import is_projective

LABELS = ("a", "b", "c", "d")


# --- reference versions --------------------------------------------------

@dataclass(frozen=True)
class RefConfiguration:
    n: int
    stack: tuple[int, ...]
    buffer_start: int
    heads: dict = field(default_factory=dict, hash=False)  # dependent -> (head, label)

    @property
    def stack_top(self):
        return self.stack[-1] if self.stack else None

    @property
    def buffer_front(self):
        return self.buffer_start if self.buffer_start <= self.n else None


def ref_initial_config(n):
    if n < 1:
        raise ValueError("sentence must contain at least one token")
    return RefConfiguration(n=n, stack=(0,), buffer_start=1)


def ref_is_terminal(c):
    return c.buffer_start > c.n


def ref_legal_transitions(c):
    legal = set()
    s = c.stack_top
    if c.buffer_front is not None:
        legal.add(SHIFT)
        if s is not None:
            legal.add(RIGHT_ARC)
        if s not in (None, 0) and s not in c.heads:
            legal.add(LEFT_ARC)
    if s not in (None, 0) and s in c.heads:
        legal.add(REDUCE)
    return legal


def ref_apply(c, t):
    s = c.stack_top
    b = c.buffer_front
    if t.kind == SHIFT:
        if b is None:
            raise ValueError("shift: buffer is empty")
        return RefConfiguration(c.n, c.stack + (b,), c.buffer_start + 1, c.heads)
    if t.kind == LEFT_ARC:
        if b is None:
            raise ValueError("left_arc: buffer is empty")
        if s in (None, 0):
            raise ValueError("left_arc: stack top is ROOT or missing")
        if s in c.heads:
            raise ValueError("left_arc: stack top already has a head")
        heads = dict(c.heads)
        heads[s] = (b, t.label)
        return RefConfiguration(c.n, c.stack[:-1], c.buffer_start, heads)
    if t.kind == RIGHT_ARC:
        if b is None:
            raise ValueError("right_arc: buffer is empty")
        if s is None:
            raise ValueError("right_arc: stack is empty")
        heads = dict(c.heads)
        heads[b] = (s, t.label)
        return RefConfiguration(c.n, c.stack + (b,), c.buffer_start + 1, heads)
    if t.kind == REDUCE:
        if s in (None, 0):
            raise ValueError("reduce: stack top is ROOT or missing")
        if s not in c.heads:
            raise ValueError("reduce: stack top has no head yet")
        return RefConfiguration(c.n, c.stack[:-1], c.buffer_start, c.heads)
    raise ValueError(f"unknown transition kind '{t.kind}'")


def ref_static_oracle(tree):
    if not is_projective(tree):
        raise ValueError(f"sentence {tree.label()} is non-projective; "
                         "projectivize before deriving oracle sequences")
    gold_head = {t.index: t.head for t in tree.tokens}
    gold_label = {t.index: t.deprel for t in tree.tokens}
    dependents = tree.shape().children
    c = ref_initial_config(len(tree.tokens))
    seq = []
    while not ref_is_terminal(c):
        s = c.stack_top
        b = c.buffer_front
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
        c = ref_apply(c, t)
    return seq


def ref_feature_indices(c):
    leftmost = {}
    rightmost = {}
    for d, (h, _) in c.heads.items():
        if d < leftmost.get(h, d + 1):
            leftmost[h] = d
        if d > rightmost.get(h, -1):
            rightmost[h] = d
    stack = c.stack
    s0 = stack[-1] if len(stack) >= 1 else None
    s1 = stack[-2] if len(stack) >= 2 else None
    s2 = stack[-3] if len(stack) >= 3 else None
    b0 = c.buffer_front
    return [-1 if i is None else i for i in (
            s0, s1, s2, b0,
            leftmost.get(s0), rightmost.get(s0), leftmost.get(s1), rightmost.get(s1),
            leftmost.get(s2), rightmost.get(s2), leftmost.get(b0))]


def ref_oracle_rollout(tree):
    seq = ref_static_oracle(tree)
    c = ref_initial_config(len(tree.tokens))
    idx_rows = []
    for t in seq:
        idx_rows.append(ref_feature_indices(c))
        c = ref_apply(c, t)
    return np.array(idx_rows, dtype=np.intp), seq


# --- lockstep ------------------------------------------------------------

def assert_same_state(ref, new):
    assert list(ref.stack) == new.stack
    assert ref.buffer_start == new.buffer_start
    assert list(ref.heads.items()) == list(new.heads.items())
    assert ref_is_terminal(ref) == arceager.is_terminal(new)
    assert arceager.legal_transitions(new) == ref_legal_transitions(ref)
    assert arceager.legal_transitions(new) in arceager.LEGAL_SETS
    assert feature_indices(new) == ref_feature_indices(ref)


def snapshot(c):
    return (list(c.stack), c.buffer_start, list(c.heads.items()), dict(c.lc), dict(c.rc))


def step_both(ref, new, t):
    """Apply ``t`` to both; a move one rejects the other must reject too,
    and leave the in-place state as it was."""
    before = snapshot(new)
    try:
        ref = ref_apply(ref, t)
    except ValueError:
        with pytest.raises(ValueError):
            arceager.apply(new, t)
        assert snapshot(new) == before
        return ref, False
    assert arceager.apply(new, t) is new
    assert_same_state(ref, new)
    return ref, True


def trees(max_tokens=14):
    return st.builds(lambda seed, n: random_projective_tree(np.random.default_rng(seed), n),
                     st.integers(0, 2**32 - 1), st.integers(1, max_tokens))


@settings(max_examples=300, deadline=None)
@given(tree=trees())
def test_oracle_path_matches_reference(tree):
    seq = static_oracle(tree)
    assert seq == ref_static_oracle(tree)
    ref, new = ref_initial_config(len(tree)), arceager.Configuration(len(tree))
    assert_same_state(ref, new)
    for t in seq:
        ref, applied = step_both(ref, new, t)
        assert applied
    assert arceager.is_terminal(new)
    assert set(new.heads) == set(range(1, len(tree) + 1))

    rows, rseq = oracle_rollout(tree)
    ref_rows, ref_seq = ref_oracle_rollout(tree)
    assert rseq == ref_seq
    assert rows.dtype == ref_rows.dtype and np.array_equal(rows, ref_rows)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_random_moves_match_reference(n, data):
    """Random moves, legal or not: every kind is tried, so the rejected
    ones check that ``legal_transitions`` and ``apply`` agree."""
    ref, new = ref_initial_config(n), arceager.Configuration(n)
    assert_same_state(ref, new)
    while True:
        legal = arceager.legal_transitions(new)
        if arceager.is_terminal(new) and not legal:
            break
        kind = data.draw(st.sampled_from((SHIFT, LEFT_ARC, RIGHT_ARC, REDUCE)))
        label = data.draw(st.sampled_from(LABELS)) if kind in (LEFT_ARC, RIGHT_ARC) else None
        ref, applied = step_both(ref, new, Transition(kind, label))
        assert applied == (kind in legal)


# --- long inputs ---------------------------------------------------------

N_LONG = 8000


def comb_tree(n):
    """Token 1 heads every odd token from 3 on, and each of those heads the
    token before it: the oracle shifts past token 1's pending dependents
    about n/2 times."""
    return DepTree([Token(1, "w1", head=0, deprel="root")]
                   + [Token(i, f"w{i}", head=i + 1 if i % 2 == 0 and i < n else 1, deprel="a")
                      for i in range(2, n + 1)])


@pytest.mark.parametrize("make_tree", [chain_tree, comb_tree])
def test_oracle_rollout_on_a_long_tree_is_linear(make_tree):
    tree = make_tree(N_LONG)
    start = time.perf_counter()
    rows, seq = oracle_rollout(tree)
    elapsed = time.perf_counter() - start
    assert len(seq) == len(rows) <= 2 * len(tree)
    assert elapsed < 1.0  # linear: about 0.1 s; copying the arcs per arc takes 2 s at 4,000 tokens
