"""Arc-eager transition system: configurations, legal moves, the 11
feature nodes of a configuration, and the static oracle that turns a
projective gold tree into its moves and their feature rows in one walk.

A configuration is one sentence's state, which ``apply`` updates in
place in O(1). The buffer is always the contiguous suffix of the
sentence, so it is stored as a single front index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conllu import DepTree, Token
from .projectivity import is_projective

SHIFT = "shift"
LEFT_ARC = "left_arc"
RIGHT_ARC = "right_arc"
REDUCE = "reduce"

FALLBACK_LABEL = "dep"  # attachment for tokens left headless by greedy decoding


@dataclass(frozen=True)
class Transition:
    kind: str
    label: str | None = None

    def __post_init__(self):
        if self.kind not in (SHIFT, LEFT_ARC, RIGHT_ARC, REDUCE):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.kind in (LEFT_ARC, RIGHT_ARC) and not self.label:
            raise ValueError(f"{self.kind} requires a label")
        if self.kind in (SHIFT, REDUCE) and self.label is not None:
            raise ValueError(f"{self.kind} takes no label")


@dataclass(eq=False)
class Configuration:
    """One sentence's parser state, which ``apply`` updates in place. ROOT
    (0) is at the bottom of the stack and is never popped; the buffer is
    the tokens ``buffer_start`` to ``n``."""
    n: int
    stack: list[int] = field(default_factory=lambda: [0])
    buffer_start: int = 1
    heads: dict = field(default_factory=dict)  # dependent -> (head, label), in arc order
    lc: dict = field(default_factory=dict)  # head -> leftmost dependent so far
    rc: dict = field(default_factory=dict)  # head -> rightmost dependent so far


def is_terminal(c: Configuration) -> bool:
    # ROOT is never popped, so the stack condition always holds.
    return c.buffer_start > c.n


# Every set ``legal_transitions`` can return.
_SH_RA = frozenset({SHIFT, RIGHT_ARC})
_SH_RA_LA, _SH_RA_RE = _SH_RA | {LEFT_ARC}, _SH_RA | {REDUCE}
_RE, _NONE = frozenset({REDUCE}), frozenset()
LEGAL_SETS = (_SH_RA, _SH_RA_LA, _SH_RA_RE, _RE, _NONE)


def legal_transitions(c: Configuration) -> frozenset[str]:
    """The kinds ``apply`` accepts in ``c``: one of ``LEGAL_SETS``."""
    s = c.stack[-1]
    if c.buffer_start > c.n:
        return _RE if s in c.heads else _NONE
    return _SH_RA if s == 0 else _SH_RA_RE if s in c.heads else _SH_RA_LA


def apply(c: Configuration, t: Transition) -> Configuration:
    """Apply a transition to ``c`` in place and return ``c``. A kind
    outside ``legal_transitions(c)`` raises ``ValueError`` and leaves
    ``c`` as it was."""
    s, b = c.stack[-1], c.buffer_start
    if t.kind not in legal_transitions(c):
        top = "ROOT" if s == 0 else f"{s} ({'with a' if s in c.heads else 'no'} head)"
        front = "empty" if b > c.n else f"front {b}"
        raise ValueError(f"{t.kind} is not legal: stack top {top}, buffer {front}")
    if t.kind == REDUCE:
        c.stack.pop()
    elif t.kind == SHIFT:
        c.stack.append(b)
        c.buffer_start += 1
    elif t.kind == LEFT_ARC:
        c.heads[s] = (b, t.label)
        c.lc[b] = s  # b's dependents so far are all left ones, each left of the last
        c.rc.setdefault(b, s)
        c.stack.pop()
    else:
        c.heads[b] = (s, t.label)
        c.rc[s] = b  # b is right of every dependent s has so far
        c.lc.setdefault(s, b)
        c.stack.append(b)
        c.buffer_start += 1
    return c


# The 11 positional feature selectors: stack top three, buffer front,
# left/rightmost children of the stack's top three, leftmost child of
# the buffer front.
FEATURE_SELECTORS = ("s0", "s1", "s2", "b0",
                     "lc(s0)", "rc(s0)", "lc(s1)", "rc(s1)", "lc(s2)", "rc(s2)",
                     "lc(b0)")


def feature_indices(c: Configuration) -> list[int]:
    """Token index picked by each selector, -1 where the node is absent."""
    stack, lc, rc = c.stack, c.lc, c.rc
    s0 = stack[-1]  # ROOT is never popped
    s1 = stack[-2] if len(stack) >= 2 else -1
    s2 = stack[-3] if len(stack) >= 3 else -1
    b0 = c.buffer_start if c.buffer_start <= c.n else -1
    return [s0, s1, s2, b0, lc.get(s0, -1), rc.get(s0, -1), lc.get(s1, -1), rc.get(s1, -1),
            lc.get(s2, -1), rc.get(s2, -1), lc.get(b0, -1)]


def static_oracle(tree: DepTree) -> tuple[np.ndarray, list[Transition]]:
    """The gold moves whose replay reconstructs the tree's arcs, and a
    (moves, 11) array of the feature indices of the configuration each
    move is made in, from one walk. A non-projective tree raises
    ``ValueError``: this is the projectivity check of every training tree."""
    if not is_projective(tree):
        raise ValueError(f"sentence {tree.label()} is non-projective; projectivize it "
                         "first, or train with pseudo_projective set")
    gold_head = {t.index: t.head for t in tree.tokens}
    gold_label = {t.index: t.deprel for t in tree.tokens}
    dependents = tree.shape().children

    c = Configuration(len(tree.tokens))
    rows: list[list[int]] = []
    seq: list[Transition] = []
    while not is_terminal(c):
        rows.append(feature_indices(c))
        s = c.stack[-1]
        b = c.buffer_start
        if s != 0 and gold_head[s] == b and s not in c.heads:
            t = Transition(LEFT_ARC, gold_label[s])
        elif gold_head[b] == s:
            t = Transition(RIGHT_ARC, gold_label[b])
        # Dependents are in sentence order, so the last one is the rightmost.
        elif s in c.heads and not (dependents[s] and dependents[s][-1] >= b):
            t = Transition(REDUCE)
        else:
            t = Transition(SHIFT)
        seq.append(t)
        c = apply(c, t)
    return np.array(rows, dtype=np.intp), seq


def tree_from_config(c: Configuration, tokens: list[Token], upos: list[str]) -> DepTree:
    """Build a tree from a terminal configuration's arc set, with the tags
    ``upos`` in place of the tokens' own.

    Tokens without a head are attached to ROOT with the fallback label so
    the output is always a well-formed tree.
    """
    out = []
    for tok, tag in zip(tokens, upos):
        head, label = c.heads.get(tok.index, (0, FALLBACK_LABEL))
        out.append(Token(index=tok.index, form=tok.form, lemma=tok.lemma, upos=tag,
                         xpos=tok.xpos, feats=tok.feats, head=head, deprel=label,
                         misc=tok.misc))
    return DepTree(tokens=out)
