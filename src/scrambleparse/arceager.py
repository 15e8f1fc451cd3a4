"""Arc-eager transition system: configurations, legal moves, and the
static oracle that turns a projective gold tree into a training sequence.

A configuration is a value; ``apply`` returns a new configuration. The
buffer is always the contiguous suffix of the sentence, so it is stored
as a single front index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conllu import DepTree, Token
from .projectivity import is_projective

SHIFT = "shift"
LEFT_ARC = "left_arc"
RIGHT_ARC = "right_arc"
REDUCE = "reduce"

_MNEMONICS = {SHIFT: "SH", LEFT_ARC: "LA", RIGHT_ARC: "RA", REDUCE: "RE"}

FALLBACK_LABEL = "dep"  # attachment for tokens left headless by greedy decoding


@dataclass(frozen=True)
class Transition:
    kind: str
    label: str | None = None

    def __post_init__(self):
        if self.kind in (LEFT_ARC, RIGHT_ARC) and not self.label:
            raise ValueError(f"{self.kind} requires a label")
        if self.kind in (SHIFT, REDUCE) and self.label is not None:
            raise ValueError(f"{self.kind} takes no label")

    def mnemonic(self) -> str:
        m = _MNEMONICS[self.kind]
        return f"{m}:{self.label}" if self.label else m


@dataclass(frozen=True)
class Configuration:
    n: int
    stack: tuple[int, ...]
    buffer_start: int
    heads: dict = field(default_factory=dict, hash=False)  # dependent -> (head, label)

    @property
    def buffer(self) -> range:
        return range(self.buffer_start, self.n + 1)

    @property
    def stack_top(self) -> int | None:
        return self.stack[-1] if self.stack else None

    @property
    def buffer_front(self) -> int | None:
        return self.buffer_start if self.buffer_start <= self.n else None


def initial_config(n: int) -> Configuration:
    if n < 1:
        raise ValueError("sentence must contain at least one token")
    return Configuration(n=n, stack=(0,), buffer_start=1)


def is_terminal(c: Configuration) -> bool:
    # ROOT is never popped, so the stack condition always holds.
    return c.buffer_start > c.n


def legal_transitions(c: Configuration) -> set[str]:
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


def apply(c: Configuration, t: Transition) -> Configuration:
    """Apply a transition, returning the successor configuration."""
    s = c.stack_top
    b = c.buffer_front
    if t.kind == SHIFT:
        if b is None:
            raise ValueError("shift: buffer is empty")
        return Configuration(c.n, c.stack + (b,), c.buffer_start + 1, c.heads)
    if t.kind == LEFT_ARC:
        if b is None:
            raise ValueError("left_arc: buffer is empty")
        if s in (None, 0):
            raise ValueError("left_arc: stack top is ROOT or missing")
        if s in c.heads:
            raise ValueError("left_arc: stack top already has a head")
        heads = dict(c.heads)
        heads[s] = (b, t.label)
        return Configuration(c.n, c.stack[:-1], c.buffer_start, heads)
    if t.kind == RIGHT_ARC:
        if b is None:
            raise ValueError("right_arc: buffer is empty")
        if s is None:
            raise ValueError("right_arc: stack is empty")
        heads = dict(c.heads)
        heads[b] = (s, t.label)
        return Configuration(c.n, c.stack + (b,), c.buffer_start + 1, heads)
    if t.kind == REDUCE:
        if s in (None, 0):
            raise ValueError("reduce: stack top is ROOT or missing")
        if s not in c.heads:
            raise ValueError("reduce: stack top has no head yet")
        return Configuration(c.n, c.stack[:-1], c.buffer_start, c.heads)
    raise ValueError(f"unknown transition kind '{t.kind}'")


def static_oracle(tree: DepTree) -> list[Transition]:
    """Gold transition sequence whose replay reconstructs the tree's arcs."""
    if not is_projective(tree):
        raise ValueError(f"sentence {tree.label()} is non-projective; "
                         "projectivize before deriving oracle sequences")
    gold_head = {t.index: t.head for t in tree.tokens}
    gold_label = {t.index: t.deprel for t in tree.tokens}
    dependents = tree.shape().children

    c = initial_config(len(tree.tokens))
    seq: list[Transition] = []
    while not is_terminal(c):
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
        c = apply(c, t)
    return seq


def tree_from_config(c: Configuration, tokens: list[Token],
                     upos: list[str] | None = None) -> DepTree:
    """Build a tree from a terminal configuration's arc set.

    Tokens without a head are attached to ROOT with the fallback label so
    the output is always a well-formed tree. ``upos``, when given,
    replaces the tokens' tags.
    """
    tags = [tok.upos for tok in tokens] if upos is None else upos
    out = []
    for tok, tag in zip(tokens, tags):
        head, label = c.heads.get(tok.index, (0, FALLBACK_LABEL))
        out.append(Token(index=tok.index, form=tok.form, lemma=tok.lemma, upos=tag,
                         xpos=tok.xpos, feats=tok.feats, head=head, deprel=label,
                         misc=tok.misc))
    return DepTree(tokens=out)
