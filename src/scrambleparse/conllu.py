"""CoNLL-U reading and writing plus the dependency tree data types.

Trees are plain value objects: a sentence is a list of 1-indexed tokens,
each pointing at a head (0 is the artificial root). Multiword-token
ranges ("1-2") and empty nodes ("1.1") are skipped on input; enhanced
dependencies are not modelled (column 9 is written as "_").

``tree_shape`` is the one place a tree's dominance structure is
derived: children, preorder positions, subtree sizes and spans, and
depths, from one iterative walk from ROOT. ``DepTree.shape`` builds a
tree's shape the first time it is called and keeps it, and
``projectivity.is_projective`` keeps its verdict next to it; a tree's
tokens are never changed in place, so both stay true. A tree made by
``with_tokens`` or ``dataclasses.replace`` starts without either.

``read_lines`` is how every text input (CoNLL-U, LM corpus, training
config, word vectors) is read, so each reader's errors start with the
file's path and line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

N_COLUMNS = 10

log = logging.getLogger(__name__)


class ConlluParseError(ValueError):
    """Malformed CoNLL-U input; the message starts with the offending line."""


class TreeValidationError(ValueError):
    """A sentence that parses but does not form a valid dependency tree."""


def read_lines(path):
    """Yield the lines of a UTF-8 text file as ``open`` splits them. A line
    holding a byte that is not UTF-8 raises ``ValueError`` starting
    "PATH:LINE:"."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                try:  # an undecodable byte was read as a lone surrogate
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ValueError(f"{path}:{line_no}: byte 0x{byte:02x} is not UTF-8") \
                        from None
            yield line


@dataclass(frozen=True)
class Token:
    index: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: str = "_"
    head: int = 0
    deprel: str = "dep"
    misc: str = "_"


@dataclass
class DepTree:
    tokens: list[Token]
    sentence_id: str | None = None
    comments: list[str] = field(default_factory=list)
    _shape: TreeShape | None = field(default=None, init=False, compare=False, repr=False)
    _projective: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.tokens)

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    def deprel_of(self, index: int) -> str:
        return self.tokens[index - 1].deprel

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]

    def upos_tags(self) -> list[str]:
        return [t.upos for t in self.tokens]

    def shape(self) -> "TreeShape":
        if self._shape is None:
            self._shape = tree_shape([0] + [t.head for t in self.tokens])
        return self._shape

    def with_tokens(self, tokens: list[Token]) -> "DepTree":
        return DepTree(tokens=tokens, sentence_id=self.sentence_id,
                       comments=list(self.comments))

    def label(self) -> str:
        """Identifier used in error messages."""
        if self.sentence_id:
            return self.sentence_id
        head = " ".join(t.form for t in self.tokens[:5])
        return f'"{head}..."' if len(self.tokens) > 5 else f'"{head}"'


@dataclass(frozen=True)
class TreeShape:
    """Dominance structure of a tree. Every list is indexed by token, with
    0 as ROOT; a subtree counts its own head."""
    children: list[list[int]]  # dependents in surface order
    pre: list[int]             # preorder position; ROOT is 0
    size: list[int]            # tokens in the subtree
    depth: list[int]           # arcs from ROOT
    lo: list[int]              # inclusive span of the subtree
    hi: list[int]


def tree_shape(heads) -> TreeShape:
    """One walk from ROOT over a head column. ``heads[i]`` is token i's
    head; ``heads[0]`` is not read. Raises ``ValueError`` on a head out
    of range or on tokens that ROOT does not reach (a cycle)."""
    n = len(heads) - 1
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        h = heads[d]
        if not 0 <= h <= n:
            raise ValueError(f"head {h} of token {d} is out of range")
        children[h].append(d)
    pre, depth, order, stack = [0] * (n + 1), [0] * (n + 1), [], [0]
    while stack:
        node = stack.pop()
        pre[node] = len(order)
        order.append(node)
        kids = children[node]
        if kids:
            below = depth[node] + 1
            for c in kids:
                depth[c] = below
            stack.extend(reversed(kids))
    if len(order) != n + 1:
        raise ValueError("head column has a cycle")
    size, lo, hi = [1] * (n + 1), list(range(n + 1)), list(range(n + 1))
    for node in reversed(order[1:]):  # every token after its whole subtree
        h = heads[node]
        size[h] += size[node]
        if lo[node] < lo[h]:
            lo[h] = lo[node]
        if hi[node] > hi[h]:
            hi[h] = hi[node]
    return TreeShape(children, pre, size, depth, lo, hi)


@dataclass
class Treebank:
    trees: list[DepTree]
    source_name: str = ""

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)

    def __getitem__(self, i):
        return self.trees[i]


def validate_tree(tree: DepTree, single_root: bool = False) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    Violations are data, not exceptions: callers that want hard failures
    raise on a non-empty result.
    """
    violations = []
    n = len(tree.tokens)
    for pos, tok in enumerate(tree.tokens, start=1):
        if tok.index != pos:
            violations.append(f"index gap: token at position {pos} has index {tok.index}")
        if not tok.form:
            violations.append(f"empty form at token {pos}")
        if not tok.deprel:
            violations.append(f"empty deprel at token {pos}")
        if tok.head == tok.index:
            violations.append(f"self-loop at token {tok.index}")
        elif not 0 <= tok.head <= n:
            violations.append(f"head out of range at token {tok.index}")
    if violations:
        return violations

    roots = [t.index for t in tree.tokens if t.head == 0]
    if n > 0 and not roots:
        violations.append("no root attachment")
    if single_root and len(roots) > 1:
        violations.append("multiple roots: tokens " + ",".join(map(str, roots)))

    # Cycle check: walk each token towards the root until the walk meets a
    # token an earlier walk has passed (it reaches the root, or a cycle
    # already reported), so each token is walked once.
    settled: set[int] = {0}
    for start in range(1, n + 1):
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node not in settled:
            if node in on_path:
                cycle = path[path.index(node):]
                violations.append("cycle involving " + ",".join(map(str, sorted(cycle))))
                break
            path.append(node)
            on_path.add(node)
            node = tree.tokens[node - 1].head
        settled.update(path)
    return violations


def _parse_token_line(line: str) -> Token | None:
    """The token of a token line; None for a multiword-token or empty-node line."""
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        raise ConlluParseError(f"expected {N_COLUMNS} tab-separated columns, got {len(cols)}")
    raw_id = cols[0]
    if "-" in raw_id or "." in raw_id:
        return None
    try:
        index = int(raw_id)
    except ValueError:
        raise ConlluParseError(f"non-integer token id '{raw_id}'") from None
    try:
        head = int(cols[6])
    except ValueError:
        raise ConlluParseError(f"non-integer head '{cols[6]}'") from None
    return Token(index=index, form=cols[1], lemma=cols[2], upos=cols[3], xpos=cols[4],
                 feats=cols[5], head=head, deprel=cols[7], misc=cols[9])


def _finish_sentence(tokens: list[Token], comments: list[str]) -> DepTree:
    sent_id = None
    for c in comments:
        if c.startswith("# sent_id"):
            _, _, value = c.partition("=")
            sent_id = value.strip()
    tree = DepTree(tokens=tokens, sentence_id=sent_id, comments=comments)
    violations = validate_tree(tree)
    if violations:
        raise TreeValidationError(f"sentence {tree.label()}: " + "; ".join(violations))
    return tree


def parse_conllu(text: str, source_name: str = "") -> Treebank:
    """Parse CoNLL-U text into a Treebank, validating every sentence.

    An error starts with ``source_name`` and the line ("line N" without
    a source name): the token line's own, or a sentence's first line for
    a tree error. Multiword-token and empty-node lines are skipped, and
    their count is logged once.
    """
    trees: list[DepTree] = []
    tokens: list[Token] = []
    comments: list[str] = []
    start = 0  # the line that opened the sentence being read
    skipped = 0
    try:
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.rstrip("\r")
            if not line.strip():
                if tokens or comments:
                    trees.append(_finish_sentence(tokens, comments))
                    tokens, comments = [], []
                continue
            if not (tokens or comments):
                start = line_no
            if line.startswith("#"):
                comments.append(line)
                continue
            tok = _parse_token_line(line)
            if tok is None:
                skipped += 1
            else:
                tokens.append(tok)
        if tokens or comments:
            trees.append(_finish_sentence(tokens, comments))
    except (ConlluParseError, TreeValidationError) as exc:
        at = line_no if isinstance(exc, ConlluParseError) else start
        where = f"{source_name}:{at}" if source_name else f"line {at}"
        raise type(exc)(f"{where}: {exc}") from None
    if skipped:
        log.info("%s: skipped %d multiword-token or empty-node line%s",
                 source_name or "input", skipped, "" if skipped == 1 else "s")
    return Treebank(trees=trees, source_name=source_name)


def write_conllu(tb: Treebank) -> str:
    """Serialize a Treebank to canonical 10-column CoNLL-U text."""
    blocks = []
    for tree in tb:
        lines = list(tree.comments)
        for t in tree.tokens:
            lines.append("\t".join([str(t.index), t.form, t.lemma, t.upos, t.xpos,
                                    t.feats, str(t.head), t.deprel, "_", t.misc]))
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks) + ("\n" if blocks else "")


def load_treebank(path) -> Treebank:
    return parse_conllu("".join(read_lines(path)), source_name=str(path))


def dump_treebank(tb: Treebank, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_conllu(tb))


def retag(tree: DepTree, tags: list[str]) -> DepTree:
    """Copy of ``tree`` with upos replaced position-wise by ``tags``."""
    if len(tags) != len(tree.tokens):
        raise ValueError("tag sequence length does not match sentence length")
    return tree.with_tokens([replace(t, upos=g) for t, g in zip(tree.tokens, tags)])
