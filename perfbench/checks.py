"""Output checks. Each returns how many sentences (or checkpoint
parameters) failed it and a message per failure; the caller adds the
count into ``failed``."""

from __future__ import annotations

import numpy as np

from scrambleparse import arceager, conllu, nn, parser
from workloads import is_projective_tree


def tree_signature(tree: conllu.DepTree):
    """Order-free signature of a labelled tree: two trees share it iff one
    is the other with its token indices remapped (same forms, tags, labels
    and arcs)."""
    children = {i: [] for i in range(len(tree.tokens) + 1)}
    for t in tree.tokens:
        children[t.head].append(t.index)
    sig: dict[int, tuple] = {}
    # Post-order without recursion: parents after all their descendants.
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    for node in reversed(order):
        kids = tuple(sorted(sig[c] for c in children[node]))
        if node == 0:
            sig[0] = ("<root>", kids)
        else:
            t = tree.token(node)
            sig[node] = (t.form, t.upos, t.deprel, kids)
    return sig[0]


def check_augmented(source_path, augmented_path) -> tuple[int, list[str]]:
    """Every augmented tree is projective and is its source tree reordered."""
    sources = {t.sentence_id: t for t in conllu.load_treebank(source_path)}
    failed, messages = 0, []
    for tree in conllu.load_treebank(augmented_path):
        src = sources.get(tree.sentence_id)
        if src is None:
            problem = "has no source sentence"
        elif not is_projective_tree(tree):
            problem = "is non-projective"
        elif tree_signature(tree) != tree_signature(src):
            problem = "does not keep the source arc set"
        else:
            continue
        failed += 1
        messages.append(f"augmented tree {tree.label()} {problem}")
    return failed, messages


def check_predictions(gold_path, pred_path) -> tuple[int, list[str]]:
    """Every predicted tree is valid and aligns token for token with gold."""
    gold = conllu.load_treebank(gold_path).trees
    pred = conllu.load_treebank(pred_path).trees
    if len(gold) != len(pred):
        return len(gold), [f"{pred_path}: {len(pred)} sentences for {len(gold)} gold"]
    failed, messages = 0, []
    for g, p in zip(gold, pred):
        problems = conllu.validate_tree(p)
        if [(t.index, t.form, t.upos) for t in g.tokens] != [(t.index, t.form, t.upos)
                                                             for t in p.tokens]:
            problems.append("tokens differ from gold")
        if problems:
            failed += 1
            messages.append(f"{pred_path}: sentence {g.label()}: {'; '.join(problems)}")
    return failed, messages


def check_checkpoint(path) -> tuple[int, list[str]]:
    """The reloaded model's parameters equal the saved arrays bit for bit."""
    saved = nn.load_checkpoint(path)["arrays"]
    model = parser.ParserModel.load(path)
    messages = []
    for p in model.params():
        a = np.asarray(saved[p.name])
        if a.dtype != p.value.dtype or a.shape != p.value.shape or a.tobytes() != p.value.tobytes():
            messages.append(f"{path}: parameter {p.name} differs after reload")
    return len(messages), messages


def fallback_roots(pred_path) -> int:
    """Tokens greedy decoding attached to ROOT with the fallback label."""
    return sum(t.head == 0 and t.deprel == arceager.FALLBACK_LABEL
               for tree in conllu.load_treebank(pred_path) for t in tree.tokens)
