"""Attachment scoring, POS accuracy and order-stratified scores."""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Treebank
from .scramble import DeprelMapping, OrderLabel, classify_order


@dataclass
class ParseScore:
    las: float
    uas: float
    tokens_scored: int

    def as_dict(self):
        """LAS and UAS rounded to 2 places; None when no token was scored."""
        scored = self.tokens_scored > 0
        return {"las": round(self.las, 2) if scored else None,
                "uas": round(self.uas, 2) if scored else None,
                "n_tokens": self.tokens_scored}


def _check_alignment(gold: Treebank, pred: Treebank) -> None:
    if len(gold) != len(pred):
        raise ValueError(f"treebanks have {len(gold)} vs {len(pred)} sentences")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p) or g.forms() != p.forms():
            raise ValueError(f"sentence {i + 1} ({g.label()}) diverges between gold and prediction")


def is_punct(token) -> bool:
    return token.upos == "PUNCT" or token.deprel == "punct"


def _score_pairs(pairs, exclude_punct: bool) -> ParseScore:
    scored = 0
    head_ok = 0
    both_ok = 0
    for g, p in pairs:
        if exclude_punct and is_punct(g):
            continue
        scored += 1
        if g.head == p.head:
            head_ok += 1
            if g.deprel == p.deprel:
                both_ok += 1
    if scored == 0:
        return ParseScore(las=0.0, uas=0.0, tokens_scored=0)
    return ParseScore(las=100.0 * both_ok / scored, uas=100.0 * head_ok / scored,
                      tokens_scored=scored)


def score(gold: Treebank, pred: Treebank, exclude_punct: bool = True) -> ParseScore:
    """LAS/UAS of predicted heads and labels against the gold treebank."""
    _check_alignment(gold, pred)
    pairs = [(g, p) for gt, pt in zip(gold, pred)
             for g, p in zip(gt.tokens, pt.tokens)]
    return _score_pairs(pairs, exclude_punct)


def pos_accuracy(gold: Treebank, pred_tags: list[list[str]]) -> float:
    """Percentage of tokens whose predicted tag matches the gold upos."""
    if len(gold) != len(pred_tags):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred_tags)} tag sequences")
    total = 0
    good = 0
    for i, (tree, tags) in enumerate(zip(gold, pred_tags)):
        if len(tree) != len(tags):
            raise ValueError(f"sentence {i + 1} ({tree.label()}): "
                             f"{len(tree)} tokens vs {len(tags)} tags")
        total += len(tags)
        good += sum(t.upos == p for t, p in zip(tree.tokens, tags))
    if total == 0:
        raise ValueError("nothing to score")
    return 100.0 * good / total


def score_by_order(gold: Treebank, pred: Treebank, mapping: DeprelMapping,
                   exclude_punct: bool = True) -> dict[OrderLabel, ParseScore]:
    """Per word-order-class scores; classification uses the gold trees.

    Classes with no sentences are omitted. The token-weighted average of
    the per-class scores equals the overall score.
    """
    _check_alignment(gold, pred)
    buckets: dict[OrderLabel, list] = {}
    for gt, pt in zip(gold, pred):
        buckets.setdefault(classify_order(gt, mapping), []).extend(zip(gt.tokens, pt.tokens))
    return {label: _score_pairs(pairs, exclude_punct)
            for label, pairs in buckets.items()}

