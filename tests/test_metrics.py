from dataclasses import replace

import pytest

from helpers import toy_treebank, transitive_tree
from scrambleparse.conllu import DepTree, Token, Treebank
from scrambleparse.metrics import (ParseScore, pos_accuracy, score,
                                   score_by_order)
from scrambleparse.scramble import UD_MAPPING, OrderLabel


def mutate_heads(tb: Treebank, wrong: set) -> Treebank:
    """Point the chosen (sent, token) pairs at a different head."""
    out = []
    for si, tree in enumerate(tb):
        tokens = []
        for t in tree.tokens:
            if (si, t.index) in wrong:
                new_head = 0 if t.head != 0 else (t.index % len(tree)) + 1
                if new_head == t.index:
                    new_head = 0
                tokens.append(replace(t, head=new_head))
            else:
                tokens.append(t)
        out.append(tree.with_tokens(tokens))
    return Treebank(out)


def mutate_labels(tb: Treebank, wrong: set) -> Treebank:
    out = []
    for si, tree in enumerate(tb):
        tokens = [replace(t, deprel="WRONG") if (si, t.index) in wrong else t
                  for t in tree.tokens]
        out.append(tree.with_tokens(tokens))
    return Treebank(out)


def test_perfect_prediction_scores_100():
    tb = toy_treebank()
    s = score(tb, tb)
    assert s.las == 100.0 and s.uas == 100.0
    assert 0 <= s.las <= s.uas <= 100


def test_right_heads_wrong_labels():
    tb = toy_treebank()
    pred = mutate_labels(tb, {(si, t.index) for si, tree in enumerate(tb)
                              for t in tree.tokens})
    s = score(tb, pred, exclude_punct=False)
    assert s.uas == 100.0 and s.las == 0.0


def test_hand_counted_ten_token_case():
    # One 10-token sentence; 3 heads wrong, 1 additional label wrong.
    tokens = [Token(i, f"w{i}", upos="X", head=i - 1,
                    deprel="root" if i == 1 else f"r{i}") for i in range(1, 11)]
    gold = Treebank([DepTree(tokens)])
    pred = mutate_heads(gold, {(0, 8), (0, 9), (0, 10)})
    pred = mutate_labels(pred, {(0, 7)})
    s = score(gold, pred, exclude_punct=False)
    assert s.uas == pytest.approx(70.0)
    assert s.las == pytest.approx(60.0)
    assert s.tokens_scored == 10


def test_punctuation_exclusion_flag():
    tb = toy_treebank()  # sentence 3 has a punct token
    pred = mutate_heads(tb, {(2, 3)})  # break the punct attachment only
    assert score(tb, pred, exclude_punct=True).uas == 100.0
    assert score(tb, pred, exclude_punct=False).uas < 100.0
    assert score(tb, pred, exclude_punct=True).tokens_scored == \
        score(tb, pred, exclude_punct=False).tokens_scored - 1


def test_misaligned_treebanks_error_names_sentence():
    tb = toy_treebank()
    shorter = Treebank(tb.trees[:2])
    with pytest.raises(ValueError, match="2 vs 3|3 vs 2"):
        score(shorter, tb)
    other = Treebank([tb.trees[1], tb.trees[0], tb.trees[2]])
    with pytest.raises(ValueError, match="sentence 1"):
        score(tb, other)


def test_pos_accuracy_basics():
    tb = toy_treebank()
    gold_tags = [t.upos_tags() for t in tb]
    assert pos_accuracy(tb, gold_tags) == 100.0
    half_wrong = [list(tags) for tags in gold_tags]
    flipped = 0
    total = sum(len(t) for t in gold_tags)
    for tags in half_wrong:
        for i in range(len(tags)):
            if flipped < total // 2:
                tags[i] = "WRONG"
                flipped += 1
    assert pos_accuracy(tb, half_wrong) == pytest.approx(100.0 * (total - flipped) / total)


def test_pos_accuracy_misalignment_errors():
    tb = toy_treebank()
    with pytest.raises(ValueError):
        pos_accuracy(tb, [["N"]] * (len(tb) - 1))
    with pytest.raises(ValueError, match="sentence 1"):
        pos_accuracy(tb, [["N"]] + [t.upos_tags() for t in tb.trees[1:]])


def test_score_by_order_single_class():
    tb = Treebank([transitive_tree("SOV") for _ in range(4)])
    by = score_by_order(tb, tb, UD_MAPPING)
    assert set(by) == {OrderLabel.SOV}
    assert by[OrderLabel.SOV].las == 100.0


def test_score_by_order_aggregates_to_overall():
    gold = Treebank([transitive_tree("SOV"), transitive_tree("OSV"),
                     transitive_tree("VSO", with_io=True),
                     DepTree([Token(1, "hi", upos="INTJ", head=0, deprel="root")])])
    pred = mutate_heads(gold, {(0, 1), (2, 3), (3, 1)})
    pred = mutate_labels(pred, {(1, 2)})
    overall = score(gold, pred, exclude_punct=False)
    by = score_by_order(gold, pred, UD_MAPPING, exclude_punct=False)
    assert OrderLabel.NONTRANSITIVE in by
    weighted_las = sum(s.las * s.tokens_scored for s in by.values())
    weighted_uas = sum(s.uas * s.tokens_scored for s in by.values())
    n = sum(s.tokens_scored for s in by.values())
    assert n == overall.tokens_scored
    assert weighted_las / n == pytest.approx(overall.las, abs=0.01)
    assert weighted_uas / n == pytest.approx(overall.uas, abs=0.01)


def test_parse_score_dict_rounding():
    s = ParseScore(las=33.333333, uas=66.666666, tokens_scored=3)
    d = s.as_dict()
    assert d == {"las": 33.33, "uas": 66.67, "n_tokens": 3}
