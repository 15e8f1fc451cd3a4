import numpy as np
import pytest

from helpers import arcs, chain_tree, random_nonprojective_tree, random_projective_tree
from scrambleparse.conllu import DepTree, Token, Treebank, validate_tree
from scrambleparse.projectivity import (HEAD_SEP, PATH_MARK, base_label,
                                        deprojectivize, is_projective,
                                        nonprojective_arc_ratio, projectivize)


def crossing_tree() -> DepTree:
    # Arcs (2,4) and (3,1) cross: token 1 hangs under 3 across 2's span.
    return DepTree([Token(1, "w1", head=3, deprel="a"),
                    Token(2, "w2", head=0, deprel="root"),
                    Token(3, "w3", head=2, deprel="c"),
                    Token(4, "w4", head=2, deprel="d")])


def test_chain_is_projective():
    assert is_projective(chain_tree(4))


def test_deep_chain_is_projective_without_recursion_error():
    assert is_projective(chain_tree(1500))


def test_crossing_arcs_not_projective():
    assert not is_projective(crossing_tree())


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_trees_always_projective(n):
    tokens = [Token(i, f"w{i}", head=i - 1, deprel="root" if i == 1 else "dep")
              for i in range(1, n + 1)]
    assert is_projective(DepTree(tokens))


def test_ratio_all_projective_is_zero():
    tb = Treebank([chain_tree(5), chain_tree(3)])
    assert nonprojective_arc_ratio(tb) == 0.0


def test_ratio_counts_single_bad_arc():
    # crossing_tree has 4 arcs, exactly one ((3,1)) non-projective.
    assert nonprojective_arc_ratio(Treebank([crossing_tree()])) == 0.25


def test_ratio_invariant_under_sentence_order():
    trees = [crossing_tree(), chain_tree(4)]
    a = nonprojective_arc_ratio(Treebank(trees))
    b = nonprojective_arc_ratio(Treebank(trees[::-1]))
    assert a == b


def test_ratio_without_tokens_is_none():
    """No trees, or only a comment block's tree of no tokens: no base."""
    assert nonprojective_arc_ratio(Treebank([])) is None
    assert nonprojective_arc_ratio(Treebank([DepTree([], comments=["# c"])])) is None


def test_projectivize_identity_on_projective_input():
    tree = chain_tree(5)
    out, records = projectivize(tree)
    assert out.tokens == tree.tokens
    assert records == []


def test_projectivize_single_lift():
    out, records = projectivize(crossing_tree())
    assert is_projective(out)
    assert len(records) == 1
    rec = records[0]
    assert rec.dependent == 1 and rec.original_head == 3 and rec.lifted_head == 2
    assert HEAD_SEP in out.token(1).deprel
    assert out.token(3).deprel.endswith(PATH_MARK)
    # token order and arc count unchanged
    assert out.forms() == crossing_tree().forms()
    assert len(arcs(out)) == 4


def test_projectivize_output_always_projective():
    rng = np.random.default_rng(0)
    for _ in range(60):
        tree = random_nonprojective_tree(rng, n_lifts=int(rng.integers(1, 3)))
        out, _ = projectivize(tree)
        assert is_projective(out)
        assert out.forms() == tree.forms()
        assert validate_tree(out) == []


def test_round_trip_on_crossing_tree():
    tree = crossing_tree()
    out, _ = projectivize(tree)
    assert deprojectivize(out).tokens == tree.tokens


def test_round_trip_single_and_double_lifts():
    rng = np.random.default_rng(1)
    for k in range(100):
        tree = random_nonprojective_tree(rng, n_lifts=1 + k % 2)
        proj, records = projectivize(tree)
        assert records
        back = deprojectivize(proj)
        assert back.tokens == tree.tokens


def test_deprojectivize_no_encodings_is_identity():
    tree = chain_tree(4)
    assert deprojectivize(tree).tokens == tree.tokens


def test_deprojectivize_missing_target_degrades_gracefully(caplog):
    # Encoded label whose target never occurs: keep attachment, clean label.
    tokens = [Token(1, "w1", head=2, deprel=f"a{HEAD_SEP}missing"),
              Token(2, "w2", head=0, deprel="root"),
              Token(3, "w3", head=2, deprel="c")]
    with caplog.at_level("WARNING", logger="scrambleparse.projectivity"):
        out = deprojectivize(DepTree(tokens, sentence_id="s1"))
    assert caplog.messages == ["no attachment target labelled 'missing' found for token 1 of "
                               "sentence s1; keeping the lifted attachment"]
    assert out.token(1).head == 2
    assert out.token(1).deprel == "a"
    assert validate_tree(out) == []


def test_deprojectivize_never_creates_cycles():
    rng = np.random.default_rng(2)
    for _ in range(40):
        tree = random_nonprojective_tree(rng, n_lifts=2)
        proj, _ = projectivize(tree)
        assert validate_tree(deprojectivize(proj)) == []


def test_base_label_strips_encoding_and_marks():
    assert base_label(f"obj{HEAD_SEP}root") == "obj"
    assert base_label(f"nsubj{PATH_MARK}") == "nsubj"
    assert base_label("plain") == "plain"
