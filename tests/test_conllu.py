import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from helpers import arcs, chain_tree, random_projective_tree, toy_treebank
from scrambleparse.conllu import (ConlluParseError, DepTree, Token, Treebank,
                                  TreeValidationError, parse_conllu, validate_tree,
                                  write_conllu)

MINIMAL = ("1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n"
           "2\tb\t_\tV\t_\t_\t0\troot\t_\t_\n")


def test_parse_minimal_two_tokens():
    tb = parse_conllu(MINIMAL)
    assert len(tb) == 1
    tree = tb[0]
    assert len(tree) == 2
    assert tree.token(2).head == 0 and tree.token(2).deprel == "root"
    assert tree.token(1).head == 2


def test_parse_self_loop_rejected():
    text = "1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(TreeValidationError, match="self-loop"):
        parse_conllu(text)


def test_parse_bad_column_count_names_line():
    text = MINIMAL + "\n1\tonly\tthree\n"
    with pytest.raises(ConlluParseError, match="^line 4: expected 10 tab-separated"):
        parse_conllu(text)
    with pytest.raises(ConlluParseError, match=r"^g\.conllu:4: expected 10 tab-separated"):
        parse_conllu(text, source_name="g.conllu")


def test_parse_head_out_of_range():
    text = "1\ta\t_\tX\t_\t_\t9\tdep\t_\t_\n"
    with pytest.raises(TreeValidationError, match="head out of range"):
        parse_conllu(text)


def test_multiword_and_empty_nodes_skipped_and_counted_once(caplog):
    text = ("1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n" + MINIMAL +
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n")
    with warnings.catch_warnings(), caplog.at_level("INFO", logger="scrambleparse.conllu"):
        warnings.simplefilter("error")  # valid CoNLL-U: reported, not warned
        tb = parse_conllu(text, source_name="x.conllu")
    assert len(tb[0]) == 2
    assert caplog.messages == ["x.conllu: skipped 2 multiword-token or empty-node lines"]


def test_tree_error_names_the_line_opening_the_sentence():
    loop = "# sent_id = s2\n1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(TreeValidationError,
                       match=r"^g\.conllu:4: sentence s2: self-loop at token 1$"):
        parse_conllu(MINIMAL + "\n" + loop, source_name="g.conllu")
    with pytest.raises(TreeValidationError, match=r"^line 4: sentence s2: self-loop"):
        parse_conllu(MINIMAL + "\n" + loop)


def test_comments_and_sent_id_preserved():
    text = "# sent_id = x42\n# free text comment\n" + MINIMAL
    tb = parse_conllu(text)
    assert tb[0].sentence_id == "x42"
    assert tb[0].comments == ["# sent_id = x42", "# free text comment"]
    assert write_conllu(tb).startswith("# sent_id = x42\n")


def test_write_empty_treebank():
    assert write_conllu(Treebank([])) == ""


def test_write_single_tree_ends_with_one_blank_line():
    tb = parse_conllu(MINIMAL)
    out = write_conllu(tb)
    assert out.endswith("\t_\n\n")
    assert not out.endswith("\n\n\n")


@st.composite
def valid_trees(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    tree = random_projective_tree(np.random.default_rng(seed), n)
    if draw(st.booleans()):
        tree.comments = ["# sent_id = hyp", "# text = whatever"]
        tree.sentence_id = "hyp"
    return tree


@settings(max_examples=60, deadline=None)
@given(valid_trees())
def test_parse_write_round_trip(tree):
    tb = Treebank([tree])
    back = parse_conllu(write_conllu(tb))
    assert back.trees == tb.trees


@settings(max_examples=40, deadline=None)
@given(valid_trees())
def test_write_is_idempotent(tree):
    tb = Treebank([tree])
    once = write_conllu(tb)
    assert write_conllu(parse_conllu(once)) == once


@settings(max_examples=40, deadline=None)
@given(valid_trees())
def test_parsed_trees_validate_clean(tree):
    tb = parse_conllu(write_conllu(Treebank([tree])))
    for t in tb:
        assert validate_tree(t) == []
        assert len(arcs(t)) == len(t.tokens)


def test_validate_chain_is_clean():
    assert validate_tree(chain_tree(3)) == []


def test_validate_multiple_roots_flagged_only_under_policy():
    tokens = [Token(1, "a", head=0, deprel="root"),
              Token(2, "b", head=0, deprel="root")]
    tree = DepTree(tokens)
    assert validate_tree(tree) == []
    assert any("multiple roots" in v for v in validate_tree(tree, single_root=True))


def test_validate_cycle_names_tokens():
    tokens = [Token(1, "a", head=2, deprel="x"),
              Token(2, "b", head=1, deprel="y"),
              Token(3, "c", head=0, deprel="root")]
    violations = validate_tree(DepTree(tokens))
    assert any("cycle involving 1,2" in v for v in violations)


def ref_cycle_violations(tree):
    """The quadratic walk validate_tree used before: every token to the root."""
    out, flagged = [], set()
    for start in range(1, len(tree.tokens) + 1):
        seen, node = [], start
        while node != 0:
            if node in seen:
                cycle = seen[seen.index(node):]
                if not flagged & set(cycle):
                    flagged.update(cycle)
                    out.append("cycle involving " + ",".join(map(str, sorted(cycle))))
                break
            seen.append(node)
            node = tree.tokens[node - 1].head
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
def test_validate_cycles_match_reference(heads):
    heads = [h if h != i else 0 for i, h in enumerate(heads, start=1)]  # no self-loops
    tree = DepTree([Token(i, f"w{i}", head=h, deprel="x") for i, h in enumerate(heads, start=1)])
    got = [v for v in validate_tree(tree) if v.startswith("cycle")]
    assert got == ref_cycle_violations(tree)


def test_validate_deep_chain_is_clean():
    assert validate_tree(chain_tree(3000)) == []


def test_toy_treebank_round_trips():
    tb = toy_treebank()
    assert parse_conllu(write_conllu(tb)).trees == tb.trees
