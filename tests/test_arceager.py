import numpy as np
import pytest

from helpers import (arcs, config_arcs, format_sequence, parse_sequence, random_projective_tree,
                     run_sequence)
from scrambleparse.arceager import (LEFT_ARC, REDUCE, RIGHT_ARC, SHIFT,
                                    Configuration, Transition, apply, is_terminal,
                                    legal_transitions, static_oracle,
                                    tree_from_config)
from scrambleparse.conllu import DepTree, Token, validate_tree
from scrambleparse.projectivity import is_projective


def three_token_tree() -> DepTree:
    # heads: 1 <- 2 -> 3, root at 2
    return DepTree([Token(1, "a", head=2, deprel="x"),
                    Token(2, "b", head=0, deprel="root"),
                    Token(3, "c", head=2, deprel="y")])


def test_initial_config():
    c = Configuration(3)
    assert c.stack == [0]
    assert (c.buffer_start, c.n) == (1, 3)  # the buffer is tokens 1..3
    assert config_arcs(c) == ()


def test_arcs_derived_from_heads_in_arc_order():
    c = apply(apply(Configuration(3), Transition(SHIFT)), Transition(LEFT_ARC, "x"))
    c = apply(c, Transition(RIGHT_ARC, "root"))
    assert config_arcs(c) == ((2, 1, "x"), (0, 2, "root"))


def test_apply_updates_in_place_and_rejects_without_change():
    c = Configuration(3)
    assert apply(c, Transition(SHIFT)) is c
    assert apply(c, Transition(LEFT_ARC, "x")) is c
    assert (c.stack, c.buffer_start, c.heads, c.lc, c.rc) == ([0], 2, {1: (2, "x")},
                                                              {2: 1}, {2: 1})
    for t in (Transition(REDUCE), Transition(LEFT_ARC, "y")):
        with pytest.raises(ValueError, match="ROOT"):
            apply(c, t)
    assert (c.stack, c.buffer_start, c.heads) == ([0], 2, {1: (2, "x")})


def test_initial_config_single_token():
    c = Configuration(1)
    assert (c.stack, c.buffer_start, c.n) == ([0], 1, 1)


def test_initial_config_of_no_token_is_terminal():
    """A sentence of no token has nothing to decode: its configuration is
    terminal from the start with no legal move, and its oracle is empty."""
    c = Configuration(0)
    assert is_terminal(c) and legal_transitions(c) == set()
    assert static_oracle(DepTree([])) == []


def test_legal_at_initial():
    c = Configuration(2)
    assert legal_transitions(c) == {SHIFT, RIGHT_ARC}


def test_legal_with_empty_buffer():
    c = Configuration(1)
    c = apply(c, Transition(RIGHT_ARC, "root"))
    assert is_terminal(c)
    assert legal_transitions(c) == {REDUCE}


def test_left_arc_blocked_on_root_only_stack():
    c = Configuration(2)
    assert LEFT_ARC not in legal_transitions(c)


def test_shift_moves_buffer_front():
    c = apply(Configuration(2), Transition(SHIFT))
    assert c.stack == [0, 1]
    assert (c.buffer_start, c.n) == (2, 2)


def test_gold_sequence_reconstructs_arcs():
    seq = [Transition(SHIFT), Transition(LEFT_ARC, "x"),
           Transition(RIGHT_ARC, "root"), Transition(RIGHT_ARC, "y")]
    c = run_sequence(3, seq)
    assert set(config_arcs(c)) == {(2, 1, "x"), (0, 2, "root"), (2, 3, "y")}
    assert is_terminal(c)


def test_reduce_requires_attached_top():
    c = apply(Configuration(2), Transition(SHIFT))
    with pytest.raises(ValueError, match="reduce"):
        apply(c, Transition(REDUCE))


def test_illegal_left_arc_reports_precondition():
    c = Configuration(2)
    with pytest.raises(ValueError, match="ROOT"):
        apply(c, Transition(LEFT_ARC, "x"))


@pytest.mark.parametrize("moves, t, message", [
    ("", Transition(REDUCE), "reduce is not legal: stack top ROOT, buffer front 1"),
    ("SH", Transition(REDUCE), r"reduce is not legal: stack top 1 \(no head\), buffer front 2"),
    ("SH RA:x", Transition(LEFT_ARC, "x"),
     r"left_arc is not legal: stack top 2 \(with a head\), buffer empty"),
])
def test_apply_names_the_kind_and_the_state(moves, t, message):
    """``apply`` rejects what ``legal_transitions`` leaves out and says why."""
    c = run_sequence(2, parse_sequence(moves))
    assert t.kind not in legal_transitions(c)
    with pytest.raises(ValueError, match=message):
        apply(c, t)


def test_transition_label_contract():
    with pytest.raises(ValueError):
        Transition(LEFT_ARC)
    with pytest.raises(ValueError):
        Transition(SHIFT, "x")
    with pytest.raises(ValueError, match="unknown transition kind 'swap'"):
        Transition("swap")


def test_oracle_on_three_token_tree():
    seq = static_oracle(three_token_tree())
    assert format_sequence(seq) == "SH LA:x RA:root RA:y"


def test_oracle_single_token():
    tree = DepTree([Token(1, "a", head=0, deprel="root")])
    assert format_sequence(static_oracle(tree)) == "RA:root"


def test_oracle_rejects_nonprojective():
    tree = DepTree([Token(1, "w1", head=3, deprel="a"),
                    Token(2, "w2", head=0, deprel="root"),
                    Token(3, "w3", head=2, deprel="c"),
                    Token(4, "w4", head=2, deprel="d")])
    assert not is_projective(tree)
    with pytest.raises(ValueError, match="projectivize"):
        static_oracle(tree)


def test_oracle_round_trip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = random_projective_tree(rng, int(rng.integers(1, 15)))
        seq = static_oracle(tree)
        assert len(seq) <= 2 * len(tree)
        c = run_sequence(len(tree), seq)
        assert is_terminal(c)
        assert set(config_arcs(c)) == arcs(tree)


def test_terminal_config_defaults_to_root_attachment():
    # Shift everything: no arcs made; all tokens default to ROOT/"dep".
    c = Configuration(3)
    for _ in range(3):
        c = apply(c, Transition(SHIFT))
    tree = tree_from_config(c, [Token(i, f"w{i}") for i in range(1, 4)], upos=["X"] * 3)
    assert validate_tree(tree) == []
    assert all(t.head == 0 and t.deprel == "dep" for t in tree.tokens)


def test_tree_from_config_keeps_surface_columns():
    """Only head, deprel and upos change; every other column of each
    token is carried over."""
    tokens = [Token(i, f"w{i}", lemma=f"l{i}", upos=f"U{i}", xpos=f"X{i}", feats=f"F{i}",
                    head=9, deprel="old", misc=f"M{i}") for i in range(1, 3)]
    c = apply(apply(Configuration(2), Transition(RIGHT_ARC, "root")),
              Transition(RIGHT_ARC, "obj"))
    out = tree_from_config(c, tokens, upos=["A", "B"]).tokens
    assert out == [Token(1, "w1", "l1", "A", "X1", "F1", 0, "root", "M1"),
                   Token(2, "w2", "l2", "B", "X2", "F2", 1, "obj", "M2")]


def test_mnemonic_round_trip():
    seq = [Transition(SHIFT), Transition(LEFT_ARC, "nsubj"),
           Transition(RIGHT_ARC, "root"), Transition(REDUCE)]
    text = format_sequence(seq)
    assert text == "SH LA:nsubj RA:root RE"
    assert parse_sequence(text) == seq
