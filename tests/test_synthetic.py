import numpy as np
import pytest

from scrambleparse.conllu import validate_tree
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import (TRANSITIVE_ORDERS, UD_MAPPING, OrderLabel,
                                    classify_order, order_distribution)
from scrambleparse.synthetic import (IOBJ_MARKER, SUBJECT_MARKER, SyntheticGrammar,
                                     _clause_chunks, _clause_tree, default_grammar,
                                     gen_synthetic, parse_order_spec, text_corpus,
                                     uniform_orders)


def test_all_trees_valid_and_projective():
    tb = gen_synthetic(default_grammar(uniform_orders()), 300, seed=3)
    for tree in tb:
        assert validate_tree(tree) == []
        assert is_projective(tree)
        assert tree.tokens[-1].upos == "PUNCT"


def test_order_distribution_matches_request():
    tb = gen_synthetic(default_grammar(uniform_orders()), 5000, seed=5)
    dist = order_distribution(classify_order(t, UD_MAPPING) for t in tb)
    for label in TRANSITIVE_ORDERS:
        assert abs(dist[label] - 100.0 / 6) < 2.0


def test_degenerate_distribution():
    tb = gen_synthetic(default_grammar({OrderLabel.SOV: 1.0}), 400, seed=1)
    dist = order_distribution(classify_order(t, UD_MAPPING) for t in tb)
    assert dist[OrderLabel.SOV] == 100.0


def test_requested_order_is_generated_order():
    weights = {OrderLabel.VSO: 1.0}
    tb = gen_synthetic(default_grammar(weights), 50, seed=2)
    assert all(classify_order(t, UD_MAPPING) == OrderLabel.VSO for t in tb)


def test_seed_determinism():
    g = default_grammar(uniform_orders())
    a = gen_synthetic(g, 40, seed=9)
    b = gen_synthetic(g, 40, seed=9)
    c = gen_synthetic(g, 40, seed=10)
    assert [t.tokens for t in a] == [t.tokens for t in b]
    assert [t.tokens for t in a] != [t.tokens for t in c]


def test_grammar_validates_weight_sum():
    with pytest.raises(ValueError, match="sum to 1"):
        SyntheticGrammar(subjects=("a",), objects=("b",), indirect_objects=(),
                         adjuncts=(), verbs=("v",),
                         order_weights={OrderLabel.SOV: 0.4})


def test_parse_order_spec():
    assert parse_order_spec("uniform") == uniform_orders()
    w = parse_order_spec("sov=0.75,osv=0.25")
    assert w[OrderLabel.SOV] == 0.75 and w[OrderLabel.OSV] == 0.25
    with pytest.raises(ValueError, match="unknown order"):
        parse_order_spec("xyz=1.0")
    assert parse_order_spec(" SOV = 1 ") == {OrderLabel.SOV: 1.0}


def _bad_weight(part):
    return f"bad order weight '{part}' (expected name=weight with a finite weight >= 0)"


@pytest.mark.parametrize("spec, message", [
    ("sov", _bad_weight("sov")), ("sov=", _bad_weight("sov=")),
    ("sov=high", _bad_weight("sov=high")), ("sov=1.5,osv=-0.5", _bad_weight("osv=-0.5")),
    ("sov=nan", _bad_weight("sov=nan")), ("sov=0.5,osv=inf", _bad_weight("osv=inf")),
    ("sov=0.5,sov=0.5", "order class 'sov' given twice"),
])
def test_parse_order_spec_names_the_bad_weight(spec, message):
    with pytest.raises(ValueError) as err:
        parse_order_spec(spec)
    assert str(err.value) == message


def test_text_corpus_matches_forms():
    tb = gen_synthetic(default_grammar({OrderLabel.SOV: 1.0}), 5, seed=0)
    lines = text_corpus(tb)
    assert len(lines) == 5
    assert lines[0] == tb[0].forms()


def test_case_markers_present():
    tb = gen_synthetic(default_grammar({OrderLabel.SOV: 1.0}), 100, seed=4)
    markers = {"nsubj": SUBJECT_MARKER, "iobj": IOBJ_MARKER}
    for tree in tb:
        assert sum(t.deprel == "nsubj" for t in tree.tokens) == 1
        for noun in tree.tokens:
            if noun.deprel in markers:
                marker = [t for t in tree.tokens if t.head == noun.index]
                assert [(t.form, t.deprel) for t in marker] == [(markers[noun.deprel], "case")]
    assert any(t.deprel == "iobj" for tree in tb for t in tree.tokens)


def ref_gen_synthetic(g, n, seed):
    """``gen_synthetic`` drawing each order class with ``rng.choice``; returns
    the trees and the generator."""
    rng = np.random.default_rng(seed)
    labels = list(TRANSITIVE_ORDERS)
    probs = np.array([g.order_weights[l] for l in labels])
    probs = probs / probs.sum()
    trees = []
    for i in range(n):
        order = labels[int(rng.choice(len(labels), p=probs))]
        trees.append(_clause_tree(_clause_chunks(g, order, rng), order, f"synth-{seed}-{i}"))
    return trees, rng


@pytest.mark.parametrize("weights", [
    uniform_orders(), {OrderLabel.SOV: 1.0}, {OrderLabel.VSO: 1.0},
    {OrderLabel.SOV: 0.9, OrderLabel.OSV: 0.02, OrderLabel.OVS: 0.02,
     OrderLabel.SVO: 0.02, OrderLabel.VOS: 0.02, OrderLabel.VSO: 0.02},
])
def test_order_draw_matches_rng_choice(monkeypatch, weights):
    g = default_grammar(weights)
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    got = gen_synthetic(g, 2000, seed=6)
    monkeypatch.undo()
    want, ref_rng = ref_gen_synthetic(g, 2000, seed=6)
    assert [(t.tokens, t.comments) for t in got] == [(t.tokens, t.comments) for t in want]
    assert made[-1].bit_generator.state == ref_rng.bit_generator.state


def test_grammar_rejects_negative_weights():
    with pytest.raises(ValueError, match=">= 0"):
        SyntheticGrammar(subjects=("a",), objects=("b",), indirect_objects=(),
                         adjuncts=(), verbs=("v",),
                         order_weights={OrderLabel.SOV: 1.5, OrderLabel.OSV: -0.5})


def test_shared_nouns_draw_objects_from_the_subjects():
    g = default_grammar(uniform_orders(), shared_nouns=True)
    assert g.objects == g.subjects == default_grammar(uniform_orders()).subjects
    assert default_grammar(uniform_orders()).objects != g.subjects


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_drop_case_removes_only_subject_markers_at_its_rate(p):
    """The clauses are those of ``drop_case = 0`` less some subject
    markers, heads re-indexed; the drop has a stream of its own."""
    g = default_grammar(uniform_orders(), shared_nouns=True)
    full = gen_synthetic(g, 2000, seed=9)
    dropped = gen_synthetic(g, 2000, seed=9, drop_case=p)
    n_dropped = 0
    for a, b in zip(full, dropped, strict=True):
        assert validate_tree(b) == [] and is_projective(b)
        kept = [t for t in a.tokens
                if not (t.deprel == "case" and t.form == SUBJECT_MARKER and len(b) < len(a))]
        assert [(t.form, t.deprel) for t in b.tokens] == [(t.form, t.deprel) for t in kept]
        heads = {t.index: t.form for t in kept}
        new_index = {t.index: i for i, t in enumerate(kept, start=1)}
        assert [t.head for t in b.tokens] == [new_index.get(t.head, 0) for t in kept]
        assert all(t.head == 0 or t.head in heads for t in kept)
        n_dropped += len(b) < len(a)
    assert abs(n_dropped / 2000 - p) < 0.04


def test_drop_case_rejects_a_rate_outside_zero_to_one():
    with pytest.raises(ValueError, match="drop_case must be in"):
        gen_synthetic(default_grammar(uniform_orders()), 3, drop_case=1.5)
