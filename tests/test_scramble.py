import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pool_skew, random_projective_tree, transitive_tree
from scrambleparse import conllu, projectivity
from scrambleparse.conllu import DepTree, Token, Treebank, validate_tree
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import (OrderLabel, PermutationBatch,
                                    PermutationVariant, TRANSITIVE_ORDERS,
                                    UD_MAPPING, DeprelMapping, balance_orders,
                                    classify_order, extract_projections,
                                    order_distribution, permute_projection,
                                    select_representative)


def figure_like_tree() -> DepTree:
    # "Ram ne Gopal ko kitab di ." with S, IO, O chunks and final punctuation.
    return transitive_tree("SOV", with_io=True)


def remapped_arcs(variant: PermutationVariant) -> set:
    """Variant arcs mapped back into source token positions."""
    to_old = {0: 0}
    for new_pos, old in enumerate(variant.positions, start=1):
        to_old[new_pos] = old
    return {(to_old[t.head], to_old[t.index], t.deprel) for t in variant.tree.tokens}


def test_extract_figure_projection():
    projs = extract_projections(figure_like_tree(), UD_MAPPING)
    assert len(projs) == 1
    p = projs[0]
    tree = figure_like_tree()
    assert tree.token(p.verb_index).form == "di"
    assert len(p.constituent_roots) == 3  # S, IO, O; punctuation frozen
    spans = sorted(p.span_map.values())
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert lo > hi  # pairwise disjoint


def test_extract_single_token_sentence():
    tree = DepTree([Token(1, "go", upos="VERB", head=0, deprel="root")])
    projs = extract_projections(tree, UD_MAPPING)
    assert len(projs) == 1 and projs[0].unit_count == 1
    bare = DepTree([Token(1, "hi", upos="INTJ", head=0, deprel="root")])
    assert extract_projections(bare, UD_MAPPING) == []


def test_extract_nested_clause():
    # Outer verb with inner clausal complement: inner clause is one unit.
    tokens = [Token(1, "ana", upos="NOUN", head=2, deprel="nsubj"),
              Token(2, "said", upos="VERB", head=0, deprel="root"),
              Token(3, "bo", upos="NOUN", head=4, deprel="nsubj"),
              Token(4, "left", upos="VERB", head=2, deprel="ccomp")]
    tree = DepTree(tokens)
    projs = {p.verb_index: p for p in extract_projections(tree, UD_MAPPING)}
    assert set(projs) == {2, 4}
    assert projs[2].span_map[4] == (3, 4)  # inner clause is one unit of the outer
    spans = sorted(projs[2].span_map.values())
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert lo > hi


ROLES = DeprelMapping(subject_labels=frozenset({"a"}), object_labels=frozenset({"b"}),
                      frozen_labels=frozenset({"c"}))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16))
def test_projection_spans_are_disjoint(seed, n):
    """In a projective tree the subtrees of a head's dependents are disjoint
    intervals that do not hold the head, so no two units of a projection
    overlap."""
    tree = random_projective_tree(np.random.default_rng(seed), n, tags=("VERB", "N", "X"))
    for p in extract_projections(tree, ROLES):
        assert set(p.span_map) == {p.verb_index, *p.constituent_roots}
        spans = sorted(p.span_map.values())
        assert all(lo <= hi for lo, hi in spans)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo > hi


def test_extract_requires_projective():
    tree = DepTree([Token(1, "w1", upos="NOUN", head=3, deprel="nsubj"),
                    Token(2, "w2", upos="VERB", head=0, deprel="root"),
                    Token(3, "w3", upos="VERB", head=2, deprel="ccomp"),
                    Token(4, "w4", upos="NOUN", head=2, deprel="obj")])
    with pytest.raises(ValueError, match="projectivize"):
        extract_projections(tree, UD_MAPPING)


def test_permute_figure_sentence_gives_24_variants():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    assert len(batch.variants) == math.factorial(4) == 24
    # The IO-postposed order exists: "Ram ne kitab di Gopal ko ."
    forms = {" ".join(v.tree.forms()) for v in batch.variants}
    assert "Ram ne kitab di Gopal ko ." in forms
    # Punctuation frozen sentence-finally everywhere.
    assert all(v.tree.tokens[-1].form == "." for v in batch.variants)


def test_permute_single_unit_identity():
    tree = DepTree([Token(1, "go", upos="VERB", head=0, deprel="root")])
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    assert len(batch.variants) == 1
    assert batch.variants[0].is_identity
    assert batch.variants[0].tree.forms() == tree.forms()


def test_variants_preserve_arc_multiset_and_validate():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    src_arcs = tree.arcs()
    for v in batch.variants:
        assert validate_tree(v.tree) == []
        assert remapped_arcs(v) == src_arcs
        assert sorted(v.tree.forms()) == sorted(tree.forms())
        assert is_projective(v.tree) == is_projective(tree)


def test_identity_variant_present_and_matches_source_order():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    identity = [v for v in batch.variants if v.is_identity]
    assert len(identity) == 1
    assert identity[0].tree.forms() == tree.forms()
    assert classify_order(identity[0].tree, UD_MAPPING) == classify_order(tree, UD_MAPPING)


def test_permute_limit_samples_without_replacement():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=10, mapping=UD_MAPPING, seed=3)
    assert len(batch.variants) == 10
    assert len({v.perm for v in batch.variants}) == 10
    assert any(v.is_identity for v in batch.variants)
    again = permute_projection(tree, p, limit=10, mapping=UD_MAPPING, seed=3)
    assert [v.perm for v in again.variants] == [v.perm for v in batch.variants]


def test_permute_refuses_factorial_blowup():
    tokens = [Token(i, f"n{i}", upos="NOUN", head=10, deprel=f"dep{i}") for i in range(1, 10)]
    tokens.append(Token(10, "v", upos="VERB", head=0, deprel="root"))
    tree = DepTree(tokens)
    p = extract_projections(tree, UD_MAPPING)[0]
    assert p.unit_count == 10
    with pytest.raises(ValueError, match="limit"):
        permute_projection(tree, p, mapping=UD_MAPPING)
    capped = permute_projection(tree, p, limit=5, mapping=UD_MAPPING)
    assert len(capped.variants) == 5


def test_variant_comments_record_order_and_perm():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    for v in batch.variants:
        assert any(c.startswith("# scramble_order=") and "perm=" in c
                   for c in v.tree.comments)


@pytest.mark.parametrize("order", ["SOV", "OSV", "OVS", "SVO", "VOS", "VSO"])
def test_classify_all_six_orders(order):
    assert classify_order(transitive_tree(order), UD_MAPPING) == OrderLabel(order)


def test_classify_io_postposed_still_sov():
    # Indirect object moves do not affect the S/O/V label.
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    target = next(v for v in batch.variants
                  if " ".join(v.tree.forms()) == "Ram ne kitab di Gopal ko .")
    assert target.order == OrderLabel.SOV


def test_classify_intransitive():
    tree = DepTree([Token(1, "ana", upos="NOUN", head=2, deprel="nsubj"),
                    Token(2, "runs", upos="VERB", head=0, deprel="root")])
    assert classify_order(tree, UD_MAPPING) == OrderLabel.NONTRANSITIVE


def test_order_distribution_degenerate():
    tb = Treebank([transitive_tree("SOV") for _ in range(100)])
    dist = order_distribution(tb, UD_MAPPING)
    assert dist[OrderLabel.SOV] == 100.0
    assert set(dist) == set(TRANSITIVE_ORDERS)
    assert abs(sum(dist.values()) - 100.0) < 0.01


def test_order_distribution_errors_without_transitive():
    tb = Treebank([DepTree([Token(1, "hi", upos="INTJ", head=0, deprel="root")])])
    with pytest.raises(ValueError):
        order_distribution(tb, UD_MAPPING)


def test_select_representative_identity_and_determinism():
    tb = Treebank([transitive_tree("SOV") for _ in range(10)])
    assert select_representative(tb, 10).trees == tb.trees
    a = select_representative(tb, 4, seed=9)
    b = select_representative(tb, 4, seed=9)
    assert [id(x) for x in a.trees] == [id(x) for x in b.trees]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI reports a short treebank itself
        all_of_them = select_representative(tb, 99)
    assert all_of_them.trees == tb.trees


def _fake_batch(order_counts: dict, start_ppl: float = 10.0) -> PermutationBatch:
    source = transitive_tree("SOV")
    from scrambleparse.scramble import VerbalProjection

    proj = VerbalProjection(verb_index=4, constituent_roots=(1, 3), span_map={})
    variants = []
    ppl = start_ppl
    i = 0
    for order, count in order_counts.items():
        for _ in range(count):
            i += 1
            variants.append(PermutationVariant(
                tree=transitive_tree(order.value), order=order,
                perm=(1, 0, i), positions=(), perplexity=ppl))
            ppl += 1.0
    return PermutationBatch(source=source, projection=proj, variants=variants)


def test_balance_two_class_round_robin():
    batch = _fake_batch({OrderLabel.SOV: 100, OrderLabel.OSV: 100})
    out = balance_orders([batch], budget=100)
    labels = [classify_order(t, UD_MAPPING) for t in out]
    assert len(out) == 100
    assert labels.count(OrderLabel.SOV) == 50
    assert labels.count(OrderLabel.OSV) == 50


def test_balance_budget_exceeds_pool():
    batch = _fake_batch({OrderLabel.SOV: 5, OrderLabel.VSO: 3})
    out = balance_orders([batch], budget=100)
    assert len(out) == 8


def test_balance_reduces_skew():
    rng = np.random.default_rng(4)
    for _ in range(20):
        counts = {l: int(rng.integers(0, 40)) for l in TRANSITIVE_ORDERS}
        if sum(counts.values()) < 12:
            counts[OrderLabel.SOV] += 12
        batch = _fake_batch({l: c for l, c in counts.items() if c})
        before = pool_skew([v.order for v in batch.variants])
        budget = max(6, sum(counts.values()) // 2)
        out = balance_orders([batch], budget=budget)
        after = pool_skew([classify_order(t, UD_MAPPING) for t in out])
        assert after <= before


def test_balance_prefers_low_perplexity():
    batch = _fake_batch({OrderLabel.SOV: 10})
    out = balance_orders([batch], budget=3)
    kept = {" ".join(t.forms()) for t in out}
    ppls = sorted(v.perplexity for v in batch.variants)[:3]
    expected = {" ".join(v.tree.forms()) for v in batch.variants if v.perplexity in ppls}
    assert kept <= expected or len(kept) == 1  # identical trees collapse in the set


def test_balance_drops_identity_variants_by_default():
    source = transitive_tree("SOV")
    from scrambleparse.scramble import VerbalProjection

    proj = VerbalProjection(verb_index=4, constituent_roots=(1, 3), span_map={})
    identity = PermutationVariant(tree=source, order=OrderLabel.SOV,
                                  perm=(0, 1, 2), positions=(1, 2, 3, 4, 5),
                                  perplexity=1.0)
    scrambled = PermutationVariant(tree=transitive_tree("OSV"), order=OrderLabel.OSV,
                                   perm=(1, 0, 2), positions=(3, 1, 2, 4, 5),
                                   perplexity=2.0)
    batch = PermutationBatch(source=source, projection=proj,
                             variants=[identity, scrambled])
    out = balance_orders([batch], budget=5)
    assert len(out) == 1
    out_inclusive = balance_orders([batch], budget=5, include_identity=True)
    assert len(out_inclusive) == 2


def test_trees_built_only_for_kept_variants():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, mapping=UD_MAPPING)
    for i, v in enumerate(batch.variants):
        v.perplexity = float(i)
    assert not any("tree" in vars(v) for v in batch.variants)
    out = balance_orders([batch], budget=3)
    built = [v for v in batch.variants if "tree" in vars(v)]
    assert len(built) == len(out) == 3
    assert {id(v.tree) for v in built} == {id(t) for t in out}
    assert all(v.forms == tuple(v.tree.forms()) for v in built)


def test_mapping_rejects_overlapping_roles():
    with pytest.raises(ValueError):
        DeprelMapping(subject_labels=frozenset({"x"}), object_labels=frozenset({"x"}))


def test_permutation_count_matches_factorial_on_random_trees():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        tree = random_projective_tree(rng, int(rng.integers(2, 8)))
        mapping = DeprelMapping(subject_labels=frozenset({"a"}),
                                object_labels=frozenset({"b"}),
                                frozen_labels=frozenset())
        for p in extract_projections(tree, mapping):
            if p.unit_count <= 5:
                batch = permute_projection(tree, p, mapping=mapping)
                assert len(batch.variants) == math.factorial(p.unit_count)
                checked += 1
    assert checked > 10


def test_permute_path_builds_each_tree_shape_once():
    calls = []
    real = conllu.tree_shape

    def counting(heads):
        calls.append(len(heads))
        return real(heads)

    tree = transitive_tree("SOV", with_io=True)
    with mock.patch.object(conllu, "tree_shape", counting), \
            mock.patch.object(projectivity, "tree_shape", counting):
        (projection,) = extract_projections(tree, UD_MAPPING)
        batch = permute_projection(tree, projection)
    assert len(calls) == 1
    assert batch.variants
