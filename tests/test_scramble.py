import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (arcs, batch_of, order_words, pool_skew, random_nonprojective_tree,
                     random_projective_tree, ready_variant, transitive_tree)
from scrambleparse import cli, conllu, ngram, projectivity, scramble
from scrambleparse.conllu import (DepTree, Token, Treebank, dump_treebank, load_treebank,
                                  validate_tree)
from scrambleparse.ngram import train_lm
from scrambleparse.projectivity import is_projective
from scrambleparse.scramble import (OrderLabel, PermutationBatch,
                                    PermutationVariant, TRANSITIVE_ORDERS,
                                    UD_MAPPING, DeprelMapping, balance_orders,
                                    classify_order, extract_projections,
                                    order_distribution, permute_projection,
                                    select_representative)
from scrambleparse.synthetic import default_grammar, gen_synthetic, text_corpus, uniform_orders


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
    assert p.unit_count == 4  # the verb, S, IO and O; punctuation frozen
    assert (p.verb_index, p.verb_index) in p.spans
    spans = p.spans
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
    assert projs[2].spans == ((1, 1), (2, 2), (3, 4))  # inner clause is one unit of the outer
    assert projs[4].spans == ((3, 3), (4, 4))
    spans = projs[2].spans
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
        spans = p.spans
        assert list(spans) == sorted(spans)
        assert (p.verb_index, p.verb_index) in spans
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
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    assert len(batch.variants) == math.factorial(4) == 24
    # The IO-postposed order exists: "Ram ne kitab di Gopal ko ."
    forms = {" ".join(v.tree.forms()) for v in batch.variants}
    assert "Ram ne kitab di Gopal ko ." in forms
    # Punctuation frozen sentence-finally everywhere.
    assert all(v.tree.tokens[-1].form == "." for v in batch.variants)


def test_permute_single_unit_identity():
    tree = DepTree([Token(1, "go", upos="VERB", head=0, deprel="root")])
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    assert len(batch.variants) == 1
    assert batch.variants[0].is_identity
    assert batch.variants[0].tree.forms() == tree.forms()


def test_variants_preserve_arc_multiset_and_validate():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    src_arcs = arcs(tree)
    for v in batch.variants:
        assert validate_tree(v.tree) == []
        assert remapped_arcs(v) == src_arcs
        assert sorted(v.tree.forms()) == sorted(tree.forms())
        assert is_projective(v.tree) == is_projective(tree)


def test_permute_keeps_each_unit_inside_one_run_of_slots():
    """In "Ram ne , kitab di" the comma is a punct child of the verb, so the
    units' slots are two runs of two tokens. An order that would split
    "Ram ne" across the comma, or put "kitab" and "di" on either side of
    it (OSV, VSO), is not emitted."""
    tree = DepTree([Token(1, "Ram", upos="NOUN", head=5, deprel="nsubj"),
                    Token(2, "ne", upos="ADP", head=1, deprel="case"),
                    Token(3, ",", upos="PUNCT", head=5, deprel="punct"),
                    Token(4, "kitab", upos="NOUN", head=5, deprel="obj"),
                    Token(5, "di", upos="VERB", head=0, deprel="root")])
    (p,) = extract_projections(tree, UD_MAPPING)
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    assert {" ".join(words) for words in order_words(batch)} == {
        "Ram ne , kitab di", "Ram ne , di kitab", "kitab di , Ram ne", "di kitab , Ram ne"}
    assert {v.order for v in batch.variants} == {OrderLabel.SOV, OrderLabel.SVO,
                                                  OrderLabel.OVS, OrderLabel.VOS}
    for v in batch.variants:
        assert is_projective(v.tree) and remapped_arcs(v) == arcs(tree)


PUNCT_ROLES = DeprelMapping(subject_labels=frozenset({"a"}), object_labels=frozenset({"b"}))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12))
def test_variants_with_frozen_tokens_between_units_stay_projective(seed, n):
    """Every variant of a projective tree whose punct tokens sit between a
    projection's units is projective and keeps the source's arc set."""
    tree = random_projective_tree(np.random.default_rng(seed), n,
                                  labels=("a", "b", "c", "punct"))
    for p in extract_projections(tree, PUNCT_ROLES):
        if p.unit_count <= 6:
            batch = permute_projection(tree, p, limit=120, mapping=PUNCT_ROLES)
            assert any(v.is_identity for v in batch.variants)
            for v in batch.variants:
                assert is_projective(v.tree) and remapped_arcs(v) == arcs(tree)


def test_identity_variant_present_and_matches_source_order():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
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
    """Ten units have 10! orders: there is no call without a cap."""
    tokens = [Token(i, f"n{i}", upos="NOUN", head=10, deprel=f"dep{i}") for i in range(1, 10)]
    tokens.append(Token(10, "v", upos="VERB", head=0, deprel="root"))
    tree = DepTree(tokens)
    p = extract_projections(tree, UD_MAPPING)[0]
    assert p.unit_count == 10
    with pytest.raises(TypeError, match="limit"):
        permute_projection(tree, p, mapping=UD_MAPPING)
    capped = permute_projection(tree, p, limit=5, mapping=UD_MAPPING)
    assert len(capped.variants) == 5


def test_variant_comments_record_order_and_perm():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
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
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    target = next(v for v in batch.variants
                  if " ".join(v.tree.forms()) == "Ram ne kitab di Gopal ko .")
    assert target.order == OrderLabel.SOV


def test_classify_intransitive():
    tree = DepTree([Token(1, "ana", upos="NOUN", head=2, deprel="nsubj"),
                    Token(2, "runs", upos="VERB", head=0, deprel="root")])
    assert classify_order(tree, UD_MAPPING) == OrderLabel.NONTRANSITIVE


def test_order_distribution_degenerate():
    dist = order_distribution([OrderLabel.SOV] * 100 + [OrderLabel.NONTRANSITIVE])
    assert dist[OrderLabel.SOV] == 100.0
    assert set(dist) == set(TRANSITIVE_ORDERS)
    assert abs(sum(dist.values()) - 100.0) < 0.01


def test_order_distribution_is_empty_without_transitive():
    tree = DepTree([Token(1, "hi", upos="INTJ", head=0, deprel="root")])
    assert order_distribution([classify_order(tree, UD_MAPPING)]) == {}
    assert order_distribution([]) == {}


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

    proj = VerbalProjection(verb_index=4, spans=((1, 2), (3, 3), (4, 4)))
    variants = []
    ppl = start_ppl
    i = 0
    for order, count in order_counts.items():
        for _ in range(count):
            i += 1
            variants.append(ready_variant(transitive_tree(order.value), order, (1, 0, i),
                                          perplexity=ppl))
            ppl += 1.0
    return batch_of(source, proj, variants)


def test_balance_two_class_round_robin():
    batch = _fake_batch({OrderLabel.SOV: 100, OrderLabel.OSV: 100})
    out = balance_orders([batch], budget=100)
    labels = [classify_order(v.tree, UD_MAPPING) for v in out]
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
        after = pool_skew([classify_order(v.tree, UD_MAPPING) for v in out])
        assert after <= before


def test_balance_prefers_low_perplexity():
    batch = _fake_batch({OrderLabel.SOV: 10})
    out = balance_orders([batch], budget=3)
    kept = {" ".join(v.tree.forms()) for v in out}
    ppls = sorted(v.perplexity for v in batch.variants)[:3]
    expected = {" ".join(v.tree.forms()) for v in batch.variants if v.perplexity in ppls}
    assert kept <= expected or len(kept) == 1  # identical trees collapse in the set


def test_balance_drops_identity_variants():
    source = transitive_tree("SOV")
    from scrambleparse.scramble import VerbalProjection

    proj = VerbalProjection(verb_index=4, spans=((1, 2), (3, 3), (4, 4)))
    identity = ready_variant(source, OrderLabel.SOV, (0, 1, 2), (1, 2, 3, 4, 5), 1.0)
    scrambled = ready_variant(transitive_tree("OSV"), OrderLabel.OSV, (1, 0, 2),
                              (3, 1, 2, 4, 5), 2.0)
    batch = batch_of(source, proj, [identity, scrambled])
    assert balance_orders([batch], budget=5) == [scrambled]


def test_trees_built_only_for_kept_variants():
    tree = figure_like_tree()
    p = extract_projections(tree, UD_MAPPING)[0]
    batch = permute_projection(tree, p, limit=120, mapping=UD_MAPPING)
    batch.perplexities = [float(i) for i in range(len(batch.perms))]
    assert [v.perplexity for v in batch.variants] == batch.perplexities
    assert not any("tree" in vars(v) for v in batch.variants)
    out = balance_orders([batch], budget=3)
    assert not any("tree" in vars(v) for v in batch.variants)
    for v in out:
        v.tree  # as permute reads them to write its output
    built = [v for v in batch.variants if "tree" in vars(v)]
    assert len(built) == len(out) == 3
    assert {id(v) for v in built} == {id(v) for v in out}
    forms = tree.forms()
    assert all(v.tree.forms() == [forms[i - 1] for i in v.positions] for v in built)


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
                batch = permute_projection(tree, p, limit=120, mapping=mapping)
                assert len(batch.variants) == math.factorial(p.unit_count)
                checked += 1
    assert checked > 10


@pytest.fixture()
def permute_inputs(tmp_path):
    """40 generated trees and a bigram LM trained on their words, on disk."""
    tb = gen_synthetic(default_grammar(uniform_orders()), 40, seed=3)
    dump_treebank(tb, tmp_path / "in.conllu")
    train_lm(text_corpus(tb), order=2).save(tmp_path / "lm.nglm")
    return tmp_path


def _permute(tmp_path, *extra) -> int:
    return cli.run(["permute", "--in", str(tmp_path / "in.conllu"),
                    "--lm", str(tmp_path / "lm.nglm"), "--out", str(tmp_path / "aug.conllu"),
                    "--budget", "30", *extra])


def test_permute_path_builds_each_tree_shape_once(permute_inputs):
    calls = []
    real = conllu.tree_shape

    def counting(heads):
        calls.append(len(heads))
        return real(heads)

    tree = transitive_tree("SOV", with_io=True)
    with mock.patch.object(conllu, "tree_shape", counting), \
            mock.patch.object(projectivity, "tree_shape", counting):
        (projection,) = extract_projections(tree, UD_MAPPING)
        batch = permute_projection(tree, projection, limit=120)
        assert len(calls) == 1
        assert batch.variants
        calls.clear()
        assert _permute(permute_inputs, "--select", "25") == 0
    # One shape per input tree, selected or not; the order distribution
    # that permute prints reads the kept variants' labels, not their trees.
    assert len(load_treebank(permute_inputs / "aug.conllu")) > 0
    assert len(calls) == 40


def test_permute_tests_each_tree_for_projectivity_once(permute_inputs):
    """``permute`` checks every input tree and ``extract_projections``
    checks each selected one again: the second check reads the verdict
    the tree keeps."""
    with mock.patch.object(projectivity, "_nonprojective_arcs",
                           side_effect=projectivity._nonprojective_arcs) as check, \
            mock.patch.object(projectivity, "is_projective",
                              side_effect=projectivity.is_projective) as verdict, \
            mock.patch.object(scramble, "is_projective", verdict):
        assert _permute(permute_inputs, "--select", "25") == 0
    assert verdict.call_count == 40 + 25
    assert check.call_count == 40


def test_permute_notes_a_nonprojective_tree_it_does_not_select(permute_inputs, capsys):
    tb = load_treebank(permute_inputs / "in.conllu")
    bad = random_nonprojective_tree(np.random.default_rng(0))
    tb = Treebank([bad] + tb.trees)
    dump_treebank(tb, permute_inputs / "in.conllu")
    assert bad not in select_representative(tb, n=5, seed=42).trees
    assert _permute(permute_inputs, "--select", "5") == 0
    assert "projectivizing first" in capsys.readouterr().out


def test_permute_labels_and_builds_only_the_filter_survivors(permute_inputs, capsys):
    rows = []
    real_permute = scramble.permute_projection

    def permuting(*args, **kwargs):
        batch = real_permute(*args, **kwargs)
        rows.append(len(batch.perms))
        return batch

    with mock.patch.object(scramble, "_order_label", side_effect=scramble._order_label) as label, \
            mock.patch.object(scramble, "PermutationVariant",
                              side_effect=scramble.PermutationVariant) as variant, \
            mock.patch.object(scramble, "permute_projection", permuting):
        assert _permute(permute_inputs) == 0
    out = capsys.readouterr().out
    survivors = int(out.split(" pool ")[1].split()[0])
    assert 0 < survivors < sum(rows)
    # Each survivor is labelled once, the summary included.
    assert label.call_count == survivors
    assert variant.call_count == survivors


def test_permute_writes_the_same_bytes_whatever_rows_a_pass_scores(permute_inputs, monkeypatch):
    """Each batch scored in a pass of its own, or every batch in one pass:
    the same survivors, so the same augmented treebank."""
    outputs = []
    for rows in (1, 10**9):
        monkeypatch.setattr(ngram, "PASS_ROWS", rows)
        assert _permute(permute_inputs) == 0
        outputs.append((permute_inputs / "aug.conllu").read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]
