"""Permutation, order labelling and LM filtering against the eager versions.

``permute_projection`` gives a batch of each order's permutation and
position row, memoised per clause layout, and leaves the rest unbuilt: a
variant gets its label (from the new positions of its subject, object
and verb) when it is read, and its tree later still.
``score_batches`` scores the orders through their position rows in one
numpy pass, one perplexity per row; ``filter_by_perplexity`` ranks a
scored batch into a new batch of its survivors, the only variants built;
and ``balance_orders`` picks by one sort. The functions below are the
versions they replaced: a full tree per variant, ``classify_order`` on
that tree, a perplexity per variant that sums one probability
(``helpers.lm_prob``) per n-gram, and a balancer that pops the cheapest
variant of the least-taken class until the budget is spent. The arithmetic is meant to be the same, so
perplexities are compared with ``==``, not a tolerance.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import batch_of, lm_filter, lm_prob, ready_variant, transitive_tree
from scrambleparse.conllu import DepTree, Token
from scrambleparse.ngram import BOS, EOS, filter_by_perplexity, score_batches, train_lm
from scrambleparse.projectivity import base_label, is_projective
from scrambleparse.scramble import (OrderLabel, TRANSITIVE_ORDERS, UD_MAPPING, balance_orders,
                                    extract_projections, permute_projection)

VOCAB = ["ram", "ne", "kitab", "di", "gopal", "ko", "ghar", "gaya", "."]
OOV = ["zzq", "xvv"]  # never in the LM corpus
LABELS = ("nsubj", "obj", "iobj", "case", "obl", "punct")
UPOS = ("VERB", "NOUN", "ADP", "AUX", "X")


def _lm_corpus():
    rng = np.random.default_rng(5)
    return [[VOCAB[int(i)] for i in rng.integers(len(VOCAB), size=int(rng.integers(1, 9)))]
            for _ in range(60)]


MODELS = {order: train_lm(_lm_corpus(), order=order) for order in (1, 2, 3)}


# --- reference versions --------------------------------------------------

def ref_children(tree):
    children = {i: [] for i in range(len(tree.tokens) + 1)}
    for t in tree.tokens:
        children[t.head].append(t.index)
    return children


def ref_verbal_heads(tree, mapping):
    children = ref_children(tree)
    role_labels = mapping.subject_labels | mapping.object_labels
    heads = []
    for tok in tree.tokens:
        if tok.upos in ("VERB", "AUX"):
            heads.append(tok.index)
        elif any(base_label(tree.deprel_of(c)) in role_labels for c in children[tok.index]):
            heads.append(tok.index)
    return heads


def ref_classify_order(tree, mapping):
    heads = ref_verbal_heads(tree, mapping)
    if not heads:
        return OrderLabel.NONTRANSITIVE

    def depth(i):
        d = 0
        node = i
        while node != 0:
            node = tree.token(node).head
            d += 1
        return d

    main = min(heads, key=lambda i: (depth(i), i))
    children = ref_children(tree)[main]
    subjects = [c for c in children if base_label(tree.deprel_of(c)) in mapping.subject_labels]
    objects = [c for c in children if base_label(tree.deprel_of(c)) in mapping.object_labels]
    if len(subjects) != 1 or len(objects) != 1:
        return OrderLabel.NONTRANSITIVE
    order = sorted([(subjects[0], "S"), (objects[0], "O"), (main, "V")])
    return OrderLabel("".join(letter for _, letter in order))


def ref_relinearize(tree, slots, unit_tokens, perm):
    n = len(tree.tokens)
    new_positions = list(range(1, n + 1))
    refill = [idx for u in perm for idx in unit_tokens[u]]
    for slot, old in zip(slots, refill):
        new_positions[slot - 1] = old
    new_index = {old: new for new, old in enumerate(new_positions, start=1)}
    new_index[0] = 0
    tokens = []
    for new_pos, old in enumerate(new_positions, start=1):
        src = tree.token(old)
        tokens.append(replace(src, index=new_pos, head=new_index[src.head]))
    return tokens, tuple(new_positions)


def ref_permute(tree, projection, limit, mapping, seed):
    """(tree, order, perm, positions) of every variant, trees built eagerly.

    An order is kept only when each unit's tokens stay contiguous."""
    m = projection.unit_count
    unit_tokens = [list(range(lo, hi + 1)) for lo, hi in projection.spans]
    slots = sorted(idx for toks in unit_tokens for idx in toks)
    identity = tuple(range(m))
    if math.factorial(m) > limit:
        rng = np.random.default_rng(seed)
        chosen = {identity}
        while len(chosen) < limit:
            chosen.add(tuple(int(x) for x in rng.permutation(m)))
        perms = sorted(chosen)
    else:
        perms = [tuple(p) for p in itertools.permutations(range(m))]
    out = []
    for perm in perms:
        tokens, positions = ref_relinearize(tree, slots, unit_tokens, perm)
        new_index = {old: new for new, old in enumerate(positions, start=1)}
        if any(max(new_index[i] for i in toks) - min(new_index[i] for i in toks) >= len(toks)
               for toks in unit_tokens):
            continue  # a frozen token would split this unit
        variant = tree.with_tokens(tokens)
        order = ref_classify_order(variant, mapping)
        variant.comments = list(tree.comments) + [
            f"# scramble_order={order.value} perm={','.join(map(str, perm))}"]
        out.append((variant, order, perm, positions))
    return out


def ref_perplexity(model, sentence):
    history = [BOS] * (model.order - 1) + list(sentence)
    total = 0.0
    for i, word in enumerate(list(sentence) + [EOS]):
        total += math.log(lm_prob(model, word, history[i:i + model.order - 1]))
    return math.exp(-total / (len(sentence) + 1))


def ref_filter(variants, model, k):
    scored = sorted(((ref_perplexity(model, v[0].forms()), v[2], v) for v in variants),
                    key=lambda item: (item[0], item[1]))
    return [(ppl, v) for ppl, _, v in scored[:k]]


def ref_balance_orders(batches, budget):
    """Round-robin by popping: each class's pool sorted cheapest last, then
    the cheapest variant of the least-taken class (ties: class order) until
    the budget is spent; non-transitive leftovers fill what remains."""
    pools = {label: [] for label in TRANSITIVE_ORDERS}
    leftovers = []
    for batch in batches:
        for v in batch.variants:
            if v.is_identity:
                continue
            if v.order is OrderLabel.NONTRANSITIVE:
                leftovers.append(v)
            else:
                pools[v.order].append(v)

    def cost(v):
        return (v.perplexity if v.perplexity is not None else math.inf, v.perm)

    for pool in pools.values():
        pool.sort(key=cost, reverse=True)  # cheapest last, popped first
    leftovers.sort(key=cost, reverse=True)
    chosen = []
    taken = {label: 0 for label in TRANSITIVE_ORDERS}
    while len(chosen) < budget and any(pools.values()):
        label = min((l for l in TRANSITIVE_ORDERS if pools[l]),
                    key=lambda l: (taken[l], TRANSITIVE_ORDERS.index(l)))
        chosen.append(pools[label].pop())
        taken[label] += 1
    while len(chosen) < budget and leftovers:
        chosen.append(leftovers.pop())
    return chosen


# --- random trees --------------------------------------------------------

@st.composite
def projective_trees(draw, max_tokens=9):
    """Projective trees with one or two roots over in-vocabulary and OOV forms."""
    n = draw(st.integers(1, max_tokens))
    heads = {}

    def build(lo, hi):
        if lo == hi:
            return lo
        split = draw(st.integers(lo, hi - 1))
        left, right = build(lo, split), build(split + 1, hi)
        if draw(st.booleans()):
            heads[right] = left
            return left
        heads[left] = right
        return right

    cut = draw(st.integers(1, n))
    for lo, hi in ((1, cut), (cut + 1, n)):
        if lo <= hi:
            heads[build(lo, hi)] = 0
    tokens = [Token(i, draw(st.sampled_from(VOCAB + OOV)), upos=draw(st.sampled_from(UPOS)),
                    head=heads[i],
                    deprel="root" if heads[i] == 0 else draw(st.sampled_from(LABELS)))
              for i in range(1, n + 1)]
    return DepTree(tokens, sentence_id="r1", comments=["# text = random"])


def two_verbs_same_depth():
    """A non-verbal root over two transitive verbs, both at depth 2."""
    rows = [("ram", "NOUN", 3, "nsubj"), ("kitab", "NOUN", 3, "obj"), ("di", "VERB", 4, "obl"),
            ("ko", "X", 0, "root"), ("gopal", "NOUN", 7, "nsubj"), ("zzq", "NOUN", 7, "obj"),
            ("gaya", "VERB", 4, "obl"), (".", "PUNCT", 4, "punct")]
    return DepTree([Token(i, f, upos=u, head=h, deprel=d)
                    for i, (f, u, h, d) in enumerate(rows, start=1)])


@settings(max_examples=80, deadline=None)
@given(tree=projective_trees(),
       limit=st.one_of(st.none(), st.integers(1, 30)),
       keep=st.one_of(st.none(), st.integers(1, 8)),
       lm_order=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 16))
@example(tree=two_verbs_same_depth(), limit=None, keep=None, lm_order=3, seed=0)
@example(tree=two_verbs_same_depth(), limit=4, keep=2, lm_order=2, seed=7)
def test_matches_eager_reference(tree, limit, keep, lm_order, seed):
    assert is_projective(tree)
    model = MODELS[lm_order]
    for projection in extract_projections(tree, UD_MAPPING):
        if projection.unit_count > 5 and limit is None:
            limit = 24  # bound the enumeration; the sampled path is checked too
        cap = 120 if limit is None else limit  # 120 = 5!: every order of up to five units
        batch = permute_projection(tree, projection, limit=cap, mapping=UD_MAPPING, seed=seed)
        expected = ref_permute(tree, projection, cap, UD_MAPPING, seed)

        assert [v.perm for v in batch.variants] == [e[2] for e in expected]
        assert [v.positions for v in batch.variants] == [e[3] for e in expected]
        assert [v.order for v in batch.variants] == [e[1] for e in expected]
        score_batches([batch], model)
        assert batch.perplexities == [ref_perplexity(model, e[0].forms()) for e in expected]

        filtered = filter_by_perplexity(batch, k=keep)
        survivors = filtered.variants
        k = keep if keep is not None else projection.unit_count
        ref_survivors = ref_filter(expected, model, k)
        assert [v.perm for v in survivors] == [v[2] for _, v in ref_survivors]
        assert [v.perplexity for v in survivors] == [ppl for ppl, _ in ref_survivors]

        # A fresh batch, scored alone, builds its survivors' variants only.
        fresh = permute_projection(tree, projection, limit=cap, mapping=UD_MAPPING, seed=seed)
        built = lm_filter(fresh, model, keep).variants
        assert "variants" not in vars(fresh)
        ref_built = [v for _, v in ref_survivors]
        assert [v.perm for v in built] == [v[2] for v in ref_built]
        assert [v.perplexity for v in built] == [ppl for ppl, _ in ref_survivors]
        assert [v.order for v in built] == [v[1] for v in ref_built]
        assert [v.positions for v in built] == [v[3] for v in ref_built]
        assert [(v.tree.tokens, v.tree.comments, v.tree.sentence_id) for v in built] == [
            (v[0].tokens, v[0].comments, v[0].sentence_id) for v in ref_built]

        for v, (ref_tree, _, _, _) in zip(batch.variants, expected):
            assert v.tree.tokens == ref_tree.tokens
            assert v.tree.comments == ref_tree.comments
            assert v.tree.sentence_id == ref_tree.sentence_id

        # The filter on a batch of the eager variants keeps the same ones.
        eager = batch_of(tree, projection, [ready_variant(*e) for e in expected], batch.roles)
        kept = lm_filter(eager, model, keep).variants
        assert [(v.perm, v.order, v.perplexity) for v in kept] == [
            (v[2], v[1], ppl) for ppl, v in ref_survivors]
        assert [(v.tree.tokens, v.tree.comments, v.tree.sentence_id) for v in kept] == [
            (e[0].tokens, e[0].comments, e[0].sentence_id) for _, e in ref_survivors]

        got = balance_orders([filtered], budget=4)
        want = balance_orders([batch_of(tree, projection, kept)], budget=4)
        assert [(v.tree.tokens, v.tree.comments) for v in got] == [
            (v.tree.tokens, v.tree.comments) for v in want]


# --- the balancer ------------------------------------------------------------

BALANCE_SOURCE = transitive_tree("SOV")
# Few perplexities and few permutations, so that (perplexity, perm) ties
# are common; the identity (0, 1, 2) is among them and always dropped.
POOLED = st.tuples(st.sampled_from(list(OrderLabel)),
                   st.sampled_from(list(itertools.permutations(range(3)))),
                   st.sampled_from([None, 1.0, 2.5, 2.5000000000000004, 7.0]))


@settings(max_examples=300, deadline=None)
@given(pools=st.lists(st.lists(POOLED, min_size=1, max_size=12), max_size=5),
       data=st.data())
def test_balance_orders_picks_as_the_pop_loop(pools, data):
    """Item for item, the same variant objects as the reference: ties in
    (perplexity, perm) across and within batches, missing perplexities,
    non-transitive leftovers, and budgets from 0 to past the pool."""
    batches = [batch_of(BALANCE_SOURCE, None,
                        [ready_variant(BALANCE_SOURCE, order, perm, (1, 2, 3), ppl)
                         for order, perm, ppl in pool]) for pool in pools]
    size = sum(map(len, pools))
    budget = data.draw(st.integers(0, size + 3))
    got = balance_orders(batches, budget)
    want = ref_balance_orders(batches, budget)
    assert [id(v) for v in got] == [id(v) for v in want]


# --- one pass over clauses with frozen tokens ------------------------------

FORMS = VOCAB + OOV + [BOS]  # a literal <s> is <unk> when predicted, <s> in a context


@st.composite
def frozen_clauses(draw):
    """The heads, labels and tags of a clause: a verb and 2-5 dependent
    units of 1-3 tokens, with frozen ``punct`` children of the verb between
    some of the units, so that they split the units' slots into runs."""
    units = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
    verb_at = draw(st.integers(0, len(units)))
    units.insert(verb_at, 0)  # 0: the verb itself
    cuts = draw(st.lists(st.booleans(), min_size=len(units) - 1, max_size=len(units) - 1))
    tokens = []  # (upos, deprel, head), the head a token index or "verb"
    for i, size in enumerate(units):
        if size == 0:
            tokens.append(("VERB", "root", 0))
        else:
            first = len(tokens) + 1
            tokens.append(("NOUN", draw(st.sampled_from(("nsubj", "obj", "obl", "iobj"))), "verb"))
            tokens += [("ADP", "case", first)] * (size - 1)
        if i < len(units) - 1 and cuts[i]:
            tokens.append(("PUNCT", "punct", "verb"))
    verb = 1 + [upos for upos, _, _ in tokens].index("VERB")
    return [(u, d, verb if h == "verb" else h) for u, d, h in tokens]


def clause_tree(clause, forms, sentence_id):
    return DepTree([Token(i, f, upos=u, head=h, deprel=d)
                    for i, ((u, d, h), f) in enumerate(zip(clause, forms), start=1)],
                   sentence_id=sentence_id, comments=[f"# text = {' '.join(forms)}"])


@settings(max_examples=80, deadline=None)
@given(clause=frozen_clauses(), data=st.data(),
       keep=st.one_of(st.none(), st.integers(1, 8)),
       lm_order=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 16))
def test_one_pass_over_frozen_clauses_matches_eager_reference(clause, data, keep, lm_order,
                                                              seed):
    """Two trees of one layout and different words, scored in one pass
    over sampled orders, each keep the reference's survivors with their
    own words: the layout's memoised arrays are shared, not its words."""
    words = st.lists(st.sampled_from(FORMS), min_size=len(clause), max_size=len(clause))
    trees = [clause_tree(clause, data.draw(words), f"s{i}") for i in range(2)]
    model = MODELS[lm_order]
    (projection,) = extract_projections(trees[0], UD_MAPPING)
    m = projection.unit_count
    limit = data.draw(st.integers(1, math.factorial(m) - 1))
    batches = [permute_projection(t, p, limit=limit, mapping=UD_MAPPING, seed=seed)
               for t in trees for p in extract_projections(t, UD_MAPPING)]
    assert batches[0].positions is batches[1].positions
    assert not batches[0].positions.flags.writeable
    score_batches(batches, model)
    for tree, batch in zip(trees, batches):
        expected = ref_permute(tree, batch.projection, limit, UD_MAPPING, seed)
        ref_survivors = ref_filter(expected, model, keep if keep is not None else m)
        survivors = filter_by_perplexity(batch, k=keep).variants
        assert [(v.perm, v.positions, v.order, v.perplexity) for v in survivors] == [
            (v[2], v[3], v[1], ppl) for ppl, v in ref_survivors]
        assert [v.perplexity for v in survivors] == [
            ref_perplexity(model, v[0].forms()) for _, v in ref_survivors]
        assert [(v.tree.tokens, v.tree.comments, v.tree.sentence_id) for v in survivors] == [
            (v[0].tokens, v[0].comments, v[0].sentence_id) for _, v in ref_survivors]
        assert all(is_projective(v.tree) for v in survivors)
