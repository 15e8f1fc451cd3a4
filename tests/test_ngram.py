import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lm_counts, lm_filter, lm_from_counts, lm_perplexity, lm_prob, transitive_tree
from scrambleparse.ngram import (ARRAYS, BOS, EOS, MAGIC, UNK, NGramModel, filter_by_perplexity,
                                 score_batches, train_lm)
from scrambleparse.scramble import UD_MAPPING, extract_projections, permute_projection
from scrambleparse.serialize import save_arrays


def scoreable(model):
    return [w for w in model.vocab if w != BOS]


def test_count_dominance_bigram():
    model = train_lm([["a", "b"], ["a", "b"]], order=2)
    assert lm_prob(model, "b", ("a",)) > lm_prob(model, "a", ("a",))


def test_unigram_hand_computed_five_token_corpus():
    # Corpus "a a b b c": c is a hapax, so it also feeds the <unk> event.
    # Events: a:2 b:2 c:1 <unk>:1 </s>:1 -> N=7, T=5, |V|=5, T/|V| = 1.
    model = train_lm([["a", "a", "b", "b", "c"]], order=1)
    assert lm_prob(model, "a") == pytest.approx(3 / 12)
    assert lm_prob(model, "b") == pytest.approx(3 / 12)
    assert lm_prob(model, "c") == pytest.approx(2 / 12)
    assert lm_prob(model, UNK) == pytest.approx(2 / 12)
    assert lm_prob(model, EOS) == pytest.approx(2 / 12)
    assert lm_prob(model, "never-seen") == pytest.approx(2 / 12)


def test_normalization_random_contexts():
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    corpus = [[words[int(rng.integers(12))] for _ in range(int(rng.integers(1, 9)))]
              for _ in range(40)]
    model = train_lm(corpus, order=3)
    vocab = scoreable(model)
    for _ in range(100):
        k = int(rng.integers(0, 3))
        ctx = tuple(words[int(rng.integers(12))] for _ in range(k))
        total = sum(lm_prob(model, w, ctx) for w in vocab)
        assert abs(total - 1.0) < 1e-9


def test_uniform_model_perplexity_equals_vocab_size():
    # Equal counts for every scoreable word (including <unk> and </s>) make
    # the Witten-Bell unigram exactly uniform.
    words = ["a", "b", "c", "d", EOS, UNK]
    counts = {(): {w: 3 for w in words}}
    model = lm_from_counts(1, counts, [*words, BOS])
    empty = lm_counts(model)[()]
    assert (sum(empty.values()), len(empty)) == (18, 6)
    v = model.event_vocab_size
    assert v == 6
    for w in words:
        assert lm_prob(model, w) == pytest.approx(1 / v)
    for sentence in (["a"], ["b", "c", "d"], ["oov", "a"]):
        assert lm_perplexity(model, sentence) == pytest.approx(v)


def test_perplexity_order_sensitive():
    model = train_lm([["a", "b"]], order=2)
    assert lm_perplexity(model, ["a", "b"]) < lm_perplexity(model, ["b", "a"])


def test_perplexity_count_scaling_behaviour():
    # Witten-Bell interpolation weights are T/(c + T), so duplicating the
    # corpus shrinks the smoothing mass instead of leaving probabilities
    # untouched: exact scale invariance cannot hold. What does hold: counts
    # are order-independent, and duplication converges monotonically toward
    # the unsmoothed model.
    corpus = [["x", "y", "z"], ["x", "z"], ["y", "y", "x"]] * 2  # no hapaxes
    held_out = ["x", "y", "z"]  # every transition observed in training
    shuffled = corpus[::-1]
    assert lm_perplexity(train_lm(corpus, 2), held_out) == pytest.approx(
        lm_perplexity(train_lm(shuffled, 2), held_out), rel=1e-12)
    ppls = [lm_perplexity(train_lm(corpus * k, 2), held_out) for k in (1, 2, 4, 8, 16)]
    deltas = [abs(a - b) for a, b in zip(ppls, ppls[1:])]
    assert deltas == sorted(deltas, reverse=True)
    assert deltas[-1] < deltas[0] / 2
    assert all(p >= 1.0 for p in ppls)


def test_perplexity_at_least_one():
    model = train_lm([["a", "b", "c"]] * 3, order=2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        sent = [["a", "b", "c", "zzz"][int(rng.integers(4))]
                for _ in range(int(rng.integers(1, 6)))]
        assert lm_perplexity(model, sent) >= 1.0


def test_probabilities_in_unit_interval():
    model = train_lm([["a", "b"], ["b", "c"], ["c"]], order=3)
    for w in scoreable(model):
        for ctx in ((), ("a",), ("a", "b"), ("zzz",)):
            p = lm_prob(model, w, ctx)
            assert 0.0 < p <= 1.0


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError):
        train_lm([], order=2)
    with pytest.raises(ValueError):
        train_lm([["a"]], order=0)
    with pytest.raises(ValueError):
        train_lm([["a"]], order=6)


def test_perplexity_of_no_word_is_the_end_event_alone():
    model = train_lm([["a"]], order=1)
    assert lm_perplexity(model, []) == pytest.approx(1 / lm_prob(model, EOS))


def _figure_batch():
    tree = transitive_tree("SOV", with_io=True)
    proj = extract_projections(tree, UD_MAPPING)[0]
    return permute_projection(tree, proj, 120, mapping=UD_MAPPING, seed=42)


def _lm_for_batch():
    corpus = [["Ram", "ne", "Gopal", "ko", "kitab", "di", "."],
              ["Gopal", "ne", "kitab", "di", "."],
              ["Ram", "ne", "kitab", "di", "."]] * 2
    return train_lm(corpus, order=2)


def test_filter_keeps_k_lowest():
    batch = _figure_batch()
    model = _lm_for_batch()
    filtered = lm_filter(batch, model)
    assert len(filtered.variants) == batch.projection.unit_count == 4
    ppls = [v.perplexity for v in filtered.variants]
    assert ppls == sorted(ppls)
    # Survivors' max does not exceed any discarded variant's perplexity.
    all_ppls = sorted(lm_perplexity(model, v.tree.forms()) for v in batch.variants)
    assert max(ppls) <= all_ppls[len(ppls)]


def test_filter_with_large_k_keeps_all_sorted():
    batch = _figure_batch()
    model = _lm_for_batch()
    filtered = lm_filter(batch, model, k=1000)
    assert len(filtered.variants) == len(batch.variants)
    ppls = [v.perplexity for v in filtered.variants]
    assert ppls == sorted(ppls)


def test_filter_deterministic_under_ties():
    batch = _figure_batch()
    # Uniform model scores every permutation identically: tie-break on perm.
    words = sorted({t.form for t in batch.source.tokens}) + [EOS, UNK]
    model = lm_from_counts(1, {(): {w: 2 for w in words}}, [*words, BOS])
    f1 = lm_filter(batch, model, k=5)
    f2 = lm_filter(batch, model, k=5)
    assert [v.perm for v in f1.variants] == [v.perm for v in f2.variants]
    assert [v.perm for v in f1.variants] == sorted(v.perm for v in f1.variants)


def test_filtered_variants_carry_their_rows_perplexities():
    """The survivors are a batch of their rows: each variant is its row's
    order with its row's perplexity, built once, and the filter builds no
    variant of the batch it ranks."""
    batch = _figure_batch()
    score_batches([batch], _lm_for_batch())
    filtered = filter_by_perplexity(batch, k=3)
    assert "variants" not in vars(batch)
    first = filtered.variants
    assert filtered.variants is first
    assert len(first) == len(filtered.perms) == len(filtered.perplexities) == 3
    assert [v.perplexity for v in first] == filtered.perplexities
    by_perm = dict(zip(map(tuple, batch.perms.tolist()), batch.perplexities))
    assert [by_perm[v.perm] for v in first] == filtered.perplexities
    assert [v.perm for v in first] == list(map(tuple, filtered.perms.tolist()))
    assert [v.positions for v in first] == list(map(tuple, filtered.positions.tolist()))
    assert all(v.source is batch.source for v in first)


@pytest.mark.parametrize("order", [1, 3, 5])
def test_model_save_load_round_trip(tmp_path, order):
    model = train_lm([["a", "b", "c"], ["a", "c"]], order=order)
    path = tmp_path / "model.nglm"
    model.save(path)
    back = NGramModel.load(path)
    assert back.order == model.order
    assert back.vocab == model.vocab
    assert lm_counts(back) == lm_counts(model)
    assert all(np.array_equal(getattr(back, name), getattr(model, name)) for name in ARRAYS)
    assert not any(getattr(back, name).flags.owndata for name in ARRAYS)  # views of one buffer
    for w in scoreable(model):
        assert lm_prob(back, w, ("a",)) == lm_prob(model, w, ("a",))
    assert path.read_bytes().startswith(b"NGLM3")
    back.save(tmp_path / "again.nglm")
    assert (tmp_path / "again.nglm").read_bytes() == path.read_bytes()


def _valid_file():
    """The header and arrays of a small order-2 model."""
    model = lm_from_counts(2, {(): {"a": 2, "b": 1, UNK: 1, EOS: 2}, (BOS,): {"a": 2},
                               ("a",): {"b": 1, UNK: 1, EOS: 1}, ("b",): {EOS: 1}},
                           [BOS, EOS, UNK, "a", "b"])
    header = {"order": 2, "vocab": list(model.vocab), "meta": {}}
    return header, {name: getattr(model, name) for name in ARRAYS}


def _with(**changes):
    header, arrays = _valid_file()
    return {**header, **changes}, arrays


def _arrays_with(**changes):
    header, arrays = _valid_file()
    return header, {**arrays, **changes}


@pytest.mark.parametrize("header, arrays, fault", [
    (*_with(order=0), "order"), (*_with(order=6), "order"), (*_with(order=2.0), "order"),
    (*_with(order=True), "order"), (*_with(order=None), "order"),
    (*_with(vocab=["</s>", "<unk>", "a", "b"]), "vocab"),
    (*_with(vocab=["<s>", "<unk>", "a", "b"]), "vocab"),
    (*_with(vocab=["<s>", "</s>", "a", "b"]), "vocab"),
    (*_with(vocab=["<s>", "</s>", "<unk>", 7]), "vocab"),
    (*_with(vocab=["<s>", "</s>", "<unk>", "a", "b"]), "not sorted"),
    (*_with(vocab=["</s>", "<s>", "<s>", "<unk>", "a"]), "repeats a word"),
    (*_arrays_with(contexts=np.zeros((4, 1)) - 1), "repeated"),
    (*_arrays_with(contexts=np.zeros(4)), "order - 1"),
    (*_arrays_with(offsets=np.arange(4)), "shapes"),
    (*_arrays_with(counts=np.ones(3)), "shapes"),
    (*_arrays_with(counts=np.full(10, 2.0**53 + 2)), "count"),
    (*_arrays_with(counts=np.full(10, -1.0)), "count"),
])
def test_load_rejects_a_bad_file(tmp_path, header, arrays, fault):
    path = tmp_path / "bad.nglm"
    valid_header, valid_arrays = _valid_file()
    save_arrays(path, MAGIC, valid_header, valid_arrays.items())
    assert lm_counts(NGramModel.load(path))[(BOS,)] == {"a": 2}  # the valid file loads
    save_arrays(path, MAGIC, header, arrays.items())
    with pytest.raises(ValueError) as err:
        NGramModel.load(path)
    assert str(err.value).startswith(f"{path}: ") and fault in str(err.value)


@pytest.mark.parametrize("count, loads", [(2**53 - 1, True), (2**53, False)])
def test_load_bounds_a_context_total_plus_its_types(tmp_path, count, loads):
    """A context's total count plus its type count may reach 2**53, not
    pass it, so that summing counts in int64 and dividing in float64 are
    exact. (<s>,) has one next word: its total plus types is count + 1."""
    path = tmp_path / "big.nglm"
    header, arrays = _valid_file()
    counts = arrays["counts"].astype(float)
    assert arrays["offsets"][1:3].tolist() == [4, 5]  # (<s>,)'s run is entry 4
    counts[4] = count
    save_arrays(path, MAGIC, header, {**arrays, "counts": counts}.items())
    if loads:
        assert lm_counts(NGramModel.load(path))[(BOS,)] == {"a": count}
    else:
        with pytest.raises(ValueError, match="exceeds 2\\*\\*53"):
            NGramModel.load(path)


def test_load_rejects_a_context_whose_suffix_is_not_a_context(tmp_path):
    """An n-gram's probability is read from its longest held context suffix,
    found word by word from the newest, so each context's suffixes must be
    contexts: here (a, b) is one and (b) is not."""
    path = tmp_path / "gap.nglm"
    vocab = [EOS, BOS, UNK, "a", "b"]
    arrays = {"contexts": np.array([[-1, -1], [3, 4]]), "offsets": np.array([0, 1, 2]),
              "words": np.array([0, 0]), "counts": np.array([1, 1])}
    save_arrays(path, MAGIC, {"order": 3, "vocab": vocab, "meta": {}}, arrays.items())
    with pytest.raises(ValueError, match="without its oldest word is not a context"):
        NGramModel.load(path)


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_load_rejects_missing_and_extra_arrays(tmp_path, change):
    path = tmp_path / "arrays.nglm"
    header, arrays = _valid_file()
    if change == "missing":
        del arrays["words"]
    else:
        arrays["x"] = np.zeros(2)
    save_arrays(path, MAGIC, header, arrays.items())
    with pytest.raises(ValueError, match="arrays missing: words" if change == "missing"
                       else "holds arrays the model does not have: x"):
        NGramModel.load(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"XXXXX" + b"junk")
    with pytest.raises(ValueError, match="magic"):
        NGramModel.load(path)


# --- the recursive interpolation, as a reference --------------------------

def ref_interp(model, counts, word, context):
    if context:
        if context not in counts:
            return ref_interp(model, counts, word, context[1:])
        total, types = sum(counts[context].values()), len(counts[context])
        backoff = ref_interp(model, counts, word, context[1:])
        return (counts[context].get(word, 0) + types * backoff) / (total + types)
    total, types = sum(counts[()].values()), len(counts[()])
    uniform = 1.0 / model.event_vocab_size
    return (counts[()].get(word, 0) + types * uniform) / (total + types)


def ref_prob(model, word, context=()):
    if word not in model.vocab or word == BOS:
        word = UNK
    context = tuple(w if w in model.vocab else UNK for w in context)
    context = () if model.order == 1 else context[-(model.order - 1):]
    return ref_interp(model, LM_COUNTS[model.order], word, context)


# Literal <unk> and <s> tokens in the corpus give the model contexts that
# hold <unk> and counts for <s>, so mapping a word to <unk> changes P.
LM_WORDS = ["a", "b", "c", "d", "e", UNK, BOS]


def _random_corpus(seed):
    """30 sentences over LM_WORDS, about half with a hapax word."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(30):
        sent = [LM_WORDS[int(j)] for j in rng.integers(len(LM_WORDS), size=int(rng.integers(1, 7)))]
        if rng.random() < 0.5:
            sent.insert(int(rng.integers(len(sent) + 1)), f"h{i}")
        corpus.append(sent)
    return corpus


LM_MODELS = {order: train_lm(_random_corpus(order), order=order) for order in range(1, 6)}
LM_COUNTS = {order: lm_counts(model) for order, model in LM_MODELS.items()}
LM_TOKENS = st.sampled_from(LM_WORDS + ["h1", "zz", "yy", EOS])


@settings(max_examples=300, deadline=None)
@given(order=st.integers(1, 5), word=LM_TOKENS, context=st.lists(LM_TOKENS, max_size=7))
def test_prob_matches_recursive_reference(order, word, context):
    """Orders 1-5, OOV words and context tokens, <s> as the predicted word
    and contexts shorter and longer than order - 1, compared with ``==``."""
    model = LM_MODELS[order]
    assert lm_prob(model, word, context) == ref_prob(model, word, tuple(context))
    assert lm_prob(model, word, tuple(context)) == ref_prob(model, word, tuple(context))
