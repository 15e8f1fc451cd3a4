import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_gradients, predict_proba
from scrambleparse import nn
from scrambleparse.parser import TrainConfig


def rng_():
    return np.random.default_rng(0)


def one(layer, X, **kwargs):
    """``layer.forward`` of one (T, in) sequence as a padded batch of one:
    its (T, out) states and the cache."""
    Y, cache = layer.forward(X[:, None], [len(X)], **kwargs)
    return Y[:, 0], cache


def scalar_loss(Y, proj):
    """Deterministic scalar readout so layer outputs can be gradient-checked."""
    return float((Y * proj).sum())


class TestSoftmaxAndLoss:
    def test_zero_logits_uniform(self):
        p = nn.softmax(np.zeros((1, 7)))
        assert np.allclose(p, 1 / 7)

    def test_rows_sum_to_one(self):
        rng = rng_()
        logits = rng.normal(size=(50, 9)) * 10
        p = nn.softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert (p > 0).all()

    def test_shift_invariance_of_argmax(self):
        rng = rng_()
        z = rng.normal(size=(1, 12))
        assert np.argmax(nn.softmax(z)) == np.argmax(nn.softmax(z + 123.4))
        assert np.allclose(nn.softmax(z), nn.softmax(z + 123.4))

    def test_nll_gradient_closed_form(self):
        rng = rng_()
        logits = rng.normal(size=(4, 6))
        gold = np.array([1, 0, 5, 2])
        loss, dlogits = nn.nll_loss(logits, gold)
        probs = nn.softmax(logits)
        expect = probs.copy()
        expect[np.arange(4), gold] -= 1.0
        assert np.allclose(dlogits, expect)
        assert np.allclose(loss, -np.log(probs[np.arange(4), gold]))

    def test_nll_is_finite_where_the_gold_probability_underflows(self):
        """log-sum-exp: a gold logit 1000 below another costs 1000, not inf,
        and numpy warns of nothing; the gradient is still probs - one-hot."""
        logits = np.array([[0.0, 1000.0, -5.0], [3.0, 1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, dlogits = nn.nll_loss(logits, np.array([0, 0]))
        assert loss[0] == 1000.0
        assert loss[1] == pytest.approx(-np.log(nn.softmax(logits[1:])[0, 0]))
        expect = nn.softmax(logits)
        expect[[0, 1], [0, 0]] -= 1.0
        assert dlogits.tobytes() == expect.tobytes()


class TestDropout:
    def test_p_zero_all_ones(self):
        mlp = nn.MLP(4, 100, 3, rng_(), "m", dropout=0.0)
        _, (_, _, mask, _) = mlp.forward(rng_().normal(size=(1, 4)), training=True, rng=rng_())
        assert np.all(mask == 1.0)

    def test_inference_all_ones(self):
        mlp = nn.MLP(4, 6, 3, rng_(), "m", dropout=0.9)
        _, (_, _, mask, _) = mlp.forward(rng_().normal(size=(5, 4)), training=False)
        assert np.all(mask == 1.0)

    def test_empirical_drop_rate(self):
        p = 0.3
        mlp = nn.MLP(2, 1000, 2, rng_(), "m", dropout=p)
        _, (_, _, mask, _) = mlp.forward(rng_().normal(size=(100, 2)), training=True,
                                         rng=rng_())
        dropped = (mask == 0.0).mean()
        assert abs(dropped - p) < 0.01
        kept = mask[mask > 0]
        assert np.allclose(kept, 1.0 / (1.0 - p))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="mlp_dropout"):
            TrainConfig(mlp_dropout=1.0)


class TestMLP:
    def test_zero_weights_uniform_output(self):
        mlp = nn.MLP(5, 8, 4, rng_(), "m")
        for p in mlp.params():
            p.value[...] = 0.0
        probs = predict_proba(mlp, np.ones(5))
        assert np.allclose(probs, 0.25)

    def test_probabilities_normalized_on_random_inputs(self):
        rng = rng_()
        mlp = nn.MLP(6, 10, 5, rng, "m")
        X = rng.normal(size=(30, 6))
        probs = predict_proba(mlp, X)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs > 0).all()

    def test_gradient_check(self):
        rng = rng_()
        mlp = nn.MLP(4, 6, 3, rng, "m")
        X = rng.normal(size=(5, 4))
        gold = np.array([0, 2, 1, 1, 0])

        def loss_fn():
            logits, _ = mlp.forward(X, training=False)
            return nn.nll_loss(logits, gold)[0].sum()

        for p in mlp.params():
            p.grad[...] = 0.0
        logits, cache = mlp.forward(X, training=False)
        _, dlogits = nn.nll_loss(logits, gold)
        mlp.backward(dlogits, cache)
        assert check_gradients(loss_fn, mlp.params()) < 1e-4

    def test_input_gradient_via_linear(self):
        rng = rng_()
        lin = nn.Linear(3, 2, rng, "l")
        X = rng.normal(size=(4, 3))
        proj = rng.normal(size=(4, 2))
        Y, cache = lin.forward(X)
        dX = lin.backward(proj, cache)
        # finite differences on the input
        num = np.zeros_like(X)
        eps = 1e-6
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += eps
                Xm[i, j] -= eps
                num[i, j] = (scalar_loss(lin.forward(Xp)[0], proj)
                             - scalar_loss(lin.forward(Xm)[0], proj)) / (2 * eps)
        assert np.allclose(dX, num, atol=1e-6)


class TestLSTM:
    def test_output_shapes(self):
        rng = rng_()
        bi = nn.BiLSTM(5, 4, rng, "b")
        X = rng.normal(size=(7, 5))
        Y, _ = one(bi, X)
        assert Y.shape == (7, 8)
        Y1, _ = one(bi, X[:1])
        assert Y1.shape == (1, 8)

    def test_all_zero_parameters_give_zero_outputs(self):
        rng = rng_()
        bi = nn.BiLSTM(3, 4, rng, "b")
        for p in bi.params():
            p.value[...] = 0.0
        Y, _ = one(bi, rng.normal(size=(5, 3)))
        assert np.allclose(Y, 0.0)

    def test_direction_symmetry_with_mirrored_cells(self):
        rng = rng_()
        a = nn.BiLSTM(4, 3, rng, "a")
        b = nn.BiLSTM(4, 3, rng, "b")
        # mirror: forward cell of b <- backward cell of a and vice versa
        for src, dst in zip(a.bwd.params(), b.fwd.params()):
            dst.value[...] = src.value
        for src, dst in zip(a.fwd.params(), b.bwd.params()):
            dst.value[...] = src.value
        X = rng.normal(size=(6, 4))
        Ya, _ = one(a, X)
        Yb, _ = one(b, X[::-1])
        H = 3
        swapped = np.concatenate([Yb[::-1][:, H:], Yb[::-1][:, :H]], axis=1)
        assert np.allclose(Ya, swapped)

    def test_gradient_check_bilstm(self):
        rng = rng_()
        bi = nn.BiLSTM(3, 4, rng, "b")
        X = rng.normal(size=(5, 3))
        proj = rng.normal(size=(5, 8))

        def loss_fn():
            return scalar_loss(one(bi, X)[0], proj)

        for p in bi.params():
            p.grad[...] = 0.0
        Hs, cache = one(bi, X)
        bi.backward(proj[:, None], cache)
        assert check_gradients(loss_fn, bi.params()) < 1e-4

    def test_gradient_check_bilstm_stack_and_inputs(self):
        rng = rng_()
        stack = nn.BiLSTMStack(3, 2, 2, rng, "s")
        X = rng.normal(size=(4, 3))
        proj = rng.normal(size=(4, 4))

        def loss_fn():
            return scalar_loss(one(stack, X)[0], proj)

        for p in stack.params():
            p.grad[...] = 0.0
        Y, caches = one(stack, X)
        dX = stack.backward(proj[:, None], caches)[:, 0]
        assert check_gradients(loss_fn, stack.params()) < 1e-4
        # input gradient against finite differences
        eps = 1e-6
        num = np.zeros_like(X)
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                Xp, Xm = X.copy(), X.copy()
                Xp[i, j] += eps
                Xm[i, j] -= eps
                num[i, j] = (scalar_loss(one(stack, Xp)[0], proj)
                             - scalar_loss(one(stack, Xm)[0], proj)) / (2 * eps)
        assert np.allclose(dX, num, atol=1e-5)

    def test_reverse_cell_uses_future_context_only(self):
        rng = rng_()
        bi = nn.BiLSTM(2, 3, rng, "b")
        X = rng.normal(size=(5, 2))
        H1 = one(bi, X)[0][:, 3:]  # the reverse direction's states
        X2 = X.copy()
        X2[0] += 10.0  # changing the first position cannot affect later reverse states
        H2 = one(bi, X2)[0][:, 3:]
        assert np.allclose(H1[1:], H2[1:])
        assert not np.allclose(H1[0], H2[0])


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 8)), seed=st.integers(0, 2**16))
def test_padded_batch_forward_matches_per_sequence_forward(lengths, dims, seed):
    in_dim, hidden = dims
    rng = np.random.default_rng(seed)
    bi = nn.BiLSTM(in_dim, hidden, rng, "b")
    X = rng.normal(size=(max(lengths) + int(rng.integers(0, 3)), len(lengths), in_dim))
    Hs, cache = bi.forward(X, lengths, cache=False)
    assert cache is None and Hs.shape == X.shape[:2] + (2 * hidden,)
    for b, n in enumerate(lengths):
        ref, _ = one(bi, X[:n, b])
        assert np.allclose(Hs[:n, b], ref, rtol=1e-12, atol=1e-12)
        assert not Hs[n:, b].any()


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 8)),
       padded=st.booleans(), seed=st.integers(0, 2**16))
def test_forward_without_cache_is_bit_identical(lengths, dims, padded, seed):
    """The two-row cell-state buffer of ``cache=False`` gives the hidden
    states of the cached run, bit for bit, on a batch of one sequence or
    of several."""
    in_dim, hidden = dims
    rng = np.random.default_rng(seed)
    bi = nn.BiLSTM(in_dim, hidden, rng, "b")
    if padded:
        X, lens = rng.normal(size=(max(lengths), len(lengths), in_dim)), lengths
    else:
        X, lens = rng.normal(size=(lengths[0], 1, in_dim)), lengths[:1]
    cached, cache = bi.forward(X, lens)
    bare, none = bi.forward(X, lens, cache=False)
    assert none is None and cache is not None
    assert np.array_equal(bare, cached)


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=2, max_size=6),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 8)), seed=st.integers(0, 2**16))
def test_padded_backward_matches_per_sequence_backward(lengths, dims, seed):
    in_dim, hidden = dims
    rng = np.random.default_rng(seed)
    bi = nn.BiLSTM(in_dim, hidden, rng, "b")
    T = max(lengths) + int(rng.integers(0, 3))
    X = rng.normal(size=(T, len(lengths), in_dim))
    dHs = rng.normal(size=(T, len(lengths), 2 * hidden))
    pad = np.arange(T)[:, None] >= np.asarray(lengths)  # (T, B)

    def backward(X, dHs, lengths):
        b = copy.deepcopy(bi)
        _, cache = b.forward(X, lengths)
        return b.backward(dHs, cache), [p.grad for p in b.params()]

    dX, grads = backward(X, dHs, lengths)
    summed = [np.zeros_like(g) for g in grads]
    for b, n in enumerate(lengths):
        ref_dX, ref_grads = backward(X[:n, b:b + 1], dHs[:n, b:b + 1], [n])
        assert np.allclose(dX[:n, b], ref_dX[:, 0], rtol=1e-12, atol=1e-12)
        for total, g in zip(summed, ref_grads):
            total += g
    for g, total in zip(grads, summed):
        assert np.allclose(g, total, rtol=1e-10, atol=1e-12)
    assert not dX[pad].any()
    # Whatever the padded positions hold, they add nothing.
    X[pad] = 100.0 * rng.normal(size=X[pad].shape)
    dHs[pad] = 100.0 * rng.normal(size=dHs[pad].shape)
    dX2, grads2 = backward(X, dHs, lengths)
    assert np.array_equal(dX2, dX)
    assert all(np.array_equal(a, b) for a, b in zip(grads2, grads))


def test_padded_bilstm_final_states_match_per_sequence():
    rng = rng_()
    bi = nn.BiLSTM(3, 4, rng, "b")
    lengths = [1, 5, 3]
    X = rng.normal(size=(5, 3, 3))
    Hs, _ = bi.forward(X, lengths)
    finals = bi.final_states(Hs, lengths)
    for b, n in enumerate(lengths):
        Y, _ = one(bi, X[:n, b])
        ref = np.concatenate([Y[-1, :4], Y[0, 4:]])  # last forward, first backward state
        assert np.allclose(finals[b], ref, rtol=1e-12, atol=1e-12)


class TestOptimizer:
    def test_plain_sgd_reduction(self):
        p = nn.Param(np.array([1.0, -2.0]), "p")
        p.grad[...] = np.array([0.5, 0.5])
        opt = nn.MomentumSGD([p], lr=0.1, momentum=0.0, l2=0.0, clip_norm=math.inf)
        opt.step()
        assert np.allclose(p.value, [0.95, -2.05])

    def test_momentum_accumulates_velocity(self):
        p = nn.Param(np.zeros(1), "p")
        opt = nn.MomentumSGD([p], lr=1.0, momentum=0.5, l2=0.0, clip_norm=math.inf)
        p.grad[...] = 1.0
        opt.step()  # v = -1, theta = -1
        p.grad[...] = 1.0  # as the next backward pass writes it
        opt.step()  # v = -1.5, theta = -2.5
        assert np.allclose(p.value, [-2.5])

    def test_l2_pulls_towards_zero(self):
        p = nn.Param(np.array([10.0]), "p")
        opt = nn.MomentumSGD([p], lr=0.1, momentum=0.0, l2=0.5, clip_norm=math.inf)
        opt.step()  # grad zero, l2 only: theta -= 0.1*0.5*10
        assert np.allclose(p.value, [9.5])

    def test_clipping_rescales_large_gradients(self):
        p = nn.Param(np.zeros(4), "p")
        p.grad[...] = np.array([30.0, 0.0, 40.0, 0.0])  # norm 50
        opt = nn.MomentumSGD([p], lr=1.0, momentum=0.0, l2=0.0, clip_norm=5.0)
        opt.step()
        assert np.allclose(p.value, [-3.0, 0.0, -4.0, 0.0])

    def test_nonfinite_gradient_names_parameter(self):
        p = nn.Param(np.zeros(2), "layers.W")
        p.grad[...] = np.array([np.nan, 0.0])
        opt = nn.MomentumSGD([p], lr=0.01, momentum=0.9, l2=1e-6, clip_norm=5.0)
        with pytest.raises(FloatingPointError, match="layers.W"):
            opt.step()

    def test_memorization_loss_decreases_monotonically(self):
        rng = rng_()
        X = rng.normal(size=(20, 6))
        gold = rng.integers(0, 3, size=20)
        mlp = nn.MLP(6, 16, 3, rng, "m")
        opt = nn.MomentumSGD(mlp.params(), lr=0.01, momentum=0.9, l2=1e-6, clip_norm=5.0)
        losses = []
        for _ in range(10):
            logits, cache = mlp.forward(X, training=False)
            loss, dlogits = nn.nll_loss(logits, gold)
            losses.append(loss.sum())
            mlp.backward(dlogits, cache)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = rng_()
        stack = nn.BiLSTMStack(3, 4, 2, rng, "s")
        mlp = nn.MLP(8, 5, 3, rng, "m")
        params = stack.params() + mlp.params()
        path = tmp_path / "model.spnn"
        nn.save_checkpoint(path, params, meta={"note": "test"})
        payload = nn.load_checkpoint(path)
        assert payload["meta"]["note"] == "test"
        arrays = payload["arrays"]
        stack2 = nn.BiLSTMStack(3, 4, 2, arrays, "s")
        mlp2 = nn.MLP(8, 5, 3, arrays, "m")
        assert arrays == {}  # every array was taken
        for a, b in zip(params, stack2.params() + mlp2.params()):
            assert a.name == b.name and a.value.tobytes() == b.value.tobytes()

    def test_missing_parameter_rejected(self, tmp_path):
        p = nn.Param(np.zeros(3), "only")
        path = tmp_path / "m.spnn"
        nn.save_checkpoint(path, [p], meta={})
        with pytest.raises(ValueError, match="different"):
            nn.param(nn.load_checkpoint(path)["arrays"], "different", (3,), nn.zeros)

    def test_shape_mismatch_and_unused_arrays_rejected(self, tmp_path):
        path = tmp_path / "m.spnn"
        nn.save_checkpoint(path, [nn.Param(np.zeros((2, 3)), "a"), nn.Param(np.ones(2), "b")], {})
        with pytest.raises(ValueError, match=r"a has shape \(2, 3\), the model's is \(3, 2\)"):
            nn.param(nn.load_checkpoint(path)["arrays"], "a", (3, 2), nn.zeros)

        def only_a(meta, arrays):
            return nn.param(arrays, "a", (2, 3), nn.zeros)

        with pytest.raises(ValueError, match=f"{path}: holds arrays the model does not have: b"):
            nn.load_checkpoint(path, build=only_a)

    def test_file_is_deterministic_aligned_and_loads_as_views(self, tmp_path):
        rng = rng_()
        params = nn.MLP(7, 5, 3, rng, "m").params()
        paths = [tmp_path / "a.spnn", tmp_path / "b.spnn"]
        for path in paths:
            nn.save_checkpoint(path, params, meta={"vocab": ["é", "b"], "n": 1.5})
        data = paths[0].read_bytes()
        assert data == paths[1].read_bytes()
        assert data[:5] == b"SPNN2"
        data_start = 13 + int.from_bytes(data[5:13], "little")
        assert data_start % 8 == 0
        assert data[data_start:] == b"".join(p.value.astype("<f8").tobytes() for p in params)
        arrays = nn.load_checkpoint(paths[0])["arrays"]
        assert list(arrays) == [p.name for p in params]
        base = next(iter(arrays.values())).base
        assert all(a.base is base and a.flags.aligned for a in arrays.values())

    @pytest.mark.parametrize("entries, n_values, problem", [
        ([{"name": "a", "shape": [2], "offset": 1}], 3, "bad array entry"),  # a gap
        ([{"name": "a", "shape": [2], "offset": 0}, {"name": "a", "shape": [1], "offset": 2}],
         3, "bad array entry"),  # a name twice
        ([{"name": "a", "shape": [-2], "offset": 0}], 0, "bad array entry"),
        ([{"name": "a", "shape": [2], "offset": 0.0}], 2, "bad array entry"),
        (["a"], 0, "bad array entry"),
        ({"a": [2]}, 2, "no meta object and arrays list"),
        ([{"name": "a", "shape": [2], "offset": 0}], 3, "8 bytes after the last array"),
        ([{"name": "a", "shape": [2, 2], "offset": 0}], 3, "truncated file"),
    ])
    def test_inconsistent_header_rejected(self, tmp_path, entries, n_values, problem):
        header = json.dumps({"meta": {}, "arrays": entries}).encode()
        header += b" " * (-(13 + len(header)) % 8)
        path = tmp_path / "m.spnn"
        path.write_bytes(b"SPNN2" + len(header).to_bytes(8, "little") + header
                         + np.arange(n_values, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match=problem) as err:
            nn.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_misaligned_data_rejected(self, tmp_path):
        header = json.dumps({"meta": {}, "arrays": []}).encode()
        header += b" " * (1 - (13 + len(header)) % 8)  # one byte past a multiple of 8
        path = tmp_path / "m.spnn"
        path.write_bytes(b"SPNN2" + len(header).to_bytes(8, "little") + header)
        with pytest.raises(ValueError, match="not at a multiple of 8"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        value = np.zeros(4)
        value[2] = bad
        path = tmp_path / "m.spnn"
        nn.save_checkpoint(path, [nn.Param(np.ones(2), "ok"), nn.Param(value, "w")], {})
        with pytest.raises(ValueError, match="array w holds a non-finite value"):
            nn.load_checkpoint(path)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONG" + b"?")
        with pytest.raises(ValueError, match="magic"):
            nn.load_checkpoint(path)
