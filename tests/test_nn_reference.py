"""The LSTM and optimizer steps against their plain reference versions.

``LSTMCell.run``, ``LSTMCell.backward`` and ``MomentumSGD.step`` write
through preallocated buffers and fused slices; the loops below are the
straightforward versions they replaced. The arithmetic is meant to be
the same, so every comparison is ``np.array_equal``, not a tolerance.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrambleparse import nn


def ref_sigmoid(x):
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))


def ref_run(cell, X, reverse=False):
    T = X.shape[0]
    H = cell.hidden
    order = range(T - 1, -1, -1) if reverse else range(T)
    G_in = X @ cell.Wx.value + cell.b.value
    Hs = np.zeros((T, H))
    gates = np.zeros((T, 4 * H))
    c_prevs = np.zeros((T, H))
    h_prevs = np.zeros((T, H))
    tanh_cs = np.zeros((T, H))
    h = np.zeros(H)
    c = np.zeros(H)
    for t in order:
        z = G_in[t] + h @ cell.Wh.value
        i = ref_sigmoid(z[:H])
        f = ref_sigmoid(z[H:2 * H])
        o = ref_sigmoid(z[2 * H:3 * H])
        g = np.tanh(z[3 * H:])
        h_prevs[t] = h
        c_prevs[t] = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, :H] = i
        gates[t, H:2 * H] = f
        gates[t, 2 * H:3 * H] = o
        gates[t, 3 * H:] = g
        tanh_cs[t] = tc
        Hs[t] = h
    return Hs, (X, gates, c_prevs, h_prevs, tanh_cs, reverse)


def ref_backward(cell, dHs, cache):
    X, gates, c_prevs, h_prevs, tanh_cs, reverse = cache
    T = X.shape[0]
    H = cell.hidden
    order = range(T) if reverse else range(T - 1, -1, -1)
    dZ = np.zeros((T, 4 * H))
    dh_carry = np.zeros(H)
    dc_carry = np.zeros(H)
    for t in order:
        i = gates[t, :H]
        f = gates[t, H:2 * H]
        o = gates[t, 2 * H:3 * H]
        g = gates[t, 3 * H:]
        tc = tanh_cs[t]
        dh = dHs[t] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prevs[t]
        dc_carry = dc * f
        dz = dZ[t]
        dz[:H] = di * i * (1.0 - i)
        dz[H:2 * H] = df * f * (1.0 - f)
        dz[2 * H:3 * H] = do * o * (1.0 - o)
        dz[3 * H:] = dg * (1.0 - g * g)
        dh_carry = dz @ cell.Wh.value.T
    cell.Wx.grad += X.T @ dZ
    cell.Wh.grad += h_prevs.T @ dZ
    cell.b.grad += dZ.sum(axis=0)
    return dZ @ cell.Wx.value.T


def ref_step(params, velocity, lr, momentum, l2, clip_norm):
    sq = 0.0
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient in {p.name}")
        sq += float((p.grad * p.grad).sum())
    scale = 1.0
    if clip_norm is not None and sq > clip_norm ** 2:
        scale = clip_norm / np.sqrt(sq)
    for p, v in zip(params, velocity):
        v *= momentum
        v -= lr * (scale * p.grad + l2 * p.value)
        p.value += v


@settings(max_examples=150, deadline=None)
@given(x=st.lists(st.floats(allow_nan=False, width=64, min_value=-800.0, max_value=800.0),
                  min_size=1, max_size=40))
def test_sigmoid_matches_reference(x):
    x = np.asarray(x)
    assert np.array_equal(nn.sigmoid(x), ref_sigmoid(x))
    out = np.empty_like(x)
    nn.sigmoid(x, out=out)
    assert np.array_equal(out, ref_sigmoid(x))


def test_sigmoid_signed_zero_and_extremes():
    x = np.array([-0.0, 0.0, -1e308, 1e308, -745.0, 745.0, np.inf, -np.inf])
    assert np.array_equal(nn.sigmoid(x), ref_sigmoid(x))


@settings(max_examples=120, deadline=None)
@given(T=st.integers(1, 12), H=st.sampled_from([1, 2, 3, 5, 8, 16, 64]),
       in_dim=st.integers(1, 6), reverse=st.booleans(),
       amp=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_lstm_cell_matches_reference(T, H, in_dim, reverse, amp, seed):
    rng = np.random.default_rng(seed)
    cell = nn.LSTMCell(in_dim, H, rng, "c")
    for p in cell.params():
        p.value *= amp
    X = amp * rng.normal(size=(T, in_dim))
    dHs = rng.normal(size=(T, H))

    Hs, cache = cell.run(X, reverse=reverse)
    Hs_ref, cache_ref = ref_run(cell, X, reverse=reverse)
    assert np.array_equal(Hs, Hs_ref)
    assert len(cache) == len(cache_ref)
    for got, want in zip(cache, cache_ref):
        assert np.array_equal(got, want)

    ref_cell = copy.deepcopy(cell)
    dX = cell.backward(dHs, cache)
    dX_ref = ref_backward(ref_cell, dHs, cache_ref)
    assert np.array_equal(dX, dX_ref)
    for p, q in zip(cell.params(), ref_cell.params()):
        assert np.array_equal(p.grad, q.grad), p.name


def _params(rng, shapes, grad_scale):
    params = []
    for k, shape in enumerate(shapes):
        p = nn.Param(rng.normal(size=shape), f"p{k}")
        p.grad[...] = grad_scale * rng.normal(size=shape)
        params.append(p)
    return params


def _assert_step_matches(params, clip_norm, lr=0.05, momentum=0.9, l2=1e-3, steps=3, rng=None):
    ref = copy.deepcopy(params)
    opt = nn.MomentumSGD(params, lr=lr, momentum=momentum, l2=l2, clip_norm=clip_norm)
    ref_velocity = [np.zeros_like(p.value) for p in ref]
    for _ in range(steps):
        grads = [p.grad.copy() for p in params]
        opt.step()
        ref_step(ref, ref_velocity, lr, momentum, l2, clip_norm)
        for p, q, v, w, g in zip(params, ref, opt.velocity, ref_velocity, grads):
            assert np.array_equal(p.value, q.value), p.name
            assert np.array_equal(v, w), p.name
            assert np.array_equal(p.grad, g), "step must not touch the gradient"
        if rng is not None:
            for p, q in zip(params, ref):
                p.grad[...] = q.grad[...] = rng.normal(size=p.grad.shape)


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4),
       clip=st.sampled_from([None, 0.5, 5.0, 1e6]), grad_scale=st.sampled_from([1e-3, 1.0, 30.0]),
       momentum=st.sampled_from([0.0, 0.9]), l2=st.sampled_from([0.0, 1e-6, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sgd_step_matches_reference(shapes, clip, grad_scale, momentum, l2, seed):
    rng = np.random.default_rng(seed)
    params = _params(rng, shapes, grad_scale)
    _assert_step_matches(params, clip, momentum=momentum, l2=l2, rng=rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_in_later_parameter_is_named(bad):
    rng = np.random.default_rng(1)
    params = _params(rng, [(3, 2), (4,), (2, 2)], 1.0)
    params[2].grad[1, 0] = bad
    before = [p.value.copy() for p in params]
    opt = nn.MomentumSGD(params)
    with pytest.raises(FloatingPointError, match="p2"):
        opt.step()
    assert all(np.array_equal(p.value, b) for p, b in zip(params, before))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("clip", [None, 5.0])
def test_overflowing_squares_update_like_reference(clip):
    rng = np.random.default_rng(2)
    params = _params(rng, [(3, 2), (4,)], 1.0)
    params[1].grad[...] = 1e200  # finite, but its square is inf
    _assert_step_matches(params, clip, steps=1)
