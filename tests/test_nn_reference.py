"""The LSTM and optimizer steps against their plain reference versions.

``BiLSTM.forward``/``backward`` run both directions in one loop over
stacked arrays, and ``MomentumSGD.step`` writes through preallocated
buffers and fused slices; the loops below are the straightforward
versions they replaced, one direction at a time. The arithmetic is meant
to be the same, so every comparison is ``np.array_equal``, not a
tolerance (``ref_step`` sums the clip norm in the optimizer's order),
and the sigmoid is compared bit pattern by bit pattern.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrambleparse import nn


def ref_sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def ref_run(cell, X, lengths, reverse=False):
    """One direction over X, a padded (T, B, in_dim) batch: past
    ``lengths[b]`` the input and forget pre-activations are -inf."""
    T = X.shape[0]
    H = cell.Wh.value.shape[0]
    order = range(T - 1, -1, -1) if reverse else range(T)
    G_in = (X.reshape(-1, X.shape[-1]) @ cell.Wx.value + cell.b.value
            ).reshape(X.shape[:-1] + (4 * H,))
    G_in[np.arange(T)[:, None] >= np.asarray(lengths), :2 * H] = -np.inf
    state = X.shape[1:-1] + (H,)
    Hs = np.zeros((T,) + state)
    gates = np.zeros(G_in.shape)
    c_prevs = np.zeros((T,) + state)
    h_prevs = np.zeros((T,) + state)
    tanh_cs = np.zeros((T,) + state)
    h = np.zeros(state)
    c = np.zeros(state)
    for t in order:
        z = G_in[t] + h @ cell.Wh.value
        i = ref_sigmoid(z[..., :H])
        f = ref_sigmoid(z[..., H:2 * H])
        o = ref_sigmoid(z[..., 2 * H:3 * H])
        g = np.tanh(z[..., 3 * H:])
        h_prevs[t] = h
        c_prevs[t] = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[t, ..., :H] = i
        gates[t, ..., H:2 * H] = f
        gates[t, ..., 2 * H:3 * H] = o
        gates[t, ..., 3 * H:] = g
        tanh_cs[t] = tc
        Hs[t] = h
    return Hs, (X, gates, c_prevs, h_prevs, tanh_cs, reverse)


def ref_backward(cell, dHs, cache):
    X, gates, c_prevs, h_prevs, tanh_cs, reverse = cache
    T = X.shape[0]
    H = cell.Wh.value.shape[0]
    order = range(T) if reverse else range(T - 1, -1, -1)
    dZ = np.zeros(gates.shape)
    dh_carry = np.zeros(tanh_cs.shape[1:])
    dc_carry = np.zeros(tanh_cs.shape[1:])
    for t in order:
        i = gates[t, ..., :H]
        f = gates[t, ..., H:2 * H]
        o = gates[t, ..., 2 * H:3 * H]
        g = gates[t, ..., 3 * H:]
        tc = tanh_cs[t]
        dh = dHs[t] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prevs[t]
        dc_carry = dc * f
        dz = dZ[t]
        dz[..., :H] = di * i * (1.0 - i)
        dz[..., H:2 * H] = df * f * (1.0 - f)
        dz[..., 2 * H:3 * H] = do * o * (1.0 - o)
        dz[..., 3 * H:] = dg * (1.0 - g * g)
        dh_carry = dz @ cell.Wh.value.T
    X = X.reshape(-1, X.shape[-1])
    dZ = dZ.reshape(-1, 4 * H)
    cell.Wx.grad += X.T @ dZ
    cell.Wh.grad += h_prevs.reshape(-1, H).T @ dZ
    cell.b.grad += dZ.sum(axis=0)
    return (dZ @ cell.Wx.value.T).reshape(dHs.shape[:-1] + (X.shape[-1],))


def ref_step(params, velocity, lr, momentum, l2, clip_norm):
    """Momentum SGD with L2 and global-norm clipping, parameter by parameter.

    The squared norm is one ``np.dot`` over the gradients concatenated in
    parameter order, the summation ``MomentumSGD.step`` does over its flat
    gradient buffer. When the squares overflow, the norm is
    ``m * sqrt(sum((g / m) ** 2))`` with m the largest |g|. The gradients
    are left as they were.
    """
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise FloatingPointError(f"non-finite gradient in {p.name}")
    g = np.concatenate([p.grad.ravel() for p in params])
    sq = float(np.dot(g, g))
    scale = 1.0
    if sq > clip_norm ** 2:
        if np.isinf(sq):
            m = np.abs(g).max()
            scale = clip_norm / m / np.sqrt(np.dot(g / m, g / m))
        else:
            scale = clip_norm / np.sqrt(sq)
    for p, v in zip(params, velocity):
        v *= momentum
        v -= lr * (scale * p.grad + l2 * p.value)
        p.value += v


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_sigmoid_bits(x):
    out = np.empty_like(x)
    assert nn.sigmoid(x, out=out) is out
    assert np.array_equal(_bits(out), _bits(ref_sigmoid(x)))


@settings(max_examples=150, deadline=None)
@given(x=st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_sigmoid_matches_reference(x):
    """Any doubles: NaN (any payload), infinities and subnormals included."""
    _assert_sigmoid_bits(np.asarray(x))


def test_sigmoid_signed_zero_nan_and_extremes():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000000, 0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    x = np.concatenate([nans, [-0.0, 0.0, -1e308, 1e308, -745.0, 745.0, -745.2, -744.5,
                               -709.0, 709.0, np.inf, -np.inf, 5e-324, -5e-324,
                               2.2e-308, -2.2e-308, 1e-17, -1e-17, -6e-17]])
    _assert_sigmoid_bits(x)


def test_sigmoid_in_place_on_masked_gates():
    """As the LSTM uses it: in place on the first three of gate-major
    (4, 2, B, H) gates, whose padded rows hold -inf input and forget
    pre-activations; and in place on a strided (2, B, 3H) slice."""
    rng = np.random.default_rng(3)
    for B, H in [(1, 64), (5, 3), (150, 32)]:
        gates = 20.0 * rng.normal(size=(4, 2, B, H))
        gates[:2, :, B // 2:] = -np.inf
        rows = 20.0 * rng.normal(size=(2, B, 4 * H))
        rows[:, B // 2:, :2 * H] = -np.inf
        for x in (gates[:3], rows[..., :3 * H]):
            want = _bits(ref_sigmoid(x))
            nn.sigmoid(x, out=x)
            assert np.array_equal(_bits(x), want)
        assert not gates[:2, :, B // 2:].any() and not rows[:, B // 2:, :2 * H].any()


@st.composite
def _bilstm_inputs(draw):
    """T, H, in_dim and amplitude; then the B = 1 padded batch that
    training encodes, or a padded batch with lengths 1..T."""
    T = draw(st.integers(1, 12))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, T), min_size=1, max_size=5))
    else:
        lengths = [T]
    return (T, draw(st.sampled_from([1, 2, 3, 5, 8, 16, 64])), draw(st.integers(1, 6)),
            draw(st.sampled_from([0.1, 1.0, 10.0])), lengths, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@given(args=_bilstm_inputs())
def test_bilstm_matches_two_reference_cells(args):
    T, H, in_dim, amp, lengths, seed = args
    rng = np.random.default_rng(seed)
    bi = nn.BiLSTM(in_dim, H, rng, "b")
    for p in bi.params():
        p.value *= amp
    X = amp * rng.normal(size=(T, len(lengths), in_dim))
    dY = rng.normal(size=(T, len(lengths), 2 * H))
    ref = copy.deepcopy(bi)

    Y, cache = bi.forward(X, lengths, cache=True)
    Hf, cf = ref_run(ref.fwd, X, lengths)
    Hb, cb = ref_run(ref.bwd, X, lengths, reverse=True)
    assert np.array_equal(Y, np.concatenate([Hf, Hb], axis=-1))
    bare, none = bi.forward(X, lengths, cache=False)
    assert none is None and np.array_equal(bare, Y)

    dX = bi.backward(dY, cache)
    dX_ref = ref_backward(ref.fwd, dY[..., :H], cf)
    dX_ref += ref_backward(ref.bwd, dY[..., H:], cb)
    assert np.array_equal(dX, dX_ref)
    for p, q in zip(bi.params(), ref.params()):
        assert np.array_equal(p.grad, q.grad), p.name


def _params(rng, shapes, grad_scale):
    params = []
    for k, shape in enumerate(shapes):
        p = nn.Param(rng.normal(size=shape), f"p{k}")
        p.grad[...] = grad_scale * rng.normal(size=shape)
        params.append(p)
    return params


def _velocity_views(opt):
    """Each parameter's slice of the optimizer's flat velocity buffer."""
    views, at = [], 0
    for p in opt.params:
        views.append(opt.velocity[at:at + p.value.size].reshape(p.value.shape))
        at += p.value.size
    return views


def _assert_step_matches(params, clip_norm, lr=0.05, momentum=0.9, l2=1e-3, steps=3, rng=None):
    ref = copy.deepcopy(params)
    opt = nn.MomentumSGD(params, lr=lr, momentum=momentum, l2=l2, clip_norm=clip_norm)
    ref_velocity = [np.zeros_like(p.value) for p in ref]
    for _ in range(steps):
        grads = [p.grad.copy() for p in params]
        opt.step()
        ref_step(ref, ref_velocity, lr, momentum, l2, clip_norm)
        for p, q, v, w, g in zip(params, ref, _velocity_views(opt), ref_velocity, grads):
            assert np.array_equal(p.value, q.value), p.name
            assert np.array_equal(v, w), p.name
            assert p.grad.tobytes() == g.tobytes(), "step leaves the gradient as it was"
        if rng is not None:
            for p, q in zip(params, ref):
                p.grad[...] = q.grad[...] = rng.normal(size=p.grad.shape)


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4),
       clip=st.sampled_from([math.inf, 0.5, 5.0, 1e6]), grad_scale=st.sampled_from([1e-3, 1.0, 30.0]),
       momentum=st.sampled_from([0.0, 0.9]), l2=st.sampled_from([0.0, 1e-6, 0.1]),
       wide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_sgd_step_matches_reference(shapes, clip, grad_scale, momentum, l2, wide, seed):
    if wide:  # a parameter that straddles the first STEP_BLOCK boundary
        shapes = shapes[:1] + [(181, 200)] + shapes[1:]
    rng = np.random.default_rng(seed)
    params = _params(rng, shapes, grad_scale)
    _assert_step_matches(params, clip, momentum=momentum, l2=l2, rng=rng)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_in_later_parameter_is_named(bad):
    rng = np.random.default_rng(1)
    params = _params(rng, [(3, 2), (4,), (2, 2)], 1.0)
    params[2].grad[1, 0] = bad
    before = [p.value.copy() for p in params]
    opt = nn.MomentumSGD(params, lr=0.01, momentum=0.9, l2=1e-6, clip_norm=5.0)
    with pytest.raises(FloatingPointError, match="p2"):
        opt.step()
    assert all(np.array_equal(p.value, b) for p, b in zip(params, before))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("clip", [math.inf, 5.0])
def test_overflowing_squares_update_like_reference(clip):
    rng = np.random.default_rng(2)
    params = _params(rng, [(3, 2), (4,)], 1.0)
    params[1].grad[...] = 1e200  # finite, but its square is inf
    before = np.concatenate([p.value.ravel() for p in params])
    lr, l2 = 0.05, 1e-3
    _assert_step_matches(params, clip, lr=lr, l2=l2, steps=1)
    if clip < math.inf:
        # The gradient is rescaled to norm clip, not dropped.
        step = np.concatenate([p.value.ravel() for p in params]) - before
        assert np.isclose(np.linalg.norm(step + lr * l2 * before), lr * clip, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_optimizer_owns_parameter_storage(shapes, seed):
    rng = np.random.default_rng(seed)
    params = _params(rng, shapes, 1.0)
    values = [p.value.copy() for p in params]
    grads = [p.grad.copy() for p in params]
    opt = nn.MomentumSGD(params, lr=0.1, momentum=0.9, l2=0.0, clip_norm=math.inf)
    for p, v, g in zip(params, values, grads):
        assert p.value.shape == v.shape and p.value.tobytes() == v.tobytes(), p.name
        assert p.grad.shape == g.shape and p.grad.tobytes() == g.tobytes(), p.name
        assert np.shares_memory(p.value, opt.values), p.name
        assert np.shares_memory(p.grad, opt.grads), p.name

    opt.grads[...] = 0.0
    assert all(not p.grad.any() for p in params)
    added = [rng.normal(size=p.value.shape) for p in params]
    for p, a in zip(params, added):
        p.grad += a
    G = np.concatenate([a.ravel() for a in added])
    before = opt.values.copy()
    opt.step()  # from zero velocity: theta - lr * g
    assert np.array_equal(opt.values, before - 0.1 * G)
    assert opt.grads.tobytes() == G.tobytes(), "step leaves the gradient as it was"
    assert all(np.array_equal(p.grad, a) for p, a in zip(params, added))

    with pytest.raises(ValueError, match="twice"):
        nn.MomentumSGD(params + params[:1], lr=0.1, momentum=0.9, l2=0.0, clip_norm=math.inf)

