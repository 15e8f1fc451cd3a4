"""Minimal neural substrate with hand-derived gradients.

Everything is float64 and deterministic under a seeded generator:
dense layers, LSTM cells run in either direction, bidirectional
stacks, a one-hidden-layer rectifier classifier, softmax
cross-entropy, inverted dropout, and momentum SGD with L2. The
forward passes return explicit caches so layers can be reused
re-entrantly (the character encoder runs once per word).
"""

from __future__ import annotations

import numpy as np

from .serialize import load_blob, save_blob

CHECKPOINT_MAGIC = b"SPNN1"


class Param:
    """A named trainable array with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sigmoid(x, out=None):
    """Logistic function split on the sign of x, so exp never overflows.

    ``exp(-|x|)`` is ``exp(x)`` for negative x and ``exp(-x)`` otherwise,
    and the numerator is 1 or that exponential: the same arithmetic as
    ``where(x >= 0, 1/(1+z), z/(1+z))``, with the result written to
    ``out`` when given.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = np.where(x >= 0, 1.0, z)
    den = np.add(z, 1.0, out=z)
    return np.divide(num, den, out=out)


def softmax(logits):
    """Row-wise softmax; accepts a vector or a matrix."""
    z = np.atleast_2d(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p if np.ndim(logits) > 1 else p[0]


def nll_loss(logits, gold):
    """Summed negative log-likelihood and its gradient w.r.t. the logits."""
    probs = softmax(np.atleast_2d(logits))
    gold = np.atleast_1d(gold)
    rows = np.arange(len(gold))
    loss = -np.log(probs[rows, gold]).sum()
    dlogits = probs.copy()
    dlogits[rows, gold] -= 1.0
    return loss, dlogits


def dropout_mask(rng, shape, p: float, training: bool = True) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability p, 1/(1-p) otherwise."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"drop probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= p) / (1.0 - p)


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.W = Param(glorot(rng, in_dim, out_dim, (in_dim, out_dim)), f"{name}.W")
        self.b = Param(np.zeros(out_dim), f"{name}.b")

    def forward(self, X):
        Y = X @ self.W.value + self.b.value
        return Y, X

    def backward(self, dY, cache):
        X = cache
        self.W.grad += X.T @ dY
        self.b.grad += dY.sum(axis=0)
        return dY @ self.W.value.T

    def params(self):
        return [self.W, self.b]


class LSTMCell:
    """One direction of an LSTM; gate order is input, forget, output, candidate."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.in_dim = in_dim
        self.hidden = hidden
        self.Wx = Param(glorot(rng, in_dim, 4 * hidden, (in_dim, 4 * hidden)), f"{name}.Wx")
        self.Wh = Param(glorot(rng, hidden, 4 * hidden, (hidden, 4 * hidden)), f"{name}.Wh")
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0  # forget-gate bias
        self.b = Param(b, f"{name}.b")

    def run(self, X, reverse: bool = False):
        """Hidden states for every position; X is (T, in_dim)."""
        T = X.shape[0]
        H = self.hidden
        Wh = self.Wh.value
        G_in = X @ self.Wx.value + self.b.value
        gates = np.empty((T, 4 * H))
        tanh_cs = np.empty((T, H))
        # Row k of hs/cs is the state after step k-1 (forward) or step k
        # (reverse), with a zero initial state at the end the pass starts
        # from, so each step's previous state is just the neighbouring row.
        hs = np.empty((T + 1, H))
        cs = np.empty((T + 1, H))
        if reverse:
            order, prev, new = range(T - 1, -1, -1), 1, 0
            Hs, h_prevs, c_prevs = hs[:T], hs[1:], cs[1:]
            hs[T] = cs[T] = 0.0
        else:
            order, prev, new = range(T), 0, 1
            Hs, h_prevs, c_prevs = hs[1:], hs[:T], cs[:T]
            hs[0] = cs[0] = 0.0
        for t in order:
            h, c = hs[t + prev], cs[t + prev]
            z = G_in[t]
            z += h @ Wh
            gate = gates[t]
            sigmoid(z[:3 * H], out=gate[:3 * H])
            np.tanh(z[3 * H:], out=gate[3 * H:])
            c_new = np.multiply(gate[H:2 * H], c, out=cs[t + new])
            c_new += gate[:H] * gate[3 * H:]
            np.tanh(c_new, out=tanh_cs[t])
            np.multiply(gate[2 * H:3 * H], tanh_cs[t], out=hs[t + new])
        cache = (X, gates, c_prevs, h_prevs, tanh_cs, reverse)
        return Hs, cache

    def backward(self, dHs, cache):
        X, gates, c_prevs, h_prevs, tanh_cs, reverse = cache
        T = X.shape[0]
        H = self.hidden
        order = range(T) if reverse else range(T - 1, -1, -1)
        WhT = self.Wh.value.T
        sig = gates[:, :3 * H]
        one_minus_sig = 1.0 - sig
        g = gates[:, 3 * H:]
        one_minus_g2 = 1.0 - g * g
        one_minus_tc2 = 1.0 - tanh_cs * tanh_cs
        dZ = np.empty((T, 4 * H))
        dh_carry = np.zeros(H)
        dc_carry = np.zeros(H)
        for t in order:
            gate = gates[t]
            dz = dZ[t]
            dh = dh_carry
            dh += dHs[t]
            np.multiply(dh, tanh_cs[t], out=dz[2 * H:3 * H])      # do
            dc = dh * gate[2 * H:3 * H]
            dc *= one_minus_tc2[t]
            dc += dc_carry
            np.multiply(dc, gate[3 * H:], out=dz[:H])             # di
            np.multiply(dc, c_prevs[t], out=dz[H:2 * H])          # df
            np.multiply(dc, gate[:H], out=dz[3 * H:])             # dg
            dc_carry = np.multiply(dc, gate[H:2 * H], out=dc)
            dz[:3 * H] *= sig[t]
            dz[:3 * H] *= one_minus_sig[t]
            dz[3 * H:] *= one_minus_g2[t]
            dh_carry = dz @ WhT
        self.Wx.grad += X.T @ dZ
        self.Wh.grad += h_prevs.T @ dZ
        self.b.grad += dZ.sum(axis=0)
        return dZ @ self.Wx.value.T

    def params(self):
        return [self.Wx, self.Wh, self.b]


class BiLSTM:
    """Per-position concatenation of a forward and a backward LSTM pass."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.hidden = hidden
        self.fwd = LSTMCell(in_dim, hidden, rng, f"{name}.fwd")
        self.bwd = LSTMCell(in_dim, hidden, rng, f"{name}.bwd")

    def forward(self, X):
        Hf, cf = self.fwd.run(X, reverse=False)
        Hb, cb = self.bwd.run(X, reverse=True)
        return np.concatenate([Hf, Hb], axis=1), (cf, cb)

    def backward(self, dY, cache):
        cf, cb = cache
        H = self.hidden
        dX = self.fwd.backward(dY[:, :H], cf)
        dX += self.bwd.backward(dY[:, H:], cb)
        return dX

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def final_states(self, Hs):
        """Concatenated last forward / last backward hidden state."""
        return np.concatenate([Hs[-1, :self.hidden], Hs[0, self.hidden:]])


class BiLSTMStack:
    def __init__(self, in_dim: int, hidden: int, depth: int, rng, name: str):
        self.layers = []
        d = in_dim
        for k in range(depth):
            self.layers.append(BiLSTM(d, hidden, rng, f"{name}.{k}"))
            d = 2 * hidden

    def forward(self, X):
        caches = []
        for layer in self.layers:
            X, cache = layer.forward(X)
            caches.append(cache)
        return X, caches

    def backward(self, dY, caches):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dY = layer.backward(dY, cache)
        return dY

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


class MLP:
    """Single rectifier hidden layer with softmax output."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng, name: str,
                 dropout: float = 0.0):
        self.dropout = dropout
        self.lin1 = Linear(in_dim, hidden, rng, f"{name}.lin1")
        self.lin2 = Linear(hidden, out_dim, rng, f"{name}.lin2")

    def forward(self, X, training: bool = False, rng=None):
        Z1, c1 = self.lin1.forward(X)
        A = np.maximum(Z1, 0.0)
        if training and self.dropout > 0.0:
            mask = dropout_mask(rng, A.shape, self.dropout, training=True)
        else:
            mask = 1.0
        Ad = A * mask
        logits, c2 = self.lin2.forward(Ad)
        return logits, (c1, Z1, mask, c2)

    def backward(self, dlogits, cache):
        c1, Z1, mask, c2 = cache
        dAd = self.lin2.backward(dlogits, c2)
        dA = dAd * mask
        dZ1 = dA * (Z1 > 0.0)
        return self.lin1.backward(dZ1, c1)

    def predict_proba(self, x):
        logits, _ = self.forward(np.atleast_2d(x), training=False)
        p = softmax(logits)
        return p if np.ndim(x) > 1 else p[0]

    def params(self):
        return self.lin1.params() + self.lin2.params()


class MomentumSGD:
    """v <- mu*v - lr*(grad + l2*theta); theta <- theta + v.

    Gradients are rescaled to ``clip_norm`` (global L2 norm) before the
    update when they exceed it; recurrent nets need this to survive the
    occasional exploding backpropagated gradient.
    """

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.9, l2: float = 1e-6,
                 clip_norm: float | None = 5.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.l2 = l2
        self.clip_norm = clip_norm
        self.velocity = [np.zeros_like(p.value) for p in self.params]
        self._scratch = [np.empty_like(p.value) for p in self.params]

    def step(self):
        sq = 0.0
        for p, buf in zip(self.params, self._scratch):
            sq += float(np.multiply(p.grad, p.grad, out=buf).sum())
        if not np.isfinite(sq):
            # NaN or inf in some gradient, or finite ones whose squares
            # overflow; only the former is an error.
            for p in self.params:
                if not np.all(np.isfinite(p.grad)):
                    raise FloatingPointError(f"non-finite gradient in {p.name}")
        scale = 1.0
        if self.clip_norm is not None and sq > self.clip_norm ** 2:
            scale = self.clip_norm / np.sqrt(sq)
        for p, v, buf in zip(self.params, self.velocity, self._scratch):
            # buf = lr * (scale * grad + l2 * value), same rounding as written
            if scale == 1.0:
                np.multiply(p.value, self.l2, out=buf)
                buf += p.grad
            else:
                np.multiply(p.grad, scale, out=buf)
                buf += self.l2 * p.value
            buf *= self.lr
            v *= self.momentum
            v -= buf
            p.value += v

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def check_gradients(loss_fn, params, step: float = 1e-5, max_coords: int | None = None,
                    rng=None, floor: float = 1e-4) -> float:
    """Largest relative error between stored gradients and central differences.

    ``loss_fn`` must recompute the scalar loss from current parameter
    values without touching gradients; the caller fills the gradients
    beforehand. For tensors bigger than ``max_coords`` a random subset of
    coordinates is probed. The ``floor`` in the error denominator turns
    the comparison into an absolute one for near-zero coordinates, where
    central differences cannot resolve below eps*|loss|/(2*step) anyway.
    """
    worst = 0.0
    for p in params:
        flat_v = p.value.reshape(-1)
        flat_g = p.grad.reshape(-1)
        n = flat_v.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        for idx in coords:
            orig = flat_v[idx]
            flat_v[idx] = orig + step
            up = loss_fn()
            flat_v[idx] = orig - step
            down = loss_fn()
            flat_v[idx] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = flat_g[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
            worst = max(worst, err)
    return worst


def save_checkpoint(path, params, meta: dict) -> None:
    """Versioned binary checkpoint; arrays round-trip bit-exactly."""
    save_blob(path, CHECKPOINT_MAGIC, {
        "arrays": {p.name: p.value for p in params},
        "meta": meta,
    })


def load_checkpoint(path) -> dict:
    return load_blob(path, CHECKPOINT_MAGIC)


def restore_params(params, arrays: dict) -> None:
    for p in params:
        if p.name not in arrays:
            raise ValueError(f"checkpoint is missing parameter '{p.name}'")
        stored = np.asarray(arrays[p.name])
        if stored.shape != p.value.shape:
            raise ValueError(f"shape mismatch for '{p.name}': "
                             f"{stored.shape} vs {p.value.shape}")
        p.value[...] = stored
