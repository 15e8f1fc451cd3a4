"""Minimal neural substrate with hand-derived gradients.

Everything is float64 and deterministic under a seeded generator:
dense layers, bidirectional LSTMs and stacks of them, a one-hidden-layer
rectifier classifier, softmax cross-entropy, inverted dropout, and
momentum SGD with L2. The forward passes return explicit caches so
layers can be reused re-entrantly. A BiLSTM runs a length-masked
padded batch of sequences, for training and inference alike, and steps
its two directions together. Its arithmetic is that of two
separate one-direction cells, bit for bit, given that numpy routes each
slice of the stacked ``(2, B, H) @ (2, H, 4H)`` product to BLAS as it
routes a lone ``(B, H) @ (H, 4H)``.

Layers draw their initial parameters from a generator, or take them
from a checkpoint's arrays (``param``), which are views of the one buffer
the file was read into. Once an optimizer exists, parameters live in its
flat buffers: each ``p.value`` is a view, and rebinding it detaches the
parameter. The clip norm is one dot product over the gradient buffer;
summed parameter by parameter before, it can change only steps where
clipping engages. One optimizer ``step`` updates the parameters and
leaves the gradients as they were.

One backward pass writes each gradient once: a weight gradient is the
product written into the parameter's gradient (``out=``), a bias
gradient the sum written there, and an embedding gradient the
``segment_sum`` assigned to it. Nothing is zeroed first and nothing
accumulates across calls, so a parameter that a pass does not reach
must be zeroed by its owner. Against adding into a zeroed gradient the
only difference is that a written ``-0.0`` used to be stored as
``0.0 + (-0.0) = +0.0``. The step reads a gradient only through its
squared norm and its sum with ``l2 * theta``, so only the sign of a zero
velocity can differ, and ``theta + v`` then differs only for a ``-0.0``
parameter. No initial draw gives one, ``theta + v`` never makes one,
and one read from a vectors file is ``+0.0`` or nonzero after the first
step, whose velocity ``+0.0 - buf`` is the same either way. So the
parameters come out bit for bit the same.
"""

from __future__ import annotations

import numpy as np

from .serialize import load_arrays, save_arrays

CHECKPOINT_MAGIC = b"SPNN2"


class Param:
    """A named trainable array and its gradient, which each backward pass
    writes.

    The gradient is allocated, as zeros, the first time it is read, so a
    model that only runs inference has none.
    """

    __slots__ = ("name", "value", "_grad")

    def __init__(self, value, name: str):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, grad):
        self._grad = grad


def param(rng, name: str, shape: tuple, init) -> Param:
    """A new parameter of ``shape``, its value ``init(rng, shape)``.

    ``rng`` is the generator the value is drawn from, or a checkpoint's
    arrays by name (``load_checkpoint``). Then the array called ``name`` is
    taken out of them and becomes the value as it is, so what is left once
    a model is built is what the model does not have.
    """
    if not isinstance(rng, dict):
        return Param(init(rng, shape), name)
    value = rng.pop(name, None)
    if value is None:
        raise ValueError(f"no parameter {name}")
    if value.shape != shape:
        raise ValueError(f"parameter {name} has shape {value.shape}, the model's is {shape}")
    return Param(value, name)


def glorot(rng, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def zeros(rng, shape) -> np.ndarray:
    return np.zeros(shape)


def lstm_bias(rng, shape) -> np.ndarray:
    """Zeros, but 1 on the forget gate (the second quarter)."""
    b = np.zeros(shape)
    b[shape[0] // 4:shape[0] // 2] = 1.0
    return b


def sigmoid(x, out=None):
    """Logistic function split on the sign of x, so exp never overflows.

    ``exp(-|x|)`` is ``exp(x)`` for negative x and ``exp(-x)`` otherwise,
    and the numerator is 1 or that exponential: the 0/1 step ``x >= 0``
    raised to the exponential by ``maximum``, since the exponential is at
    most 1 and a NaN passes through. That is the arithmetic of
    ``where(x >= 0, 1/(1+z), z/(1+z))``, bit for bit, with the result
    written to ``out`` when given.
    """
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    num = np.empty(z.shape)
    np.greater_equal(x, 0.0, out=num)
    np.maximum(num, z, out=num)
    np.add(z, 1.0, out=z)
    return np.divide(num, z, out=out)


def segment_sum(rows, values, n_rows: int) -> np.ndarray:
    """The (n_rows, D) array whose row r sums the ``values[i]``, D-vectors,
    with ``rows[i] == r``, for an integer array ``rows``: the gradient of
    gathering rows ``rows``.

    One ``np.bincount`` over the flattened (row, column) keys, which adds
    each value in input order to a 0.0: bit for bit ``np.add.at`` into
    zeros, without its per-element dispatch.
    """
    dim = values.shape[-1]
    keys = rows[..., None] * dim + np.arange(dim)
    return np.bincount(keys.ravel(), weights=values.ravel(),
                       minlength=n_rows * dim).reshape(n_rows, dim)


def nll_loss(logits, gold):
    """Negative log-likelihood of the gold class of each row of ``logits``,
    one per row, and the gradient of their sum w.r.t. the logits.

    The loss is taken through log-sum-exp, ``log sum exp(z) - z[gold]``
    with ``z`` the logits less their row maximum, so it stays finite where
    the gold probability underflows to 0. The gradient is the softmax
    probabilities ``exp(z) / sum exp(z)`` less the one-hot gold.
    """
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(len(gold))
    losses = np.log(total[:, 0]) - z[rows, gold]
    dlogits = e / total
    dlogits[rows, gold] -= 1.0
    return losses, dlogits


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        self.W = param(rng, f"{name}.W", (in_dim, out_dim), glorot)
        self.b = param(rng, f"{name}.b", (out_dim,), zeros)

    def forward(self, X):
        Y = X @ self.W.value + self.b.value
        return Y, X

    def backward(self, dY, cache):
        X = cache
        np.matmul(X.T, dY, out=self.W.grad)
        np.sum(dY, axis=0, out=self.b.grad)
        return dY @ self.W.value.T

    def params(self):
        return [self.W, self.b]


class LSTMCell:
    """One direction's parameters; gate order is input, forget, output,
    candidate. ``BiLSTM`` runs its two cells together."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.Wx = param(rng, f"{name}.Wx", (in_dim, 4 * hidden), glorot)
        self.Wh = param(rng, f"{name}.Wh", (hidden, 4 * hidden), glorot)
        self.b = param(rng, f"{name}.b", (4 * hidden,), lstm_bias)

    def params(self):
        return [self.Wx, self.Wh, self.b]


class BiLSTM:
    """Per-position concatenation of a forward and a backward LSTM pass.

    Both directions run in one loop over stacked arrays: step k is time k
    of the forward cell and time T-1-k of the reverse one, so every
    per-step array has a direction axis, the recurrent product is one
    ``(2, B, H) @ (2, H, 4H)`` matmul, and each elementwise op runs once
    for both. Gates are stored gate-major, (T, 4, 2, B, H), so that one
    gate of both directions is one contiguous block. The input
    projections and the weight gradients are still one gemm per
    direction, in time order.
    """

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.hidden = hidden
        self.fwd = LSTMCell(in_dim, hidden, rng, f"{name}.fwd")
        self.bwd = LSTMCell(in_dim, hidden, rng, f"{name}.bwd")

    def forward(self, X, lengths, cache: bool = True):
        """Hidden states ``[forward; backward]`` for every position, (T, B,
        2H), and the cache for ``backward``.

        X is a padded batch (T, B, in_dim), and ``lengths`` gives each
        sequence's true length. Past that length a sequence's
        input and forget gates are 0 (their pre-activations are -inf), so
        its state there is zero: the reverse pass starts each sequence from
        a zero state at its own last position, and padded positions come
        out zero. The cached zero gates have zero derivative, which stops
        ``backward`` there. With ``cache=False`` no per-step state outlives
        the call, and the cell states and their tanh, which only
        ``backward`` reads, take two rows and one instead of one per step.
        """
        H = self.hidden
        T, B = X.shape[:2]
        gates = np.empty((T, 4, 2, B, H))
        # Each projection stays an unnamed temporary, freed once added in:
        # kept alive through the loop it raised parse's resident heap.
        for cell, in_time_order in ((self.fwd, gates[:, :, 0]), (self.bwd, gates[::-1, :, 1])):
            np.add((X.reshape(T * B, -1) @ cell.Wx.value).reshape(T, B, 4, H)
                   .transpose(0, 2, 1, 3), cell.b.value.reshape(4, 1, H), out=in_time_order)
        pad = np.arange(T)[:, None] >= np.asarray(lengths)  # (T, B)
        gates.transpose(0, 2, 3, 1, 4)[np.stack([pad, pad[::-1]], axis=1), :2] = -np.inf
        Wh = np.stack([self.fwd.Wh.value, self.bwd.Wh.value])
        # Row k of hs/cs is the state before step k, so each step's previous
        # state is the row above. Without a cache, cs keeps rows k mod 2 and
        # tanh_cs one row.
        c_rows, tc_rows = (T + 1, T) if cache else (2, 1)
        hs = np.empty((T + 1, 2, B, H))
        cs = np.empty((c_rows, 2, B, H))
        tanh_cs = np.empty((tc_rows, 2, B, H))
        hs[0] = cs[0] = 0.0
        for k in range(T):
            gate = gates[k]
            gate += np.matmul(hs[k], Wh).reshape(2, B, 4, H).transpose(2, 0, 1, 3)
            sigmoid(gate[:3], out=gate[:3])
            np.tanh(gate[3], out=gate[3])
            c_new = np.multiply(gate[1], cs[k % c_rows], out=cs[(k + 1) % c_rows])
            c_new += gate[0] * gate[3]
            tanh_c = np.tanh(c_new, out=tanh_cs[k % tc_rows])
            np.multiply(gate[2], tanh_c, out=hs[k + 1])
        Y = np.empty((T, B, 2 * H))
        Y[..., :H] = hs[1:, 0]
        Y[..., H:] = hs[:0:-1, 1]
        if not cache:
            return Y, None
        return Y, (X, gates, cs[:T], hs[:T], tanh_cs)

    def backward(self, dY, cache):
        X, gates, c_prevs, h_prevs, tanh_cs = cache
        T, B = X.shape[:2]
        H = self.hidden
        dHs = np.empty((T, 2, B, H))  # in step order, as the cache
        dHs[:, 0] = dY[..., :H]
        dHs[:, 1] = dY[::-1, :, H:]
        WhT = np.stack([self.fwd.Wh.value, self.bwd.Wh.value]).transpose(0, 2, 1)
        sig = gates[:, :3]
        one_minus_sig = 1.0 - sig
        g = gates[:, 3]
        one_minus_g2 = 1.0 - g * g
        one_minus_tc2 = 1.0 - tanh_cs * tanh_cs
        dZ = np.empty(gates.shape)
        dh_carry = np.zeros((2, B, H))
        dc_carry = np.zeros((2, B, H))
        for k in range(T - 1, -1, -1):
            gate = gates[k]
            dz = dZ[k]
            dh = dh_carry
            dh += dHs[k]
            np.multiply(dh, tanh_cs[k], out=dz[2])     # do
            dc = dh * gate[2]
            dc *= one_minus_tc2[k]
            dc += dc_carry
            np.multiply(dc, gate[3], out=dz[0])        # di
            np.multiply(dc, c_prevs[k], out=dz[1])     # df
            np.multiply(dc, gate[0], out=dz[3])        # dg
            dc_carry = np.multiply(dc, gate[1], out=dc)
            dz[:3] *= sig[k]
            dz[:3] *= one_minus_sig[k]
            dz[3] *= one_minus_g2[k]
            # Contiguous (2, B, 4H), so each slice goes to BLAS as a lone (B, 4H) @ (4H, H).
            dz = np.ascontiguousarray(dz.transpose(1, 2, 0, 3)).reshape(2, B, 4 * H)
            dh_carry = np.matmul(dz, WhT)
        in_dim = X.shape[-1]
        X = X.reshape(T * B, in_dim)
        dXs = []
        for cell, d, time in ((self.fwd, 0, slice(None)), (self.bwd, 1, slice(None, None, -1))):
            dz = np.ascontiguousarray(dZ[time, :, d].transpose(0, 2, 1, 3)).reshape(T * B, 4 * H)
            h_prev = np.ascontiguousarray(h_prevs[time, d]).reshape(T * B, H)
            np.matmul(X.T, dz, out=cell.Wx.grad)
            np.matmul(h_prev.T, dz, out=cell.Wh.grad)
            np.sum(dz, axis=0, out=cell.b.grad)
            dXs.append(dz @ cell.Wx.value.T)
        dX, dX_reverse = dXs
        dX += dX_reverse
        return dX.reshape(T, B, in_dim)

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def final_states(self, Hs, lengths):
        """One row per sequence of a padded (T, B, 2H) batch: its forward
        state at its own last position, then its backward state at the first."""
        H = self.hidden
        last = Hs[np.asarray(lengths) - 1, np.arange(Hs.shape[1]), :H]
        return np.concatenate([last, Hs[0, :, H:]], axis=1)


class BiLSTMStack:
    def __init__(self, in_dim: int, hidden: int, depth: int, rng, name: str):
        self.layers = []
        d = in_dim
        for k in range(depth):
            self.layers.append(BiLSTM(d, hidden, rng, f"{name}.{k}"))
            d = 2 * hidden

    def forward(self, X, lengths, cache: bool = True):
        caches = []
        for layer in self.layers:
            X, layer_cache = layer.forward(X, lengths, cache=cache)
            caches.append(layer_cache)
        return X, caches

    def backward(self, dY, caches):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dY = layer.backward(dY, cache)
        return dY

    def params(self):
        return [p for layer in self.layers for p in layer.params()]


class MLP:
    """One rectifier hidden layer over K slots of D-wide context rows, then
    a linear output layer (``nll_loss`` is its softmax cross-entropy).

    A classifier row reads one context row per slot; its hidden layer is
    their concatenation times ``W1`` (K * D, H), plus ``b1``, taken slot by
    slot (Chen & Manning 2014): ``table`` applies each slot's D-row block
    of ``W1`` to every context row once, and ``forward`` sums one table
    row per slot.
    """

    def __init__(self, slots: int, dim: int, hidden: int, out_dim: int, rng, name: str,
                 dropout: float):
        self.slots = slots
        self.dropout = dropout
        self.W1 = param(rng, f"{name}.lin1.W", (slots * dim, hidden), glorot)
        self.b1 = param(rng, f"{name}.lin1.b", (hidden,), zeros)
        self.lin2 = Linear(hidden, out_dim, rng, f"{name}.lin2")

    def _blocks(self):  # W1 as its K slot blocks, (K, D, H)
        return self.W1.value.reshape(self.slots, -1, self.W1.value.shape[1])

    def table(self, rows):
        """The (K, N + 1, H) slot table of N context rows: ``table[k, r]`` is
        ``rows[r]`` times slot k's block of ``W1``, and ``table[k, N]`` is
        zero, the row of an absent node. One broadcast matmul, which
        numpy runs as one gemm per slot."""
        blocks = self._blocks()
        table = np.empty((self.slots, len(rows) + 1, blocks.shape[2]))
        np.matmul(rows, blocks, out=table[:, :-1])
        table[:, -1] = 0.0
        return table

    def forward(self, idx, table, training: bool = False, rng=None):
        """Logits for each row of ``idx`` and the cache for ``backward``.

        ``idx`` is (rows, K): per slot, the context row of ``table`` that
        the classifier row reads, -1 for an absent node.
        """
        K, n_rows, H = table.shape
        node = np.where(idx < 0, n_rows - 1, idx)
        Z1 = table.reshape(K * n_rows, H)[node + np.arange(K) * n_rows].sum(axis=1)
        Z1 += self.b1.value
        A = np.maximum(Z1, 0.0)
        mask = 1.0
        if training and self.dropout > 0.0:  # inverted dropout: keep with 1 - p, scaled up
            mask = (rng.random(A.shape) >= self.dropout) / (1.0 - self.dropout)
            A *= mask
        logits, c2 = self.lin2.forward(A)
        return logits, (node, Z1, mask, c2)

    def backward(self, dlogits, cache, rows):
        """Write the parameter gradients given d(logits), and return d(rows)
        for the ``rows`` whose table the forward pass read.

        Each classifier row's first-layer gradient reaches one table row
        per slot, and ``segment_sum`` adds them up into the table's
        gradient dT, one call per slot: each reads ``dZ1`` as it is, where
        one call over all slots would first copy it K times. Then ``W1``'s
        block k gets ``rows.T @ dT[k]``, and d(rows) is the sum over k of
        ``dT[k] @ block_k.T``.
        """
        node, Z1, mask, c2 = cache
        dA = self.lin2.backward(dlogits, c2)
        dZ1 = dA * mask
        dZ1 *= Z1 > 0.0
        np.sum(dZ1, axis=0, out=self.b1.grad)
        blocks = self._blocks()
        K, D, H = blocks.shape
        n = len(rows)
        dT = np.empty((K, n, H))
        for k in range(K):
            dT[k] = segment_sum(node[:, k], dZ1, n + 1)[:n]
        np.matmul(rows.T, dT, out=self.W1.grad.reshape(K, D, H))
        return np.matmul(dT, blocks.transpose(0, 2, 1)).sum(axis=0)

    def params(self):
        return [self.W1, self.b1] + self.lin2.params()


# Elements per optimizer update block: its four arrays stay in L2 for six passes.
STEP_BLOCK = 32_768


class MomentumSGD:
    """v <- mu*v - lr*(grad + l2*theta); theta <- theta + v.

    Gradients are rescaled to ``clip_norm`` (global L2 norm) before the
    update when they exceed it; recurrent nets need this to survive the
    occasional exploding backpropagated gradient. ``values``, ``grads``
    and ``velocity`` are flat buffers in parameter order. One ``step``
    updates the parameters block by block, while each block is in cache,
    and leaves the gradients as they were: the next backward pass writes
    every one of them (see the module docstring for why a written
    ``-0.0`` leaves the parameters unchanged).
    """

    def __init__(self, params, lr: float, momentum: float, l2: float, clip_norm: float):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is passed to the optimizer twice")
        self.lr = lr
        self.momentum = momentum
        self.l2 = l2
        self.clip_norm = clip_norm
        n = sum(p.value.size for p in self.params)
        self.values, self.grads, self.velocity = np.empty(n), np.zeros(n), np.zeros(n)
        at = 0
        for p in self.params:
            value, grad = (b[at:at + p.value.size].reshape(p.value.shape)
                           for b in (self.values, self.grads))
            value[...] = p.value
            if p._grad is not None:  # reading p.grad would allocate zeros to copy
                grad[...] = p._grad
            p.value, p.grad, at = value, grad, at + p.value.size
        self._scratch = np.empty(min(n, STEP_BLOCK))

    def step(self):
        g = self.grads
        sq = float(np.dot(g, g))
        if not np.isfinite(sq):
            # NaN or inf in some gradient, or finite ones whose squares
            # overflow; only the former is an error.
            for p in self.params:
                if not np.all(np.isfinite(p.grad)):
                    raise FloatingPointError(f"non-finite gradient in {p.name}")
        scale = 1.0
        if sq > self.clip_norm ** 2:
            if np.isinf(sq):  # squares overflowed: norm = m * sqrt(sum((g/m)^2)), m = max |g|
                m = np.abs(g).max()
                scale = self.clip_norm / m / np.sqrt(np.dot(g / m, g / m))
            else:
                scale = self.clip_norm / np.sqrt(sq)
        for lo in range(0, g.size, STEP_BLOCK):
            block = slice(lo, lo + STEP_BLOCK)
            theta, v, grad = self.values[block], self.velocity[block], g[block]
            buf = self._scratch[:theta.size]
            # buf = lr * (scale * grad + l2 * value), same rounding as written
            if scale == 1.0:
                np.multiply(theta, self.l2, out=buf)
                buf += grad
            else:
                np.multiply(grad, scale, out=buf)
                buf += self.l2 * theta
            buf *= self.lr
            v *= self.momentum
            v -= buf
            theta += v


def save_checkpoint(path, params, meta: dict) -> None:
    """Versioned binary checkpoint (``serialize``); arrays round-trip
    bit-exactly, and ``meta`` must be JSON."""
    save_arrays(path, CHECKPOINT_MAGIC, meta, [(p.name, p.value) for p in params])


def load_checkpoint(path, build=None):
    """``{"meta": ..., "arrays": {name: array}}``, the arrays views of one
    buffer holding the file; with ``build``, ``build(meta, arrays)``,
    which builds its parameters with ``param(arrays, ...)`` and must use
    every array (``serialize.load_arrays``)."""
    return load_arrays(path, CHECKPOINT_MAGIC, build)
