"""The per-example, per-timestep reference path the batched engine replaced.

Every function here builds its graph one example and one timestep (or one
convolution window) at a time from small tensor ops, exactly as the engine
did before ``lstm_scan``, the masked ``max_over_time`` and ``unfold``
existed.  Tests run the batched model and this oracle on the same parameters
and require equal logits and gradients.  The ops that only this path needs
(``matvec``, ``narrow``, ``take_row``, ``stack_rows``) live here too, as do
the whole-array Adam step and gradient clipping that the blocked, skipping
ones in ``train`` must match byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from emoconv import layers as L
from emoconv import tensor as T
from emoconv import train as tr

# ---------------------------------------------------------------------------
# Ops used only by the per-example path


def matvec(w: T.Tensor, x: T.Tensor) -> T.Tensor:
    """w [m x k] times x [k] -> [m]."""
    wv, xv = w.values, x.values

    def backward_fn(g):
        return np.outer(g, xv), wv.T @ g

    return T.from_op(wv @ xv, "matvec", (w, x), backward_fn)


def narrow(a: T.Tensor, axis: int, start: int, length: int) -> T.Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    slicer = [slice(None)] * a.values.ndim
    slicer[axis] = slice(start, start + length)
    slicer = tuple(slicer)
    full_shape = a.shape

    def backward_fn(g):
        z = np.zeros(full_shape)
        z[slicer] = g
        return (z,)

    return T.from_op(a.values[slicer], "narrow", (a,), backward_fn)


def take_row(a: T.Tensor, index: int) -> T.Tensor:
    full_shape = a.shape

    def backward_fn(g):
        z = np.zeros(full_shape)
        z[index] = g
        return (z,)

    return T.from_op(a.values[index], "take_row", (a,), backward_fn)


def stack_rows(rows) -> T.Tensor:
    def backward_fn(g):
        return tuple(g[i] for i in range(len(rows)))

    return T.from_op(np.stack([r.values for r in rows]), "stack_rows",
                     tuple(rows), backward_fn)


def max_rows(seq: T.Tensor, valid_length: int) -> T.Tensor:
    """Columnwise max over the first ``valid_length`` rows of a matrix."""
    window = seq.values[:valid_length]
    argmax = np.argmax(window, axis=0)
    cols = np.arange(seq.shape[1])
    full_shape = seq.shape

    def backward_fn(g):
        z = np.zeros(full_shape)
        z[argmax, cols] = g
        return (z,)

    return T.from_op(window[argmax, cols], "max_rows", (seq,), backward_fn)


def linear(weight: T.Tensor, bias: T.Tensor, x: T.Tensor) -> T.Tensor:
    return T.add(matvec(weight, x), bias)


def embedding_rows(table: L.EmbeddingMatrix, ids) -> T.Tensor:
    """One example's rows, with a dense table-sized gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    values = table.table.values[ids]
    if table.frozen:
        return T.constant(values)
    shape = table.table.shape

    def backward_fn(g):
        z = np.zeros(shape)
        np.add.at(z, ids, g)
        return (z,)

    return T.from_op(values.copy(), "embedding_rows", (table.table,), backward_fn)


# ---------------------------------------------------------------------------
# Layers, one example and one step at a time


def lstm_step(direction: L.LstmDirection, x_t, h_prev, c_prev):
    """pre = W x + U h + b; c = f*c_prev + i*g; h = o*tanh(c)."""
    h = direction.hidden_size
    pre = T.add(T.add(matvec(direction.w, x_t), matvec(direction.u, h_prev)),
                direction.b)
    i = T.sigmoid(narrow(pre, 0, 0, h))
    f = T.sigmoid(narrow(pre, 0, h, h))
    g = T.tanh(narrow(pre, 0, 2 * h, h))
    o = T.sigmoid(narrow(pre, 0, 3 * h, h))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    return T.mul(o, T.tanh(c)), c


def scan(direction: L.LstmDirection, steps):
    h = T.constant(np.zeros(direction.hidden_size))
    c = T.constant(np.zeros(direction.hidden_size))
    out = []
    for x_t in steps:
        h, c = lstm_step(direction, x_t, h, c)
        out.append(h)
    return out


def bilstm_encode(layers, seq: T.Tensor, valid_length: int) -> T.Tensor:
    """[n x input] -> [valid_length x 2*hidden], no dropout."""
    steps = [take_row(seq, t) for t in range(valid_length)]
    out = None
    for layer in layers:
        h_fwd = scan(layer.fwd, steps)
        h_bwd = scan(layer.bwd, steps[::-1])[::-1]
        out = stack_rows([T.concat([f, b], axis=0) for f, b in zip(h_fwd, h_bwd)])
        steps = [take_row(out, t) for t in range(valid_length)]
    return out


def conv1d_over_time(bank: L.ConvFilterBank, seq: T.Tensor, valid_length: int) -> T.Tensor:
    """One affine map per window, then a max over windows, per kernel size."""
    pooled = []
    for k, w, b in zip(bank.kernel_sizes, bank.weights, bank.biases):
        if valid_length >= k:
            windows = [T.reshape(narrow(seq, 0, t, k), (k * bank.dim,))
                       for t in range(valid_length - k + 1)]
        else:
            pad = T.constant(np.zeros((k - valid_length, bank.dim)))
            short = T.concat([narrow(seq, 0, 0, valid_length), pad], axis=0)
            windows = [T.reshape(short, (k * bank.dim,))]
        activ = T.relu(T.linear_rows(stack_rows(windows), w, b))
        pooled.append(max_rows(activ, len(windows)))
    return T.concat(pooled, axis=0)


# ---------------------------------------------------------------------------
# Models, one example at a time, dropout off


def rcnn_logits(params, batch) -> T.Tensor:
    """[b x 4] logits of ``rcnn.forward`` in eval mode."""
    rows = []
    for i in range(len(batch)):
        n = int(batch.valid_lengths[i])
        emb = embedding_rows(params.embedding, batch.ids[i, :n])
        enc = bilstm_encode(params.bilstm, emb, n)
        proj = T.linear_rows(T.concat([enc, emb], axis=1), params.proj_w, params.proj_b)
        if params.projection_tanh:
            proj = T.tanh(proj)
        fused = max_rows(proj, n)
        if params.sentence_dim > 0:
            fused = T.concat([fused, T.constant(batch.sentence_vectors[i])], axis=0)
        rows.append(linear(params.out_w, params.out_b, fused))
    return stack_rows(rows)


def finetune_probs(model, rows) -> T.Tensor:
    """[b] probabilities of ``finetune.forward_finetune`` in eval mode."""
    out = []
    for ids in rows:
        seq = embedding_rows(model.emb, ids)
        pooled = conv1d_over_time(model.bank, seq, len(ids))
        out.append(T.sigmoid(linear(model.out_w, model.out_b, pooled)))
    return T.concat(out, axis=0)


# ---------------------------------------------------------------------------
# Optimizer, one whole-array pass per operation over every parameter


def clip_gradients(named_params, max_norm: float) -> float:
    sq = 0.0
    for name, t in named_params.items():
        g = T.grad_of(t)
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += float((g * g).sum())
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for t in named_params.values():
        if t.grad is not None:
            t.grad *= factor
    return factor


def adam_step(state, named_params, lr: float) -> None:
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - tr.ADAM_BETA1 ** state.t
    bc2 = 1.0 - tr.ADAM_BETA2 ** state.t
    for name, p in named_params.items():
        g = T.grad_of(p)
        m = state.m[name]
        v = state.v[name]
        m *= tr.ADAM_BETA1
        m += (1.0 - tr.ADAM_BETA1) * g
        v *= tr.ADAM_BETA2
        v += (1.0 - tr.ADAM_BETA2) * g * g
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)
