"""The per-example, per-timestep reference path the batched engine replaced.

Every function here builds its graph one example and one timestep (or one
convolution window) at a time from small tensor ops, exactly as the engine
did before ``lstm_scan``, the masked ``max_over_time`` and ``unfold``
existed.  Tests run the batched model and this oracle on the same parameters
and require equal logits and gradients.  The ops that only this path needs
(``matvec``, ``narrow``, ``take_row``, ``stack_rows``) live here too, as do
the generic elementwise and shape ops (``add``, ``mul``, ``log``,
``sum_all`` and the rest) that tests use as probes, the chains of them that
each loss node must match byte for byte, the whole-array Adam step and
gradient clipping that the blocked, skipping, row-sparse ones in ``train``
must match byte for byte, the recurrence
step whose product ``layers.lstm_step`` must match byte for byte at the
paper's hidden size, and the per-turn text preparation (a Python loop per
character, then four regex calls per turn) whose tokens the chunked
tokenizer core of ``textprep`` must reproduce exactly.
"""

from __future__ import annotations

import math
import re
import unicodedata

import numpy as np

from emoconv import layers as L
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.textprep import EOS_TOKEN, TokenSequence

# ---------------------------------------------------------------------------
# Generic elementwise and shape ops: two tensors of exactly the same shape,
# no Python numbers, no size-1 broadcasting


def _binary(op: str, a: T.Tensor, b: T.Tensor, fwd, grad_a, grad_b) -> T.Tensor:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} differ")
    av, bv = a.values, b.values

    def backward_fn(g):
        return grad_a(g, av, bv), grad_b(g, av, bv)

    return T.from_op(fwd(av, bv), op, (a, b), backward_fn)


def add(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    return _binary("add", a, b,
                   lambda x, y: x + y,
                   lambda g, x, y: g,
                   lambda g, x, y: g)


def sub(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    return _binary("sub", a, b,
                   lambda x, y: x - y,
                   lambda g, x, y: g,
                   lambda g, x, y: -g)


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    return _binary("mul", a, b,
                   lambda x, y: x * y,
                   lambda g, x, y: g * y,
                   lambda g, x, y: g * x)


def scale(a: T.Tensor, s: float) -> T.Tensor:
    s = float(s)

    def backward_fn(g):
        return (g * s,)

    return T.from_op(a.values * s, "scale", (a,), backward_fn)


def sigmoid(a: T.Tensor) -> T.Tensor:
    out = T.sigmoid_(a.values.copy())

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return T.from_op(out, "sigmoid", (a,), backward_fn)


def log(a: T.Tensor) -> T.Tensor:
    v = a.values
    bad = np.flatnonzero(v.reshape(-1) <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"log of non-positive value {v.reshape(-1)[i]} at flat index {i}")

    def backward_fn(g):
        return (g / v,)

    return T.from_op(np.log(v), "log", (a,), backward_fn)


def clamp_min(a: T.Tensor, floor: float) -> T.Tensor:
    v = a.values
    floor = float(floor)

    def backward_fn(g):
        return (g * (v > floor),)

    return T.from_op(np.maximum(v, floor), "clamp_min", (a,), backward_fn)


def reshape(a: T.Tensor, shape) -> T.Tensor:
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != a.size:
        raise ValueError(f"cannot reshape {a.shape} ({a.size} values) to {shape}")
    old = a.shape

    def backward_fn(g):
        return (g.reshape(old),)

    return T.from_op(a.values.reshape(shape), "reshape", (a,), backward_fn)


def take_per_row(a: T.Tensor, columns) -> T.Tensor:
    """Pick one entry per row: out[i] = a[i, columns[i]]."""
    if a.values.ndim != 2:
        raise ValueError(f"take_per_row needs a 2-d tensor, got shape {a.shape}")
    cols = np.asarray(columns, dtype=np.int64)
    n, c = a.shape
    if cols.shape != (n,):
        raise ValueError(f"need one column index per row: {cols.shape} vs {n} rows")
    if cols.min(initial=0) < 0 or cols.max(initial=0) >= c:
        raise ValueError(f"column index out of range [0, {c}) in {cols.tolist()}")
    rows = np.arange(n)
    full_shape = a.shape

    def backward_fn(g):
        z = np.zeros(full_shape)
        z[rows, cols] = g
        return (z,)

    return T.from_op(a.values[rows, cols], "take_per_row", (a,), backward_fn)


def sum_all(a: T.Tensor) -> T.Tensor:
    shape = a.shape

    def backward_fn(g):
        return (np.broadcast_to(g, shape),)

    return T.from_op(np.asarray(a.values.sum()), "sum_all", (a,), backward_fn)


# ---------------------------------------------------------------------------
# The losses as chains of generic ops, and the fine-tuning CNN's output


def weighted_cross_entropy_chain(probabilities: T.Tensor, labels, weights) -> T.Tensor:
    """``train.weighted_cross_entropy`` as six nodes: pick, floor, log,
    weight, sum, scale."""
    labels = np.asarray(labels, dtype=np.int64)
    picked = take_per_row(probabilities, labels)
    logs = log(clamp_min(picked, tr.LOG_FLOOR))
    weighted = mul(logs, T.constant(weights.weights[labels]))
    return scale(sum_all(weighted), -1.0 / labels.size)


def binary_cross_entropy_chain(probs: T.Tensor, labels) -> T.Tensor:
    """``finetune.binary_cross_entropy`` as ten nodes."""
    labels = np.asarray(labels, dtype=np.float64)
    pos = mul(log(clamp_min(probs, tr.LOG_FLOOR)), T.constant(labels))
    anti = sub(T.constant(np.ones_like(labels)), probs)
    neg = mul(log(clamp_min(anti, tr.LOG_FLOOR)), T.constant(1.0 - labels))
    return scale(sum_all(add(pos, neg)), -1.0 / labels.size)


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
    return add(matvec(weight, x), bias)


def embedding_rows(table: L.EmbeddingMatrix, ids) -> T.Tensor:
    """One example's rows, with a dense table-sized gradient; a frozen
    table (``requires_grad`` False) records no graph."""
    ids = np.asarray(ids, dtype=np.int64)
    values = table.table.values[ids]
    shape = table.table.shape

    def backward_fn(g):
        z = np.zeros(shape)
        np.add.at(z, ids, g)
        return (z,)

    return T.from_op(values.copy(), "embedding_rows", (table.table,), backward_fn)


# ---------------------------------------------------------------------------
# Layers, one example and one step at a time


def lstm_step(direction, x_t, h_prev, c_prev):
    """pre = W x + U h + b; c = f*c_prev + i*g; h = o*tanh(c), for one
    direction's (W, U, b)."""
    w, u, b = direction
    h = u.shape[1]
    pre = add(add(matvec(w, x_t), matvec(u, h_prev)), b)
    i = sigmoid(narrow(pre, 0, 0, h))
    f = sigmoid(narrow(pre, 0, h, h))
    g = T.tanh(narrow(pre, 0, 2 * h, h))
    o = sigmoid(narrow(pre, 0, 3 * h, h))
    c = add(mul(f, c_prev), mul(i, g))
    return mul(o, T.tanh(c)), c


_LAYERS_LSTM_STEP = L.lstm_step  # bound at import: tests patch L.lstm_step with the one below


def packed_lstm_step(gates, h_prev, c_prev, u, ut):
    """``layers.lstm_step`` with every step's recurrent product taken against
    the transposed view ``u.T``, as ``lstm_scan`` did before it kept a
    contiguous U^T."""
    return _LAYERS_LSTM_STEP(gates, h_prev, c_prev, u, u.T)


def scan(direction, steps):
    h = T.constant(np.zeros(direction[1].shape[1]))
    c = T.constant(np.zeros(direction[1].shape[1]))
    out = []
    for x_t in steps:
        h, c = lstm_step(direction, x_t, h, c)
        out.append(h)
    return out


def bilstm_encode(layers, seq: T.Tensor, valid_length: int) -> T.Tensor:
    """[n x input] -> [valid_length x 2*hidden], no dropout; one
    (forward, backward) pair of (W, U, b) per layer."""
    steps = [take_row(seq, t) for t in range(valid_length)]
    out = None
    for fwd, bwd in layers:
        h_fwd = scan(fwd, steps)
        h_bwd = scan(bwd, steps[::-1])[::-1]
        out = stack_rows([T.concat([f, b], axis=0) for f, b in zip(h_fwd, h_bwd)])
        steps = [take_row(out, t) for t in range(valid_length)]
    return out


def conv1d_over_time(bank, seq: T.Tensor, valid_length: int) -> T.Tensor:
    """One affine map per window, then a max over windows, per (W, b) of
    ``bank``, whose kernel size is W's width over the cells' dim."""
    dim = seq.shape[1]
    pooled = []
    for w, b in bank:
        k = w.shape[1] // dim
        if valid_length >= k:
            windows = [reshape(narrow(seq, 0, t, k), (k * dim,))
                       for t in range(valid_length - k + 1)]
        else:
            pad = T.constant(np.zeros((k - valid_length, dim)))
            short = T.concat([narrow(seq, 0, 0, valid_length), pad], axis=0)
            windows = [reshape(short, (k * dim,))]
        activ = T.relu(T.linear_rows(stack_rows(windows), w, b))
        pooled.append(max_rows(activ, len(windows)))
    return T.concat(pooled, axis=0)


# ---------------------------------------------------------------------------
# Models, one example at a time, dropout off


def rows_of(batch) -> list[np.ndarray]:
    """A packed batch's token ids, one array per row."""
    return np.split(batch.ids, np.cumsum(batch.valid_lengths)[:-1])


def rcnn_logits(params, batch) -> T.Tensor:
    """[b x 4] logits of ``rcnn.forward`` in eval mode, with the parameters
    read from ``named()`` by name."""
    config, t = params.config, params.named()
    layers = [[tuple(t[f"bilstm{i}.{tag}.{p}"] for p in "wub") for tag in ("fwd", "bwd")]
              for i in range(config.num_layers)]
    rows = []
    for i, ids in enumerate(rows_of(batch)):
        n = ids.size
        emb = embedding_rows(params.embedding, ids)
        enc = bilstm_encode(layers, emb, n)
        proj = T.linear_rows(T.concat([enc, emb], axis=1), t["projection.w"],
                             t["projection.b"])
        if config.projection_tanh:
            proj = T.tanh(proj)
        fused = max_rows(proj, n)
        if config.sentence_dim > 0:
            fused = T.concat([fused, T.constant(batch.sentence_vectors[i])], axis=0)
        rows.append(linear(t["output.w"], t["output.b"], fused))
    return stack_rows(rows)


def finetune_probs(model, batch) -> T.Tensor:
    """[b] probabilities of ``finetune.forward_finetune`` in eval mode, with
    the parameters read from ``named()`` by name, widths 1 to 3."""
    t = model.named()
    bank = [(t[f"conv_k{k}.w"], t[f"conv_k{k}.b"]) for k in (1, 2, 3)]
    out = []
    for ids in rows_of(batch):
        seq = embedding_rows(model.emb, ids)
        pooled = conv1d_over_time(bank, seq, len(ids))
        out.append(sigmoid(linear(t["output.w"], t["output.b"], pooled)))
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
    """Every parameter, every step, with zero moments from the first step
    and a dense gradient (zeros where there is none)."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - tr.ADAM_BETA1 ** state.t
    bc2 = 1.0 - tr.ADAM_BETA2 ** state.t
    for name, p in named_params.items():
        g = T.grad_of(p)
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.values), np.zeros_like(p.values)
        m = state.m[name]
        v = state.v[name]
        m *= tr.ADAM_BETA1
        m += (1.0 - tr.ADAM_BETA1) * g
        v *= tr.ADAM_BETA2
        v += (1.0 - tr.ADAM_BETA2) * g * g
        p.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + tr.ADAM_EPS)


# ---------------------------------------------------------------------------
# Per-turn text preparation

_WS_RUN = re.compile(r"\s+")
_CONTRACTION_NT = re.compile(r"n't\b")
_CONTRACTION_SUFFIX = re.compile(r"'(m|s|re|ve|ll|d)\b")
_TOKEN = re.compile(r"n't\b|'(?:m|s|re|ve|ll|d)\b|[^\W_]+|\S")


def clean_text(raw: str) -> str:
    """Drop each punctuation character equal to the one kept before it,
    then collapse whitespace runs to one space and strip."""
    out = []
    prev = None
    for ch in raw:
        if ch == prev and unicodedata.category(ch).startswith("P"):
            continue
        out.append(ch)
        prev = ch
    return _WS_RUN.sub(" ", "".join(out)).strip()


def tokenize(text: str) -> list[str]:
    text = text.lower()
    text = _CONTRACTION_NT.sub(" n't", text)
    text = _CONTRACTION_SUFFIX.sub(r" '\1", text)
    return _TOKEN.findall(text)


def assemble_input(turns) -> TokenSequence:
    """Each turn cleaned and tokenized on its own, joined with EOS."""
    tokens = []
    for i, turn in enumerate(turns):
        if i:
            tokens.append(EOS_TOKEN)
        tokens.extend(tokenize(clean_text(turn)))
    return TokenSequence(tokens)
