"""Neural building blocks over whole batches: embedding lookup, the fused
LSTM scan and stacked BiLSTM, 1-D convolution over time, inverted dropout.

A batch of sequences is packed: one [N x k] tensor of valid cells, row
after row, with [B] per-row lengths summing to N (see :mod:`emoconv.tensor`).
No layer builds, reads or returns a padded grid, so padding cannot change a
result.  Most layers are compositions of :mod:`emoconv.tensor` ops;
``embedding_lookup``, ``lstm_scan`` and the convolution's window gather are
graph nodes of their own with hand-written backward passes, checked against
finite differences and against the per-example, per-timestep oracle kept
with the tests.

Initialization convention (used by every init_* helper): weight matrices are
uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases are zero except the
LSTM forget gate, which starts at 1 so memory cells default to remembering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

@dataclass
class EmbeddingMatrix:
    """Token-id rows of word vectors; row 0 is PAD, stays zero and never
    receives gradient."""
    vocab_size: int
    dim: int
    table: T.Tensor
    frozen: bool = False

    @classmethod
    def from_array(cls, values, frozen: bool = False) -> "EmbeddingMatrix":
        arr = np.ascontiguousarray(values, dtype=np.float64)  # Adam updates it in place
        if arr.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got shape {arr.shape}")
        return cls(vocab_size=arr.shape[0], dim=arr.shape[1],
                   table=T.Tensor(arr, requires_grad=True), frozen=frozen)


@dataclass
class LstmDirection:
    """One scan direction: W [4h x input], U [4h x hidden], b [4h], with the
    gate blocks stacked in the order input, forget, cell, output."""
    w: T.Tensor
    u: T.Tensor
    b: T.Tensor
    hidden_size: int


@dataclass
class LstmLayerParams:
    input_size: int
    hidden_size: int
    fwd: LstmDirection
    bwd: LstmDirection

    def named(self, prefix: str) -> dict[str, T.Tensor]:
        out = {}
        for tag, d in (("fwd", self.fwd), ("bwd", self.bwd)):
            out[f"{prefix}.{tag}.w"] = d.w
            out[f"{prefix}.{tag}.u"] = d.u
            out[f"{prefix}.{tag}.b"] = d.b
        return out


@dataclass
class ConvFilterBank:
    """Per kernel size k: weights [filters x (k*dim)] and bias [filters]."""
    kernel_sizes: tuple[int, ...]
    filters_per_size: int
    dim: int
    weights: list[T.Tensor] = field(default_factory=list)
    biases: list[T.Tensor] = field(default_factory=list)

    @property
    def output_dim(self) -> int:
        return len(self.kernel_sizes) * self.filters_per_size


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return T.Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def init_lstm_direction(rng, input_size: int, hidden_size: int) -> LstmDirection:
    w = _uniform(rng, (4 * hidden_size, input_size), input_size)
    u = _uniform(rng, (4 * hidden_size, hidden_size), hidden_size)
    b = np.zeros(4 * hidden_size)
    b[hidden_size:2 * hidden_size] = 1.0  # forget gate
    return LstmDirection(w=w, u=u, b=T.Tensor(b, requires_grad=True),
                         hidden_size=hidden_size)


def init_lstm_params(rng, input_size: int, hidden_size: int) -> LstmLayerParams:
    if input_size < 1 or hidden_size < 1:
        raise ValueError(f"sizes must be >= 1, got input {input_size}, hidden {hidden_size}")
    return LstmLayerParams(input_size, hidden_size,
                           fwd=init_lstm_direction(rng, input_size, hidden_size),
                           bwd=init_lstm_direction(rng, input_size, hidden_size))


def init_linear(rng, out_size: int, in_size: int) -> tuple[T.Tensor, T.Tensor]:
    w = _uniform(rng, (out_size, in_size), in_size)
    b = T.Tensor(np.zeros(out_size), requires_grad=True)
    return w, b


def init_conv_bank(rng, dim: int, kernel_sizes=(1, 2, 3),
                   filters_per_size: int = 300) -> ConvFilterBank:
    bank = ConvFilterBank(tuple(kernel_sizes), filters_per_size, dim)
    for k in bank.kernel_sizes:
        bank.weights.append(_uniform(rng, (filters_per_size, k * dim), k * dim))
        bank.biases.append(T.Tensor(np.zeros(filters_per_size), requires_grad=True))
    return bank


PAD_ID = 0


def pad_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Token-id sequences -> ([B x T] ids, PAD-filled past each length;
    [B] lengths), with T the longest length: the id container of a batch
    of conversations, which the model packs before any layer runs."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    if lengths.size == 0 or lengths.min() < 1:
        raise ValueError("need at least one row, and every row non-empty")
    ids = np.full((lengths.size, int(lengths.max())), PAD_ID, dtype=np.int64)
    ids[T.time_mask(lengths, ids.shape[1])] = np.concatenate(rows)
    return ids, lengths


def embedding_lookup(table: EmbeddingMatrix, ids) -> T.Tensor:
    """Rows of the embedding table for a vector of ids: ids [N] -> [N x dim].

    Backward scatter-adds into the rows that were used, except PAD, so the
    PAD row never moves.  When the table is frozen the result is a
    gradient-free constant and the table receives exactly-zero gradients.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"ids must be a non-empty vector, got shape {ids.shape}")
    bad = (ids < 0) | (ids >= table.vocab_size)
    if bad.any():
        raise ValueError(f"token id {int(ids[bad][0])} out of range for vocabulary "
                         f"of size {table.vocab_size}")
    values = table.table.values[ids]
    if table.frozen or not table.table.requires_grad:
        return T.constant(values)
    used = ids != PAD_ID

    def backward_fn(g):
        return (T.RowGrad(ids[used], g[used]),)

    return T.from_op(values, "embedding_lookup", (table.table,), backward_fn)


def lstm_step(gates: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update for the n rows still active, in numpy.

    ``gates`` [n x 4h] holds x W^T + b on entry; it becomes
    pre = x W^T + b + h_prev U^T, split into the four gate blocks and
    activated in place (input, forget and output through the logistic,
    cell through tanh), so the caller keeps them for backward.  Returns
    (h, c) with c = f*c_prev + i*g and h = o*tanh(c).
    """
    hs = u.shape[1]
    gates += h_prev @ u.T
    T.sigmoid_(gates[:, :2 * hs])
    np.tanh(gates[:, 2 * hs:3 * hs], out=gates[:, 2 * hs:3 * hs])
    T.sigmoid_(gates[:, 3 * hs:])
    i, f, g, o = (gates[:, k * hs:(k + 1) * hs] for k in range(4))
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def _packed_order(lengths: np.ndarray, reverse: bool):
    """Time-major order of a packed batch's cells, for the recurrence.

    Rows are sorted by length, longest first, so the rows still active at
    step t are a prefix of that order.  Returns, per time-major cell, the
    index of the cell it reads in the row-major packing ([N]), the
    time-major index of the same row's previous step (-1 at step 0), and the
    step offsets ([T+1]).  The reverse direction walks each row from its
    last cell.
    """
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    steps, rank = np.nonzero(T.time_mask(sorted_len, int(sorted_len[0])).T)
    active = np.bincount(steps)
    offsets = np.concatenate([[0], np.cumsum(active)])
    positions = sorted_len[rank] - 1 - steps if reverse else steps
    src = (np.cumsum(lengths) - lengths)[order[rank]] + positions
    prev = np.where(steps > 0, offsets[steps - 1] + rank, -1)
    return src, prev, offsets


def lstm_scan(x: T.Tensor, lengths, w: T.Tensor, u: T.Tensor, b: T.Tensor,
              reverse: bool = False) -> T.Tensor:
    """One LSTM direction over a packed batch: x [N x input] -> [N x hidden].

    Each row starts from zero state and reads only its own cells, left to
    right, or right to left from its last cell when ``reverse``; output cell
    n is the hidden state after reading input cell n.  Following the cuDNN
    formulation, x W^T + b is one product over all cells, the recurrence
    keeps only h U^T per step, and backward gets dW, dU and dx as single
    products.
    """
    if x.values.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ValueError(f"lstm_scan needs x [N x {w.shape[1]}], got {x.shape}")
    lengths = T.check_lengths(lengths, x.shape[0])
    hs = u.shape[1]
    if w.shape[0] != 4 * hs or u.shape != (4 * hs, hs) or b.shape != (4 * hs,):
        raise ValueError(f"lstm_scan weight shapes disagree: W {w.shape}, "
                         f"U {u.shape}, b {b.shape}")
    src, prev, offsets = _packed_order(lengths, reverse)
    wv, uv = w.values, u.values
    xs = x.values[src]
    gates = xs @ wv.T + b.values
    h_all = np.empty((xs.shape[0], hs))
    c_all = np.empty((xs.shape[0], hs))
    h = c = np.zeros((offsets[1], hs))
    for s, e in zip(offsets[:-1], offsets[1:]):
        h, c = lstm_step(gates[s:e], h[:e - s], c[:e - s], uv)
        h_all[s:e], c_all[s:e] = h, c
    out = np.empty_like(h_all)
    out[src] = h_all

    def backward_fn(g):
        dh_in = g[src]
        dz = np.empty_like(gates)
        dh = np.zeros((offsets[1], hs))
        dc = np.zeros((offsets[1], hs))
        first = prev < 0
        c_prev = np.where(first[:, None], 0.0, c_all[prev])
        for s, e in zip(offsets[-2::-1], offsets[:0:-1]):
            n = e - s
            i, f, gg, o = (gates[s:e, k * hs:(k + 1) * hs] for k in range(4))
            tc = np.tanh(c_all[s:e])
            dh_t = dh_in[s:e] + dh[:n]
            dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
            dz[s:e, :hs] = dc_t * gg * i * (1.0 - i)
            dz[s:e, hs:2 * hs] = dc_t * c_prev[s:e] * f * (1.0 - f)
            dz[s:e, 2 * hs:3 * hs] = dc_t * i * (1.0 - gg * gg)
            dz[s:e, 3 * hs:] = dh_t * tc * o * (1.0 - o)
            dc[:n] = dc_t * f
            dh[:n] = dz[s:e] @ uv
        h_prev = np.where(first[:, None], 0.0, h_all[prev])
        dx = None
        if x.requires_grad:
            dx = np.empty(x.shape)
            dx[src] = dz @ wv
        return dx, dz.T @ xs, dz.T @ h_prev, dz.sum(axis=0)

    return T.from_op(out, "lstm_scan", (x, w, u, b), backward_fn)


def bilstm_encode(layers: list[LstmLayerParams], cells: T.Tensor, lengths,
                  dropout_rate: float, training: bool, rng) -> T.Tensor:
    """Stacked bidirectional encoding of a packed batch:
    [N x input] -> [N x 2*hidden].

    Per layer, a forward and a reverse ``lstm_scan`` over each row's cells,
    concatenated as [h_f; h_b] at every cell; layer k+1 consumes layer k's
    output, with dropout after every layer when training.
    """
    if not layers:
        raise ValueError("bilstm_encode needs at least one layer")
    if cells.values.ndim != 2:
        raise ValueError(f"bilstm_encode needs a packed [N x input] tensor, got {cells.shape}")
    out = cells
    for layer in layers:
        halves = [lstm_scan(out, lengths, d.w, d.u, d.b, reverse=rev)
                  for d, rev in ((layer.fwd, False), (layer.bwd, True))]
        out = dropout(T.concat(halves, axis=1), dropout_rate, training, rng)
    return out


def _windows(cells: T.Tensor, lengths: np.ndarray, counts: np.ndarray,
             width: int) -> T.Tensor:
    """Every window of ``width`` consecutive cells within each row, packed
    row after row: [N x dim] -> [counts.sum() x width*dim], where the caller
    passes ``counts = max(lengths - width + 1, 1)``, the windows per row.

    Positions past a row's last cell, in the one window of a row shorter
    than ``width``, read a trailing zero row, so no row reads another row's
    cells.
    """
    n, d = cells.shape
    rows = np.repeat(np.arange(lengths.size), counts)
    starts = np.cumsum(lengths) - lengths
    # window i of a row starts at the row's cell i
    first = starts[rows] + np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    idx = first[:, None] + np.arange(width)
    idx[idx >= (starts + lengths)[rows, None]] = n
    with_zero = np.concatenate([cells.values, np.zeros((1, d))])

    def backward_fn(g):
        g = g.reshape(rows.size, width, d)
        dcells = np.zeros((n + 1, d))
        for j in range(width):  # indices below n are distinct for a fixed j
            dcells[idx[:, j]] += g[:, j]
        return (dcells[:n],)

    return T.from_op(with_zero[idx].reshape(rows.size, width * d), "windows",
                     (cells,), backward_fn)


def conv1d_over_time(bank: ConvFilterBank, cells: T.Tensor, lengths) -> T.Tensor:
    """Multi-width convolution with global max pooling over a packed batch:
    [N x dim] -> [B x len(kernel_sizes)*filters_per_size].

    For each kernel size k, every length-k window of a row's cells goes
    through the affine filters and a rectifier, and the maximum over those
    windows is kept; the banks' outputs concatenate in kernel-size order.  A
    row shorter than k is zero-padded at its end to one window.  Each width
    is one window gather, one product and one ``max_over_time`` over each
    row's windows; the rectifier runs after the max, which gives the same
    values and gradients (it is monotonic) on [B x filters] values only.
    """
    if cells.values.ndim != 2 or cells.shape[1] != bank.dim:
        raise ValueError(f"cells shape {cells.shape} does not match bank dim {bank.dim}")
    lengths = T.check_lengths(lengths, cells.shape[0])
    pooled = []
    for k, w, b in zip(bank.kernel_sizes, bank.weights, bank.biases):
        counts = np.maximum(lengths - k + 1, 1)
        scores = T.linear_rows(_windows(cells, lengths, counts, k), w, b)
        pooled.append(T.relu(T.max_over_time(scores, counts)))
    return T.concat(pooled, axis=1)


def dropout(x: T.Tensor, rate: float, training: bool, rng) -> T.Tensor:
    """Inverted dropout with one mask for the whole tensor: zero with
    probability `rate`, scale survivors by 1/(1-rate); identity when rate is
    0 or not training."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, T.constant(mask))
