"""Neural building blocks over whole batches: embedding lookup, the fused
LSTM scan and stacked BiLSTM, 1-D convolution over time, inverted dropout.

A batch of sequences is packed: one [N x k] tensor of valid cells, row
after row, with [B] per-row lengths summing to N (see :mod:`emoconv.tensor`).
No layer builds, reads or returns a padded grid, so padding cannot change a
result.  Most layers are compositions of :mod:`emoconv.tensor` ops;
``embedding_lookup``, ``lstm_scan``, ``dropout`` and the convolution's window
gather are graph nodes of their own with hand-written backward passes,
checked against finite differences and against the per-example,
per-timestep oracle kept with the tests.

Initialization convention, applied by ``init_arrays`` to each model's one
parameter table: weight matrices are uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)]; biases are zero except the LSTM forget
gate, which starts at 1 so memory cells default to remembering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

@dataclass
class EmbeddingMatrix:
    """Token-id rows of word vectors; row 0 is PAD, stays zero and never
    receives gradient.  Frozen while ``table.requires_grad`` is False."""
    vocab_size: int
    dim: int
    table: T.Tensor

    @classmethod
    def from_array(cls, values) -> "EmbeddingMatrix":
        arr = np.ascontiguousarray(values, dtype=np.float64)  # Adam updates it in place
        if arr.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got shape {arr.shape}")
        return cls(vocab_size=arr.shape[0], dim=arr.shape[1],
                   table=T.Tensor(arr, requires_grad=True))


def init_arrays(shapes: dict[str, tuple[int, ...]], rng) -> dict[str, np.ndarray]:
    """Initial values for a model's parameter table (name -> shape), drawn
    in table order.

    A matrix [out x fan_in] is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]
    and a vector is zeros, except an LSTM direction's bias: the vector
    ``<direction>.b`` of a table that also holds the direction's recurrent
    matrix ``<direction>.u`` [4h x h], whose forget block is 1.
    """
    out = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
            out[name] = rng.uniform(-bound, bound, shape)
            continue
        out[name] = np.zeros(shape)
        u = shapes.get(name.removesuffix(".b") + ".u") if name.endswith(".b") else None
        if u is not None:
            out[name][u[1]:2 * u[1]] = 1.0  # the forget gate, second of four blocks
    return out


PAD_ID = 0


def embedding_lookup(table: EmbeddingMatrix, ids) -> T.Tensor:
    """Rows of the embedding table for a vector of ids: ids [N] -> [N x dim].

    Backward scatter-adds into the rows that were used, except PAD, so the
    PAD row never moves.  When the table is frozen the result records no
    graph and the table receives no gradient.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"ids must be a non-empty vector, got shape {ids.shape}")
    bad = (ids < 0) | (ids >= table.vocab_size)
    if bad.any():
        raise ValueError(f"token id {int(ids[bad][0])} out of range for vocabulary "
                         f"of size {table.vocab_size}")
    values = table.table.values[ids]
    used = ids != PAD_ID

    def backward_fn(g):
        return (T.RowGrad(ids[used], g[used]),)

    return T.from_op(values, "embedding_lookup", (table.table,), backward_fn)


def lstm_step(gates: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
              u: np.ndarray, ut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update for the n rows still active, in numpy.

    ``gates`` [n x 4h] holds x W^T + b on entry; it becomes
    pre = x W^T + b + h_prev U^T, split into the four gate blocks and
    activated in place (input, forget and output through the logistic,
    cell through tanh), so the caller keeps them for backward.  Returns
    (h, c) with c = f*c_prev + i*g and h = o*tanh(c).

    ``ut`` is U^T as a contiguous array.  Several rows multiply it: with 2
    to 7 rows at hidden 200, OpenBLAS's product with the transposed view
    ``u.T`` runs a kernel up to 3x slower.  One row multiplies ``u.T``: a
    matrix-vector product, as fast either way, and at hidden 200 the only
    row count whose result the contiguous copy would change.
    """
    hs = u.shape[1]
    gates += h_prev @ ut if h_prev.shape[0] > 1 else h_prev @ u.T
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
    # (step, rank) of each cell in step-major order: rank r runs while step < sorted_len[r]
    steps, rank = np.nonzero(np.arange(sorted_len[0])[:, None] < sorted_len[None, :])
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

    Backward keeps the activated gates and the cell states, both
    time-major; it gathers the inputs from ``x`` and the previous hidden
    states from the output again rather than keeping copies.
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
    ut = np.ascontiguousarray(uv.T)
    gates = x.values[src] @ wv.T
    gates += b.values
    c_all = np.empty((src.size, hs))
    out = np.empty((src.size, hs))
    h = c = np.zeros((offsets[1], hs))
    for s, e in zip(offsets[:-1], offsets[1:]):
        h, c = lstm_step(gates[s:e], h[:e - s], c[:e - s], uv, ut)
        out[src[s:e]], c_all[s:e] = h, c

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
        h_prev = np.where(first[:, None], 0.0, out[src[prev]])
        dx = None
        if x.requires_grad:
            dx = np.empty(x.shape)
            dx[src] = dz @ wv
        return dx, dz.T @ x.values[src], dz.T @ h_prev, dz.sum(axis=0)

    return T.from_op(out, "lstm_scan", (x, w, u, b), backward_fn)


def bilstm_encode(layers, cells: T.Tensor, lengths, dropout_rate: float,
                  training: bool, rng) -> T.Tensor:
    """Stacked bidirectional encoding of a packed batch:
    [N x input] -> [N x 2*hidden].

    ``layers`` holds one ((W, U, b) forward, (W, U, b) backward) pair per
    layer.  Per layer, a forward and a reverse ``lstm_scan`` over each row's
    cells, concatenated as [h_f; h_b] at every cell; layer k+1 consumes layer
    k's output, with dropout after every layer when training.
    """
    if not layers:
        raise ValueError("bilstm_encode needs at least one layer")
    if cells.values.ndim != 2:
        raise ValueError(f"bilstm_encode needs a packed [N x input] tensor, got {cells.shape}")
    out = cells
    for fwd, bwd in layers:
        halves = [lstm_scan(out, lengths, *fwd), lstm_scan(out, lengths, *bwd, reverse=True)]
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


def conv1d_over_time(bank, cells: T.Tensor, lengths) -> T.Tensor:
    """Multi-width convolution with global max pooling over a packed batch:
    [N x dim] -> [B x total filters].

    ``bank`` holds one (W [filters x k*dim], b [filters]) pair per kernel
    size k, which W's width gives.  For each, every length-k window of a
    row's cells goes through the affine filters and a rectifier, and the
    maximum over those windows is kept; the outputs concatenate in bank
    order.  A row shorter than k is zero-padded at its end to one window.
    Each width is one window gather, one product and one ``max_over_time``
    over each row's windows; the rectifier runs after the max, which gives
    the same values and gradients (it is monotonic) on [B x filters] values
    only.  Width 1 reads the cells themselves, which are its windows, so it records
    no gather.  The pool keeps each filter's argmax window from forward, so
    backward reads no score again (see ``tensor.max_over_time``).
    """
    if cells.values.ndim != 2:
        raise ValueError(f"conv1d_over_time needs packed [N x dim] cells, got {cells.shape}")
    lengths = T.check_lengths(lengths, cells.shape[0])
    pooled = []
    for w, b in bank:
        k, rest = divmod(w.shape[1], cells.shape[1])
        if rest or k < 1:
            raise ValueError(f"filter width {w.shape[1]} is not a multiple of "
                             f"the cells' dim {cells.shape[1]}")
        counts = np.maximum(lengths - k + 1, 1)
        windows = cells if k == 1 else _windows(cells, lengths, counts, k)
        scores = T.linear_rows(windows, w, b)
        pooled.append(T.relu(T.max_over_time(scores, counts)))
    return T.concat(pooled, axis=1)


def dropout(x: T.Tensor, rate: float, training: bool, rng) -> T.Tensor:
    """Inverted dropout with one mask for the whole tensor: zero with
    probability `rate`, scale survivors by 1/(1-rate); identity when rate is
    0 or not training.  The node keeps the boolean keep-mask, one byte per
    value, and rebuilds the scaled mask when backward needs it."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate

    def backward_fn(g):
        return (g * (keep / (1.0 - rate)),)

    return T.from_op(x.values * (keep / (1.0 - rate)), "dropout", (x,), backward_fn)
