"""Neural building blocks over whole batches: embedding lookup, the stacked
BiLSTM, 1-D convolution over time, inverted dropout.

A batch of sequences is packed: one [N x k] tensor of valid cells, row
after row, with [B] per-row lengths summing to N (see :mod:`emoconv.tensor`).
No layer builds, reads or returns a padded grid, so padding cannot change a
result.  Most layers are compositions of :mod:`emoconv.tensor` ops;
``embedding_lookup``, a BiLSTM layer, ``dropout`` and the convolution's window
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
from .textprep import PAD_ID

@dataclass
class EmbeddingMatrix:
    """Token-id rows of word vectors; row 0 is PAD, stays zero and never
    receives gradient.  Frozen while ``table.requires_grad`` is False."""
    table: T.Tensor

    @property
    def vocab_size(self) -> int:
        return self.table.values.shape[0]

    @property
    def dim(self) -> int:
        return self.table.values.shape[1]

    @classmethod
    def from_array(cls, values) -> "EmbeddingMatrix":
        arr = np.ascontiguousarray(values, dtype=np.float64)  # Adam updates it in place
        if arr.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got shape {arr.shape}")
        return cls(T.Tensor(arr, requires_grad=True))


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
              ut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update for the n rows still active, in numpy.

    ``gates`` [n x 4h] holds x W^T + b on entry; it becomes
    pre = x W^T + b + h_prev U^T, split into the four gate blocks and
    activated in place (input, forget and output through the logistic,
    cell through tanh), so the caller keeps them for backward.  Returns
    (h, c) with c = f*c_prev + i*g and h = o*tanh(c).

    ``ut`` is U^T [h x 4h] as a contiguous array: with 2 to 7 rows at hidden
    200, OpenBLAS's product with the transposed view of U runs a kernel up
    to 3x slower.
    """
    hs = ut.shape[0]
    gates += h_prev @ ut
    T.sigmoid_(gates[:, :2 * hs])
    np.tanh(gates[:, 2 * hs:3 * hs], out=gates[:, 2 * hs:3 * hs])
    T.sigmoid_(gates[:, 3 * hs:])
    i, f, g, o = (gates[:, k * hs:(k + 1) * hs] for k in range(4))
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def _packed_order(lengths: np.ndarray):
    """Time-major order of a packed batch's cells, for the recurrence: rows
    sorted longest first, so the rows still active at step t are a prefix.
    Returns a pair of [N] arrays, each giving per time-major cell the index
    of the cell it reads in the row-major packing, the forward direction
    walking each row from its first cell and the reverse one from its last;
    then, shared by both, the time-major index of the same row's previous
    step (-1 at step 0) and the step offsets ([T+1])."""
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    # (step, rank) of each cell in step-major order: rank r runs while step < sorted_len[r]
    steps, rank = np.nonzero(np.arange(sorted_len[0])[:, None] < sorted_len[None, :])
    active = np.bincount(steps)
    offsets = np.concatenate([[0], np.cumsum(active)])
    first = (np.cumsum(lengths) - lengths)[order[rank]]
    prev = np.where(steps > 0, offsets[steps - 1] + rank, -1)
    return (first + steps, first + sorted_len[rank] - 1 - steps), prev, offsets


def _scan(x: np.ndarray, src, prev, offsets, direction, out: np.ndarray, keep: bool):
    """One LSTM direction (W, U, b) in one direction's order of
    :func:`_packed_order` (``src``, ``prev``, ``offsets``): fills ``out``
    [N x hidden] from x [N x input], each row from zero state, and returns
    ``backward(g, need_dx) -> (dx, dW, dU, db)`` if ``keep``.  As in cuDNN,
    x W^T + b is one product over all cells, a step adds only h U^T, and
    dW, dU and dx are single products.  Backward keeps the gates and cell
    states, time-major, writes each step's gate gradients over its gates
    (it runs once), and gathers x and the previous h again."""
    w, u, b = (p.values for p in direction)
    hs = u.shape[1]
    if (w.shape[1], w.shape[0], u.shape, b.shape) != (x.shape[1], 4 * hs, (4 * hs, hs), (4 * hs,)):
        raise ValueError(f"LSTM weights {w.shape}, {u.shape}, {b.shape} do not fit x {x.shape}")
    ut = np.ascontiguousarray(u.T)
    gates = x[src] @ w.T
    gates += b
    c_all = np.empty((src.size, hs))
    h = c = np.zeros((offsets[1], hs))
    for s, e in zip(offsets[:-1], offsets[1:]):
        h, c = lstm_step(gates[s:e], h[:e - s], c[:e - s], ut)
        out[src[s:e]], c_all[s:e] = h, c

    def backward(g, need_dx):
        dh, dc = np.zeros((2, offsets[1], hs))
        for s, e in zip(offsets[-2::-1], offsets[:0:-1]):
            n = e - s
            i, f, gg, o = (gates[s:e, k * hs:(k + 1) * hs] for k in range(4))
            c_prev = c_all[prev[s:e]] if s else np.zeros((n, hs))
            tc = np.tanh(c_all[s:e])
            dh_t = g[src[s:e]] + dh[:n]
            dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
            dc[:n] = dc_t * f
            # step t's gates are read only here, so its dz overwrites them
            i[:], gg[:] = dc_t * gg * i * (1.0 - i), dc_t * i * (1.0 - gg * gg)
            f[:] = dc_t * c_prev * f * (1.0 - f)
            o[:] = dh_t * tc * o * (1.0 - o)
            dh[:n] = gates[s:e] @ u
        dz = gates
        h_prev = np.where((prev < 0)[:, None], 0.0, out[src[prev]])
        dx = np.empty(x.shape) if need_dx else None
        if need_dx:
            dx[src] = dz @ w
        return dx, dz.T @ x[src], dz.T @ h_prev, dz.sum(axis=0)

    return backward if keep else None


def _bilstm_layer(x: T.Tensor, order, fwd, bwd) -> T.Tensor:
    """One BiLSTM layer, one node: [N x input] -> [N x 2*hidden], [h_f; h_b]
    at every cell in :func:`_packed_order`'s ``order``, over (x, *fwd, *bwd)."""
    srcs, prev, offsets = order
    hs = fwd[1].shape[1]
    halves, backs, need_dx = (slice(0, hs), slice(hs, None)), [], x.requires_grad

    def backward_fn(g):
        # each direction's gates and cells go once its backward returns
        (dx_f, *d_f), (dx_b, *d_b) = (backs.pop(0)(g[:, h], need_dx) for h in halves)
        return (dx_f + dx_b if need_dx else None, *d_f, *d_b)

    # made first, so that without a graph (no_grad) no direction's gates outlive its scan
    node = T.from_op(np.empty((x.shape[0], 2 * hs)), "bilstm_layer", (x, *fwd, *bwd),
                     backward_fn)
    backs += [_scan(x.values, src, prev, offsets, ps, node.values[:, half], node.requires_grad)
              for src, ps, half in zip(srcs, (fwd, bwd), halves)]
    return node


def bilstm_encode(layers, cells: T.Tensor, lengths, dropout_rate: float,
                  training: bool, rng) -> T.Tensor:
    """Stacked bidirectional encoding of a packed batch:
    [N x input] -> [N x 2*hidden].

    ``layers`` holds one ((W, U, b) forward, (W, U, b) backward) pair per
    layer; the reverse direction reads each row from its last cell.  Layer k+1
    consumes layer k's output, with dropout after every layer when training.
    """
    if not layers:
        raise ValueError("bilstm_encode needs at least one layer")
    if cells.values.ndim != 2:
        raise ValueError(f"bilstm_encode needs a packed [N x input] tensor, got {cells.shape}")
    lengths = T.check_lengths(lengths, cells.shape[0])
    order = _packed_order(lengths)
    out = cells
    for fwd, bwd in layers:
        out = dropout(_bilstm_layer(out, order, fwd, bwd), dropout_rate, training, rng)
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

    ``bank`` holds one (k, W [filters x k*dim], b [filters]) triple per
    kernel size k.  For each, every length-k window of a row's cells goes
    through the affine filters and a rectifier, and the maximum over those
    windows is kept; the outputs concatenate in bank order.  A row shorter
    than k is zero-padded at its end to one window.  Each width is one
    window gather, one product and one ``max_over_time`` over each row's
    windows; the rectifier runs after the max, which gives the same values
    and gradients (it is monotonic) on [B x filters] values only.  Width 1
    reads the cells themselves, which are its windows, so it records no
    gather.  The pool keeps each filter's argmax window from forward, so
    backward reads no score again (see ``tensor.max_over_time``), and each
    width's scores are freed once its pool exists.
    """
    if cells.values.ndim != 2:
        raise ValueError(f"conv1d_over_time needs packed [N x dim] cells, got {cells.shape}")
    lengths = T.check_lengths(lengths, cells.shape[0])
    pooled = []
    for k, w, b in bank:
        if w.shape[1] != k * cells.shape[1]:
            raise ValueError(f"cells shape {cells.shape} does not match bank dim "
                             f"{w.shape[1] // k} of width {k}")
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
