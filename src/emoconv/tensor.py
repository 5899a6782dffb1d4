"""Dense float64 tensors with reverse-mode automatic differentiation.

Graphs are built define-by-run: every operation returns a new ``Tensor``
holding the numeric result and, when it takes part in a graph, a ``Node``:
the op's name, a closure that maps the output gradient to input gradients,
and the nodes of its inputs (a leaf input that takes gradients is recorded
as itself, and one that takes none not at all).  A node holds no values and
no shape: a closure captures the arrays its backward reads, so
an op result's values live only while a caller or a closure holds them.
Every node takes a creation number, and an op's node is made after its
inputs' nodes, so creation order is a topological order: ``backward`` visits
the nodes that hold a gradient, latest made first, and accumulates gradients
into the ``grad`` field of every leaf that has ``requires_grad`` set.  It
consumes the graph it walks, so a graph's backward runs once; leaf gradients
add up across graphs until ``reset_grads``.
A leaf that only row-gathering ops read (the embedding table) keeps a
row-sparse ``RowGrad`` there instead of a table-sized array; ``grad_of``
gives the dense array.  A ``RowGrad`` goes to a leaf only, never to a node.

All arithmetic is 64-bit.  The engine is batch-major and packed: a batch
of sequences is one ``[N x k]`` tensor of valid cells, row after row, plus
``[B]`` per-row lengths that sum to N.  There is no padding to mask, and one
graph node covers the whole batch.

The engine holds only the ops the two models run:

- ``tanh`` and ``relu``, elementwise, and ``sigmoid_``, the in-place
  logistic function on a plain array that the LSTM gates, the fine-tuning
  CNN's loss and its predictions use;
- ``concat`` of tensors that agree on every other axis;
- ``linear_rows`` maps every row of an ``[n x k]`` matrix and adds its bias
  to each (``[n x k] -> [n x m]``), the one place a vector broadcasts;
- ``max_over_time`` is the one segment max: it reduces each row's own cells
  of a packed tensor, ``[N x k] -> [B x k]``.  It keeps each column's
  argmax cell from forward, so backward reads no input; the first cell wins
  a tie, and a NaN wins its column;
- ``softmax_rows``, the classifier's class probabilities for evaluation,
  which records no node.

A model's loss is one node of its own over the model's logits, built with
``from_op`` where the model lives (``train.weighted_cross_entropy``,
``finetune.binary_cross_entropy``).  It works through log-sum-exp, so a
wrong answer passes a gradient however confident it is.

Inside ``with no_grad():`` operations record no node, so an inference pass
holds only the values it still uses.

Thread safety: a graph and its tensors belong to one thread between
construction and ``backward``; ``no_grad`` applies to the calling thread
only.  Distinct graphs may run on distinct threads; leaf values may be read
concurrently as long as no update is in flight.  All threads draw creation
numbers from one counter, so a graph's numbers still rise in the order its
thread made its nodes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


# creation numbers: a node is numbered after every node it reads
_creation = itertools.count()


class Node:
    """The graph record of one op result: creation number, op name,
    backward closure, and per input of the op its node, the input itself
    for a leaf that takes gradients, or None for one that takes none."""

    __slots__ = ("number", "op", "backward_fn", "parents")

    def __init__(self, op: str, backward_fn: Callable[[np.ndarray], tuple],
                 parents: tuple[Node | Tensor | None, ...]):
        self.number, self.op = next(_creation), op
        self.backward_fn, self.parents = backward_fn, parents

    def __repr__(self) -> str:
        return f"Node(#{self.number} {self.op})"


class Tensor:
    """Float64 values, a gradient slot, and the node of the op that made it
    (None for a leaf, and for a result that records no graph)."""

    __slots__ = ("values", "grad", "requires_grad", "node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | None = None
        self.requires_grad = bool(requires_grad)
        self.node: Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        op = self.node.op if self.node is not None else None
        return f"Tensor(shape={self.shape}{flag}, op={op!r})"


def _target(t: Tensor) -> Node | Tensor | None:
    """Where a gradient for ``t`` goes: its node, itself if it is a leaf
    that takes gradients, or nowhere."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def constant(values) -> Tensor:
    """Leaf tensor that never receives gradient (inputs, masks, targets)."""
    return Tensor(values, requires_grad=False)


_recording = threading.local()


@contextmanager
def no_grad():
    """Build no graph on this thread for the duration of the block: results
    carry values only, so ``backward`` cannot reach through them."""
    was = getattr(_recording, "off", False)
    _recording.off = True
    try:
        yield
    finally:
        _recording.off = was


class RowGrad:
    """A gradient that is zero outside a few rows: ``values[k]`` adds to row
    ``rows[k]`` of the parent, and ``rows`` is sorted and unique.  An op that
    reads a few rows of a large table returns this rather than a table-sized
    array.

    Made from rows that repeat or are out of order, it sums each row's values
    from zero in their given order, as ``np.add.at`` into a zero array does,
    so the bytes are the same (``bincount`` adds that way; on a 1,400 x 100
    batch gradient it took a quarter of the time of ``np.add.at``).  Rows
    that are sorted and unique already keep their arrays."""
    __slots__ = ("rows", "values")

    def __init__(self, rows: np.ndarray, values: np.ndarray):
        if not (rows[1:] > rows[:-1]).all():
            rows, inverse = np.unique(rows, return_inverse=True)
            width = math.prod(values.shape[1:])
            flat = (inverse[:, None] * width + np.arange(width)).reshape(-1)
            sums = np.bincount(flat, values.reshape(-1), minlength=rows.size * width)
            values = sums.reshape((rows.size,) + values.shape[1:])
        self.rows, self.values = rows, values

    def add_to(self, dense: np.ndarray) -> None:
        dense[self.rows] += self.values


def from_op(values: np.ndarray, op: str, parents: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Register an operation result in the graph.

    ``backward_fn`` receives the gradient of the output and returns one
    gradient (an array, None, or for a leaf parent a ``RowGrad``) per parent,
    in parent order; what it returns for a parent that takes no gradient,
    which is not recorded, is dropped.  Returned arrays must not be mutated
    afterwards; accumulation here is purely functional.  Under ``no_grad``,
    or when no parent takes a gradient, the result records no node.  A
    closure captures the arrays, shapes and flags it reads, never a Tensor,
    so it keeps no values it does not read; whatever it captures lives until
    ``backward`` has run it, and it runs once, so it may overwrite what it
    captured.
    """
    out = Tensor(values)
    if not getattr(_recording, "off", False) and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = Node(op, backward_fn, tuple(_target(p) for p in parents))
    return out


def backward(loss: Tensor) -> None:
    """Populate the grad of every requires_grad leaf reachable from ``loss``.

    A node's consumers are all made after it, so popping the latest-made of
    the nodes that hold a gradient finds each node with every contribution
    summed, and a node that receives no gradient is never visited.
    Leaves that do not appear in the graph keep ``grad=None``; read them with
    ``grad_of``, which treats None as zero.  A leaf reached only through
    ``RowGrad`` contributions keeps them row-sparse, merged into one
    ``RowGrad``.  Any dense contribution makes it dense.  A graph's backward
    runs once: a node lets go of its parents and closure once it has sent its
    gradients, and a second call through the graph raises RuntimeError before
    any leaf changes.  Leaf gradients add up across graphs until ``reset_grads``.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    buffers = {}  # creation number -> (node, its gradient so far)
    latest = []  # the negated creation numbers in buffers, a heap

    def send(t: Node | Tensor | None, g) -> None:
        """Add ``g`` to the gradient of ``t``: to the buffer of a node, and at
        once to a leaf's grad.  Leaves (the parameters) are made first, so a
        buffered leaf gradient would wait until the walk ends, holding
        memory the walk could reuse."""
        if g is None or t is None:
            return
        if isinstance(t, Tensor):
            have = t.grad
            if isinstance(g, RowGrad) and not isinstance(have, np.ndarray):  # stays row-sparse
                t.grad = g if have is None else RowGrad(np.concatenate([have.rows, g.rows]),
                                                        np.concatenate([have.values, g.values]))
            elif isinstance(g, RowGrad):
                g.add_to(have)
            else:
                t.grad = grad_of(t)
                t.grad += g
            return
        held = buffers.get(t.number)
        if held is None:
            heapq.heappush(latest, -t.number)
        buffers[t.number] = (t, g if held is None else held[1] + g)

    send(_target(loss), np.ones_like(loss.values))
    while latest:
        node, g = buffers.pop(-heapq.heappop(latest))
        parents, backward_fn = node.parents, node.backward_fn
        node.parents, node.backward_fn = (), _spent
        for parent, pg in zip(parents, backward_fn(g)):
            send(parent, pg)


def _spent(g):
    raise RuntimeError("backward already ran through this graph")


def reset_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def grad_of(t: Tensor) -> np.ndarray:
    """Gradient of a leaf after backward as a dense array: zeros if the leaf
    was unreachable, a new array if its grad is a ``RowGrad``."""
    if isinstance(t.grad, np.ndarray):
        return t.grad
    dense = np.zeros_like(t.values)
    if t.grad is not None:
        t.grad.add_to(dense)
    return dense


# ---------------------------------------------------------------------------
# Elementwise operations


def sigmoid_(z: np.ndarray) -> np.ndarray:
    """In-place logistic function, in the overflow-free tanh form; returns z."""
    z *= 0.5
    np.tanh(z, out=z)
    z += 1.0
    z *= 0.5
    return z


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.values)

    def backward_fn(g):
        return (g * (1.0 - out * out),)

    return from_op(out, "tanh", (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    v = a.values

    def backward_fn(g):
        return (g * (v > 0.0),)

    return from_op(np.maximum(v, 0.0), "relu", (a,), backward_fn)


# ---------------------------------------------------------------------------
# Shape manipulation


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    # numpy's ValueError names a bad part list or axis before any node is made
    out = np.concatenate([p.values for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
    takes = [p.requires_grad for p in parts]

    def backward_fn(g):
        # a copy, so that no part's gradient keeps the whole of g alive
        slicer = [slice(None)] * g.ndim
        grads = []
        for i, take in enumerate(takes):
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(g[tuple(slicer)].copy() if take else None)
        return tuple(grads)

    return from_op(out, "concat", tuple(parts), backward_fn)


def linear_rows(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of every row: out = x @ w.T + b, b added to each row.

    x is [n x k], w is [m x k], b is [m]; the result is [n x m].  This is
    the one place a vector broadcasts over rows, so the bias rule (sum over
    rows) stays next to the op that needs it.
    """
    if x.values.ndim != 2 or w.values.ndim != 2 or b.values.ndim != 1:
        raise ValueError(f"linear_rows needs (rows, matrix, vector), got "
                         f"{x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ValueError(f"linear_rows dimensions differ: x {x.shape}, w {w.shape}, b {b.shape}")
    xv, wv, need_dx = x.values, w.values, x.requires_grad

    def backward_fn(g):
        return g @ wv if need_dx else None, g.T @ xv, g.sum(axis=0)

    out = xv @ wv.T
    out += b.values  # in place: the same sums without a second [n x m] array
    return from_op(out, "linear_rows", (x, w, b), backward_fn)


# ---------------------------------------------------------------------------
# Packed batches: [N x k] valid cells, row after row, with [B] lengths


def check_lengths(lengths, cells: int) -> np.ndarray:
    """Per-row valid lengths of a packed batch as an int64 array [B]: at
    least one row, each length at least 1, summing to its ``cells`` rows."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError(f"need a non-empty vector of valid lengths, got shape {lengths.shape}")
    if lengths.min() < 1 or lengths.sum() != cells:
        raise ValueError(f"valid lengths must be >= 1 and sum to the {cells} packed "
                         f"cells, got {lengths.tolist()}")
    return lengths


def max_over_time(cells: Tensor, lengths) -> Tensor:
    """Columnwise max over each row's own cells of a packed batch:
    [N x k] -> [B x k], row b reducing its ``lengths[b]`` consecutive cells.

    Forward finds each column's argmax cell once, per row, and keeps those
    [B x k] indices; the result is the values there, and backward sends each
    column's gradient to that one cell without reading the input again.  The
    first occurrence wins on ties, and a column's first NaN wins over every
    number, so a NaN pools and takes the gradient.
    """
    if cells.values.ndim != 2:
        raise ValueError(f"max_over_time needs a packed [N x k] tensor, got shape {cells.shape}")
    v = cells.values
    n, k = v.shape
    lengths = check_lengths(lengths, n)
    starts = np.cumsum(lengths) - lengths
    arg = np.empty((lengths.size, k), dtype=np.int64)
    for row, (s, e) in enumerate(zip(starts.tolist(), (starts + lengths).tolist())):
        v[s:e].argmax(axis=0, out=arg[row])
    arg += starts[:, None]
    cols = np.arange(k)

    def backward_fn(g):
        z = np.zeros((n, k))
        z[arg, cols] = g
        return (z,)

    return from_op(v[arg, cols], "max_over_time", (cells,), backward_fn)


def softmax_rows(logits: Tensor) -> Tensor:
    """Row softmax with per-row max subtraction for stability: the class
    probabilities of evaluation, as a constant.  It records no node; a loss
    reads the logits themselves."""
    if logits.values.ndim != 2:
        raise ValueError(f"softmax_rows needs a 2-d tensor, got shape {logits.shape}")
    v = logits.values
    if not np.isfinite(v).all():
        raise ValueError("softmax_rows requires finite inputs")
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return constant(e / e.sum(axis=1, keepdims=True))


def finite_diff_check(f: Callable[[list[Tensor]], Tensor],
                      params: list[Tensor], eps: float) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be deterministic (no live dropout); two baseline evaluations
    are compared to detect otherwise.  The relative error for a coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base1 = f(params).item()
    base2 = f(params).item()
    if base1 != base2:
        raise ValueError("f is not deterministic: two baseline evaluations differ "
                         f"({base1!r} vs {base2!r})")
    loss = f(params)
    reset_grads(params)
    backward(loss)
    analytic = [grad_of(p).copy() for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.values.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(params).item()
            flat[i] = orig - eps
            f_minus = f(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = an_flat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
