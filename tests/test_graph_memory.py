"""What a training step's graph keeps, and for how long.

A step's graph must be unreachable once its loss is read: the next step's
forward and the epoch-end evaluation run without it.  ``backward`` consumes
the graph it walks, so after it the loss holds only its value.  Until then, a
graph holds its nodes' values plus the arrays its backward closures
captured, and the arrays those closures reach through the functions they
capture; ``held_bytes`` counts all of them, each buffer once.  A
mixed-length step must fit a budget derived from the layer shapes, in which
a BiLSTM layer keeps only the gates and cell states of its two directions
and its one output, and a dropout only a one-byte keep-mask.  A BiLSTM
layer is one node.  The gradient of the embedding table, and what clipping
and Adam make of it, stays the size of the rows a step touched.
"""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt

import oracle
import toycorpus
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.textprep import TokenSequence, build_vocab


def _nodes(*roots):
    """Every tensor reachable from ``roots`` through parent edges."""
    seen, stack, out = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.parents)
    return out


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _captured(fn, seen: set) -> list[np.ndarray]:
    """The ndarrays a function holds in its closure cells and default
    arguments, directly, in a list or tuple, or through a function it holds
    there in turn."""
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    out = []
    held = [c.cell_contents for c in fn.__closure__ or ()] + list(fn.__defaults__ or ())
    for value in held:
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                out.append(item)
            elif hasattr(item, "__code__"):
                out += _captured(item, seen)
    return out


def held_bytes(root) -> int:
    """Bytes the graph under ``root`` keeps alive: node values and the
    ndarrays its backward closures reach (``_captured``), each underlying
    buffer counted once.  Parameters (leaves that take gradients) belong to
    the model."""
    nodes = _nodes(root)
    params = {id(_base(n.values)) for n in nodes if n.requires_grad and n.backward_fn is None}
    held, seen = {}, set()
    for node in nodes:
        arrays = [node.values]
        if node.backward_fn is not None:
            arrays += _captured(node.backward_fn, seen)
        for a in arrays:
            b = _base(a)
            if id(b) not in params:
                held[id(b)] = b
    return sum(b.nbytes for b in held.values())


def _watch(*roots):
    """Weak references to the values of every op result under ``roots``;
    only the graph holds those arrays."""
    return [weakref.ref(n.values) for n in _nodes(*roots) if n.op is not None]


def test_train_step_graph_is_gone_before_the_next_forward_and_evaluate(monkeypatch):
    config = TrainConfig(lr=0.01, batch_size=8, epochs=2, hidden_size=4, num_layers=2,
                         sentence_dim=3, embedding_dim=4, freeze_embedding_epochs=1,
                         dropout_bilstm=0.3, dropout_linear=0.3)
    train_split = toycorpus.make_split("train", 20, seed=0)
    val_split = toycorpus.make_split("val", 8, seed=1)
    vocab = toycorpus.vocab_for(train_split, val_split)
    store = toycorpus.store_for([train_split, val_split], 3, seed=2)
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 4)))
    params = rcnn.init_model(config, emb, rng)
    watched, checks = [], []

    def released(where):
        checks.append(where)
        alive = sum(r() is not None for r in watched)
        assert alive == 0, f"{alive} arrays of the last step's graph alive at {where}"

    forward, evaluate = rcnn.forward, tr.evaluate

    def watched_forward(params, batch, training, rng):
        if training:
            released("the next forward")
        logits, probs = forward(params, batch, training, rng)
        if training:
            watched[:] = _watch(logits, probs)
        return logits, probs

    def watched_evaluate(*args, **kwargs):
        released("evaluate")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(rcnn, "forward", watched_forward)
    monkeypatch.setattr(tr, "evaluate", watched_evaluate)
    toycorpus.train_splits(params, train_split, val_split, store, config, rng, vocab=vocab)
    assert checks.count("evaluate") == 2 and checks.count("the next forward") == 6


def test_finetune_step_graph_is_gone_before_the_next_forward(monkeypatch):
    corpus = [(f"good movie {i}" if i % 2 else f"bad plot {i}", i % 2) for i in range(20)]
    vocab = build_vocab([TokenSequence(t.split()) for t, _ in corpus])
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 6)))
    model = ft.build_finetune_model(emb, rng, filters_per_size=4)
    watched, calls = [], []
    forward = ft.forward_finetune

    def watched_forward(model, batch, training, rng):
        calls.append(1)
        alive = sum(r() is not None for r in watched)
        assert alive == 0, f"{alive} arrays of the last step's graph alive"
        probs = forward(model, batch, training, rng)
        watched[:] = _watch(probs)
        return probs

    monkeypatch.setattr(ft, "forward_finetune", watched_forward)
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01, batch_size=8)
    ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert len(calls) == 6


def test_each_loss_is_one_node_over_its_model_output():
    """The classifier's loss is one node on the softmax output, and the
    CNN's is one node on the one node that turns its logits into [B]
    probabilities."""
    config = TrainConfig(hidden_size=3, num_layers=1, sentence_dim=2, embedding_dim=4)
    rng = np.random.default_rng(5)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (9, 4)))
    params = rcnn.init_model(config, emb, rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, k) for k in (3, 1, 4)],
                               rng.normal(size=(3, 2)), np.array([0, 3, 1]))
    _, probs = rcnn.forward(params, batch, True, rng)
    loss = tr.weighted_cross_entropy(probs, batch.labels, tr.ClassWeights(np.full(4, 0.25)))
    assert loss.parents == (probs,) and probs.op == "softmax_rows"

    model = ft.build_finetune_model(emb, rng, filters_per_size=2)
    probs = ft.forward_finetune(model, rcnn.Batch.of_rows([[1, 2, 3], [4]]), True, rng)
    loss = ft.binary_cross_entropy(probs, [1, 0])
    assert loss.parents == (probs,) and len(probs.parents) == 1
    assert probs.parents[0].op == "linear_rows" and probs.shape == (2,)


def test_each_bilstm_layer_is_one_node_over_its_input_and_weights():
    """A two-layer training step, table unfrozen, records 14 nodes: one per
    BiLSTM layer, listing its input once per direction, and no per-direction
    node or per-layer concat.  The two concats left are [enc; emb] and the
    sentence vectors'."""
    config = TrainConfig(hidden_size=3, num_layers=2, sentence_dim=2, embedding_dim=4,
                         dropout_bilstm=0.3, dropout_linear=0.3)
    rng = np.random.default_rng(6)
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (9, 4))),
                             rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, k) for k in (3, 1, 4)],
                               rng.normal(size=(3, 2)), np.array([0, 3, 1]))
    _, probs = rcnn.forward(params, batch, True, rng)
    loss = tr.weighted_cross_entropy(probs, batch.labels, tr.ClassWeights(np.full(4, 0.25)))
    ops = [n for n in _nodes(loss) if n.op is not None]
    layers = [n for n in ops if n.op == "bilstm_layer"]
    assert len(ops) == 14 and len(layers) == 2
    assert sum(n.op == "concat" for n in ops) == 2
    for fwd, bwd in params.bilstm:
        (node,) = [n for n in layers if n.parents[2] is fwd[0]]
        x = node.parents[0]
        assert node.parents == (x, x, *fwd, *bwd) and node.shape == (8, 6)


def test_step_graph_holds_gates_cells_outputs_and_byte_masks():
    h, d, s, layers = 16, 8, 3, 2
    config = TrainConfig(hidden_size=h, num_layers=layers, sentence_dim=s, embedding_dim=d,
                         dropout_bilstm=0.3, dropout_linear=0.3)
    lengths = [9, 1, 14, 5, 14, 3, 7, 2]
    n, b = sum(lengths), len(lengths)
    rng = np.random.default_rng(3)
    table = np.vstack([np.zeros(d), rng.uniform(-0.5, 0.5, (20, d))])
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(table), rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 21, k) for k in lengths],
                               rng.normal(size=(b, s)), rng.integers(0, 4, b))
    _, probs = rcnn.forward(params, batch, True, rng)
    loss = tr.weighted_cross_entropy(probs, batch.labels,
                                     tr.ClassWeights(np.full(4, 0.25)))

    per_layer = 2 * (4 * h + h) + 2 * h + 2 * h  # per direction gates and cells; output, dropout
    ctx = 2 * h + d                            # [h_f; h_b; w_i]
    floats = n * (d + layers * per_layer + 2 * ctx + h)  # lookup .. projection
    floats += b * (h + 3 * (h + s) + 8 + 5)    # pool .. softmax, then the loss
    masks = n * (layers * 2 * h + ctx) + b * (h + s)
    index = 8 * n * (2 * 2 + 2)                # src/prev per direction, lookup ids/mask
    budget = 8 * floats + masks + index + 4096  # offsets and per-row indices
    held = held_bytes(loss)
    assert 0.9 * budget < held <= budget, (held, budget)
    T.backward(loss)  # the walk consumes the graph: only the loss value is left
    assert held_bytes(loss) == loss.values.nbytes


def test_scan_backward_allocates_no_second_gates_array():
    """One scan's backward peaks below one [N x 4h] array: it writes its
    gate gradients over the gates forward kept, and reads the output
    gradient and the previous cells a step at a time."""
    rng = np.random.default_rng(11)
    h, inp, lengths = 32, 4, np.array([40, 3, 25, 40, 1, 17, 30, 9])
    n = int(lengths.sum())
    direction = [T.Tensor(rng.uniform(-0.5, 0.5, shape))
                 for shape in ((4 * h, inp), (4 * h, h), (4 * h,))]
    back = L._scan(rng.normal(size=(n, inp)), L._packed_order(lengths, False), direction,
                   np.empty((n, h)), True)
    g = rng.normal(size=(n, h))
    tracemalloc.start()
    try:
        back(g, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 4 * h * 8, (peak, n * 4 * h * 8)


def test_max_over_time_keeps_its_argmax_and_not_its_input():
    rng = np.random.default_rng(4)
    lengths, k = [5, 1, 9, 3], 7
    cells = T.Tensor(rng.normal(size=(sum(lengths), k)), requires_grad=True)
    pooled = T.max_over_time(cells, lengths)
    kept = [c.cell_contents for c in pooled.backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    # the [B x k] argmax cells, the column numbers, and nothing [N x k]
    assert sorted(a.shape for a in kept) == sorted([(k,), (len(lengths), k)])
    assert all(a.dtype == np.int64 for a in kept)
    T.backward(oracle.sum_all(pooled))
    npt.assert_array_equal(cells.grad, cells.values == np.repeat(pooled.values,
                                                                 lengths, axis=0))


def test_unfrozen_step_allocates_nothing_table_sized():
    """backward leaves the table a RowGrad, and backward, clip and Adam
    together allocate far less than one [V x d] array, on the step that
    makes the table's moments as on the next: they hold only the touched
    rows.  A dense table gradient, which makes the moments table-shaped,
    shows that the tracer sees table-sized arrays."""
    rng = np.random.default_rng(9)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (50_000, 10)))
    model = ft.build_finetune_model(emb, rng, filters_per_size=4)
    named = model.named()
    rows = [rng.integers(1, 50_000, n) for n in (5, 3, 7, 2)]
    state, peaks = tr.AdamState(), []
    for _ in range(2):
        loss = ft.binary_cross_entropy(ft.forward_finetune(model, rcnn.Batch.of_rows(rows), True, rng),
                                       [1, 0, 1, 0])
        T.reset_grads(named.values())
        tracemalloc.start()
        try:
            T.backward(loss)
            assert isinstance(emb.table.grad, T.RowGrad)
            assert tr.clip_gradients(named, 1e-3) < 1.0  # the scaling runs too
            tr.adam_step(state, named, 0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table_bytes = emb.table.values.nbytes
    assert "embedding.table" in state.rows
    assert peaks[0] < table_bytes / 4 and peaks[1] < table_bytes / 4, (peaks, table_bytes)
    T.reset_grads(named.values())
    emb.table.grad = np.ones_like(emb.table.values)
    tracemalloc.start()
    try:
        tr.adam_step(state, named, 0.01)
        dense_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "embedding.table" not in state.rows
    assert dense_peak > 2 * table_bytes, (dense_peak, table_bytes)
