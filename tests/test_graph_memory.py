"""What a training step's graph keeps, and for how long.

A step's graph must be unreachable once its loss is read: the next step's
forward and the epoch-end evaluation run without it, and so do the last
step's gradients.  ``backward`` consumes the graph it walks, so after it the
loss holds only its value.  Until then, a graph holds what its backward
closures captured, and what the functions they capture hold in turn; its
nodes hold no values, and no closure holds a Tensor, so an op result that
no backward reads is freed once its caller drops it.
``graphs.held_bytes`` counts the arrays a graph holds, each buffer once.  A
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

import graphs
import oracle
import toycorpus
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.textprep import TokenSequence, build_vocab


def _toy_run():
    """A two-epoch classifier run, the first frozen, in 3 steps an epoch:
    (params, the ``toycorpus.train_splits`` call that trains them)."""
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
    return params, lambda: toycorpus.train_splits(params, train_split, val_split, store,
                                                  config, rng, vocab=vocab)


def test_train_step_graph_is_gone_before_the_next_forward_and_evaluate(monkeypatch):
    params, run = _toy_run()
    watched, checks = [], []

    def released(where):
        checks.append(where)
        alive = sum(r() is not None for r in watched)
        assert alive == 0, f"{alive} arrays of the last step's graph alive at {where}"

    forward, evaluate = rcnn.forward, tr.evaluate

    def watched_forward(params, batch, training, rng):
        if training:
            released("the next forward")
        logits = forward(params, batch, training, rng)
        if training:
            watched[:] = graphs.watch(logits)
        return logits

    def watched_evaluate(*args, **kwargs):
        released("evaluate")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(rcnn, "forward", watched_forward)
    monkeypatch.setattr(tr, "evaluate", watched_evaluate)
    run()
    assert checks.count("evaluate") == 2 and checks.count("the next forward") == 6


def test_every_training_forward_runs_without_the_last_steps_gradients(monkeypatch):
    """``run_epochs`` resets the gradients before a step's forward, so the
    step before's never live beside the step's graph; the last step's are
    still there after the run."""
    params, run = _toy_run()
    named, seen = params.named(), []
    forward = rcnn.forward

    def checked_forward(params, batch, training, rng):
        if training:
            seen.append([name for name, t in named.items() if t.grad is not None])
        return forward(params, batch, training, rng)

    monkeypatch.setattr(rcnn, "forward", checked_forward)
    run()
    assert seen == [[]] * 6
    assert all(t.grad is not None for t in named.values())


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
        logits = forward(model, batch, training, rng)
        watched[:] = graphs.watch(logits)
        return logits

    monkeypatch.setattr(ft, "forward_finetune", watched_forward)
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01, batch_size=8)
    ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert len(calls) == 6


def test_each_loss_is_one_node_over_its_model_output():
    """Each model's loss is one node on its logits, the output layer's
    node: the classifier's [B x 4], the CNN's [B x 1] column."""
    config = TrainConfig(hidden_size=3, num_layers=1, sentence_dim=2, embedding_dim=4)
    rng = np.random.default_rng(5)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (9, 4)))
    params = rcnn.init_model(config, emb, rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, k) for k in (3, 1, 4)],
                               rng.normal(size=(3, 2)), np.array([0, 3, 1]))
    logits = rcnn.forward(params, batch, True, rng)
    loss = tr.weighted_cross_entropy(logits, batch.labels, np.full(4, 0.25))
    assert loss.node.parents == (logits.node,) and logits.node.op == "linear_rows"

    model = ft.build_finetune_model(emb, rng, filters_per_size=2)
    logits = ft.forward_finetune(model, rcnn.Batch.of_rows([[1, 2, 3], [4]]), True, rng)
    loss = ft.binary_cross_entropy(logits, [1, 0])
    assert loss.node.parents == (logits.node,) and logits.node.op == "linear_rows"
    assert logits.shape == (2, 1)


def test_each_bilstm_layer_is_one_node_over_its_input_and_weights(monkeypatch):
    """A two-layer training step, table unfrozen, records 13 nodes: one per
    BiLSTM layer, listing its input once, and no per-direction
    node or per-layer concat.  The two concats left are [enc; emb] and the
    sentence vectors'."""
    config = TrainConfig(hidden_size=3, num_layers=2, sentence_dim=2, embedding_dim=4,
                         dropout_bilstm=0.3, dropout_linear=0.3)
    rng = np.random.default_rng(6)
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (9, 4))),
                             rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, k) for k in (3, 1, 4)],
                               rng.normal(size=(3, 2)), np.array([0, 3, 1]))
    made, layer = [], L._bilstm_layer
    monkeypatch.setattr(L, "_bilstm_layer", lambda *args: made.append(layer(*args)) or made[-1])
    loss = tr.weighted_cross_entropy(rcnn.forward(params, batch, True, rng), batch.labels,
                                     np.full(4, 0.25))
    ops = graphs.nodes(loss)
    layers = [n for n in ops if n.op == "bilstm_layer"]
    assert len(ops) == 13 and len(layers) == 2
    assert sum(n.op == "concat" for n in ops) == 2
    for fwd, bwd in params.bilstm:
        (node,) = [n for n in layers if n.parents[1] is fwd[0]]
        (out,) = [t for t in made if t.node is node]
        assert node.parents == (node.parents[0], *fwd, *bwd) and out.shape == (8, 6)


def _classifier_step(rng, projection_tanh=False):
    """The loss of a one-layer classifier step, table unfrozen and dropout
    on."""
    config = TrainConfig(hidden_size=3, num_layers=1, sentence_dim=2, embedding_dim=4,
                         dropout_bilstm=0.3, dropout_linear=0.3,
                         projection_tanh=projection_tanh)
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (9, 4))),
                             rng)
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, k) for k in (3, 1, 4)],
                               rng.normal(size=(3, 2)), np.array([0, 3, 1]))
    return tr.weighted_cross_entropy(rcnn.forward(params, batch, True, rng), batch.labels,
                                     np.full(4, 0.25))


def test_no_backward_closure_holds_a_tensor():
    """A closure holds arrays, shapes and flags, so it pins no values it
    does not read: neither a closure cell, default, list or tuple item, nor
    a cell of a function it holds, is a Tensor."""
    rng = np.random.default_rng(12)
    ops = set()
    for loss in (_classifier_step(rng), _classifier_step(rng, projection_tanh=True)):
        assert graphs.held_tensors(loss) == []
        ops.update(n.op for n in graphs.nodes(loss))
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (9, 4)))
    model = ft.build_finetune_model(emb, rng, filters_per_size=2)
    loss = ft.binary_cross_entropy(
        ft.forward_finetune(model, rcnn.Batch.of_rows([[1, 2, 3], [4], [5, 6]]), True, rng),
        [1, 0, 1])
    assert graphs.held_tensors(loss) == []
    ops.update(n.op for n in graphs.nodes(loss))
    assert ops == {"embedding_lookup", "bilstm_layer", "dropout", "concat", "linear_rows",
                   "tanh", "max_over_time", "weighted_cross_entropy",
                   "windows", "relu", "binary_cross_entropy"}


def _results_of(monkeypatch, names):
    """Patch each ``tensor`` op in ``names`` to record, per call, a weak
    reference to the values of its (first) input and of its result."""
    def recording(op, into):
        def recorded(first, *args, **kwargs):
            out = op(first, *args, **kwargs)
            first = first[0] if isinstance(first, list) else first
            into.append((weakref.ref(first.values), weakref.ref(out.values)))
            return out
        return recorded

    calls = {name: [] for name in names}
    for name in names:
        monkeypatch.setattr(T, name, recording(getattr(T, name), calls[name]))
    return calls


def test_forward_frees_what_no_backward_reads(monkeypatch):
    """By the time ``rcnn.forward`` returns, the [enc; emb] concat, the
    projection and the max-pool are freed, though the graph is alive: the
    next node reads none of them in backward.  The output layer's input,
    which its backward reads, stays."""
    calls = _results_of(monkeypatch, ["concat", "linear_rows", "max_over_time"])
    loss = _classifier_step(np.random.default_rng(13))
    assert loss.node is not None and [len(c) for c in calls.values()] == [2, 2, 1]
    (_, context), (_, fused) = calls["concat"]
    (_, projection), (output_input, logits) = calls["linear_rows"]
    ((_, pool),) = calls["max_over_time"]
    assert [r() for r in (context, projection, pool, fused, logits)] == [None] * 5
    assert output_input() is not None


def test_cnn_keeps_no_score_matrix_once_its_forward_returns(monkeypatch):
    """Each width's [windows x filters] scores go once ``max_over_time``
    holds their argmax, while the graph, and the pooled values its rectifier
    reads, stay."""
    calls = _results_of(monkeypatch, ["max_over_time"])
    rng = np.random.default_rng(15)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-1, 1, (9, 4)))
    model = ft.build_finetune_model(emb, rng, filters_per_size=3)
    logits = ft.forward_finetune(model, rcnn.Batch.of_rows([[1, 2, 3], [4], [5, 6, 7, 8]]),
                                 True, rng)
    assert logits.node is not None and len(calls["max_over_time"]) == len(ft.KERNEL_SIZES)
    assert [scores() for scores, _ in calls["max_over_time"]] == [None] * 3
    assert all(pooled() is not None for _, pooled in calls["max_over_time"])


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
    loss = tr.weighted_cross_entropy(rcnn.forward(params, batch, True, rng), batch.labels,
                                     np.full(4, 0.25))

    # what a backward reads: per direction gates and cells, then both
    # directions' h; a dropout's output only where the next layer reads it
    per_layer = 2 * (4 * h + h) + 2 * h
    ctx = 2 * h + d                            # [h_f; h_b; w_i] after dropout
    floats = n * (d + layers * per_layer + (layers - 1) * 2 * h + ctx)  # lookup .. ctx
    floats += b * ((h + s) + 4)                # the output layer's input, the loss's gradient
    floats += layers * 2 * 2 * b * h           # each direction's zero h and c before step 0
    masks = n * (layers * 2 * h + ctx) + b * (h + s)
    index = 8 * n * (2 + 2)                    # src per direction, lookup ids/mask
    budget = 8 * floats + masks + index + 4096  # per-row indices
    held = graphs.held_bytes(loss)
    assert 0.9 * budget < held <= budget, (held, budget)
    T.backward(loss)  # the walk consumes the graph: it holds nothing
    assert graphs.nodes(loss) == [loss.node] and graphs.held_bytes(loss) == 0


def test_scan_backward_allocates_no_second_gates_array():
    """One scan's backward peaks below one [N x 4h] array: it writes its
    gate gradients over the gates forward kept, gathers the output gradient
    once, and reads the previous cells as slices of the cells it kept."""
    rng = np.random.default_rng(11)
    h, inp, lengths = 32, 4, np.array([40, 3, 25, 40, 1, 17, 30, 9])
    n = int(lengths.sum())
    direction = [T.Tensor(rng.uniform(-0.5, 0.5, shape))
                 for shape in ((4 * h, inp), (4 * h, h), (4 * h,))]
    (src, _), steps = L._packed_order(lengths)
    back = L._scan(rng.normal(size=(n, inp)), src, steps, direction, np.empty((n, h)), True)
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
    kept = [c.cell_contents for c in pooled.node.backward_fn.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    # the [B x k] argmax cells, the column numbers, and nothing [N x k]
    assert sorted(a.shape for a in kept) == sorted([(k,), (len(lengths), k)])
    assert all(a.dtype == np.int64 for a in kept)
    T.backward(oracle.sum_all(pooled))
    npt.assert_array_equal(cells.grad, cells.values == np.repeat(pooled.values,
                                                                 lengths, axis=0))


def test_unfrozen_step_allocates_nothing_table_sized():
    """backward leaves the table a RowGrad, and backward, clip and Adam
    together allocate far less than one [V x d] array on the step that
    makes the table's moments: they hold only the touched rows.  The next
    step makes them table-shaped, which shows that the tracer sees
    table-sized arrays."""
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
        assert ("embedding.table" in state.rows) == (len(peaks) == 1)
    table_bytes = emb.table.values.nbytes
    assert peaks[0] < table_bytes / 4 and peaks[1] > 2 * table_bytes, (peaks, table_bytes)
