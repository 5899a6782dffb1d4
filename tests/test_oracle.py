"""The batched engine against the per-example, per-timestep oracle.

With dropout off, the batched model and ``oracle`` must agree on logits and
on every parameter gradient.  Tolerances are fixed beforehand from float64
rounding: the two paths sum the same terms in a different order (one product
over the batch against one per example and step), which moves results by a
few ulps, far inside 1e-10.
"""

import copy

import numpy as np
import numpy.testing as npt
import pytest

import oracle
import toycorpus
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig

CONFIG = TrainConfig(hidden_size=5, num_layers=2, sentence_dim=3, embedding_dim=4,
                     dropout_bilstm=0.0, dropout_linear=0.0)
WEIGHTS = np.array([0.1, 0.2, 0.3, 0.4])
# unsorted, with a length-1 row and two rows at the batch maximum
LENGTHS = [4, 1, 7, 3, 7, 2]


def _model(seed, config=CONFIG, vocab=11):
    rng = np.random.default_rng(seed)
    table = np.vstack([np.zeros(config.embedding_dim),
                       rng.uniform(-0.5, 0.5, (vocab - 1, config.embedding_dim))])
    return rcnn.init_model(config, L.EmbeddingMatrix.from_array(table), rng), rng


def _batch(rng, lengths, vocab=11, sentence_dim=3):
    rows = [rng.integers(1, vocab, n) for n in lengths]
    sv = rng.normal(size=(len(lengths), sentence_dim)) if sentence_dim else None
    return rcnn.Batch.of_rows(rows, sv, rng.integers(0, 4, len(lengths)))


def _logits_and_grads(params, batch, logits_fn):
    named = params.named()
    T.reset_grads(named.values())
    logits = logits_fn()
    T.backward(tr.weighted_cross_entropy(T.softmax_rows(logits), batch.labels, WEIGHTS))
    return logits.values, {n: T.grad_of(t).copy() for n, t in named.items()}


def _batched(params, batch):
    return _logits_and_grads(params, batch,
                             lambda: rcnn.forward(params, batch, False, None)[0])


@pytest.mark.parametrize("seed,tanh,frozen", [(0, False, False), (1, True, False),
                                              (2, False, True)])
def test_rcnn_matches_per_example_oracle(seed, tanh, frozen):
    params, rng = _model(seed, CONFIG.replace(projection_tanh=tanh))
    params.embedding.table.requires_grad = not frozen
    batch = _batch(rng, LENGTHS)
    logits, grads = _batched(params, batch)
    want_logits, want_grads = _logits_and_grads(
        params, batch, lambda: oracle.rcnn_logits(params, batch))
    npt.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)
    for name, want in want_grads.items():
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)
    assert np.abs(grads["bilstm0.fwd.u"]).max() > 0
    assert (np.abs(grads["embedding.table"]).max() > 0) != frozen


def test_finetune_cnn_matches_per_example_oracle():
    rng = np.random.default_rng(4)
    table = np.vstack([np.zeros(3), rng.uniform(-0.5, 0.5, (8, 3))])
    model = ft.build_finetune_model(L.EmbeddingMatrix.from_array(table), rng,
                                    filters_per_size=4)
    # rows shorter than the widest kernel take the zero-padded-window path
    batch = rcnn.Batch.of_rows([rng.integers(1, 9, n) for n in (5, 1, 2, 6, 3)])
    named = model.named()

    def run(fn):
        T.reset_grads(named.values())
        probs = fn()
        T.backward(ft.binary_cross_entropy(probs, [1, 0, 1, 0, 0]))
        return probs.values, {n: T.grad_of(t).copy() for n, t in named.items()}

    probs, grads = run(lambda: ft.forward_finetune(model, batch, False, None))
    want_probs, want_grads = run(lambda: oracle.finetune_probs(model, batch))
    npt.assert_allclose(probs, want_probs, rtol=0, atol=1e-10)
    for name, want in want_grads.items():
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)


def test_both_models_match_the_oracle_on_a_batch_from_make_batch():
    """``make_batch``'s packed rows of 1 to 7 tokens, several shorter than
    the CNN's widest kernel, through both models in eval mode: the CNN's
    probabilities equal the per-example oracle's byte for byte; the RCNN's
    logits, whose oracle sums its products in another order, agree to 1e-10."""
    params, rng = _model(8)
    lengths = [1, 2, 7, 1, 3, 2]
    examples = [tr.EncodedExample(f"c{i}", rng.integers(1, 11, n), i % 4)
                for i, n in enumerate(lengths)]
    store = toycorpus.store_of({ex.id: rng.normal(size=3) for ex in examples})
    batch = tr.make_batch(examples, store, 3)
    model = ft.build_finetune_model(params.embedding, rng, filters_per_size=4)
    assert max(ft.KERNEL_SIZES) == 3
    with T.no_grad():
        npt.assert_array_equal(ft.forward_finetune(model, batch, False, None).values,
                               oracle.finetune_probs(model, batch).values)
        npt.assert_allclose(rcnn.forward(params, batch, False, None)[0].values,
                            oracle.rcnn_logits(params, batch).values, rtol=0, atol=1e-10)


def test_rows_match_each_row_run_alone():
    """A row's eval-mode RCNN logits and CNN probability do not depend on the
    other rows packed next to it."""
    params, rng = _model(5)
    batch = _batch(rng, LENGTHS)
    with T.no_grad():
        together = rcnn.forward(params, batch, False, None)[0].values
        for i, row in enumerate(oracle.rows_of(batch)):
            alone = rcnn.Batch.of_rows([row], batch.sentence_vectors[i:i + 1])
            npt.assert_allclose(rcnn.forward(params, alone, False, None)[0].values[0],
                                together[i], rtol=0, atol=1e-12)

        model = ft.build_finetune_model(params.embedding, rng, filters_per_size=4)
        rows = [rng.integers(1, 11, n) for n in (5, 1, 2, 6, 3)]
        probs = ft.forward_finetune(model, rcnn.Batch.of_rows(rows), False, None).values
        for row, p in zip(rows, probs):
            alone = ft.forward_finetune(model, rcnn.Batch.of_rows([row]), False, None)
            npt.assert_allclose(alone.values, [p], rtol=0, atol=1e-12)


def test_graph_holds_valid_cells_only(monkeypatch):
    """A training step records values for each row's own cells: fifteen
    2-token rows beside one 40-token row record under half the bytes of
    sixteen 40-token rows."""
    recorded = []
    record = T.from_op

    def counted(*args):
        out = record(*args)
        if out.requires_grad:
            recorded[-1] += out.values.nbytes
        return out

    monkeypatch.setattr(T, "from_op", counted)
    params, rng = _model(7, CONFIG.replace(dropout_bilstm=0.3, dropout_linear=0.3))
    for lengths in ([2] * 15 + [40], [40] * 16):
        recorded.append(0)
        batch = _batch(rng, lengths)
        _, probs = rcnn.forward(params, batch, True, rng)
        T.backward(tr.weighted_cross_entropy(probs, batch.labels, WEIGHTS))
    assert recorded[0] < recorded[1] / 2


def test_forward_is_one_scan_per_layer_and_direction(monkeypatch):
    """lstm_step runs once per step of each scan, and a training step records
    a graph whose size does not grow with batch size or length."""
    calls, nodes = [], []
    step, record = L.lstm_step, T.from_op
    monkeypatch.setattr(L, "lstm_step", lambda *a: calls.append(1) or step(*a))

    def counted(*args):
        out = record(*args)
        nodes.append(out.requires_grad)
        return out

    monkeypatch.setattr(T, "from_op", counted)
    params, rng = _model(6, CONFIG.replace(dropout_bilstm=0.3, dropout_linear=0.3))
    sizes = []
    for lengths in (LENGTHS, [9] * 16):
        calls.clear()
        nodes.clear()
        batch = _batch(rng, lengths)
        _, probs = rcnn.forward(params, batch, True, rng)
        tr.weighted_cross_entropy(probs, batch.labels, WEIGHTS)
        assert len(calls) == 2 * CONFIG.num_layers * max(lengths)
        sizes.append(sum(nodes))
    assert sizes[0] == sizes[1] < 100


@pytest.mark.parametrize("reverse", [False, True])
def test_scan_bytes_match_the_transposed_view_product(monkeypatch, reverse):
    """At the paper's hidden size, the contiguous U^T product leaves a
    one-layer encoding and the four gradients of the direction read through
    its half byte-identical, at every count of active rows from 64 down to
    2."""
    rng = np.random.default_rng(50)
    hidden, inp = 200, 16
    # two rows of 63 cells: step t has 64 - t rows active, never one
    lengths = rng.permutation(np.r_[np.arange(1, 64), 63])
    x = T.Tensor(rng.normal(size=(lengths.sum(), inp)), requires_grad=True)
    fwd, bwd = ([T.Tensor(rng.uniform(-0.1, 0.1, shape), requires_grad=True)
                 for shape in ((4 * hidden, inp), (4 * hidden, hidden), (4 * hidden,))]
                for _ in range(2))
    probe = np.zeros((lengths.sum(), 2 * hidden))
    probe[:, hidden * reverse:hidden * (reverse + 1)] = rng.normal(size=(lengths.sum(), hidden))
    direction = [x] + (bwd if reverse else fwd)

    def run():
        T.reset_grads(direction)
        out = L.bilstm_encode([(fwd, bwd)], x, lengths, 0.0, False, None)
        T.backward(oracle.sum_all(oracle.mul(out, T.constant(probe))))
        return [out.values.tobytes()] + [t.grad.tobytes() for t in direction]

    got = run()
    step = L.lstm_step
    # the Fortran-ordered copy of U^T is the transposed view of a C-ordered U
    monkeypatch.setattr(L, "lstm_step", lambda gates, h, c, ut:
                        step(gates, h, c, np.asfortranarray(ut)))
    assert got == run()


def _probabilities(rng, shape):
    """Probabilities in [0, 1]: about one in five far below the 1e-12 floor
    (down to 1e-20), some at the floor itself, some exactly 0, and some
    within 1e-11 of 1 or exactly 1, so that 1 - p is below the floor too."""
    p = rng.uniform(0.0, 1.0, shape)
    for share, draw in ((0.2, lambda n: 10.0 ** rng.uniform(-20, -12, n)),
                        (0.03, lambda n: np.full(n, tr.LOG_FLOOR)),
                        (0.05, np.zeros),
                        (0.1, lambda n: 1.0 - 10.0 ** rng.uniform(-20, -11, n))):
        pick = rng.random(shape) < share
        p[pick] = draw(int(pick.sum()))
    return p


def _loss_bytes(loss_fn, values, *args):
    """The bytes of a loss on a leaf holding ``values``, and of its gradient."""
    probs = T.Tensor(values.copy(), requires_grad=True)
    loss = loss_fn(probs, *args)
    T.backward(loss)
    return loss.values.tobytes(), probs.grad.tobytes()


def test_fused_losses_match_their_chains_byte_for_byte():
    """Each loss node against the chain of single ops it replaced, on
    seeded batches of 1 to 69 rows, every class label among them, with
    probabilities below the floor and BCE probabilities of exactly 0 and 1."""
    rng = np.random.default_rng(61)
    labels_seen, below_floor, exact = set(), 0, set()
    for _ in range(400):
        b = int(rng.integers(1, 70))
        probs = _probabilities(rng, (b, 4))
        labels = rng.integers(0, 4, b)
        weights = rng.dirichlet(np.ones(4))
        assert (_loss_bytes(tr.weighted_cross_entropy, probs, labels, weights)
                == _loss_bytes(oracle.weighted_cross_entropy_chain, probs, labels, weights))
        labels_seen.update(labels.tolist())
        below_floor += int((probs[np.arange(b), labels] < tr.LOG_FLOOR).sum())

        p, y = _probabilities(rng, b), rng.integers(0, 2, b)
        assert (_loss_bytes(ft.binary_cross_entropy, p, y)
                == _loss_bytes(oracle.binary_cross_entropy_chain, p, y))
        exact.update(p[(p == 0.0) | (p == 1.0)].tolist())
    assert labels_seen == {0, 1, 2, 3} and below_floor > 100 and exact == {0.0, 1.0}


def test_models_with_fused_losses_match_their_chains_byte_for_byte():
    """Every parameter gradient of both models, with dropout on, through the
    loss node and through the chain; the CNN's chain also ends in the
    sigmoid and reshape nodes that ``forward_finetune`` no longer records."""
    params, rng = _model(6)
    batch = _batch(rng, LENGTHS)
    model = ft.build_finetune_model(params.embedding, rng, filters_per_size=4)
    rows = [rng.integers(1, 11, n) for n in (5, 1, 2, 6, 3)]
    labels = [1, 0, 1, 0, 0]

    def rcnn_grads(loss_fn):
        T.reset_grads(params.named().values())
        _, probs = rcnn.forward(params, batch, True, np.random.default_rng(7))
        T.backward(loss_fn(probs, batch.labels, WEIGHTS))
        return {n: T.grad_of(t).tobytes() for n, t in params.named().items()}

    def cnn_logits(batch, rng):
        """``forward_finetune`` up to the output layer's [B x 1] logits."""
        cells = L.embedding_lookup(model.emb, batch.ids)
        pooled = L.dropout(L.conv1d_over_time(model.bank, cells, batch.valid_lengths),
                           ft.DROPOUT_RATE, True, rng)
        return T.linear_rows(pooled, model.tensors["output.w"], model.tensors["output.b"])

    def cnn_grads(chain):
        T.reset_grads(model.named().values())
        batch, rng = rcnn.Batch.of_rows(rows), np.random.default_rng(8)
        if chain:
            probs = oracle.reshape(oracle.sigmoid(cnn_logits(batch, rng)), (len(rows),))
            loss = oracle.binary_cross_entropy_chain(probs, labels)
        else:
            loss = ft.binary_cross_entropy(ft.forward_finetune(model, batch, True, rng), labels)
        T.backward(loss)
        return {n: T.grad_of(t).tobytes() for n, t in model.named().items()}

    assert rcnn_grads(tr.weighted_cross_entropy) == rcnn_grads(
        oracle.weighted_cross_entropy_chain)
    assert cnn_grads(False) == cnn_grads(True)


def _twin_params(shapes, seed):
    rng = np.random.default_rng(seed)
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    return [{name: T.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
            for _ in range(2)]


# rows of "table" (100 values each) at and after the rows that straddle a block boundary
BOUNDARY_ROWS = [0, tr.ADAM_BLOCK // 100, tr.ADAM_BLOCK // 100 + 1,
                 2 * tr.ADAM_BLOCK // 100, 2 * tr.ADAM_BLOCK // 100 + 1, 699]


def _row_grad(rng, step):
    """A repeated row, the block-boundary rows, row 100 at step 1 only,
    and a few random rows, at magnitudes from 1e-200 to 1e160."""
    rows = np.array(BOUNDARY_ROWS + [5, 327, 5] + ([100] if step == 1 else [])
                    + rng.integers(101, 700, 6).tolist())
    rows = rng.permutation(rows)
    values = rng.normal(size=(rows.size, 100)) * 10.0 ** rng.uniform(-200, 160, (rows.size, 1))
    return T.RowGrad(rows, values)


def _full_moments(state, name, shape):
    """``name``'s (m, v) in the parameter's shape: row-held moments
    scattered into zeros, parameter-shaped ones as they are."""
    if name not in state.rows:
        return state.m[name], state.v[name]
    full = [np.zeros(shape), np.zeros(shape)]
    for dense, held in zip(full, (state.m[name], state.v[name])):
        assert held.shape == (state.rows[name].size,) + shape[1:], name
        dense[state.rows[name]] = held
    return tuple(full)


def _covering_grad(rng, step):
    """Rows of a (12, 4) table: two, then a repeat plus a row whose gradient
    sums to zeros (one -0.0 among them), then none, then three more rows,
    which make the touched set half the rows; then one row a step."""
    if step == 3:
        return None
    rows = {1: [3, 1], 2: [1, 0, 0], 4: [5, 2, 4]}.get(step, [5])
    values = rng.normal(size=(len(rows), 4))
    if step == 2:
        values[1] = [0.5, -0.0, 0.0, 1.0]
        values[2] = [-0.5, -0.0, -0.0, -1.0]
    return T.RowGrad(np.array(rows), values)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_adam_matches_the_whole_array_oracle_byte_for_byte():
    block = tr.ADAM_BLOCK
    shapes = {"below": (block - 1,), "block": (block,), "above": (block + 1,),
              "matrix": (3, block // 2), "bias": (1,), "never": (5,),
              "stops": (block + 1,), "zero": (4, 2), "table": (700, 100),
              "late": (40, 3), "covered": (12, 4), "densified": (9, 3)}
    blocked, whole = _twin_params(shapes, seed=40)
    for named in (blocked, whole):  # rows 1 and 2 of the table are never touched
        named["table"].values[1, :50] = -0.0
        named["table"].values[2, ::7] = np.nan
    state, want_state = tr.AdamState(), tr.AdamState()
    rng = np.random.default_rng(41)
    stops_m, table_m = [], []
    for step, lr in enumerate([0.01, 0.0005, 0.1, 0.0005, 0.002, 0.01], start=1):
        for name, shape in shapes.items():
            if name == "never" or (name == "stops" and step > 2) or (name == "late" and step < 3):
                grad = None
            elif name == "zero":
                grad = np.zeros(shape)
            elif name == "table":
                grad = _row_grad(rng, step)
            elif name == "late":  # row-sparse, with moments made at step 3
                grad = T.RowGrad(np.array([39, 0, 39]), rng.normal(size=(3, 3)))
            elif name == "covered":
                grad = _covering_grad(rng, step)
            elif name == "densified":  # row-sparse twice, then dense, then row-sparse
                grad = (rng.normal(size=shape) if step == 3
                        else T.RowGrad(np.array([step % 5]), rng.normal(size=(1, 3))))
            else:  # magnitudes from underflow in g*g to overflow in v
                grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-200, 160, shape)
            for named in (blocked, whole):
                named[name].grad = None if grad is None else copy.deepcopy(grad)
        tr.adam_step(state, blocked, lr)
        oracle.adam_step(want_state, whole, lr)
        assert state.t == want_state.t == step
        for name, shape in shapes.items():
            assert blocked[name].values.tobytes() == whole[name].values.tobytes(), name
            if name in state.m:
                m, v = _full_moments(state, name, shape)
                assert m.tobytes() == want_state.m[name].tobytes(), name
                assert v.tobytes() == want_state.v[name].tobytes(), name
            else:  # the oracle's moments for a parameter never given a gradient
                assert not (want_state.m[name].any() or want_state.v[name].any()), name
        assert ("late" in state.m) == (step >= 3)
        # row-held moments until the touched rows reach a third or a dense gradient comes
        assert set(state.rows) == {"table"} | ({"covered"} if step < 4 else set()) \
            | ({"densified"} if step < 3 else set()) | ({"late"} if step >= 3 else set())
        assert state.rows["table"].size < 700
        stops_m.append(state.m["stops"].copy())
        table_m.append(_full_moments(state, "table", shapes["table"])[0][100].copy())
    assert "never" not in state.m and "never" not in state.v
    npt.assert_array_equal(blocked["never"].values, whole["never"].values)
    # with no gradient after step 2, the moments keep decaying, so it keeps moving
    npt.assert_array_equal(stops_m[3], stops_m[2] * tr.ADAM_BETA1)
    # so does a table row touched once
    npt.assert_array_equal(table_m[2], table_m[1] * tr.ADAM_BETA1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_adam_matches_the_oracle_on_seeded_row_sparse_tables():
    """30 seeded tables of -0.0, NaN and normal values, 12 steps each, with
    no gradient, row gradients (repeated, empty, summing to zeros, from
    1e-200 to 1e160) and now and then a dense one: the parameters and the
    moments keep the whole-array oracle's bytes."""
    rng = np.random.default_rng(46)
    for case in range(30):
        shape = (int(rng.integers(1, 60)), int(rng.integers(1, 5)))
        blocked, whole = _twin_params({"t": shape}, seed=100 + case)
        kinds = rng.random(shape)
        for named in (blocked, whole):
            named["t"].values[kinds < 0.1] = -0.0
            named["t"].values[kinds > 0.95] = np.nan
        state, want_state = tr.AdamState(), tr.AdamState()
        for _ in range(12):
            draw = rng.random()
            if draw < 0.15:
                grad = None
            elif draw < 0.2:
                grad = rng.normal(size=shape)
            else:
                rows = rng.integers(0, shape[0], int(rng.integers(0, 4)))
                values = rng.normal(size=(rows.size, shape[1])) \
                    * 10.0 ** rng.uniform(-200, 160, (rows.size, 1))
                if draw < 0.3:
                    values = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)
                grad = T.RowGrad(rows, values)
            for named in (blocked, whole):
                named["t"].grad = None if grad is None else copy.deepcopy(grad)
            tr.adam_step(state, blocked, 0.01)
            oracle.adam_step(want_state, whole, 0.01)
            assert blocked["t"].values.tobytes() == whole["t"].values.tobytes(), case
            if "t" in state.m:
                m, v = _full_moments(state, "t", shape)
                assert m.tobytes() == want_state.m["t"].tobytes(), case
                assert v.tobytes() == want_state.v["t"].tobytes(), case


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_clip_matches_the_whole_array_oracle_byte_for_byte():
    shapes = {"a": (tr.ADAM_BLOCK + 1,), "none": (7,), "b": (3, 5), "bias": (1,)}
    rng = np.random.default_rng(42)
    for scale in (1e-3, 1.0, 1e3, 1e160):  # under the norm, over it, overflowing
        clipped, whole = _twin_params(shapes, seed=43)
        for name, shape in shapes.items():
            grad = None if name == "none" else rng.normal(size=shape) * scale
            for named in (clipped, whole):
                named[name].grad = None if grad is None else grad.copy()
        factor = tr.clip_gradients(clipped, 5.0)
        assert factor.hex() == oracle.clip_gradients(whole, 5.0).hex()
        assert clipped["none"].grad is None
        for name in ("a", "b", "bias"):
            assert clipped[name].grad.tobytes() == whole[name].grad.tobytes()
    clipped["b"].grad[1, 2] = np.inf
    whole["b"].grad[1, 2] = np.inf
    with pytest.raises(ValueError) as want:
        oracle.clip_gradients(whole, 5.0)
    with pytest.raises(ValueError) as err:
        tr.clip_gradients(clipped, 5.0)
    assert str(err.value) == str(want.value) == "non-finite gradient in parameter 'b'"


def test_clip_scales_a_row_sparse_gradient_over_its_touched_rows():
    """A RowGrad is scaled row by row.  Its squares sum over the touched
    rows alone, in another order than the oracle's dense sum, so the factors
    agree to rounding, not to the byte."""
    rng = np.random.default_rng(44)
    sparse, whole = _twin_params({"table": (9, 4), "b": (3,)}, seed=45)
    values = rng.normal(size=(4, 4)) * 10.0
    grad = T.RowGrad(np.array([7, 2, 7, 4]), values)
    b_grad = rng.normal(size=3)
    sparse["table"].grad, sparse["b"].grad = grad, b_grad.copy()
    whole["table"].grad, whole["b"].grad = T.grad_of(sparse["table"]), b_grad.copy()
    factor = tr.clip_gradients(sparse, 5.0)
    assert factor < 1.0
    npt.assert_allclose(factor, oracle.clip_gradients(whole, 5.0), rtol=1e-15)
    clipped = sparse["table"].grad
    assert isinstance(clipped, T.RowGrad)
    npt.assert_array_equal(clipped.rows, [2, 4, 7])
    summed = np.zeros((9, 4))
    np.add.at(summed, [7, 2, 7, 4], values)
    assert clipped.values.tobytes() == (summed[[2, 4, 7]] * factor).tobytes()
    npt.assert_allclose(T.grad_of(sparse["table"]), whole["table"].grad, rtol=1e-15)
