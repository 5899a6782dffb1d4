"""The batched engine against the per-example, per-timestep oracle.

With dropout off, the batched model and ``oracle`` must agree on logits and
on every parameter gradient, and appending PAD columns to a batch must
change neither.  Tolerances are fixed beforehand from float64 rounding: the
two paths sum the same terms in a different order (one product over the
batch against one per example and step), which moves results by a few ulps,
far inside 1e-10.
"""

import numpy as np
import numpy.testing as npt
import pytest

import oracle
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig

CONFIG = TrainConfig(hidden_size=5, num_layers=2, sentence_dim=3, embedding_dim=4,
                     dropout_bilstm=0.0, dropout_linear=0.0)
WEIGHTS = tr.ClassWeights(np.array([0.1, 0.2, 0.3, 0.4]))
# unsorted, with a length-1 row and two rows at the batch maximum
LENGTHS = [4, 1, 7, 3, 7, 2]


def _model(seed, config=CONFIG, vocab=11):
    rng = np.random.default_rng(seed)
    table = np.vstack([np.zeros(config.embedding_dim),
                       rng.uniform(-0.5, 0.5, (vocab - 1, config.embedding_dim))])
    return rcnn.init_model(config, L.EmbeddingMatrix.from_array(table), rng), rng


def _batch(rng, lengths, extra_pad=0, vocab=11, sentence_dim=3):
    ids, lens = L.pad_rows([rng.integers(1, vocab, n) for n in lengths])
    ids = np.pad(ids, ((0, 0), (0, extra_pad)))
    sv = rng.normal(size=(len(lengths), sentence_dim)) if sentence_dim else None
    return rcnn.Batch(ids, lens, sv, rng.integers(0, 4, len(lengths)))


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
    params.embedding.frozen = frozen
    batch = _batch(rng, LENGTHS)
    logits, grads = _batched(params, batch)
    want_logits, want_grads = _logits_and_grads(
        params, batch, lambda: oracle.rcnn_logits(params, batch))
    npt.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)
    for name, want in want_grads.items():
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)
    assert np.abs(grads["bilstm0.fwd.u"]).max() > 0
    assert (np.abs(grads["embedding.table"]).max() > 0) != frozen


def test_rcnn_ignores_appended_pad_columns():
    params, _ = _model(3)
    base = _batch(np.random.default_rng(30), LENGTHS)
    padded = _batch(np.random.default_rng(30), LENGTHS, extra_pad=5)
    assert padded.ids.shape[1] == base.ids.shape[1] + 5
    logits, grads = _batched(params, base)
    p_logits, p_grads = _batched(params, padded)
    npt.assert_allclose(p_logits, logits, rtol=0, atol=1e-12)
    for name, g in grads.items():
        npt.assert_allclose(p_grads[name], g, rtol=0, atol=1e-12, err_msg=name)


def test_finetune_cnn_matches_per_example_oracle():
    rng = np.random.default_rng(4)
    table = np.vstack([np.zeros(3), rng.uniform(-0.5, 0.5, (8, 3))])
    model = ft.build_finetune_model(L.EmbeddingMatrix.from_array(table), rng,
                                    filters_per_size=4)
    # rows shorter than the widest kernel take the zero-padded-window path
    rows = [rng.integers(1, 9, n) for n in (5, 1, 2, 6, 3)]
    named = model.named()

    def run(fn):
        T.reset_grads(named.values())
        probs = fn()
        T.backward(ft.binary_cross_entropy(probs, [1, 0, 1, 0, 0]))
        return probs.values, {n: T.grad_of(t).copy() for n, t in named.items()}

    probs, grads = run(lambda: ft.forward_finetune(model, rows, False, None))
    want_probs, want_grads = run(lambda: oracle.finetune_probs(model, rows))
    npt.assert_allclose(probs, want_probs, rtol=0, atol=1e-10)
    for name, want in want_grads.items():
        npt.assert_allclose(grads[name], want, rtol=0, atol=1e-10, err_msg=name)


def test_rows_match_each_row_run_alone():
    """A row's eval-mode RCNN logits and CNN probability do not depend on the
    other rows packed next to it."""
    params, rng = _model(5)
    batch = _batch(rng, LENGTHS)
    with T.no_grad():
        together = rcnn.forward(params, batch, False, None)[0].values
        for i, n in enumerate(LENGTHS):
            alone = rcnn.Batch(batch.ids[i:i + 1, :n], batch.valid_lengths[i:i + 1],
                               batch.sentence_vectors[i:i + 1], None)
            npt.assert_allclose(rcnn.forward(params, alone, False, None)[0].values[0],
                                together[i], rtol=0, atol=1e-12)

        model = ft.build_finetune_model(params.embedding, rng, filters_per_size=4)
        rows = [rng.integers(1, 11, n) for n in (5, 1, 2, 6, 3)]
        probs = ft.forward_finetune(model, rows, False, None).values
        for row, p in zip(rows, probs):
            npt.assert_allclose(ft.forward_finetune(model, [row], False, None).values,
                                [p], rtol=0, atol=1e-12)


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


def _twin_params(shapes, seed):
    rng = np.random.default_rng(seed)
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    return [{name: T.Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
            for _ in range(2)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_adam_matches_the_whole_array_oracle_byte_for_byte():
    block = tr.ADAM_BLOCK
    shapes = {"below": (block - 1,), "block": (block,), "above": (block + 1,),
              "matrix": (3, block // 2), "bias": (1,), "never": (5,),
              "stops": (block + 1,), "zero": (4, 2)}
    blocked, whole = _twin_params(shapes, seed=40)
    state, want_state = tr.init_adam(blocked), tr.init_adam(whole)
    rng = np.random.default_rng(41)
    stops_m = []
    for step, lr in enumerate([0.01, 0.0005, 0.1, 0.0005, 0.002, 0.01], start=1):
        for name, shape in shapes.items():
            if name == "never" or (name == "stops" and step > 2):
                grad = None
            elif name == "zero":
                grad = np.zeros(shape)
            else:  # magnitudes from underflow in g*g to overflow in v
                grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-200, 160, shape)
            for named in (blocked, whole):
                named[name].grad = None if grad is None else grad.copy()
        tr.adam_step(state, blocked, lr)
        oracle.adam_step(want_state, whole, lr)
        assert state.t == want_state.t == step
        for name in shapes:
            assert blocked[name].values.tobytes() == whole[name].values.tobytes(), name
            assert state.m[name].tobytes() == want_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == want_state.v[name].tobytes(), name
        stops_m.append(state.m["stops"].copy())
    assert not state.m["never"].any() and not state.v["never"].any()
    npt.assert_array_equal(blocked["never"].values, whole["never"].values)
    # with no gradient after step 2, the moments keep decaying, so it keeps moving
    npt.assert_array_equal(stops_m[3], stops_m[2] * tr.ADAM_BETA1)


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
