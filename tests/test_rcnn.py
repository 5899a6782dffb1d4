import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from emoconv import dataio as dio
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.textprep import SPECIALS, Vocabulary

TINY = TrainConfig(hidden_size=3, num_layers=2, sentence_dim=2, embedding_dim=4,
                   dropout_bilstm=0.0, dropout_linear=0.0)


def _tiny_model(seed=0, config=TINY, vocab_size=7):
    rng = np.random.default_rng(seed)
    emb = L.EmbeddingMatrix.from_array(
        np.vstack([np.zeros(config.embedding_dim),
                   rng.uniform(-0.5, 0.5, (vocab_size - 1, config.embedding_dim))]))
    return rcnn.init_model(config, emb, rng), rng


def _batch(ids_rows, lengths, sdim, rng, labels=None):
    sv = rng.uniform(-1, 1, (len(ids_rows), sdim)) if sdim else None
    return rcnn.Batch.of_rows([row[:n] for row, n in zip(ids_rows, lengths)], sv,
                              None if labels is None else np.array(labels))


def test_init_model_default_dimension_chain():
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (10, 100)))
    emb.table.values[0] = 0.0
    params = rcnn.init_model(TrainConfig(), emb, rng)
    named = params.named()
    assert named["projection.w"].shape == (200, 500)
    assert named["output.w"].shape == (4, 2504)
    assert named["bilstm0.fwd.w"].shape == (800, 100)
    assert named["bilstm1.fwd.w"].shape == (800, 400)
    assert params.config == TrainConfig()

    none_ablation = rcnn.init_model(TrainConfig(sentence_dim=0), emb,
                                    np.random.default_rng(0))
    assert none_ablation.named()["output.w"].shape == (4, 200)

    with pytest.raises(ValueError):
        rcnn.init_model(TrainConfig(embedding_dim=50), emb, rng)


def test_shape_report_counts():
    rng = np.random.default_rng(1)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (10, 100)))
    params = rcnn.init_model(TrainConfig(), emb, rng)
    shapes, total = rcnn.shape_report(params)
    assert shapes["projection.w"] == (200, 500)
    proj_count = 200 * 500 + 200
    out_count = 4 * 2504 + 4
    assert proj_count == 100200 and out_count == 10020
    per_layer1 = 2 * (800 * 100 + 800 * 200 + 800)
    per_layer2 = 2 * (800 * 400 + 800 * 200 + 800)
    assert total == 10 * 100 + per_layer1 + per_layer2 + proj_count + out_count

    again, total2 = rcnn.shape_report(params)
    assert again == shapes and total2 == total
    report = rcnn.format_shape_report(params)
    assert "projection.w\t200x500\t100000" in report


@pytest.mark.parametrize("config", [TINY, TINY.replace(num_layers=1, sentence_dim=0,
                                                        projection_tanh=True)])
def test_restore_rebuilds_the_model_from_its_arrays_without_drawing(monkeypatch, config):
    params, rng = _tiny_model(3, config=config)
    arrays = {name: t.values.copy() for name, t in params.named().items()}
    monkeypatch.setattr(L, "init_arrays", lambda *a: pytest.fail("restore drew a parameter"))
    restored = rcnn.restore(config, arrays)
    named = restored.named()
    assert list(named) == list(params.named())
    for name, t in named.items():
        assert t.values.dtype == np.float64 and t.values.flags.c_contiguous, name
        assert t.shape == arrays[name].shape, name
        assert t.values.tobytes() == arrays[name].tobytes(), name
        assert t.requires_grad, name
        assert t.values is arrays[name], name  # the model owns what it restores
    assert restored.config == params.config == config
    batch = _batch([[1, 2, 3], [4, 5, 0]], [3, 2], config.sentence_dim, rng)
    npt.assert_array_equal(rcnn.forward(restored, batch, False, None)[1].values,
                           rcnn.forward(params, batch, False, None)[1].values)


def test_a_loaded_checkpoint_reaches_the_model_without_a_copy(tmp_path):
    params, _ = _tiny_model(5)
    arrays = {name: t.values for name, t in params.named().items()}
    dio.save_checkpoint(dio.Checkpoint(Vocabulary([*SPECIALS, "a", "b", "c", "d"]), arrays,
                                       TINY, 1, 0.5), tmp_path / "model.ckpt")
    ckpt = dio.load_checkpoint(tmp_path / "model.ckpt")
    for name, t in rcnn.restore(ckpt.config, ckpt.params).named().items():
        assert t.values is ckpt.params[name], name


def test_restore_converts_an_array_it_cannot_adopt():
    params, _ = _tiny_model(6)
    arrays = {name: t.values.copy() for name, t in params.named().items()}
    arrays["projection.w"] = np.asfortranarray(arrays["projection.w"])
    arrays["output.b"] = arrays["output.b"].astype(np.float32)
    named = rcnn.restore(TINY, arrays).named()
    for name in ("projection.w", "output.b"):
        assert named[name].values.dtype == np.float64, name
        assert named[name].values.flags.c_contiguous, name
        npt.assert_array_equal(named[name].values, arrays[name])


def test_restore_names_missing_unexpected_and_misshapen_arrays():
    params, _ = _tiny_model(4)
    arrays = {name: t.values.copy() for name, t in params.named().items()}
    with pytest.raises(ValueError) as err:
        rcnn.restore(TINY, {n: a for n, a in arrays.items() if n != "embedding.table"})
    assert str(err.value) == "checkpoint has no 'embedding.table' array"
    with pytest.raises(ValueError) as err:
        rcnn.restore(TINY.replace(embedding_dim=5), arrays)
    assert str(err.value) == "embedding dim 4 does not match configured embedding_dim 5"
    broken = {n: a for n, a in arrays.items() if n != "output.b"} | {"extra.w": np.zeros(2)}
    with pytest.raises(ValueError) as err:
        rcnn.restore(TINY, broken)
    assert str(err.value) == ("checkpoint arrays do not match the configured model "
                              "(missing ['output.b'], unexpected ['extra.w'])")
    with pytest.raises(ValueError) as err:
        rcnn.restore(TINY, arrays | {"bilstm1.bwd.u": np.zeros((12, 4))})
    assert str(err.value) == ("checkpoint array 'bilstm1.bwd.u' has shape (12, 4), "
                              "model expects (12, 3)")


def test_forward_probabilities_sum_to_one():
    params, rng = _tiny_model()
    batch = _batch([[1, 2, 3], [4, 5, 0]], [3, 2], 2, rng)
    logits, probs = rcnn.forward(params, batch, training=False, rng=None)
    assert logits.shape == (2, 4) and probs.shape == (2, 4)
    npt.assert_allclose(probs.values.sum(axis=1), [1.0, 1.0], atol=1e-12)


def test_forward_zero_params_uniform():
    params, rng = _tiny_model()
    for t in params.named().values():
        t.values[:] = 0.0
    batch = _batch([[1, 2]], [2], 2, rng)
    _, probs = rcnn.forward(params, batch, training=False, rng=None)
    npt.assert_allclose(probs.values, np.full((1, 4), 0.25), atol=1e-15)


def test_forward_padding_invariance():
    """A packed batch cannot carry padding past its rows' lengths, and PAD
    ids packed as a row of their own leave the other row's result as it was."""
    for seed in range(8):
        params, rng = _tiny_model(seed + 10)
        row = list(rng.integers(1, 7, 4))
        sv = rng.uniform(-1, 1, (2, 2))
        with pytest.raises(ValueError):
            rcnn.Batch(np.array(row + [0, 0, 0]), np.array([4]), sv[:1])
        _, alone = rcnn.forward(params, rcnn.Batch.of_rows([row], sv[:1]), False, None)
        _, beside = rcnn.forward(params, rcnn.Batch.of_rows([row, [0, 0, 0]], sv), False, None)
        npt.assert_allclose(beside.values[0], alone.values[0], atol=1e-10)


def test_forward_batch_permutation():
    params, rng = _tiny_model(3)
    rows = [list(rng.integers(1, 7, 5)) for _ in range(4)]
    lengths = [5, 3, 4, 2]
    sv = rng.uniform(-1, 1, (4, 2))
    rows = [row[:n] for row, n in zip(rows, lengths)]
    base = rcnn.forward(params, rcnn.Batch.of_rows(rows, sv), False, None)[1].values
    order = [2, 0, 3, 1]
    perm = rcnn.forward(params, rcnn.Batch.of_rows([rows[i] for i in order], sv[order]),
                        False, None)[1].values
    npt.assert_allclose(perm, base[order], atol=1e-12)


def test_forward_requires_sentence_vectors():
    params, rng = _tiny_model(4)
    batch = _batch([[1, 2]], [2], 0, rng)
    with pytest.raises(ValueError):
        rcnn.forward(params, batch, False, None)
    with pytest.raises(ValueError, match="sum to the 3 packed cells, got \\[2, 2\\]"):
        rcnn.Batch(np.array([1, 2, 3]), np.array([2, 2]))


def test_sentence_dim_zero_changes_only_output_layer():
    params, rng = _tiny_model(5, config=TINY.replace(sentence_dim=0))
    batch = _batch([[1, 2, 3]], [3], 0, rng)
    _, probs = rcnn.forward(params, batch, False, None)
    npt.assert_allclose(probs.values.sum(axis=1), [1.0], atol=1e-12)
    assert params.named()["output.w"].shape == (4, 3)


def test_training_dropout_is_seeded_and_eval_is_deterministic():
    params, rng = _tiny_model(6, config=TINY.replace(dropout_bilstm=0.5,
                                                     dropout_linear=0.7))
    batch = _batch([[1, 2, 3, 4]], [4], 2, rng)
    a = rcnn.forward(params, batch, True, np.random.default_rng(11))[1].values
    b = rcnn.forward(params, batch, True, np.random.default_rng(11))[1].values
    c = rcnn.forward(params, batch, True, np.random.default_rng(12))[1].values
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)

    e1 = rcnn.forward(params, batch, False, None)[1].values
    e2 = rcnn.forward(params, batch, False, None)[1].values
    npt.assert_array_equal(e1, e2)


def test_end_to_end_gradients_match_finite_differences():
    config = TrainConfig(hidden_size=2, num_layers=1, sentence_dim=2,
                         embedding_dim=3, dropout_bilstm=0.0, dropout_linear=0.0)
    params, rng = _tiny_model(7, config=config, vocab_size=5)
    batch = _batch([[1, 2, 3], [4, 2, 0]], [3, 2], 2, rng, labels=[0, 3])
    named = params.named()
    names = sorted(named)
    tensors = [named[n] for n in names]

    def f(ps):
        _, probs = rcnn.forward(params, batch, training=False, rng=None)
        # unit class weights: the mean of -log p[label]
        return tr.weighted_cross_entropy(probs, batch.labels, np.ones(4))

    err = T.finite_diff_check(f, tensors, eps=1e-5)
    assert err < 1e-4, f"max rel err {err}"


def _train_steps(params, batch, steps):
    """Seeded training steps with dropout, clipping and Adam: each step's
    gradients, whether each loss recorded a graph, and the final values."""
    named, state, rng = params.named(), tr.AdamState(), np.random.default_rng(31)
    weights = np.full(4, 0.25)
    grads, recorded = [], []
    for _ in range(steps):
        loss = tr.weighted_cross_entropy(rcnn.forward(params, batch, True, rng)[1],
                                         batch.labels, weights)
        recorded.append(loss.node is not None)
        T.reset_grads(named.values())
        T.backward(loss)
        grads.append({n: T.grad_of(t).tobytes() for n, t in named.items()})
        tr.clip_gradients(named, 0.5)
        tr.adam_step(state, named, 0.01)
    return grads, recorded, {n: t.values.tobytes() for n, t in named.items()}


def test_training_beside_a_no_grad_evaluation_thread_keeps_its_bytes():
    """One thread trains its copy of a model while another evaluates its own
    copy under no_grad: the training thread still records its graph, and its
    gradients and parameters are those of a run alone, although both threads
    draw creation numbers from one counter."""
    config = TINY.replace(dropout_bilstm=0.3, dropout_linear=0.3)
    rows = [[1, 2, 3, 4], [5, 6], [2, 2, 1]]
    batch = rcnn.Batch.of_rows(rows, np.random.default_rng(30).uniform(-1, 1, (3, 2)),
                               np.array([0, 3, 1]))
    alone = _train_steps(_tiny_model(8, config)[0], batch, 4)
    want_eval = rcnn.forward(_tiny_model(8, config)[0], batch, False, None)[1].values.tobytes()
    evaluating, trained = threading.Event(), threading.Event()

    def evaluate():
        params, evals = _tiny_model(8, config)[0], []
        with T.no_grad():
            evaluating.set()
            while not (trained.is_set() and evals):
                evals.append(rcnn.forward(params, batch, False, None)[1].values.tobytes())
        return evals

    def train():
        assert evaluating.wait(timeout=60)
        try:
            return _train_steps(_tiny_model(8, config)[0], batch, 4)
        finally:
            trained.set()

    with ThreadPoolExecutor(max_workers=2) as pool:
        evals, beside = pool.submit(evaluate), pool.submit(train)
        evals, beside = evals.result(), beside.result()
    assert beside[1] == [True] * 4
    assert beside == alone
    assert set(evals) == {want_eval}
