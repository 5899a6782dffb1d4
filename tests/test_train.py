import io

import numpy as np
import numpy.testing as npt
import pytest

import toycorpus
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.dataio import SentenceVectorStore, save_checkpoint

PUBLISHED_TRAIN = {"happy": 4243, "sad": 5463, "angry": 5506, "others": 14948}
PUBLISHED_VAL = {"happy": 142, "sad": 125, "angry": 150, "others": 2338}


def test_class_weights_from_the_dataset_distributions():
    w = tr.compute_class_weights(PUBLISHED_TRAIN, PUBLISHED_VAL).weights
    # independent recomputation, term by term
    t_tot = sum(PUBLISHED_TRAIN.values())
    v_tot = sum(PUBLISHED_VAL.values())
    ratios = [(PUBLISHED_VAL[c] / v_tot) / (PUBLISHED_TRAIN[c] / t_tot)
              for c in ("happy", "sad", "angry", "others")]
    expect = np.array(ratios) / sum(ratios)
    npt.assert_allclose(w, expect, rtol=1e-12)
    npt.assert_allclose(w, [0.1394, 0.0953, 0.1135, 0.6517], atol=5e-4)
    assert abs(w.sum() - 1.0) < 1e-9


def test_class_weights_invariances():
    flat = tr.compute_class_weights([10, 10, 10, 10], [3, 3, 3, 3]).weights
    npt.assert_allclose(flat, [0.25] * 4, atol=1e-12)

    base = tr.compute_class_weights(PUBLISHED_TRAIN, PUBLISHED_VAL).weights
    scaled_val = tr.compute_class_weights(
        PUBLISHED_TRAIN, {k: 10 * v for k, v in PUBLISHED_VAL.items()}).weights
    npt.assert_allclose(scaled_val, base, rtol=1e-12)
    scaled_train = tr.compute_class_weights(
        {k: 7 * v for k, v in PUBLISHED_TRAIN.items()}, PUBLISHED_VAL).weights
    npt.assert_allclose(scaled_train, base, rtol=1e-12)

    with pytest.raises(ValueError):
        tr.compute_class_weights({**PUBLISHED_TRAIN, "sad": 0}, PUBLISHED_VAL)
    with pytest.raises(ValueError):
        tr.compute_class_weights([1, 2, 3], [1, 2, 3, 4])


def test_weighted_cross_entropy_values():
    w = tr.ClassWeights(np.array([0.25, 0.25, 0.25, 0.25]))
    perfect = T.constant(np.eye(4)[[0, 1, 2, 3]])
    assert tr.weighted_cross_entropy(perfect, [0, 1, 2, 3], w).item() == 0.0

    uniform = T.constant(np.full((6, 4), 0.25))
    loss = tr.weighted_cross_entropy(uniform, [0, 3, 1, 2, 3, 0], w)
    npt.assert_allclose(loss.item(), 0.25 * np.log(4), rtol=1e-12)

    # doubling the gold-class weight doubles that example's contribution
    probs = T.constant(np.array([[0.7, 0.1, 0.1, 0.1]]))
    w1 = tr.weighted_cross_entropy(probs, [0], tr.ClassWeights(np.array([0.2, 1, 1, 1])))
    w2 = tr.weighted_cross_entropy(probs, [0], tr.ClassWeights(np.array([0.4, 1, 1, 1])))
    npt.assert_allclose(w2.item(), 2 * w1.item(), rtol=1e-12)

    with pytest.raises(ValueError):
        tr.weighted_cross_entropy(uniform, [0, 1, 2, 3, 4, 0], w)
    with pytest.raises(ValueError):
        tr.weighted_cross_entropy(uniform, [0, 1], w)  # a label per row
    # the clamp keeps a zero probability finite
    zero = T.constant(np.array([[1.0, 0.0, 0.0, 0.0]]))
    loss = tr.weighted_cross_entropy(zero, [1], w)
    npt.assert_allclose(loss.item(), 0.25 * -np.log(1e-12))


def test_weighted_cross_entropy_gradient():
    rng = np.random.default_rng(2)
    w = tr.ClassWeights(np.array([0.1, 0.2, 0.3, 0.4]))
    logits = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    labels = [2, 0, 3]

    def f(ps):
        return tr.weighted_cross_entropy(T.softmax_rows(ps[0]), labels, w)

    assert T.finite_diff_check(f, [logits], eps=1e-5) < 1e-4

    # the loss node alone, on probabilities away from the floor
    probs = T.Tensor(rng.uniform(0.05, 0.95, (5, 4)), requires_grad=True)
    labels = [2, 0, 3, 1, 2]
    assert T.finite_diff_check(lambda ps: tr.weighted_cross_entropy(ps[0], labels, w),
                               [probs], eps=1e-5) < 1e-4

    # no gradient where the picked probability is at or below the floor,
    # and none to the entries a row does not pick
    probs = T.Tensor(np.full((3, 4), 0.5), requires_grad=True)
    probs.values[[0, 1], [1, 3]] = [1e-15, tr.LOG_FLOOR]
    T.backward(tr.weighted_cross_entropy(probs, [1, 3, 0], w))
    expect = np.zeros((3, 4))
    expect[2, 0] = -0.1 / 3 / 0.5
    npt.assert_allclose(probs.grad, expect, rtol=1e-15, atol=0)


def test_uniform_baseline_loss():
    w = tr.ClassWeights(np.array([0.1, 0.2, 0.3, 0.4]))
    labels = [0, 0, 3]
    expect = (0.1 + 0.1 + 0.4) / 3 * np.log(4)
    npt.assert_allclose(tr.uniform_baseline_loss(w, labels), expect, rtol=1e-12)


def _grad_tensors(values):
    out = {}
    for name, (val, grad) in values.items():
        t = T.Tensor(val, requires_grad=True)
        t.grad = np.asarray(grad, dtype=np.float64)
        out[name] = t
    return out


def test_clip_gradients_scales_to_the_norm():
    named = _grad_tensors({"a": (np.zeros(2), [6.0, 0.0]), "b": (np.zeros(1), [8.0])})
    factor = tr.clip_gradients(named, 5.0)  # global norm 10
    npt.assert_allclose(factor, 0.5)
    total = np.sqrt(sum(float((t.grad ** 2).sum()) for t in named.values()))
    npt.assert_allclose(total, 5.0, atol=1e-12)

    named = _grad_tensors({"a": (np.zeros(1), [3.0])})
    assert tr.clip_gradients(named, 5.0) == 1.0
    npt.assert_array_equal(named["a"].grad, [3.0])

    zero = _grad_tensors({"a": (np.zeros(3), np.zeros(3))})
    assert tr.clip_gradients(zero, 5.0) == 1.0

    bad = _grad_tensors({"w_out": (np.zeros(1), [np.nan])})
    with pytest.raises(ValueError) as err:
        tr.clip_gradients(bad, 5.0)
    assert "w_out" in str(err.value)


def test_clip_gradients_property_norm_bounded():
    rng = np.random.default_rng(31)
    for _ in range(50):
        named = _grad_tensors({
            f"p{i}": (np.zeros(4), rng.uniform(-3, 3, 4)) for i in range(4)})
        tr.clip_gradients(named, 5.0)
        norm = np.sqrt(sum(float((t.grad ** 2).sum()) for t in named.values()))
        assert norm <= 5.0 + 1e-9


def test_adam_first_step_moves_by_lr():
    named = _grad_tensors({"w": (np.full(3, 10.0), np.ones(3))})
    state = tr.AdamState()
    tr.adam_step(state, named, lr=0.0005)
    assert state.t == 1
    npt.assert_allclose(named["w"].values, 10.0 - 0.0005, rtol=1e-6)

    zero = _grad_tensors({"w": (np.full(2, 1.5), np.zeros(2))})
    tr.adam_step(tr.AdamState(), zero, lr=0.1)
    npt.assert_array_equal(zero["w"].values, [1.5, 1.5])

    sym = _grad_tensors({"a": (np.zeros(1), [0.7]), "b": (np.zeros(1), [-0.7])})
    tr.adam_step(tr.AdamState(), sym, lr=0.01)
    npt.assert_allclose(sym["a"].values, -sym["b"].values, rtol=1e-12)

    with pytest.raises(ValueError):
        tr.adam_step(state, named, lr=0.0)


def test_adam_unreachable_parameter_stays_put():
    t = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)  # grad never set
    named = {"w": t}
    tr.adam_step(tr.AdamState(), named, lr=0.1)
    npt.assert_array_equal(t.values, [2.0, 3.0])


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    named = _grad_tensors({"w": (np.zeros((3, 2)), np.ones((3, 2)))})
    named["w"].values = np.asfortranarray(np.ones((3, 2)))
    with pytest.raises(ValueError, match="C-contiguous"):
        tr.adam_step(tr.AdamState(), named, lr=0.1)
    table = L.EmbeddingMatrix.from_array(np.asfortranarray(np.ones((3, 2)))).table
    assert table.values.flags.c_contiguous


def test_lr_schedule():
    cfg = TrainConfig()
    for epoch in range(1, 6):
        assert tr.lr_at_epoch(cfg, epoch) == 0.0005
    npt.assert_allclose(tr.lr_at_epoch(cfg, 6), 0.0001, rtol=1e-12)
    npt.assert_allclose(tr.lr_at_epoch(cfg, 7), 2e-5, rtol=1e-12)
    with pytest.raises(ValueError):
        tr.lr_at_epoch(cfg, 0)


def test_encode_split_filters_only_train():
    # turns (n words, "a", "b") assemble to n + 4 tokens: a, b and two EOS
    split = toycorpus.make_split("train", 8, seed=0)
    for conv, n in zip(split.conversations, (71, 72, 496)):
        conv.turns = (" ".join(["word"] * n), "a", "b")
    vocab = toycorpus.vocab_for(split)
    kept = tr.encode_split(split, vocab)
    assert kept[0].n == 75  # at the limit: kept; 76 and 500 tokens: dropped
    assert [ex.id for ex in kept] == [c.id for c in split.conversations
                                      if c not in split.conversations[1:3]]

    for name in ("val", "test"):
        split.name = name
        encoded = tr.encode_split(split, vocab)
        assert len(encoded) == 8
        assert [ex.n for ex in encoded[:3]] == [75, 76, 500]


def test_make_batch_packs_rows_of_any_length():
    """Rows of one token and rows shorter than the widest conv kernel pack
    back to back; an empty row is a ValueError."""
    lengths = [1, 2, 1, 5, 3, 1]
    rng = np.random.default_rng(3)
    examples = [tr.EncodedExample(f"c{i}", rng.integers(1, 9, n), i % 4)
                for i, n in enumerate(lengths)]
    store = SentenceVectorStore(2)
    store.vectors.update({ex.id: np.full(2, float(i)) for i, ex in enumerate(examples)})
    batch = tr.make_batch(examples, store, 2)
    npt.assert_array_equal(batch.ids, np.concatenate([ex.ids for ex in examples]))
    assert batch.ids.dtype == np.int64
    npt.assert_array_equal(batch.valid_lengths, lengths)
    npt.assert_array_equal(batch.labels, [0, 1, 2, 3, 0, 1])
    npt.assert_array_equal(batch.sentence_vectors[:, 0], np.arange(6.0))
    assert len(batch) == 6

    examples[2] = tr.EncodedExample("empty", np.zeros(0, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="valid lengths must be >= 1"):
        tr.make_batch(examples, None, 0)


def test_make_batch_and_missing_vectors():
    split = toycorpus.make_split("train", 4, seed=1)
    vocab = toycorpus.vocab_for(split)
    encoded = tr.encode_split(split, vocab)
    store = toycorpus.store_for([split], dim=3, seed=2)
    batch = tr.make_batch(encoded, store, 3)
    assert len(batch) == 4 and batch.ids.size == sum(ex.n for ex in encoded)
    assert batch.sentence_vectors.shape == (4, 3)
    assert batch.labels is not None
    assert tr.make_batch(encoded, None, 0).sentence_vectors is None

    # predict checks coverage up front; make_batch trusts its caller
    config = TrainConfig(hidden_size=2, num_layers=1, sentence_dim=3, embedding_dim=2)
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 2)))
    params = rcnn.init_model(config, emb, rng)
    assert tr.predict(params, encoded, store).shape == (4,)
    del store.vectors[encoded[1].id]
    with pytest.raises(ValueError) as err:
        tr.predict(params, encoded, store)
    assert encoded[1].id in str(err.value)
    with pytest.raises(ValueError) as err:
        tr.predict(params, encoded, None)
    assert "sentence" in str(err.value)


def test_load_encoded_names_file_and_line_of_unknown_label(tmp_path):
    path = tmp_path / "train.ids.tsv"
    path.write_text(f"{tr.ENCODED_HEADER}\na\thappy\t3 4\nb\tjoy\t5\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        tr.load_encoded(path, 10)
    assert str(err.value) == f"{path}: line 3: unknown label 'joy'"


@pytest.mark.parametrize("ids, bad", [("3 x4", "x4"), ("3 -4", "-4"), ("3 4.0", "4.0")])
def test_load_encoded_names_file_and_line_of_a_bad_token_id(tmp_path, ids, bad):
    path = tmp_path / "train.ids.tsv"
    path.write_text(f"{tr.ENCODED_HEADER}\na\thappy\t3 4\nb\tsad\t{ids}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        tr.load_encoded(path, 10)
    assert str(err.value) == f"{path}: line 3: token id {bad!r} is not an integer >= 0"


@pytest.mark.parametrize("big", [str(2 ** 63), "99999999999999999999"])
def test_load_encoded_names_file_and_line_of_an_oversized_token_id(tmp_path, big):
    path = tmp_path / "train.ids.tsv"
    path.write_text(f"{tr.ENCODED_HEADER}\na\thappy\t3 {2 ** 63 - 1}\nb\tsad\t3 {big}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:  # a vocabulary that holds every int64 id
        tr.load_encoded(path, 2 ** 63)
    assert str(err.value) == (f"{path}: line 3: token id {big!r} does not fit "
                              "in a 64-bit integer")


def test_load_encoded_names_file_and_line_of_an_id_outside_the_vocabulary(tmp_path):
    path = tmp_path / "train.ids.tsv"
    path.write_text(f"{tr.ENCODED_HEADER}\na\thappy\t3 9\nb\tsad\t3 10 12\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        tr.load_encoded(path, 10)
    assert str(err.value) == (f"{path}: line 3: token id '10' out of range for a "
                              "vocabulary of size 10")
    examples, _ = tr.load_encoded(path, 13)
    assert [ex.ids.tolist() for ex in examples] == [[3, 9], [3, 10, 12]]


def test_load_encoded_names_file_and_line_of_a_bad_label_count(tmp_path):
    path = tmp_path / "train.ids.tsv"
    path.write_text(f"# label_counts\thappy=2\tsad=two\n{tr.ENCODED_HEADER}\n"
                    "a\thappy\t3 4\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        tr.load_encoded(path, 10)
    assert str(err.value) == (f"{path}: line 1: label count 'sad=two' is not "
                              "name=integer >= 0")


TOY_CONFIG = TrainConfig(lr=0.01, batch_size=8, epochs=3, hidden_size=6,
                         num_layers=1, sentence_dim=4, embedding_dim=6,
                         dropout_bilstm=0.0, dropout_linear=0.0,
                         freeze_embedding_epochs=2, anneal_after_epoch=99,
                         seed=13)


def _toy_setup(config, n_train=16, n_val=8):
    train_split = toycorpus.make_split("train", n_train, seed=config.seed)
    val_split = toycorpus.make_split("val", n_val, seed=config.seed + 1)
    vocab = toycorpus.vocab_for(train_split, val_split)
    store = toycorpus.store_for([train_split, val_split], config.sentence_dim,
                                seed=config.seed + 2) if config.sentence_dim else None
    rng = np.random.default_rng(config.seed)
    emb_vals = np.vstack([np.zeros(config.embedding_dim),
                          rng.uniform(-0.1, 0.1, (vocab.size - 1, config.embedding_dim))])
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(emb_vals), rng)
    return params, train_split, val_split, store, vocab, rng


def test_train_freezes_embedding_then_updates_it(monkeypatch):
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    table = params.embedding.table
    initial = table.values.copy()
    table.values.flags.writeable = False  # a write to the frozen table would raise
    adam_step, states = tr.adam_step, []

    def recording_step(state, named, lr):
        states.append(state)
        adam_step(state, named, lr)

    seen = {}

    def hook(epoch, p, row):
        seen[epoch] = np.array_equal(p.embedding.table.values, initial)
        seen[epoch, "moments"] = "embedding.table" in states[-1].m
        if epoch == TOY_CONFIG.freeze_embedding_epochs:
            table.values.flags.writeable = True

    monkeypatch.setattr(tr, "adam_step", recording_step)
    ckpt, history = toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG,
                                           rng, vocab=vocab, epoch_hook=hook)
    assert seen[1] and seen[2]      # bit-identical through the frozen epochs
    assert not (seen[1, "moments"] or seen[2, "moments"])  # and given no moments
    assert not seen[3]              # unfrozen epoch moved it
    assert seen[3, "moments"]
    assert len({id(state) for state in states}) == 1
    assert len(history) == 3
    assert all(row.lr == 0.01 for row in history)  # anneal disabled here
    assert all(0 <= row.clip_fraction <= 1 for row in history)
    assert ckpt.best_val_f1 == max(r.val_micro_f1 for r in history)


def test_non_finite_gradient_names_epoch_and_step(monkeypatch):
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    steps_per_epoch = -(-len(train_split.conversations) // TOY_CONFIG.batch_size)
    assert steps_per_epoch >= 2
    backward, calls = T.backward, []

    def poisoned_backward(loss):
        backward(loss)
        calls.append(1)
        if len(calls) == steps_per_epoch + 2:  # epoch 2, step 2
            params.named()["output.w"].grad[0, 0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned_backward)
    with pytest.raises(ValueError) as err:
        toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG, rng, vocab=vocab)
    assert str(err.value) == "epoch 2, step 2: non-finite gradient in parameter 'output.w'"


def test_the_freeze_switch_is_restored_on_return_and_on_error(monkeypatch):
    def assert_unfrozen(params):
        assert params.embedding.table.requires_grad is True
        assert L.embedding_lookup(params.embedding, [1]).requires_grad

    config = TOY_CONFIG.replace(epochs=2, freeze_embedding_epochs=3)
    params, train_split, val_split, store, vocab, rng = _toy_setup(config)
    toycorpus.train_splits(params, train_split, val_split, store, config, rng, vocab=vocab)
    assert_unfrozen(params)

    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    backward = T.backward

    def poisoned_backward(loss):  # the first step of frozen epoch 1
        backward(loss)
        params.named()["output.w"].grad[0, 0] = np.inf

    monkeypatch.setattr(T, "backward", poisoned_backward)
    with pytest.raises(ValueError, match="epoch 1, step 1: non-finite gradient"):
        toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG, rng, vocab=vocab)
    assert_unfrozen(params)


def test_unfrozen_epoch_keeps_pad_row_zero():
    config = TOY_CONFIG.replace(epochs=2, freeze_embedding_epochs=1,
                                dropout_bilstm=0.3, dropout_linear=0.3)
    params, train_split, val_split, store, vocab, rng = _toy_setup(config)
    initial = params.embedding.table.values.copy()
    toycorpus.train_splits(params, train_split, val_split, store, config, rng, vocab=vocab)
    table = params.embedding.table.values
    assert not np.array_equal(table[1:], initial[1:])
    assert (table[0] == 0.0).all() and not np.signbit(table[0]).any()


def test_train_history_lr_annealing():
    config = TOY_CONFIG.replace(epochs=4, anneal_after_epoch=2, anneal_factor=0.2,
                                freeze_embedding_epochs=0)
    params, train_split, val_split, store, vocab, rng = _toy_setup(config)
    _, history = toycorpus.train_splits(params, train_split, val_split, store, config, rng,
                                        vocab=vocab)
    npt.assert_allclose([r.lr for r in history],
                        [0.01, 0.01, 0.002, 0.0004], rtol=1e-12)


def test_train_is_bit_deterministic(tmp_path):
    def run():
        params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
        ckpt, history = toycorpus.train_splits(params, train_split, val_split, store,
                                               TOY_CONFIG, rng, vocab=vocab)
        return ckpt, tr.format_history(history)

    ckpt1, hist1 = run()
    ckpt2, hist2 = run()
    assert hist1 == hist2
    save_checkpoint(ckpt1, tmp_path / "a.ckpt")
    save_checkpoint(ckpt2, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_train_select_last_vs_best():
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    ckpt_best, history = toycorpus.train_splits(params, train_split, val_split, store,
                                                TOY_CONFIG, rng, vocab=vocab, select="best")
    best_epoch = min((r.epoch for r in history
                      if r.val_micro_f1 == ckpt_best.best_val_f1))
    assert ckpt_best.epoch == best_epoch  # ties resolve to the earlier epoch

    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    ckpt_last, _ = toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG,
                                          rng, vocab=vocab, select="last")
    assert ckpt_last.epoch == TOY_CONFIG.epochs
    npt.assert_array_equal(ckpt_last.params["embedding.table"],
                           params.embedding.table.values)


def test_train_input_validation():
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    empty = toycorpus.make_split("train", 0, seed=0)
    with pytest.raises(ValueError):
        toycorpus.train_splits(params, empty, val_split, store, TOY_CONFIG, rng, vocab=vocab)
    with pytest.raises(ValueError):
        toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG, rng,
                               vocab=vocab, select="median")

    del store.vectors[train_split.conversations[3].id]
    with pytest.raises(ValueError) as err:
        toycorpus.train_splits(params, train_split, val_split, store, TOY_CONFIG, rng, vocab=vocab)
    assert train_split.conversations[3].id in str(err.value)


@pytest.mark.parametrize("case", ["select_typo", "empty_train", "unlabeled_val",
                                  "val_vector_missing", "many_vectors_missing"])
def test_train_encoded_validates_before_the_first_step(case, monkeypatch):
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG, n_train=24)
    train_ex = tr.encode_split(train_split, vocab)
    val_ex = tr.encode_split(val_split, vocab)
    select, expect = "best", None
    if case == "select_typo":
        select = "bset"
    elif case == "empty_train":
        train_ex = []
    elif case == "unlabeled_val":
        val_ex[0].label = None
    elif case == "val_vector_missing":
        del store.vectors[val_ex[0].id]
        expect = val_ex[0].id
    else:  # every training id missing: 20 named, the rest counted
        for ex in train_ex:
            del store.vectors[ex.id]
        expect = f"{train_ex[19].id} (and 4 more)"
    forwards = []
    forward = rcnn.forward
    monkeypatch.setattr(rcnn, "forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
    weights = tr.compute_class_weights(train_split.label_counts, val_split.label_counts)
    with pytest.raises(ValueError) as err:
        tr.train_encoded(params, train_ex, val_ex, store, TOY_CONFIG, rng,
                         weights=weights, vocab=vocab, select=select)
    assert forwards == []
    if expect is not None:
        assert expect in str(err.value)


def test_first_batch_loss_with_zero_output_layer_is_uniform_baseline():
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    params.named()["output.w"].values[:] = 0.0
    params.named()["output.b"].values[:] = 0.0
    weights = tr.compute_class_weights(train_split.label_counts, val_split.label_counts)
    encoded = tr.encode_split(train_split, vocab)
    batch = tr.make_batch(encoded[:8], store, params.config.sentence_dim)
    _, probs = rcnn.forward(params, batch, training=True, rng=rng)
    loss = tr.weighted_cross_entropy(probs, batch.labels, weights)
    expect = tr.uniform_baseline_loss(weights, batch.labels)
    npt.assert_allclose(loss.item(), expect, rtol=1e-12)


def test_trainability_on_separable_toy_corpus():
    config = TOY_CONFIG.replace(epochs=10, sentence_dim=0, lr=0.02)
    params, train_split, val_split, store, vocab, rng = _toy_setup(config, n_train=32)
    ckpt, history = toycorpus.train_splits(params, train_split, val_split, None, config, rng,
                                           vocab=vocab, select="last")
    encoded = tr.encode_split(train_split, vocab)
    preds = tr.predict(params, encoded, None, config.batch_size)
    accuracy = float(np.mean([p == ex.label for p, ex in zip(preds, encoded)]))
    assert accuracy >= 0.9, f"train accuracy {accuracy} after {config.epochs} epochs"
    assert history[-1].train_loss < history[0].train_loss


def test_history_tsv_format():
    rows = [tr.HistoryRow(1, 0.0005, 0.31, 0.57, 0.2),
            tr.HistoryRow(2, 0.0001, 0.22, 0.61, 0.0)]
    text = tr.format_history(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch\tlr\ttrain_loss\tval_micro_f1\tclip_fraction"
    assert lines[1].split("\t") == ["1", "0.0005", "0.31", "0.57", "0.2"]
    buf = io.StringIO(text)
    assert len(buf.read().splitlines()) == 3
