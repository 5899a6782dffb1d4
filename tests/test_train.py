import copy
import dataclasses
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
from emoconv.dataio import (LABELS, Conversation, load_sentence_vectors, load_word_vectors,
                            save_checkpoint, save_sentence_vectors)
from emoconv.textprep import SPECIALS, TokenSequence, build_vocab

PUBLISHED_TRAIN = {"happy": 4243, "sad": 5463, "angry": 5506, "others": 14948}
PUBLISHED_VAL = {"happy": 142, "sad": 125, "angry": 150, "others": 2338}


def test_class_weights_from_the_dataset_distributions():
    w = tr.compute_class_weights(PUBLISHED_TRAIN, PUBLISHED_VAL)
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
    flat = tr.compute_class_weights(dict.fromkeys(LABELS, 10), dict.fromkeys(LABELS, 3))
    npt.assert_allclose(flat, [0.25] * 4, atol=1e-12)

    base = tr.compute_class_weights(PUBLISHED_TRAIN, PUBLISHED_VAL)
    scaled_val = tr.compute_class_weights(
        PUBLISHED_TRAIN, {k: 10 * v for k, v in PUBLISHED_VAL.items()})
    npt.assert_allclose(scaled_val, base, rtol=1e-12)
    scaled_train = tr.compute_class_weights(
        {k: 7 * v for k, v in PUBLISHED_TRAIN.items()}, PUBLISHED_VAL)
    npt.assert_allclose(scaled_train, base, rtol=1e-12)

    with pytest.raises(ValueError):
        tr.compute_class_weights({**PUBLISHED_TRAIN, "sad": 0}, PUBLISHED_VAL)
    with pytest.raises(ValueError, match="missing counts for classes \\['others'\\]"):
        tr.compute_class_weights({"happy": 1, "sad": 2, "angry": 3}, PUBLISHED_VAL)


def test_weighted_cross_entropy_values():
    w = np.array([0.25, 0.25, 0.25, 0.25])
    # equal logits in a row are the uniform distribution, at any offset
    equal = T.constant(np.full((6, 4), 3.0))
    loss = tr.weighted_cross_entropy(equal, [0, 3, 1, 2, 3, 0], w)
    npt.assert_allclose(loss.item(), 0.25 * np.log(4), rtol=1e-12)

    # the mean over rows of -w[label] * log softmax(z)[label]
    z = np.array([[2.0, -1.0, 0.5, 0.0], [0.1, 0.2, 0.3, 0.4]])
    wz = np.array([0.1, 0.2, 0.3, 0.4])
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    npt.assert_allclose(tr.weighted_cross_entropy(T.constant(z), [0, 3], wz).item(),
                        -(wz[0] * np.log(p[0, 0]) + wz[3] * np.log(p[1, 3])) / 2, rtol=1e-12)

    # doubling the gold-class weight doubles that example's contribution
    logits = T.constant(np.array([[2.0, 0.1, 0.1, 0.1]]))
    w1 = tr.weighted_cross_entropy(logits, [0], np.array([0.2, 1, 1, 1]))
    w2 = tr.weighted_cross_entropy(logits, [0], np.array([0.4, 1, 1, 1]))
    npt.assert_allclose(w2.item(), 2 * w1.item(), rtol=1e-12)

    with pytest.raises(ValueError):
        tr.weighted_cross_entropy(equal, [0, 1, 2, 3, 4, 0], w)
    with pytest.raises(ValueError):
        tr.weighted_cross_entropy(equal, [0, 1], w)  # a label per row
    # a confident right answer costs nothing, and a confident wrong one stays
    # finite: its cost is the gap to the top logit
    far = T.constant(np.array([[0.0, 800.0, 0.0, 0.0]]))
    assert tr.weighted_cross_entropy(far, [1], w).item() == 0.0
    assert tr.weighted_cross_entropy(far, [0], w).item() == 0.25 * 800.0


def test_weighted_cross_entropy_gradient():
    """Finite differences on logits, rows whose true logit sits 40 below
    their top among them.  There a loss on softmax probabilities with its
    log floored at 1e-12 passed exactly zero gradient; the gradient from
    logits, w * (softmax - onehot) / B, is all but the whole weight."""
    rng = np.random.default_rng(2)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    for z, labels in ((rng.uniform(-1, 1, (3, 4)), [2, 0, 3]),
                      (np.array([[40.0, 0.0, 1.0, -2.0], [0.0, 3.0, 43.0, 1.0]]), [1, 1])):
        logits = T.Tensor(z, requires_grad=True)
        assert T.finite_diff_check(lambda ps: tr.weighted_cross_entropy(ps[0], labels, w),
                                   [logits], eps=1e-5) < 1e-6
    npt.assert_allclose(logits.grad[:, 1], [-0.1, -0.1], rtol=1e-12)
    npt.assert_allclose(logits.grad[[0, 1], [0, 2]], [0.1, 0.1], rtol=1e-12)
    npt.assert_allclose(logits.grad.sum(axis=1), [0.0, 0.0], atol=1e-16)


def test_uniform_baseline_loss():
    w = np.array([0.1, 0.2, 0.3, 0.4])
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


def test_run_data_is_the_vocabulary_encodings_and_weights_of_its_splits(monkeypatch):
    """``RunData.encode`` tokenizes each text once and encodes each split
    once.  Its vocabulary is ``build_vocab`` over every training row, so an
    83-token conversation's words are in it, while its training examples
    leave that conversation out, as ``encode_split`` does."""
    train_split = toycorpus.make_split("train", 12, seed=100)
    val_split = toycorpus.make_split("val", 8, seed=101)
    long_turns = (" ".join(["longword"] * 79), "zebra", "um")  # 83 tokens with two EOS
    train_split.conversations.append(Conversation("long", long_turns, "happy"))
    train_split.label_counts["happy"] += 1
    vocab = build_vocab(map(TokenSequence, tr.split_rows(train_split)))
    want = {split.name: [(ex.id, ex.ids.tolist(), ex.label)
                         for ex in tr.encode_split(split, vocab)]
            for split in (train_split, val_split)}
    assert "long" not in [row[0] for row in want["train"]] and len(want["train"]) == 12

    texts, splits = toycorpus.count_encoding(monkeypatch)
    data = tr.RunData.encode(train_split, val_split)
    assert texts == [t for split in (train_split, val_split)
                     for c in split.conversations for t in c.turns]
    assert splits == ["train", "val"]
    assert data.vocab.id_to_token == vocab.id_to_token
    assert {"longword", "zebra"} <= set(data.vocab.token_to_id)
    for name, examples in (("train", data.train_ex), ("val", data.val_ex)):
        assert [(ex.id, ex.ids.tolist(), ex.label) for ex in examples] == want[name]
    npt.assert_array_equal(data.weights, tr.compute_class_weights(
        train_split.label_counts, val_split.label_counts))


def test_run_data_checks_the_class_counts_before_tokenizing(monkeypatch):
    train_split = toycorpus.make_split("train", 12, seed=100)
    val_split = toycorpus.make_split("val", 8, seed=101)
    del val_split.label_counts["angry"]
    texts, splits = toycorpus.count_encoding(monkeypatch)
    with pytest.raises(ValueError, match="missing counts for classes"):
        tr.RunData.encode(train_split, val_split)
    assert (texts, splits) == ([], [])


def test_make_batch_packs_rows_of_any_length():
    """Rows of one token and rows shorter than the widest conv kernel pack
    back to back; an empty row is a ValueError."""
    lengths = [1, 2, 1, 5, 3, 1]
    rng = np.random.default_rng(3)
    examples = [tr.EncodedExample(f"c{i}", rng.integers(1, 9, n), i % 4)
                for i, n in enumerate(lengths)]
    store = toycorpus.store_of({ex.id: np.full(2, float(i)) for i, ex in enumerate(examples)})
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


def test_make_batch_gathers_the_bytes_np_stack_would():
    split = toycorpus.make_split("train", 12, seed=7)
    encoded = tr.encode_split(split, toycorpus.vocab_for(split))
    store = toycorpus.store_for([split], dim=5, seed=8)
    picks = [encoded[i] for i in (7, 0, 7, 11, 3)]
    got = tr.make_batch(picks, store, 5).sentence_vectors
    want = np.stack([store.get(ex.id) for ex in picks])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
    assert not np.shares_memory(got, store.matrix)


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
    del store.row[encoded[1].id]
    with pytest.raises(ValueError) as err:
        tr.predict(params, encoded, store)
    assert encoded[1].id in str(err.value)
    with pytest.raises(ValueError) as err:
        tr.predict(params, encoded, None)
    assert "sentence" in str(err.value)


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


def _toy_run_data(config, train_seed=13):
    """``RunData`` of toy splits with their sentence vectors and a pretrained
    vector for each of the first three words of the vocabulary."""
    train_split = toycorpus.make_split("train", 16, seed=train_seed)
    val_split = toycorpus.make_split("val", 8, seed=14)
    data = tr.RunData.encode(train_split, val_split)
    words = data.vocab.id_to_token[len(SPECIALS):len(SPECIALS) + 3]
    return dataclasses.replace(
        data, store=toycorpus.store_for([train_split, val_split], config.sentence_dim, seed=15),
        pretrained={w: np.full(config.embedding_dim, 0.01 * (k + 1)) for k, w in enumerate(words)})


def test_two_runs_on_one_run_data_with_word_vectors_are_bit_identical(tmp_path):
    """A run reads the word vectors of its ``RunData`` and leaves them, so a
    second run on the same value draws the same table and writes the same
    checkpoint."""
    data = _toy_run_data(TOY_CONFIG)
    held = {w: v.copy() for w, v in data.pretrained.items()}
    digest = data.digest
    for name in ("a", "b"):
        ckpt, _ = tr.run(TOY_CONFIG, data)
        save_checkpoint(ckpt, tmp_path / f"{name}.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert data.digest == digest
    assert data.pretrained.keys() == held.keys()
    for word, vector in held.items():
        npt.assert_array_equal(data.pretrained[word], vector)


def _loaded_run_data(directory):
    """A ``RunData`` built as ``emoconv train`` builds it: the toy splits
    encoded, then the sentence vectors its examples keep from the converted
    file and the word vectors its vocabulary keeps from the text file, both
    in ``directory`` (written by the first call)."""
    train_split = toycorpus.make_split("train", 16, seed=13)
    val_split = toycorpus.make_split("val", 8, seed=14)
    data = tr.RunData.encode(train_split, val_split)
    if not (directory / "sv.bin").exists():
        save_sentence_vectors(toycorpus.store_for([train_split, val_split], 4, seed=15),
                              directory / "sv.bin")
        words = data.vocab.id_to_token[len(SPECIALS):len(SPECIALS) + 3]
        toycorpus.write_word_vectors(words, np.ones((3, 6)), directory / "words.txt")
    return dataclasses.replace(
        data, store=load_sentence_vectors(directory / "sv.bin", 4,
                                          {ex.id for ex in data.train_ex + data.val_ex}),
        pretrained=load_word_vectors(directory / "words.txt", 6, data.vocab.token_to_id))


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    """(directory, config, key) of a one-epoch run on ``_loaded_run_data``."""
    directory = tmp_path_factory.mktemp("keyed")
    config = TOY_CONFIG.replace(epochs=1)
    data = _loaded_run_data(directory)
    tr.run_into(directory / "run", config, data)
    return directory, config, tr.run_key(config, data)


def _changed_in_place(data, change):
    """``data`` after ``change``, made in place (in a deep copy for the
    last), which is returned."""
    example, store = data.train_ex[0], data.store
    if change == "an example's ids":
        example.ids[0] += 1
    elif change == "an example list":
        data.train_ex.pop()
    elif change == "a sentence-vector row":
        store.get(data.val_ex[0].id)[:] += 1.0
    elif change == "store.row":
        a, b = example.id, data.val_ex[0].id
        store.row[a], store.row[b] = store.row[b], store.row[a]
    elif change == "a word vector":
        next(iter(data.pretrained.values()))[:] += 1.0
    elif change == "the pretrained dict":
        data.pretrained.popitem()
    elif change == "vocab.id_to_token":
        data.vocab.id_to_token.append("zz")
    elif change == "the class weights":
        data.weights[0] += 0.125
    elif change == "a deep copy and an id":
        data = copy.deepcopy(data)
        data.val_ex[0].ids[0] += 1
    return data


CHANGES_IN_PLACE = ["an example's ids", "an example list", "a sentence-vector row", "store.row",
                    "a word vector", "the pretrained dict", "vocab.id_to_token",
                    "the class weights", "a deep copy and an id"]


@pytest.mark.parametrize("change", CHANGES_IN_PLACE)
def test_the_run_key_follows_a_change_in_place_to_what_a_run_reads(first_run, change,
                                                                   monkeypatch):
    """A run is keyed by its ``RunData`` as it is when the run is keyed, so a
    change in place to anything a run reads, even after the key was read,
    moves the key; ``run_into`` then refuses the changed value in the first
    run's directory before any draw, naming both keys."""
    directory, config, key = first_run
    data = _loaded_run_data(directory)
    assert tr.run_key(config, data) == key
    changed = _changed_in_place(data, change)
    changed_key = tr.run_key(config, changed)
    assert changed_key != key
    run_dir = directory / "run"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    monkeypatch.setattr(tr, "seeded_table", lambda *a: pytest.fail("a generator was seeded"))
    with pytest.raises(ValueError) as err:
        tr.run_into(run_dir, config, changed)
    assert str(err.value) == (f"{run_dir / 'run.json'} holds the run {key} (select best), "
                              f"not {changed_key} (select best)")
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


def test_a_run_directory_refuses_a_run_on_other_training_rows(tmp_path, monkeypatch):
    """``run_into`` keys its directory by the config and the digest of the
    ``RunData`` itself: the same config on other training rows is refused
    before any draw, naming both keys, and the directory stays as it was."""
    config = TOY_CONFIG.replace(epochs=1)
    data, other = _toy_run_data(config), _toy_run_data(config, train_seed=113)
    tr.run_into(tmp_path, config, data)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    key, other_key = tr.run_key(config, data), tr.run_key(config, other)
    assert key != other_key and key.split("_")[0] == other_key.split("_")[0]
    monkeypatch.setattr(tr, "seeded_table", lambda *a: pytest.fail("a generator was seeded"))
    with pytest.raises(ValueError) as err:
        tr.run_into(tmp_path, config, other)
    assert str(err.value) == (f"{tmp_path / 'run.json'} holds the run {key} (select best), "
                              f"not {other_key} (select best)")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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

    del store.row[train_split.conversations[3].id]
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
        val_ex[0] = dataclasses.replace(val_ex[0], label=None)
    elif case == "val_vector_missing":
        del store.row[val_ex[0].id]
        expect = val_ex[0].id
    else:  # every training id missing: 20 named, the rest counted
        for ex in train_ex:
            del store.row[ex.id]
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
    """With output weights 0 and one bias for every class, each row's logits
    are equal, so the loss on them is the sweep's uniform baseline, whatever
    the batch, the class weights or the bias."""
    params, train_split, val_split, store, vocab, rng = _toy_setup(TOY_CONFIG)
    params.named()["output.w"].values[:] = 0.0
    encoded = tr.encode_split(train_split, vocab)
    for weights in (tr.compute_class_weights(train_split.label_counts, val_split.label_counts),
                    tr.compute_class_weights(PUBLISHED_TRAIN, PUBLISHED_VAL)):
        for bias, rows in ((0.0, slice(0, 8)), (3.5, slice(8, 13)), (-40.0, slice(None))):
            params.named()["output.b"].values[:] = bias
            batch = tr.make_batch(encoded[rows], store, params.config.sentence_dim)
            logits = rcnn.forward(params, batch, training=True, rng=rng)
            loss = tr.weighted_cross_entropy(logits, batch.labels, weights)
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


def test_a_history_write_that_fails_leaves_the_old_history(tmp_path):
    path = tmp_path / "history.tsv"
    tr.write_history([tr.HistoryRow(1, 0.0005, 0.31, 0.57, 0.2)], path)
    old = path.read_bytes()
    with pytest.raises(AttributeError):
        tr.write_history([object()], path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["history.tsv"]
