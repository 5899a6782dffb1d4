"""Acceptance gate: ten end-to-end criteria, one per test, each printing a
single ``[criterion NN] PASS/FAIL`` line (visible with ``pytest -s`` or on
failure).

Criterion 3 checks the dataset loader against the published class counts of
the conversation corpus.  The released files are not bundled; by default the
test synthesizes files in the official format with exactly those counts.  Set
``EMOCONV_DATA_DIR`` to a directory holding the released ``train.txt`` /
``dev.txt`` / ``test.txt`` to run the same assertions against the real data.
"""

import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt

import toycorpus
from emoconv import dataio, metrics, rcnn
from emoconv import sweep as sw
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.dataio import LABELS, build_embedding_matrix, load_dataset
from emoconv.finetune import (FinetuneSchedule, build_finetune_model,
                              finetune_embeddings, predict_finetune,
                              encode_corpus)
from emoconv.layers import EmbeddingMatrix
from emoconv.textprep import TokenSequence, build_vocab, tokenize

PUBLISHED_COUNTS = {
    "train": {"happy": 4243, "sad": 5463, "angry": 5506, "others": 14948},
    "val": {"happy": 142, "sad": 125, "angry": 150, "others": 2338},
    "test": {"happy": 284, "sad": 250, "angry": 298, "others": 4677},
}


def _verdict(num, body):
    try:
        detail = body()
    except BaseException as exc:
        print(f"[criterion {num:02d}] FAIL: {exc}", flush=True)
        raise
    print(f"[criterion {num:02d}] PASS: {detail}", flush=True)


# -- 1. gradient correctness ------------------------------------------------


def test_criterion_01_end_to_end_gradient_check():
    def body():
        config = TrainConfig(hidden_size=4, num_layers=2, sentence_dim=3,
                             embedding_dim=6, dropout_bilstm=0.0,
                             dropout_linear=0.0)
        rng = np.random.default_rng(17)
        emb = EmbeddingMatrix.from_array(rng.uniform(-0.3, 0.3, (8, 6)))
        params = rcnn.init_model(config, emb, rng)
        batch = rcnn.Batch(
            ids=np.array([1, 2, 3, 4, 5, 6, 7, 2]),
            valid_lengths=np.array([5, 3]),
            sentence_vectors=rng.normal(0.0, 0.5, (2, 3)),
            labels=np.array([0, 3]))
        weights = np.array([0.14, 0.10, 0.11, 0.65])
        named = params.named()
        tensors = [named[name] for name in sorted(named)]

        def loss_fn(_):
            _, probs = rcnn.forward(params, batch, training=False, rng=None)
            return tr.weighted_cross_entropy(probs, batch.labels, weights)

        start = time.perf_counter()
        err = T.finite_diff_check(loss_fn, tensors, eps=1e-5)
        elapsed = time.perf_counter() - start
        assert err < 1e-4, f"max relative error {err}"
        assert elapsed < 60, f"took {elapsed:.1f}s"
        return (f"max rel err {err:.3g} over {sum(t.size for t in tensors)} "
                f"coordinates in {elapsed:.1f}s")

    _verdict(1, body)


# -- 2. class weights -------------------------------------------------------


def test_criterion_02_class_weights_match_hand_oracle():
    def body():
        train, val = PUBLISHED_COUNTS["train"], PUBLISHED_COUNTS["val"]
        n_train, n_val = sum(train.values()), sum(val.values())
        raw = {c: (val[c] / n_val) / (train[c] / n_train) for c in LABELS}
        total = sum(raw.values())
        oracle = np.array([raw[c] / total for c in LABELS])

        got = tr.compute_class_weights(train, val)
        npt.assert_allclose(got, oracle, atol=1e-9)
        npt.assert_allclose(got, [0.1394, 0.0953, 0.1135, 0.6517], atol=1e-3)
        assert abs(got.sum() - 1.0) < 1e-9
        return "weights " + ", ".join(f"{w:.4f}" for w in got)

    _verdict(2, body)


# -- 3. dataset fidelity ----------------------------------------------------

_OFFICIAL_NAMES = {
    "train": ("train.txt",),
    "val": ("dev.txt", "devwithlabels.txt", "val.txt"),
    "test": ("test.txt", "testwithlabels.txt"),
}

_TURN3 = {"happy": "that is wonderful news :)", "sad": "i feel so alone",
          "angry": "this makes me furious", "others": "ok see you then"}


def _synthesize_official(tmp_path):
    paths = {}
    next_id = 0
    for split, counts in PUBLISHED_COUNTS.items():
        rows = [dataio.DATASET_HEADER]
        for label, n in counts.items():
            for _ in range(n):
                rows.append(f"{next_id}\they there\thow is it going\t"
                            f"{_TURN3[label]}\t{label}")
                next_id += 1
        path = tmp_path / f"{split}.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths[split] = path
    return paths


def test_criterion_03_dataset_counts(tmp_path):
    def body():
        data_dir = os.environ.get("EMOCONV_DATA_DIR")
        if data_dir:
            paths = {}
            for split, names in _OFFICIAL_NAMES.items():
                found = [Path(data_dir) / n for n in names
                         if (Path(data_dir) / n).exists()]
                if not found:
                    raise AssertionError(
                        f"EMOCONV_DATA_DIR set but no {names} in {data_dir}")
                paths[split] = found[0]
            source = "released files"
        else:
            paths = _synthesize_official(tmp_path)
            source = "synthesized official-format files"
        totals = []
        for split, path in paths.items():
            loaded = load_dataset(path, split)
            assert len(loaded) == sum(PUBLISHED_COUNTS[split].values()), \
                f"{split}: {len(loaded)} rows"
            assert loaded.label_counts == PUBLISHED_COUNTS[split], \
                f"{split}: {loaded.label_counts}"
            totals.append(str(len(loaded)))
        return f"{source}: totals {'/'.join(totals)}, all 12 class counts exact"

    _verdict(3, body)


# -- 4. dimension chain -----------------------------------------------------


def test_criterion_04_dimension_chain():
    def body():
        rng = np.random.default_rng(0)
        emb, _ = build_embedding_matrix(toycorpus.vocab_for(
            toycorpus.make_split("train", 8, seed=0)), {}, 100, rng)
        params = rcnn.init_model(TrainConfig(), emb, rng)
        shapes, _ = rcnn.shape_report(params)
        assert shapes["projection.w"] == (200, 500), shapes["projection.w"]
        assert shapes["output.w"] == (4, 2504), shapes["output.w"]
        assert shapes["bilstm0.fwd.w"] == (800, 100)
        assert shapes["bilstm1.fwd.w"] == (800, 400)
        return "concat 500 -> projection 200 -> fused 2504 -> classes 4"

    _verdict(4, body)


# -- 5. schedule fidelity ---------------------------------------------------


def test_criterion_05_training_schedule(monkeypatch):
    def body():
        train_split = toycorpus.make_split("train", 24, seed=3)
        val_split = toycorpus.make_split("val", 8, seed=4)
        vocab = toycorpus.vocab_for(train_split, val_split)
        config = TrainConfig(batch_size=8, hidden_size=4, num_layers=1,
                             sentence_dim=0, embedding_dim=6,
                             dropout_bilstm=0.0, dropout_linear=0.0, seed=2)
        rng = np.random.default_rng(config.seed)
        emb, _ = build_embedding_matrix(vocab, {}, config.embedding_dim, rng)
        init_table = emb.table.values.copy()
        params = rcnn.init_model(config, emb, rng)

        post_clip_norms = []
        real_clip = tr.clip_gradients

        def recording_clip(named, max_norm):
            factor = real_clip(named, max_norm)
            total = math.sqrt(sum(
                float(np.sum(T.grad_of(t) ** 2)) for t in named.values()))
            post_clip_norms.append(total)
            return factor

        monkeypatch.setattr(tr, "clip_gradients", recording_clip)
        tables = {}

        def hook(epoch, live_params, row):
            tables[epoch] = live_params.embedding.table.values.copy()

        _, history = toycorpus.train_splits(params, train_split, val_split, None, config,
                                            rng, vocab=vocab, epoch_hook=hook)

        lrs = [row.lr for row in history]
        assert lrs[:5] == [0.0005] * 5, lrs
        assert math.isclose(lrs[5], 0.0001, rel_tol=1e-12), lrs[5]
        assert np.array_equal(tables[1], init_table)
        assert np.array_equal(tables[2], init_table)
        assert not np.array_equal(tables[3], init_table)
        assert post_clip_norms, "clip was never called"
        worst = max(post_clip_norms)
        assert worst <= 5 + 1e-9, f"post-clip norm {worst}"
        return (f"lr 0.0005 (epochs 1-5) -> 0.0001 (epoch 6); embedding "
                f"frozen 2 epochs; max post-clip norm {worst:.4f} over "
                f"{len(post_clip_norms)} steps")

    _verdict(5, body)


# -- 6. trainability --------------------------------------------------------


def test_criterion_06_trainable_on_synthetic_corpus():
    def body():
        train_split = toycorpus.make_split("train", 64, seed=0)
        val_split = toycorpus.make_split("val", 16, seed=1)
        vocab = toycorpus.vocab_for(train_split, val_split)
        config = TrainConfig(lr=0.02, batch_size=8, epochs=30, hidden_size=8,
                             num_layers=1, sentence_dim=0, embedding_dim=8,
                             dropout_bilstm=0.0, dropout_linear=0.0,
                             freeze_embedding_epochs=2, anneal_after_epoch=99,
                             seed=6)
        rng = np.random.default_rng(config.seed)
        emb, _ = build_embedding_matrix(vocab, {}, config.embedding_dim, rng)
        params = rcnn.init_model(config, emb, rng)

        start = time.perf_counter()
        toycorpus.train_splits(params, train_split, val_split, None, config, rng,
                               vocab=vocab, select="last")
        elapsed = time.perf_counter() - start

        examples = tr.encode_split(train_split, vocab)
        preds = tr.predict(params, examples, None, config.batch_size)
        accuracy = float(np.mean(preds == [ex.label for ex in examples]))
        assert accuracy >= 0.95, f"train accuracy {accuracy}"
        assert elapsed < 300, f"took {elapsed:.1f}s"
        return f"train accuracy {accuracy:.3f} in {elapsed:.1f}s (64 examples)"

    _verdict(6, body)


# -- 7. metric oracle -------------------------------------------------------


def _brute_force_micro_f1(gold, pred, scored):
    tp = fp = fn = 0
    for cls in scored:
        for g, p in zip(gold, pred):
            tp += g == cls and p == cls
            fp += g != cls and p == cls
            fn += g == cls and p != cls
    if tp == 0:
        return 0.0
    precision = Fraction(tp, tp + fp)
    recall = Fraction(tp, tp + fn)
    return float(2 * precision * recall / (precision + recall))


def test_criterion_07_micro_f1_oracle():
    def body():
        scored_ids = [metrics.LABEL_TO_INDEX[c] for c in metrics.SCORED_CLASSES]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            gold = rng.integers(0, 4, size=1000).tolist()
            pred = rng.integers(0, 4, size=1000).tolist()
            got = metrics.micro_f1(metrics.confusion_matrix(gold, pred))
            assert got == _brute_force_micro_f1(gold, pred, scored_ids), seed

        gold = ["happy", "sad", "angry", "others", "others"]
        pred = ["happy", "angry", "angry", "sad", "others"]
        worked = metrics.micro_f1(metrics.confusion_matrix(gold, pred))
        assert worked == 4 / 7, worked
        return "20x1000 random vectors exact; worked 5-example case = 4/7"

    _verdict(7, body)


# -- 8. determinism ---------------------------------------------------------


def _train_toy_run(tmp_path, tag):
    train_split = toycorpus.make_split("train", 16, seed=4)
    val_split = toycorpus.make_split("val", 8, seed=5)
    vocab = toycorpus.vocab_for(train_split, val_split)
    store = toycorpus.store_for([train_split, val_split], dim=3, seed=6)
    config = TrainConfig(lr=0.01, batch_size=4, epochs=2, hidden_size=4,
                         num_layers=1, sentence_dim=3, embedding_dim=6,
                         dropout_bilstm=0.5, dropout_linear=0.7,
                         freeze_embedding_epochs=1, anneal_after_epoch=99,
                         seed=9)
    rng = np.random.default_rng(config.seed)
    emb, _ = build_embedding_matrix(vocab, {}, config.embedding_dim, rng)
    params = rcnn.init_model(config, emb, rng)
    ckpt, history = toycorpus.train_splits(params, train_split, val_split, store, config,
                                           rng, vocab=vocab)
    dataio.save_checkpoint(ckpt, tmp_path / f"{tag}.ckpt")
    tr.write_history(history, tmp_path / f"{tag}.tsv")
    return (tmp_path / f"{tag}.ckpt").read_bytes(), \
        (tmp_path / f"{tag}.tsv").read_text()


def test_criterion_08_bit_identical_runs(tmp_path):
    def body():
        ckpt_a, hist_a = _train_toy_run(tmp_path, "a")
        ckpt_b, hist_b = _train_toy_run(tmp_path, "b")
        assert ckpt_a == ckpt_b, "checkpoints differ"
        assert hist_a == hist_b, "history files differ"
        return (f"checkpoint ({len(ckpt_a)} bytes) and history bit-identical "
                f"across runs (live dropout, fused sentence vectors)")

    _verdict(8, body)


# -- 9. fine-tune schedule --------------------------------------------------


def _binary_corpus(n, seed, keyword="glee"):
    """Texts labeled by the presence of one keyword."""
    rng = np.random.default_rng(seed)
    filler = ["movie", "was", "so", "very", "the", "plot", "acting", "music"]
    corpus = []
    for i in range(n):
        count = int(rng.integers(3, 7))
        words = [filler[j] for j in rng.integers(0, len(filler), count)]
        label = int(i % 2 == 0)
        if label:
            words.insert(int(rng.integers(0, len(words) + 1)), keyword)
        corpus.append((" ".join(words), label))
    return corpus


def test_criterion_09_finetune_schedule():
    def body():
        corpus = _binary_corpus(100, seed=7)
        train_part, held_out = corpus[:80], corpus[80:]
        sequences = [TokenSequence(tokenize(text)) for text, _ in corpus]
        sequences.append(TokenSequence(["neverused"]))
        vocab = build_vocab(sequences)
        corpus_ids = {i for ids, _ in encode_corpus(train_part, vocab)
                      for i in ids.tolist()}
        untouched_row = vocab.token_to_id["neverused"]
        assert untouched_row not in corpus_ids

        def fresh_model():
            rng = np.random.default_rng(7)
            emb, _ = build_embedding_matrix(vocab, {}, 8, rng)
            return build_finetune_model(emb, rng, filters_per_size=8), rng

        schedule = FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=5,
                                    lr=0.02, batch_size=16)
        model, rng = fresh_model()
        init_table = model.emb.table.values.copy()
        emb, _ = finetune_embeddings(
            model, train_part, FinetuneSchedule(1, 0, lr=0.02, batch_size=16),
            rng, vocab=vocab)
        assert np.array_equal(emb.table.values, init_table), \
            "frozen epoch moved the embedding"

        model, rng = fresh_model()
        emb, _ = finetune_embeddings(model, train_part, schedule, rng,
                                     vocab=vocab)
        changed = [i for i in range(vocab.size)
                   if not np.array_equal(emb.table.values[i], init_table[i])]
        assert set(changed) <= corpus_ids, "non-corpus rows moved"
        assert corpus_ids & set(changed), "no corpus row moved"
        assert np.array_equal(emb.table.values[untouched_row],
                              init_table[untouched_row])

        encoded = encode_corpus(held_out, vocab)
        preds = predict_finetune(model, encoded)
        accuracy = float(np.mean(preds == [label for _, label in held_out]))
        assert accuracy >= 0.95, f"held-out accuracy {accuracy}"
        return (f"frozen epoch bit-identical; {len(changed)} corpus rows "
                f"updated, spectator row untouched; held-out accuracy "
                f"{accuracy:.2f}")

    _verdict(9, body)


# -- 10. sensitivity harness ------------------------------------------------


def test_criterion_10_sweep_harness(tmp_path):
    def body():
        train_split = toycorpus.make_split("train", 12, seed=1)
        val_split = toycorpus.make_split("val", 8, seed=2)
        base = TrainConfig(batch_size=4, epochs=2, hidden_size=4, num_layers=1,
                           sentence_dim=0, embedding_dim=6, dropout_bilstm=0.0,
                           dropout_linear=0.0, freeze_embedding_epochs=1,
                           anneal_after_epoch=99)
        spec = sw.SweepSpec("lr", [1e-4, 5e-4], seeds=(0, 1, 2))
        records, aggregates = sw.run_sweep(spec, base,
                                           tr.RunData.encode(train_split, val_split), tmp_path)
        assert len(records) == 6 and len(aggregates) == 2
        assert len(list(tmp_path.glob("*/run.json"))) == 6
        assert sum(row["runs"] for row in aggregates) == 6
        for record in records:
            assert record.trained_effectively == \
                (record.final_train_loss < record.baseline_loss), record
        flagged = sum(not r.trained_effectively for r in records)
        report = sw.format_sweep_report(aggregates)
        assert len(report.splitlines()) == 3
        return (f"6 run records -> 2 aggregate rows; {flagged} run(s) flagged "
                f"as not trained effectively, consistent with the baseline "
                f"comparison")

    _verdict(10, body)
