"""What the benchmark in ``perfbench/`` needs from the program.

A traced benchmark run wraps every function named in ``perfbench/spans.py``
by attribute name, so each must exist and be callable; the untraced
``train_paper`` run wraps ``train.evaluate`` alone and splits training time
from validation time at those calls, so ``train_encoded`` must reach it
through the ``train`` module global, once per epoch.  The traced run also
reads ``ids.size`` and ``valid_lengths.sum()`` off each ``train.make_batch``
result for its padding ratio; a packed batch keeps both, and the ratio
reads 1.
Both models train through the one loop, ``train.run_epochs``, which steps
through the module-level ``train.adam_step`` with the ``AdamState`` of the
run's ``train.RunState``, so its traced seconds measure the same call, with
the same arguments, on both sides of a comparison.  The benchmark calls
``train_encoded`` and ``finetune_embeddings`` with a model and a generator it
drew, not the run entries ``train.run`` and ``finetune.run``; each makes a
fresh ``RunState`` over that generator, as the run entries' calls do.
Likewise every dropout of both models runs through the module-level
``layers.dropout``, the function ``layers.dropout.s`` times.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import toycorpus
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.textprep import SPECIALS, Vocabulary

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans.ALL_TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_every_traced_name_is_a_callable(name):
    module, _, function = name.partition(".")
    assert callable(getattr(importlib.import_module(f"emoconv.{module}"), function, None))


def test_train_encoded_validates_through_the_module_global(monkeypatch):
    config = TrainConfig(lr=0.01, batch_size=8, epochs=3, hidden_size=4, num_layers=1,
                         sentence_dim=0, embedding_dim=4, freeze_embedding_epochs=1)
    train_split = toycorpus.make_split("train", 12, seed=0)
    val_split = toycorpus.make_split("val", 8, seed=1)
    vocab = toycorpus.vocab_for(train_split, val_split)
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 4)))
    params = rcnn.init_model(config, emb, rng)
    calls = []
    evaluate = tr.evaluate
    monkeypatch.setattr(tr, "evaluate", lambda *a, **k: calls.append(1) or evaluate(*a, **k))
    _, history = tr.train_encoded(
        params, tr.encode_split(train_split, vocab), tr.encode_split(val_split, vocab),
        None, config, rng, vocab=vocab,
        weights=tr.compute_class_weights(train_split.label_counts, val_split.label_counts))
    assert len(calls) == len(history) == config.epochs


def test_make_batch_keeps_what_the_padding_probe_reads():
    split = toycorpus.make_split("train", 12, seed=0)
    vocab = toycorpus.vocab_for(split)
    examples = tr.encode_split(split, vocab)
    batch = tr.make_batch(examples, None, 0)
    valid, cells = int(batch.valid_lengths.sum()), int(batch.ids.size)
    assert valid == sum(len(ex.ids) for ex in examples)
    assert valid == cells  # packed: no padding, so the ratio reads 1


def test_both_loops_step_through_the_one_adam_step(monkeypatch):
    assert list(inspect.signature(tr.adam_step).parameters) == ["state", "named_params", "lr"]
    adam_step, calls = tr.adam_step, []
    monkeypatch.setattr(tr, "adam_step", lambda *a: calls.append(1) or adam_step(*a))

    vocab = Vocabulary([*SPECIALS, "good", "bad", "film"])
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 4)))
    model = ft.build_finetune_model(emb, rng, filters_per_size=2)
    corpus = [("good film", 1), ("bad film", 0), ("good", 1), ("bad", 0), ("film", 1)]
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01,
                                   batch_size=2)
    ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert len(calls) == 2 * 3  # 2 epochs of ceil(5 / 2) batches

    calls.clear()
    config = TrainConfig(lr=0.01, batch_size=5, epochs=2, hidden_size=3, num_layers=1,
                         sentence_dim=0, embedding_dim=4, freeze_embedding_epochs=1)
    train_split = toycorpus.make_split("train", 12, seed=0)
    val_split = toycorpus.make_split("val", 8, seed=1)
    vocab = toycorpus.vocab_for(train_split, val_split)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (vocab.size, 4)))
    toycorpus.train_splits(rcnn.init_model(config, emb, rng), train_split, val_split, None, config,
                           rng, vocab=vocab)
    assert len(calls) == 2 * 3  # 2 epochs of ceil(12 / 5) batches


def test_every_dropout_goes_through_layers_dropout(monkeypatch):
    assert inspect.isfunction(L.dropout) and L.dropout.__module__ == "emoconv.layers"
    assert list(inspect.signature(L.dropout).parameters) == ["x", "rate", "training", "rng"]
    dropout, calls = L.dropout, []
    monkeypatch.setattr(L, "dropout", lambda *a: calls.append(1) or dropout(*a))
    config = TrainConfig(hidden_size=3, num_layers=2, sentence_dim=2, embedding_dim=4)
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (9, 4)))
    batch = rcnn.Batch.of_rows([[1, 2, 3], [4]], np.zeros((2, 2)))
    rcnn.forward(rcnn.init_model(config, emb, rng), batch, True, rng)
    assert len(calls) == config.num_layers + 2  # after each BiLSTM layer, both linear inputs
    calls.clear()
    model = ft.build_finetune_model(emb, rng, filters_per_size=2)
    ft.forward_finetune(model, rcnn.Batch.of_rows([[1, 2], [3]]), True, rng)
    assert len(calls) == 1
