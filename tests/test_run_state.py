"""A run's state between epochs is one ``train.RunState``.

Both models train through ``train.run_epochs``, which runs the epochs of
``lrs`` past ``state.epoch`` and keeps in the state everything that lives
from one epoch to the next.  So a run split into two calls over one state
(epochs 1..k, then k+1..n) is the run made in one call, byte for byte: its
parameters, every yielded loss and clipped fraction, Adam's step count and
moments, and the generator.  Each run below goes through its model's own
entry (``train.run``, ``finetune.run``) and its own step; only the loop is
wrapped, to make the split and to read the state.
"""

import dataclasses

import numpy as np
import pytest

import toycorpus
from emoconv import finetune as ft
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.textprep import TokenSequence, build_vocab, token_rows

EPOCHS = 4
# frozen through epoch 2, annealed from epoch 3, with dropout and clipping
CLASSIFIER = TrainConfig(lr=0.01, batch_size=8, epochs=EPOCHS, hidden_size=6, num_layers=1,
                         sentence_dim=4, embedding_dim=6, dropout_bilstm=0.3,
                         dropout_linear=0.3, clip_norm=0.15, freeze_embedding_epochs=2,
                         anneal_after_epoch=2, anneal_factor=0.5, seed=13)
CNN = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=EPOCHS - 1, lr=0.01, batch_size=8,
                          dim=6, filters_per_size=4)
run_epochs = tr.run_epochs


def _classifier():
    train_split = toycorpus.make_split("train", 16, seed=13)
    val_split = toycorpus.make_split("val", 8, seed=14)
    store = toycorpus.store_for([train_split, val_split], CLASSIFIER.sentence_dim, seed=15)
    return tr.run(CLASSIFIER,
                  dataclasses.replace(tr.RunData.encode(train_split, val_split), store=store))


def _cnn():
    corpus = [(f"{'yay great' if i % 2 else 'sigh bad'} day {i % 5}", i % 2) for i in range(24)]
    rows = list(token_rows((text for text, _ in corpus), 1))
    vocab = build_vocab(map(TokenSequence, rows))
    return ft.run(CNN, 3, ft.encode_corpus(corpus, vocab, rows), vocab, {})


def _outcome(monkeypatch, module, train, split_at):
    """Every byte a run of ``train`` leaves when ``module``'s loop runs in
    two calls split after epoch ``split_at`` (one call when None)."""
    seen = {"yields": [], "epochs": []}

    def loop(named, step, n_examples, state, *, lrs, **kwargs):
        for part in ([lrs] if split_at is None else [lrs[:split_at], lrs]):
            for out in run_epochs(named, step, n_examples, state, lrs=part, **kwargs):
                seen["yields"].append(out)
                yield out
            seen["epochs"].append(state.epoch)
        seen["named"], seen["state"] = named, state

    monkeypatch.setattr(module, "run_epochs", loop)
    record = train()[1]  # the classifier's history, the CNN's losses
    state = seen["state"]
    adam = state.adam
    return {"record": record, "yields": seen["yields"], "epochs": seen["epochs"],
            "params": {n: t.values.tobytes() for n, t in seen["named"].items()},
            "t": adam.t, "m": {n: a.tobytes() for n, a in adam.m.items()},
            "v": {n: a.tobytes() for n, a in adam.v.items()},
            "rows": {n: a.tobytes() for n, a in adam.rows.items()},
            "rng": state.rng.bit_generator.state}


@pytest.mark.parametrize("module, train", [(tr, _classifier), (ft, _cnn)],
                         ids=["classifier", "cnn"])
def test_a_run_split_over_one_state_is_the_run_in_one_call(monkeypatch, module, train):
    whole = _outcome(monkeypatch, module, train, None)
    assert [out[0] for out in whole["yields"]] == list(range(1, EPOCHS + 1))
    assert whole["epochs"] == [EPOCHS] and whole["t"] > 0
    assert "embedding.table" in whole["m"]  # the unfrozen epochs moved the table
    if module is tr:
        assert len({out[1] for out in whole["yields"]}) == 3  # two annealed rates
        assert 0 < sum(out[3] for out in whole["yields"]) < EPOCHS  # some steps clipped
    for k in range(1, EPOCHS):
        split = _outcome(monkeypatch, module, train, k)
        assert split["epochs"] == [k, EPOCHS]
        split["epochs"] = whole["epochs"]
        assert split == whole, f"split after epoch {k}"


def test_a_finished_state_runs_no_more_epochs():
    state = tr.RunState(None, epoch=2)
    named = {"embedding.table": T.Tensor(np.zeros((1, 1)), requires_grad=True)}
    assert list(run_epochs(named, None, 1, state, lrs=[0.1, 0.1], batch_size=1,
                           frozen_epochs=0)) == []
    assert state.epoch == 2
