"""Measure how sensitive the classifier is to one hyperparameter at a time.

Each (value, seed) pair trains a fresh model into a run directory (its
checkpoint, history and run.json) named by hashes of the exact configuration
and of the encoded inputs the runs read, so re-running the script reuses
finished work instead of repeating it.
"""

import tempfile
from pathlib import Path

import numpy as np

from emoconv import sweep
from emoconv.config import TrainConfig
from emoconv.dataio import Conversation, DatasetSplit
from emoconv.train import RunData

# -- 1. toy data (same recipe as the training demo) ---------------------------

KEYWORD = {"happy": "yay", "sad": "sigh", "angry": "grr", "others": "anyway"}
FILLER = ["well", "i", "see", "what", "you", "mean"]


def make_split(name, n, seed):
    rng = np.random.default_rng(seed)
    labels = sorted(KEYWORD)
    conversations = []
    for i in range(n):
        label = labels[i % len(labels)]
        words = [FILLER[j] for j in rng.integers(0, len(FILLER), 4)]
        turns = (" ".join(words[:2]), " ".join(words[2:]),
                 f"{KEYWORD[label]} " + " ".join(words[:2]))
        conversations.append(Conversation(f"{name}{i:03d}", turns, label))
    counts = {lab: sum(c.label == lab for c in conversations) for lab in labels}
    return DatasetSplit(name, conversations, counts)


# tokenized once, for both sweeps; the splits go once encoded
data = RunData.encode(make_split("train", 24, seed=1), make_split("val", 12, seed=2))

# -- 2. sweep the learning rate ------------------------------------------------
# Three seeds per value; a run whose final loss fails to beat the
# uniform-guess baseline is counted in the right-hand column.  At lr 5 the
# optimizer overshoots on every step and never recovers — exactly the
# pathology the flag exists to surface.

base = TrainConfig(batch_size=8, epochs=5, hidden_size=6, num_layers=1,
                   sentence_dim=0, embedding_dim=6, dropout_bilstm=0.0,
                   dropout_linear=0.0, freeze_embedding_epochs=1,
                   anneal_after_epoch=99)
spec = sweep.SweepSpec(axis="lr", values=[5.0, 0.02], seeds=(0, 1, 2))

with tempfile.TemporaryDirectory() as runs_dir:
    records, aggregates = sweep.run_sweep(spec, base, data, runs_dir)
    print(f"{len(records)} runs -> {len(list(Path(runs_dir).glob('*/run.json')))} "
          "run directories\n")
    print(sweep.format_sweep_report(aggregates))

    # Calling run_sweep again with the same directory does no training at
    # all: every run directory is already finished on disk.
    again, _ = sweep.run_sweep(spec, base, data, runs_dir)
    print("\nresumed without retraining:",
          [f"{r.best_val_f1:.3f}" for r in again])
