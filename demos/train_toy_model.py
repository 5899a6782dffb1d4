"""Train the conversation classifier end to end on a synthetic corpus.

Real runs feed tens of thousands of conversations through 200-unit layers;
this demo shrinks everything so the whole pipeline — batching, weighted
loss, Adam with clipping, freeze/anneal schedules, best-epoch selection —
finishes in seconds.
"""

import numpy as np

from emoconv import rcnn, train
from emoconv.config import TrainConfig
from emoconv.dataio import Conversation, DatasetSplit
from emoconv.metrics import format_report

# -- 1. a corpus whose third turn gives the emotion away ----------------------

KEYWORD = {"happy": "yay", "sad": "sigh", "angry": "grr", "others": "anyway"}
FILLER = ["well", "i", "see", "what", "you", "mean", "by", "that"]


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


train_split = make_split("train", 48, seed=1)
val_split = make_split("val", 16, seed=2)
print(f"train {len(train_split)} conversations, val {len(val_split)}")

# -- 2. the run -----------------------------------------------------------------
# No pretrained vectors here, so every row of the embedding table is random
# and nothing is fused at the output (sentence_dim 0 = the ablation setting).
# train.RunData.encode tokenizes each split once: the training rows build
# the vocabulary and are then encoded, and the encoded validation split
# serves training and the report below.  A RunData is everything a run
# reads; this one holds no sentence or word vectors.

config = TrainConfig(lr=0.02, batch_size=8, epochs=8, hidden_size=8,
                     num_layers=1, sentence_dim=0, embedding_dim=8,
                     dropout_bilstm=0.0, dropout_linear=0.0,
                     freeze_embedding_epochs=2, anneal_after_epoch=99, seed=3)
data = train.RunData.encode(train_split, val_split)

# -- 3. train -------------------------------------------------------------------
# train.run is what `emoconv train` runs: one generator seeded with
# config.seed draws the embedding table, then the model, then shuffles and
# drops out through training.  The embedding stays frozen for two epochs
# (watch the loss still fall), then the whole model moves together.

checkpoint, history = train.run(config, data)
print()
print(train.format_history(history))
print(f"best epoch {checkpoint.epoch} at val micro-F1 "
      f"{checkpoint.best_val_f1:.3f}")

# -- 4. inspect the selected model on the validation split ----------------------

best = rcnn.restore(config, checkpoint.params)
shapes, total = rcnn.shape_report(best)
print(f"{total} trainable parameters; projection {shapes['projection.w']}")
cm, f1 = train.evaluate(best, data.val_ex, None, config.batch_size)
print()
print(format_report(cm))
