"""Train the conversation classifier end to end on a synthetic corpus.

Real runs feed tens of thousands of conversations through 200-unit layers;
this demo shrinks everything so the whole pipeline — batching, weighted
loss, Adam with clipping, freeze/anneal schedules, best-epoch selection —
finishes in seconds.
"""

import numpy as np

from emoconv import rcnn, train
from emoconv.config import TrainConfig
from emoconv.dataio import (Conversation, DatasetSplit, build_embedding_matrix)
from emoconv.metrics import format_report
from emoconv.textprep import TokenSequence, build_vocab

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

# -- 2. model ------------------------------------------------------------------
# No pretrained vectors here, so every row of the embedding table is random
# and nothing is fused at the output (sentence_dim 0 = the ablation setting).

config = TrainConfig(lr=0.02, batch_size=8, epochs=8, hidden_size=8,
                     num_layers=1, sentence_dim=0, embedding_dim=8,
                     dropout_bilstm=0.0, dropout_linear=0.0,
                     freeze_embedding_epochs=2, anneal_after_epoch=99, seed=3)
# Each split is tokenized once: the training rows build the vocabulary and
# are then encoded, and the encoded validation split serves training and the
# report below.
train_rows = list(train.split_rows(train_split))
vocab = build_vocab(map(TokenSequence, train_rows))
train_examples = train.encode_split(train_split, vocab, train_rows)
val_examples = train.encode_split(val_split, vocab)
rng = np.random.default_rng(config.seed)
embedding, _ = build_embedding_matrix(vocab, {}, config.embedding_dim, rng)
params = rcnn.init_model(config, embedding, rng)

shapes, total = rcnn.shape_report(params)
print(f"{total} trainable parameters; projection {shapes['projection.w']}")

# -- 3. train -------------------------------------------------------------------
# The embedding stays frozen for two epochs (watch the loss still fall), then
# the whole model moves together.

weights = train.compute_class_weights(train_split.label_counts, val_split.label_counts)
checkpoint, history = train.train_encoded(params, train_examples, val_examples, None,
                                          config, rng, weights=weights, vocab=vocab)
print()
print(train.format_history(history))
print(f"best epoch {checkpoint.epoch} at val micro-F1 "
      f"{checkpoint.best_val_f1:.3f}")

# -- 4. inspect the selected model on the validation split ----------------------

best = rcnn.restore(config, checkpoint.params)
cm, f1 = train.evaluate(best, val_examples, None, config.batch_size)
print()
print(format_report(cm))
