"""Synthetic keyword-separable corpora shared by the training tests.

The third turn always contains one class keyword, so a working model can
reach near-perfect accuracy quickly; everything else is filler drawn from a
small pool.
"""

import numpy as np

from emoconv import train as tr
from emoconv.dataio import (LABELS, Conversation, DatasetSplit,
                            SentenceVectorStore)
from emoconv.textprep import build_vocab, assemble_input

KEYWORDS = {"happy": "yay", "sad": "sigh", "angry": "grr", "others": "hmm"}
FILLER = ["so", "um", "well", "right", "the", "thing", "really", "oh"]


def make_split(name, n, seed):
    rng = np.random.default_rng(seed)
    conversations = []
    counts = {label: 0 for label in LABELS}
    for i in range(n):
        label = LABELS[i % len(LABELS)]
        counts[label] += 1

        def phrase(k):
            return " ".join(rng.choice(FILLER) for _ in range(k))

        turn3 = f"{phrase(1)} {KEYWORDS[label]} {phrase(1)}"
        conversations.append(Conversation(f"{name}{i:04d}",
                                          (phrase(int(rng.integers(1, 3))),
                                           phrase(int(rng.integers(1, 3))),
                                           turn3),
                                          label))
    return DatasetSplit(name, conversations, counts)


def vocab_for(*splits):
    seqs = [assemble_input(c.turns) for split in splits for c in split.conversations]
    return build_vocab(seqs)


def store_for(splits, dim, seed):
    rng = np.random.default_rng(seed)
    store = SentenceVectorStore(dim)
    for split in splits:
        for conv in split.conversations:
            store.vectors[conv.id] = rng.uniform(-1, 1, dim)
    return store


def write_split(split, path, labeled=True):
    with open(path, "w", encoding="utf-8") as fh:
        if labeled:
            fh.write("id\tturn1\tturn2\tturn3\tlabel\n")
            for c in split.conversations:
                fh.write("\t".join([c.id, *c.turns, c.label]) + "\n")
        else:
            fh.write("id\tturn1\tturn2\tturn3\n")
            for c in split.conversations:
                fh.write("\t".join([c.id, *c.turns]) + "\n")
    return path


def train_splits(params, train_split, val_split, store, config, rng, *, vocab, **kwargs):
    """``train.train_encoded`` on two raw splits: encode both, weight the
    classes by their raw distributions, and train; the keyword arguments
    (``select``, ``epoch_hook``) pass through."""
    weights = tr.compute_class_weights(train_split.label_counts, val_split.label_counts)
    return tr.train_encoded(params, tr.encode_split(train_split, vocab),
                            tr.encode_split(val_split, vocab), store, config, rng,
                            weights=weights, vocab=vocab, **kwargs)
