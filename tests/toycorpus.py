"""Synthetic keyword-separable corpora shared by the training tests.

The third turn always contains one class keyword, so a working model can
reach near-perfect accuracy quickly; everything else is filler drawn from a
small pool.
"""

import numpy as np

from emoconv import textprep
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


def store_of(vectors):
    """A sentence-vector store holding ``vectors`` (id -> vector), in order."""
    rows = list(vectors.values())
    matrix = np.stack(rows) if rows else np.zeros((0, 0))
    return SentenceVectorStore({conv_id: k for k, conv_id in enumerate(vectors)}, matrix)


def store_for(splits, dim, seed):
    rng = np.random.default_rng(seed)
    return store_of({conv.id: rng.uniform(-1, 1, dim)
                     for split in splits for conv in split.conversations})


def write_sentence_tsv(store, path):
    """The sentence-vector TSV of ``store``; each value round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for conv_id, k in store.row.items():
            fh.write(conv_id + "\t" + " ".join(map(repr, store.matrix[k].tolist())) + "\n")
    return path


def write_word_vectors(tokens, matrix, path):
    """Word vectors in their text format, a token and its values on each line;
    each value round-trips exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, row in zip(tokens, matrix):
            fh.write(token + " " + " ".join(map(repr, np.asarray(row, float).tolist())) + "\n")
    return path


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
    """``train.train_encoded`` of a model the test drew, on two raw splits
    encoded with the test's ``vocab`` (``train.encode_split``) and weighted
    as ``train.RunData`` weighs them; the keyword arguments (``select``,
    ``epoch_hook``) pass through."""
    weights = tr.compute_class_weights(train_split.label_counts, val_split.label_counts)
    return tr.train_encoded(params, tr.encode_split(train_split, vocab),
                            tr.encode_split(val_split, vocab), store, config, rng,
                            weights=weights, vocab=vocab, **kwargs)


def count_encoding(monkeypatch):
    """Two lists that fill from here on: the texts tokenized (``textprep._tokens``,
    in order) and the name of each split encoded (``train.encode_split``)."""
    texts, splits = [], []
    tokens, encode_split = textprep._tokens, tr.encode_split
    monkeypatch.setattr(textprep, "_tokens", lambda chunk: texts.extend(chunk) or tokens(chunk))
    monkeypatch.setattr(tr, "encode_split",
                        lambda split, *a: splits.append(split.name) or encode_split(split, *a))
    return texts, splits
