"""Embedding fine-tuning via a binary-sentiment CNN.

A small convolutional classifier (kernel widths 1/2/3, 300 filters each,
sigmoid output) trains on noisily labeled (text, 0/1) pairs with the
embedding table frozen for the first epoch and unfrozen afterwards.  The
trained embedding matrix is the product; the CNN itself is scaffolding and
is thrown away.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .rcnn import Batch
from .textprep import Vocabulary, token_rows
from .train import LOG_FLOOR, iter_batches, run_epochs

log = logging.getLogger(__name__)

DROPOUT_RATE = 0.5  # on the pooled features, before the output layer


@dataclass
class FinetuneSchedule:
    frozen_epochs: int = 1
    unfrozen_epochs: int = 3
    lr: float = 0.0005
    batch_size: int = 64


KERNEL_SIZES = (1, 2, 3)  # convolution widths, one filter bank each


@dataclass
class FinetuneModel:
    """The CNN over ``emb``: every parameter besides the table under its
    name in the table of :func:`_shapes`."""
    emb: L.EmbeddingMatrix
    tensors: dict[str, T.Tensor]

    def named(self) -> dict[str, T.Tensor]:
        return {"embedding.table": self.emb.table, **self.tensors}

    @property
    def bank(self) -> list[tuple[T.Tensor, T.Tensor]]:
        """Per width of ``KERNEL_SIZES``, the (W, b) pair that
        ``layers.conv1d_over_time`` takes."""
        return [(self.tensors[f"conv_k{k}.w"], self.tensors[f"conv_k{k}.b"])
                for k in KERNEL_SIZES]


def _shapes(dim: int, filters_per_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each parameter besides the embedding table, in
    ``FinetuneModel.named`` order: the model's one parameter table."""
    out = {}
    for k in KERNEL_SIZES:
        out[f"conv_k{k}.w"] = (filters_per_size, k * dim)
        out[f"conv_k{k}.b"] = (filters_per_size,)
    out["output.w"], out["output.b"] = (1, len(KERNEL_SIZES) * filters_per_size), (1,)
    return out


def _build(emb: L.EmbeddingMatrix, arrays: dict[str, np.ndarray]) -> FinetuneModel:
    """The model over ``emb`` whose other parameters are ``arrays`` (in
    table order), each held as a trainable tensor without a copy."""
    return FinetuneModel(emb, {name: T.Tensor(a, requires_grad=True)
                               for name, a in arrays.items()})


def build_finetune_model(emb: L.EmbeddingMatrix, rng,
                         filters_per_size: int = 300) -> FinetuneModel:
    """CNN over the embedding: conv bank -> max pool -> dropout -> sigmoid,
    its parameters drawn in table order (``layers.init_arrays``)."""
    return _build(emb, L.init_arrays(_shapes(emb.dim, filters_per_size), rng))


def forward_finetune(model: FinetuneModel, batch: Batch, training: bool, rng) -> T.Tensor:
    """Probability of the positive class for each row of a packed batch:
    one [B] tensor, in row order, from one pass over the batch; one node
    takes the sigmoid of the output layer's one column."""
    cells = L.embedding_lookup(model.emb, batch.ids)
    pooled = L.conv1d_over_time(model.bank, cells, batch.valid_lengths)
    pooled = L.dropout(pooled, DROPOUT_RATE, training, rng)
    logits = T.linear_rows(pooled, model.tensors["output.w"], model.tensors["output.b"])
    out = T.sigmoid_(logits.values[:, 0].copy())

    def backward_fn(g):
        return ((g * out * (1.0 - out)).reshape(logits.shape),)

    return T.from_op(out, "sigmoid_column", (logits,), backward_fn)


def binary_cross_entropy(probs: T.Tensor, labels) -> T.Tensor:
    """Mean BCE over a probability vector, logs floored at 1e-12, as one
    graph node.  Its ufuncs run in the order of the chain floor, log, weight
    by the label, add, sum, scale, whose bytes it keeps; no gradient flows
    from a term whose probability (p or 1 - p) is at or below the floor."""
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape:
        raise ValueError(f"probs shape {probs.shape} != labels shape {labels.shape}")
    p = probs.values
    a = 1.0 - p
    vp, va = np.maximum(p, LOG_FLOOR), np.maximum(a, LOG_FLOOR)
    anti = 1.0 - labels
    s = -1.0 / labels.size

    def backward_fn(g):
        gs = g * s
        return (((gs * labels) / vp) * (p > LOG_FLOOR)
                - ((gs * anti) / va) * (a > LOG_FLOOR),)

    loss = np.asarray((np.log(vp) * labels + np.log(va) * anti).sum()) * s
    return T.from_op(loss, "binary_cross_entropy", (probs,), backward_fn)


def encode_corpus(corpus, vocab: Vocabulary, rows=None) -> list[tuple[np.ndarray, int]]:
    """(text, 0/1) pairs -> (token-id array, label) pairs, without the texts
    that hold no token.  ``rows`` are the texts' token rows
    (``token_rows(texts, 1)``), for a caller that has them already;
    otherwise the texts are tokenized here."""
    if rows is None:
        rows = token_rows((text for text, _ in corpus), 1)
    out = []
    for (_, label), tokens in zip(corpus, rows, strict=True):
        if label not in (0, 1):
            raise ValueError(f"finetune labels must be 0 or 1, got {label!r}")
        if tokens:
            out.append((vocab.ids(tokens), int(label)))
    if not out:
        raise ValueError("finetune corpus is empty after tokenization")
    return out


def finetune_encoded(model: FinetuneModel, encoded, schedule: FinetuneSchedule, rng):
    """Train the CNN on (token-id array, label) pairs from
    :func:`encode_corpus`; returns (embedding matrix, epoch losses).

    The embedding stays bit-identical through ``frozen_epochs`` and is
    returned still attached to ``model.emb`` after the unfrozen epochs.
    """
    if schedule.lr <= 0 or schedule.batch_size < 1:
        raise ValueError(f"bad schedule: lr {schedule.lr}, batch {schedule.batch_size}")

    def step(indices):
        rows, labels = zip(*(encoded[i] for i in indices))
        return binary_cross_entropy(forward_finetune(model, Batch.of_rows(rows), True, rng),
                                    labels)

    epochs = schedule.frozen_epochs + schedule.unfrozen_epochs
    losses = []
    for epoch, _, loss, _ in run_epochs(model.named(), step, len(encoded), rng,
                                        lrs=[schedule.lr] * epochs,
                                        batch_size=schedule.batch_size,
                                        frozen_epochs=schedule.frozen_epochs):
        losses.append(loss)
        log.info("finetune epoch %d (%s): loss %.4f", epoch,
                 "frozen" if epoch <= schedule.frozen_epochs else "unfrozen", loss)
    return model.emb, losses


def finetune_embeddings(model: FinetuneModel, corpus, schedule: FinetuneSchedule,
                        rng, *, vocab: Vocabulary):
    """:func:`encode_corpus` over (text, 0/1) pairs, then :func:`finetune_encoded`."""
    return finetune_encoded(model, encode_corpus(corpus, vocab), schedule, rng)


def predict_finetune(model: FinetuneModel, encoded) -> np.ndarray:
    """Eval-mode 0/1 predictions for (ids, label) pairs, a batch at a time,
    without building a graph."""
    preds = []
    with T.no_grad():
        for chunk in iter_batches(encoded, FinetuneSchedule.batch_size):
            batch = Batch.of_rows([ids for ids, _ in chunk])
            preds.append(forward_finetune(model, batch, False, None).values >= 0.5)
    return np.concatenate(preds).astype(np.int64) if preds else np.zeros(0, dtype=np.int64)


def load_finetune_corpus(path) -> list[tuple[str, int]]:
    """TSV with header ``text<TAB>label``, label 0 or 1; no text holds a NUL
    character (the tokenizer's separator)."""
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n")
        if header != "text\tlabel":
            raise ValueError(f"{path}: expected header 'text<TAB>label', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            text, tab, raw = line.rpartition("\t")
            if not tab or raw not in ("0", "1"):
                raise ValueError(f"{path} line {lineno}: expected 'text<TAB>0|1'")
            if "\0" in text:
                raise ValueError(f"{path} line {lineno}: NUL character, "
                                 "which no text may hold")
            out.append((text, int(raw)))
    return out
