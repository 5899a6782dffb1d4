"""Embedding fine-tuning via a binary-sentiment CNN.

A small convolutional classifier (kernel widths 1/2/3, 300 filters each,
one output logit, binary cross-entropy on that logit) trains on noisily
labeled (text, 0/1) pairs with the embedding table frozen for the first
epoch and unfrozen afterwards; a text is called positive where its logit is
at least 0.  The trained embedding matrix is the product; the CNN itself is
scaffolding and is thrown away.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .config import TrainConfig, check_types
from .dataio import line_error, read_lines
from .rcnn import Batch
from .textprep import Vocabulary, token_rows
from .train import RunState, iter_batches, run_epochs, seeded_table

log = logging.getLogger(__name__)

DROPOUT_RATE = 0.5  # on the pooled features, before the output layer
KERNEL_SIZES = (1, 2, 3)  # convolution widths, one filter bank each
FILTERS_PER_SIZE = 300


@dataclass
class FinetuneSchedule:
    """A fine-tuning run's settings: the epochs with the table frozen, then
    unfrozen (each >= 0, one at least in all), Adam's rate (finite, > 0),
    the batch size, the table width ``dim`` and the CNN's filters per
    kernel width (each >= 1).  All are checked when the schedule is made,
    types first, so a bad one fails before any file is read or any value
    drawn."""
    frozen_epochs: int = 1
    unfrozen_epochs: int = 3
    lr: float = 0.0005
    batch_size: int = 64
    dim: int = TrainConfig().embedding_dim
    filters_per_size: int = FILTERS_PER_SIZE

    def __post_init__(self):
        check_types(self)
        for name in ("frozen_epochs", "unfrozen_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.frozen_epochs + self.unfrozen_epochs < 1:
            raise ValueError("frozen_epochs + unfrozen_epochs must be >= 1, got 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("batch_size", "dim", "filters_per_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class FinetuneModel:
    """The CNN over ``emb``: every parameter besides the table under its
    name in the table of :func:`_shapes`."""
    emb: L.EmbeddingMatrix
    tensors: dict[str, T.Tensor]

    def named(self) -> dict[str, T.Tensor]:
        return {"embedding.table": self.emb.table, **self.tensors}

    @property
    def bank(self) -> list[tuple[int, T.Tensor, T.Tensor]]:
        """Per width k of ``KERNEL_SIZES``, the (k, W, b) triple that
        ``layers.conv1d_over_time`` takes."""
        return [(k, self.tensors[f"conv_k{k}.w"], self.tensors[f"conv_k{k}.b"])
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
                         filters_per_size: int = FILTERS_PER_SIZE) -> FinetuneModel:
    """CNN over the embedding: conv bank -> max pool -> dropout -> one logit,
    its parameters drawn in table order (``layers.init_arrays``)."""
    return _build(emb, L.init_arrays(_shapes(emb.dim, filters_per_size), rng))


def forward_finetune(model: FinetuneModel, batch: Batch, training: bool, rng) -> T.Tensor:
    """The output layer's logit for each row of a packed batch: one [B x 1]
    column, in row order, from one pass over the batch.  The positive
    class's probability is its sigmoid."""
    cells = L.embedding_lookup(model.emb, batch.ids)
    pooled = L.conv1d_over_time(model.bank, cells, batch.valid_lengths)
    pooled = L.dropout(pooled, DROPOUT_RATE, training, rng)
    return T.linear_rows(pooled, model.tensors["output.w"], model.tensors["output.b"])


def binary_cross_entropy(logits: T.Tensor, labels) -> T.Tensor:
    """Mean BCE over a [B x 1] logit column, softplus(z) - y*z, as one graph
    node, so a wrong answer keeps its gradient, (sigmoid(z) - y) / B,
    however confident.  Its ufuncs run in the order of the chain softplus,
    multiply, subtract, sum, scale, whose bytes it keeps."""
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape + (1,):
        raise ValueError(f"need [{labels.size} x 1] logits for labels of shape "
                         f"{labels.shape}, got shape {logits.shape}")
    z = logits.values[:, 0]
    s = 1.0 / labels.size
    # backward keeps only the gradient, (sigmoid(z) - y) / B
    d = (T.sigmoid_(z.copy()) * s - labels * s)[:, None]

    def backward_fn(g):
        return (d * g,)

    with np.errstate(invalid="ignore"):  # a NaN logit stops at clip_gradients' check
        loss = np.asarray((np.logaddexp(0.0, z) - labels * z).sum()) * s
    return T.from_op(loss, "binary_cross_entropy", (logits,), backward_fn)


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
    def step(indices):
        rows, labels = zip(*(encoded[i] for i in indices))
        return binary_cross_entropy(forward_finetune(model, Batch.of_rows(rows), True, rng),
                                    labels)

    epochs = schedule.frozen_epochs + schedule.unfrozen_epochs
    losses = []
    for epoch, _, loss, _ in run_epochs(model.named(), step, len(encoded), RunState(rng),
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


def run(schedule: FinetuneSchedule, seed: int, encoded, vocab: Vocabulary,
        pretrained: dict[str, np.ndarray]):
    """The fine-tuning run, the one every entry makes: the generator and
    ``schedule.dim``-wide table of :func:`train.seeded_table` at ``seed``,
    then the CNN, which :func:`finetune_encoded` trains on ``encoded``;
    returns (model, epoch losses).  ``pretrained`` is emptied once the table
    holds its rows: a tweet corpus's vocabulary can be large."""
    rng, emb = seeded_table(seed, vocab, pretrained, schedule.dim)
    pretrained.clear()
    model = build_finetune_model(emb, rng, schedule.filters_per_size)
    return model, finetune_encoded(model, encoded, schedule, rng)[1]


def predict_finetune(model: FinetuneModel, encoded) -> np.ndarray:
    """Eval-mode 0/1 predictions for (ids, label) pairs, a batch at a time,
    without building a graph."""
    preds = []
    with T.no_grad():
        for chunk in iter_batches(encoded, FinetuneSchedule.batch_size):
            batch = Batch.of_rows([ids for ids, _ in chunk])
            preds.append(forward_finetune(model, batch, False, None).values[:, 0] >= 0.0)
    return np.concatenate(preds).astype(np.int64) if preds else np.zeros(0, dtype=np.int64)


def load_finetune_corpus(path) -> list[tuple[str, int]]:
    """TSV with header ``text<TAB>label``, label 0 or 1; no text holds a NUL
    character (the tokenizer's separator)."""
    out = []
    lines = read_lines(path)
    _, header = next(lines, (1, ""))
    if header != "text\tlabel":
        raise ValueError(f"{path}: expected header 'text<TAB>label', got {header!r}")
    for lineno, line in lines:
        if not line:
            continue
        text, tab, raw = line.rpartition("\t")
        if not tab or raw not in ("0", "1"):
            raise line_error(path, lineno, "expected 'text<TAB>0|1'")
        if "\0" in text:
            raise line_error(path, lineno, "NUL character, which no text may hold")
        out.append((text, int(raw)))
    return out
