"""Embedding fine-tuning via a binary-sentiment CNN.

A small convolutional classifier (kernel widths 1/2/3, 300 filters each,
one output logit, binary cross-entropy on that logit) trains on noisily
labeled (text, 0/1) pairs with the embedding table frozen for the first
epoch and unfrozen afterwards; a text is called positive where its logit is
at least 0.  The trained embedding matrix is the product; the CNN itself is
scaffolding and is thrown away.  :func:`run` goes from a schedule and its
seed to that matrix on one :class:`FinetuneData`, and :func:`run_into`
writes it into a run directory through ``train.write_run``, the writer of
the classifier's run directories too.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .config import TrainConfig, check_types
from .dataio import (atomic_write, hash_file, line_error, load_word_vectors, read_lines,
                     save_word_vectors)
from .rcnn import Batch
from .textprep import SPECIALS, TokenSequence, Vocabulary, build_vocab, token_rows
from .train import RunState, iter_batches, read_epochs, run_epochs, seeded_table, write_run

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


@dataclass(frozen=True)
class FinetuneData:
    """What a fine-tuning run reads, as one value: the corpus's vocabulary,
    the corpus encoded with it (:func:`encode_corpus`) and the path of the
    word-vector file the table starts from.  The run reads the vocabulary's
    vectors from that file itself, so they live only until the table holds
    them, and :func:`run_into` copies the file's other lines after tuning.
    Runs read the value and never change it; its ``digest`` hashes what it
    holds and every byte of the file each time a run is keyed, never cached."""
    vocab: Vocabulary
    encoded: list[tuple[np.ndarray, int]]
    vectors: str

    @classmethod
    def read(cls, corpus_path, vectors_path) -> "FinetuneData":
        """The one input step of a fine-tuning run.  A ``vectors_path`` that is
        no regular file, such as a pipe, is refused first, since it is read
        more than once; then the corpus (:func:`load_finetune_corpus`) is
        tokenized once, its first-occurrence vocabulary built from those rows
        and the corpus encoded with it.  Only the ids are kept."""
        if os.path.exists(vectors_path) and not os.path.isfile(vectors_path):
            raise ValueError(f"{vectors_path}: not a regular file; it is read again, "
                             "after tuning, for the vectors the corpus lacks")
        corpus = load_finetune_corpus(corpus_path)
        rows = list(token_rows((text for text, _ in corpus), 1))
        vocab = build_vocab(map(TokenSequence, rows))
        return cls(vocab, encode_corpus(corpus, vocab, rows), vectors_path)

    @property
    def digest(self) -> str:
        """SHA-256 over what a run reads, as it is now: the vocabulary, each
        text's label and token ids, and the bytes of the vectors file, the
        lines the run's ``vectors.txt`` copies among them."""
        h = hashlib.sha256(json.dumps([
            self.vocab.id_to_token, [[label, ids.size] for ids, label in self.encoded]
        ]).encode("utf-8"))
        for ids, _ in self.encoded:
            h.update(np.ascontiguousarray(ids))  # int64
        hash_file(self.vectors, h)
        return h.hexdigest()


def run(schedule: FinetuneSchedule, seed: int, data: FinetuneData):
    """The fine-tuning run, the one every entry makes: the vocabulary's rows
    of ``data.vectors``, the generator and ``schedule.dim``-wide table of
    :func:`train.seeded_table` at ``seed``, then the CNN, which
    :func:`finetune_encoded` trains on ``data.encoded``; returns (model,
    epoch losses).  The rows read are gone once the table holds them: a
    tweet corpus's vocabulary can be large."""
    pretrained = load_word_vectors(data.vectors, schedule.dim, keep=data.vocab.token_to_id)
    rng, emb = seeded_table(seed, data.vocab, pretrained, schedule.dim)
    del pretrained
    model = build_finetune_model(emb, rng, schedule.filters_per_size)
    return model, finetune_encoded(model, data.encoded, schedule, rng)[1]


LOSSES_HEADER = "epoch\tloss"


def format_losses(losses) -> str:
    """``losses.tsv``: its header, then each epoch from 1 and its loss by ``repr``."""
    return LOSSES_HEADER + "\n" + "".join(f"{epoch}\t{loss!r}\n"
                                          for epoch, loss in enumerate(losses, start=1))


def read_losses(path) -> list[float]:
    """The losses :func:`format_losses` wrote, the very floats (``train.read_epochs``)."""
    return [loss for _, loss in read_epochs(path, LOSSES_HEADER)]


def run_key(schedule: FinetuneSchedule, seed: int, data: FinetuneData) -> str:
    """16 hex digits of the SHA-256 of the sorted schedule and seed, then 16
    of :attr:`FinetuneData.digest`."""
    settings = json.dumps({"schedule": asdict(schedule), "seed": seed}, sort_keys=True)
    return f"{hashlib.sha256(settings.encode()).hexdigest()[:16]}_{data.digest[:16]}"


def run_into(out_dir, schedule: FinetuneSchedule, seed: int, data: FinetuneData) -> list[float]:
    """:func:`run` into the directory ``out_dir`` through ``train.write_run``;
    returns the epoch losses.  ``vectors.txt`` holds the corpus vocabulary's
    tuned vectors, in vocabulary order, then each other token of
    ``data.vectors`` once, in file order, as its first line gave it, and no
    word2vec header (``dataio.save_word_vectors``); then ``losses.tsv``
    (:func:`format_losses`), then ``run.json`` (the schedule, the seed and
    their :func:`run_key` with ``data``).  A reused run's losses are read back."""
    def train(out_dir):
        model, losses = run(schedule, seed, data)
        reserved = len(SPECIALS)
        save_word_vectors(data.vocab.id_to_token[reserved:], model.emb.table.values[reserved:],
                          os.path.join(out_dir, "vectors.txt"), data.vectors)
        with atomic_write(os.path.join(out_dir, "losses.tsv")) as fh:
            fh.write(format_losses(losses))
        return losses

    record = {"key": run_key(schedule, seed, data), "schedule": asdict(schedule), "seed": seed}
    return write_run(out_dir, record, train,
                     lambda out_dir: read_losses(os.path.join(out_dir, "losses.tsv")))


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
