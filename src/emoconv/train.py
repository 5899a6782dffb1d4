"""Training loop: class-weighted cross-entropy, Adam with global-norm
gradient clipping, learning-rate annealing, embedding freezing, and
best-epoch selection on validation micro-F1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import metrics, rcnn
from . import tensor as T
from .config import TrainConfig
from .dataio import (CHECKPOINT_VERSION, LABEL_TO_INDEX, LABELS, Checkpoint,
                     DatasetSplit, SentenceVectorStore)
from .textprep import MAX_TRAIN_TOKENS, Vocabulary, assemble_input, encode_ids

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-12


@dataclass
class ClassWeights:
    weights: np.ndarray  # aligned with dataio.LABELS

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])


def _counts_vector(counts) -> np.ndarray:
    if isinstance(counts, dict):
        missing = [name for name in LABELS if name not in counts]
        if missing:
            raise ValueError(f"missing counts for classes {missing}")
        counts = [counts[name] for name in LABELS]
    vec = np.asarray(list(counts), dtype=np.float64)
    if vec.shape != (len(LABELS),):
        raise ValueError(f"need {len(LABELS)} class counts, got shape {vec.shape}")
    return vec


def compute_class_weights(train_counts, val_counts) -> ClassWeights:
    """Per-class loss weights: validation distribution over training
    distribution, normalized to sum to 1."""
    tr = _counts_vector(train_counts)
    va = _counts_vector(val_counts)
    if (tr <= 0).any() or (va <= 0).any():
        raise ValueError("all class counts must be positive to form the "
                         f"distribution ratio (train {tr.tolist()}, val {va.tolist()})")
    ratio = (va / va.sum()) / (tr / tr.sum())
    return ClassWeights(ratio / ratio.sum())


def weighted_cross_entropy(probabilities: T.Tensor, labels, weights: ClassWeights) -> T.Tensor:
    """Mean over the batch of w_label * (-log p[label]), log floored at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a non-empty 1-d sequence, got shape {labels.shape}")
    if (labels < 0).any() or (labels >= len(LABELS)).any():
        bad = labels[(labels < 0) | (labels >= len(LABELS))][0]
        raise ValueError(f"label index {int(bad)} out of range [0, {len(LABELS)})")
    picked = T.take_per_row(probabilities, labels)
    logs = T.log(T.clamp_min(picked, LOG_FLOOR))
    weighted = T.mul(logs, T.constant(weights.weights[labels]))
    return T.scale(T.sum_all(weighted), -1.0 / labels.size)


def uniform_baseline_loss(weights: ClassWeights, labels) -> float:
    """Loss a uniform-prediction model scores on these labels: mean w_y*ln 4."""
    labels = np.asarray(labels, dtype=np.int64)
    return float(np.mean(weights.weights[labels]) * math.log(len(LABELS)))


def clip_gradients(named_params: dict[str, T.Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm;
    returns the factor applied (1.0 when under the threshold).  A parameter
    with no gradient adds nothing to the norm; a non-finite gradient is a
    ValueError that names its parameter."""
    sq = 0.0
    for name, t in named_params.items():
        if t.grad is None:
            continue
        s = float((t.grad * t.grad).sum())
        # a non-finite entry makes s non-finite, so finite sums skip the scan
        if not math.isfinite(s) and not np.isfinite(t.grad).all():
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += s
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for t in named_params.values():
        if t.grad is not None:
            t.grad *= factor
    return factor


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Adam walks each flattened parameter in blocks of this many values, so its
# temporaries are two block-sized buffers that stay in cache (32k measured
# fastest on the fine-tuning CNN's parameters, against 4k to 4M).
ADAM_BLOCK = 1 << 15


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(named_params: dict[str, T.Tensor]) -> AdamState:
    return AdamState(m={n: np.zeros_like(p.values) for n, p in named_params.items()},
                     v={n: np.zeros_like(p.values) for n, p in named_params.items()})


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-d view of ``a``; a copy would silently drop an in-place update."""
    if not a.flags.c_contiguous:
        raise ValueError(f"Adam updates C-contiguous arrays in place, got strides {a.strides}")
    return a.reshape(-1)


def adam_step(state: AdamState, named_params: dict[str, T.Tensor], lr: float) -> None:
    """One bias-corrected Adam update, in place, with a single global step
    count shared by all parameters.

    A parameter with no gradient and all-zero moments is skipped: its update
    is exactly zero (the moments start at +0.0 and never reach -0.0).  Every
    other parameter is updated block by block through two scratch buffers,
    with the same operations in the same order per value as
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so the bytes are those of the
    whole-array form.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    buf1, buf2 = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, p in named_params.items():
        m, v = state.m[name], state.v[name]
        if p.grad is None and not (m.any() or v.any()):
            continue
        g = T.grad_of(p).reshape(-1)
        m, v, values = _flat(m), _flat(v), _flat(p.values)
        for start in range(0, values.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            gb, mb, vb, pb = g[block], m[block], v[block], values[block]
            s1, s2 = buf1[:pb.size], buf2[:pb.size]
            mb *= ADAM_BETA1
            np.multiply(gb, 1.0 - ADAM_BETA1, out=s1)
            mb += s1
            vb *= ADAM_BETA2
            np.multiply(gb, 1.0 - ADAM_BETA2, out=s1)
            s1 *= gb
            vb += s1
            np.divide(mb, bc1, out=s1)
            s1 *= lr
            np.divide(vb, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            pb -= s1


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Annealed learning rate for a 1-based epoch number."""
    if epoch < 1:
        raise ValueError(f"epoch is 1-based, got {epoch}")
    return config.lr * config.anneal_factor ** max(0, epoch - config.anneal_after_epoch)


# ---------------------------------------------------------------------------
# Dataset encoding and batching


@dataclass
class EncodedExample:
    id: str
    ids: np.ndarray
    label: int | None = None

    @property
    def n(self) -> int:
        return int(self.ids.size)


def encode_split(split: DatasetSplit, vocab: Vocabulary) -> list[EncodedExample]:
    """Assemble, length-filter (training only), and encode a split."""
    out = []
    for conv in split.conversations:
        seq = assemble_input(conv.turns)
        if split.name == "train" and seq.n > MAX_TRAIN_TOKENS:
            continue
        ids = np.asarray(encode_ids(seq, vocab).ids, dtype=np.int64)
        label = LABEL_TO_INDEX[conv.label] if conv.label is not None else None
        out.append(EncodedExample(conv.id, ids, label))
    return out


ENCODED_HEADER = "id\tlabel\tids"


def save_encoded(examples: list[EncodedExample], label_counts, path) -> None:
    """Write an encoded split as TSV: id, label name (``-`` when absent),
    space-separated token ids.

    ``label_counts`` records the pre-filter class distribution in a comment
    line so that class weights computed downstream match the raw split.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if label_counts:
            pairs = "\t".join(f"{name}={label_counts.get(name, 0)}"
                              for name in LABELS)
            fh.write(f"# label_counts\t{pairs}\n")
        fh.write(ENCODED_HEADER + "\n")
        for ex in examples:
            label = LABELS[ex.label] if ex.label is not None else "-"
            fh.write(f"{ex.id}\t{label}\t{' '.join(str(i) for i in ex.ids)}\n")


def load_encoded(path) -> tuple[list[EncodedExample], dict[str, int]]:
    """Read a file written by :func:`save_encoded`.

    Returns the examples plus the recorded pre-filter label counts (empty
    dict when the file has no counts line).
    """
    counts: dict[str, int] = {}
    examples: list[EncodedExample] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 0
    if lines and lines[0].startswith("# label_counts\t"):
        for pair in lines[0].split("\t")[1:]:
            name, _, value = pair.partition("=")
            counts[name] = int(value)
        start = 1
    if start >= len(lines) or lines[start] != ENCODED_HEADER:
        raise ValueError(f"{path}: expected header {ENCODED_HEADER!r}")
    for number, line in enumerate(lines[start + 1:], start=start + 2):
        fields = line.split("\t")
        if len(fields) != 3 or not fields[2].strip():
            raise ValueError(f"{path}: line {number}: expected "
                             "id<TAB>label<TAB>ids")
        if fields[1] != "-" and fields[1] not in LABEL_TO_INDEX:
            raise ValueError(f"{path}: line {number}: unknown label {fields[1]!r}")
        label = None if fields[1] == "-" else LABEL_TO_INDEX[fields[1]]
        ids = np.array([int(v) for v in fields[2].split()], dtype=np.int64)
        examples.append(EncodedExample(fields[0], ids, label))
    return examples, counts


def check_sentence_vectors(examples: list[EncodedExample], store: SentenceVectorStore | None,
                           sentence_dim: int, what: str) -> None:
    """Raise ValueError unless a model fusing ``sentence_dim``-d sentence
    vectors (none when 0) finds one for every example in ``store``; the
    message names at most 20 missing ids and counts the rest."""
    if sentence_dim == 0:
        return
    if store is None:
        raise ValueError(f"the model fuses {sentence_dim}-d sentence vectors "
                         "but no sentence-vector store was given")
    missing = [ex.id for ex in examples if ex.id not in store.vectors]
    if missing:
        shown = ", ".join(missing[:20])
        more = f" (and {len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(f"missing sentence vectors for {what} ids: {shown}{more}")


def make_batch(examples: list[EncodedExample], store: SentenceVectorStore | None,
               sentence_dim: int) -> rcnn.Batch:
    """Pad examples into one batch; callers ran check_sentence_vectors."""
    ids, lengths = L.pad_rows([ex.ids for ex in examples])
    sv = (np.stack([store.get(ex.id) for ex in examples])
          if sentence_dim > 0 else None)
    labels = None
    if all(ex.label is not None for ex in examples):
        labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return rcnn.Batch(ids, lengths, sv, labels, conv_ids=[ex.id for ex in examples])


def iter_batches(examples: list[EncodedExample], batch_size: int):
    """Consecutive slices; the last, possibly smaller batch is kept."""
    for start in range(0, len(examples), batch_size):
        yield examples[start:start + batch_size]


def predict(params: rcnn.RcnnParams, examples: list[EncodedExample],
            store: SentenceVectorStore | None, batch_size: int = 64) -> np.ndarray:
    """Eval-mode argmax class index per example, in input order, without
    building a graph."""
    check_sentence_vectors(examples, store, params.sentence_dim, "predicted")
    preds = []
    with T.no_grad():
        for chunk in iter_batches(examples, batch_size):
            batch = make_batch(chunk, store, params.sentence_dim)
            _, probs = rcnn.forward(params, batch, training=False, rng=None)
            preds.append(np.argmax(probs.values, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate(params: rcnn.RcnnParams, examples: list[EncodedExample],
             store: SentenceVectorStore | None, batch_size: int = 64,
             scored_classes=metrics.SCORED_CLASSES):
    """(confusion matrix, micro-F1) for a labeled example list; an unlabeled
    example is an error that names the first one."""
    unlabeled = next((ex.id for ex in examples if ex.label is None), None)
    if unlabeled is not None:
        raise ValueError(f"evaluation needs labels on every example; {unlabeled} has none")
    preds = predict(params, examples, store, batch_size)
    gold = [ex.label for ex in examples]
    cm = metrics.confusion_matrix(gold, preds.tolist())
    return cm, metrics.micro_f1(cm, scored_classes)


# ---------------------------------------------------------------------------
# The training loop


@dataclass
class HistoryRow:
    epoch: int
    lr: float
    train_loss: float
    val_micro_f1: float
    clip_fraction: float


HISTORY_HEADER = "epoch\tlr\ttrain_loss\tval_micro_f1\tclip_fraction"


def format_history(history: list[HistoryRow]) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append(f"{row.epoch}\t{row.lr!r}\t{row.train_loss!r}\t"
                     f"{row.val_micro_f1!r}\t{row.clip_fraction!r}")
    return "\n".join(lines) + "\n"


def write_history(history: list[HistoryRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_history(history))


def train(params: rcnn.RcnnParams, train_split: DatasetSplit, val_split: DatasetSplit,
          sentence_store: SentenceVectorStore | None, config: TrainConfig, rng,
          *, vocab: Vocabulary, select: str = "best", epoch_hook=None):
    """Encode both splits, weight the classes by their raw distributions,
    and run :func:`train_encoded`."""
    weights = compute_class_weights(train_split.label_counts, val_split.label_counts)
    return train_encoded(params, encode_split(train_split, vocab),
                         encode_split(val_split, vocab), sentence_store, config,
                         rng, weights=weights, vocab=vocab, select=select,
                         epoch_hook=epoch_hook)


def train_encoded(params: rcnn.RcnnParams, train_ex: list[EncodedExample],
                  val_ex: list[EncodedExample],
                  sentence_store: SentenceVectorStore | None, config: TrainConfig,
                  rng, *, weights: ClassWeights, vocab: Vocabulary,
                  select: str = "best", epoch_hook=None):
    """Full training run over encoded examples, the one every entry uses;
    returns (checkpoint, per-epoch history).

    ``select``, the config, and non-empty, fully labeled train and val
    examples with their sentence vectors are checked before the first step.

    Each epoch shuffles with the run rng, steps through batches with
    forward -> weighted CE -> backward -> clip -> Adam at the annealed rate,
    keeps the embedding frozen through the first ``freeze_embedding_epochs``
    epochs, and scores validation micro-F1.  The checkpoint holds the
    best-validation epoch (ties favor the earlier epoch) unless
    ``select="last"``.  A non-finite gradient stops the run with a
    ValueError that names the epoch, the 1-based step within it and the
    parameter.
    """
    if select not in ("best", "last"):
        raise ValueError(f"select must be 'best' or 'last', got {select!r}")
    config.validate()
    if not train_ex or not val_ex:
        raise ValueError("training and validation need at least one example "
                         "each (after the training length filter)")
    if any(ex.label is None for ex in train_ex) or any(ex.label is None for ex in val_ex):
        raise ValueError("train and val examples must be fully labeled")
    check_sentence_vectors(train_ex, sentence_store, params.sentence_dim, "training")
    check_sentence_vectors(val_ex, sentence_store, params.sentence_dim, "validation")
    named = params.named()
    adam = init_adam(named)
    history: list[HistoryRow] = []
    best: tuple[float, int, dict] | None = None

    for epoch in range(1, config.epochs + 1):
        params.embedding.frozen = epoch <= config.freeze_embedding_epochs
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(len(train_ex))
        loss_sum = 0.0
        steps = 0
        clipped = 0
        for chunk_start in range(0, len(order), config.batch_size):
            chunk = [train_ex[i] for i in order[chunk_start:chunk_start + config.batch_size]]
            batch = make_batch(chunk, sentence_store, params.sentence_dim)
            _, probs = rcnn.forward(params, batch, training=True, rng=rng)
            loss = weighted_cross_entropy(probs, batch.labels, weights)
            T.reset_grads(named.values())
            T.backward(loss)
            try:
                factor = clip_gradients(named, config.clip_norm)
            except ValueError as err:
                raise ValueError(f"epoch {epoch}, step {steps + 1}: {err}") from err
            adam_step(adam, named, lr)
            loss_sum += loss.item() * len(batch)
            steps += 1
            clipped += factor < 1.0
        _, val_f1 = evaluate(params, val_ex, sentence_store, config.batch_size)
        row = HistoryRow(epoch=epoch, lr=lr, train_loss=loss_sum / len(train_ex),
                         val_micro_f1=val_f1, clip_fraction=clipped / steps)
        history.append(row)
        log.info("epoch %d: lr %.6g loss %.4f val_f1 %.4f clip %.2f",
                 row.epoch, row.lr, row.train_loss, row.val_micro_f1, row.clip_fraction)
        if best is None or val_f1 > best[0]:
            best = (val_f1, epoch, {n: t.values.copy() for n, t in named.items()})
        if epoch_hook is not None:
            epoch_hook(epoch, params, row)

    if select == "best":
        final_arrays, final_epoch = best[2], best[1]
    else:
        final_arrays, final_epoch = {n: t.values.copy() for n, t in named.items()}, config.epochs
    ckpt = Checkpoint(CHECKPOINT_VERSION, vocab, final_arrays, config,
                      final_epoch, best[0])
    return ckpt, history
