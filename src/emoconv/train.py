"""Training: the epoch loop both models share (Adam, global-norm gradient
clipping, embedding freezing) and the classifier's class-weighted loss,
learning-rate annealing, and best-epoch selection on validation micro-F1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, rcnn
from . import tensor as T
from .config import TrainConfig
from .dataio import (CHECKPOINT_VERSION, LABEL_TO_INDEX, LABELS, Checkpoint,
                     DatasetSplit, SentenceVectorStore)
from .textprep import MAX_TRAIN_TOKENS, Vocabulary, token_rows

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-12


@dataclass
class ClassWeights:
    weights: np.ndarray  # aligned with dataio.LABELS


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
    """Mean over the batch of w_label * (-log p[label]), log floored at 1e-12,
    as one graph node.  Its ufuncs run in the order of the chain pick, floor,
    log, weight, sum, scale, whose bytes it keeps; no gradient flows where
    p[label] is at or below the floor."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a non-empty 1-d sequence, got shape {labels.shape}")
    if (labels < 0).any() or (labels >= len(LABELS)).any():
        bad = labels[(labels < 0) | (labels >= len(LABELS))][0]
        raise ValueError(f"label index {int(bad)} out of range [0, {len(LABELS)})")
    if probabilities.shape != (labels.size, len(LABELS)):
        raise ValueError(f"need [{labels.size} x {len(LABELS)}] probabilities for "
                         f"{labels.size} labels, got shape {probabilities.shape}")
    rows = np.arange(labels.size)
    p = probabilities.values[rows, labels]
    v = np.maximum(p, LOG_FLOOR)
    w_l = weights.weights[labels]
    s = -1.0 / labels.size

    def backward_fn(g):
        z = np.zeros(probabilities.shape)
        z[rows, labels] = (((g * s) * w_l) / v) * (p > LOG_FLOOR)
        return (z,)

    loss = np.asarray((np.log(v) * w_l).sum()) * s
    return T.from_op(loss, "weighted_cross_entropy", (probabilities,), backward_fn)


def uniform_baseline_loss(weights: ClassWeights, labels) -> float:
    """Loss a uniform-prediction model scores on these labels: mean w_y*ln 4."""
    labels = np.asarray(labels, dtype=np.int64)
    return float(np.mean(weights.weights[labels]) * math.log(len(LABELS)))


def clip_gradients(named_params: dict[str, T.Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm;
    returns the factor applied (1.0 when under the threshold).  A parameter
    with no gradient adds nothing to the norm; a non-finite gradient is a
    ValueError that names its parameter.  A ``RowGrad`` is replaced by its
    compact form and counts only its touched rows, so its squares sum in
    another order than over the dense array and the factor may differ in its
    last bits."""
    sq = 0.0
    for name, t in named_params.items():
        if t.grad is None:
            continue
        if isinstance(t.grad, T.RowGrad):
            t.grad = t.grad.compact()
        g = t.grad.values if isinstance(t.grad, T.RowGrad) else t.grad
        s = float((g * g).sum())
        # a non-finite entry makes s non-finite, so finite sums skip the scan
        if not math.isfinite(s) and not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += s
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for t in named_params.values():
        if isinstance(t.grad, T.RowGrad):
            t.grad = T.RowGrad(t.grad.rows, t.grad.values * factor)
        elif t.grad is not None:
            t.grad *= factor
    return factor


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Adam walks each flattened parameter in blocks of this many values, so its
# temporaries are two block-sized buffers that stay in cache (32k measured
# fastest on the fine-tuning CNN's parameters, against 4k to 4M).
ADAM_BLOCK = 1 << 15
# A parameter's moments are row-held while they hold under this share of its
# rows.  A row-held walk also gathers, scatters and regrows what it holds, so
# past about 40% of the rows (measured on a 14,109 x 100 table, 300 new rows
# a step) walking the whole table in place is cheaper.
ADAM_HELD_SHARE = 1 / 3


@dataclass
class AdamState:
    """Moments by parameter name, made at the parameter's first gradient,
    and the global step count.

    While a parameter has had only ``RowGrad`` gradients, and they touched
    under ``ADAM_HELD_SHARE`` of its rows, its moments cover only those rows:
    ``rows[name]`` holds them, sorted, and row k of ``m[name]`` and
    ``v[name]`` (each ``[len(rows) x width]``) belongs to parameter row
    ``rows[name][k]``.  Every other row's moments are +0.0.  Once the touched
    rows reach that share, or a dense gradient arrives, the name leaves
    ``rows`` and its moments take the parameter's shape, as a dense
    parameter's do from the start."""
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    rows: dict[str, np.ndarray] = field(default_factory=dict)


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-d view of ``a``; a copy would silently drop an in-place update."""
    if not a.flags.c_contiguous:
        raise ValueError(f"Adam updates C-contiguous arrays in place, got strides {a.strides}")
    return a.reshape(-1)


def _held_rows(state: AdamState, name: str, shape: tuple[int, ...], g) -> np.ndarray | None:
    """Lay out ``name``'s moments for a step whose gradient is ``g`` (an
    array, a compact ``RowGrad`` or None; not None for a parameter with no
    moments yet) and return the rows they hold, or None when they are
    parameter-shaped.  Moments that grow are scattered into fresh zeros."""
    held = state.rows.pop(name, None)
    if name in state.m and held is None:
        return None
    if isinstance(g, T.RowGrad):
        rows = np.union1d(np.zeros(0, np.int64) if held is None else held, g.rows)
    else:  # no gradient keeps the held rows, a dense one ends them
        rows = held if g is None else None
    if rows is not None and rows.size < ADAM_HELD_SHARE * shape[0]:
        if held is None or rows.size > held.size:
            m, v = np.zeros((rows.size,) + shape[1:]), np.zeros((rows.size,) + shape[1:])
            if held is not None:
                at = np.searchsorted(rows, held)
                m[at], v[at] = state.m[name], state.v[name]
            state.m[name], state.v[name] = m, v
        state.rows[name] = rows
        return rows
    m, v = np.zeros(shape), np.zeros(shape)
    if held is not None:
        m[held], v[held] = state.m[name], state.v[name]
    state.m[name], state.v[name] = m, v
    return None


def adam_step(state: AdamState, named_params: dict[str, T.Tensor], lr: float) -> None:
    """One bias-corrected Adam update, in place, with a single global step
    count shared by all parameters.

    A value whose moments are +0.0 and whose gradient is zero would move by
    exactly ``-= +0.0``, which leaves every value as it was, -0.0 and NaN
    included (the moments start at +0.0 and never reach -0.0).  So a
    parameter that has had no gradient yet has no moments and is skipped,
    and a parameter with row-held moments (see :class:`AdamState`) is
    updated only at the rows it has touched: those rows are gathered, walked
    with their moments and scattered back.  Every other parameter is walked
    whole, in place.  A walk goes block by block through two scratch
    buffers, with the same operations in the same order per value as
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so the bytes are those of the
    whole-array form.  For a ``RowGrad`` (or no gradient) the walked
    moments all decay but the ``g`` terms are added only at the touched
    rows: the skipped ``+ 0.0`` leaves a moment that is never -0.0
    unchanged.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    buf1, buf2 = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, p in named_params.items():
        g = p.grad.compact() if isinstance(p.grad, T.RowGrad) else p.grad
        if g is None and name not in state.m:
            continue
        held = _held_rows(state, name, p.shape, g)
        values = _flat(p.values)
        if held is not None:
            table = values.reshape(p.shape[0], -1)
            values = table[held].reshape(-1)
        m, v = _flat(state.m[name]), _flat(state.v[name])
        at, g_at = np.zeros(0, np.int64), np.zeros(0)  # touched flat positions, ascending
        if isinstance(g, T.RowGrad):
            width = math.prod(p.shape[1:])
            rows = g.rows if held is None else np.searchsorted(held, g.rows)
            at = (rows[:, None] * width + np.arange(width)).reshape(-1)
            g_at = g.values.reshape(-1)
        elif g is not None:
            g = g.reshape(-1)
        for start in range(0, values.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            mb, vb, pb = m[block], v[block], values[block]
            s1, s2 = buf1[:pb.size], buf2[:pb.size]
            mb *= ADAM_BETA1
            vb *= ADAM_BETA2
            if isinstance(g, np.ndarray):
                gb = g[block]
                np.multiply(gb, 1.0 - ADAM_BETA1, out=s1)
                mb += s1
                np.multiply(gb, 1.0 - ADAM_BETA2, out=s1)
                s1 *= gb
                vb += s1
            else:
                lo, hi = np.searchsorted(at, (start, start + pb.size))
                i, gi = at[lo:hi] - start, g_at[lo:hi]
                mb[i] += gi * (1.0 - ADAM_BETA1)
                vb[i] += gi * (1.0 - ADAM_BETA2) * gi
            np.divide(mb, bc1, out=s1)
            s1 *= lr
            np.divide(vb, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += ADAM_EPS
            s1 /= s2
            pb -= s1
        if held is not None:
            table[held] = values.reshape(held.size, table.shape[1])


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


def split_rows(split: DatasetSplit):
    """Yield each conversation of a split as one token row, ``EOS_TOKEN``
    between its turns, in order, tokenizing a chunk at a time."""
    return token_rows((turn for conv in split.conversations for turn in conv.turns), 3)


def encode_split(split: DatasetSplit, vocab: Vocabulary, rows=None) -> list[EncodedExample]:
    """Length-filter (training only) and encode a split.  ``rows`` are its
    token rows from :func:`split_rows`, for a caller that has them already;
    otherwise the split is tokenized here a chunk at a time, so only the
    encoded ids stay in memory."""
    out = []
    for conv, tokens in zip(split.conversations, split_rows(split) if rows is None else rows,
                            strict=True):
        if split.name == "train" and len(tokens) > MAX_TRAIN_TOKENS:
            continue
        label = LABEL_TO_INDEX[conv.label] if conv.label is not None else None
        out.append(EncodedExample(conv.id, vocab.ids(tokens), label))
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


def _is_natural(text: str) -> bool:
    """Whether ``text`` is a plain decimal integer >= 0 (no sign, no space)."""
    return text.isascii() and text.isdigit()


def load_encoded(path, vocab_size: int) -> tuple[list[EncodedExample], dict[str, int]]:
    """Read a file written by :func:`save_encoded` against a vocabulary of
    ``vocab_size`` tokens; a token id outside it names its line.

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
            if not _is_natural(value):
                raise ValueError(f"{path}: line 1: label count {pair!r} is not "
                                 "name=integer >= 0")
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
        raw = fields[2].split()
        bad = next((v for v in raw if not _is_natural(v)), None)
        if bad is not None:
            raise ValueError(f"{path}: line {number}: token id {bad!r} is not "
                             "an integer >= 0")
        try:
            ids = np.array([int(v) for v in raw], dtype=np.int64)
        except OverflowError:
            big = next(v for v in raw if int(v) > np.iinfo(np.int64).max)
            raise ValueError(f"{path}: line {number}: token id {big!r} does not fit "
                             "in a 64-bit integer") from None
        outside = np.flatnonzero(ids >= vocab_size)
        if outside.size:
            raise ValueError(f"{path}: line {number}: token id {raw[outside[0]]!r} out of "
                             f"range for a vocabulary of size {vocab_size}")
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
    """Pack examples into one batch, their ids row after row; callers ran
    check_sentence_vectors."""
    sv = (np.stack([store.get(ex.id) for ex in examples])
          if sentence_dim > 0 else None)
    labels = None
    if all(ex.label is not None for ex in examples):
        labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return rcnn.Batch.of_rows([ex.ids for ex in examples], sv, labels)


def iter_batches(items, batch_size: int):
    """Consecutive slices of a list or array; the last may be smaller."""
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]


def predict(params: rcnn.RcnnParams, examples: list[EncodedExample],
            store: SentenceVectorStore | None, batch_size: int = 64) -> np.ndarray:
    """Eval-mode argmax class index per example, in input order, without
    building a graph."""
    check_sentence_vectors(examples, store, params.config.sentence_dim, "predicted")
    preds = []
    with T.no_grad():
        for chunk in iter_batches(examples, batch_size):
            batch = make_batch(chunk, store, params.config.sentence_dim)
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


def run_epochs(named: dict[str, T.Tensor], step, n_examples: int, rng, *, lrs,
               batch_size: int, frozen_epochs: int, clip_norm: float | None = None):
    """The loop of both models: Adam over ``named``, one epoch per rate in
    ``lrs``, yielding (epoch, lr, mean loss, clipped fraction).  ``step``
    maps a shuffled batch of indices to the scalar loss, whose graph is freed
    after backward.  Gradients are clipped to norm ``clip_norm`` unless None;
    clipped or not, a non-finite one is a ValueError naming the epoch, step
    and parameter.  The embedding table is frozen through ``frozen_epochs``;
    its flag is restored before each yield and on error."""
    adam = AdamState()
    max_norm = math.inf if clip_norm is None else clip_norm
    table = named["embedding.table"]
    trainable = table.requires_grad
    for epoch, lr in enumerate(lrs, start=1):
        loss_sum, steps, clipped = 0.0, 0, 0
        table.requires_grad = trainable and epoch > frozen_epochs
        try:
            for indices in iter_batches(rng.permutation(n_examples), batch_size):
                loss = step(indices)
                T.reset_grads(named.values())
                T.backward(loss)
                loss_sum += loss.item() * len(indices)
                del loss  # this step's graph: free it before Adam and the next forward
                steps += 1
                try:
                    clipped += clip_gradients(named, max_norm) < 1.0
                except ValueError as err:
                    raise ValueError(f"epoch {epoch}, step {steps}: {err}") from err
                adam_step(adam, named, lr)
        finally:
            table.requires_grad = trainable
        yield epoch, lr, loss_sum / n_examples, clipped / steps


def train_encoded(params: rcnn.RcnnParams, train_ex: list[EncodedExample],
                  val_ex: list[EncodedExample],
                  sentence_store: SentenceVectorStore | None, config: TrainConfig,
                  rng, *, weights: ClassWeights, vocab: Vocabulary,
                  select: str = "best", epoch_hook=None):
    """Full training run over encoded examples, the one every entry uses;
    returns (checkpoint, per-epoch history).

    ``select``, the config, and non-empty, fully labeled train and val
    examples with their sentence vectors are checked before the first step.
    Each :func:`run_epochs` epoch (forward -> weighted CE -> backward -> clip
    -> Adam at the annealed rate) is scored on validation micro-F1; the
    checkpoint holds the best epoch (ties favor the earlier) unless
    ``select="last"``.
    """
    if select not in ("best", "last"):
        raise ValueError(f"select must be 'best' or 'last', got {select!r}")
    config.validate()
    if not train_ex or not val_ex:
        raise ValueError("training and validation need at least one example "
                         "each (after the training length filter)")
    if any(ex.label is None for ex in train_ex) or any(ex.label is None for ex in val_ex):
        raise ValueError("train and val examples must be fully labeled")
    sentence_dim = params.config.sentence_dim
    check_sentence_vectors(train_ex, sentence_store, sentence_dim, "training")
    check_sentence_vectors(val_ex, sentence_store, sentence_dim, "validation")
    named = params.named()
    history: list[HistoryRow] = []
    best: tuple[float, int, dict] | None = None

    def step(indices):
        batch = make_batch([train_ex[i] for i in indices], sentence_store, sentence_dim)
        probs = rcnn.forward(params, batch, training=True, rng=rng)[1]
        return weighted_cross_entropy(probs, batch.labels, weights)

    lrs = [lr_at_epoch(config, epoch) for epoch in range(1, config.epochs + 1)]
    for epoch, lr, train_loss, clip_fraction in run_epochs(
            named, step, len(train_ex), rng, lrs=lrs, batch_size=config.batch_size,
            frozen_epochs=config.freeze_embedding_epochs, clip_norm=config.clip_norm):
        _, val_f1 = evaluate(params, val_ex, sentence_store, config.batch_size)
        row = HistoryRow(epoch, lr, train_loss, val_f1, clip_fraction)
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
