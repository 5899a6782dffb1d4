"""Training: the epoch loop both models share (Adam, global-norm gradient
clipping, embedding freezing) and the classifier's class-weighted
cross-entropy on its logits, learning-rate annealing, and best-epoch
selection on validation micro-F1;
:func:`run`, the one route from a config and its seed to a checkpoint on one
:class:`RunData` (all the run reads, and the digest that keys it), into the
run directory that :func:`run_into` alone writes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import astuple, dataclass, field

import numpy as np

from . import metrics, rcnn
from . import tensor as T
from .config import TrainConfig
from .dataio import (LABEL_TO_INDEX, LABELS, Checkpoint, DatasetSplit,
                     SentenceVectorStore, atomic_write, build_embedding_matrix,
                     line_error, read_lines, save_checkpoint)
from .textprep import (MAX_TRAIN_TOKENS, TokenSequence, Vocabulary, build_vocab,
                       token_rows)

log = logging.getLogger(__name__)


def _counts_vector(counts: dict[str, int]) -> np.ndarray:
    missing = [name for name in LABELS if name not in counts]
    if missing:
        raise ValueError(f"missing counts for classes {missing}")
    return np.array([counts[name] for name in LABELS], dtype=np.float64)


def compute_class_weights(train_counts: dict, val_counts: dict) -> np.ndarray:
    """Per-class loss weights from two label -> count maps, aligned with
    ``LABELS``: validation distribution over training distribution,
    normalized to sum to 1."""
    tr = _counts_vector(train_counts)
    va = _counts_vector(val_counts)
    if (tr <= 0).any() or (va <= 0).any():
        raise ValueError("all class counts must be positive to form the "
                         f"distribution ratio (train {tr.tolist()}, val {va.tolist()})")
    ratio = (va / va.sum()) / (tr / tr.sum())
    return ratio / ratio.sum()


def weighted_cross_entropy(logits: T.Tensor, labels, weights: np.ndarray) -> T.Tensor:
    """Mean over the batch of -w_label * log softmax(z)[label] on [B x 4]
    logits, as one graph node.  The log-softmax is taken through
    log-sum-exp with the row max out, so a wrong answer keeps its gradient,
    w_label * (softmax(z) - onehot) / B, however confident.  Its ufuncs run
    in the order of the chain shift, exp, row sums, log, pick, subtract,
    weight, sum, scale, whose bytes it keeps."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError(f"labels must be a non-empty 1-d sequence, got shape {labels.shape}")
    if (labels < 0).any() or (labels >= len(LABELS)).any():
        bad = labels[(labels < 0) | (labels >= len(LABELS))][0]
        raise ValueError(f"label index {int(bad)} out of range [0, {len(LABELS)})")
    if logits.shape != (labels.size, len(LABELS)):
        raise ValueError(f"need [{labels.size} x {len(LABELS)}] logits for "
                         f"{labels.size} labels, got shape {logits.shape}")
    rows = np.arange(labels.size)
    z = logits.values
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    se = e.sum(axis=1)
    s, w_l = -1.0 / labels.size, weights[labels]
    sw = s * w_l
    # backward keeps only the gradient, s * w_label * (onehot - softmax(z))
    d = e * (-sw / se)[:, None]
    d[rows, labels] += sw

    def backward_fn(g):
        return (d * g,)

    loss = np.asarray(((shifted[rows, labels] - np.log(se)) * w_l).sum()) * s
    return T.from_op(loss, "weighted_cross_entropy", (logits,), backward_fn)


def uniform_baseline_loss(weights: np.ndarray, labels) -> float:
    """Loss a uniform-prediction model scores on these labels: mean w_y*ln 4."""
    labels = np.asarray(labels, dtype=np.int64)
    return float(np.mean(weights[labels]) * math.log(len(LABELS)))


def clip_gradients(named_params: dict[str, T.Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    max_norm; returns the factor applied (1.0 when under the threshold).  A
    parameter with no gradient adds nothing to the norm; a non-finite
    gradient is a ValueError that names its parameter.  A ``RowGrad`` is read
    and scaled through its touched rows' values, so its squares sum in another
    order than over the dense array and the factor may differ in its last bits."""
    views = {name: t.grad.values if isinstance(t.grad, T.RowGrad) else t.grad
             for name, t in named_params.items() if t.grad is not None}
    sq = 0.0
    for name, g in views.items():
        s = float((g * g).sum())
        # a non-finite entry makes s non-finite, so finite sums skip the scan
        if not math.isfinite(s) and not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient in parameter {name!r}")
        sq += s
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for g in views.values():
        g *= factor
    return factor


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Adam walks each flattened parameter in blocks of this many values, so its
# temporaries are two block-sized buffers that stay in cache (32k measured
# fastest on the fine-tuning CNN's parameters, against 4k to 4M).
ADAM_BLOCK = 1 << 15


@dataclass
class AdamState:
    """Moments by parameter name, made at the parameter's first gradient,
    and the global step count.

    After a parameter's first step, when that step's gradient was a
    ``RowGrad``, its moments cover only that gradient's rows: ``rows[name]``
    holds them (sorted and unique, as a ``RowGrad`` keeps them), and row k
    of ``m[name]`` and ``v[name]`` (each ``[len(rows) x width]``) belongs to
    parameter row ``rows[name][k]``.  Every other row's moments are +0.0.
    The parameter's next step, whatever its gradient, scatters them into
    moments of the parameter's shape and the name leaves ``rows``; every
    other parameter's moments take its shape from the start."""
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
    array, a ``RowGrad`` or None; not None for a parameter with no
    moments yet) and return the rows they hold, or None when they are
    parameter-shaped.  Held moments are scattered into fresh zeros of the
    parameter's shape."""
    if name not in state.m and isinstance(g, T.RowGrad):
        state.m[name], state.v[name] = np.zeros(g.values.shape), np.zeros(g.values.shape)
        state.rows[name] = g.rows
        return g.rows
    held = state.rows.pop(name, None)
    if name not in state.m or held is not None:
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
    updated only at its gradient's rows: those rows are gathered, walked
    with their moments and the gradient's values as dense arrays, and
    scattered back.  Every other parameter is walked whole, in place.  A
    walk goes block by block through two scratch buffers, with the same
    operations in the same order per value as
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
        g = p.grad
        if g is None and name not in state.m:
            continue
        held = _held_rows(state, name, p.shape, g)
        values = _flat(p.values)
        if held is not None:
            table = values.reshape(p.shape[0], -1)
            values, g = table[held].reshape(-1), g.values
        m, v = _flat(state.m[name]), _flat(state.v[name])
        at, g_at = np.zeros(0, np.int64), np.zeros(0)  # touched flat positions, ascending
        if isinstance(g, T.RowGrad):
            width = math.prod(p.shape[1:])
            at = (g.rows[:, None] * width + np.arange(width)).reshape(-1)
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


@dataclass(frozen=True)
class EncodedExample:
    """One conversation as token ids; a run hashes them each time it is
    keyed (:attr:`RunData.digest`), never caching the hash."""
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
    missing = [ex.id for ex in examples if ex.id not in store.row]
    if missing:
        shown = ", ".join(missing[:20])
        more = f" (and {len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(f"missing sentence vectors for {what} ids: {shown}{more}")


def make_batch(examples: list[EncodedExample], store: SentenceVectorStore | None,
               sentence_dim: int) -> rcnn.Batch:
    """Pack examples into one batch, their ids row after row and their sentence
    vectors gathered with one index; callers ran check_sentence_vectors."""
    sv = (store.matrix[[store.row[ex.id] for ex in examples]]
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
    """Eval-mode argmax class index of each example's probabilities
    (``tensor.softmax_rows``), in input order, without building a graph."""
    check_sentence_vectors(examples, store, params.config.sentence_dim, "predicted")
    preds = []
    with T.no_grad():
        for chunk in iter_batches(examples, batch_size):
            batch = make_batch(chunk, store, params.config.sentence_dim)
            logits = rcnn.forward(params, batch, training=False, rng=None)
            preds.append(np.argmax(T.softmax_rows(logits).values, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate(params: rcnn.RcnnParams, examples: list[EncodedExample],
             store: SentenceVectorStore | None, batch_size: int = 64):
    """(confusion matrix, micro-F1 over ``metrics.SCORED_CLASSES``) for a
    labeled example list; an unlabeled example is an error that names the
    first one."""
    unlabeled = next((ex.id for ex in examples if ex.label is None), None)
    if unlabeled is not None:
        raise ValueError(f"evaluation needs labels on every example; {unlabeled} has none")
    preds = predict(params, examples, store, batch_size)
    gold = [ex.label for ex in examples]
    cm = metrics.confusion_matrix(gold, preds.tolist())
    return cm, metrics.micro_f1(cm)


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
    with atomic_write(path) as fh:
        fh.write(format_history(history))


def read_history(path) -> list[HistoryRow]:
    """The inverse of :func:`format_history`: its header, then one row of
    finite numbers per epoch from 1; a fault, no row included, names its line."""
    lines, rows = list(read_lines(path)), []
    if not lines or lines[0][1] != HISTORY_HEADER:
        raise line_error(path, 1, f"expected the header {HISTORY_HEADER!r}")
    for lineno, line in lines[1:] or [(2, "")]:  # a header alone fails on line 2
        epoch, *fields = line.split("\t")
        try:
            row = HistoryRow(int(epoch), *map(float, fields))
        except (ValueError, TypeError):  # a field that is no number, or not five fields
            row = None
        if row is None or row.epoch != len(rows) + 1 or not np.isfinite(astuple(row)).all():
            raise line_error(path, lineno, f"expected epoch {len(rows) + 1}, then four "
                             "finite numbers, tab-separated")
        rows.append(row)
    return rows


@dataclass
class RunState:
    """A run between epochs: its generator, Adam's moments, the epochs finished
    and, for the classifier, its history and best (val micro-F1, epoch, arrays)."""
    rng: np.random.Generator
    adam: AdamState = field(default_factory=AdamState)
    epoch: int = 0
    history: list[HistoryRow] = field(default_factory=list)
    best: tuple[float, int, dict] | None = None


def run_epochs(named: dict[str, T.Tensor], step, n_examples: int, state: RunState, *, lrs,
               batch_size: int, frozen_epochs: int, clip_norm: float | None = None):
    """The loop of both models: Adam over ``named``, one epoch per rate in
    ``lrs[state.epoch:]``, each counted in ``state.epoch``, yielding (epoch,
    lr, mean loss, clipped fraction).  ``step`` maps a shuffled batch of
    indices to the scalar loss.  The gradients of the step before are reset
    before a step's forward, so they never live beside its graph; backward
    runs once through the graph and frees it as it goes, so the loss keeps
    only its value.  Gradients are clipped to norm ``clip_norm`` unless None;
    clipped or not, a non-finite one is a ValueError naming the epoch, step
    and parameter.  The embedding table is frozen through ``frozen_epochs``;
    its flag is restored before each yield and on error."""
    max_norm = math.inf if clip_norm is None else clip_norm
    table = named["embedding.table"]
    trainable = table.requires_grad
    for epoch, lr in enumerate(lrs[state.epoch:], start=state.epoch + 1):
        loss_sum, steps, clipped = 0.0, 0, 0
        table.requires_grad = trainable and epoch > frozen_epochs
        try:
            for indices in iter_batches(state.rng.permutation(n_examples), batch_size):
                T.reset_grads(named.values())  # the last step's go before this one's forward
                loss = step(indices)
                T.backward(loss)
                loss_sum += loss.item() * len(indices)
                del loss  # backward consumed its graph; only the value was left
                steps += 1
                try:
                    clipped += clip_gradients(named, max_norm) < 1.0
                except ValueError as err:
                    raise ValueError(f"epoch {epoch}, step {steps}: {err}") from err
                adam_step(state.adam, named, lr)
        finally:
            table.requires_grad = trainable
        state.epoch = epoch
        yield epoch, lr, loss_sum / n_examples, clipped / steps


def train_encoded(params: rcnn.RcnnParams, train_ex: list[EncodedExample],
                  val_ex: list[EncodedExample],
                  sentence_store: SentenceVectorStore | None, config: TrainConfig,
                  rng, *, weights: np.ndarray, vocab: Vocabulary,
                  select: str = "best", epoch_hook=None):
    """Full training run over encoded examples, the one every entry uses;
    returns (checkpoint, per-epoch history).

    ``select`` and non-empty, fully labeled train and val examples with
    their sentence vectors are checked before the first step.
    Each :func:`run_epochs` epoch (forward -> weighted CE -> backward -> clip
    -> Adam at the annealed rate) is scored on validation micro-F1 into the
    run's :class:`RunState`; the checkpoint holds the best epoch (ties favor
    the earlier) unless ``select="last"``.
    """
    if select not in ("best", "last"):
        raise ValueError(f"select must be 'best' or 'last', got {select!r}")
    if not train_ex or not val_ex:
        raise ValueError("training and validation need at least one example "
                         "each (after the training length filter)")
    if any(ex.label is None for ex in train_ex) or any(ex.label is None for ex in val_ex):
        raise ValueError("train and val examples must be fully labeled")
    sentence_dim = params.config.sentence_dim
    check_sentence_vectors(train_ex, sentence_store, sentence_dim, "training")
    check_sentence_vectors(val_ex, sentence_store, sentence_dim, "validation")
    named = params.named()
    state = RunState(rng)

    def step(indices):
        batch = make_batch([train_ex[i] for i in indices], sentence_store, sentence_dim)
        return weighted_cross_entropy(rcnn.forward(params, batch, training=True, rng=state.rng),
                                      batch.labels, weights)

    lrs = [lr_at_epoch(config, epoch) for epoch in range(1, config.epochs + 1)]
    for epoch, lr, train_loss, clip_fraction in run_epochs(
            named, step, len(train_ex), state, lrs=lrs, batch_size=config.batch_size,
            frozen_epochs=config.freeze_embedding_epochs, clip_norm=config.clip_norm):
        _, val_f1 = evaluate(params, val_ex, sentence_store, config.batch_size)
        row = HistoryRow(epoch, lr, train_loss, val_f1, clip_fraction)
        state.history.append(row)
        log.info("epoch %d: lr %.6g loss %.4f val_f1 %.4f clip %.2f",
                 row.epoch, row.lr, row.train_loss, row.val_micro_f1, row.clip_fraction)
        if state.best is None or val_f1 > state.best[0]:
            state.best = (val_f1, epoch, {n: t.values.copy() for n, t in named.items()})
        if epoch_hook is not None:
            epoch_hook(epoch, params, row)

    best_f1, final_epoch, final_arrays = state.best
    if select == "last":
        final_arrays, final_epoch = {n: t.values.copy() for n, t in named.items()}, state.epoch
    return Checkpoint(vocab, final_arrays, config, final_epoch, best_f1), state.history


@dataclass(frozen=True)
class RunData:
    """What a classifier run reads, as one value: the training split's
    vocabulary, both splits encoded with it, the class weights of the raw
    splits, the examples' sentence vectors (None for none) and the pretrained
    word vectors its vocabulary holds.  Runs read it and never change it; its
    ``digest`` hashes what it holds each time a run is keyed, never cached
    and never an argument, so a key always names the contents."""
    vocab: Vocabulary
    train_ex: list[EncodedExample]
    val_ex: list[EncodedExample]
    weights: np.ndarray
    store: SentenceVectorStore | None = None
    pretrained: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def encode(cls, train_split: DatasetSplit, val_split: DatasetSplit) -> "RunData":
        """The one step from two splits to a run's inputs.  The class weights
        come first, so a missing class fails before any tokenizing; the
        training split is tokenized once, its first-occurrence vocabulary
        built from every row (those over ``MAX_TRAIN_TOKENS`` too), and both
        splits are encoded with it.  Only the ids are kept, and no vectors."""
        weights = compute_class_weights(train_split.label_counts, val_split.label_counts)
        rows = list(split_rows(train_split))
        vocab = build_vocab(map(TokenSequence, rows))
        train_ex = encode_split(train_split, vocab, rows)
        del rows  # gone before the val split is tokenized
        return cls(vocab, train_ex, encode_split(val_split, vocab), weights)

    @property
    def digest(self) -> str:
        """SHA-256 over what a run reads, as it is now: the vocabulary and
        class weights, each example's id, label and token ids (train, then
        val), the pretrained vectors and the examples' sentence vectors."""
        examples = self.train_ex + self.val_ex
        words = sorted(self.pretrained)
        stored = [ex.id for ex in examples if self.store is not None and ex.id in self.store.row]
        vectors = [self.pretrained[w] for w in words] + [self.store.get(i) for i in stored]
        h = hashlib.sha256(json.dumps([
            len(self.train_ex), self.vocab.id_to_token, [[ex.id, ex.label] for ex in examples],
            words, stored, [ex.n for ex in examples], [np.size(v) for v in vectors]
        ]).encode("utf-8"))
        for array in [*(ex.ids for ex in examples), self.weights, *vectors]:
            h.update(np.ascontiguousarray(array))  # int64 ids, float64 values
        return h.hexdigest()


def seeded_table(seed: int, vocab: Vocabulary, pretrained: dict[str, np.ndarray], dim: int):
    """The start of both run entries: a generator seeded with ``seed`` and the
    ``dim``-wide embedding table it draws over ``vocab``
    (:func:`dataio.build_embedding_matrix`), which copies the rows of
    ``pretrained`` and leaves it as it was; returns (generator, table)."""
    rng = np.random.default_rng(seed)
    emb, coverage = build_embedding_matrix(vocab, pretrained, dim, rng)
    log.info("vocabulary %d tokens, pretrained coverage %.1f%%", vocab.size, 100 * coverage)
    return rng, emb


def run(config: TrainConfig, data: RunData, select: str = "best"):
    """The classifier run of ``config``, the one every entry makes: the
    generator and table of :func:`seeded_table` at ``config.seed``, then the
    model, which :func:`train_encoded` trains on ``data``; returns
    (checkpoint, history)."""
    rng, emb = seeded_table(config.seed, data.vocab, data.pretrained, config.embedding_dim)
    params = rcnn.init_model(config, emb, rng)
    return train_encoded(params, data.train_ex, data.val_ex, data.store, config, rng,
                         weights=data.weights, vocab=data.vocab, select=select)


def config_hash(config: TrainConfig) -> str:
    return hashlib.sha256(json.dumps(config.to_dict(), sort_keys=True).encode()).hexdigest()


def run_key(config: TrainConfig, data: RunData) -> str:
    """16 hex digits of :func:`config_hash`, then 16 of :attr:`RunData.digest`."""
    return f"{config_hash(config)[:16]}_{data.digest[:16]}"


def read_run(path) -> dict:
    """The JSON object of a ``run.json``; a fault names the file (and the line)."""
    try:
        fields = json.loads("\n".join(line for _, line in read_lines(path)))
    except json.JSONDecodeError as err:
        raise line_error(path, err.lineno, f"malformed run.json: {err.msg}") from None
    if not isinstance(fields, dict):
        raise ValueError(f"{path}: malformed run.json: not a JSON object")
    return fields


def run_into(out_dir, config: TrainConfig, data: RunData, select: str = "best") -> list[HistoryRow]:
    """:func:`run` into the directory ``out_dir``, the one writer of a run's
    outputs; returns the history.  ``model.ckpt``, ``history.tsv``, then
    ``run.json`` (config, ``select``, the :func:`run_key` of ``config`` and
    ``data``) are written whole, so a directory without ``run.json`` is
    trained again.  Before any draw, a ``run.json`` of this run is reused,
    its history read back; any other is a ValueError naming both keys."""
    key = run_key(config, data)
    record = {"config": config.to_dict(), "key": key, "select": select}
    path = os.path.join(out_dir, "run.json")
    if os.path.exists(path):
        held = read_run(path)
        if held != record:
            raise ValueError(f"{path} holds the run {held.get('key')} (select "
                             f"{held.get('select')}), not {key} (select {select})")
        log.info("reusing the finished run %s in %s", key, out_dir)
        return read_history(os.path.join(out_dir, "history.tsv"))
    os.makedirs(out_dir, exist_ok=True)
    ckpt, history = run(config, data, select)
    save_checkpoint(ckpt, os.path.join(out_dir, "model.ckpt"))
    write_history(history, os.path.join(out_dir, "history.tsv"))
    with atomic_write(path) as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    log.info("run %s (val micro-F1 %.4f) written to %s", key, ckpt.best_val_f1, out_dir)
    return history
