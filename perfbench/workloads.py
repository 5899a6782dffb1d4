"""The three workloads: set-up, one closed-loop unit of timed work, and the
checks on the program's outputs.

Each workload calls the public ``emoconv`` functions that the matching
``emoconv`` command calls, on the files :mod:`gen` wrote, and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emoconv import dataio, rcnn, textprep
from emoconv import finetune as ft
from emoconv import train as tr
from emoconv.config import TrainConfig

import gen
from spans import CLOCK

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Unit:
    """What one unit of the closed loop did."""
    examples: int     # examples its timed batches completed
    busy_s: float     # seconds those batches took
    batches: int      # timed batches (training steps when training)
    val_examples: int = 0
    val_s: float = 0.0


def s_per_example(units: list[Unit]) -> float:
    """Median over units of seconds per example."""
    return statistics.median(u.busy_s / u.examples for u in units)


def _finite(named) -> bool:
    return all(np.isfinite(t.values).all() for t in named.values())


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _model_config(sizes: gen.Sizes) -> TrainConfig:
    return TrainConfig().replace(batch_size=sizes.batch_size,
                                 hidden_size=sizes.hidden_size,
                                 sentence_dim=sizes.sentence_dim,
                                 embedding_dim=sizes.embedding_dim)


class Workload:
    # functions an untraced run still wraps, to find batch boundaries
    probe: tuple[str, ...] = ()

    def __init__(self, inputs: Path, manifest: dict, sizes: gen.Sizes):
        self.inputs = inputs
        self.manifest = manifest
        self.sizes = sizes
        self.checkpoint_bytes = 0

    def setup(self):
        """Program calls before the first batch; returns the run state."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed work between set-up and the timed loop."""

    def unit(self, state, index: int, tracer, checks: Checks) -> Unit:
        raise NotImplementedError

    def finish(self, state, checks: Checks) -> None:
        """Untimed checks after the timed loop."""

    def epoch_s(self, units: list[Unit]) -> float:
        """Projected seconds for one pass over the paper-sized corpus."""
        return self.epoch_examples * s_per_example(units)


# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    params: rcnn.RcnnParams
    vocab: textprep.Vocabulary
    train_ex: list
    val_ex: list
    store: dataio.SentenceVectorStore
    weights: tr.ClassWeights
    rng: np.random.Generator
    train_sel: list = field(default_factory=list)
    val_sel: list = field(default_factory=list)


class TrainPaper(Workload):
    """``emoconv preprocess`` + ``emoconv train`` with the default config,
    one frozen-embedding epoch and one unfrozen epoch, each followed by its
    validation pass, then a checkpoint save and load."""
    probe = ("train.evaluate",)

    def __init__(self, inputs, manifest, sizes, workdir: Path):
        super().__init__(inputs, manifest, sizes)
        self.workdir = workdir
        self.config = _model_config(sizes).replace(epochs=2,
                                                   freeze_embedding_epochs=1)

    def setup(self) -> TrainState:
        cfg = self.config
        train_split = dataio.load_dataset(self.inputs / "train.txt", "train")
        val_split = dataio.load_dataset(self.inputs / "val.txt", "val")
        vocab = textprep.build_vocab([textprep.assemble_input(c.turns)
                                      for c in train_split.conversations])
        train_ex = tr.encode_split(train_split, vocab)
        val_ex = tr.encode_split(val_split, vocab)
        store = dataio.load_sentence_vectors(self.inputs / "sentvec.tsv",
                                             cfg.sentence_dim)
        pretrained = dataio.load_word_vectors(self.inputs / "words.txt",
                                              cfg.embedding_dim)
        rng = np.random.default_rng(cfg.seed)
        emb, _ = dataio.build_embedding_matrix(vocab, pretrained,
                                               cfg.embedding_dim, rng)
        params = rcnn.init_model(cfg, emb, rng)
        weights = tr.compute_class_weights(train_split.label_counts,
                                           val_split.label_counts)
        return TrainState(params, vocab, train_ex, val_ex, store, weights, rng)

    def prepare(self, st: TrainState) -> None:
        train_by_id = {ex.id: ex for ex in st.train_ex}
        val_by_id = {ex.id: ex for ex in st.val_ex}
        st.train_sel = [train_by_id[i] for i in self.manifest["train_ids"]]
        st.val_sel = [val_by_id[i] for i in self.manifest["val_ids"]]

    def unit(self, st: TrainState, index, tracer, checks) -> Unit:
        named = st.params.named()
        table = st.params.embedding.table
        before = _bits(table.values)
        epoch_ends = []

        def after_epoch(epoch, params, row):
            if epoch <= self.config.freeze_embedding_epochs:
                checks.check(_bits(table.values) == before,
                             f"frozen epoch {epoch} changed embedding.table")
            epoch_ends.append(CLOCK())

        first_span = len(tracer.spans)
        start = CLOCK()
        ckpt, history = tr.train_encoded(st.params, st.train_sel, st.val_sel,
                                         st.store, self.config, st.rng,
                                         weights=st.weights, vocab=st.vocab,
                                         epoch_hook=after_epoch)
        evals = [s for s in tracer.spans[first_span:] if s.name == "train.evaluate"]
        epoch_starts = [start] + epoch_ends[:-1]
        train_s = sum(e.start - s for e, s in zip(evals, epoch_starts))
        val_s = sum(e.end - e.start for e in evals)

        checks.check(len(history) == self.config.epochs and len(evals) == len(history),
                     "train_encoded did not run one validation pass per epoch")
        checks.check(all(math.isfinite(r.train_loss) for r in history),
                     "non-finite training loss")
        checks.check(_finite(named), "non-finite parameter after Adam "
                     "(a gradient was not finite)")
        path = self.workdir / "roundtrip.ckpt"
        dataio.save_checkpoint(ckpt, path)
        back = dataio.load_checkpoint(path)
        self.checkpoint_bytes = path.stat().st_size
        same = (sorted(back.params) == sorted(ckpt.params)
                and all(back.params[n].shape == a.shape and _bits(back.params[n]) == _bits(a)
                        for n, a in ckpt.params.items())
                and back.vocab.id_to_token == ckpt.vocab.id_to_token
                and back.config == ckpt.config and back.epoch == ckpt.epoch
                and back.best_val_f1 == ckpt.best_val_f1)
        checks.check(same, "checkpoint save/load round trip is not bit-exact")

        epochs = self.config.epochs
        return Unit(examples=epochs * len(st.train_sel), busy_s=train_s,
                    batches=epochs * math.ceil(len(st.train_sel) / self.config.batch_size),
                    val_examples=epochs * len(st.val_sel), val_s=val_s)

    def epoch_s(self, units):
        props = self.manifest["properties"]["train_paper"]
        val = statistics.median(u.val_s / u.val_examples for u in units)
        return (props["corpus_train"]["examples"] * s_per_example(units)
                + props["corpus_val"]["examples"] * val)


# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    ckpt: dataio.Checkpoint
    params: rcnn.RcnnParams
    batches: list = field(default_factory=list)
    store: dataio.SentenceVectorStore | None = None
    results: list = field(default_factory=list)  # (batch index, confusion matrix)


def reference_probabilities(arrays: dict, cfg: TrainConfig, ids: list,
                            sentence_vectors, group: int = 16) -> np.ndarray:
    """Eval-mode class probabilities [examples x classes] in plain numpy,
    written from the model description rather than from the program's code.
    Examples run in masked groups of similar length, so little is padding."""
    order = np.argsort([len(row) for row in ids], kind="stable")
    out = np.zeros((len(ids), len(dataio.LABELS)))
    for part in np.array_split(order, math.ceil(len(ids) / group)):
        svs = sentence_vectors[part] if sentence_vectors is not None else None
        out[part] = _reference_group(arrays, cfg, [ids[i] for i in part], svs)
    return out


def _affine(x, w, b):
    """x [b x t x k] -> x @ w.T + b, as one 2-d product (a stacked product
    with a transposed operand skips BLAS)."""
    return (x.reshape(-1, x.shape[-1]) @ w.T + b).reshape(*x.shape[:-1], -1)


def _reference_group(arrays, cfg, ids, sentence_vectors):
    """A masked batch; each row's backward scan starts at its own last token."""
    def sigmoid(z):
        return 0.5 * (1.0 + np.tanh(0.5 * z))

    lengths = np.array([len(row) for row in ids])
    b, t_max = len(ids), int(lengths.max())
    padded = np.zeros((b, t_max), dtype=np.int64)
    for i, row in enumerate(ids):
        padded[i, :len(row)] = row
    steps = np.arange(t_max)
    mask = steps[None, :] < lengths[:, None]
    # reverses each row's valid prefix and leaves its padding in place
    flip = np.where(mask, lengths[:, None] - 1 - steps[None, :], steps[None, :])
    rows = np.arange(b)[:, None]
    emb = arrays["embedding.table"][padded] * mask[..., None]
    x = emb
    for layer in range(cfg.num_layers):
        outs = []
        for tag in ("fwd", "bwd"):
            w, u, bias = (arrays[f"bilstm{layer}.{tag}.{k}"] for k in "wub")
            hs = u.shape[1]
            seq = x if tag == "fwd" else x[rows, flip]
            pre = _affine(seq, w, bias)
            h, c = np.zeros((b, hs)), np.zeros((b, hs))
            out = np.zeros((b, t_max, hs))
            for t in range(t_max):
                z = pre[:, t] + h @ u.T
                i, f = sigmoid(z[:, :hs]), sigmoid(z[:, hs:2 * hs])
                g, o = np.tanh(z[:, 2 * hs:3 * hs]), sigmoid(z[:, 3 * hs:])
                c = f * c + i * g
                h = o * np.tanh(c)
                out[:, t] = h * mask[:, t:t + 1]
            outs.append(out if tag == "fwd" else out[rows, flip])
        x = np.concatenate(outs, axis=2)
    proj = _affine(np.concatenate([x, emb], axis=2), arrays["projection.w"],
                   arrays["projection.b"])
    if cfg.projection_tanh:
        proj = np.tanh(proj)
    fused = np.where(mask[..., None], proj, -np.inf).max(axis=1)
    if cfg.sentence_dim > 0:
        fused = np.concatenate([fused, sentence_vectors], axis=1)
    logits = fused @ arrays["output.w"].T + arrays["output.b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cm_digest(counts: np.ndarray) -> str:
    return hashlib.sha256(json.dumps(np.asarray(counts).tolist()).encode()).hexdigest()


class EvalPaper(Workload):
    """``emoconv evaluate``: checkpoint load and restore, then
    ``train.evaluate`` one 64-example batch of the long-tailed test split at
    a time."""

    def __init__(self, inputs, manifest, sizes, digests: list[str] | None):
        super().__init__(inputs, manifest, sizes)
        self.digests = digests
        self.epoch_examples = manifest["properties"]["eval_paper"]["split_examples"]

    def setup(self) -> EvalState:
        ckpt = dataio.load_checkpoint(self.inputs / "model.ckpt")
        return EvalState(ckpt, rcnn.restore(ckpt.config, ckpt.params))

    def prepare(self, st: EvalState) -> None:
        cfg = st.ckpt.config
        self.checkpoint_bytes = (self.inputs / "model.ckpt").stat().st_size
        split = dataio.load_dataset(self.inputs / "test.txt", "test")
        by_id = {ex.id: ex for ex in tr.encode_split(split, st.ckpt.vocab)}
        st.batches = [[by_id[i] for i in ids] for ids in self.manifest["eval_batches"]]
        st.store = dataio.load_sentence_vectors(self.inputs / "sentvec.tsv",
                                                cfg.sentence_dim)

    def unit(self, st: EvalState, index, tracer, checks) -> Unit:
        k = index % len(st.batches)
        batch = st.batches[k]
        start = CLOCK()
        cm, _ = tr.evaluate(st.params, batch, st.store, st.ckpt.config.batch_size)
        busy = CLOCK() - start
        st.results.append((k, cm.counts))
        n = math.ceil(len(batch) / st.ckpt.config.batch_size)
        return Unit(examples=len(batch), busy_s=busy, batches=n)

    def finish(self, st: EvalState, checks) -> None:
        cfg = st.ckpt.config
        reference = {}
        for k in sorted({k for k, _ in st.results}):
            batch = st.batches[k]
            svs = (np.stack([st.store.get(ex.id) for ex in batch])
                   if cfg.sentence_dim else None)
            probs = reference_probabilities(st.ckpt.params, cfg,
                                            [ex.ids for ex in batch], svs)
            cm = np.zeros((len(dataio.LABELS),) * 2, dtype=np.int64)
            np.add.at(cm, ([ex.label for ex in batch], probs.argmax(axis=1)), 1)
            reference[k] = cm
        for k, got in st.results:
            checks.check(np.array_equal(got, reference[k]),
                         f"batch {k}: confusion matrix {got.tolist()} differs "
                         f"from the reference {reference[k].tolist()}")
            if self.digests is not None:
                digest = cm_digest(got)
                checks.check(digest == self.digests[k],
                             f"batch {k}: confusion matrix digest {digest} differs "
                             f"from the stored {self.digests[k]}")
        st.results.clear()



# ---------------------------------------------------------------------------


@dataclass
class FinetuneState:
    corpus: list
    vocab: textprep.Vocabulary
    model: ft.FinetuneModel
    rng: np.random.Generator


class FinetuneCnn(Workload):
    """``emoconv finetune`` with the default CNN: per unit, one frozen and one
    unfrozen epoch over a 64-tweet chunk of the corpus."""

    def __init__(self, inputs, manifest, sizes):
        super().__init__(inputs, manifest, sizes)
        self.epoch_examples = manifest["properties"]["finetune_cnn"]["corpus"]["examples"]

    def setup(self) -> FinetuneState:
        corpus = ft.load_finetune_corpus(self.inputs / "finetune.tsv")
        vocab = textprep.build_vocab(
            [textprep.TokenSequence(textprep.tokenize(textprep.clean_text(text)))
             for text, _ in corpus])
        rng = np.random.default_rng(0)
        dim = self.sizes.embedding_dim
        pretrained = dataio.load_word_vectors(self.inputs / "words.txt", dim)
        emb, _ = dataio.build_embedding_matrix(vocab, pretrained, dim, rng)
        model = ft.build_finetune_model(emb, rng, filters_per_size=self.sizes.filters)
        # a full run encodes the whole corpus before its first batch
        ft.encode_corpus(corpus, vocab)
        return FinetuneState(corpus, vocab, model, rng)

    def _epoch(self, st, chunk, frozen: bool):
        schedule = ft.FinetuneSchedule(frozen_epochs=int(frozen),
                                       unfrozen_epochs=int(not frozen),
                                       batch_size=self.sizes.batch_size)
        start = CLOCK()
        _, losses = ft.finetune_embeddings(st.model, chunk, schedule, st.rng,
                                           vocab=st.vocab)
        return CLOCK() - start, losses

    def unit(self, st: FinetuneState, index, tracer, checks) -> Unit:
        picks = self.manifest["finetune_batches"]
        chunk = [st.corpus[i] for i in picks[index % len(picks)]]
        table = st.model.emb.table
        before = _bits(table.values)
        frozen_s, frozen_losses = self._epoch(st, chunk, frozen=True)
        checks.check(_bits(table.values) == before,
                     "frozen finetune epoch changed embedding.table")
        unfrozen_s, unfrozen_losses = self._epoch(st, chunk, frozen=False)
        checks.check(_bits(table.values) != before,
                     "unfrozen finetune epoch left embedding.table unchanged")
        checks.check(all(math.isfinite(x) for x in frozen_losses + unfrozen_losses),
                     "non-finite finetune loss")
        checks.check(_finite(st.model.named()), "non-finite parameter after Adam "
                     "(a gradient was not finite)")
        n = 2 * math.ceil(len(chunk) / self.sizes.batch_size)
        return Unit(examples=2 * len(chunk), busy_s=frozen_s + unfrozen_s,
                    batches=n)



def load_digests(sizes: gen.Sizes, seed: int) -> list[str] | None:
    """Stored confusion-matrix digests of eval_paper's batches, if this seed
    and size have them."""
    stored = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if sizes != gen.PAPER or seed != stored["seed"]:
        return None
    return stored["eval_paper_cm_sha256"]
