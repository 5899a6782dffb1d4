"""Deterministic synthetic inputs for the benchmark, from a seed.

Uses only the standard library and numpy, downloads nothing and imports
nothing from ``emoconv``: the program under test sees only the files written
here.  One call to :func:`generate` writes, into a directory:

- ``train.txt``, ``val.txt``, ``test.txt``: conversation TSVs in the
  dataset format, with the EmoContext class counts, three turns each, words
  drawn from a Zipfian vocabulary, train lengths capped at 75 tokens and an
  uncapped long tail on val and test;
- ``words.txt``: 100-d text word vectors covering most of the vocabulary;
- ``sentvec.tsv``: sentence vectors for every conversation id a workload
  touches, and no others;
- ``finetune.tsv``: a binary, tweet-like ``text<TAB>label`` corpus;
- ``model.ckpt``: a randomly initialized paper-sized classifier in the
  version-1 checkpoint format, for the evaluation workload;
- ``inputs.json``: which ids each workload uses and the input properties
  that drive cost (examples, tokens, length quantiles, share above 75
  tokens, vocabulary size, class counts).
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LABELS = ("happy", "sad", "angry", "others")
# EmoContext split sizes per class (train, dev, test).
PUBLISHED_COUNTS = {
    "train": {"happy": 4243, "sad": 5463, "angry": 5506, "others": 14948},
    "val": {"happy": 142, "sad": 125, "angry": 150, "others": 2338},
    "test": {"happy": 284, "sad": 250, "angry": 298, "others": 4677},
}
MAX_TRAIN_TOKENS = 75
SPECIALS = ("<pad>", "<unk>", "<eos>")
# Tokens the tokenizer splits off the preceding word.
ATTACHED = ("!", "?", ",", ".", "n't", "'s", "'m")
TWEET_TOKENS = ("#", "@", ":", ")")
ZIPF_S = 1.0            # word frequency ~ 1 / rank**ZIPF_S
TURN_SIGMA = 0.9        # lognormal spread of tokens per turn
OOV_SHARE = 0.02        # val/test words drawn from outside the vocabulary
VECTOR_COVERAGE = 0.9   # vocabulary share present in words.txt


@dataclass(frozen=True)
class Sizes:
    """Everything that scales the generated inputs and the model."""
    scale: float           # multiplies every class count
    vocab: int             # words in the Zipfian vocabulary
    turn_median: float     # lognormal tokens per turn
    embedding_dim: int
    hidden_size: int
    sentence_dim: int
    batch_size: int        # also the stratified training examples per epoch
    val_examples: int      # stratified validation examples per pass
    eval_batches: int      # stratified evaluation batches, cycled
    finetune_tweets: int
    finetune_batches: int  # 64-tweet chunks used by the timed loop, cycled
    tweet_median: float
    filters: int


PAPER = Sizes(scale=1.0, vocab=15000, turn_median=5.5, embedding_dim=100,
              hidden_size=200, sentence_dim=2304, batch_size=64,
              val_examples=32, eval_batches=8, finetune_tweets=20000,
              finetune_batches=32, tweet_median=12.0, filters=300)
TOY = Sizes(scale=0.01, vocab=300, turn_median=3.0, embedding_dim=8,
            hidden_size=6, sentence_dim=5, batch_size=8,
            val_examples=4, eval_batches=2, finetune_tweets=200,
            finetune_batches=2, tweet_median=6.0, filters=4)

TRAIN_CONFIG_DEFAULTS = {
    "lr": 0.0005, "batch_size": 64, "epochs": 6, "clip_norm": 5.0,
    "anneal_factor": 0.2, "anneal_after_epoch": 5,
    "freeze_embedding_epochs": 2, "dropout_bilstm": 0.5,
    "dropout_linear": 0.7, "hidden_size": 200, "num_layers": 2, "seed": 0,
    "sentence_dim": 2304, "embedding_dim": 100, "projection_tanh": False,
}


def model_config(sizes: Sizes) -> dict:
    """TrainConfig fields for the generated model (defaults at paper size)."""
    return dict(TRAIN_CONFIG_DEFAULTS, batch_size=sizes.batch_size,
                hidden_size=sizes.hidden_size, sentence_dim=sizes.sentence_dim,
                embedding_dim=sizes.embedding_dim)


def make_words(n: int) -> list[str]:
    """n distinct lowercase pseudo-words, shortest first, one per index."""
    syllables = [c + v for c in "bcdfghjklmprstvwz" for v in "aeiou"]
    base = len(syllables)
    words = []
    for i in range(n):
        parts, k = [], i
        while True:
            parts.append(syllables[k % base])
            k = k // base - 1
            if k < 0:
                break
        words.append("".join(reversed(parts)))
    return words


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def _turn_lengths(rng, n: int, sizes: Sizes, cap: int | None) -> np.ndarray:
    """[n x 3] tokens per turn; with a cap, rows whose total with the two
    EOS separators exceeds it are redrawn."""
    def draw(k):
        raw = rng.lognormal(np.log(sizes.turn_median), TURN_SIGMA, (k, 3))
        return np.maximum(1, np.rint(raw)).astype(np.int64)

    lengths = draw(n)
    while cap is not None:
        over = np.flatnonzero(lengths.sum(axis=1) + 2 > cap)
        if over.size == 0:
            break
        lengths[over] = draw(over.size)
    return lengths


class _Text:
    """Renders token counts as raw text whose tokenization has exactly that
    many tokens: words, capitals, punctuation runs and contractions."""

    POOL = 1 << 16

    def __init__(self, rng, words: list[str], oov: list[str]):
        self.rng = rng
        self.words = words
        self.cdf = np.cumsum(_zipf(len(words), ZIPF_S))
        self.oov = oov
        self.pos = self.POOL
        self.used: set[str] = set()  # distinct tokens written, for vocabulary sizes

    def _draws(self, n: int):
        """n (word index, uniform, uniform) triples from pre-drawn pools."""
        if self.pos + n > self.POOL:
            size = max(self.POOL, n)
            u = self.rng.random((3, size))
            picks = np.minimum(np.searchsorted(self.cdf, u[0]), len(self.words) - 1)
            self.pool = list(zip(picks.tolist(), u[1].tolist(), u[2].tolist()))
            self.pos = 0
        out = self.pool[self.pos:self.pos + n]
        self.pos += n
        return out

    def phrase(self, n: int, oov_share: float = 0.0, extra=()) -> str:
        out: list[str] = []
        attached = True  # never attach to nothing or to another attachment
        for j, (pick, kind, other) in enumerate(self._draws(n)):
            if not attached and kind < 0.08:
                tok = ATTACHED[int(other * len(ATTACHED))]
                self.used.add(tok)
                if tok in "!?." and kind < 0.02:
                    tok = tok * 3  # cleaned back to one mark
                out[-1] += tok
                attached = True
                continue
            attached = False
            if extra and kind > 0.95:
                word = extra[int(other * len(extra))]
            elif kind < 0.08 + oov_share and oov_share:
                word = self.oov[int(other * len(self.oov))]
            else:
                word = self.words[pick]
            self.used.add(word)
            out.append(word.capitalize() if j == 0 else word)
        return " ".join(out)


def _write_split(path: Path, prefix: str, counts: dict, text: _Text,
                 sizes: Sizes, rng, cap: int | None, oov_share: float):
    labels = np.array([i for i, name in enumerate(LABELS)
                       for _ in range(counts[name])])
    rng.shuffle(labels)
    turns = _turn_lengths(rng, labels.size, sizes, cap)
    ids = [f"{prefix}{i:05d}" for i in range(labels.size)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tturn1\tturn2\tturn3\tlabel\n")
        for conv_id, label, row in zip(ids, labels, turns):
            parts = [text.phrase(int(k), oov_share) for k in row]
            fh.write("\t".join([conv_id, *parts, LABELS[label]]) + "\n")
    return ids, turns.sum(axis=1) + 2, labels


def stratified(rng, lengths: np.ndarray, k: int) -> np.ndarray:
    """k indices, one drawn from each of k equal-size length strata, so every
    draw has nearly the same length profile (and so the same cost)."""
    order = np.argsort(lengths, kind="stable")
    edges = np.linspace(0, lengths.size, k + 1).astype(np.int64)
    return np.array([order[rng.integers(edges[i], edges[i + 1])]
                     for i in range(k)])


def _write_vectors(path: Path, rows: list[tuple[str, np.ndarray]], sep: str,
                   digits: int) -> None:
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    fmt = " ".join([f"%.{digits}f"] * rows[0][1].size)
    with open(path, "w", encoding="utf-8") as fh:
        for key, vec in rows:
            fh.write(key + sep + fmt % tuple(vec) + "\n")


def _write_checkpoint(path: Path, vocab: list[str], sizes: Sizes, rng) -> None:
    """Version-1 checkpoint: magic, u32 version, u64 json length, json,
    then per array (sorted by name) u64 byte length and raw float64."""
    d, h = sizes.embedding_dim, sizes.hidden_size

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    table = rng.uniform(-0.05, 0.05, (len(vocab), d))
    table[0] = 0.0
    arrays = {"embedding.table": table}
    for layer in range(TRAIN_CONFIG_DEFAULTS["num_layers"]):
        in_size = d if layer == 0 else 2 * h
        for tag in ("fwd", "bwd"):
            bias = np.zeros(4 * h)
            bias[h:2 * h] = 1.0
            arrays[f"bilstm{layer}.{tag}.w"] = uniform((4 * h, in_size), in_size)
            arrays[f"bilstm{layer}.{tag}.u"] = uniform((4 * h, h), h)
            arrays[f"bilstm{layer}.{tag}.b"] = bias
    arrays["projection.w"] = uniform((h, 2 * h + d), 2 * h + d)
    arrays["projection.b"] = rng.uniform(-0.1, 0.1, h)
    arrays["output.w"] = uniform((4, h + sizes.sentence_dim),
                                 h + sizes.sentence_dim)
    arrays["output.b"] = rng.uniform(-0.1, 0.1, 4)
    names = sorted(arrays)
    meta = {"arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
            "best_val_f1": 0.5, "config": model_config(sizes), "epoch": 1,
            "vocab": vocab}
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"EMOC" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            raw = np.ascontiguousarray(arrays[name], dtype="<f8").tobytes()
            fh.write(struct.pack("<Q", len(raw)) + raw)


def _length_profile(lengths: np.ndarray) -> dict:
    q = np.quantile(lengths, [0.1, 0.5, 0.9, 0.99])
    return {"examples": int(lengths.size), "tokens": int(lengths.sum()),
            "length_q10_q50_q90_q99": [float(v) for v in q],
            "length_max": int(lengths.max()),
            "share_over_75": float((lengths > MAX_TRAIN_TOKENS).mean())}


def _class_counts(labels: np.ndarray) -> dict:
    return {name: int((labels == i).sum()) for i, name in enumerate(LABELS)}


def generate(out_dir, seed: int, sizes: Sizes = PAPER) -> dict:
    """Write every input file into ``out_dir``; returns the manifest that is
    also written to ``inputs.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    words = make_words(sizes.vocab + max(10, sizes.vocab // 10))
    vocab_words, oov_words = words[:sizes.vocab], words[sizes.vocab:]
    text = _Text(rng, vocab_words, oov_words)

    splits = {}
    for name, prefix, cap, oov in (("train", "tr", MAX_TRAIN_TOKENS, 0.0),
                                   ("val", "va", None, OOV_SHARE),
                                   ("test", "te", None, OOV_SHARE)):
        counts = {c: max(1, round(n * sizes.scale))
                  for c, n in PUBLISHED_COUNTS[name].items()}
        splits[name] = _write_split(out / f"{name}.txt", prefix, counts, text,
                                    sizes, rng, cap, oov)
        if name == "train":
            train_vocab = len(SPECIALS) + len(text.used)

    b = sizes.batch_size
    train_ids, train_len, train_lab = splits["train"]
    val_ids, val_len, val_lab = splits["val"]
    test_ids, test_len, test_lab = splits["test"]
    pick_train = stratified(rng, train_len, b)
    pick_val = stratified(rng, val_len, sizes.val_examples)
    # each evaluation batch is its own stratified draw, so every batch carries
    # the long tail and pads to about the same width
    pick_eval = [stratified(rng, test_len, b) for _ in range(sizes.eval_batches)]

    touched = ([train_ids[i] for i in pick_train] + [val_ids[i] for i in pick_val]
               + [test_ids[i] for batch in pick_eval for i in batch])
    unique = list(dict.fromkeys(touched))
    _write_vectors(out / "sentvec.tsv",
                   [(i, rng.uniform(-1, 1, sizes.sentence_dim)) for i in unique],
                   "\t", 6)

    present = rng.random(sizes.vocab) < VECTOR_COVERAGE
    extra = rng.choice(len(oov_words), size=len(oov_words) // 2, replace=False)
    vec_words = [w for w, keep in zip(vocab_words, present) if keep]
    vec_words += [oov_words[i] for i in sorted(extra)]
    vec_words = [vec_words[i] for i in rng.permutation(len(vec_words))]
    _write_vectors(out / "words.txt",
                   [(w, rng.normal(0.0, 0.4, sizes.embedding_dim)) for w in vec_words],
                   " ", 5)

    text.used.clear()
    tweet_labels = rng.integers(0, 2, sizes.finetune_tweets)
    tweet_len = np.maximum(1, np.rint(rng.lognormal(
        np.log(sizes.tweet_median), 0.6, sizes.finetune_tweets))).astype(np.int64)
    with open(out / "finetune.tsv", "w", encoding="utf-8") as fh:
        fh.write("text\tlabel\n")
        for n, y in zip(tweet_len, tweet_labels):
            fh.write(f"{text.phrase(int(n), extra=TWEET_TOKENS)}\t{int(y)}\n")
    pick_tweets = [stratified(rng, tweet_len, b).tolist()
                   for _ in range(sizes.finetune_batches)]

    ckpt_vocab = list(SPECIALS) + [vocab_words[i] for i in rng.permutation(sizes.vocab)]
    _write_checkpoint(out / "model.ckpt", ckpt_vocab, sizes, rng)

    eval_len = np.concatenate([test_len[p] for p in pick_eval])
    tweet_pick_len = np.concatenate([tweet_len[p] for p in pick_tweets])
    manifest = {
        "seed": seed,
        "sizes": asdict(sizes),
        "train_ids": [train_ids[i] for i in pick_train],
        "val_ids": [val_ids[i] for i in pick_val],
        "eval_batches": [[test_ids[i] for i in p] for p in pick_eval],
        "finetune_batches": pick_tweets,
        "properties": {
            "train_paper": {
                "corpus_train": dict(_length_profile(train_len),
                                     class_counts=_class_counts(train_lab)),
                "corpus_val": dict(_length_profile(val_len),
                                   class_counts=_class_counts(val_lab)),
                "timed_train": _length_profile(train_len[pick_train]),
                "timed_val": _length_profile(val_len[pick_val]),
                "vocabulary_size": train_vocab,
                "word_vectors": len(vec_words),
            },
            "eval_paper": dict(_length_profile(eval_len),
                               split_examples=len(test_ids),
                               class_counts=_class_counts(
                                   np.concatenate([test_lab[p] for p in pick_eval])),
                               checkpoint_vocabulary=len(ckpt_vocab)),
            "finetune_cnn": {
                "corpus": dict(_length_profile(tweet_len),
                               class_counts={"0": int((tweet_labels == 0).sum()),
                                             "1": int((tweet_labels == 1).sum())}),
                "timed": _length_profile(tweet_pick_len),
                "vocabulary_size": len(SPECIALS) + len(text.used),
            },
        },
    }
    (out / "inputs.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
