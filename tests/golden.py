"""Golden digests: the SHA-256 of what fixed, seeded worlds write.

    python tests/golden.py           # compare with tests/golden.json; exit 1 on a change
    python tests/golden.py --write   # record the current digests and fingerprints

``--write`` is the only way to refresh ``tests/golden.json``; the test
(``tests/test_golden.py``) only compares.  ``--write`` keeps each recorded
fingerprint that still matches, so drift within the tolerance never adds
up.  A change that moves bytes on purpose refreshes the digests and lists
each one that moved, with the largest deviation behind it, which the
comparison prints for every world whose digests moved.

Each world runs the program the way a user does and hashes the files it
leaves behind:

- ``preprocess_toycorpus``: the statistics report of ``emoconv
  preprocess`` on the toy corpus of ``toycorpus.py`` (train, val and test
  splits), and the vocabulary and encoded splits that ``emoconv train``
  builds from it, hashed in the layout of the ``vocab.txt`` and
  ``*.ids.tsv`` files ``preprocess`` once wrote, so the digests recorded
  from those files still hold;
- ``preprocess_gen_toy``: the same on the ``perfbench/gen.py`` TOY corpus,
  whose turns carry capitals, punctuation runs, contractions and
  out-of-vocabulary words;
- ``finetune_encoding_gen_toy``: the vocabulary of the same generator's
  tweet corpus, built from ``tokenize(clean_text(text))`` per tweet as the
  benchmark builds it, and ``finetune.encode_corpus`` of that corpus;
- ``init_draws``: the initial parameters of both models, as
  ``rcnn.init_model`` draws them at the paper's sizes (the default
  ``TrainConfig``) and at hidden 6, and as ``finetune.build_finetune_model``
  draws them at dim 100 with 300 filters per width and at dim 8 with 6: the
  ``named()`` names in order, every array in that order, and the generator
  state after each build.

Text preparation runs no BLAS, so these digests do not depend on the numpy
build and carry no numpy/BLAS key; nor do the initial draws, which are
uniform draws and zeros.  The worlds that train do: BLAS kernels round
differently from kernel to kernel, so their digests are recorded per key
(:func:`blas_key`): the numpy version, its BLAS and the kernel OpenBLAS
picked for this CPU when it loaded.  They run in a child process with one BLAS thread (numpy reads the thread
variables at import time), and on a key with no recorded digests the
comparison skips them and says why.  Beside its digests, each keyed world
records a fingerprint, which carries no key and is compared on every kernel
(:func:`fingerprint_differences`): the sum, L1 and L2 norm of each trained
array, the epoch losses and validation micro-F1s, and the predicted labels
where the world predicts.  Its floats agree within ``TOLERANCE`` relative
(a sum is measured against its array's L1 norm), and its F1s and labels
exactly.  The worlds:

- ``finetune_gen_toy``: ``finetune_embeddings`` on that tweet corpus with 1
  frozen and 3 unfrozen epochs, kernel widths 1 to 3 (rows shorter than a
  width, repeated tokens whose windows tie, and the row-sparse table
  gradient); the tuned table, every CNN parameter, the epoch losses,
  ``predict_finetune`` on the corpus and the generator state afterwards;
- ``finetune_gen_toy_0_1`` and ``finetune_gen_toy_1_0``: the same with 0
  frozen and 1 unfrozen epoch (every step of it from a fresh table
  moment state) and with 1 frozen and no unfrozen epoch;
- ``finetune_gen_toy_batch13``: 1 frozen and 2 unfrozen epochs in batches
  of 13, so each epoch ends in a batch of 5.  Every loss scale -1/13 and
  -1/5 rounds, unlike the -1/16 and -1/8 of the worlds above, so a
  reordered product in the BCE backward shows;
- ``classifier_hidden6_best`` and ``classifier_hidden6_last``: the RCNN at
  hidden 6 and 2 layers, batch 8, clipping every step (``clip_norm``
  0.02), 2 of 4 epochs frozen, annealed after epoch 2, 3-d sentence vectors
  and dropout, keeping the best or the last epoch; the checkpoint file,
  ``history.tsv`` and the generator state afterwards.  Their splits are
  class-balanced, so their class weights are all 0.25;
- ``classifier_hidden6_skewed``: the same run, keeping the last epoch, on
  splits with the paper's skew (``SKEWED_LABELS``: 'others' is half of 24
  training and 17 of 20 validation conversations), so the class weights are
  0.115 for each emotion and 0.654 for 'others', and the weighted loss moves
  its bytes;
- ``classifier_hidden50_batch8``: the same run at hidden 50 with the
  default ``clip_norm`` of 5.0 and 27 training conversations, keeping the
  best epoch: batches of at most 8 rows against 50- and 200-wide weights
  take BLAS's few-row GEMM kernels, and the classifier loss runs on a
  second shape.  Each epoch ends in a batch of 3, whose loss scale -1/3,
  unlike -1/8, rounds, so a reordered product in the loss shows;
- ``classifier_paper``: the RCNN at the paper's sizes (the default
  ``TrainConfig``: hidden 200, 2 layers, 100-d embeddings, 2304-d sentence
  vectors, batch 64, dropout) with 1 frozen and 2 unfrozen epochs, annealed
  in the third, on 193 training and 64 validation conversations, keeping the
  last epoch: the only world that runs the hidden-200 kernels, down to the
  one-row batch that ends each epoch; the same three digests;
- ``cli_pipeline_gen_toy``: the whole toy pipeline through ``cli.main``, on
  toy corpora of ``toycorpus.py`` with 3-d sentence vectors: ``preprocess``,
  which also converts the sentence-vector TSV to the binary file,
  ``finetune`` of 8-d word vectors on a 45-tweet corpus into its run
  directory, ``train`` on the dataset TSVs, the fine-tuned vectors and the
  binary sentence vectors, ``evaluate`` on the test split with the TSV and
  a 2 x 2 ``sweep`` (two hidden sizes, two seeds) with the binary file; the
  reports, the run directories of ``finetune`` (``vectors.txt``,
  ``losses.tsv`` and ``run.json``) and ``train`` (``model.ckpt``,
  ``history.tsv`` and ``run.json``) and the four of the sweep's cells, each
  hashed with its name.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GEN_SEED = 11
# at most 3.6e-14 relative was measured between OpenBLAS kernels after 4 epochs
TOLERANCE = 1e-10


def _import_paths() -> None:
    for path in (HERE, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _perfbench(name: str):
    """``perfbench/<name>.py`` as a module, with ``perfbench`` importable."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's input generator, as a module."""
    return _perfbench("gen")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encoded_tsv(split, examples) -> bytes:
    """An encoded split in the layout ``emoconv preprocess`` once wrote: the
    raw class counts in a comment line, then ``id<TAB>label<TAB>ids`` rows."""
    from emoconv.dataio import LABELS

    lines = []
    if split.label_counts:
        lines.append("# label_counts\t" + "\t".join(
            f"{name}={split.label_counts.get(name, 0)}" for name in LABELS))
    lines.append("id\tlabel\tids")
    lines += [f"{ex.id}\t{'-' if ex.label is None else LABELS[ex.label]}\t"
              f"{' '.join(str(i) for i in ex.ids)}" for ex in examples]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _preprocess(inputs: Path, out: Path) -> dict[str, str]:
    """The statistics report of ``emoconv preprocess``, and the vocabulary
    and encoded splits that ``emoconv train`` builds from the same files,
    hashed in the layout of the ``vocab.txt`` and ``*.ids.tsv`` files that
    ``preprocess`` once wrote."""
    from emoconv import cli, dataio
    from emoconv import train as tr

    report = out / "stats.tsv"
    paths = {name: str(inputs / f"{name}.txt") for name in ("train", "val", "test")}
    rc = cli.main(["--out", str(report), "preprocess", "--train", paths["train"],
                   "--val", paths["val"], "--test", paths["test"]])
    if rc != 0:
        raise RuntimeError(f"emoconv preprocess on {inputs} exited with {rc}")
    train_split, val_split, test_split = (dataio.load_dataset(paths[name], name)
                                          for name in ("train", "val", "test"))
    data = tr.RunData.encode(train_split, val_split)
    vocab_text = "".join(t + "\n" for t in data.vocab.id_to_token)
    digests = {"vocab.txt": _sha(vocab_text.encode("utf-8"))}
    for split, encoded in ((train_split, data.train_ex), (val_split, data.val_ex),
                           (test_split, tr.encode_split(test_split, data.vocab))):
        digests[f"{split.name}.ids.tsv"] = _sha(_encoded_tsv(split, encoded))
    digests["stats.tsv"] = _sha(report.read_bytes())
    return digests


def _world_toycorpus(tmp: Path) -> dict[str, str]:
    import toycorpus

    inputs = tmp / "inputs"
    inputs.mkdir()
    for name, n, seed in (("train", 16, 1), ("val", 8, 2), ("test", 6, 4)):
        toycorpus.write_split(toycorpus.make_split(name, n, seed), inputs / f"{name}.txt")
    return _preprocess(inputs, tmp)


def _world_gen_toy(tmp: Path) -> dict[str, str]:
    gen = perfbench_gen()
    gen.generate(tmp / "inputs", GEN_SEED, gen.TOY)
    return _preprocess(tmp / "inputs", tmp)


def _gen_toy_tweets(tmp: Path):
    """The generator's TOY tweet corpus and its vocabulary, built from
    ``tokenize(clean_text(text))`` per tweet as the benchmark builds it."""
    from emoconv import finetune as ft
    from emoconv.textprep import TokenSequence, build_vocab, clean_text, tokenize

    gen = perfbench_gen()
    gen.generate(tmp, GEN_SEED, gen.TOY)
    corpus = ft.load_finetune_corpus(tmp / "finetune.tsv")
    return corpus, build_vocab([TokenSequence(tokenize(clean_text(text)))
                                for text, _ in corpus])


def _world_finetune_encoding(tmp: Path) -> dict[str, str]:
    from emoconv import finetune as ft

    corpus, vocab = _gen_toy_tweets(tmp)
    encoded = ft.encode_corpus(corpus, vocab)
    blob = b"".join(ids.dtype.str.encode() + ids.tobytes() + bytes([label])
                    for ids, label in encoded)
    return {"vocab": _sha("\n".join(vocab.id_to_token).encode("utf-8")),
            "encoded": _sha(blob)}


def _rng_state(rng) -> str:
    return _sha(json.dumps(rng.bit_generator.state, sort_keys=True).encode())


def _arrays(named) -> str:
    """One digest over (name, shape, bytes) of every array, in name order."""
    return _sha(b"".join(f"{name}{a.shape}".encode() + a.tobytes()
                         for name, a in sorted(named.items())))


def _stats(prefix: str, named) -> dict[str, dict[str, float]]:
    """``<prefix>/<name>`` -> the sum, L1 and L2 norm of each array, summed
    by numpy without BLAS."""
    import numpy as np

    return {f"{prefix}/{name}": {"sum": float(a.sum()), "l1": float(np.abs(a).sum()),
                                 "l2": float(np.sqrt(np.square(a).sum()))}
            for name, a in named.items()}


def _run_fingerprint(prefix: str, arrays, history) -> dict:
    """The fingerprint of a classifier run: its checkpoint's arrays under
    ``<prefix>model.ckpt`` and its epoch losses and F1s under
    ``<prefix>history.tsv``."""
    return {"arrays": _stats(f"{prefix}model.ckpt", arrays),
            "losses": {f"{prefix}history.tsv": [row.train_loss for row in history]},
            "val_f1": {f"{prefix}history.tsv": [row.val_micro_f1 for row in history]}}


def _labels(preds) -> str:
    return " ".join(str(int(k)) for k in preds)


def _world_init_draws(tmp: Path) -> dict[str, str]:
    import numpy as np

    from emoconv import finetune as ft
    from emoconv import layers as L
    from emoconv import rcnn
    from emoconv.config import TrainConfig

    def embedding(rng, dim):
        return L.EmbeddingMatrix.from_array(
            np.vstack([np.zeros(dim), rng.uniform(-0.1, 0.1, (4, dim))]))

    def digests(tag, model, rng):
        named = {name: t.values for name, t in model.named().items()}
        return {f"{tag}.names": _sha("\n".join(named).encode()),
                f"{tag}.arrays": _sha(b"".join(f"{name}{a.shape}{a.dtype.str}".encode()
                                               + a.tobytes() for name, a in named.items())),
                f"{tag}.rng": _rng_state(rng)}

    out = {}
    for tag, config in (("rcnn_paper", TrainConfig()),
                        ("rcnn_hidden6", TrainConfig(hidden_size=6, sentence_dim=3,
                                                     embedding_dim=6))):
        rng = np.random.default_rng(17)
        params = rcnn.init_model(config, embedding(rng, config.embedding_dim), rng)
        out.update(digests(tag, params, rng))
    for tag, dim, filters in (("cnn_paper", 100, 300), ("cnn_toy", 8, 6)):
        rng = np.random.default_rng(19)
        model = ft.build_finetune_model(embedding(rng, dim), rng, filters_per_size=filters)
        out.update(digests(tag, model, rng))
    return out


def _world_finetune(tmp: Path, frozen: int, unfrozen: int, batch_size: int = 16):
    import numpy as np

    from emoconv import finetune as ft
    from emoconv import layers as L

    corpus, vocab = _gen_toy_tweets(tmp)
    rng = np.random.default_rng(5)
    table = np.vstack([np.zeros(8), rng.uniform(-0.5, 0.5, (vocab.size - 1, 8))])
    model = ft.build_finetune_model(L.EmbeddingMatrix.from_array(table), rng,
                                    filters_per_size=6)
    schedule = ft.FinetuneSchedule(frozen_epochs=frozen, unfrozen_epochs=unfrozen,
                                   lr=0.01, batch_size=batch_size)
    emb, losses = ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    named = model.named()
    del named["embedding.table"]
    preds = ft.predict_finetune(model, ft.encode_corpus(corpus, vocab))
    cnn = {n: t.values for n, t in named.items()}
    return {"embedding": _sha(emb.table.values.tobytes()),
            "cnn": _arrays(cnn),
            "losses": _sha(np.array(losses).tobytes()),
            "predictions": _sha(preds.tobytes()),
            "rng": _rng_state(rng)}, {
        "arrays": {**_stats("embedding", {"table": emb.table.values}), **_stats("cnn", cnn)},
        "losses": {"losses": list(losses)}, "labels": {"predictions": _labels(preds)}}


# the paper's skew, dealt in turn: 'others' is half of the 24 training
# conversations and 17 of the 20 validation ones, each emotion once
SKEWED_LABELS = (("happy", "others", "sad", "others", "angry", "others"),
                 ("others",) * 5 + ("happy",) + ("others",) * 6 + ("sad",)
                 + ("others",) * 6 + ("angry",))


def _world_classifier(tmp: Path, select: str, hidden_size: int = 6,
                      clip_norm: float = 0.02, train_size: int = 24, val_size: int = 8,
                      labels=None):
    from emoconv.config import TrainConfig

    config = TrainConfig(lr=0.01, batch_size=8, epochs=4, clip_norm=clip_norm,
                         anneal_factor=0.5, anneal_after_epoch=2,
                         freeze_embedding_epochs=2, dropout_bilstm=0.3,
                         dropout_linear=0.3, hidden_size=hidden_size, num_layers=2,
                         sentence_dim=3, embedding_dim=6, seed=13)
    digests, fingerprint, history = _train_toy(tmp, config, select, train_size, val_size,
                                               labels)
    if hidden_size == 6 and any(row.clip_fraction != 1.0 for row in history):
        raise RuntimeError("the hidden-6 world must clip every step")
    return digests, fingerprint


def _train_toy(tmp: Path, config, select: str, train_size: int, val_size: int,
               labels=None):
    """Train ``config`` on toy splits of ``train_size`` and ``val_size``
    conversations with ``config.sentence_dim``-d sentence vectors into
    ``tmp``; the digests of the checkpoint, ``history.tsv`` and the generator
    state afterwards, the run's fingerprint and its history.  ``labels`` is
    the pair of label sequences the splits deal in turn, or None for
    ``LABELS`` in both."""
    import numpy as np
    import toycorpus

    from emoconv import dataio, rcnn
    from emoconv import layers as L
    from emoconv import train as tr

    train_labels, val_labels = labels or (dataio.LABELS, dataio.LABELS)
    train_split = toycorpus.make_split("train", train_size, seed=13, labels=train_labels)
    val_split = toycorpus.make_split("val", val_size, seed=14, labels=val_labels)
    vocab = toycorpus.vocab_for(train_split, val_split)
    store = toycorpus.store_for([train_split, val_split], config.sentence_dim, seed=15)
    rng = np.random.default_rng(13)
    dim = config.embedding_dim
    table = np.vstack([np.zeros(dim), rng.uniform(-0.1, 0.1, (vocab.size - 1, dim))])
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(table), rng)
    ckpt, history = toycorpus.train_splits(params, train_split, val_split, store, config, rng,
                                           vocab=vocab, select=select)
    dataio.save_checkpoint(ckpt, tmp / "model.ckpt")
    tr.write_history(history, tmp / "history.tsv")
    return {"model.ckpt": _sha((tmp / "model.ckpt").read_bytes()),
            "history.tsv": _sha((tmp / "history.tsv").read_bytes()),
            "rng": _rng_state(rng)}, _run_fingerprint("", ckpt.params, history), history


def _world_classifier_paper(tmp: Path):
    from emoconv.config import TrainConfig

    config = TrainConfig(epochs=3, freeze_embedding_epochs=1, anneal_after_epoch=2, seed=13)
    return _train_toy(tmp, config, "last", 193, 64)[:2]


CLI_CONFIG = """\
lr = 0.02
batch_size = 8
epochs = 2
hidden_size = 6
num_layers = 2
sentence_dim = 3
embedding_dim = 8
dropout_bilstm = 0.2
dropout_linear = 0.2
freeze_embedding_epochs = 1
anneal_after_epoch = 1
seed = 5
"""


def _world_cli_pipeline(tmp: Path):
    import numpy as np
    import toycorpus

    from emoconv import cli, dataio, rcnn
    from emoconv import train as tr

    def run(*argv) -> None:
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"emoconv {' '.join(map(str, argv))} exited with {rc}")

    made = {name: toycorpus.make_split(name, n, seed)
            for name, n, seed in (("train", 40, 21), ("val", 12, 22), ("test", 12, 23))}
    splits = {name: toycorpus.write_split(split, tmp / f"{name}.txt")
              for name, split in made.items()}
    toycorpus.write_sentence_tsv(toycorpus.store_for(made.values(), 3, seed=24), tmp / "sv.tsv")
    tweets = toycorpus.make_split("tweets", 45, seed=25).conversations
    (tmp / "tweets.tsv").write_text("text\tlabel\n" + "".join(
        f"{' '.join(c.turns)}\t{int(c.label == 'happy')}\n" for c in tweets),
        encoding="utf-8")
    words = toycorpus.FILLER[1:] + list(toycorpus.KEYWORDS.values())
    toycorpus.write_word_vectors(
        words, np.random.default_rng(26).uniform(-0.5, 0.5, (len(words), 8)), tmp / "words.txt")
    config = tmp / "config.txt"
    config.write_text(CLI_CONFIG, encoding="utf-8")
    run("--config", config, "--out", tmp / "stats.tsv", "preprocess", "--train", splits["train"],
        "--val", splits["val"], "--test", splits["test"],
        "--sentence-vectors", tmp / "sv.tsv", tmp / "sv.bin")
    run("--seed", 3, "--out", tmp / "ft", "finetune",
        "--corpus", tmp / "tweets.tsv", "--embeddings-in", tmp / "words.txt",
        "--epochs-frozen", 1, "--epochs-unfrozen", 1, "--lr", 0.01, "--batch-size", 16,
        "--dim", 8, "--filters", 4)
    tuned = tmp / "ft" / "vectors.txt"
    run("--config", config, "--out", tmp / "run", "train", "--train", splits["train"],
        "--val", splits["val"], "--embeddings", tuned,
        "--sentence-vectors", tmp / "sv.bin")
    run("--out", tmp / "evaluate.tsv", "evaluate", "--checkpoint", tmp / "run" / "model.ckpt",
        "--split", splits["test"], "--sentence-vectors", tmp / "sv.bin")
    run("--config", config, "--out", tmp / "sweep.tsv", "sweep", "--train", splits["train"],
        "--val", splits["val"], "--axis", "hidden_size", "--values", "4,6",
        "--seeds", "0,1", "--embeddings", tuned,
        "--sentence-vectors", tmp / "sv.bin", "--runs-dir", tmp / "runs")
    cells = sorted(path.parent for path in (tmp / "runs").glob("*/run.json"))
    if len(cells) != 4:
        raise RuntimeError(f"the 2 x 2 sweep left {len(cells)} finished run directories")
    files = ["stats.tsv", "ft/vectors.txt", "ft/losses.tsv", "ft/run.json", "run/model.ckpt",
             "run/history.tsv", "run/run.json", "evaluate.tsv", "sweep.tsv"]
    digests = {name: _sha((tmp / name).read_bytes()) for name in files}
    digests["runs"] = _sha(b"".join(
        cell.name.encode() + b"".join((cell / name).read_bytes()
                                      for name in ("run.json", "model.ckpt", "history.tsv"))
        for cell in cells))
    tuned = dataio.load_word_vectors(tuned, 8)
    ckpt = dataio.load_checkpoint(tmp / "run" / "model.ckpt")
    test = tr.encode_split(dataio.load_dataset(splits["test"], "test"), ckpt.vocab)
    preds = tr.predict(rcnn.restore(ckpt.config, ckpt.params), test,
                       dataio.load_sentence_vectors(tmp / "sv.bin", 3, {ex.id for ex in test}))
    fingerprint = {"arrays": _stats("ft/vectors.txt", {"vectors": np.array([tuned[w] for w in
                                                                           sorted(tuned)])}),
                   "losses": {}, "val_f1": {}, "labels": {"evaluate.tsv": _labels(preds)}}
    # a sweep cell is named by its config, not by its directory, whose key
    # moves with the tuned vectors' bytes
    for prefix, run_dir in [("run/", tmp / "run")] + [
            ("runs/hidden_size={hidden_size},seed={seed}/".format(
                **tr.read_run(cell / "run.json")["config"]), cell) for cell in cells]:
        run = _run_fingerprint(prefix, dataio.load_checkpoint(run_dir / "model.ckpt").params,
                         tr.read_history(run_dir / "history.tsv"))
        for field, entries in run.items():
            fingerprint[field].update(entries)
    return digests, fingerprint


WORLDS = {
    "preprocess_toycorpus": _world_toycorpus,
    "preprocess_gen_toy": _world_gen_toy,
    "finetune_encoding_gen_toy": _world_finetune_encoding,
    "init_draws": _world_init_draws,
}
KEYED_WORLDS = {
    "finetune_gen_toy": lambda tmp: _world_finetune(tmp, 1, 3),
    "finetune_gen_toy_0_1": lambda tmp: _world_finetune(tmp, 0, 1),
    "finetune_gen_toy_1_0": lambda tmp: _world_finetune(tmp, 1, 0),
    "finetune_gen_toy_batch13": lambda tmp: _world_finetune(tmp, 1, 2, batch_size=13),
    "classifier_hidden6_best": lambda tmp: _world_classifier(tmp, "best"),
    "classifier_hidden6_last": lambda tmp: _world_classifier(tmp, "last"),
    "classifier_hidden6_skewed": lambda tmp: _world_classifier(tmp, "last", val_size=20,
                                                                labels=SKEWED_LABELS),
    "classifier_hidden50_batch8": lambda tmp: _world_classifier(tmp, "best", 50, 5.0, 27),
    "classifier_paper": _world_classifier_paper,
    "cli_pipeline_gen_toy": _world_cli_pipeline,
}


def _run(worlds) -> dict:
    """Run each world in its own temporary directory; world -> its result:
    file -> digest, and for a keyed world its fingerprint too."""
    _import_paths()
    out = {}
    for name, world in worlds.items():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = world(Path(tmp))
    return out


def compute() -> dict[str, dict[str, str]]:
    return _run(WORLDS)


def blas_core() -> str | None:
    """The kernel the OpenBLAS bundled with numpy picked for this CPU when it
    loaded (``OPENBLAS_CORETYPE`` overrides it), or None where numpy bundles
    no OpenBLAS that reports one."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(lib), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode("ascii")
    return None


def blas_key() -> str:
    """numpy's version, its BLAS and the kernel in use in this process.  Where
    :func:`blas_core` finds no kernel, the ``openblas configuration`` string
    of ``np.show_config`` stands in for it; that string is fixed when numpy
    is built and names the build's target, not the kernel picked at run time."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = blas_core()
    build = (f"{blas.get('name')} {blas.get('version')} kernel {core}" if core
             else blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}")
    return f"numpy {np.__version__}; {build}"


def compute_keyed() -> tuple[str, dict[str, dict[str, str]], dict[str, dict]]:
    """(numpy/BLAS key, digests, fingerprints) of the keyed worlds, run in a
    child process with every BLAS thread variable of ``perfbench/run.py`` set
    to 1."""
    env = dict(os.environ, **{var: "1" for var in _perfbench("run").THREAD_VARS})
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--keyed-here"],
                           env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"the keyed worlds failed:\n{child.stderr}")
    out = json.loads(child.stdout.splitlines()[-1])
    return out["key"], out["worlds"], out["fingerprints"]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def recorded() -> dict[str, dict[str, str]]:
    return _golden()["worlds"]


def recorded_keyed(key: str) -> dict[str, dict[str, str]] | None:
    """The keyed worlds' digests recorded for ``key``, None if there are none."""
    return _golden().get("keyed", {}).get(key)


def recorded_fingerprints() -> dict[str, dict]:
    """The keyed worlds' fingerprints, which hold on every key."""
    return _golden()["fingerprints"]


def differences(got, want) -> list[str]:
    """One line per world or file whose digest is missing or moved."""
    lines = []
    for world in sorted(set(got) | set(want)):
        if world not in want or world not in got:
            lines.append(f"{world}: only {'computed' if world in got else 'recorded'}")
            continue
        for name in sorted(set(got[world]) | set(want[world])):
            if got[world].get(name) != want[world].get(name):
                lines.append(f"{world}/{name}: recorded {want[world].get(name)}, "
                             f"computed {got[world].get(name)}")
    return lines


def _deviations(got: dict, want: dict):
    """(field, entry, absolute, relative) for every value of two fingerprints
    of one world: ``sum`` against the recorded L1 norm, ``l1``, ``l2`` and
    ``losses`` against the recorded value, ``val_f1`` as a difference and
    ``labels`` as the count of labels that differ.  An entry of one side
    only, or of another length, and a NaN deviate by infinity."""
    inf = float("inf")

    def gap(a, b, scale=1.0):
        if a == b:
            return 0.0
        d = abs(a - b) / scale if scale else inf
        return d if d == d else inf

    for field in sorted(set(got) | set(want)):
        g, w = got.get(field, {}), want.get(field, {})
        for entry in sorted(set(g) | set(w)):
            if entry not in g or entry not in w:
                yield field, entry, inf, inf
            elif field == "arrays":
                scale = abs(w[entry]["l1"])
                for stat in ("sum", "l1", "l2"):
                    a, b = g[entry][stat], w[entry][stat]
                    yield stat, entry, gap(a, b), gap(a, b, scale if stat == "sum" else abs(b))
            elif field == "labels":
                a, b = g[entry].split(), w[entry].split()
                wrong = inf if len(a) != len(b) else sum(x != y for x, y in zip(a, b))
                yield field, entry, wrong, wrong
            elif len(g[entry]) != len(w[entry]):
                yield field, entry, inf, inf
            else:
                for a, b in zip(g[entry], w[entry]):
                    yield field, entry, gap(a, b), gap(a, b, 1.0 if field == "val_f1" else abs(b))


def fingerprint_differences(got, want) -> list[str]:
    """One line per fingerprint value outside its bound: ``TOLERANCE``
    relative for floats, none for F1s and labels."""
    lines = []
    for world in sorted(set(got) | set(want)):
        if world not in want or world not in got:
            lines.append(f"{world}: fingerprint only {'computed' if world in got else 'recorded'}")
            continue
        for field, entry, _, dev in _deviations(got[world], want[world]):
            if dev > (0.0 if field in ("val_f1", "labels") else TOLERANCE):
                lines.append(f"{world}: fingerprint {field} of {entry} deviates by {dev:.3g}")
    return lines


def largest_deviations(got: dict, want: dict) -> list[str]:
    """For one world's two fingerprints, one line per field: its largest
    relative and absolute deviation and the entry where each occurs."""
    worst: dict[str, list] = {}
    for field, entry, absolute, relative in _deviations(got, want):
        top = worst.setdefault(field, [(-1.0, ""), (-1.0, "")])
        top[0], top[1] = max(top[0], (relative, entry)), max(top[1], (absolute, entry))
    return [f"{field}: {r:.3g} relative{f' ({r_at})' if r else ''}, "
            f"{a:.3g} absolute{f' ({a_at})' if a else ''}"
            for field, ((r, r_at), (a, a_at)) in worst.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current digests and fingerprints in tests/golden.json")
    parser.add_argument("--keyed-here", action="store_true",
                        help="run only the keyed worlds, in this process, and print "
                             "their key, digests and fingerprints as one JSON line")
    args = parser.parse_args(argv)
    if args.keyed_here:
        ran = _run(KEYED_WORLDS)
        print(json.dumps({"key": blas_key(), "worlds": {w: r[0] for w, r in ran.items()},
                          "fingerprints": {w: r[1] for w, r in ran.items()}}))
        return 0
    got = compute()
    key, got_keyed, got_prints = compute_keyed()
    if args.write:
        old = _golden() if GOLDEN.exists() else {}
        keyed, kept = old.get("keyed", {}), old.get("fingerprints", {})
        keyed[key] = got_keyed
        # a fingerprint that still matches stays as recorded, so its drift never adds up
        prints = {world: kept[world] if world in kept and not fingerprint_differences(
            {world: fp}, {world: kept[world]}) else fp for world, fp in got_prints.items()}
        GOLDEN.write_text(json.dumps({"worlds": got, "keyed": keyed, "fingerprints": prints},
                                     indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, got.values())) + sum(map(len, got_keyed.values()))} "
              f"digests to {GOLDEN}, the keyed ones under {key!r}, and "
              f"{sum(prints[w] is not kept.get(w) for w in prints)} of {len(prints)} fingerprints")
        return 0
    want_prints = recorded_fingerprints()
    drift = fingerprint_differences(got_prints, want_prints)
    print("\n".join(drift) if drift else f"every fingerprint matches within {TOLERANCE:g}")
    moved = differences(got, recorded())
    want_keyed = recorded_keyed(key)
    if want_keyed is None:
        print(f"no keyed digests recorded for {key!r}: the keyed worlds' digests "
              "are not compared")
    else:
        moved += differences(got_keyed, want_keyed)
        for world in sorted(w for w in got_keyed if got_keyed[w] != want_keyed.get(w)):
            if world in want_prints:
                moved.append(f"{world}: largest fingerprint deviations")
                moved += ["  " + line for line in
                          largest_deviations(got_prints[world], want_prints[world])]
    print("\n".join(moved) if moved else
          "every digest matches" if want_keyed is not None else "every unkeyed digest matches")
    return 1 if moved or drift else 0


if __name__ == "__main__":
    sys.exit(main())
