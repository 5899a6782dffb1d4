"""Golden digests: the SHA-256 of what fixed, seeded worlds write.

    python tests/golden.py           # compare with tests/golden.json; exit 1 on a change
    python tests/golden.py --write   # record the current digests

``--write`` is the only way to refresh ``tests/golden.json``; the test
(``tests/test_golden.py``) only compares.  A change that moves bytes on
purpose refreshes the digests and lists each one that moved.

Each world runs the program the way a user does and hashes the files it
leaves behind:

- ``preprocess_toycorpus``: ``emoconv preprocess`` on the toy corpus of
  ``toycorpus.py`` (train, val and test splits);
- ``preprocess_gen_toy``: ``emoconv preprocess`` on the ``perfbench/gen.py``
  TOY corpus, whose turns carry capitals, punctuation runs, contractions and
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
differently from CPU to CPU, so their digests are recorded per key, the
numpy version and the ``openblas configuration`` string of
``np.show_config(mode="dicts")`` (which names the kernel the CPU picked).
They run in a child process with one BLAS thread (numpy reads the thread
variables at import time), and on a key with no recorded digests the
comparison skips them and says why:

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
  ``history.tsv`` and the generator state afterwards;
- ``classifier_hidden50_batch8``: the same run at hidden 50 with the
  default ``clip_norm`` of 5.0 and 27 training conversations, keeping the
  best epoch: batches of at most 8 rows against 50- and 200-wide weights
  take BLAS's few-row GEMM kernels, and the classifier loss runs on a
  second shape.  Each epoch ends in a batch of 3, whose loss scale -1/3,
  unlike -1/8, rounds, so a reordered product in the loss shows;
- ``cli_pipeline_gen_toy``: the whole toy pipeline through ``cli.main``, on
  toy corpora of ``toycorpus.py`` with 3-d sentence vectors: ``preprocess``,
  ``finetune`` of 8-d word vectors on a 45-tweet corpus, ``train`` on the
  fine-tuned vectors, ``evaluate`` on the test split and a 2 x 2 ``sweep``
  (two hidden sizes, two seeds); the reports, the fine-tuned vectors, the
  checkpoint, ``history.tsv`` and the contents of the sweep records.
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


def _preprocess(inputs: Path, out: Path) -> dict[str, str]:
    from emoconv import cli

    report = out / "stats.tsv"
    rc = cli.main(["--out", str(report), "preprocess",
                   "--train", str(inputs / "train.txt"), "--val", str(inputs / "val.txt"),
                   "--test", str(inputs / "test.txt"), "--out-dir", str(out / "data")])
    if rc != 0:
        raise RuntimeError(f"emoconv preprocess on {inputs} exited with {rc}")
    files = ["vocab.txt", "train.ids.tsv", "val.ids.tsv", "test.ids.tsv"]
    digests = {name: _sha((out / "data" / name).read_bytes()) for name in files}
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


def _world_finetune(tmp: Path, frozen: int, unfrozen: int,
                    batch_size: int = 16) -> dict[str, str]:
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
    return {"embedding": _sha(emb.table.values.tobytes()),
            "cnn": _arrays({n: t.values for n, t in named.items()}),
            "losses": _sha(np.array(losses).tobytes()),
            "predictions": _sha(preds.tobytes()),
            "rng": _rng_state(rng)}


def _world_classifier(tmp: Path, select: str, hidden_size: int = 6,
                      clip_norm: float = 0.02, train_size: int = 24) -> dict[str, str]:
    import numpy as np
    import toycorpus

    from emoconv import dataio, rcnn
    from emoconv import layers as L
    from emoconv import train as tr
    from emoconv.config import TrainConfig

    config = TrainConfig(lr=0.01, batch_size=8, epochs=4, clip_norm=clip_norm,
                         anneal_factor=0.5, anneal_after_epoch=2,
                         freeze_embedding_epochs=2, dropout_bilstm=0.3,
                         dropout_linear=0.3, hidden_size=hidden_size, num_layers=2,
                         sentence_dim=3, embedding_dim=6, seed=13)
    train_split = toycorpus.make_split("train", train_size, seed=13)
    val_split = toycorpus.make_split("val", 8, seed=14)
    vocab = toycorpus.vocab_for(train_split, val_split)
    store = toycorpus.store_for([train_split, val_split], 3, seed=15)
    rng = np.random.default_rng(13)
    table = np.vstack([np.zeros(6), rng.uniform(-0.1, 0.1, (vocab.size - 1, 6))])
    params = rcnn.init_model(config, L.EmbeddingMatrix.from_array(table), rng)
    ckpt, history = toycorpus.train_splits(params, train_split, val_split, store, config, rng,
                                           vocab=vocab, select=select)
    if hidden_size == 6 and any(row.clip_fraction != 1.0 for row in history):
        raise RuntimeError("the hidden-6 world must clip every step")
    dataio.save_checkpoint(ckpt, tmp / "model.ckpt")
    tr.write_history(history, tmp / "history.tsv")
    return {"model.ckpt": _sha((tmp / "model.ckpt").read_bytes()),
            "history.tsv": _sha((tmp / "history.tsv").read_bytes()),
            "rng": _rng_state(rng)}


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


def _world_cli_pipeline(tmp: Path) -> dict[str, str]:
    import numpy as np
    import toycorpus

    from emoconv import cli, dataio

    def run(*argv) -> None:
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"emoconv {' '.join(map(str, argv))} exited with {rc}")

    made = {name: toycorpus.make_split(name, n, seed)
            for name, n, seed in (("train", 40, 21), ("val", 12, 22), ("test", 12, 23))}
    splits = {name: toycorpus.write_split(split, tmp / f"{name}.txt")
              for name, split in made.items()}
    dataio.save_sentence_vectors(toycorpus.store_for(made.values(), 3, seed=24), tmp / "sv.tsv")
    tweets = toycorpus.make_split("tweets", 45, seed=25).conversations
    (tmp / "tweets.tsv").write_text("text\tlabel\n" + "".join(
        f"{' '.join(c.turns)}\t{int(c.label == 'happy')}\n" for c in tweets),
        encoding="utf-8")
    words = toycorpus.FILLER[1:] + list(toycorpus.KEYWORDS.values())
    dataio.save_word_vectors(words, np.random.default_rng(26).uniform(-0.5, 0.5, (len(words), 8)),
                             tmp / "words.txt")
    config = tmp / "config.txt"
    config.write_text(CLI_CONFIG, encoding="utf-8")
    run("--out", tmp / "stats.tsv", "preprocess", "--train", splits["train"],
        "--val", splits["val"], "--test", splits["test"], "--out-dir", tmp / "data")
    run("--seed", 3, "--out", tmp / "finetune.tsv", "finetune",
        "--corpus", tmp / "tweets.tsv", "--embeddings-in", tmp / "words.txt",
        "--embeddings-out", tmp / "tuned.txt", "--epochs-frozen", 1,
        "--epochs-unfrozen", 1, "--lr", 0.01, "--batch-size", 16, "--dim", 8,
        "--filters", 4)
    run("--config", config, "--out", tmp / "run", "train", "--data-dir", tmp / "data",
        "--embeddings", tmp / "tuned.txt", "--sentence-vectors", tmp / "sv.tsv")
    run("--out", tmp / "evaluate.tsv", "evaluate", "--checkpoint", tmp / "run" / "model.ckpt",
        "--split", splits["test"], "--sentence-vectors", tmp / "sv.tsv")
    run("--config", config, "--out", tmp / "sweep.tsv", "sweep", "--train", splits["train"],
        "--val", splits["val"], "--axis", "hidden_size", "--values", "4,6",
        "--seeds", "0,1", "--embeddings", tmp / "tuned.txt",
        "--sentence-vectors", tmp / "sv.tsv", "--runs-dir", tmp / "runs")
    records = sorted((tmp / "runs").glob("*.json"))
    if len(records) != 4:
        raise RuntimeError(f"the 2 x 2 sweep left {len(records)} records")
    files = ["stats.tsv", "finetune.tsv", "tuned.txt", "run/model.ckpt", "run/history.tsv",
             "evaluate.tsv", "sweep.tsv"]
    digests = {name: _sha((tmp / name).read_bytes()) for name in files}
    digests["runs"] = _sha(b"".join(p.name.encode() + p.read_bytes() for p in records))
    return digests


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
    "classifier_hidden50_batch8": lambda tmp: _world_classifier(tmp, "best", 50, 5.0, 27),
    "cli_pipeline_gen_toy": _world_cli_pipeline,
}


def _run(worlds) -> dict[str, dict[str, str]]:
    """Run each world in its own temporary directory; world -> file -> digest."""
    _import_paths()
    out = {}
    for name, world in worlds.items():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = world(Path(tmp))
    return out


def compute() -> dict[str, dict[str, str]]:
    return _run(WORLDS)


def blas_key() -> str:
    """numpy's version and its OpenBLAS build and kernel, in this process."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return f"numpy {np.__version__}; {build}"


def compute_keyed() -> tuple[str, dict[str, dict[str, str]]]:
    """(numpy/BLAS key, digests) of the keyed worlds, run in a child process
    with every BLAS thread variable of ``perfbench/run.py`` set to 1."""
    env = dict(os.environ, **{var: "1" for var in _perfbench("run").THREAD_VARS})
    child = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--keyed-here"],
                           env=env, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"the keyed worlds failed:\n{child.stderr}")
    out = json.loads(child.stdout.splitlines()[-1])
    return out["key"], out["worlds"]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def recorded() -> dict[str, dict[str, str]]:
    return _golden()["worlds"]


def recorded_keyed(key: str) -> dict[str, dict[str, str]] | None:
    """The keyed worlds' digests recorded for ``key``, None if there are none."""
    return _golden().get("keyed", {}).get(key)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current digests in tests/golden.json")
    parser.add_argument("--keyed-here", action="store_true",
                        help="run only the keyed worlds, in this process, and print "
                             "their key and digests as one JSON line")
    args = parser.parse_args(argv)
    if args.keyed_here:
        print(json.dumps({"key": blas_key(), "worlds": _run(KEYED_WORLDS)}))
        return 0
    got = compute()
    key, got_keyed = compute_keyed()
    if args.write:
        keyed = _golden().get("keyed", {}) if GOLDEN.exists() else {}
        keyed[key] = got_keyed
        GOLDEN.write_text(json.dumps({"worlds": got, "keyed": keyed}, indent=2,
                                     sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, got.values())) + sum(map(len, got_keyed.values()))} "
              f"digests to {GOLDEN}, the keyed ones under {key!r}")
        return 0
    moved = differences(got, recorded())
    want_keyed = recorded_keyed(key)
    if want_keyed is None:
        print(f"no keyed digests recorded for {key!r}: the keyed worlds are not compared")
    else:
        moved += differences(got_keyed, want_keyed)
    print("\n".join(moved) if moved else "every digest matches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
