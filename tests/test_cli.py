"""End-to-end checks of the command-line interface.

Each test drives ``cli.main`` with real files in a temp directory, the way a
user would, and inspects the artifacts it leaves behind.
"""

import dataclasses
import os
import re
import shlex
import weakref
from pathlib import Path

import numpy as np
import pytest

import toycorpus
from emoconv import cli, dataio, metrics, rcnn, textprep
from emoconv import finetune as ft
from emoconv import train as tr
from emoconv.config import TrainConfig, load_config
from emoconv.finetune import FILTERS_PER_SIZE, FinetuneSchedule
from emoconv.sweep import DEFAULT_SEEDS
from emoconv.textprep import SPECIALS

CONFIG_TEXT = """\
lr = 0.02
batch_size = 4
epochs = 2
hidden_size = 4
num_layers = 1
sentence_dim = 3
embedding_dim = 6
dropout_bilstm = 0.0
dropout_linear = 0.0
freeze_embedding_epochs = 1
anneal_after_epoch = 99
seed = 5
"""


@pytest.fixture()
def world(tmp_path):
    train_split = toycorpus.make_split("train", 16, seed=1)
    val_split = toycorpus.make_split("val", 8, seed=2)
    toycorpus.write_split(train_split, tmp_path / "train.txt")
    toycorpus.write_split(val_split, tmp_path / "val.txt")
    store = toycorpus.store_for([train_split, val_split], dim=3, seed=3)
    toycorpus.write_sentence_tsv(store, tmp_path / "sv.tsv")
    dataio.save_sentence_vectors(store, tmp_path / "sv.bin")
    (tmp_path / "config.txt").write_text(CONFIG_TEXT)
    return tmp_path


def run_train(world, out_dir, extra=(), sentence_vectors=None):
    return cli.main(["--config", str(world / "config.txt"),
                     "--out", str(world / out_dir), *extra,
                     "train", "--train", str(world / "train.txt"),
                     "--val", str(world / "val.txt"),
                     "--sentence-vectors", sentence_vectors or str(world / "sv.bin")])


def test_preprocess_artifacts(world):
    rc = cli.main(["--out", str(world / "stats.tsv"), "preprocess",
                   "--train", str(world / "train.txt"), "--val", str(world / "val.txt")])
    assert rc == 0
    assert sorted(p.name for p in world.iterdir()) == [  # a report and no more
        "config.txt", "stats.tsv", "sv.bin", "sv.tsv", "train.txt", "val.txt"]
    vocab = toycorpus.vocab_for(dataio.load_dataset(world / "train.txt", "train"))
    assert vocab.id_to_token[:len(SPECIALS)] == list(SPECIALS)
    stats = (world / "stats.tsv").read_text().splitlines()
    assert stats[0].startswith("split\ttotal\thappy")
    assert stats[1].startswith("train\t16\t4\t4\t4\t4\t") and stats[1].endswith("\t16")
    assert stats[2].startswith("val\t8\t2\t2\t2\t2\t") and stats[2].endswith("\t8")
    assert stats[3] == f"vocab_size\t{vocab.size}"


def _count_texts(monkeypatch):
    """Count the texts the tokenizer core receives, through any caller."""
    core, texts = textprep._tokens, []

    def counted(chunk):
        texts.extend(chunk)
        return core(chunk)

    monkeypatch.setattr(textprep, "_tokens", counted)
    return texts


def test_preprocess_and_sweep_parse_each_conversation_once(world, monkeypatch):
    test_split = toycorpus.make_split("test", 6, seed=4)
    toycorpus.write_split(test_split, world / "test.txt")
    texts = _count_texts(monkeypatch)
    rc = cli.main(["--out", str(world / "stats.tsv"), "preprocess",
                   "--train", str(world / "train.txt"), "--val", str(world / "val.txt"),
                   "--test", str(world / "test.txt")])
    assert rc == 0
    conversations = 16 + 8 + 6
    assert len(texts) == 3 * conversations
    stats = (world / "stats.tsv").read_text().splitlines()
    turns = [len(textprep.tokenize(textprep.clean_text(t)))
             for c in test_split.conversations for t in c.turns]
    assert stats[3].split("\t")[-2] == f"{sum(turns) / len(turns):.2f}"

    texts.clear()
    assert run_train(world, "run") == 0
    assert len(texts) == 3 * (16 + 8)

    texts.clear()
    rc = cli.main(["--config", str(world / "config.txt"), "--out", str(world / "sweep.tsv"),
                   "sweep", "--train", str(world / "train.txt"), "--val", str(world / "val.txt"),
                   "--axis", "lr", "--values", "0.02,0.001", "--seeds", "0",
                   "--sentence-vectors", "none", "--runs-dir", str(world / "runs")])
    assert rc == 0
    assert len(texts) == 3 * (16 + 8)


def test_finetune_tokenizes_each_tweet_once(world, monkeypatch):
    lines = ["text\tlabel"] + [f"{'yay great' if i % 2 else 'sigh bad'} day {i}\t{i % 2}"
                               for i in range(20)]
    (world / "corpus.tsv").write_text("\n".join(lines) + "\n")
    toycorpus.write_word_vectors(["yay", "sigh"], np.ones((2, 6)), world / "vec_in.txt")
    texts = _count_texts(monkeypatch)
    rc = cli.main(["--out", str(world / "ft.tsv"), "finetune",
                   "--corpus", str(world / "corpus.tsv"),
                   "--embeddings-in", str(world / "vec_in.txt"),
                   "--embeddings-out", str(world / "vec_out.txt"),
                   "--epochs-frozen", "1", "--epochs-unfrozen", "1",
                   "--dim", "6", "--filters", "2", "--batch-size", "8"])
    assert rc == 0
    assert len(texts) == 20  # each tweet once, not once for the vocabulary and again to encode
    assert sorted(texts) == sorted(line.rpartition("\t")[0] for line in lines[1:])


def test_preprocess_rejects_malformed_file(world, capsys):
    bad = world / "bad.txt"
    bad.write_text("not\ta\tdataset\n")
    rc = cli.main(["preprocess", "--train", str(bad),
                   "--val", str(world / "val.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_then_evaluate(world, capsys):
    assert run_train(world, "run") == 0
    out = capsys.readouterr().out
    assert out.startswith(tr.HISTORY_HEADER)
    assert (world / "run" / "model.ckpt").exists()
    history = (world / "run" / "history.tsv").read_text()
    assert len(history.splitlines()) == 1 + 2  # header + one row per epoch

    rc = cli.main(["evaluate", "--checkpoint", str(world / "run" / "model.ckpt"),
                   "--split", str(world / "val.txt"),
                   "--sentence-vectors", str(world / "sv.bin")])
    assert rc == 0
    report = capsys.readouterr().out
    assert "micro_f1\t" in report
    assert "scored_classes\thappy,sad,angry" in report

    rc = cli.main(["evaluate", "--checkpoint", str(world / "run" / "model.ckpt"),
                   "--split", str(world / "val.txt"),
                   "--sentence-vectors", str(world / "sv.bin"),
                   "--score-others"])
    assert rc == 0
    assert "scored_classes\thappy,sad,angry,others" in capsys.readouterr().out


def test_train_keeps_only_the_vocabularys_word_vectors_and_frees_them_with_its_run(
        world, monkeypatch):
    """Of ``--embeddings`` only the vocabulary's vectors are read.  They are
    part of the run's ``RunData``, so they and the matrix that holds them
    live through training, and no longer than the command."""
    tokens = toycorpus.vocab_for(dataio.load_dataset(world / "train.txt", "train")).id_to_token
    words = tokens[len(SPECIALS):len(SPECIALS) + 3] + ["unused"]
    toycorpus.write_word_vectors(words, np.random.default_rng(0).normal(size=(4, 6)),
                                 world / "vec.txt")
    refs, alive = [], []
    load, train_encoded = cli.load_word_vectors, tr.train_encoded

    def loaded(*args, **kwargs):
        vectors = load(*args, **kwargs)
        refs.extend(weakref.ref(v) for v in vectors.values())
        refs.append(weakref.ref(next(iter(vectors.values())).base))
        return vectors

    def entered(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        return train_encoded(*args, **kwargs)

    monkeypatch.setattr(cli, "load_word_vectors", loaded)
    monkeypatch.setattr(tr, "train_encoded", entered)
    assert cli.main(["--config", str(world / "config.txt"), "--out", str(world / "run"),
                     "train", "--train", str(world / "train.txt"),
                     "--val", str(world / "val.txt"), "--embeddings", str(world / "vec.txt"),
                     "--sentence-vectors", str(world / "sv.bin")]) == 0
    assert len(refs) == 3 + 1 and alive == [3 + 1]
    assert [r() for r in refs] == [None] * (3 + 1)


def test_train_into_another_runs_directory_fails_before_its_first_step(world, capsys,
                                                                     monkeypatch):
    """``train --out DIR`` where DIR holds another run, of another seed or
    with ``--select last`` where it kept the best epoch, names the file and
    both keys and leaves DIR as it was, before a step is taken."""
    assert run_train(world, "run") == 0
    before = {p.name: p.read_bytes() for p in (world / "run").iterdir()}
    key = tr.read_run(world / "run" / "run.json")["key"]
    data = dataclasses.replace(  # what the run read: its splits and the examples' vectors
        tr.RunData.encode(dataio.load_dataset(world / "train.txt", "train"),
                          dataio.load_dataset(world / "val.txt", "val")),
        store=dataio.load_sentence_vectors(world / "sv.bin", 3))
    capsys.readouterr()
    monkeypatch.setattr(tr, "seeded_table", lambda *a: pytest.fail("a generator was seeded"))
    for seed, select in ((11, "best"), (5, "last")):  # the config's seed is 5
        argv = ["--config", str(world / "config.txt"), "--out", str(world / "run"),
                "--seed", str(seed), "train", "--train", str(world / "train.txt"),
                "--val", str(world / "val.txt"), "--sentence-vectors", str(world / "sv.bin"),
                "--select", select]
        assert cli.main(argv) == 1
        other = tr.run_key(load_config(world / "config.txt").replace(seed=seed), data)
        assert (other == key) == (seed == 5)
        assert capsys.readouterr().err == (
            f"error: {world / 'run' / 'run.json'} holds the run {key} (select best), "
            f"not {other} (select {select})\n")
        assert {p.name: p.read_bytes() for p in (world / "run").iterdir()} == before


def test_a_second_train_into_its_run_directory_trains_nothing(world, capsys, monkeypatch):
    """The same run into the same directory again takes no step, changes no
    file and prints the history as the first run printed it."""
    assert run_train(world, "run") == 0
    first = capsys.readouterr().out
    before = {p.name: p.read_bytes() for p in (world / "run").iterdir()}
    assert sorted(before) == ["history.tsv", "model.ckpt", "run.json"]
    monkeypatch.setattr(tr, "seeded_table", lambda *a: pytest.fail("a generator was seeded"))
    assert run_train(world, "run") == 0
    assert capsys.readouterr().out == first == before["history.tsv"].decode()
    assert {p.name: p.read_bytes() for p in (world / "run").iterdir()} == before


def test_train_runs_are_bit_identical(world):
    assert run_train(world, "a") == 0
    assert run_train(world, "b") == 0
    assert ((world / "a" / "model.ckpt").read_bytes()
            == (world / "b" / "model.ckpt").read_bytes())
    assert ((world / "a" / "history.tsv").read_text()
            == (world / "b" / "history.tsv").read_text())


def test_seed_flag_overrides_config(world):
    assert run_train(world, "a") == 0
    assert run_train(world, "c", extra=("--seed", "11")) == 0
    assert ((world / "a" / "model.ckpt").read_bytes()
            != (world / "c" / "model.ckpt").read_bytes())


def test_sentence_vector_ablation(world):
    assert run_train(world, "ablate", sentence_vectors="none") == 0
    ckpt = dataio.load_checkpoint(world / "ablate" / "model.ckpt")
    assert ckpt.config.sentence_dim == 0


def test_preprocess_converts_sentence_vectors_that_train_and_evaluate_read_alike(world):
    """``train`` and ``evaluate`` on the file ``preprocess --sentence-vectors``
    converts give the checkpoint and report of ``train.run`` and
    ``train.evaluate`` over the TSV's whole load."""
    assert cli.main(["--config", str(world / "config.txt"), "--out", str(world / "stats.tsv"),
                     "preprocess", "--train", str(world / "train.txt"),
                     "--val", str(world / "val.txt"), "--sentence-vectors",
                     str(world / "sv.tsv"), str(world / "converted.bin")]) == 0
    assert (world / "converted.bin").read_bytes().startswith(dataio.SENTENCE_VECTORS_MAGIC)
    assert run_train(world, "bin", sentence_vectors=str(world / "converted.bin")) == 0
    assert cli.main(["--out", str(world / "eval.tsv"), "evaluate", "--checkpoint",
                     str(world / "bin" / "model.ckpt"), "--split", str(world / "val.txt"),
                     "--sentence-vectors", str(world / "converted.bin")]) == 0

    config = load_config(world / "config.txt")
    store = dataio.load_sentence_vectors(world / "sv.tsv", config.sentence_dim)
    data = tr.RunData.encode(dataio.load_dataset(world / "train.txt", "train"),
                             dataio.load_dataset(world / "val.txt", "val"))
    ckpt, _ = tr.run(config, dataclasses.replace(data, store=store))
    dataio.save_checkpoint(ckpt, world / "direct.ckpt")
    assert (world / "bin" / "model.ckpt").read_bytes() == (world / "direct.ckpt").read_bytes()
    params = rcnn.restore(ckpt.config, ckpt.params)
    cm, _ = tr.evaluate(params, tr.encode_split(dataio.load_dataset(world / "val.txt", "test"),
                                                ckpt.vocab), store, config.batch_size)
    assert (world / "eval.tsv").read_text(encoding="utf-8") == metrics.format_report(
        cm, metrics.SCORED_CLASSES)


def _run_argv(world, command, sentence_vectors):
    """The arguments of a ``train``, ``sweep`` or ``evaluate`` run on the world."""
    splits = ["--train", world / "train.txt", "--val", world / "val.txt"]
    argv = {"train": ["--out", world / "out", "train", *splits],
            "sweep": ["--out", world / "sweep.tsv", "sweep", *splits, "--axis", "lr",
                      "--values", "0.02", "--seeds", "0", "--runs-dir", world / "runs"],
            "evaluate": ["--out", world / "eval.tsv", "evaluate", "--checkpoint",
                         world / "run" / "model.ckpt", "--split", world / "val.txt"]}[command]
    return list(map(str, ["--config", world / "config.txt", *argv,
                          "--sentence-vectors", sentence_vectors]))


@pytest.mark.parametrize("command", ["train", "sweep", "evaluate"])
def test_a_run_refuses_the_sentence_vector_tsv_before_parsing_a_value(
        world, capsys, monkeypatch, command):
    """A run reads the converted file alone: given the TSV, each run command
    fails with one message naming the file and the conversion, parses no
    value and writes no run directory (of train or of a sweep cell) or report."""
    assert run_train(world, "run") == 0  # the checkpoint evaluate scores
    before = sorted(world.rglob("*"))
    capsys.readouterr()
    monkeypatch.setattr(dataio, "_vector", lambda *a: pytest.fail("a value was parsed"))
    tsv = world / "sv.tsv"
    assert cli.main(_run_argv(world, command, tsv)) == 1
    assert capsys.readouterr().err == (
        f"error: {tsv}: a run reads converted sentence vectors, not a TSV; convert it once "
        "with `emoconv preprocess --sentence-vectors TSV OUT`\n")
    assert sorted(world.rglob("*")) == before


def test_a_sentence_vector_width_conflict_names_both_widths(world, capsys):
    """A ``--config`` with ``sentence_dim = 0`` given vectors to train on, and a
    checkpoint trained without vectors given some to evaluate with, name the
    file's width and the model's, not a bad line."""
    (world / "nodim.txt").write_text(CONFIG_TEXT.replace("sentence_dim = 3", "sentence_dim = 0"))
    assert run_train(world, "ablate", sentence_vectors="none") == 0
    capsys.readouterr()
    path = world / "sv.bin"
    want = f"{path}: the file's sentence vectors are 3-d, but the model's sentence_dim is 0"
    assert cli.main(["--config", str(world / "nodim.txt"), "--out", str(world / "x"),
                     "train", "--train", str(world / "train.txt"),
                     "--val", str(world / "val.txt"), "--sentence-vectors", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"
    assert cli.main(["evaluate", "--checkpoint", str(world / "ablate" / "model.ckpt"),
                     "--split", str(world / "val.txt"), "--sentence-vectors", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


def test_evaluate_demands_sentence_vectors_when_fused(world, capsys):
    assert run_train(world, "run") == 0
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", str(world / "run" / "model.ckpt"),
                   "--split", str(world / "val.txt")])
    assert rc == 1
    assert "sentence" in capsys.readouterr().err


def test_evaluate_names_the_first_unlabeled_example(world, capsys):
    assert run_train(world, "run") == 0
    split = toycorpus.make_split("val", 8, seed=2)
    toycorpus.write_split(split, world / "unlabeled.txt", labeled=False)
    capsys.readouterr()
    rc = cli.main(["evaluate", "--checkpoint", str(world / "run" / "model.ckpt"),
                   "--split", str(world / "unlabeled.txt"),
                   "--sentence-vectors", str(world / "sv.bin")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "labels" in err and split.conversations[0].id in err


def _finetune_inputs(world):
    lines = ["text\tlabel"]
    for i in range(8):
        lines.append(f"yay great fun {i}\t1")
        lines.append(f"sigh bad day {i}\t0")
    (world / "corpus.tsv").write_text("\n".join(lines) + "\n")
    rng = np.random.default_rng(0)
    toycorpus.write_word_vectors(["yay", "sigh", "day"],
                                 rng.normal(size=(3, 6)), world / "vec_in.txt")


def run_finetune(world, out, extra=()):
    return cli.main([*extra, "--out", str(world / f"{out}.tsv"), "finetune",
                     "--corpus", str(world / "corpus.tsv"),
                     "--embeddings-in", str(world / "vec_in.txt"),
                     "--embeddings-out", str(world / f"{out}.txt"),
                     "--epochs-frozen", "1", "--epochs-unfrozen", "1",
                     "--dim", "6", "--filters", "4", "--lr", "0.01"])


def test_finetune_writes_usable_vectors(world):
    _finetune_inputs(world)
    assert run_finetune(world, "ft") == 0
    vectors = dataio.load_word_vectors(world / "ft.txt", 6)
    assert {"yay", "sigh", "great"} <= set(vectors)
    report = (world / "ft.tsv").read_text().splitlines()
    assert report[0] == "epoch\tloss" and len(report) == 3


def test_finetune_keeps_the_input_vectors_of_words_the_corpus_lacks(world):
    """``--embeddings-out`` holds the corpus vocabulary's tuned vectors, then
    each other token of ``--embeddings-in`` once, in file order, as its first
    line gave it, and not the word2vec header."""
    (world / "corpus.tsv").write_text("text\tlabel\nyay great\t1\nsigh bad\t0\n")
    rows = np.random.default_rng(0).normal(size=(5, 6))
    yay, unseen, sigh, again, other = (" ".join(map(repr, row.tolist())) for row in rows)
    kept = [f"unseen {unseen}", f"other\t{other.replace(' ', chr(9))}"]
    (world / "vec_in.txt").write_text("\n".join(
        ["5 6", f"yay {yay}", kept[0], f"sigh {sigh}", "", f"unseen {again}", kept[1]]) + "\n")
    assert run_finetune(world, "ft") == 0
    lines = (world / "ft.txt").read_text().splitlines()
    assert sorted(line.split()[0] for line in lines[:4]) == ["bad", "great", "sigh", "yay"]
    assert lines[4:] == kept
    vectors = dataio.load_word_vectors(world / "ft.txt", 6)
    assert vectors["unseen"].tobytes() == rows[1].tobytes()
    assert vectors["other"].tobytes() == rows[4].tobytes()


def test_finetune_refuses_a_pipe_for_the_vectors_it_reads_twice(world, capsys):
    fifo = world / "fifo"
    os.mkfifo(fifo)
    rc = cli.main(["finetune", "--corpus", str(world / "missing.tsv"),
                   "--embeddings-in", str(fifo), "--embeddings-out", str(world / "out.txt")])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {fifo}: not a regular file; it is read again, "
                                       "after tuning, for the vectors the corpus lacks\n")
    assert not (world / "out.txt").exists()


def test_the_finetune_command_is_the_finetune_run_at_its_seed(world):
    """``emoconv finetune --seed S`` writes the vectors and reports the
    losses of ``finetune.run`` at seed S on the same corpus and vectors."""
    _finetune_inputs(world)
    corpus = ft.load_finetune_corpus(world / "corpus.tsv")
    rows = list(textprep.token_rows((text for text, _ in corpus), 1))
    vocab = textprep.build_vocab(map(textprep.TokenSequence, rows))
    encoded = ft.encode_corpus(corpus, vocab, rows)
    schedule = FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01, dim=6,
                                filters_per_size=4)
    for seed in (0, 7):
        assert run_finetune(world, f"cli{seed}", extra=("--seed", str(seed))) == 0
        pretrained = dataio.load_word_vectors(world / "vec_in.txt", 6, keep=vocab.token_to_id)
        model, losses = ft.run(schedule, seed, encoded, vocab, pretrained)
        dataio.save_word_vectors(vocab.id_to_token[len(SPECIALS):],
                                 model.emb.table.values[len(SPECIALS):], world / "run.txt",
                                 world / "vec_in.txt")
        assert (world / f"cli{seed}.txt").read_bytes() == (world / "run.txt").read_bytes()
        assert (world / f"cli{seed}.tsv").read_text() == "epoch\tloss\n" + "".join(
            f"{epoch}\t{loss!r}\n" for epoch, loss in enumerate(losses, start=1))
    assert (world / "cli0.txt").read_bytes() != (world / "cli7.txt").read_bytes()


@pytest.mark.parametrize("flags, message", [
    (("--epochs-unfrozen", "-5"), "unfrozen_epochs must be >= 0, got -5"),
    (("--epochs-frozen", "-1"), "frozen_epochs must be >= 0, got -1"),
    (("--epochs-frozen", "0", "--epochs-unfrozen", "0"),
     "frozen_epochs + unfrozen_epochs must be >= 1, got 0"),
    (("--lr", "nan"), "lr must be finite and > 0, got nan"),
    (("--lr", "-0.1"), "lr must be finite and > 0, got -0.1"),
    (("--batch-size", "0"), "batch_size must be >= 1, got 0"),
    (("--filters", "0"), "filters_per_size must be >= 1, got 0"),
    (("--dim", "0"), "dim must be >= 1, got 0"),
])
def test_finetune_rejects_a_schedule_that_cannot_train_before_reading(
        world, capsys, flags, message):
    """The inputs do not exist: each fault is named before any file is read."""
    rc = cli.main(["--out", str(world / "ft.tsv"), "finetune",
                   "--corpus", str(world / "missing.tsv"),
                   "--embeddings-in", str(world / "missing.txt"),
                   "--embeddings-out", str(world / "out.txt"), *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (world / "out.txt").exists() and not (world / "ft.tsv").exists()


def test_sweep_report_and_records(world):
    rc = cli.main(["--config", str(world / "config.txt"),
                   "--out", str(world / "sweep.tsv"),
                   "sweep", "--train", str(world / "train.txt"),
                   "--val", str(world / "val.txt"),
                   "--axis", "lr", "--values", "0.02,0.001", "--seeds", "0,1",
                   "--sentence-vectors", "none",
                   "--runs-dir", str(world / "runs")])
    assert rc == 0
    report = (world / "sweep.tsv").read_text().splitlines()
    assert report[0].startswith("axis\tvalue")
    assert len(report) == 3
    assert len(list((world / "runs").glob("*/run.json"))) == 4


def test_a_sweep_cell_is_the_train_run_at_its_seed(world):
    """Each cell of a sweep with ``--embeddings`` is the run directory of
    ``emoconv train`` at its seed, byte for byte, and records its best val
    micro-F1 and final training loss; a cell that lost the word vectors the
    sweep shares would draw its table at random."""
    tokens = toycorpus.vocab_for(dataio.load_dataset(world / "train.txt", "train")).id_to_token
    words = tokens[len(SPECIALS):]
    toycorpus.write_word_vectors(words, np.random.default_rng(0).normal(size=(len(words), 6)),
                                 world / "vec.txt")
    splits = ("--train", str(world / "train.txt"), "--val", str(world / "val.txt"),
              "--embeddings", str(world / "vec.txt"), "--sentence-vectors", str(world / "sv.bin"))
    assert cli.main(["--config", str(world / "config.txt"), "--out", str(world / "sweep.tsv"),
                     "sweep", *splits, "--axis", "lr", "--values", "0.02", "--seeds", "0,1",
                     "--runs-dir", str(world / "runs")]) == 0
    cells = {tr.read_run(path)["config"]["seed"]: path.parent
             for path in (world / "runs").glob("*/run.json")}
    assert sorted(cells) == [0, 1]
    for seed, cell in cells.items():
        out = world / f"train{seed}"
        assert cli.main(["--config", str(world / "config.txt"), "--seed", str(seed),
                         "--out", str(out), "train", *splits]) == 0
        for name in ("model.ckpt", "history.tsv", "run.json"):
            assert (cell / name).read_bytes() == (out / name).read_bytes()
        assert tr.read_run(out / "run.json")["key"] == cell.name
        final_loss = float((out / "history.tsv").read_text().splitlines()[-1].split("\t")[2])
        ckpt = dataio.load_checkpoint(out / "model.ckpt")
        history = tr.read_history(cell / "history.tsv")
        record = (max(row.val_micro_f1 for row in history), history[-1].train_loss)
        assert record == (ckpt.best_val_f1, final_loss)


def test_a_negative_seed_flag_names_the_field(world, capsys):
    assert run_train(world, "run", extra=("--seed", "-1")) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    rc = cli.main(["--seed", "-1", "finetune", "--corpus", str(world / "corpus.tsv"),
                   "--embeddings-in", str(world / "vec_in.txt"),
                   "--embeddings-out", str(world / "vec_out.txt")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_flag_defaults_come_from_the_code_they_set():
    parser = cli.build_parser()
    ft_args = parser.parse_args(["finetune", "--corpus", "c", "--embeddings-in", "i",
                                 "--embeddings-out", "o"])
    schedule = FinetuneSchedule()
    assert (ft_args.epochs_frozen, ft_args.epochs_unfrozen, ft_args.lr, ft_args.batch_size) \
        == (schedule.frozen_epochs, schedule.unfrozen_epochs, schedule.lr, schedule.batch_size)
    assert (ft_args.dim, ft_args.filters) == (schedule.dim, schedule.filters_per_size) \
        == (TrainConfig().embedding_dim, FILTERS_PER_SIZE)
    sweep = ["sweep", "--train", "t", "--val", "v", "--axis", "lr", "--values", "0.1"]
    sweep_args = parser.parse_args([*sweep, "--sentence-vectors", "none"])
    with pytest.raises(SystemExit):  # no default: a sweep never runs the ablation unasked
        parser.parse_args(sweep)
    assert [int(s) for s in sweep_args.seeds.split(",")] == list(DEFAULT_SEEDS)


def test_errors_exit_nonzero(world, capsys):
    rc = cli.main(["train", "--train", str(world / "nowhere.txt"),
                   "--val", str(world / "val.txt"), "--sentence-vectors", "none"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # a sweep's values are checked before any file is read
    rc = cli.main(["sweep", "--train", str(world / "nowhere.txt"), "--val", str(world / "val.txt"),
                   "--axis", "lr", "--values", "0.1,x", "--sentence-vectors", "none"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot parse --values '0.1,x'")
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])


@pytest.mark.parametrize("axis, values, message", [
    ("lr", "0.02,-1", "lr must be positive, got -1.0"),
    ("hidden_size", "4,0", "hidden_size must be >= 1, got 0")])
def test_a_sweep_value_no_config_takes_fails_before_a_file_is_read(
        world, capsys, monkeypatch, axis, values, message):
    """Such a value failed only when its cells came up, after every file was
    read and the values before it had trained."""
    monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("a file was read"))
    rc = cli.main(["--config", str(world / "config.txt"), "sweep",
                   "--train", str(world / "train.txt"), "--val", str(world / "val.txt"),
                   "--axis", axis, "--values", values, "--seeds", "0",
                   "--sentence-vectors", "none", "--runs-dir", str(world / "runs")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (world / "runs").exists()


def test_readme_commands_parse():
    """Every ``emoconv`` command of the README's "Command line" block parses
    with the program's own parser (nothing is run)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("emoconv ")]
    assert len(commands) == 5
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])  # a flag it does not know exits
        assert args.func is getattr(cli, f"cmd_{args.command}")
