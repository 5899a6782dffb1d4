"""Self-test of the benchmark at toy size; the whole file runs in seconds.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run("--toy", "--workload", workload, "--seed", "1",
               "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "eval_paper", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    names = ("train.txt", "val.txt", "test.txt", "words.txt", "sentvec.tsv",
             "finetune.tsv", "model.ckpt", "inputs.json")
    for d, seed in (("a", 4), ("b", 4), ("c", 5)):
        gen.generate(tmp_path / d, seed, gen.TOY)
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "train.txt").read_bytes() != (tmp_path / "c" / "train.txt").read_bytes()


def test_generated_lengths_are_what_the_program_tokenizes(tmp_path):
    from emoconv import dataio, textprep
    from emoconv import finetune as ft
    from emoconv import train as tr

    manifest = gen.generate(tmp_path, 2, gen.TOY)
    props = manifest["properties"]["train_paper"]
    split = dataio.load_dataset(tmp_path / "train.txt", "train")
    vocab = textprep.build_vocab([textprep.assemble_input(c.turns)
                                  for c in split.conversations])
    encoded = tr.encode_split(split, vocab)
    assert len(encoded) == props["corpus_train"]["examples"]  # none over the cap
    assert vocab.size == props["vocabulary_size"]
    assert sum(ex.n for ex in encoded) == props["corpus_train"]["tokens"]
    test = tr.encode_split(dataio.load_dataset(tmp_path / "test.txt", "test"), vocab)
    lengths = {ex.id: ex.n for ex in test}
    eval_ids = [i for batch in manifest["eval_batches"] for i in batch]
    assert sum(lengths[i] for i in eval_ids) == manifest["properties"]["eval_paper"]["tokens"]
    corpus = ft.load_finetune_corpus(tmp_path / "finetune.tsv")
    tweets = textprep.build_vocab([textprep.TokenSequence(textprep.tokenize(
        textprep.clean_text(text))) for text, _ in corpus])
    assert tweets.size == manifest["properties"]["finetune_cnn"]["vocabulary_size"]


def test_generated_checkpoint_carries_the_default_train_config():
    from emoconv.config import TrainConfig

    assert gen.TRAIN_CONFIG_DEFAULTS == TrainConfig().to_dict()
