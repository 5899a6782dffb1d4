"""Paper-scale input costs of two checkouts, measured in fresh processes.

    python tests/paper_inputs.py PARENT CHANGE --out BENCH_23.json [--tmp DIR]

The script first checks that the temporary directory's disk has room, then
writes paper-scale inputs there and removes them when it ends:

- train and val TSVs of 30,160 and 2,755 conversations whose tokens are
  drawn from a 15,000-word vocabulary;
- 2304-d sentence vectors for 38,424 ids (train, val and the 5,509 test
  ids of the paper's split) as a TSV, the matrix being 708 MB of float64;
- a 400,000-line 100-d word-vector file whose words cover that vocabulary.

PARENT and CHANGE are two checkouts of the repository.  Each measurement
runs the checkout's ``src`` in a new Python process with one BLAS thread and
reports the process's CPU seconds (user + system) and its peak RSS
(``VmHWM``; ``ru_maxrss`` would carry the spawning process's peak across
``exec``):

- ``convert``: ``emoconv preprocess --sentence-vectors TSV OUT``, the
  one-time conversion (recorded as unsupported where the flag is missing);
- ``first_step``: ``emoconv train`` with the default config, from start to
  its first training step (``rcnn.forward`` stops the process), once on
  the TSV and once on the converted file where there is one (recorded as
  unsupported where the run refuses the TSV and names the conversion);
- ``word_vectors``: the RSS that ``load_word_vectors`` adds once the
  vocabulary is built, with the vocabulary as its keep set where the
  function takes one;
- ``sentence_vectors``: the peak RSS of ``load_sentence_vectors`` over the
  RSS before it, from the TSV and from the converted file, against the
  matrix's own size.

The results go under ``paper_inputs`` in the ``--out`` JSON file, whose
other keys (the benchmark pairs of ``tests/bench_pairs.py``) are kept.
``--scale`` shrinks every count, for a quick check of the script itself.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
TRAIN, VAL, TEST = 30_160, 2_755, 5_509
VOCAB, WORD_LINES = 15_000, 400_000
SENTENCE_DIM, EMBEDDING_DIM = 2304, 100
TOKENS_PER_TURN = 5
LABELS = ("happy", "sad", "angry", "others")

# Runs in the child process: argv is (kind, *paths).  Prints one JSON line.
PROBE = r"""
import gc, inspect, json, resource, sys

def usage():
    # VmHWM is this process image's peak; ru_maxrss would keep the parent's across exec
    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": hwm / 1024}

def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20

kind, paths = sys.argv[1], sys.argv[2:]
from emoconv import cli, dataio, rcnn, textprep
from emoconv import train as tr

if kind == "first_step":
    train, val, words, vectors, out = paths
    def stop(*args, **kwargs):
        print(json.dumps(usage()))
        sys.stdout.flush()
        raise SystemExit(0)
    rcnn.forward = stop
    rc = cli.main(["--out", out, "train", "--train", train, "--val", val,
                   "--embeddings", words, "--sentence-vectors", vectors])
    raise SystemExit(f"train ended with {rc} before its first step")
if kind == "convert":
    train, val, tsv, out = paths
    rc = cli.main(["--out", out + ".stats", "preprocess", "--train", train, "--val", val,
                   "--sentence-vectors", tsv, out])
    print(json.dumps({**usage(), "rc": rc}))
elif kind == "word_vectors":
    train, words = paths
    rows = list(tr.split_rows(dataio.load_dataset(train, "train")))
    vocab = textprep.build_vocab(map(textprep.TokenSequence, rows))
    del rows
    gc.collect()
    keep = "keep" in inspect.signature(dataio.load_word_vectors).parameters
    before, cpu = rss_mb(), usage()["cpu_s"]
    vecs = dataio.load_word_vectors(words, 100, **({"keep": vocab.token_to_id} if keep else {}))
    after = usage()
    print(json.dumps({"keep_set": keep, "vectors": len(vecs), "cpu_s": after["cpu_s"] - cpu,
                      "added_peak_rss_mb": after["peak_rss_mb"] - before,
                      "added_held_rss_mb": rss_mb() - before}))
elif kind == "sentence_vectors":
    (path,) = paths
    before, cpu = rss_mb(), usage()["cpu_s"]
    store = dataio.load_sentence_vectors(path, 2304)
    after = usage()
    n = len(getattr(store, "row", None) or getattr(store, "vectors", {}))
    matrix_mb = n * 2304 * 8 / 2**20
    added = after["peak_rss_mb"] - before
    print(json.dumps({"ids": n, "cpu_s": after["cpu_s"] - cpu, "rss_before_mb": before,
                      "peak_rss_mb": after["peak_rss_mb"], "added_peak_rss_mb": added,
                      "matrix_mb": matrix_mb, "added_peak_over_matrix": added / matrix_mb}))
"""


def sizes(scale: float) -> dict:
    def n(count):
        return max(4, round(count * scale))
    return {"train": n(TRAIN), "val": n(VAL), "test": n(TEST), "vocab": n(VOCAB),
            "word_lines": max(n(WORD_LINES), n(VOCAB))}


def needed_bytes(size: dict) -> int:
    """A generous bound on what the inputs and the converted file take."""
    ids = size["train"] + size["val"] + size["test"]
    return ids * SENTENCE_DIM * (11 + 8) + size["word_lines"] * EMBEDDING_DIM * 11 + 2**28


def write_inputs(out: Path, size: dict, seed: int) -> dict[str, Path]:
    rng = np.random.default_rng(seed)
    words = [f"w{i:06d}" for i in range(size["word_lines"])]
    vocab = [words[i] for i in rng.choice(len(words), size["vocab"], replace=False)]
    paths = {"train": out / "train.tsv", "val": out / "val.tsv"}
    ids = []
    for split in ("train", "val"):
        with open(paths[split], "w", encoding="utf-8") as fh:
            fh.write("id\tturn1\tturn2\tturn3\tlabel\n")
            picks = rng.integers(0, len(vocab), (size[split], 3, TOKENS_PER_TURN))
            labels = rng.integers(0, len(LABELS), size[split])
            # every class occurs in every split, so the class weights exist
            labels[:len(LABELS)] = np.arange(len(LABELS))
            for k, (turns, label) in enumerate(zip(picks, labels)):
                ids.append(f"{split}{k:05d}")
                fh.write(ids[-1] + "\t" + "\t".join(" ".join(vocab[i] for i in turn)
                                                    for turn in turns)
                         + f"\t{LABELS[label]}\n")
    ids += [f"test{k:05d}" for k in range(size["test"])]
    fmt = " ".join(["%.6f"] * SENTENCE_DIM)
    paths["sentence_tsv"] = out / "sentvec.tsv"
    with open(paths["sentence_tsv"], "w", encoding="utf-8") as fh:
        for start in range(0, len(ids), 1024):
            block = rng.uniform(-1, 1, (min(1024, len(ids) - start), SENTENCE_DIM))
            fh.writelines(i + "\t" + fmt % tuple(row) + "\n"
                          for i, row in zip(ids[start:], block.tolist()))
    fmt = " ".join(["%.5f"] * EMBEDDING_DIM)
    paths["words"] = out / "words.txt"
    with open(paths["words"], "w", encoding="utf-8") as fh:
        for start in range(0, len(words), 8192):
            block = rng.normal(0.0, 0.4, (min(8192, len(words) - start), EMBEDDING_DIM))
            fh.writelines(w + " " + fmt % tuple(row) + "\n"
                          for w, row in zip(words[start:], block.tolist()))
    return paths


def probe(checkout: Path, kind: str, *paths) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", PROBE, kind, *map(str, paths)], env=env,
                          capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def measure(checkout: Path, paths: dict[str, Path], work: Path) -> dict:
    converted = work / "sentvec.bin"
    result = {"convert": probe(checkout, "convert", paths["train"], paths["val"],
                               paths["sentence_tsv"], converted)}
    formats = {"tsv": paths["sentence_tsv"]}
    if result["convert"].get("rc") == 0 and converted.exists():
        formats["converted"] = converted
    else:
        result["convert"] = {"unsupported": result["convert"]}
    result["first_step"] = {name: probe(checkout, "first_step", paths["train"], paths["val"],
                                        paths["words"], path, work / "run")
                            for name, path in formats.items()}
    for name, run in result["first_step"].items():
        if "preprocess --sentence-vectors" in run.get("error", ""):  # the TSV is refused
            result["first_step"][name] = {"unsupported": run}
    result["word_vectors"] = probe(checkout, "word_vectors", paths["train"], paths["words"])
    result["sentence_vectors"] = {name: probe(checkout, "sentence_vectors", path)
                                  for name, path in formats.items()}
    converted.unlink(missing_ok=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    parser.add_argument("--tmp", default=None, help="where the temporary directory goes")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)
    size = sizes(args.scale)
    base = Path(args.tmp or tempfile.gettempdir())
    free, need = shutil.disk_usage(base).free, needed_bytes(size)
    if free < need:
        raise SystemExit(f"{base} has {free / 1e9:.1f} GB free; the inputs need about "
                         f"{need / 1e9:.1f} GB")
    work = Path(tempfile.mkdtemp(prefix="paper_inputs_", dir=base))
    try:
        paths = write_inputs(work, size, args.seed)
        record = {"sizes": size, "seed": args.seed, "python": platform.python_version(),
                  "numpy": np.__version__, "cpus": os.cpu_count(),
                  "input_mb": {k: p.stat().st_size / 2**20 for k, p in paths.items()}}
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            record[side] = measure(checkout.resolve(), paths, work)
            print(side, json.dumps(record[side]), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # per format, the parent's first step over the change's on the same file
    speedup = {}
    for name, run in record["change"]["first_step"].items():
        parent = record["parent"]["first_step"].get(name, {}).get("cpu_s")
        if parent and run.get("cpu_s"):
            speedup[name] = parent / run["cpu_s"]
    if speedup:
        record["first_step_speedup"] = speedup
    existing = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    existing["paper_inputs"] = record
    args.out.write_text(json.dumps(existing, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: record.get(k) for k in ("sizes", "first_step_speedup")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
