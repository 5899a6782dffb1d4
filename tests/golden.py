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
  benchmark builds it, and ``finetune.encode_corpus`` of that corpus.

Text preparation runs no BLAS, so these digests do not depend on the numpy
build and carry no numpy/BLAS key.  Worlds that train would need one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
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


def perfbench_gen():
    """``perfbench/gen.py``, the benchmark's input generator, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


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


def _world_finetune_encoding(tmp: Path) -> dict[str, str]:
    from emoconv import finetune as ft
    from emoconv.textprep import TokenSequence, build_vocab, clean_text, tokenize

    gen = perfbench_gen()
    gen.generate(tmp, GEN_SEED, gen.TOY)
    corpus = ft.load_finetune_corpus(tmp / "finetune.tsv")
    vocab = build_vocab([TokenSequence(tokenize(clean_text(text))) for text, _ in corpus])
    encoded = ft.encode_corpus(corpus, vocab)
    blob = b"".join(ids.dtype.str.encode() + ids.tobytes() + bytes([label])
                    for ids, label in encoded)
    return {"vocab": _sha("\n".join(vocab.id_to_token).encode("utf-8")),
            "encoded": _sha(blob)}


WORLDS = {
    "preprocess_toycorpus": _world_toycorpus,
    "preprocess_gen_toy": _world_gen_toy,
    "finetune_encoding_gen_toy": _world_finetune_encoding,
}


def compute() -> dict[str, dict[str, str]]:
    """Run every world in its own temporary directory; world -> file -> digest."""
    _import_paths()
    out = {}
    for name, world in WORLDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = world(Path(tmp))
    return out


def recorded() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["worlds"]


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
    args = parser.parse_args(argv)
    got = compute()
    if args.write:
        GOLDEN.write_text(json.dumps({"worlds": got}, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {sum(map(len, got.values()))} digests to {GOLDEN}")
        return 0
    moved = differences(got, recorded())
    print("\n".join(moved) if moved else "every digest matches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
