"""Seeded fuzz over every line format the program reads from outside.

Each of the eight formats (dataset TSV, word vectors, sentence vectors,
fine-tuning corpus, config file, and a run directory's ``history.tsv``,
``losses.tsv`` and ``run.json``) starts from a valid file.
The file is then truncated, has bytes flipped, has a byte that is not
UTF-8 put into one line, has a number swapped for a non-number, ``nan`` or
``inf``, or has a line repeated.  Every case must
either load or raise a ValueError of one of the two forms ``FILE line N:``
(a fault on a line) and ``FILE:`` (a fault of the whole file).  Where the
fault is known to sit on one line, that line must be the one named.
"""

import json
import re
import zlib

import numpy as np
import pytest

from emoconv import dataio as dio
from emoconv import train as tr
from emoconv.config import TrainConfig, load_config
from emoconv.finetune import format_losses, load_finetune_corpus, read_losses

HISTORY = tr.format_history([tr.HistoryRow(1, 0.0005, 1.2345678901234567, 0.5, 0.25),
                             tr.HistoryRow(2, 1e-4, 0.9, 0.6153846153846154, 0.0)])
RUN = json.dumps({"config": TrainConfig().to_dict(), "key": "0123abcd" * 2 + "_" + "9876fedc" * 2,
                  "select": "best"}, sort_keys=True) + "\n"

# name -> (valid text, loader, first data line, whether a repeated line is a fault)
FORMATS = {
    "dataset": ("id\tturn1\tturn2\tturn3\tlabel\n"
                "c1\thi there\thello\twhy not 2\thappy\n"
                "c2\tugh\tso bad\tterrible\tangry\n"
                "c3\tok 10\tfine\tsure\tothers\n",
                lambda p: dio.load_dataset(p, "train"), 2, True),
    "word_vectors": ("3 3\nhi 0.1 0.2 0.3\nthere -1 2 3.5\nyay 1e-3 0 7\n",
                     lambda p: dio.load_word_vectors(p, 3), 2, False),
    "sentence_vectors": ("c1\t0.1 0.2 0.3\nc2\t1 2 3\nc3\t-0.5 0 1e2\n",
                         lambda p: dio.load_sentence_vectors(p, 3), 1, True),
    "finetune_corpus": ("text\tlabel\nyay so good 2\t1\nugh bad\t0\nmeh\t1\n",
                        load_finetune_corpus, 2, False),
    "config": ("# comment\nlr = 0.001\nhidden_size = 8\nclip_norm = 2.5  # inline\n"
               "projection_tanh = true\n", load_config, 2, False),
    "train_history": (HISTORY, tr.read_history, 2, True),
    "finetune_losses": (format_losses([0.6931471805599453, 0.25, 1e-3]), read_losses, 2, True),
    "train_run": (RUN, tr.read_run, 1, True),
}

NUMBER = re.compile(rb"(?<![\w.])-?\d+(\.\d+)?(e-?\d+)?(?![\w.])")
SWAPS = (b"x", b"nan", b"inf", b"-inf", b"1e999", b"")


def _outcome(load, path, line=None):
    """None when ``path`` loads; otherwise the message, which must name
    the file in one of the two forms, and ``line`` when it is given."""
    try:
        load(path)
    except ValueError as err:
        message = str(err)
        assert re.match(rf"{re.escape(str(path))}( line \d+)?: ", message), message
        if line is not None:
            assert message.startswith(f"{path} line {line}: "), message
        return message
    return None


def _line_starts(data: bytes) -> list[int]:
    return [0] + [i + 1 for i, b in enumerate(data[:-1]) if b == ord("\n")]


def _cases(data: bytes, first: int, repeat_is_fault: bool, rng):
    """(mutated bytes, the line its fault must name or None), per case."""
    starts = _line_starts(data)
    for cut in rng.integers(0, len(data), 12):
        yield data[:cut], None
    for _ in range(40):
        flipped = bytearray(data)
        for at in rng.integers(0, len(data), rng.integers(1, 4)):
            flipped[at] = rng.integers(0, 256)
        yield bytes(flipped), None
    for bad in (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"):
        n = int(rng.integers(1, len(starts) + 1))
        end = starts[n] - 1 if n < len(starts) else len(data) - 1
        at = int(rng.integers(starts[n - 1], end + 1))
        yield data[:at] + bad + data[at:], n
    numbers = list(NUMBER.finditer(data))
    for i in rng.integers(0, len(numbers), 12) if numbers else ():
        m = numbers[i]
        yield data[:m.start()] + SWAPS[rng.integers(0, len(SWAPS))] + data[m.end():], None
    for n in range(first, len(starts) + 1):
        end = starts[n] if n < len(starts) else len(data)
        line = data[starts[n - 1]:end]
        yield data[:end] + line + data[end:], (n + 1 if repeat_is_fault else None)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_input_format_loads_or_names_its_file_and_line(tmp_path, name):
    text, load, first, repeat_is_fault = FORMATS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load, path) is None  # the seed file itself loads
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # a rename re-seeds its format alone
    faults = 0
    for data, line in _cases(text.encode("utf-8"), first, repeat_is_fault, rng):
        path.write_bytes(data)
        message = _outcome(load, path, line)
        if line is not None:
            assert message is not None, f"{data!r} loaded"
        faults += message is not None
    assert faults > 20  # the mutations reach the loader's checks
