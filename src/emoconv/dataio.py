"""File formats, and the one reader and one writer every file goes through.

The text inputs are the dataset TSV, word vectors and the sentence-vector
TSV, read whole only to be converted (parsed here), and the fine-tuning
corpus and a fine-tuning run's ``losses.tsv`` (``finetune``), the config
file (``config``) and a run directory's ``history.tsv`` and ``run.json``
(``train``), each parsed in its own module.
All of them are read by :func:`read_lines`: UTF-8, one line at a time,
ending at LF, CRLF or a lone CR as in Python's text mode, with the ending
and a byte-order mark on line 1 removed.  A fault on a line, a byte that is
not UTF-8 included, is the ValueError of :func:`line_error`, ``FILE line N:
message``; a fault of the whole file names the file alone.

Every output (checkpoint, word and sentence vectors, ``history.tsv``,
``losses.tsv``, ``run.json`` and reports) is written through :func:`atomic_write`: to a
temporary file beside the target, which replaces the target only when the
block ends without error, so a reader sees the old file or the new one,
never part of one.  ``open`` is called only in this module, so a file a
run key covers whole is hashed here too (:func:`hash_file`).

Binary files share one container, little-endian, with one writer and one
reader (``_write_container``, ``_read_container``):

    magic | u32 version | u64 json_len | JSON object, whose "arrays" lists
    each array's {name, shape} | per array: u64 byte_len | raw float64 values

No length is trusted before the file is known to hold its bytes.  A payload
is written from its array's own buffer and read straight into the float64
array returned, which the caller owns: ``rcnn.restore`` adopts it uncopied.
Two schemas, checked before any payload is read, round-trip bit-exactly:
the checkpoint ("EMOC", version 1: the vocabulary, config, epoch and best
validation F1) and the sentence vectors ("\\x89EMS", version 1: the ids, one array).
"""

from __future__ import annotations

import codecs
import contextlib
import json
import logging
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig, has_type
from .layers import EmbeddingMatrix
from .textprep import SPECIALS, Vocabulary

log = logging.getLogger(__name__)

LABELS = ("happy", "sad", "angry", "others")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}

DATASET_HEADER = "id\tturn1\tturn2\tturn3\tlabel"
DATASET_HEADER_UNLABELED = "id\tturn1\tturn2\tturn3"

CHECKPOINT_MAGIC = b"EMOC"
CHECKPOINT_VERSION = 1
SENTENCE_VECTORS_MAGIC = b"\x89EMS"  # 0x89 starts no UTF-8 text, so no TSV either
SENTENCE_VECTORS_VERSION = 1


def line_error(path, lineno: int, message: str) -> ValueError:
    """The one form of a fault on a line of an input file."""
    return ValueError(f"{path} line {lineno}: {message}")


def read_lines(path):
    """Yield (line number from 1, text) for each line of the UTF-8 file at
    ``path``.  A byte-order mark at its start and each line's ending are
    removed.  Lines end at LF, CRLF or a lone CR, as in Python's text mode;
    a byte that is not UTF-8 is a :func:`line_error`."""
    lineno = 0
    with open(path, "rb") as fh:
        if fh.peek(3).startswith(codecs.BOM_UTF8):
            fh.read(3)
        for raw in fh:
            try:
                text = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as err:
                lone_crs = raw.count(b"\r", 0, err.start)
                raise line_error(path, lineno + 1 + lone_crs,
                                 f"byte {raw[err.start]:#04x} is not UTF-8") from None
            for piece in (text,) if "\r" not in text else text.removesuffix("\r").split("\r"):
                lineno += 1
                yield lineno, piece


def _read_bytes(path):
    """``path`` open for bytes; its callers trust its size or read it twice, so no pipe."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{path}: not a regular file")
    return open(path, "rb")


def _line_bound(path) -> int:
    """At least the number of lines of ``path``: one more than its LF and CR bytes."""
    with _read_bytes(path) as fh:  # ``in`` rules out a CR, which is rare, faster than count
        blocks = iter(lambda: fh.read(1 << 20), b"")
        return 1 + sum(b.count(b"\n") + (b"\r" in b and b.count(b"\r")) for b in blocks)


def hash_file(path, h) -> None:
    """Feed the bytes of the regular file ``path`` to the hash ``h``, a block at a time."""
    with _read_bytes(path) as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """A file handle (UTF-8 text, or bytes for mode ``"wb"``) whose contents
    replace ``path`` when the block ends.  They go to a temporary file beside
    it, created like a plain ``open`` would (mode 0666 less the umask) and
    moved into place by ``os.replace``; if the block raises, the temporary
    file is deleted and ``path`` is left as it was.  Through a symlink, the
    file it names is replaced.  A path that exists but is no regular file,
    such as ``/dev/null`` or a pipe, cannot be replaced and is written in
    place."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    tmp = path if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        if not in_place:
            os.replace(tmp, target)
    except BaseException:
        if not in_place:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


@dataclass
class Conversation:
    id: str
    turns: tuple[str, str, str]
    label: str | None = None


@dataclass
class DatasetSplit:
    name: str
    conversations: list[Conversation]
    label_counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.conversations)


@dataclass
class SentenceVectorStore:
    """Sentence vectors as one float64 matrix, ``row`` giving each id's row in
    order.  A run hashes the rows it reads each time it is keyed
    (``train.RunData.digest``), never caching the hash."""
    row: dict[str, int]
    matrix: np.ndarray  # [len(row) x dim]

    def get(self, conv_id: str) -> np.ndarray:
        return self.matrix[self.row[conv_id]]


def load_dataset(path, split: str) -> DatasetSplit:
    """Parse a conversation TSV.

    The header must be exactly ``id/turn1/turn2/turn3/label`` (tab-separated)
    or the same without the label column.  Labels parse case-insensitively;
    train and val rows must carry one.  Conversation ids are unique, and no
    text holds a NUL character (the tokenizer's separator).
    """
    conversations: list[Conversation] = []
    first_line: dict[str, int] = {}
    counts = {name: 0 for name in LABELS}
    lines = read_lines(path)
    _, header = next(lines, (1, ""))
    if header not in (DATASET_HEADER, DATASET_HEADER_UNLABELED):
        raise ValueError(f"{path}: unrecognized header {header!r}")
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in (4, 5):
            raise line_error(path, lineno, "expected 4 or 5 tab-separated fields, "
                             f"got {len(fields)}")
        label = None
        if len(fields) == 5:
            raw = fields[4].strip().lower()
            if raw not in LABEL_TO_INDEX:
                raise line_error(path, lineno, f"unknown label {fields[4]!r}")
            label = raw
            counts[label] += 1
        elif split in ("train", "val"):
            raise line_error(path, lineno, f"split {split!r} requires a label")
        if "\0" in line:
            raise line_error(path, lineno, "NUL character, which no text may hold")
        if not fields[0]:
            raise line_error(path, lineno, "empty conversation id")
        if fields[0] in first_line:
            raise line_error(path, lineno, f"repeated conversation id {fields[0]!r} "
                             f"(first on line {first_line[fields[0]]})")
        first_line[fields[0]] = lineno
        conversations.append(Conversation(fields[0], (fields[1], fields[2], fields[3]),
                                          label))
    if not any(counts.values()):
        counts = {}
    return DatasetSplit(split, conversations, counts)


def _vector(values: list[str], path, lineno: int) -> np.ndarray:
    """One row of decimals; a non-numeric or non-finite entry names its line."""
    try:
        vec = np.array(values, dtype=np.float64)
    except ValueError:
        raise line_error(path, lineno, "non-numeric vector entry") from None
    if not np.isfinite(vec).all():
        raise line_error(path, lineno, "non-finite vector entry "
                         f"{values[int(np.argmin(np.isfinite(vec)))]!r}")
    return vec


def _word2vec_header(parts: list[str], path, expected_dim: int) -> bool:
    """Whether the first line's fields ``parts`` are a word2vec ``count dim``
    header (two integers, when ``expected_dim`` is above 1) of ``expected_dim``;
    a header of another dim is an error naming both."""
    if not (expected_dim > 1 and len(parts) == 2
            and parts[0].isdecimal() and parts[1].strip().isdecimal()):
        return False
    if int(parts[1]) != expected_dim:
        raise line_error(path, 1, f"header declares {int(parts[1])}-d vectors, "
                         f"expected {expected_dim}")
    return True


def load_word_vectors(path, expected_dim: int, keep=None) -> dict[str, np.ndarray]:
    """Text-format word vectors: token then whitespace-separated decimals,
    as rows of one float64 matrix.  With ``keep`` (tokens, such as a
    vocabulary's ``token_to_id``) only the kept tokens' values are split and parsed.

    A word2vec ``count dim`` first line (two integers, when ``expected_dim``
    is above 1) is skipped if dim is ``expected_dim`` and an error naming both
    dims otherwise.  Duplicate (kept) tokens keep their first occurrence; the
    number skipped is logged.  Tokens holding whitespace are unsupported.  A
    run hashes the rows it reads each time it is keyed
    (``train.RunData.digest``), never caching the hash."""
    # untouched rows cost no memory, so a bound on the rows is enough
    matrix = np.empty((_line_bound(path) if keep is None else len(keep), expected_dim))
    out, duplicates = {}, 0
    for lineno, line in read_lines(path):
        parts = line.split(None, 1)
        if lineno == 1 and _word2vec_header(parts, path, expected_dim):
            continue
        if not parts or (keep is not None and parts[0] not in keep):
            continue
        token, raw = parts[0], parts[1].split() if len(parts) > 1 else []
        if len(raw) != expected_dim:
            raise line_error(path, lineno, f"expected {expected_dim} values, got {len(raw)}")
        vec = _vector(raw, path, lineno)
        if token in out:
            duplicates += 1
            continue
        out[token] = matrix[len(out)]
        out[token][:] = vec
    if duplicates:
        log.warning("%s: skipped %d duplicate token lines", path, duplicates)
    return out


def _sentence_vectors_meta(meta: dict, shapes: dict, path, expected_dim: int, keep=None):
    """Each (kept) id's row, once the ids are distinct and non-empty, each with one
    row, and the rows to read (None for all)."""
    ids = meta.get("ids")
    if not isinstance(ids, list) or not all(isinstance(i, str) and i for i in ids) \
            or len(set(ids)) != len(ids) or list(shapes) != ["vectors"] \
            or len(shapes["vectors"]) != 2 or shapes["vectors"][0] != len(ids):
        raise ValueError(f"{path}: sentence-vector metadata has no distinct "
                         "non-empty ids with one 'vectors' row each")
    if shapes["vectors"][1] != expected_dim:
        raise ValueError(f"{path}: the file's sentence vectors are {shapes['vectors'][1]}-d, "
                         f"but the model's sentence_dim is {expected_dim}")
    at = {conv_id: k for k, conv_id in enumerate(ids) if keep is None or conv_id in keep}
    return at, None if keep is None else np.array(list(at.values()), dtype=np.int64)


def load_sentence_vectors(path, expected_dim: int, keep=None) -> SentenceVectorStore:
    """Sentence vectors from :func:`save_sentence_vectors`'s container or their
    TSV (``id<TAB>v1 v2 ... v_dim``, one non-empty id per line), told apart by
    the magic.  A TSV is parsed whole, to be converted; with ``keep`` (ids), as
    a run passes, only the container's kept rows are read, and a TSV is refused.
    Another width than ``expected_dim`` fails before any value is parsed."""
    with _read_bytes(path) as fh:
        binary = fh.read(len(SENTENCE_VECTORS_MAGIC)) == SENTENCE_VECTORS_MAGIC
    if binary:
        at, arrays = _read_container(
            path, SENTENCE_VECTORS_MAGIC, SENTENCE_VECTORS_VERSION, "sentence-vector",
            lambda meta, shapes: _sentence_vectors_meta(meta, shapes, path, expected_dim, keep))
        return SentenceVectorStore(dict(zip(at, range(len(at)))), arrays["vectors"])
    if keep is not None:
        raise ValueError(f"{path}: a run reads converted sentence vectors, not a TSV; "
                         "convert it once with `emoconv preprocess --sentence-vectors TSV OUT`")
    # untouched rows cost no memory, so a bound on the rows is enough
    row, matrix = {}, np.empty((_line_bound(path), expected_dim))
    for lineno, line in read_lines(path):
        if not line:
            continue
        conv_id, tab, raw = line.partition("\t")
        if not tab or not conv_id:
            raise line_error(path, lineno, "expected 'id<TAB>values' with a non-empty id")
        if conv_id in row:
            raise line_error(path, lineno, f"duplicate id {conv_id!r}")
        values = raw.split()
        if len(values) != expected_dim:
            if not row:  # the first line gives the file's width
                raise ValueError(f"{path}: the file's sentence vectors are {len(values)}-d "
                                 f"(line {lineno}), but the model's sentence_dim is {expected_dim}")
            raise line_error(path, lineno, f"expected {expected_dim} values, got {len(values)}")
        matrix[len(row)] = _vector(values, path, lineno)
        row[conv_id] = len(row)
    return SentenceVectorStore(row, matrix[:len(row)])


def save_sentence_vectors(store: SentenceVectorStore, path) -> None:
    """Write ``store`` as a container: its ids in the metadata, its matrix as one array."""
    _write_container(path, SENTENCE_VECTORS_MAGIC, SENTENCE_VECTORS_VERSION,
                     {"ids": list(store.row)}, {"vectors": store.matrix})


def build_embedding_matrix(vocab: Vocabulary, pretrained: dict[str, np.ndarray],
                           dim: int, rng):
    """Vocabulary rows from pretrained vectors.

    PAD stays zero; tokens found in ``pretrained`` are copied verbatim;
    everything else (including UNK and EOS) draws uniform [-0.05, 0.05]
    entries, all in one draw in row order.  Returns the matrix plus the
    fraction of real (non-special) vocabulary tokens that were found.
    """
    for token, vec in pretrained.items():
        if vec.shape != (dim,):
            raise ValueError(f"pretrained vector for {token!r} has shape {vec.shape}, "
                             f"expected ({dim},)")
        break
    values = np.zeros((vocab.size, dim))
    found, reserved = 0, len(SPECIALS)
    drawn = list(range(1, reserved))  # the reserved rows but PAD, which stays zero
    for idx in range(reserved, vocab.size):
        vec = pretrained.get(vocab.id_to_token[idx])
        if vec is None:
            drawn.append(idx)
        else:
            values[idx] = vec
            found += 1
    values[drawn] = rng.uniform(-0.05, 0.05, (len(drawn), dim))
    real_tokens = vocab.size - reserved
    coverage = found / real_tokens if real_tokens else 0.0
    return EmbeddingMatrix.from_array(values), coverage


def save_word_vectors(tokens: list[str], matrix: np.ndarray, path, rest_from) -> None:
    """Write the rows of ``tokens`` in the word-vector text format, one token
    per line, then each token of the word-vector file ``rest_from`` (as wide
    as ``matrix``) not written yet, once, in its order, as its line gave it;
    its word2vec header is not copied.  ``rest_from`` is read a line at a time."""
    with atomic_write(path) as fh:
        for token, row in zip(tokens, matrix):
            fh.write(token + " " + " ".join(repr(float(v)) for v in row) + "\n")
        written = set(tokens)
        for lineno, line in read_lines(rest_from):
            parts = line.split(None, 1)
            if not parts or parts[0] in written or (
                    lineno == 1 and _word2vec_header(parts, rest_from, matrix.shape[1])):
                continue
            written.add(parts[0])
            fh.write(line + "\n")


@dataclass
class Checkpoint:
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    config: TrainConfig
    epoch: int
    best_val_f1: float


def _write_container(path, magic: bytes, version: int, meta: dict,
                     arrays: dict[str, np.ndarray]) -> None:
    """Write the JSON object ``meta``, with the array list added, and each
    of ``arrays`` (name -> float64 array) in order from its own buffer."""
    meta = {**meta, "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]}
    blob = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(magic + struct.pack("<IQ", version, len(blob)) + blob)
        for payload in (np.ascontiguousarray(a, dtype="<f8") for a in arrays.values()):
            fh.write(struct.pack("<Q", payload.nbytes))
            fh.write(payload)


def _read_container(path, magic: bytes, version: int, kind: str,
                    schema) -> tuple[object, dict[str, np.ndarray]]:
    """The (schema's result, arrays) of a file written by :func:`_write_container`;
    ``schema(meta less its array list, name -> shape)`` runs before any payload
    is read and returns its result and the first-axis rows each array reads
    (an int array, None for all).  A file that is not a ``kind`` file, is cut
    short or too long, or has no JSON object with an array list for metadata
    raises ValueError naming ``path``."""
    with _read_bytes(path) as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(n: int, what: str) -> int:
            if n > size - fh.tell():
                raise ValueError(f"{path}: truncated {kind} while reading {what}")
            return n

        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a {kind} file")
        (got,) = struct.unpack("<I", fh.read(need(4, "version")))
        if got != version:
            raise ValueError(f"{path}: {kind} version {got} is not the "
                             f"supported version {version}")
        (meta_len,) = struct.unpack("<Q", fh.read(need(8, "metadata length")))
        try:
            meta = json.loads(fh.read(need(meta_len, "metadata")))
        except (ValueError, RecursionError) as err:  # not JSON or UTF-8, or nested too deep
            raise ValueError(f"{path}: {kind} metadata is not valid JSON ({err})") from None
        entries = meta.pop("arrays", None) if isinstance(meta, dict) else None
        if not isinstance(entries, list) or not all(
                isinstance(a, dict) and isinstance(a.get("name"), str)
                and isinstance(a.get("shape"), list)
                and all(has_type(d, "int") and d >= 0 for d in a["shape"]) for a in entries) \
                or len({a["name"] for a in entries}) != len(entries):
            raise ValueError(f"{path}: {kind} metadata has no array list "
                             "[{name, shape}, ...] with distinct names")
        shapes = {a["name"]: tuple(a["shape"]) for a in entries}
        (checked, picked), arrays = schema(meta, shapes), {}
        for name, shape in shapes.items():
            (nbytes,) = struct.unpack("<Q", fh.read(need(8, "array length")))
            if nbytes != math.prod(shape) * 8:
                raise ValueError(f"{path}: array {name!r} payload is "
                                 f"{nbytes} bytes, expected {math.prod(shape) * 8}")
            need(nbytes, f"array {name!r}")
            # native on a little-endian host
            out = arrays[name] = np.empty(shape if picked is None else (picked.size, *shape[1:]),
                                          dtype="<f8")
            if picked is None:
                fh.readinto(out)
            else:  # one seek and read per kept row
                start, width = fh.tell(), math.prod(shape[1:]) * 8
                for k, r in enumerate(picked):
                    fh.seek(start + r * width)
                    fh.readinto(out[k])
                fh.seek(start + nbytes)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after {kind} payload")
    return checked, arrays


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    _write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, {
        "best_val_f1": ckpt.best_val_f1,
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "vocab": ckpt.vocab.id_to_token,
    }, {name: ckpt.params[name] for name in sorted(ckpt.params)})


def _checkpoint_meta(meta: dict, shapes: dict, path) -> tuple[dict, TrainConfig]:
    """The metadata and its config, once they and the array shapes meet the checkpoint
    schema (before any payload is read): a malformed field, or an embedding table
    with another row count than the vocabulary, is a ValueError naming the file."""
    def bad(what):
        return ValueError(f"{path}: checkpoint metadata has {what}")

    missing = sorted({"best_val_f1", "config", "epoch", "vocab"} - set(meta))
    if missing:
        raise bad(f"no {', '.join(missing)}")
    vocab = meta["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab) \
            or vocab[:len(SPECIALS)] != list(SPECIALS):
        raise bad("a vocabulary that is not a token list starting with the reserved tokens")
    if len(set(vocab)) != len(vocab):
        repeated = next(token for token, n in Counter(vocab).items() if n > 1)
        raise bad(f"a repeated vocabulary token {repeated!r}")
    table = shapes.get("embedding.table", (len(vocab),))
    if table[:1] != (len(vocab),):
        raise bad(f"{len(vocab)} vocabulary tokens but an embedding table of shape {table}")
    if not has_type(meta["epoch"], "int") or meta["epoch"] < 1:
        raise bad(f"epoch {meta['epoch']!r}, not an integer >= 1")
    if not has_type(meta["best_val_f1"], "float"):
        raise bad(f"best_val_f1 {meta['best_val_f1']!r}, not a number")
    try:
        return meta, TrainConfig.from_dict(meta["config"])
    except ValueError as err:
        raise bad(f"a bad config: {err}") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by :func:`save_checkpoint`; a file that is not a
    checkpoint or is malformed raises ValueError naming ``path``."""
    (meta, config), params = _read_container(
        path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
        lambda m, shapes: (_checkpoint_meta(m, shapes, path), None))
    return Checkpoint(Vocabulary(id_to_token=meta["vocab"]), params,
                      config, meta["epoch"], float(meta["best_val_f1"]))
