import dataclasses
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import toycorpus
from emoconv import dataio as dio
from emoconv.config import TrainConfig, load_config
from emoconv.textprep import SPECIALS, Vocabulary


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_dataset_parses_rows_verbatim(tmp_path):
    p = _write(tmp_path / "train.txt",
               "id\tturn1\tturn2\tturn3\tlabel\n"
               "c1\thi there\thello\twhy not\tHappy\n"
               "c2\tugh\tso bad\tterrible\tangry\n")
    split = dio.load_dataset(p, "train")
    assert len(split) == 2
    assert split.conversations[0].turns == ("hi there", "hello", "why not")
    assert split.conversations[0].label == "happy"  # case-insensitive
    assert split.label_counts == {"happy": 1, "sad": 0, "angry": 1, "others": 0}


def test_load_dataset_errors(tmp_path):
    bad_header = _write(tmp_path / "a.txt", "id\tt1\tt2\tt3\tlabel\nc\ta\tb\tc\thappy\n")
    with pytest.raises(ValueError):
        dio.load_dataset(bad_header, "train")

    short_row = _write(tmp_path / "b.txt",
                       "id\tturn1\tturn2\tturn3\tlabel\n"
                       "c1\ta\tb\tc\thappy\n"
                       "c2\ta\tb\n")
    with pytest.raises(ValueError) as err:
        dio.load_dataset(short_row, "train")
    assert "line 3" in str(err.value) and "4 or 5" in str(err.value)

    bad_label = _write(tmp_path / "c.txt",
                       "id\tturn1\tturn2\tturn3\tlabel\nc1\ta\tb\tc\tjoyful\n")
    with pytest.raises(ValueError) as err:
        dio.load_dataset(bad_label, "train")
    assert "joyful" in str(err.value)

    unlabeled_train = _write(tmp_path / "d.txt",
                             "id\tturn1\tturn2\tturn3\nc1\ta\tb\tc\n")
    with pytest.raises(ValueError):
        dio.load_dataset(unlabeled_train, "train")


def test_load_dataset_rejects_a_repeated_id_naming_both_lines(tmp_path):
    p = _write(tmp_path / "train.txt",
               "id\tturn1\tturn2\tturn3\tlabel\n"
               "c1\ta\tb\tc\thappy\n"
               "c2\ta\tb\tc\tsad\n"
               "c1\td\te\tf\tangry\n")
    with pytest.raises(ValueError) as err:
        dio.load_dataset(p, "train")
    assert str(err.value) == f"{p} line 4: repeated conversation id 'c1' (first on line 2)"


def test_load_dataset_rejects_a_nul_character_naming_the_line(tmp_path):
    p = _write(tmp_path / "val.txt",
               "id\tturn1\tturn2\tturn3\tlabel\n"
               "c1\ta\tb\tc\thappy\n"
               "c2\ta\tb\0x\tc\tsad\n")
    with pytest.raises(ValueError) as err:
        dio.load_dataset(p, "val")
    assert str(err.value).startswith(f"{p} line 3: NUL character")


def test_load_dataset_unlabeled_test_split(tmp_path):
    p = _write(tmp_path / "test.txt",
               "id\tturn1\tturn2\tturn3\nc1\ta\tb\tc\nc2\td\te\tf\n")
    split = dio.load_dataset(p, "test")
    assert len(split) == 2
    assert split.conversations[0].label is None
    assert split.label_counts == {}


def test_load_word_vectors(tmp_path):
    p = _write(tmp_path / "vec.txt", "hello 0.1 0.2\nbye -1 2\n")
    vecs = dio.load_word_vectors(p, expected_dim=2)
    npt.assert_array_equal(vecs["hello"], [0.1, 0.2])
    npt.assert_array_equal(vecs["bye"], [-1.0, 2.0])

    short = _write(tmp_path / "short.txt", "hello 0.1 0.2\nbye 0.3\n")
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(short, 2)
    assert "line 2" in str(err.value)

    bad = _write(tmp_path / "bad.txt", "hello 0.1 x\n")
    with pytest.raises(ValueError):
        dio.load_word_vectors(bad, 2)


def test_outside_files_may_start_with_a_utf8_bom(tmp_path):
    from emoconv import train as tr
    from emoconv.finetune import load_finetune_corpus

    def bom(name, text):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return path

    split = dio.load_dataset(bom("train.txt", "id\tturn1\tturn2\tturn3\tlabel\n"
                                              "c1\ta\tb\tc\tsad\n"), "train")
    assert split.conversations[0].id == "c1"
    assert list(dio.load_word_vectors(bom("vec.txt", "hi 1 2\n"), 2)) == ["hi"]
    assert list(dio.load_sentence_vectors(bom("sv.tsv", "c1\t1 2\n"), 2).row) == ["c1"]
    assert load_finetune_corpus(bom("ft.tsv", "text\tlabel\nyay\t1\n")) == [("yay", 1)]
    assert load_config(bom("c.cfg", "lr = 0.01\n")).lr == 0.01
    history = [tr.HistoryRow(1, 0.01, 1.0, 0.5, 0.0)]
    assert tr.read_history(bom("history.tsv", tr.format_history(history))) == history
    assert tr.read_run(bom("run.json", '{"key": "ab"}\n')) == {"key": "ab"}


def test_read_lines_ends_lines_as_text_mode_does(tmp_path):
    p = tmp_path / "mixed.txt"
    p.write_bytes(b"\xef\xbb\xbfa\r\nb\rc\n\r\nd\r\re")
    assert list(dio.read_lines(p)) == [(1, "a"), (2, "b"), (3, "c"), (4, ""), (5, "d"),
                                       (6, ""), (7, "e")]
    with open(p, encoding="utf-8-sig") as fh:
        assert [line.rstrip("\n") for line in fh] == ["a", "b", "c", "", "d", "", "e"]


@pytest.mark.parametrize("data, line", [(b"ok\nb\xffad\n", 2), (b"\xc3\n", 1),
                                        (b"a\rb\r\x80\n", 3), (b"a\nb\n\xed\xa0\x80", 3)])
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line):
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))} line {line}: byte 0x.. is not UTF-8$"):
        list(dio.read_lines(p))


def test_load_word_vectors_skips_a_count_dim_header(tmp_path):
    p = _write(tmp_path / "w2v.txt", "2 3\nhello 1 2 3\n4 5 6 7\n")
    vecs = dio.load_word_vectors(p, 3)
    assert list(vecs) == ["hello", "4"]
    npt.assert_array_equal(vecs["4"], [5.0, 6.0, 7.0])

    # a header whose dim disagrees is still an error on line 1
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(_write(tmp_path / "other.txt", "2 50\nhello 1 2 3\n"), 3)
    assert "line 1" in str(err.value)
    # and it names both dims, not a count of values on the header line
    w2v = _write(tmp_path / "glove.txt", "400000 300\nhello " + "0.5 " * 300 + "\n")
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(w2v, 100)
    assert str(err.value) == f"{w2v} line 1: header declares 300-d vectors, expected 100"
    # with 1-d vectors "2 1" is a vector line: token "2", value 1
    npt.assert_array_equal(dio.load_word_vectors(
        _write(tmp_path / "one.txt", "2 1\nhi 4\n"), 1)["2"], [1.0])
    # tabs and runs of blanks split alike whether or not every token is kept
    spaced = _write(tmp_path / "spaced.txt", "2 3\t\nhello\t1  2 \t3\n  4   5\t6 7  \n")
    every = dio.load_word_vectors(spaced, 3)
    kept = dio.load_word_vectors(spaced, 3, keep={"hello", "4"})
    assert list(every) == list(kept) == ["hello", "4"]
    for token in every:
        assert every[token].tobytes() == kept[token].tobytes(), token


@pytest.mark.parametrize("entry", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_load_word_vectors_rejects_a_non_finite_entry_naming_the_line(tmp_path, entry):
    p = _write(tmp_path / "vec.txt", f"hello 0.1 0.2\nbye 0.3 {entry}\n")
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(p, 2)
    assert str(err.value) == f"{p} line 2: non-finite vector entry {entry!r}"


def test_load_word_vectors_parses_only_the_kept_tokens(tmp_path, caplog):
    p = _write(tmp_path / "vec.txt", "6 2\nhi 1 2\nbye 3 x\nyo 5 6\nhi 7 8\nok 9\nyo 0 0\n")
    got = dio.load_word_vectors(p, 2, keep={"hi", "yo", "absent"})
    assert list(got) == ["hi", "yo"]
    npt.assert_array_equal(got["hi"], [1.0, 2.0])
    npt.assert_array_equal(got["yo"], [5.0, 6.0])
    assert got["hi"].base is got["yo"].base  # rows of one matrix
    assert "skipped 2 duplicate token lines" in caplog.text
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(p, 2, keep={"bye"})
    assert str(err.value) == f"{p} line 3: non-numeric vector entry"
    with pytest.raises(ValueError) as err:
        dio.load_word_vectors(p, 2, keep={"ok"})
    assert str(err.value) == f"{p} line 6: expected 2 values, got 1"
    with pytest.raises(ValueError, match="line 1: header declares 2-d vectors, expected 3"):
        dio.load_word_vectors(p, 3, keep={"hi"})
    assert dio.load_word_vectors(p, 2, keep=set()) == {}


def test_load_word_vectors_keeps_first_duplicate(tmp_path, caplog):
    p = _write(tmp_path / "vec.txt", "a 1 1\na 2 2\nb 3 3\n")
    with caplog.at_level("WARNING", logger="emoconv.dataio"):
        vecs = dio.load_word_vectors(p, 2)
    npt.assert_array_equal(vecs["a"], [1.0, 1.0])
    assert any("1" in rec.message or "duplicate" in rec.message.lower()
               for rec in caplog.records)


def test_load_sentence_vectors(tmp_path):
    p = _write(tmp_path / "sv.tsv", "c1\t0 0 0\nc2\t0.5 -1 2\n")
    store = dio.load_sentence_vectors(p, 3)
    npt.assert_array_equal(store.get("c1"), np.zeros(3))

    dup = _write(tmp_path / "dup.tsv", "c1\t0 0 0\nc1\t1 1 1\n")
    with pytest.raises(ValueError) as err:
        dio.load_sentence_vectors(dup, 3)
    assert "c1" in str(err.value)

    wrong = _write(tmp_path / "wrong.tsv", "c1\t0 0\n")
    with pytest.raises(ValueError) as err:
        dio.load_sentence_vectors(wrong, 3)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("entry, problem", [("nan", "non-finite vector entry 'nan'"),
                                            ("-inf", "non-finite vector entry '-inf'"),
                                            ("x", "non-numeric vector entry")])
def test_load_sentence_vectors_rejects_a_bad_entry_naming_the_line(tmp_path, entry, problem):
    p = _write(tmp_path / "sv.tsv", f"c1\t0 0 0\nc2\t0.5 {entry} 2\n")
    with pytest.raises(ValueError) as err:
        dio.load_sentence_vectors(p, 3)
    assert str(err.value) == f"{p} line 2: {problem}"


def test_sentence_vectors_round_trip(tmp_path):
    """TSV -> store -> container -> store keeps every bit and the id order."""
    rng = np.random.default_rng(0)
    matrix = np.concatenate([rng.standard_normal((4, 5)),
                             [[0.0, -0.0, 5e-324, 1.7976931348623157e308, -1 / 3]]])
    store = toycorpus.store_of({f"c{i}": row for i, row in zip([3, 0, 9, 1, 2], matrix)})
    from_tsv = dio.load_sentence_vectors(
        toycorpus.write_sentence_tsv(store, tmp_path / "sv.tsv"), 5)
    dio.save_sentence_vectors(from_tsv, tmp_path / "sv.bin")
    back = dio.load_sentence_vectors(tmp_path / "sv.bin", 5)
    assert (tmp_path / "sv.bin").read_bytes().startswith(dio.SENTENCE_VECTORS_MAGIC)
    for got in (from_tsv, back):
        assert list(got.row) == ["c3", "c0", "c9", "c1", "c2"]
        assert got.matrix.dtype == np.float64 and got.matrix.tobytes() == matrix.tobytes()
        assert got.get("c9").tobytes() == matrix[2].tobytes()


def test_kept_sentence_vectors_are_the_full_loads_rows_in_file_order(tmp_path, monkeypatch):
    """With ``keep``, the container gives the kept ids present in the file,
    in the file's order, bit-equal to a full load's rows.  A TSV is read only
    whole: with ``keep`` it is refused, naming the conversion, before any
    value is parsed."""
    rng = np.random.default_rng(3)
    ids = [f"c{i}" for i in range(12)]
    store = toycorpus.store_of(dict(zip(ids, rng.standard_normal((12, 4)))))
    tsv = toycorpus.write_sentence_tsv(store, tmp_path / "sv.tsv")
    path = tmp_path / "sv.bin"
    dio.save_sentence_vectors(store, path)
    keep = {"c7", "c0", "c1", "c2", "c9", "c11", "absent"}
    full, kept = dio.load_sentence_vectors(path, 4), dio.load_sentence_vectors(path, 4, keep)
    assert list(kept.row) == ["c0", "c1", "c2", "c7", "c9", "c11"]
    for conv_id in kept.row:
        assert kept.get(conv_id).tobytes() == full.get(conv_id).tobytes()
    assert dio.load_sentence_vectors(path, 4, set()).matrix.shape == (0, 4)
    with pytest.raises(ValueError, match="sentence vectors are 4-d"):
        dio.load_sentence_vectors(path, 5, {"c9"})
    monkeypatch.setattr(dio, "_vector", lambda *a: pytest.fail("a value was parsed"))
    for dim, keep in ((4, keep), (4, set()), (5, {"c9"})):
        with pytest.raises(ValueError) as err:
            dio.load_sentence_vectors(tsv, dim, keep)
        assert str(err.value) == (f"{tsv}: a run reads converted sentence vectors, not a TSV; "
                                  "convert it once with "
                                  "`emoconv preprocess --sentence-vectors TSV OUT`")


def test_kept_sentence_vectors_read_from_the_container_peak_near_the_kept_rows(tmp_path):
    rng = np.random.default_rng(4)
    ids = [f"c{i}" for i in range(2000)]
    store = toycorpus.store_of(dict(zip(ids, rng.standard_normal((2000, 64)))))
    dio.save_sentence_vectors(store, tmp_path / "sv.bin")
    keep = set(ids[100:300]) | set(ids[1500:1600])
    tracemalloc.start()
    try:
        kept = dio.load_sentence_vectors(tmp_path / "sv.bin", 64, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.matrix.tobytes() == store.matrix[[*range(100, 300), *range(1500, 1600)]].tobytes()
    assert peak < store.matrix.nbytes / 2, (peak, store.matrix.nbytes)


def test_an_empty_id_is_a_line_error_in_both_loaders(tmp_path):
    for text, line in (("\t0.1 0.2 0.3\n", 1), ("c1\t0 0 0\n\t0.1 0.2 0.3\n", 2)):
        sv = _write(tmp_path / "sv.tsv", text)
        with pytest.raises(ValueError) as err:
            dio.load_sentence_vectors(sv, 3)
        assert str(err.value) == f"{sv} line {line}: expected 'id<TAB>values' with a non-empty id"
    ds = _write(tmp_path / "train.txt", "id\tturn1\tturn2\tturn3\tlabel\n"
                "c1\ta\tb\tc\thappy\n\ta\tb\tc\tsad\n")
    with pytest.raises(ValueError) as err:
        dio.load_dataset(ds, "train")
    assert str(err.value) == f"{ds} line 3: empty conversation id"


def test_a_width_conflict_names_both_widths_before_any_value_is_parsed(tmp_path, monkeypatch):
    tsv = _write(tmp_path / "sv.tsv", "c1\t0.1 0.2 0.3\nc2\tx y\n")
    binary = tmp_path / "sv.bin"
    dio.save_sentence_vectors(toycorpus.store_of({"c1": np.ones(3), "c2": np.zeros(3)}), binary)
    data = binary.read_bytes()
    cut = tmp_path / "cut.bin"  # no payload at all: the width comes from the metadata
    cut.write_bytes(data[:16 + int.from_bytes(data[8:16], "little")])
    monkeypatch.setattr(dio, "_vector", lambda *a: pytest.fail("a value was parsed"))
    for path, where in ((tsv, " (line 1)"), (binary, ""), (cut, "")):
        for dim in (0, 4):
            with pytest.raises(ValueError) as err:
                dio.load_sentence_vectors(path, dim)
            assert str(err.value) == (f"{path}: the file's sentence vectors are 3-d{where}, "
                                      f"but the model's sentence_dim is {dim}")


def test_a_pipe_is_refused_where_a_file_is_read_twice(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for load in (lambda p: dio.load_sentence_vectors(p, 3), lambda p: dio.load_word_vectors(p, 3),
                 dio.load_checkpoint):
        with pytest.raises(ValueError, match=f"^{re.escape(str(fifo))}: not a regular file"):
            load(fifo)


def test_build_embedding_matrix_copies_and_fills():
    vocab = Vocabulary([*SPECIALS, "a", "b", "c", "d"])
    pretrained = {"a": np.array([1.0, 2.0]), "c": np.array([-3.0, 4.0]),
                  "zzz": np.array([9.0, 9.0])}
    rng, per_row = np.random.default_rng(0), np.random.default_rng(0)
    emb, coverage = dio.build_embedding_matrix(vocab, pretrained, 2, rng)
    assert emb.vocab_size == 7 and emb.dim == 2
    npt.assert_array_equal(emb.table.values[0], [0.0, 0.0])           # PAD
    npt.assert_array_equal(emb.table.values[3], [1.0, 2.0])           # "a"
    npt.assert_array_equal(emb.table.values[5], [-3.0, 4.0])          # "c"
    for row in (1, 2, 4, 6):                                          # UNK, EOS, b, d
        assert (np.abs(emb.table.values[row]) <= 0.05).all()
        assert np.abs(emb.table.values[row]).max() > 0
        # the rows' one draw has the bytes of a draw per row, in row order
        npt.assert_array_equal(emb.table.values[row], per_row.uniform(-0.05, 0.05, 2))
    assert rng.bit_generator.state == per_row.bit_generator.state
    assert coverage == 2 / 4

    emb2, cov2 = dio.build_embedding_matrix(Vocabulary(), pretrained, 2,
                                            np.random.default_rng(0))
    assert cov2 == 0.0 and emb2.vocab_size == 3


def test_build_embedding_matrix_deterministic():
    vocab = Vocabulary([*SPECIALS, "a", "b"])
    m1, _ = dio.build_embedding_matrix(vocab, {}, 3, np.random.default_rng(9))
    m2, _ = dio.build_embedding_matrix(vocab, {}, 3, np.random.default_rng(9))
    npt.assert_array_equal(m1.table.values, m2.table.values)


def _toy_checkpoint():
    vocab = Vocabulary([*SPECIALS, "hello"])
    rng = np.random.default_rng(3)
    params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
    return dio.Checkpoint(vocab, params,
                          TrainConfig(hidden_size=3, sentence_dim=0),
                          epoch=4, best_val_f1=0.625)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "model.ckpt"
    dio.save_checkpoint(ckpt, path)
    back = dio.load_checkpoint(path)
    assert back.epoch == 4 and back.best_val_f1 == 0.625
    assert back.vocab.id_to_token == ckpt.vocab.id_to_token
    assert back.config == ckpt.config
    for name, arr in ckpt.params.items():
        assert back.params[name].tobytes() == arr.tobytes()

    # identical checkpoints serialize to identical bytes
    path2 = tmp_path / "model2.ckpt"
    dio.save_checkpoint(ckpt, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "model.ckpt"
    dio.save_checkpoint(_toy_checkpoint(), path)

    tampered = bytearray(path.read_bytes())
    tampered[:4] = b"NOPE"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(tampered))
    with pytest.raises(ValueError) as err:
        dio.load_checkpoint(bad)
    assert "not a checkpoint" in str(err.value)

    versioned = bytearray(path.read_bytes())
    versioned[4:8] = (99).to_bytes(4, "little")
    vbad = tmp_path / "vbad.ckpt"
    vbad.write_bytes(bytes(versioned))
    with pytest.raises(ValueError) as err:
        dio.load_checkpoint(vbad)
    assert "99" in str(err.value) and "1" in str(err.value)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError) as err:
        dio.load_checkpoint(truncated)
    assert "truncated" in str(err.value)


def _write_with_meta(path, meta, arrays):
    """A checkpoint file whose metadata block is ``meta`` verbatim."""
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(dio.CHECKPOINT_MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(struct.pack("<Q", a.nbytes) + a.tobytes())


_ABSENT = object()


def _good_meta():
    return {"arrays": [{"name": "w", "shape": [2, 3]}], "best_val_f1": 0.5,
            "config": TrainConfig(hidden_size=3).to_dict(), "epoch": 2,
            "vocab": ["<pad>", "<unk>", "<eos>", "hi"]}


@pytest.mark.parametrize("field, value", [
    ("arrays", [{"name": "w"}]),
    ("arrays", [{"name": "w", "shape": [2, -3]}]),
    ("arrays", [{"name": "w", "shape": [2, 3]}, {"name": "w", "shape": []}]),
    ("arrays", {"w": [2, 3]}),
    ("config", {"hidden_sise": 3}),
    ("config", {"hidden_size": "3"}),
    ("config", {"hidden_size": 3.0}),
    ("config", {"projection_tanh": 1}),
    ("config", {"hidden_size": 0}),
    ("config", [1, 2]),
    ("epoch", "2"),
    ("epoch", True),
    ("best_val_f1", None),
    ("vocab", ["hi", "<pad>"]),
    ("vocab", "<pad>"),
    ("epoch", _ABSENT),
    ("arrays", [{"name": "embedding.table", "shape": [2, 3]}]),  # 4 vocabulary tokens
])
def test_checkpoint_metadata_errors_name_the_file(tmp_path, field, value):
    meta = _good_meta()
    meta[field] = value
    if value is _ABSENT:
        del meta[field]
    path = tmp_path / "meta.ckpt"
    _write_with_meta(path, meta, [np.zeros((2, 3))])
    with pytest.raises(ValueError, match="checkpoint metadata") as err:
        dio.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_with_a_repeated_vocabulary_token_does_not_load(tmp_path):
    ckpt = _toy_checkpoint()
    ckpt.vocab = Vocabulary([*SPECIALS, "hi", "hi"])  # "hi" would look up row 4 only
    path = tmp_path / "model.ckpt"
    dio.save_checkpoint(ckpt, path)
    with pytest.raises(ValueError) as err:
        dio.load_checkpoint(path)
    assert str(err.value) == (f"{path}: checkpoint metadata has a repeated "
                              "vocabulary token 'hi'")


def test_checkpoint_metadata_shape_drives_the_payload_read(tmp_path):
    path = tmp_path / "meta.ckpt"
    _write_with_meta(path, _good_meta(), [np.arange(6.0).reshape(2, 3)])
    back = dio.load_checkpoint(path)
    assert back.params["w"].tobytes() == np.arange(6.0).reshape(2, 3).tobytes()
    assert back.params["w"].flags.writeable and back.config.hidden_size == 3

    meta = _good_meta()
    meta["arrays"][0]["shape"] = [2, 3 << 40]  # a corrupt shape asks for 48 TB
    _write_with_meta(path, meta, [np.zeros((2, 3))])
    with pytest.raises(ValueError, match="expected"):
        dio.load_checkpoint(path)


def _sections(data: bytes) -> list[int]:
    """Offsets where each section of a container file ends: magic, version,
    metadata length, metadata, then each array's length and payload."""
    meta_len = int.from_bytes(data[8:16], "little")
    ends = [4, 8, 16, 16 + meta_len]
    for entry in json.loads(data[16:16 + meta_len])["arrays"]:
        ends.append(ends[-1] + 8)
        ends.append(ends[-1] + 8 * int(np.prod(entry["shape"])))
    assert ends[-1] == len(data)
    return ends


def test_the_container_round_trips_any_metadata_and_arrays_in_order(tmp_path):
    path = tmp_path / "x.bin"
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.asfortranarray(np.eye(2)[:, ::-1]),
              "i": np.arange(3)}
    dio._write_container(path, b"TEST", 7, {"k": [1, "\u00e9"]}, arrays)
    meta, back = dio._read_container(path, b"TEST", 7, "test",
                                     lambda meta, shapes: (meta, None))
    assert meta == {"k": [1, "\u00e9"]} and list(back) == ["b", "a", "i"]
    for name, a in back.items():
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable, name
        assert a.tobytes() == np.asarray(arrays[name], dtype=np.float64).tobytes(), name
    with pytest.raises(ValueError, match="not a checkpoint file"):
        dio.load_checkpoint(path)
    with pytest.raises(ValueError, match="test version 7 is not the supported version 8"):
        dio._read_container(path, b"TEST", 8, "test", lambda meta, shapes: (meta, None))


def test_metadata_nested_too_deep_is_a_value_error_naming_the_file(tmp_path):
    path = tmp_path / "deep.ckpt"
    blob = b"[" * 200_000
    path.write_bytes(dio.CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(blob)) + blob)
    with pytest.raises(ValueError, match="checkpoint metadata is not valid JSON") as err:
        dio.load_checkpoint(path)
    assert str(path) in str(err.value)


def _checkpoint_schema(path):
    ckpt = _toy_checkpoint()
    dio.save_checkpoint(ckpt, path)
    return ckpt.params, dio.load_checkpoint, lambda back: back.params


def _sentence_vector_schema(path):
    vectors = np.random.default_rng(5).standard_normal((3, 4))
    dio.save_sentence_vectors(toycorpus.store_of(dict(zip(["a", "b", "c"], vectors))), path)

    def load(p):  # the container route of load_sentence_vectors; an empty file is an empty TSV
        return dio._read_container(p, dio.SENTENCE_VECTORS_MAGIC, dio.SENTENCE_VECTORS_VERSION,
                                   "sentence-vector",
                                   lambda m, s: dio._sentence_vectors_meta(m, s, p, 4))[1]
    return {"vectors": vectors}, load, lambda back: back


# One case per schema over the container: (write a good file and return its
# arrays, the schema's loader, the arrays of what it loaded).
CONTAINER_SCHEMAS = [pytest.param(_checkpoint_schema, id="checkpoint"),
                     pytest.param(_sentence_vector_schema, id="sentence_vectors")]


@pytest.mark.parametrize("schema", CONTAINER_SCHEMAS)
def test_container_fuzz_truncations_and_flips_raise_value_error_naming_the_file(
        tmp_path, schema):
    good = tmp_path / "good.bin"
    arrays, load, arrays_of = schema(good)
    data = good.read_bytes()
    ends = _sections(data)
    bad = tmp_path / "bad.bin"
    cuts = sorted({0, *ends[:-1], *(e - 1 for e in ends), *(e + 1 for e in ends[:-1])})
    for cut in cuts:
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError) as err:
            load(bad)
        assert str(bad) in str(err.value), cut
    bad.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load(bad)

    rng = np.random.default_rng(20261018)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(400):
        flipped = bytearray(data)
        for pos in rng.integers(0, ends[3], size=int(rng.integers(1, 4))):
            flipped[pos] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(flipped))
        try:
            back = load(bad)
        except ValueError as err:
            assert str(bad) in str(err)
            outcomes["rejected"] += 1
        else:  # a flip the format cannot see, such as a changed vocabulary token
            assert {n: a.tobytes() for n, a in arrays_of(back).items()} == \
                {n: a.tobytes() for n, a in arrays.items()}
            outcomes["loaded"] += 1
    assert outcomes["rejected"] > 300


@pytest.mark.parametrize("field", ["metadata length", "array length"])
def test_a_length_past_the_end_of_the_file_allocates_nothing(tmp_path, field):
    """A length field that asks for 64 MB of a file that holds a few hundred
    bytes fails before any of the 64 MB is allocated."""
    path = tmp_path / "short.bin"
    want = 64 << 20
    meta = _good_meta()
    if field == "array length":
        meta["arrays"] = [{"name": "w", "shape": [want // 8]}]
    _write_with_meta(path, meta, [np.zeros(6)])
    data = bytearray(path.read_bytes())
    at = 8 if field == "metadata length" else 16 + int.from_bytes(data[8:16], "little")
    data[at:at + 8] = struct.pack("<Q", want)
    path.write_bytes(bytes(data[:at + 8 + 100]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"truncated checkpoint while reading "
                                             f"{'metadata' if at == 8 else 'array'}"):
            dio.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_config_defaults_match_stated_hyperparameters(tmp_path):
    cfg = load_config(_write(tmp_path / "empty.cfg", ""))
    assert cfg == TrainConfig()
    assert (cfg.lr, cfg.batch_size, cfg.epochs) == (0.0005, 64, 6)
    assert (cfg.clip_norm, cfg.anneal_factor, cfg.anneal_after_epoch) == (5.0, 0.2, 5)
    assert (cfg.freeze_embedding_epochs, cfg.dropout_bilstm, cfg.dropout_linear) == (2, 0.5, 0.7)
    assert (cfg.hidden_size, cfg.num_layers, cfg.sentence_dim) == (200, 2, 2304)


def test_config_overrides_and_errors(tmp_path):
    cfg = load_config(_write(tmp_path / "o.cfg",
                             "# comment\nhidden_size = 300\nlr=0.001  # inline\n"))
    assert cfg.hidden_size == 300 and cfg.lr == 0.001
    assert cfg.batch_size == 64  # untouched default

    with pytest.raises(ValueError) as err:
        load_config(_write(tmp_path / "bad.cfg", "lr = abc\n"))
    assert "lr" in str(err.value) and "line 1" in str(err.value)

    with pytest.raises(ValueError) as err:
        load_config(_write(tmp_path / "unk.cfg", "momentum = 0.9\n"))
    assert "momentum" in str(err.value)

    with pytest.raises(ValueError):
        load_config(_write(tmp_path / "range.cfg", "dropout_bilstm = 1.0\n"))

    with pytest.raises(ValueError):
        load_config(_write(tmp_path / "noeq.cfg", "just words\n"))


@pytest.mark.parametrize("key, value", [("lr", "nan"), ("lr", "inf"), ("clip_norm", "nan"),
                                        ("clip_norm", "inf"), ("anneal_factor", "-inf")])
def test_config_file_rejects_a_non_finite_value_naming_its_line(tmp_path, key, value):
    p = _write(tmp_path / "c.cfg", f"# comment\nhidden_size = 8\n{key} = {value}\n")
    with pytest.raises(ValueError) as err:
        load_config(p)
    assert str(err.value) == f"{p} line 3: {key} must be finite, got {float(value)}"


def test_config_file_names_the_line_of_a_value_out_of_range(tmp_path):
    p = _write(tmp_path / "c.cfg", "lr = 0.1\n\ndropout_bilstm = 1.0\n")
    with pytest.raises(ValueError) as err:
        load_config(p)
    assert str(err.value) == f"{p} line 3: dropout_bilstm must be in [0, 1), got 1.0"


def test_a_negative_seed_names_its_field_and_its_line(tmp_path):
    with pytest.raises(ValueError) as err:
        TrainConfig(seed=-1)
    assert str(err.value) == "seed must be >= 0, got -1"
    p = _write(tmp_path / "c.cfg", "lr = 0.1\nseed = -1\n")
    with pytest.raises(ValueError) as err:
        load_config(p)
    assert str(err.value) == f"{p} line 2: seed must be >= 0, got -1"


def test_every_config_path_rejects_non_finite_floats():
    for key in ("lr", "clip_norm", "anneal_factor", "dropout_linear"):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrainConfig().replace(**{key: float("inf")})
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrainConfig.from_dict({key: float("nan")})


@pytest.mark.parametrize("field, value, kind", [
    ("seed", 1.5, "int"), ("hidden_size", 2.5, "int"), ("batch_size", 64.0, "int"),
    ("epochs", True, "int"), ("lr", False, "float"), ("lr", "0.1", "float"),
    ("projection_tanh", 1, "bool"), ("dropout_linear", None, "float"),
    ("seed", np.int64(3), "int")])
def test_validate_names_a_field_of_the_wrong_type(field, value, kind):
    """The Python API meets the rule a config file or checkpoint meets: an
    int field takes an int (a numpy integer is none), a float field an int or
    a float, and a bool only a bool field."""
    with pytest.raises(ValueError) as err:
        TrainConfig(**{field: value})
    assert str(err.value) == f"{field} must be of type {kind}, got {value!r}"
    with pytest.raises(ValueError, match=f"{field} must be of type {kind}"):
        TrainConfig().replace(**{field: value})


def test_a_float_field_takes_an_int():
    assert TrainConfig(lr=1, clip_norm=5).lr == 1
    assert TrainConfig.from_dict({"lr": 1}).lr == 1


def test_config_replace_validates():
    with pytest.raises(ValueError):
        TrainConfig().replace(lr=-1.0)
    cfg = TrainConfig().replace(num_layers=1, hidden_size=4)
    assert cfg.num_layers == 1
    assert dataclasses.asdict(cfg) == cfg.to_dict()
    with pytest.raises(dataclasses.FrozenInstanceError):  # checked once, so never changed
        cfg.lr = -1.0


class _Boom(Exception):
    pass


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def test_outputs_are_created_with_the_mode_of_a_plain_open(tmp_path):
    source = _write(tmp_path / "source.txt", "hi 0 0\nho 1 1\n")
    dio.save_word_vectors(["hi"], np.ones((1, 2)), tmp_path / "vectors.txt", source)
    dio.save_checkpoint(_toy_checkpoint(), tmp_path / "model.ckpt")
    for name in ("vectors.txt", "model.ckpt"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~_umask()


def test_a_write_that_raises_leaves_the_old_file_and_no_temporary_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(_Boom):
        with dio.atomic_write(path) as fh:
            fh.write("new, half written")
            fh.flush()
            raise _Boom
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    with dio.atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_write_through_a_symlink_or_into_a_pipe_keeps_the_link_and_the_pipe(tmp_path):
    (tmp_path / "real.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to("real.txt")
    with dio.atomic_write(tmp_path / "link.txt") as fh:
        fh.write("new\n")
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "real.txt").read_text() == "new\n"

    pipe = tmp_path / "report.pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with dio.atomic_write(pipe) as fh:
            fh.write("report\n")
        assert os.read(reader, 100) == b"report\n"
    finally:
        os.close(reader)
    assert pipe.is_fifo()
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt", "report.pipe"]


def test_a_checkpoint_write_that_fails_leaves_the_old_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    dio.save_checkpoint(_toy_checkpoint(), path)
    old = path.read_bytes()
    bad = _toy_checkpoint()
    bad.params["zz"] = np.array(["not a number"])  # sorted last: fails after the others
    with pytest.raises(ValueError):
        dio.save_checkpoint(bad, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["model.ckpt"]
