import copy
import json
import re

import numpy as np
import pytest

import toycorpus
from emoconv import rcnn
from emoconv import sweep as sw
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.dataio import LABEL_TO_INDEX, build_embedding_matrix

FAST = TrainConfig(lr=0.02, batch_size=4, epochs=2, hidden_size=4, num_layers=1,
                   sentence_dim=0, embedding_dim=6, dropout_bilstm=0.0,
                   dropout_linear=0.0, freeze_embedding_epochs=1,
                   anneal_after_epoch=99)


def _toy_data():
    train_split = toycorpus.make_split("train", 12, seed=100)
    val_split = toycorpus.make_split("val", 8, seed=101)
    vocab = toycorpus.vocab_for(train_split, val_split)
    return train_split, val_split, vocab


def list_rows(split):
    """The split's token rows in a list, as ``run_sweep`` takes them."""
    return list(tr.split_rows(split))


def test_sweep_spec_validation():
    spec = sw.SweepSpec("lr", [1e-4, 5e-4])
    assert spec.seeds == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError) as err:
        sw.SweepSpec("optimizer", [1])
    assert "hidden_size" in str(err.value)
    with pytest.raises(ValueError):
        sw.SweepSpec("lr", [])
    with pytest.raises(ValueError):
        sw.SweepSpec("lr", [1e-4], seeds=[])


def test_config_hash_distinguishes_runs():
    a = sw.config_hash(FAST.replace(seed=0))
    b = sw.config_hash(FAST.replace(seed=1))
    c = sw.config_hash(FAST.replace(seed=0, lr=0.01))
    again = sw.config_hash(FAST.replace(seed=0))
    assert a == again and len({a, b, c}) == 3


def test_sweep_shape_and_flag_consistency(tmp_path):
    train_split, val_split, vocab = _toy_data()
    spec = sw.SweepSpec("lr", [1e-7, 0.02], seeds=[0, 1, 2])
    records, aggregates = sw.run_sweep(spec, FAST, train_split, val_split, None,
                                       vocab, list_rows(train_split),
                                       runs_dir=tmp_path / "runs")
    assert len(records) == 6 and len(aggregates) == 2
    for rec in records:
        assert rec.trained_effectively == (rec.final_train_loss < rec.baseline_loss)
    by_value = {row["value"]: row for row in aggregates}
    assert set(by_value) == {1e-7, 0.02}
    assert all(row["runs"] == 3 for row in aggregates)
    # the tiny-lr runs cannot move the loss, the healthy-lr runs can
    slow = [r for r in records if r.value == 1e-7]
    assert all(abs(r.final_train_loss - r.baseline_loss) < 0.05 for r in slow)

    report = sw.format_sweep_report(aggregates)
    lines = report.strip().split("\n")
    assert lines[0].startswith("axis\tvalue\tmean_val_f1")
    assert len(lines) == 3


def test_sweep_resumes_from_run_records(tmp_path):
    train_split, val_split, vocab = _toy_data()
    runs_dir = tmp_path / "runs"
    spec = sw.SweepSpec("hidden_size", [4], seeds=[0, 1])
    records1, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                               list_rows(train_split), runs_dir=runs_dir)
    files = sorted(runs_dir.glob("run_*.json"))
    assert len(files) == 2

    # tamper with one stored record; a resumed sweep must trust the file
    data = json.loads(files[0].read_text())
    data["best_val_f1"] = 0.123456
    files[0].write_text(json.dumps(data, sort_keys=True) + "\n")
    records2, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                               list_rows(train_split), runs_dir=runs_dir)
    assert 0.123456 in [r.best_val_f1 for r in records2]
    untouched = json.loads(files[1].read_text())
    assert untouched["best_val_f1"] in [r.best_val_f1 for r in records2]


def test_sweep_runs_are_deterministic():
    train_split, val_split, vocab = _toy_data()
    data = sw.SweepData.encode(train_split, val_split, vocab,
                               list_rows(train_split))
    rec1 = sw.run_one(FAST, "lr", 0.02, 7, data, None, vocab)
    rec2 = sw.run_one(FAST, "lr", 0.02, 7, data, None, vocab)
    assert rec1 == rec2


def test_axis_values_are_coerced():
    train_split, val_split, vocab = _toy_data()
    data = sw.SweepData.encode(train_split, val_split, vocab,
                               list_rows(train_split))
    rec = sw.run_one(FAST, "batch_size", 6.0, 3, data, None, vocab)
    assert rec.value == 6 and isinstance(rec.value, int)


def test_sweep_encodes_once_and_matches_per_run_training(tmp_path, monkeypatch):
    train_split, val_split, vocab = _toy_data()
    calls = []
    encode_split = tr.encode_split
    monkeypatch.setattr(tr, "encode_split",
                        lambda *a: calls.append(a[0].name) or encode_split(*a))
    spec = sw.SweepSpec("lr", [0.02, 0.001], seeds=[0, 1])
    rows = list_rows(train_split)
    records, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                              rows, runs_dir=tmp_path / "runs")
    assert calls == ["train", "val"]
    assert rows == []  # the tokens do not outlive the encoding

    # a resumed sweep whose records are all cached encodes nothing
    calls.clear()
    rows = list_rows(train_split)
    again, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                            rows, runs_dir=tmp_path / "runs")
    assert calls == [] and again == records
    assert len(rows) == len(train_split.conversations)

    # each record equals one built run by run from the raw splits
    weights = tr.compute_class_weights(train_split.label_counts, val_split.label_counts)
    baseline = tr.uniform_baseline_loss(
        weights, [LABEL_TO_INDEX[c.label] for c in train_split.conversations])
    for rec in records:
        config = FAST.replace(lr=rec.value, seed=rec.seed)
        rng = np.random.default_rng(rec.seed)
        emb, _ = build_embedding_matrix(vocab, {}, config.embedding_dim, rng)
        ckpt, history = toycorpus.train_splits(rcnn.init_model(config, emb, rng), train_split,
                                               val_split, None, config, rng, vocab=vocab)
        assert rec == sw.RunRecord(
            axis="lr", value=rec.value, seed=rec.seed,
            config_hash=sw.config_hash(config), best_val_f1=ckpt.best_val_f1,
            final_train_loss=history[-1].train_loss, baseline_loss=baseline,
            trained_effectively=history[-1].train_loss < baseline)


def test_a_sweep_on_other_training_data_retrains_in_the_same_runs_dir(tmp_path):
    train_split, val_split, vocab = _toy_data()
    other_train = toycorpus.make_split("train", 12, seed=200)
    other_vocab = toycorpus.vocab_for(other_train, val_split)
    spec = sw.SweepSpec("lr", [0.02], seeds=[0, 1])
    first, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                            list_rows(train_split), runs_dir=tmp_path)
    second, aggregates = sw.run_sweep(spec, FAST, other_train, val_split, None,
                                      other_vocab, list_rows(other_train),
                                      runs_dir=tmp_path)
    alone, want = sw.run_sweep(spec, FAST, other_train, val_split, None, other_vocab,
                               list_rows(other_train))
    assert second == alone and aggregates == want
    assert [r.final_train_loss for r in second] != [r.final_train_loss for r in first]
    assert len(list(tmp_path.glob("run_*.json"))) == 4


def test_sweep_inputs_digest_covers_what_a_run_reads():
    train_split, val_split, vocab = _toy_data()
    store = toycorpus.store_for([train_split, val_split], 3, seed=5)
    pretrained = {"happy": np.ones(6)}
    base = sw._inputs_digest(train_split, val_split, vocab, store, pretrained)
    assert base == sw._inputs_digest(train_split, val_split, vocab, store,
                                     {"happy": np.ones(6)})
    relabeled = copy.deepcopy(val_split)
    relabeled.conversations[0].label = "others"
    moved = copy.deepcopy(store)
    moved.vectors[train_split.conversations[0].id] = np.zeros(3)
    changed = [
        sw._inputs_digest(train_split, relabeled, vocab, store, pretrained),
        sw._inputs_digest(train_split, val_split, vocab, moved, pretrained),
        sw._inputs_digest(train_split, val_split, vocab, None, pretrained),
        sw._inputs_digest(train_split, val_split, vocab, store, {"happy": np.zeros(6)}),
        sw._inputs_digest(train_split, val_split, vocab, store, None),
    ]
    assert len({base, *changed}) == 1 + len(changed)


def test_sweep_records_are_whole_and_a_bad_one_names_its_file(tmp_path):
    train_split, val_split, vocab = _toy_data()
    spec = sw.SweepSpec("lr", [0.02], seeds=[0])
    records, _ = sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                              list_rows(train_split), runs_dir=tmp_path)
    (path,) = tmp_path.iterdir()  # no temporary file is left beside the record
    whole = path.read_bytes()
    assert sw.load_record(path) == records[0]

    rng = np.random.default_rng(0)
    cuts = {0, 1, len(whole) - 2, len(whole) - 1, *rng.integers(2, len(whole) - 2, 20)}
    for cut in sorted(cuts):
        path.write_bytes(whole[:cut])
        if cut == len(whole) - 1:  # only the final newline is gone
            assert sw.load_record(path) == records[0]
            continue
        with pytest.raises(ValueError, match=re.escape(str(path))):
            sw.load_record(path)

    fields = json.loads(whole)
    for bad in ([1, 2], {**fields, "extra": 1},
                {k: v for k, v in fields.items() if k != "seed"}):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            sw.load_record(path)
    # the sweep reports such a record rather than retraining over it
    with pytest.raises(ValueError, match=re.escape(str(path))):
        sw.run_sweep(spec, FAST, train_split, val_split, None, vocab,
                     list_rows(train_split), runs_dir=tmp_path)
