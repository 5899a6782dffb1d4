import copy
import dataclasses
import json
import re

import numpy as np
import pytest

import toycorpus
from emoconv import rcnn, textprep
from emoconv import sweep as sw
from emoconv import train as tr
from emoconv.config import TrainConfig
from emoconv.dataio import LABEL_TO_INDEX, Conversation, build_embedding_matrix
from emoconv.textprep import Vocabulary

FAST = TrainConfig(lr=0.02, batch_size=4, epochs=2, hidden_size=4, num_layers=1,
                   sentence_dim=0, embedding_dim=6, dropout_bilstm=0.0,
                   dropout_linear=0.0, freeze_embedding_epochs=1,
                   anneal_after_epoch=99)


def _toy_data():
    """Two toy splits and the ``train.RunData`` a sweep over them reads."""
    train_split = toycorpus.make_split("train", 12, seed=100)
    val_split = toycorpus.make_split("val", 8, seed=101)
    return train_split, val_split, tr.RunData.encode(train_split, val_split)


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


def test_sweep_seeds_must_be_distinct_and_non_negative():
    """A repeated seed trained one run twice into one record file and
    counted it twice in the mean and sd; a negative one failed only when
    its cell ran, inside the generator, naming no field."""
    with pytest.raises(ValueError) as err:
        sw.SweepSpec("lr", [0.02], seeds=[0, 0, 1])
    assert str(err.value) == "sweep seed 0 repeats another"
    with pytest.raises(ValueError) as err:
        sw.SweepSpec("lr", [0.02], seeds=[3, -1])
    assert str(err.value) == "sweep seed -1 is negative"


def test_a_sweep_seed_must_be_a_whole_number():
    """A seed of 1.5 used to pass the spec and fail only when its run began."""
    with pytest.raises(ValueError) as err:
        sw.SweepSpec("lr", [0.02], seeds=[0, 1.5])
    assert str(err.value) == "sweep seed 1.5 is not a whole number"
    spec = sw.SweepSpec("lr", [0.02], seeds=[2.0, 1])
    assert spec.seeds == [2, 1] and all(type(s) is int for s in spec.seeds)


def test_sweep_values_must_fit_the_axis_and_differ():
    """An integer axis takes whole numbers only, and no two values may be
    one once converted; either way the error names the value.  Truncating
    4.2 and 4.7 trained batch 4 twice into one record file."""
    spec = sw.SweepSpec("batch_size", [4.0, 6], seeds=[0])
    assert spec.values == [4, 6] and all(isinstance(v, int) for v in spec.values)
    for axis, values, named in (("batch_size", [4.2, 4.7], "4.2"),
                                ("hidden_size", [4, 6.5], "6.5"),
                                ("num_layers", [1, float("nan")], "nan"),
                                ("hidden_size", [4, 6, 4.0], "4.0"),
                                ("lr", [0.01, 0.02, 0.01], "0.01")):
        with pytest.raises(ValueError, match=named):
            sw.SweepSpec(axis, values, seeds=[0, 1])
    assert sw.SweepSpec("lr", [1, 0.5]).values == [1.0, 0.5]


def test_sweep_values_a_config_cannot_take_fail_when_the_spec_is_made():
    """``lr`` -1 or ``hidden_size`` 0 passed the spec and failed only in the
    sweep's loop, after the cells of the values before it had trained."""
    for axis, values, message in (("lr", [0.02, -1], "lr must be positive, got -1.0"),
                                  ("hidden_size", [4, 0], "hidden_size must be >= 1, got 0"),
                                  ("dropout_linear", [0.0, 1], "dropout_linear must be in "
                                                              "[0, 1), got 1.0")):
        with pytest.raises(ValueError) as err:
            sw.SweepSpec(axis, values, seeds=[0])
        assert str(err.value) == message


def test_config_hash_distinguishes_runs():
    a = tr.config_hash(FAST.replace(seed=0))
    b = tr.config_hash(FAST.replace(seed=1))
    c = tr.config_hash(FAST.replace(seed=0, lr=0.01))
    again = tr.config_hash(FAST.replace(seed=0))
    assert a == again and len({a, b, c}) == 3


def test_sweep_shape_and_flag_consistency(tmp_path):
    train_split, val_split, data = _toy_data()
    spec = sw.SweepSpec("lr", [1e-7, 0.02], seeds=[0, 1, 2])
    records, aggregates = sw.run_sweep(spec, FAST, data, tmp_path / "runs")
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


def test_sweep_resumes_from_run_records(tmp_path, monkeypatch):
    train_split, val_split, data = _toy_data()
    runs_dir = tmp_path / "runs"
    spec = sw.SweepSpec("hidden_size", [4], seeds=[0, 1])
    records1, _ = sw.run_sweep(spec, FAST, data, runs_dir)
    cells = sorted(path.parent for path in runs_dir.glob("*/run.json"))
    assert len(cells) == 2

    # tamper with one cell's history; a resumed sweep must trust the file
    history = tr.read_history(cells[0] / "history.tsv")
    for row in history:
        row.val_micro_f1 = 0.123456
    tr.write_history(history, cells[0] / "history.tsv")
    monkeypatch.setattr(tr, "run", lambda *a: pytest.fail("a finished cell was retrained"))
    records2, _ = sw.run_sweep(spec, FAST, data, runs_dir)
    assert 0.123456 in [r.best_val_f1 for r in records2]
    untouched = max(row.val_micro_f1 for row in tr.read_history(cells[1] / "history.tsv"))
    assert untouched in [r.best_val_f1 for r in records2]
    assert untouched in [r.best_val_f1 for r in records1]


def test_sweep_runs_are_deterministic(tmp_path):
    _, _, data = _toy_data()
    spec = sw.SweepSpec("lr", [0.02], seeds=[7])
    (rec1,), _ = sw.run_sweep(spec, FAST, data, tmp_path / "a")
    (rec2,), _ = sw.run_sweep(spec, FAST, data, tmp_path / "b")
    assert rec1 == rec2 and (rec1.value, rec1.seed) == (0.02, 7)
    (cell,) = (tmp_path / "a").iterdir()
    for name in ("model.ckpt", "history.tsv", "run.json"):
        assert (cell / name).read_bytes() == (tmp_path / "b" / cell.name / name).read_bytes()


def test_axis_values_are_coerced(tmp_path):
    """The spec converts a value to its axis's type; the cell's config and
    record, its directory's name and its ``run.json`` read back hold the
    converted value."""
    train_split, val_split, data = _toy_data()
    spec = sw.SweepSpec("batch_size", [6.0], seeds=[3.0])
    records, aggregates = sw.run_sweep(spec, FAST, data, tmp_path)
    (rec,) = records
    assert rec.value == 6 and isinstance(rec.value, int) and aggregates[0]["value"] == 6
    config = FAST.replace(batch_size=6, seed=3)
    assert rec.config_hash == tr.config_hash(config)
    (path,) = tmp_path.glob("*/run.json")
    assert path.parent.name == tr.run_key(config, data)
    loaded = tr.read_run(path)["config"]
    assert loaded == config.to_dict() and isinstance(loaded["batch_size"], int)


def test_baseline_loss_is_over_the_examples_the_runs_train_on(tmp_path):
    train_split, val_split, _ = _toy_data()
    long_turn = " ".join(["so"] * 79)
    assert len(textprep.assemble_input((long_turn, "yay", "um")).tokens) == 83
    train_split.conversations.append(Conversation("long", (long_turn, "yay", "um"), "happy"))
    train_split.label_counts["happy"] += 1
    data = tr.RunData.encode(train_split, val_split)
    kept = [ex.label for ex in data.train_ex]
    assert len(kept) == 12  # the 83-token conversation is filtered out
    (rec,), _ = sw.run_sweep(sw.SweepSpec("lr", [0.02], seeds=[0]), FAST, data, tmp_path)
    assert rec.baseline_loss == tr.uniform_baseline_loss(data.weights, kept)
    every = [LABEL_TO_INDEX[c.label] for c in train_split.conversations]
    assert rec.baseline_loss != tr.uniform_baseline_loss(data.weights, every)


def test_a_final_loss_at_the_baseline_did_not_train_effectively(tmp_path, monkeypatch):
    """The flag asks for a final training loss strictly under the uniform
    baseline: a run that ends exactly at it is flagged, one a step under is
    not.  The record's F1 is the history's best, not its last."""
    _, _, data = _toy_data()
    baseline = tr.uniform_baseline_loss(data.weights, [ex.label for ex in data.train_ex])
    for final_loss, effective in ((baseline, False), (float(np.nextafter(baseline, 0.0)), True)):
        history = [tr.HistoryRow(1, 0.02, 2 * baseline, 0.5, 0.0),
                   tr.HistoryRow(2, 0.02, final_loss, 0.25, 0.0)]
        monkeypatch.setattr(tr, "run_into", lambda *args: history)
        (rec,), _ = sw.run_sweep(sw.SweepSpec("lr", [0.02], seeds=[0]), FAST, data, tmp_path)
        assert (rec.final_train_loss, rec.baseline_loss) == (final_loss, baseline)
        assert rec.trained_effectively is effective and rec.best_val_f1 == 0.5


def test_a_sweep_encodes_nothing_and_matches_per_run_training(tmp_path, monkeypatch):
    train_split, val_split, data = _toy_data()
    texts, splits = toycorpus.count_encoding(monkeypatch)
    spec = sw.SweepSpec("lr", [0.02, 0.001], seeds=[0, 1])
    records, _ = sw.run_sweep(spec, FAST, data, tmp_path / "runs")
    # whether its runs train or are all cached, a sweep reads the encoding it is given
    again, _ = sw.run_sweep(spec, FAST, data, tmp_path / "runs")
    assert (texts, splits) == ([], []) and again == records

    # each record equals one built run by run from the raw splits
    baseline = tr.uniform_baseline_loss(
        data.weights, [LABEL_TO_INDEX[c.label] for c in train_split.conversations])
    for rec in records:
        config = FAST.replace(lr=rec.value, seed=rec.seed)
        rng = np.random.default_rng(rec.seed)
        emb, _ = build_embedding_matrix(data.vocab, {}, config.embedding_dim, rng)
        ckpt, history = toycorpus.train_splits(rcnn.init_model(config, emb, rng), train_split,
                                               val_split, None, config, rng, vocab=data.vocab)
        assert rec == sw.RunRecord(
            axis="lr", value=rec.value, seed=rec.seed,
            config_hash=tr.config_hash(config), best_val_f1=ckpt.best_val_f1,
            final_train_loss=history[-1].train_loss, baseline_loss=baseline,
            trained_effectively=history[-1].train_loss < baseline)


def test_a_second_sweep_over_one_encoding_trains_only_its_new_cells(tmp_path, monkeypatch):
    """``run_sweep`` leaves its ``RunData`` as it was: a second sweep over it,
    with one value more, trains only that value's cells, and its records are
    those of a sweep made afresh."""
    train_split, val_split, data = _toy_data()
    sw.run_sweep(sw.SweepSpec("lr", [0.02], seeds=[0, 1]), FAST, data, tmp_path / "runs")
    trained, run = [], tr.run
    monkeypatch.setattr(tr, "run", lambda config, *a: trained.append(config) or run(config, *a))
    spec = sw.SweepSpec("lr", [0.02, 0.001], seeds=[0, 1])
    records, aggregates = sw.run_sweep(spec, FAST, data, tmp_path / "runs")
    assert [(c.lr, c.seed) for c in trained] == [(0.001, 0), (0.001, 1)]
    assert len(list((tmp_path / "runs").glob("*/run.json"))) == 4
    fresh = sw.run_sweep(spec, FAST, _toy_data()[2], tmp_path / "fresh")
    assert (records, aggregates) == fresh


def test_a_sweep_leaves_its_run_data_as_it_found_it(tmp_path):
    """Nothing a run reads is frozen, so a 2 x 2 sweep over one ``RunData``
    with sentence vectors and word vectors must leave its digest as it was."""
    train_split, val_split, data = _toy_data()
    words = data.vocab.id_to_token[len(textprep.SPECIALS):len(textprep.SPECIALS) + 3]
    data = dataclasses.replace(
        data, store=toycorpus.store_for([train_split, val_split], 3, seed=7),
        pretrained={w: np.full(6, 0.5 + i) for i, w in enumerate(words)})
    digest = data.digest
    spec = sw.SweepSpec("lr", [0.02, 0.001], seeds=[0, 1])
    records, _ = sw.run_sweep(spec, FAST.replace(sentence_dim=3), data, tmp_path)
    assert len(records) == 4 and data.digest == digest


def test_a_sweep_on_other_training_data_retrains_in_the_same_runs_dir(tmp_path):
    train_split, val_split, data = _toy_data()
    other_train = toycorpus.make_split("train", 12, seed=200)
    other = tr.RunData.encode(other_train, val_split)
    spec = sw.SweepSpec("lr", [0.02], seeds=[0, 1])
    first, _ = sw.run_sweep(spec, FAST, data, tmp_path)
    second, aggregates = sw.run_sweep(spec, FAST, other, tmp_path)
    alone, want = sw.run_sweep(spec, FAST, other, tmp_path / "alone")
    assert second == alone and aggregates == want
    assert [r.final_train_loss for r in second] != [r.final_train_loss for r in first]
    assert len(list(tmp_path.glob("*/run.json"))) == 4


def test_a_sweep_over_relabeled_training_rows_never_reuses_the_originals_records(tmp_path):
    """Three training rows relabeled leave the vocabulary and the class
    weights as they were; a sweep keyed by the raw splits beside its
    ``RunData`` reused the original's records and reported F1s trained on
    other labels."""
    train_split, val_split, data = _toy_data()
    rows = copy.deepcopy(train_split)
    for conv, label in zip(rows.conversations, ("sad", "angry", "happy")):
        assert conv.label != label  # rotated: the tokens and label counts stay
        conv.label = label
    relabeled = tr.RunData.encode(rows, val_split)
    assert relabeled.vocab.id_to_token == data.vocab.id_to_token
    assert relabeled.weights.tobytes() == data.weights.tobytes()
    spec = sw.SweepSpec("lr", [0.02], seeds=[0, 1])
    first, _ = sw.run_sweep(spec, FAST, data, tmp_path)
    second = sw.run_sweep(spec, FAST, relabeled, tmp_path)
    assert second == sw.run_sweep(spec, FAST, relabeled, tmp_path / "alone")
    assert [r.final_train_loss for r in second[0]] != [r.final_train_loss for r in first]
    assert len(list(tmp_path.glob("*/run.json"))) == 4


def test_sweep_inputs_digest_covers_what_a_run_reads():
    """A cell's key ends with ``RunData.digest``, which every input a run
    reads moves and a vector no run reads does not."""
    def examples(d):
        return d.vocab.id_to_token, [(ex.id, ex.label, ex.ids.tolist())
                                     for ex in d.train_ex + d.val_ex]

    def encoded(train, **fields):
        fields = {"store": store, "pretrained": {"happy": np.ones(6)}, **fields}
        return dataclasses.replace(tr.RunData.encode(train, val_split), **fields)

    def changed_example(field, value, **fields):
        val_ex = [dataclasses.replace(data.val_ex[0], **{field: value}), *data.val_ex[1:]]
        return dataclasses.replace(data, val_ex=val_ex, **fields)

    train_split, val_split, _ = _toy_data()
    long_turn = " ".join(["so"] * 79)  # over MAX_TRAIN_TOKENS: filtered out of the run
    train_split.conversations.append(Conversation("long", (long_turn, "yay", "um"), "happy"))
    train_split.label_counts["happy"] += 1
    store = toycorpus.store_for([train_split, val_split], 3, seed=5)
    data = encoded(train_split)
    base = data.digest
    assert base == encoded(train_split).digest
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.store = None
    # the long row's vector, and one no split holds, are read by no run
    unread = toycorpus.store_of({**{i: store.get(i) for i in store.row},
                                 "long": np.zeros(3), "x": np.ones(3)})
    assert dataclasses.replace(data, store=unread).digest == base

    # the long row's label moves the class weights alone
    reweighted = copy.deepcopy(train_split)
    reweighted.conversations[-1].label = "sad"
    reweighted.label_counts["happy"] -= 1
    reweighted.label_counts["sad"] += 1
    reweighted = encoded(reweighted)
    assert examples(reweighted) == examples(data)
    moved = copy.deepcopy(store)
    moved.matrix[moved.row[data.train_ex[0].id]] = 0.0
    changed = [
        reweighted,
        changed_example("label", (data.val_ex[0].label + 1) % 4),
        changed_example("ids", data.val_ex[0].ids + 1),
        dataclasses.replace(data, store=moved),
        dataclasses.replace(data, pretrained={"happy": np.zeros(6)}),
        dataclasses.replace(data, pretrained={}),
        dataclasses.replace(data, vocab=Vocabulary(data.vocab.id_to_token + ["x"])),
        # with no store, an id moves the key by itself
        dataclasses.replace(data, store=None),
        changed_example("id", "val9999", store=None),
    ]
    assert len({base, *(d.digest for d in changed)}) == 1 + len(changed)


def test_a_cell_killed_before_its_run_json_is_trained_again(tmp_path, monkeypatch):
    """A cell that dies after writing its checkpoint leaves no ``run.json``
    and no temporary file, and the next sweep trains it again, to the
    records and files of a sweep that was never killed."""
    train_split, val_split, data = _toy_data()
    spec = sw.SweepSpec("lr", [0.02], seeds=[0])

    def killed(*args):
        raise RuntimeError("killed")

    with monkeypatch.context() as patched:
        patched.setattr(tr, "write_history", killed)
        with pytest.raises(RuntimeError):
            sw.run_sweep(spec, FAST, data, tmp_path / "runs")
    (cell,) = (tmp_path / "runs").iterdir()
    assert sorted(p.name for p in cell.iterdir()) == ["model.ckpt"]
    trained, run = [], tr.run
    monkeypatch.setattr(tr, "run", lambda config, *a: trained.append(config) or run(config, *a))
    records = sw.run_sweep(spec, FAST, data, tmp_path / "runs")
    assert [(c.lr, c.seed) for c in trained] == [(0.02, 0)]
    assert records == sw.run_sweep(spec, FAST, data, tmp_path / "whole")
    for name in ("model.ckpt", "history.tsv", "run.json"):
        assert (cell / name).read_bytes() == (tmp_path / "whole" / cell.name / name).read_bytes()


def test_sweep_records_are_whole_and_a_bad_one_names_its_file(tmp_path, monkeypatch):
    """A cell's ``run.json`` and ``history.tsv``, cut short or holding another
    run, are reported naming the file, not trained over."""
    train_split, val_split, data = _toy_data()
    spec = sw.SweepSpec("lr", [0.02], seeds=[0])
    records, _ = sw.run_sweep(spec, FAST, data, tmp_path)
    (cell,) = tmp_path.iterdir()
    # no temporary file is left beside the run's three files
    assert sorted(p.name for p in cell.iterdir()) == ["history.tsv", "model.ckpt", "run.json"]
    run_json, history = cell / "run.json", cell / "history.tsv"
    whole, rows = run_json.read_bytes(), history.read_bytes()
    fields = tr.read_run(run_json)
    assert fields["key"] == cell.name and fields["select"] == "best"
    assert max(r.val_micro_f1 for r in tr.read_history(history)) == records[0].best_val_f1

    rng = np.random.default_rng(0)
    cuts = {0, 1, len(whole) - 2, len(whole) - 1, *rng.integers(2, len(whole) - 2, 20)}
    for cut in sorted(cuts):
        run_json.write_bytes(whole[:cut])
        if cut == len(whole) - 1:  # only the final newline is gone
            assert tr.read_run(run_json) == fields
            continue
        with pytest.raises(ValueError, match=re.escape(str(run_json))):
            tr.read_run(run_json)
    run_json.write_bytes(whole)
    # a history cut inside a row names that row's line; the header alone, line 2
    lines = rows.decode().splitlines(keepends=True)
    for keep in range(len(lines)):
        history.write_text("".join(lines[:keep]) + lines[keep][:-8])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(history))} line {keep + 1}: "):
            tr.read_history(history)
    history.write_text(lines[0])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(history))} line 2: expected epoch 1,"):
        tr.read_history(history)

    # the sweep reports such a file rather than retraining over it
    monkeypatch.setattr(tr, "run", lambda *a: pytest.fail("a bad cell was retrained"))
    with pytest.raises(ValueError, match=re.escape(str(history))):
        sw.run_sweep(spec, FAST, data, tmp_path)
    history.write_bytes(rows)
    for bad in ("[1, 2]", json.dumps({**fields, "select": "last"}),
                json.dumps({**fields, "key": "0" * 33}), whole.decode()[:-3]):
        run_json.write_text(bad)
        with pytest.raises(ValueError, match=re.escape(str(run_json))):
            sw.run_sweep(spec, FAST, data, tmp_path)
