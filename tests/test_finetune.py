import dataclasses
import os
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import toycorpus
from emoconv import finetune as ft
from emoconv import layers as L
from emoconv import rcnn
from emoconv import tensor as T
from emoconv import train as tr
from emoconv.textprep import TokenSequence, Vocabulary, build_vocab


def _corpus(n, seed, positive="good", held_out=0):
    """Texts labeled by the presence of one keyword."""
    rng = np.random.default_rng(seed)
    filler = ["movie", "was", "so", "very", "the", "plot", "acting", "music"]
    rows = []
    for i in range(n + held_out):
        words = [filler[j] for j in rng.integers(0, len(filler), rng.integers(3, 7))]
        label = int(i % 2 == 0)
        if label:
            words.insert(int(rng.integers(0, len(words) + 1)), positive)
        rows.append((" ".join(words), label))
    return rows[:n], rows[n:]


def _setup(seed=0, dim=8, filters=8, corpus_size=60, held_out=0):
    corpus, held = _corpus(corpus_size, seed, held_out=held_out)
    vocab = build_vocab([TokenSequence(t.split()) for t, _ in corpus])
    rng = np.random.default_rng(seed)
    emb_vals = np.vstack([np.zeros(dim), rng.uniform(-0.1, 0.1, (vocab.size - 1, dim))])
    emb = L.EmbeddingMatrix.from_array(emb_vals)
    model = ft.build_finetune_model(emb, rng, filters_per_size=filters)
    return model, corpus, held, vocab, rng


def test_model_shapes_and_param_count():
    rng = np.random.default_rng(0)
    emb = L.EmbeddingMatrix.from_array(rng.uniform(-0.1, 0.1, (20, 100)))
    model = ft.build_finetune_model(emb, rng)
    bank_params = sum(t.size for name, t in model.named().items() if name.startswith("conv_"))
    assert bank_params == 180900
    assert [model.named()[f"conv_k{k}.w"].shape for k in (1, 2, 3)] == \
        [(300, 100), (300, 200), (300, 300)]
    assert model.named()["output.w"].shape == (1, 900)
    assert list(model.named()) == ["embedding.table", "conv_k1.w", "conv_k1.b",
                                   "conv_k2.w", "conv_k2.b", "conv_k3.w",
                                   "conv_k3.b", "output.w", "output.b"]


def test_forward_probability_range_and_zero_init():
    """forward_finetune returns one logit per row, a [B x 1] column whose
    sigmoid is the positive class's probability.  A zero output layer gives
    logits 0, probability 1/2, which predict_finetune calls positive."""
    model, corpus, _, vocab, rng = _setup()
    rows = [vocab.ids(text.split()) for text, _ in corpus[:10]]
    logits = ft.forward_finetune(model, rcnn.Batch.of_rows(rows), False, None).values
    assert logits.shape == (10, 1)
    probs = T.sigmoid_(logits.copy())
    assert ((0.0 < probs) & (probs < 1.0)).all()

    model.named()["output.w"].values[:] = 0.0
    model.named()["output.b"].values[:] = 0.0
    npt.assert_array_equal(ft.forward_finetune(model, rcnn.Batch.of_rows(rows[:5]), False,
                                               None).values,
                           np.zeros((5, 1)))
    assert ft.predict_finetune(model, [(ids, 0) for ids in rows[:5]]).tolist() == [1] * 5


def test_binary_cross_entropy_values_and_gradient():
    """The mean of softplus(z) - y*z over a [B x 1] logit column, and its
    gradient against finite differences, logits of 40 against their label
    among them: there the loss on sigmoid probabilities, each log floored
    at 1e-12, passed exactly zero gradient."""
    half = T.constant(np.zeros((2, 1)))
    npt.assert_allclose(ft.binary_cross_entropy(half, [1, 0]).item(), np.log(2))
    # a confident right answer costs nothing, a confident wrong one its logit
    far = T.constant(np.array([[800.0], [-800.0]]))
    assert ft.binary_cross_entropy(far, [1, 0]).item() == 0.0
    assert ft.binary_cross_entropy(far, [0, 1]).item() == 800.0

    with pytest.raises(ValueError):
        ft.binary_cross_entropy(half, [1, 0, 1])
    with pytest.raises(ValueError):
        ft.binary_cross_entropy(T.constant(np.zeros(2)), [1, 0])  # a column, not a vector

    rng = np.random.default_rng(3)
    for z, labels in ((rng.uniform(-1, 1, (6, 1)), [1, 0, 1, 1, 0, 0]),
                      (np.array([[40.0], [-40.0], [40.0]]), [0, 1, 1])):
        logits = T.Tensor(z, requires_grad=True)
        assert T.finite_diff_check(lambda ps: ft.binary_cross_entropy(ps[0], labels),
                                   [logits], eps=1e-5) < 1e-6
    npt.assert_array_equal(logits.grad, [[1 / 3], [-1 / 3], [0.0]])


def test_encode_corpus_validation():
    vocab = build_vocab([TokenSequence(["good", "bad"])])
    encoded = ft.encode_corpus([("Good!", 1), ("bad", 0)], vocab)
    assert [y for _, y in encoded] == [1, 0]
    with pytest.raises(ValueError):
        ft.encode_corpus([("fine", 2)], vocab)
    with pytest.raises(ValueError):
        ft.encode_corpus([], vocab)
    with pytest.raises(ValueError):
        ft.encode_corpus([("", 1)], vocab)


@pytest.mark.parametrize("fields, message", [
    ({"frozen_epochs": -1}, "frozen_epochs must be >= 0, got -1"),
    ({"unfrozen_epochs": -5}, "unfrozen_epochs must be >= 0, got -5"),
    ({"frozen_epochs": 0, "unfrozen_epochs": 0},
     "frozen_epochs + unfrozen_epochs must be >= 1, got 0"),
    ({"lr": float("nan")}, "lr must be finite and > 0, got nan"),
    ({"lr": float("inf")}, "lr must be finite and > 0, got inf"),
    ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
    ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"frozen_epochs": 1.5}, "frozen_epochs must be of type int, got 1.5"),
    ({"batch_size": 2.5}, "batch_size must be of type int, got 2.5"),
    ({"dim": True}, "dim must be of type int, got True"),
    ({"lr": "0.1"}, "lr must be of type float, got '0.1'"),
])
def test_a_schedule_that_cannot_train_names_its_field(fields, message):
    with pytest.raises(ValueError) as err:
        ft.FinetuneSchedule(**fields)
    assert str(err.value) == message


@pytest.mark.parametrize("sizes, message", [
    ({"dim": 0}, "dim must be >= 1, got 0"),
    ({"filters_per_size": 0}, "filters_per_size must be >= 1, got 0"),
])
def test_a_run_without_width_or_filters_names_the_size_before_drawing(sizes, message):
    """The sizes are the schedule's, so a run cannot start with a bad one."""
    with pytest.raises(ValueError) as err:
        ft.FinetuneSchedule(**{"dim": 4, "filters_per_size": 2, **sizes})
    assert str(err.value) == message


def test_the_run_empties_the_word_vectors_once_the_table_holds_them(tmp_path, monkeypatch):
    """The run reads the vocabulary's rows of its vectors file itself, and
    none of them, nor the matrix that holds them, lives into training."""
    vocab = build_vocab([TokenSequence(["good", "bad"])])
    encoded = ft.encode_corpus([("good", 1), ("bad", 0)], vocab)
    toycorpus.write_word_vectors(["good", "other"], np.full((2, 4), 0.5), tmp_path / "vec.txt")
    refs, alive = [], []
    load, finetune_encoded = ft.load_word_vectors, ft.finetune_encoded

    def loaded(*args, **kwargs):
        vectors = load(*args, **kwargs)
        refs.extend(weakref.ref(v) for v in vectors.values())
        refs.append(weakref.ref(next(iter(vectors.values())).base))
        return vectors

    def entered(*args, **kwargs):
        alive.append(sum(r() is not None for r in refs))
        return finetune_encoded(*args, **kwargs)

    monkeypatch.setattr(ft, "load_word_vectors", loaded)
    monkeypatch.setattr(ft, "finetune_encoded", entered)
    model, losses = ft.run(ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=0, dim=4,
                                               filters_per_size=2), 0,
                           ft.FinetuneData(vocab, encoded, str(tmp_path / "vec.txt")))
    assert len(refs) == 1 + 1 and alive == [0] and len(losses) == 1
    npt.assert_array_equal(model.emb.table.values[vocab.token_to_id["good"]], np.full(4, 0.5))


def test_frozen_epoch_keeps_embedding_bit_identical(monkeypatch):
    model, corpus, _, vocab, rng = _setup(seed=5)
    before = model.emb.table.values.copy()
    model.emb.table.values.flags.writeable = False  # a write to the frozen table would raise
    adam_step, states = tr.adam_step, []

    def recording_step(state, named, lr):
        states.append(state)
        adam_step(state, named, lr)

    monkeypatch.setattr(tr, "adam_step", recording_step)
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=0, lr=0.01,
                                   batch_size=16)
    emb, losses = ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert len(losses) == 1
    npt.assert_array_equal(emb.table.values, before)
    assert "embedding.table" not in states[-1].m  # the frozen epoch made no moments
    assert states[-1].m["output.w"].any()
    assert len({id(state) for state in states}) == 1
    model.emb.table.values.flags.writeable = True
    _assert_table_unfrozen(model.emb)


def _assert_table_unfrozen(emb):
    assert emb.table.requires_grad is True
    assert L.embedding_lookup(emb, [1]).requires_grad


def test_the_freeze_switch_is_restored_after_frozen_epochs_and_errors(monkeypatch):
    model, corpus, _, vocab, rng = _setup(seed=8)
    schedule = ft.FinetuneSchedule(frozen_epochs=2, unfrozen_epochs=0, lr=0.01,
                                   batch_size=16)
    _, losses = ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert len(losses) == 2
    _assert_table_unfrozen(model.emb)

    forward, calls = ft.forward_finetune, []

    def failing_forward(*args):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("forward failed")
        return forward(*args)

    monkeypatch.setattr(ft, "forward_finetune", failing_forward)
    with pytest.raises(RuntimeError):
        ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    _assert_table_unfrozen(model.emb)


def test_non_finite_gradient_names_epoch_and_step(monkeypatch):
    model, corpus, _, vocab, rng = _setup(seed=9, corpus_size=16)
    backward, calls = T.backward, []

    def poisoned_backward(loss):
        backward(loss)
        calls.append(1)
        model.named()["output.w"].grad[0, 0] = np.nan

    monkeypatch.setattr(T, "backward", poisoned_backward)
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01,
                                   batch_size=8)
    with pytest.raises(ValueError) as err:
        ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert str(err.value) == "epoch 1, step 1: non-finite gradient in parameter 'output.w'"
    assert len(calls) == 1
    assert np.isfinite(model.named()["output.w"].values).all()


def test_a_nan_conv_weight_stops_at_the_first_gradient_check():
    # the NaN pools in every row, and its column's gradient finds its cell
    model, corpus, _, vocab, rng = _setup(seed=9, corpus_size=16)
    model.named()["conv_k2.w"].values[0, 0] = np.nan
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01,
                                   batch_size=8)
    with pytest.raises(ValueError) as err:
        ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    assert str(err.value).startswith("epoch 1, step 1: non-finite gradient in parameter ")


def test_unfrozen_epochs_touch_only_corpus_rows():
    model, corpus, _, vocab, rng = _setup(seed=6)
    # an extra vocabulary row no corpus text references
    vocab = Vocabulary([*vocab.id_to_token, "neverused"])
    absent_id = vocab.size - 1
    dim = model.emb.dim
    grown = np.vstack([model.emb.table.values,
                       np.random.default_rng(1).uniform(-0.1, 0.1, (1, dim))])
    model.emb = L.EmbeddingMatrix.from_array(grown)
    before = model.emb.table.values.copy()

    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=2, lr=0.01,
                                   batch_size=16)
    emb, losses = ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    used = sorted({i for ids, _ in ft.encode_corpus(corpus, vocab) for i in ids})
    assert not np.array_equal(emb.table.values[used], before[used])
    npt.assert_array_equal(emb.table.values[absent_id], before[absent_id])
    npt.assert_array_equal(emb.table.values[0], before[0])  # PAD untouched
    assert losses[-1] < losses[0]


def test_finetune_learns_the_separating_keyword():
    model, corpus, held, vocab, rng = _setup(seed=7, corpus_size=80, held_out=20)
    schedule = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=3, lr=0.02,
                                   batch_size=16)
    ft.finetune_embeddings(model, corpus, schedule, rng, vocab=vocab)
    encoded_held = ft.encode_corpus(held, vocab)
    preds = ft.predict_finetune(model, encoded_held)
    accuracy = float(np.mean(preds == [y for _, y in encoded_held]))
    assert accuracy >= 0.9, f"held-out accuracy {accuracy}"


def test_load_finetune_corpus(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("text\tlabel\nliked it\t1\nmeh\t0\n", encoding="utf-8")
    assert ft.load_finetune_corpus(p) == [("liked it", 1), ("meh", 0)]

    bad = tmp_path / "bad.tsv"
    bad.write_text("text\tlabel\nliked it\t2\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ft.load_finetune_corpus(bad)
    assert "line 2" in str(err.value)

    noheader = tmp_path / "nh.tsv"
    noheader.write_text("liked it\t1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ft.load_finetune_corpus(noheader)


def test_load_finetune_corpus_rejects_a_nul_character_naming_the_line(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("text\tlabel\nliked it\t1\nme\0h\t0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ft.load_finetune_corpus(p)
    assert str(err.value).startswith(f"{p} line 3: NUL character")


# ---------------------------------------------------------------------------
# The run directory: ft.run_into through train.write_run

SMALL = ft.FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=1, lr=0.01, batch_size=8, dim=4,
                            filters_per_size=2)


def _data(tmp_path, corpus="text\tlabel\ngood movie\t1\nbad plot\t0\ngood plot\t1\n",
          vectors=("good 0.1 0.2 0.3 0.4", "unseen 1.0 2.0 3.0 4.0")):
    """The FinetuneData of a corpus and a vectors file written into ``tmp_path``."""
    (tmp_path / "corpus.tsv").write_text(corpus, encoding="utf-8")
    (tmp_path / "vec.txt").write_text("".join(line + "\n" for line in vectors), encoding="utf-8")
    return ft.FinetuneData.read(tmp_path / "corpus.tsv", tmp_path / "vec.txt")


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _no_step(monkeypatch):
    """Fail at any draw or epoch of a fine-tuning run."""
    monkeypatch.setattr(ft, "seeded_table", lambda *a: pytest.fail("a generator was seeded"))
    monkeypatch.setattr(ft, "run_epochs", lambda *a, **k: pytest.fail("an epoch ran"))


def test_a_finetune_run_directory_holds_the_vectors_the_losses_then_its_record(tmp_path):
    data = _data(tmp_path)
    losses = ft.run_into(tmp_path / "out", SMALL, 3, data)
    model, again = ft.run(SMALL, 3, data)
    assert losses == again and len(losses) == 2
    files = _files(tmp_path / "out")
    assert sorted(files) == ["losses.tsv", "run.json", "vectors.txt"]
    assert files["losses.tsv"].decode() == ft.format_losses(losses)
    assert ft.read_losses(tmp_path / "out" / "losses.tsv") == losses
    assert tr.read_run(tmp_path / "out" / "run.json") == {
        "key": ft.run_key(SMALL, 3, data), "schedule": dataclasses.asdict(SMALL), "seed": 3}
    assert files["vectors.txt"].decode().splitlines()[-1] == "unseen 1.0 2.0 3.0 4.0"


def test_finetune_into_another_runs_directory_fails_before_its_first_step(tmp_path, monkeypatch):
    """A directory holding another key's ``run.json``, of another seed or of
    a classifier run, is refused naming the file and both runs, and left as
    it was, before anything is drawn."""
    data = _data(tmp_path)
    ft.run_into(tmp_path / "out", SMALL, 3, data)
    before = _files(tmp_path / "out")
    key = ft.run_key(SMALL, 3, data)
    _no_step(monkeypatch)
    with pytest.raises(ValueError) as err:
        ft.run_into(tmp_path / "out", SMALL, 4, data)
    assert str(err.value) == (f"{tmp_path / 'out' / 'run.json'} holds the run {key} (seed 3), "
                              f"not {ft.run_key(SMALL, 4, data)} (seed 4)")
    assert _files(tmp_path / "out") == before
    classifier = tmp_path / "classifier"
    classifier.mkdir()
    (classifier / "run.json").write_text('{"config": {}, "key": "abc_def", "select": "best"}\n')
    with pytest.raises(ValueError) as err:
        ft.run_into(classifier, SMALL, 3, data)
    assert str(err.value) == (f"{classifier / 'run.json'} holds the run abc_def (select best), "
                              f"not {key} (seed 3)")
    assert sorted(p.name for p in classifier.iterdir()) == ["run.json"]


def test_a_finished_finetune_directory_is_reused(tmp_path, monkeypatch):
    """The same run into its directory again takes no step, changes no byte
    and returns the very losses of the first run."""
    data = _data(tmp_path)
    first = ft.run_into(tmp_path / "out", SMALL, 3, data)
    before = _files(tmp_path / "out")
    _no_step(monkeypatch)
    assert ft.run_into(tmp_path / "out", SMALL, 3, data) == first
    assert _files(tmp_path / "out") == before


def test_a_finetune_directory_without_its_record_trains_again(tmp_path, monkeypatch):
    """Outputs without ``run.json`` are an unfinished run: the next run into
    the directory trains and writes every file again, the record last."""
    data = _data(tmp_path)
    ft.run_into(tmp_path / "whole", SMALL, 3, data)
    out = tmp_path / "out"
    out.mkdir()
    (out / "vectors.txt").write_text("cut short\n")
    (out / "losses.tsv").write_text("epoch\tloss\n")
    trained, run = [], ft.run
    monkeypatch.setattr(ft, "run", lambda *args: trained.append(args[1]) or run(*args))
    ft.run_into(out, SMALL, 3, data)
    assert trained == [3]
    assert _files(out) == _files(tmp_path / "whole")


@pytest.mark.parametrize("change", ["corpus", "copied_vector", "seed", *(
    f.name for f in dataclasses.fields(ft.FinetuneSchedule))])
def test_the_finetune_key_follows_everything_the_run_reads(tmp_path, change):
    """One byte of the corpus, one byte of a vectors line the corpus lacks
    (which ``vectors.txt`` copies), the seed and each schedule field each
    move the key."""
    corpus = "text\tlabel\ngood movie\t1\nbad plot\t0\n"
    vectors = ("good 0.1 0.2 0.3 0.4", "unseen 1.0 2.0 3.0 4.0")
    schedule, seed = SMALL, 3
    key = ft.run_key(schedule, seed, _data(tmp_path, corpus, vectors))
    if change == "corpus":
        corpus = corpus.replace("movie", "movia")
    elif change == "copied_vector":
        vectors = (vectors[0], "unseen 1.0 2.0 3.0 4.1")
    elif change == "seed":
        seed = 4
    else:
        schedule = dataclasses.replace(schedule, **{change: getattr(schedule, change) * 2})
    data = _data(tmp_path, corpus, vectors)
    assert ft.run_key(schedule, seed, data) != key
    assert ft.run_key(schedule, seed, data) == ft.run_key(schedule, seed, data)


def test_the_input_step_refuses_a_pipe_for_the_vectors_before_reading(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValueError) as err:
        ft.FinetuneData.read(tmp_path / "missing.tsv", fifo)
    assert str(err.value) == (f"{fifo}: not a regular file; it is read again, after tuning, "
                              "for the vectors the corpus lacks")
