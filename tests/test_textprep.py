import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import golden
import oracle
import toycorpus
from emoconv import dataio
from emoconv import finetune as ft
from emoconv import textprep as tp
from emoconv import train as tr


def test_clean_text_collapses_same_char_punctuation():
    assert tp.clean_text("wow!!!   nice") == "wow! nice"
    assert tp.clean_text("a  b") == "a b"
    assert tp.clean_text("a!?!?") == "a!?!?"  # alternation is not a run
    assert tp.clean_text("  hi there\t\n") == "hi there"
    assert tp.clean_text("") == ""
    assert tp.clean_text("so....  many,,, dots") == "so. many, dots"
    # letter runs are not punctuation runs
    assert tp.clean_text("soooo happy") == "soooo happy"


def test_clean_text_is_idempotent():
    rng = np.random.default_rng(17)
    alphabet = list("ab !?.,:;🙂'\"-")
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(rng.integers(0, 40)))
        once = tp.clean_text(s)
        assert tp.clean_text(once) == once


def test_tokenize_contractions_and_punctuation():
    assert tp.tokenize("I'm sad!") == ["i", "'m", "sad", "!"]
    assert tp.tokenize("") == []
    assert tp.tokenize("hello there") == ["hello", "there"]
    assert tp.tokenize("don't you'll we've he's they're i'd") == \
        ["do", "n't", "you", "'ll", "we", "'ve", "he", "'s", "they", "'re", "i", "'d"]
    assert tp.tokenize("well.ok") == ["well", ".", "ok"]
    assert tp.tokenize("Hey 🙂🙂") == ["hey", "🙂", "🙂"]
    assert tp.tokenize("its'") == ["its", "'"]
    assert tp.tokenize("C'mon 2day") == ["c", "'", "mon", "2day"]


def test_assemble_input_joins_with_eos():
    seq = tp.assemble_input(("hi", "hello", "why"))
    assert seq.tokens == ["hi", tp.EOS_TOKEN, "hello", tp.EOS_TOKEN, "why"]
    assert len(seq.tokens) == 5

    empty_mid = tp.assemble_input(("hi", "", "why"))
    assert empty_mid.tokens == ["hi", tp.EOS_TOKEN, tp.EOS_TOKEN, "why"]
    with pytest.raises(ValueError):
        tp.assemble_input(("a", "b"))


def test_assemble_input_always_has_two_eos():
    rng = np.random.default_rng(23)
    words = ["ok", "fine!", "", "why not", "no...", "yes!!"]
    for _ in range(100):
        turns = tuple(words[rng.integers(len(words))] for _ in range(3))
        seq = tp.assemble_input(turns)
        assert seq.tokens.count(tp.EOS_TOKEN) == 2


def test_build_vocab_first_occurrence_order():
    seqs = [tp.TokenSequence(["a", "b"]), tp.TokenSequence(["b", "c"])]
    vocab = tp.build_vocab(seqs)
    assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, tp.EOS_TOKEN: 2,
                                 "a": 3, "b": 4, "c": 5}
    assert vocab.size == 6

    empty = tp.build_vocab([])
    assert empty.id_to_token == list(tp.SPECIALS)

    again = tp.build_vocab(seqs)
    assert again.token_to_id == vocab.token_to_id


def test_eos_in_sequences_maps_to_reserved_id():
    seqs = [tp.assemble_input(("a b", "c", "a"))]
    vocab = tp.build_vocab(seqs)
    ids = vocab.ids(seqs[0].tokens)
    assert ids.dtype == np.int64
    assert ids.tolist() == [3, 4, tp.EOS_ID, 5, tp.EOS_ID, 3]


def test_vocabulary_ids_unk_only_off_train():
    train = [tp.TokenSequence(["a", "b"]), tp.TokenSequence(["b", "c"])]
    vocab = tp.build_vocab(train)
    for seq in train:
        assert tp.UNK_ID not in vocab.ids(seq.tokens)
    assert vocab.ids(["a", "zzz"]).tolist() == [3, tp.UNK_ID]
    assert vocab.ids([]).dtype == np.int64 and vocab.ids([]).shape == (0,)


def test_pipeline_deterministic_end_to_end():
    turns = ("Wow!!! I'm SO happy :)", "me   too!!", "don't ask why...")
    a, b = (tp.assemble_input(turns) for _ in range(2))
    assert a.tokens == b.tokens
    npt.assert_array_equal(tp.build_vocab([a]).ids(a.tokens), tp.build_vocab([b]).ids(b.tokens))


# ---------------------------------------------------------------------------
# The chunked tokenizer core against the per-turn oracle

# Pieces the fuzz draws turns from: contractions in both cases, quotes, the
# final-sigma and dotted-I cases of str.lower, case-ignorable marks ("'",
# ".", ":", a combining dot, a soft hyphen), `_` (a word character that is
# also punctuation), punctuation runs, and whitespace other than a space
# that \s still matches (\x0b, \x1c, NBSP).
FUZZ_PIECES = ("a", "B", "n", "N", "t", "T", "don", "n't", "N'T", "'ll", "'s", "'M",
               "'d", "'re", "'ve", "'", "''", "\"", "\u201c", "\u201d", "\u0130", "\u03a3",
               "\u0391\u03a3", "\u03c3", ".", "..", ":", "\u0307", "\u00ad", "_", "__", "!",
               "!!", "?!", "\u00a1", "\U0001f642", "\U0001f642\U0001f642", "\u00e9", "e\u0301",
               "2", "-", "--", "\u00df", "\u01c5", " ", "  ", "\t", "\x0b", "\x1c", "\u00a0",
               "\n")
BLANKS = ("", " ", "\t\x0b", "\x1c ", "\u00a0")


def _fuzz_turns(rng, n):
    """n random (t1, t2, t3) triples; about one turn in ten is empty or blank."""
    picks = rng.integers(0, len(FUZZ_PIECES), size=(3 * n, 8)).tolist()
    lengths = rng.integers(0, 9, size=3 * n).tolist()
    blank = (rng.random(3 * n) < 0.1).tolist()
    piece = FUZZ_PIECES.__getitem__
    turns = [BLANKS[p[0] % len(BLANKS)] if b else "".join(map(piece, p[:k]))
             for p, k, b in zip(picks, lengths, blank)]
    return list(zip(turns[0::3], turns[1::3], turns[2::3]))


def _split(name, triples):
    convs = [dataio.Conversation(f"{name}{i}", t, "others") for i, t in enumerate(triples)]
    return dataio.DatasetSplit(name, convs, {})


def _oracle_ids(tokens, vocab):
    return [vocab.token_to_id.get(t, tp.UNK_ID) for t in tokens]


def _check_split(split, vocab):
    """split_rows and encode_split (tokenizing, and from the rows) against the oracle."""
    want = [oracle.assemble_input(c.turns).tokens for c in split.conversations]
    got = list(tr.split_rows(split))
    assert got == want
    for encoded in (tr.encode_split(split, vocab), tr.encode_split(split, vocab, got)):
        kept = [w for w in want if split.name != "train" or len(w) <= tp.MAX_TRAIN_TOKENS]
        assert len(encoded) == len(kept)
        for ex, tokens in zip(encoded, kept):
            assert ex.ids.dtype == np.int64
            assert ex.ids.tolist() == _oracle_ids(tokens, vocab)


def _check_corpus(corpus, vocab):
    want = [(_oracle_ids(tokens, vocab), label) for tokens, label in
            ((oracle.tokenize(oracle.clean_text(text)), label) for text, label in corpus)
            if tokens]
    rows = list(tp.token_rows((text for text, _ in corpus), 1))
    for got in (ft.encode_corpus(corpus, vocab), ft.encode_corpus(corpus, vocab, rows)):
        assert all(ids.dtype == np.int64 for ids, _ in got)
        assert [(ids.tolist(), label) for ids, label in got] == want


def test_core_matches_the_per_turn_oracle_on_the_toy_corpora(tmp_path):
    train = toycorpus.make_split("train", 40, seed=1)
    val = toycorpus.make_split("val", 12, seed=2)
    vocab = tp.build_vocab(oracle.assemble_input(c.turns) for c in train.conversations)
    for split in (train, val):
        _check_split(split, vocab)

    gen = golden.perfbench_gen()
    gen.generate(tmp_path, 5, gen.TOY)
    splits = [dataio.load_dataset(tmp_path / f"{name}.txt", name)
              for name in ("train", "val", "test")]
    vocab = tp.build_vocab(oracle.assemble_input(c.turns) for c in splits[0].conversations)
    rows = tr.split_rows(splits[0])
    assert vocab.id_to_token == tp.build_vocab(map(tp.TokenSequence, rows)).id_to_token
    for split in splits:
        _check_split(split, vocab)
    corpus = ft.load_finetune_corpus(tmp_path / "finetune.tsv")
    tweets = tp.build_vocab(tp.TokenSequence(oracle.tokenize(oracle.clean_text(text)))
                            for text, _ in corpus)
    _check_corpus(corpus, tweets)


def test_core_matches_the_per_turn_oracle_on_seeded_fuzz():
    rng = np.random.default_rng(2024)
    triples = _fuzz_turns(rng, 100_000)
    want = [oracle.assemble_input(t).tokens for t in triples]
    got = list(tp.token_rows((turn for t in triples for turn in t), 3))
    assert got == want
    for t, tokens in zip(triples[:3000], want):
        assert tp.assemble_input(t).tokens == tokens
    for turn in (turn for t in triples[:20_000] for turn in t):
        assert tp.clean_text(turn) == oracle.clean_text(turn)


@pytest.mark.parametrize("rows", range(1, 8))
def test_chunks_of_1_to_7_rows_match_the_oracle(monkeypatch, rows):
    """Chunk edges at every few conversations or tweets: about 430 chunks
    of conversations per size, 3,000 in all."""
    rng = np.random.default_rng(rows)
    triples = _fuzz_turns(rng, 430 * rows + rows // 2)
    vocab = tp.build_vocab(oracle.assemble_input(t) for t in triples[::2])
    monkeypatch.setattr(tp, "CHUNK_ROWS", rows)
    _check_split(_split("val", triples), vocab)
    corpus = [(turn, i % 2) for i, t in enumerate(triples) for turn in t[:2]]
    _check_corpus(corpus, vocab)


def test_a_nul_character_in_a_text_is_an_error():
    with pytest.raises(ValueError, match="NUL"):
        tp.assemble_input(("a", "b\0c", "d"))
    split = _split("val", [("a", "b", "c"), ("d", "e\0", "f")])
    with pytest.raises(ValueError, match="NUL"):
        tr.encode_split(split, tp.build_vocab([]))
    with pytest.raises(ValueError, match="NUL"):
        ft.encode_corpus([("ok", 1), ("\0", 0)], tp.build_vocab([]))


def _distinct_objects(rows):
    """True when every equal token in ``rows`` is one object."""
    first = {}
    return all(first.setdefault(token, token) is token for row in rows for token in row)


def test_tokens_are_one_object_per_distinct_token():
    split = toycorpus.make_split("train", 64, seed=3)
    texts = [turn for conv in split.conversations for turn in conv.turns]
    rows = list(tp.token_rows(texts, 3))
    assembled = [tp.assemble_input(conv.turns).tokens for conv in split.conversations]
    single = [tp.tokenize(tp.clean_text(text)) for text in texts]
    assert rows == assembled
    assert _distinct_objects(rows + assembled + single)
    assert tp.tokenize("Grr, grr GRR")[0] is tp.tokenize("grr")[0]


def test_held_token_rows_cost_a_pointer_per_token():
    """The rows of 3,000 toy conversations, held, cost their lists and the
    few distinct token strings; a string per token would break the budget."""
    split = toycorpus.make_split("train", 3000, seed=4)
    texts = [turn for conv in split.conversations for turn in conv.turns]
    list(tp.token_rows(texts[:3], 3))  # the regexes' caches are not the rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = list(tp.token_rows(texts, 3))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tokens = sum(map(len, rows))
    lists = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    assert tokens > 20_000
    assert held < lists + 20_000, (held, lists, tokens)
