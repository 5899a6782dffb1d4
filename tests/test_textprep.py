import numpy as np
import pytest

from emoconv import textprep as tp


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
    assert seq.n == 5

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
    enc = tp.encode_ids(seqs[0], vocab)
    assert enc.ids == [3, 4, tp.EOS_ID, 5, tp.EOS_ID, 3]


def test_encode_ids_unk_only_off_train():
    train = [tp.TokenSequence(["a", "b"]), tp.TokenSequence(["b", "c"])]
    vocab = tp.build_vocab(train)
    for seq in train:
        assert tp.UNK_ID not in tp.encode_ids(seq, vocab).ids
    val = tp.encode_ids(tp.TokenSequence(["a", "zzz"]), vocab)
    assert val.ids == [3, tp.UNK_ID]


def test_pipeline_deterministic_end_to_end():
    turns = ("Wow!!! I'm SO happy :)", "me   too!!", "don't ask why...")
    a = tp.encode_ids(tp.assemble_input(turns), tp.build_vocab([tp.assemble_input(turns)]))
    b = tp.encode_ids(tp.assemble_input(turns), tp.build_vocab([tp.assemble_input(turns)]))
    assert a.tokens == b.tokens and a.ids == b.ids
