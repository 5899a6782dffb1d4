"""Text preparation: cleaning, tokenization, turn assembly, vocabulary.

The three turns of a conversation are cleaned and tokenized independently,
then joined with EOS separator tokens into one sequence.  The length filter
lives in ``train.encode_split``: it drops training sequences longer than
``MAX_TRAIN_TOKENS`` (75); validation and test pass through.

One core tokenizes every text the program reads.  It joins many texts
with a NUL separator and makes four passes over the joined string:
collapse same-character punctuation runs, lowercase, split "n't" from its
word, find the tokens.  A text so costs a share of a few regex scans, not
a Python loop per character and four regex calls of its own.  NUL is the
one character the loaders reject in a text.  It is not punctuation, so no
collapsed run crosses it; it is a non-word character that is neither cased
nor case-ignorable, so ``\\b`` and the final-sigma rule of ``str.lower``
see it as the edge of the string; and ``\\S`` makes it a token of its own,
which marks where each text ends.  Whitespace is neither collapsed nor
stripped as :func:`clean_text` does: no token holds whitespace, and every
whitespace character is a non-word character that is neither cased nor
case-ignorable, so one space, a run of them, a tab or the string's edge all
end a word alike and the tokens are the same.  ``tests/oracle.py`` keeps the
per-turn path as the reference.  ``CHUNK_ROWS`` conversations or tweets
share one joined string, and only one chunk's tokens are alive at a time.
Tokens are interned, so held rows share one string per distinct token.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from sys import intern

import numpy as np

EOS_TOKEN = "<eos>"
PAD_ID, UNK_ID, EOS_ID = 0, 1, 2
SPECIALS = ("<pad>", "<unk>", EOS_TOKEN)

MAX_TRAIN_TOKENS = 75

SEP = "\0"
CHUNK_ROWS = 1024

_WS_RUN = re.compile(r"\s{2,}|[^\S ]")  # each run becomes " "; a lone " " needs no match
# a run of one repeated non-word character; `_` is a word character but
# also punctuation (Pc), so it joins the class
_MARK_RUN = re.compile(r"([\W_])\1+")
# "n't" is split from its word before matching, or the word run would take
# its "n"; "'s", "'ll" and the rest start at a non-word character, where the
# word run stops anyway, so the token pattern peels them as it goes
_CONTRACTION_NT = re.compile(r"n't\b")
# contraction pieces first so the alternation wins before the word run
_TOKEN = re.compile(r"n't\b|'(?:m|s|re|ve|ll|d)\b|[^\W_]+|\S")


def _one_mark(run: re.Match) -> str:
    text = run.group()
    return text[0] if unicodedata.category(text[0])[0] == "P" else text


def _collapse_marks(text: str) -> str:
    return _MARK_RUN.sub(_one_mark, text)


def clean_text(raw: str) -> str:
    """Collapse same-character punctuation runs and whitespace runs.

    "wow!!!   nice" becomes "wow! nice"; alternating marks like "!?!?" are
    left alone because no two adjacent characters repeat.
    """
    return _WS_RUN.sub(" ", _collapse_marks(raw)).strip()


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and punctuation, peel contractions, intern."""
    text = text.lower()
    if "n't" in text:  # most texts have none, and the regex pass costs a call each
        text = _CONTRACTION_NT.sub(" n't", text)
    return [intern(token) for token in _TOKEN.findall(text)]


def _tokens(texts: list[str]) -> list[str]:
    """The core: the tokens of every text in order, each text followed by
    one ``SEP`` token.  A text that contains ``SEP`` is a ValueError."""
    joined = SEP.join(texts)
    if joined.count(SEP) != len(texts) - 1:
        bad = next(t for t in texts if SEP in t)
        raise ValueError(f"text contains a NUL character: {bad[:60]!r}")
    tokens = tokenize(_collapse_marks(joined))
    tokens.append(SEP)
    return tokens


def _token_rows(chunk: list[str], per_row: int) -> list[list[str]]:
    """The rows of one chunk of ``per_row`` texts each: each row's tokens,
    ``EOS_TOKEN`` between its texts."""
    tokens = _tokens(chunk)
    rows, start, end = [], 0, -1
    for _ in range(len(chunk) // per_row):
        for _ in range(per_row):
            end = tokens.index(SEP, end + 1)
            tokens[end] = EOS_TOKEN
        rows.append(tokens[start:end])
        start = end + 1
    return rows


def token_rows(texts, per_row: int):
    """Yield the tokens of each row of ``per_row`` consecutive ``texts``
    (a conversation's three turns, or one tweet), with ``EOS_TOKEN`` between
    the texts of a row, tokenizing ``CHUNK_ROWS`` rows at a time."""
    texts = iter(texts)
    while chunk := list(islice(texts, per_row * CHUNK_ROWS)):
        if len(chunk) % per_row:
            raise ValueError(f"{len(chunk)} texts do not fill rows of {per_row}")
        yield from _token_rows(chunk, per_row)


@dataclass
class TokenSequence:
    tokens: list[str]


@dataclass
class Vocabulary:
    id_to_token: list[str] = field(default_factory=lambda: list(SPECIALS))
    token_to_id: dict[str, int] = field(init=False)  # always built from id_to_token

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def ids(self, tokens) -> np.ndarray:
        """The int64 id of each token; ``UNK_ID`` for a token outside the
        vocabulary.  The one lookup from tokens to ids."""
        return np.fromiter(map(self.token_to_id.get, tokens, repeat(UNK_ID)),
                           dtype=np.int64, count=len(tokens))


def assemble_input(turns) -> TokenSequence:
    """Three turns -> one EOS-separated token sequence."""
    if len(turns) != 3:
        raise ValueError(f"need exactly 3 turns, got {len(turns)}")
    return TokenSequence(_token_rows(list(turns), 3)[0])


def build_vocab(train_sequences) -> Vocabulary:
    """First-occurrence vocabulary over training tokens; specials at 0,1,2."""
    tokens = chain(SPECIALS, chain.from_iterable(seq.tokens for seq in train_sequences))
    return Vocabulary(list(dict.fromkeys(tokens)))
