"""Text preparation: cleaning, tokenization, turn assembly, vocabulary.

The three turns of a conversation are cleaned and tokenized independently,
then joined with EOS separator tokens into one sequence.  The length filter
lives in ``train.encode_split``: it drops training sequences longer than
``MAX_TRAIN_TOKENS`` (75); validation and test pass through.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

EOS_TOKEN = "<eos>"
PAD_ID, UNK_ID, EOS_ID = 0, 1, 2
SPECIALS = ("<pad>", "<unk>", EOS_TOKEN)

MAX_TRAIN_TOKENS = 75

_WS_RUN = re.compile(r"\s+")
_CONTRACTION_NT = re.compile(r"n't\b")
_CONTRACTION_SUFFIX = re.compile(r"'(m|s|re|ve|ll|d)\b")
# contraction pieces first so the alternation wins before the word run
_TOKEN = re.compile(r"n't\b|'(?:m|s|re|ve|ll|d)\b|[^\W_]+|\S")


def clean_text(raw: str) -> str:
    """Collapse same-character punctuation runs and whitespace runs.

    "wow!!!   nice" becomes "wow! nice"; alternating marks like "!?!?" are
    left alone because no two adjacent characters repeat.
    """
    out = []
    prev = None
    for ch in raw:
        if ch == prev and unicodedata.category(ch).startswith("P"):
            continue
        out.append(ch)
        prev = ch
    return _WS_RUN.sub(" ", "".join(out)).strip()


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and punctuation, peel contractions."""
    text = text.lower()
    text = _CONTRACTION_NT.sub(" n't", text)
    text = _CONTRACTION_SUFFIX.sub(r" '\1", text)
    return _TOKEN.findall(text)


@dataclass
class TokenSequence:
    tokens: list[str]
    ids: list[int] | None = None

    @property
    def n(self) -> int:
        return len(self.tokens)


@dataclass
class Vocabulary:
    id_to_token: list[str] = field(default_factory=lambda: list(SPECIALS))
    token_to_id: dict[str, int] = field(init=False)  # always built from id_to_token

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def add(self, token: str) -> int:
        i = self.token_to_id.get(token)
        if i is None:
            i = len(self.id_to_token)
            self.token_to_id[token] = i
            self.id_to_token.append(token)
        return i

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def assemble_input(turns) -> TokenSequence:
    """Three turns -> one EOS-separated token sequence."""
    if len(turns) != 3:
        raise ValueError(f"need exactly 3 turns, got {len(turns)}")
    tokens = []
    for i, turn in enumerate(turns):
        if i:
            tokens.append(EOS_TOKEN)
        tokens.extend(tokenize(clean_text(turn)))
    return TokenSequence(tokens)


def build_vocab(train_sequences: list[TokenSequence]) -> Vocabulary:
    """First-occurrence vocabulary over training tokens; specials at 0,1,2."""
    vocab = Vocabulary()
    for seq in train_sequences:
        for tok in seq.tokens:
            if tok == EOS_TOKEN:
                continue
            vocab.add(tok)
    return vocab


def encode_ids(seq: TokenSequence, vocab: Vocabulary) -> TokenSequence:
    return TokenSequence(seq.tokens, ids=[vocab.lookup(t) for t in seq.tokens])
