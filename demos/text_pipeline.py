"""From raw chat turns to a packed batch of token ids, step by step."""

from emoconv.rcnn import Batch
from emoconv.textprep import (EOS_TOKEN, TokenSequence, build_vocab, clean_text,
                              token_rows, tokenize)

# -- 1. cleaning -------------------------------------------------------------
# Runs of the same punctuation mark collapse to one; mixed runs survive.

raw = "WHY   would you do that....  seriously!!!"
print("raw:     ", raw)
print("cleaned: ", clean_text(raw))

# -- 2. tokenizing -----------------------------------------------------------
# Lowercase, split common contractions, keep emoji and stray symbols.

for text in ("I don't know", "You're KIDDING me", "c'mon :) ok"):
    print(f"{text!r:26} -> {tokenize(clean_text(text))}")

# -- 3. token rows -----------------------------------------------------------
# Every three consecutive turns are one conversation: one token row, with an
# end-of-utterance marker between the turns so the encoder can tell where
# each speaker stopped.  A whole split is tokenized a chunk of rows at a
# time, once.

turns = ["What happened", "you tell me first", "I'm not angry anymore",
         "What", "ever", "zzzunseen word"]
rows = list(token_rows(turns, 3))
print("\nfirst row:", rows[0])
print("separator count:", rows[0].count(EOS_TOKEN))

# -- 4. vocabulary and ids ---------------------------------------------------
# Ids 0/1/2 are reserved for padding, unknown words, and the separator; real
# tokens number from 3 in order of first appearance in the training rows.
# The same rows are then looked up, so nothing is tokenized twice.

vocab = build_vocab(map(TokenSequence, rows[:1]))
print("\nvocabulary size:", vocab.size)
print("first rows:", vocab.id_to_token[:8])
ids = [vocab.ids(row) for row in rows]
print("ids:", ids[0])

# Unseen words map to the unknown id instead of growing the table.
print("with unseen words:", ids[1])

# -- 5. packing --------------------------------------------------------------
# Both models read one batch: every row's ids back to back, and the lengths.

batch = Batch.of_rows(ids)
print("\npacked ids:", batch.ids)
print("row lengths:", batch.valid_lengths)
