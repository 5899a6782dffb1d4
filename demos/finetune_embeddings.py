"""Adapt word vectors on a cheaply labeled binary corpus.

A small convolutional classifier reads each text through the embedding
table; after a warm-up epoch with the table frozen, gradients flow into the
vectors themselves.  The classifier is a means to an end — what we keep is
the moved table.
"""

import numpy as np

from emoconv import finetune
from emoconv.finetune import FinetuneSchedule, encode_corpus, predict_finetune
from emoconv.textprep import SPECIALS, TokenSequence, build_vocab, token_rows

# -- 1. a noisy sentiment corpus and its starting vectors ----------------------
# Positive texts contain "glee"; the rest is shared filler, so the only way
# to win is to give that one row a distinctive vector.

rng = np.random.default_rng(4)
FILLER = ["movie", "was", "so", "very", "the", "plot", "music"]
corpus = []
for i in range(100):
    words = [FILLER[j] for j in rng.integers(0, len(FILLER), 5)]
    label = int(i % 2 == 0)
    if label:
        words.insert(int(rng.integers(0, len(words))), "glee")
    corpus.append((" ".join(words), label))

# Each text is tokenized once: its token row builds the vocabulary and is
# then looked up as ids.
rows = list(token_rows((text for text, _ in corpus), 1))
vocab = build_vocab(map(TokenSequence, rows))
encoded = encode_corpus(corpus, vocab, rows)
train_part, held_out = encoded[:80], encoded[80:]
# stand-ins for pretrained vectors, one per word; the run empties the map
pretrained = {token: rng.uniform(-0.05, 0.05, 8) for token in vocab.id_to_token[len(SPECIALS):]}
before = dict(pretrained)

# -- 2. fine-tune ---------------------------------------------------------------

schedule = FinetuneSchedule(frozen_epochs=1, unfrozen_epochs=5, lr=0.02,
                            batch_size=16, dim=8, filters_per_size=8)
model, losses = finetune.run(schedule, 4, train_part, vocab, pretrained)
for epoch, loss in enumerate(losses, start=1):
    tag = "frozen" if epoch <= schedule.frozen_epochs else "unfrozen"
    print(f"epoch {epoch} ({tag:8s}) loss {loss:.4f}")

# -- 3. what moved ----------------------------------------------------------------

table = model.emb.table.values
drift = [(np.linalg.norm(table[vocab.token_to_id[token]] - vec), token)
         for token, vec in before.items()]
print("\nrows that moved most:")
for dist, token in sorted(drift, reverse=True)[:5]:
    print(f"  {token:8s} {dist:.4f}")

preds = predict_finetune(model, held_out)
accuracy = float(np.mean(preds == [label for _, label in held_out]))
print(f"\nheld-out accuracy: {accuracy:.2f}")
