"""The conversation classifier.

Token embeddings feed a stacked bidirectional LSTM; each position's hidden
states are concatenated with the token's own embedding ([h_f; h_b; w_i]), a
linear map projects that down, max-pooling over time yields one vector per
conversation, an external sentence vector is fused in by concatenation, and
a final linear layer plus softmax produces the four class probabilities.

With the default sizes the dimension chain is
100 -> 400 -> 500 -> 200 -> 2504 -> 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import tensor as T
from .config import TrainConfig

N_CLASSES = 4


@dataclass
class RcnnParams:
    """The classifier ``config`` describes: its embedding table, and every
    other parameter under its name in the table of :func:`_shapes`."""
    config: TrainConfig
    embedding: L.EmbeddingMatrix
    tensors: dict[str, T.Tensor]

    def named(self) -> dict[str, T.Tensor]:
        return {"embedding.table": self.embedding.table, **self.tensors}

    @property
    def bilstm(self) -> list:
        """Per layer, the ((W, U, b) forward, (W, U, b) backward) pair that
        ``layers.bilstm_encode`` takes."""
        return [tuple(tuple(self.tensors[f"bilstm{i}.{tag}.{p}"] for p in "wub")
                      for tag in ("fwd", "bwd"))
                for i in range(self.config.num_layers)]


@dataclass
class Batch:
    """The input of both models, packed: every row's token ids, row after
    row, and each row's length.  There is no padding to check or skip."""
    ids: np.ndarray            # [N] token ids, row after row
    valid_lengths: np.ndarray  # [b], each >= 1, summing to N
    sentence_vectors: np.ndarray | None = None  # [b x sentence_dim]
    labels: np.ndarray | None = None  # [b] class indices

    def __post_init__(self):
        self.valid_lengths = T.check_lengths(self.valid_lengths, self.ids.size)

    @classmethod
    def of_rows(cls, rows, sentence_vectors=None, labels=None) -> "Batch":
        """Pack token-id rows; an empty row is a ValueError."""
        return cls(np.concatenate(rows), [len(r) for r in rows], sentence_vectors, labels)

    def __len__(self) -> int:
        return self.valid_lengths.size


def init_model(config: TrainConfig, emb: L.EmbeddingMatrix, rng) -> RcnnParams:
    """Draw every parameter of :func:`_shapes` in its order
    (``layers.init_arrays``) over the given embedding table."""
    _check_embedding(config, emb)
    return _build(config, emb, L.init_arrays(_shapes(config), rng))


def _check_embedding(config: TrainConfig, emb: L.EmbeddingMatrix) -> None:
    config.validate()
    if emb.dim != config.embedding_dim:
        raise ValueError(f"embedding dim {emb.dim} does not match configured "
                         f"embedding_dim {config.embedding_dim}")


def _shapes(config: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each parameter besides the embedding table, in
    ``RcnnParams.named`` order: the model's one parameter table.

    Per-direction hidden size is ``config.hidden_size``; the projection maps
    the [h_f; h_b; w_i] concatenation (2*hidden + embedding_dim wide) down to
    hidden_size, and the output layer consumes hidden_size + sentence_dim.
    """
    h, d = config.hidden_size, config.embedding_dim
    out = {}
    for i in range(config.num_layers):
        for tag in ("fwd", "bwd"):
            out[f"bilstm{i}.{tag}.w"] = (4 * h, d if i == 0 else 2 * h)
            out[f"bilstm{i}.{tag}.u"] = (4 * h, h)
            out[f"bilstm{i}.{tag}.b"] = (4 * h,)
    out["projection.w"], out["projection.b"] = (h, 2 * h + d), (h,)
    out["output.w"], out["output.b"] = (N_CLASSES, h + config.sentence_dim), (N_CLASSES,)
    return out


def _build(config: TrainConfig, emb: L.EmbeddingMatrix,
           arrays: dict[str, np.ndarray]) -> RcnnParams:
    """The model over ``emb`` whose other parameters are ``arrays``
    (float64, in table order), each held as a trainable tensor without a
    copy."""
    return RcnnParams(config, emb, {name: T.Tensor(a, requires_grad=True)
                                    for name, a in arrays.items()})


def forward(params: RcnnParams, batch: Batch, training: bool, rng) -> tuple[T.Tensor, T.Tensor]:
    """Run the classifier over a batch; returns (logits, probabilities), one
    row per example in batch order.

    The batch's packed token ids index one [N x k] tensor of cells, row
    after row, and embedding, both BiLSTM layers, the [h_f; h_b; w_i]
    concatenation, dropout and the projection all run on those N cells;
    the max-pool reduces each row's own cells to [B x k].  A batch holds no
    padding, so none can influence the result.
    Dropout (when training) hits the BiLSTM layer outputs and both
    linear-layer inputs, the fused sentence vector included.
    """
    config, t = params.config, params.tensors
    if config.sentence_dim > 0:
        if batch.sentence_vectors is None:
            raise ValueError("model fuses sentence vectors but the batch has none")
        if batch.sentence_vectors.shape != (len(batch), config.sentence_dim):
            raise ValueError(f"sentence vectors shape {batch.sentence_vectors.shape} "
                             f"!= ({len(batch)}, {config.sentence_dim})")
    lengths = batch.valid_lengths
    emb = L.embedding_lookup(params.embedding, batch.ids)
    enc = L.bilstm_encode(params.bilstm, emb, lengths, config.dropout_bilstm,
                          training, rng)
    ctx = L.dropout(T.concat([enc, emb], axis=1), config.dropout_linear, training, rng)
    proj = T.linear_rows(ctx, t["projection.w"], t["projection.b"])
    if config.projection_tanh:
        proj = T.tanh(proj)
    fused = T.max_over_time(proj, lengths)
    if config.sentence_dim > 0:
        fused = T.concat([fused, T.constant(batch.sentence_vectors)], axis=1)
    fused = L.dropout(fused, config.dropout_linear, training, rng)
    logits = T.linear_rows(fused, t["output.w"], t["output.b"])
    return logits, T.softmax_rows(logits)


def restore(config: TrainConfig, arrays: dict[str, np.ndarray]) -> RcnnParams:
    """Rebuild a model from checkpoint arrays (name -> array) against the
    table of :func:`_shapes`; each parameter besides the embedding table is
    a float64 copy of its array, and nothing is drawn."""
    if "embedding.table" not in arrays:
        raise ValueError("checkpoint has no 'embedding.table' array")
    emb = L.EmbeddingMatrix.from_array(arrays["embedding.table"])
    _check_embedding(config, emb)
    shapes = _shapes(config)
    names = {"embedding.table", *shapes}
    missing = sorted(names - set(arrays))
    extra = sorted(set(arrays) - names)
    if missing or extra:
        raise ValueError(f"checkpoint arrays do not match the configured model "
                         f"(missing {missing}, unexpected {extra})")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"checkpoint array {name!r} has shape "
                             f"{arrays[name].shape}, model expects {shape}")
    return _build(config, emb, {name: np.array(arrays[name], dtype=np.float64, order="C")
                                for name in shapes})


def shape_report(params: RcnnParams) -> tuple[dict[str, tuple[int, ...]], int]:
    """Name -> shape for every parameter, plus the total scalar count."""
    shapes = {name: t.shape for name, t in params.named().items()}
    total = sum(t.size for t in params.named().values())
    return shapes, total


def format_shape_report(params: RcnnParams) -> str:
    shapes, total = shape_report(params)
    lines = ["parameter\tshape\tcount"]
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        lines.append(f"{name}\t{'x'.join(str(d) for d in shape)}\t{count}")
    lines.append(f"total\t\t{total}")
    return "\n".join(lines) + "\n"
