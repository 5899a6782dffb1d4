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
    embedding: L.EmbeddingMatrix
    bilstm: list[L.LstmLayerParams]
    proj_w: T.Tensor
    proj_b: T.Tensor
    out_w: T.Tensor
    out_b: T.Tensor
    sentence_dim: int
    dropout_bilstm: float
    dropout_linear: float
    projection_tanh: bool = False

    def named(self) -> dict[str, T.Tensor]:
        out = {"embedding.table": self.embedding.table}
        for i, layer in enumerate(self.bilstm):
            out.update(layer.named(f"bilstm{i}"))
        out["projection.w"] = self.proj_w
        out["projection.b"] = self.proj_b
        out["output.w"] = self.out_w
        out["output.b"] = self.out_b
        return out


@dataclass
class Batch:
    ids: np.ndarray            # [b x n_max], PAD-filled after each valid length
    valid_lengths: np.ndarray  # [b]
    sentence_vectors: np.ndarray | None  # [b x sentence_dim]
    labels: np.ndarray | None  # [b] class indices
    conv_ids: list[str] | None = None

    def __post_init__(self):
        b, n_max = self.ids.shape
        if self.valid_lengths.shape != (b,):
            raise ValueError(f"valid_lengths shape {self.valid_lengths.shape} "
                             f"does not match batch size {b}")
        if (self.valid_lengths < 1).any() or (self.valid_lengths > n_max).any():
            raise ValueError("valid lengths must lie in [1, n_max]")
        past_end = ~T.time_mask(self.valid_lengths, n_max) & (self.ids != L.PAD_ID)
        if past_end.any():
            raise ValueError(f"batch row {int(np.flatnonzero(past_end.any(axis=1))[0])} "
                             "has non-PAD ids after its valid length")

    def __len__(self) -> int:
        return self.ids.shape[0]


def init_model(config: TrainConfig, emb: L.EmbeddingMatrix, rng) -> RcnnParams:
    """Allocate all parameters for the configured dimension chain.

    Per-direction hidden size is ``config.hidden_size``; the projection maps
    the [h_f; h_b; w_i] concatenation (2*hidden + embedding_dim wide) down to
    hidden_size, and the output layer consumes hidden_size + sentence_dim.
    """
    config.validate()
    if emb.dim != config.embedding_dim:
        raise ValueError(f"embedding dim {emb.dim} does not match configured "
                         f"embedding_dim {config.embedding_dim}")
    h, d = config.hidden_size, config.embedding_dim
    bilstm = []
    for i in range(config.num_layers):
        in_size = d if i == 0 else 2 * h
        bilstm.append(L.init_lstm_params(rng, in_size, h))
    proj_w, proj_b = L.init_linear(rng, h, 2 * h + d)
    out_w, out_b = L.init_linear(rng, N_CLASSES, h + config.sentence_dim)
    return RcnnParams(embedding=emb, bilstm=bilstm,
                      proj_w=proj_w, proj_b=proj_b, out_w=out_w, out_b=out_b,
                      sentence_dim=config.sentence_dim,
                      dropout_bilstm=config.dropout_bilstm,
                      dropout_linear=config.dropout_linear,
                      projection_tanh=config.projection_tanh)


def forward(params: RcnnParams, batch: Batch, training: bool, rng) -> tuple[T.Tensor, T.Tensor]:
    """Run the classifier over a batch; returns (logits, probabilities), one
    row per example in batch order.

    The batch is packed once at entry: its valid token ids, row after row,
    become one [N x k] tensor of cells, and embedding, both BiLSTM layers,
    the [h_f; h_b; w_i] concatenation, dropout and the projection all run on
    those N cells; the max-pool reduces each row's own cells to [B x k].
    Padding never enters the model, so it cannot influence the result.
    Dropout (when training) hits the BiLSTM layer outputs and both
    linear-layer inputs, the fused sentence vector included.
    """
    if params.sentence_dim > 0:
        if batch.sentence_vectors is None:
            raise ValueError("model fuses sentence vectors but the batch has none")
        if batch.sentence_vectors.shape != (len(batch), params.sentence_dim):
            raise ValueError(f"sentence vectors shape {batch.sentence_vectors.shape} "
                             f"!= ({len(batch)}, {params.sentence_dim})")
    lengths = batch.valid_lengths
    emb = L.embedding_lookup(params.embedding,
                             batch.ids[T.time_mask(lengths, batch.ids.shape[1])])
    enc = L.bilstm_encode(params.bilstm, emb, lengths, params.dropout_bilstm,
                          training, rng)
    ctx = L.dropout(T.concat([enc, emb], axis=1), params.dropout_linear, training, rng)
    proj = T.linear_rows(ctx, params.proj_w, params.proj_b)
    if params.projection_tanh:
        proj = T.tanh(proj)
    fused = T.max_over_time(proj, lengths)
    if params.sentence_dim > 0:
        fused = T.concat([fused, T.constant(batch.sentence_vectors)], axis=1)
    fused = L.dropout(fused, params.dropout_linear, training, rng)
    logits = T.linear_rows(fused, params.out_w, params.out_b)
    return logits, T.softmax_rows(logits)


def restore(config: TrainConfig, arrays: dict[str, np.ndarray]) -> RcnnParams:
    """Rebuild a model from checkpoint arrays (name -> float64 array)."""
    if "embedding.table" not in arrays:
        raise ValueError("checkpoint has no 'embedding.table' array")
    emb = L.EmbeddingMatrix.from_array(arrays["embedding.table"])
    params = init_model(config, emb, np.random.default_rng(0))
    named = params.named()
    missing = sorted(set(named) - set(arrays))
    extra = sorted(set(arrays) - set(named))
    if missing or extra:
        raise ValueError(f"checkpoint arrays do not match the configured model "
                         f"(missing {missing}, unexpected {extra})")
    for name, t in named.items():
        if t.shape != arrays[name].shape:
            raise ValueError(f"checkpoint array {name!r} has shape "
                             f"{arrays[name].shape}, model expects {t.shape}")
        t.values[:] = arrays[name]
    return params


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
