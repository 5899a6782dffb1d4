"""Single-axis hyperparameter sensitivity sweeps.

Each (value, seed) pair is one full train+eval run; every run reads the one
``train.RunData`` its caller encoded.  Run results are content-addressed
by the SHA-256 of the effective config and of what the runs read (that
``RunData``, the word vectors and the examples' sentence vectors), so an
interrupted sweep resumes without recomputing finished runs; aggregation
reports the mean and sample standard deviation of validation micro-F1 per
value, plus a "not trained effectively" flag for runs whose final training
loss never beat the uniform-prediction baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import train as tr
from .config import TrainConfig, has_type
from .dataio import SentenceVectorStore, atomic_write, line_error, read_lines
from .metrics import aggregate_seeds

log = logging.getLogger(__name__)

SWEEP_AXES = ("hidden_size", "num_layers", "batch_size", "lr",
              "dropout_bilstm", "dropout_linear")

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class SweepSpec:
    """One axis and its values, each converted to the axis's type: a whole
    number on an integer axis, no two alike once converted; and the run
    seeds, each a distinct non-negative whole number, converted to int."""
    axis: str
    values: list
    seeds: list[int] = dataclasses.field(default_factory=lambda: list(DEFAULT_SEEDS))

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis {self.axis!r} is not one of {', '.join(SWEEP_AXES)}")
        if not self.values or not self.seeds:
            raise ValueError("sweep needs at least one value and one seed")
        values = [_axis_value(self.axis, v) for v in self.values]
        repeats = [raw for k, raw in enumerate(self.values) if values[k] in values[:k]]
        if repeats:
            raise ValueError(f"sweep value {repeats[0]!r} repeats another on axis {self.axis}")
        self.values = values
        for k, seed in enumerate(self.seeds):
            if not float(seed).is_integer() or seed < 0 or seed in self.seeds[:k]:
                fault = ("is not a whole number" if not float(seed).is_integer()
                         else "is negative" if seed < 0 else "repeats another")
                raise ValueError(f"sweep seed {seed} {fault}")
        self.seeds = [int(seed) for seed in self.seeds]


@dataclass
class RunRecord:
    axis: str
    value: float
    seed: int
    config_hash: str
    best_val_f1: float
    final_train_loss: float
    baseline_loss: float
    trained_effectively: bool

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def config_hash(config: TrainConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _axis_value(axis: str, value):
    if axis not in ("hidden_size", "num_layers", "batch_size"):
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"sweep value {value!r} for {axis} is not a whole number")
    return int(value)


def run_one(config: TrainConfig, axis: str, data: tr.RunData,
            store: SentenceVectorStore | None, pretrained: dict) -> RunRecord:
    """One sweep cell: the :func:`train.run` of the cell's ``config``, whose
    ``axis`` value and seed the record keeps, scored against the
    uniform-prediction loss over the examples it trains on (length-filtered)."""
    # the run empties the map it is given; the sweep's stays for the next cell
    ckpt, history = tr.run(config, data, store, dict(pretrained))
    final_loss = history[-1].train_loss
    baseline = tr.uniform_baseline_loss(data.weights, [ex.label for ex in data.train_ex])
    return RunRecord(axis=axis, value=getattr(config, axis), seed=config.seed,
                     config_hash=config_hash(config), best_val_f1=ckpt.best_val_f1,
                     final_train_loss=final_loss, baseline_loss=baseline,
                     trained_effectively=final_loss < baseline)


def _inputs_digest(data: tr.RunData, store: SentenceVectorStore | None,
                   pretrained: dict) -> str:
    """SHA-256 over what the runs of a sweep read: the vocabulary and class
    weights of ``data``, each example's id, label and token ids (train, then
    val), the pretrained vectors and the examples' sentence vectors."""
    examples = data.train_ex + data.val_ex
    words = sorted(pretrained)
    stored = [ex.id for ex in examples if store is not None and ex.id in store.row]
    vectors = [pretrained[w] for w in words] + [store.get(i) for i in stored]
    h = hashlib.sha256(json.dumps([
        len(data.train_ex), data.vocab.id_to_token, [[ex.id, ex.label] for ex in examples],
        words, stored, [ex.n for ex in examples], [np.size(v) for v in vectors]]).encode("utf-8"))
    for ex in examples:
        h.update(np.ascontiguousarray(ex.ids, dtype=np.int64).tobytes())
    for vec in [data.weights.weights, *vectors]:
        h.update(np.ascontiguousarray(vec, dtype=np.float64).tobytes())
    return h.hexdigest()


def _record_path(runs_dir, config: TrainConfig, inputs_digest: str) -> str:
    return os.path.join(runs_dir, f"run_{config_hash(config)[:16]}_{inputs_digest[:16]}.json")


def load_record(path) -> RunRecord:
    """A truncated or malformed record, a field of the wrong JSON type
    included (a bool is not a number), is a ValueError that names the file,
    and the line of a JSON fault."""
    text = "\n".join(line for _, line in read_lines(path))
    try:
        fields = json.loads(text)
    except json.JSONDecodeError as err:
        raise line_error(path, err.lineno, f"malformed sweep record: {err.msg}") from None
    try:
        record = RunRecord(**fields)
    except TypeError as err:  # not an object, or wrong keys
        raise ValueError(f"{path}: malformed sweep record: {err}") from None
    for f in dataclasses.fields(RunRecord):
        value = getattr(record, f.name)
        if not has_type(value, f.type):
            raise ValueError(f"{path}: malformed sweep record: field {f.name!r} "
                             f"holds {value!r}, not a {f.type}")
    return record


def run_sweep(spec: SweepSpec, base_config: TrainConfig, data: tr.RunData,
              store: SentenceVectorStore | None, pretrained: dict, runs_dir):
    """All |values| x |seeds| runs on ``data``; returns (records, aggregate rows).

    Each run's record is written to ``runs_dir`` as JSON, and a record
    already there for the same config and the same inputs (``data``,
    ``pretrained`` and the examples' rows of ``store``) is reused instead of
    retrained.  ``data`` is read, never changed, so one value serves any
    number of sweeps.
    """
    os.makedirs(runs_dir, exist_ok=True)
    inputs = _inputs_digest(data, store, pretrained)
    records: list[RunRecord] = []
    for value in spec.values:
        for seed in spec.seeds:
            cfg = base_config.replace(**{spec.axis: value}, seed=seed)
            path = _record_path(runs_dir, cfg, inputs)
            if os.path.exists(path):
                rec = load_record(path)
                log.info("sweep %s=%s seed %d: reusing %s", spec.axis, value, seed, path)
            else:
                rec = run_one(cfg, spec.axis, data, store, pretrained)
                with atomic_write(path) as fh:  # whole or not at all, even if killed
                    fh.write(rec.to_json() + "\n")
            records.append(rec)
    aggregates = []
    for value in spec.values:
        cell = [r for r in records if r.value == value]
        agg = aggregate_seeds([r.best_val_f1 for r in cell])
        aggregates.append({"axis": spec.axis, "value": value,
                           "mean_val_f1": agg.mean, "sd_val_f1": agg.sd,
                           "runs": len(cell),
                           "not_trained_effectively": sum(not r.trained_effectively
                                                          for r in cell)})
    return records, aggregates


def format_sweep_report(aggregates) -> str:
    lines = ["axis\tvalue\tmean_val_f1\tsd_val_f1\truns\tnot_trained_effectively"]
    for row in aggregates:
        lines.append(f"{row['axis']}\t{row['value']}\t{row['mean_val_f1']:.6f}\t"
                     f"{row['sd_val_f1']:.6f}\t{row['runs']}\t"
                     f"{row['not_trained_effectively']}")
    return "\n".join(lines) + "\n"
