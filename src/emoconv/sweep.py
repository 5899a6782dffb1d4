"""Single-axis hyperparameter sensitivity sweeps.

Each (value, seed) pair is one cell: the :func:`train.run_into` of its
config, on the one ``train.RunData`` its caller built, into the run
directory ``runs_dir/<train.run_key>/`` (the layout of ``emoconv train``),
so an interrupted sweep resumes without recomputing finished cells.  A
cell's record comes from its history; aggregation reports the mean and
sample standard deviation of validation micro-F1 per value, plus a "not
trained effectively" flag for runs whose final training loss never beat
the uniform-prediction baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import train as tr
from .config import TrainConfig
from .metrics import aggregate_seeds

SWEEP_AXES = ("hidden_size", "num_layers", "batch_size", "lr",
              "dropout_bilstm", "dropout_linear")

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class SweepSpec:
    """One axis and its values, each converted to the axis's type (a whole
    number on an integer axis), one a ``TrainConfig`` takes and no two alike;
    and the run seeds, each a distinct non-negative whole number, as ints."""
    axis: str
    values: list
    seeds: list[int] = field(default_factory=lambda: list(DEFAULT_SEEDS))

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis {self.axis!r} is not one of {', '.join(SWEEP_AXES)}")
        if not self.values or not self.seeds:
            raise ValueError("sweep needs at least one value and one seed")
        values = [_axis_value(self.axis, v) for v in self.values]
        repeats = [raw for k, raw in enumerate(self.values) if values[k] in values[:k]]
        if repeats:
            raise ValueError(f"sweep value {repeats[0]!r} repeats another on axis {self.axis}")
        for value in values:  # an axis's checks in TrainConfig look at that field alone
            TrainConfig(**{self.axis: value})
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


def _axis_value(axis: str, value):
    if axis not in ("hidden_size", "num_layers", "batch_size"):
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"sweep value {value!r} for {axis} is not a whole number")
    return int(value)


def run_sweep(spec: SweepSpec, base_config: TrainConfig, data: tr.RunData, runs_dir):
    """All |values| x |seeds| cells on ``data``; returns (records, aggregate
    rows).  A cell is the :func:`train.run_into` of its config into
    ``runs_dir/<run key>/``, reused once finished for the same config and
    inputs.  Its record holds its history's best val micro-F1 and final
    training loss, against the uniform-prediction loss over the examples it
    trains on (length-filtered).  ``data`` is read, never changed, so one
    value serves any number of sweeps."""
    baseline = tr.uniform_baseline_loss(data.weights, [ex.label for ex in data.train_ex])
    records: list[RunRecord] = []
    for cfg in (base_config.replace(**{spec.axis: v}, seed=s)
                for v in spec.values for s in spec.seeds):
        history = tr.run_into(os.path.join(runs_dir, tr.run_key(cfg, data)), cfg, data)
        final_loss = history[-1].train_loss
        records.append(RunRecord(spec.axis, getattr(cfg, spec.axis), cfg.seed,
                                 tr.config_hash(cfg), max(r.val_micro_f1 for r in history),
                                 final_loss, baseline, final_loss < baseline))
    aggregates = []
    for value in spec.values:
        cell = [r for r in records if r.value == value]
        agg = aggregate_seeds([r.best_val_f1 for r in cell])
        aggregates.append({"axis": spec.axis, "value": value, "mean_val_f1": agg.mean,
                           "sd_val_f1": agg.sd, "runs": len(cell), "not_trained_effectively":
                           sum(not r.trained_effectively for r in cell)})
    return records, aggregates


def format_sweep_report(aggregates) -> str:
    lines = ["axis\tvalue\tmean_val_f1\tsd_val_f1\truns\tnot_trained_effectively"]
    for row in aggregates:
        lines.append(f"{row['axis']}\t{row['value']}\t{row['mean_val_f1']:.6f}\t"
                     f"{row['sd_val_f1']:.6f}\t{row['runs']}\t"
                     f"{row['not_trained_effectively']}")
    return "\n".join(lines) + "\n"
