"""Scoring: confusion matrices, micro-F1 over the emotion classes,
multi-seed aggregation, and the TSV evaluation report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import LABELS, LABEL_TO_INDEX

# the task scores the three emotion classes; "others" is excluded by default
SCORED_CLASSES = ("happy", "sad", "angry")


def _as_index(label) -> int:
    if isinstance(label, str):
        try:
            return LABEL_TO_INDEX[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None
    i = int(label)
    if not 0 <= i < len(LABELS):
        raise ValueError(f"label index {i} out of range [0, {len(LABELS)})")
    return i


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # [gold x predicted]


def confusion_matrix(gold, pred) -> ConfusionMatrix:
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} labels but pred has {len(pred)}")
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(gold, pred):
        counts[_as_index(g), _as_index(p)] += 1
    return ConfusionMatrix(counts)


def precision_recall_f1(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    """P/R/F1 with the 0/0 -> 0 convention at every stage.

    F1 uses the pooled form 2*TP / (2*TP + FP + FN) — equal to the harmonic
    mean 2PR/(P+R) but a single correctly-rounded division.
    """
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    return float(p), float(r), float(f1)


def _tp_fp_fn(cm: ConfusionMatrix, name: str) -> tuple[int, int, int]:
    """One class's true positives, false positives and false negatives."""
    c = LABEL_TO_INDEX[name]
    tp = cm.counts[c, c]
    return tp, cm.counts[:, c].sum() - tp, cm.counts[c, :].sum() - tp


def micro_f1(cm: ConfusionMatrix, scored_classes=SCORED_CLASSES) -> float:
    """F1 from TP/FP/FN pooled across the scored classes."""
    pooled = sum((np.array(_tp_fp_fn(cm, n)) for n in scored_classes), np.zeros(3, np.int64))
    return precision_recall_f1(*pooled)[2]


@dataclass
class SeedAggregate:
    mean: float
    sd: float


def aggregate_seeds(scores) -> SeedAggregate:
    """Mean and sample standard deviation (n-1 denominator, 0 for n = 1)."""
    scores = [float(s) for s in scores]
    if not scores:
        raise ValueError("aggregate_seeds needs at least one score")
    mean = sum(scores) / len(scores)
    if len(scores) == 1:
        sd = 0.0
    else:
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (len(scores) - 1))
    return SeedAggregate(mean, sd)


def format_report(cm: ConfusionMatrix, scored_classes=SCORED_CLASSES) -> str:
    """Evaluation report as UTF-8 TSV: per-class P/R/F1, the confusion
    matrix, and the pooled micro-F1 over the scored classes."""
    lines = ["class\tprecision\trecall\tf1\tsupport"]
    for name in LABELS:
        tp, fp, fn = _tp_fp_fn(cm, name)
        p, r, f1 = precision_recall_f1(tp, fp, fn)
        lines.append(f"{name}\t{p:.4f}\t{r:.4f}\t{f1:.4f}\t{tp + fn}")
    lines.append("")
    lines.append("confusion\t" + "\t".join(f"pred_{n}" for n in LABELS))
    for name in LABELS:
        row = cm.counts[LABEL_TO_INDEX[name]]
        lines.append("gold_" + name + "\t" + "\t".join(str(int(v)) for v in row))
    lines.append("")
    lines.append(f"micro_f1\t{micro_f1(cm, scored_classes):.6f}")
    lines.append(f"scored_classes\t{','.join(scored_classes)}")
    return "\n".join(lines) + "\n"
