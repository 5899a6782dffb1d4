from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from emoconv import metrics as M
from emoconv.dataio import LABELS


def test_confusion_matrix_basics():
    cm = M.confusion_matrix(["happy"] * 5 + ["sad"] * 5, ["happy"] * 5 + ["sad"] * 5)
    assert np.trace(cm.counts) == 10 and cm.counts.sum() == 10

    empty = M.confusion_matrix([], [])
    npt.assert_array_equal(empty.counts, np.zeros((4, 4)))

    one = M.confusion_matrix(["happy"], ["sad"])
    assert one.counts[0, 1] == 1 and one.counts.sum() == 1

    with pytest.raises(ValueError):
        M.confusion_matrix(["happy"], [])
    with pytest.raises(ValueError):
        M.confusion_matrix(["happy"], ["meh"])
    # integer label indices are accepted too
    assert M.confusion_matrix([0, 3], [0, 3]).counts[3, 3] == 1


def test_micro_f1_worked_example():
    gold = ["happy", "sad", "angry", "others", "others"]
    pred = ["happy", "angry", "angry", "happy", "others"]
    # TP = 2 (happy, angry), FP = 2 (angry<-sad, happy<-others), FN = 1 (sad)
    cm = M.confusion_matrix(gold, pred)
    assert M.micro_f1(cm) == 4 / 7


def test_micro_f1_edges():
    gold = ["happy", "sad", "angry", "others"]
    assert M.micro_f1(M.confusion_matrix(gold, gold)) == 1.0
    assert M.micro_f1(M.confusion_matrix(gold, ["others"] * 4)) == 0.0
    assert M.micro_f1(M.confusion_matrix([], [])) == 0.0


def _oracle_micro_f1(gold, pred, scored):
    tp = sum(1 for g, p in zip(gold, pred) if g == p and g in scored)
    fp = sum(1 for g, p in zip(gold, pred) if p in scored and g != p)
    fn = sum(1 for g, p in zip(gold, pred) if g in scored and g != p)
    if tp == 0:
        return 0.0
    # exact rational harmonic mean, rounded once at the end
    p = Fraction(tp, tp + fp)
    r = Fraction(tp, tp + fn)
    return float(2 * p * r / (p + r))


def test_micro_f1_matches_counting_oracle():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 30))
        gold = [LABELS[i] for i in rng.integers(0, 4, n)]
        pred = [LABELS[i] for i in rng.integers(0, 4, n)]
        ours = M.micro_f1(M.confusion_matrix(gold, pred))
        oracle = _oracle_micro_f1(gold, pred, set(M.SCORED_CLASSES))
        assert ours == oracle, f"trial {trial}: {ours} != {oracle}"


def test_micro_f1_permutation_invariant():
    rng = np.random.default_rng(5)
    gold = [LABELS[i] for i in rng.integers(0, 4, 40)]
    pred = [LABELS[i] for i in rng.integers(0, 4, 40)]
    base = M.micro_f1(M.confusion_matrix(gold, pred))
    for _ in range(10):
        order = rng.permutation(40)
        shuffled = M.micro_f1(M.confusion_matrix([gold[i] for i in order],
                                                 [pred[i] for i in order]))
        assert shuffled == base


def test_micro_f1_over_all_classes_is_accuracy():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 50))
        gold = [LABELS[i] for i in rng.integers(0, 4, n)]
        pred = [LABELS[i] for i in rng.integers(0, 4, n)]
        cm = M.confusion_matrix(gold, pred)
        acc = sum(g == p for g, p in zip(gold, pred)) / n
        npt.assert_allclose(M.micro_f1(cm, scored_classes=LABELS), acc)


def test_aggregate_seeds():
    agg = M.aggregate_seeds([0.7, 0.7, 0.7])
    npt.assert_allclose(agg.mean, 0.7)
    npt.assert_allclose(agg.sd, 0.0, atol=1e-12)

    agg = M.aggregate_seeds([0.6, 0.8])
    npt.assert_allclose(agg.mean, 0.7)
    npt.assert_allclose(agg.sd, np.sqrt(0.02))

    assert M.aggregate_seeds([0.42]).sd == 0.0
    with pytest.raises(ValueError):
        M.aggregate_seeds([])
    agg = M.aggregate_seeds([0.1, 0.9, 0.5])
    assert 0.1 <= agg.mean <= 0.9


def test_format_report_contains_the_numbers():
    gold = ["happy", "sad", "angry", "others", "others"]
    pred = ["happy", "angry", "angry", "happy", "others"]
    report = M.format_report(M.confusion_matrix(gold, pred))
    assert report.startswith("class\tprecision\trecall\tf1\tsupport")
    assert f"micro_f1\t{4 / 7:.6f}" in report
    assert "gold_sad\t0\t0\t1\t0" in report
    assert "scored_classes\thappy,sad,angry" in report
