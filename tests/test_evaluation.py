import math

import pytest

from tstrees.core import ConfusionMatrix
from tstrees.evaluation import (
    accuracy,
    class_report,
    compare_report,
    grid_report,
    group_of,
    metrics_lines,
    percent,
    prc_area,
    roc_area,
)


def test_accuracy_examples():
    diagonal = ConfusionMatrix.from_rows([[3, 0], [0, 4]])
    assert accuracy(diagonal) == 1.0
    assert percent(accuracy(diagonal)) == "100.00"

    mixed = ConfusionMatrix.from_rows([[12, 4], [2, 8]])
    assert mixed.total == 26 and mixed.trace == 20
    assert percent(accuracy(mixed)) == "76.92"

    off = ConfusionMatrix.from_rows([[0, 5], [3, 0]])
    assert percent(accuracy(off)) == "0.00"
    with pytest.raises(ValueError):
        accuracy(ConfusionMatrix.from_rows([[0, 0], [0, 0]]))


def test_class_report_perfect_classifier():
    matrix = ConfusionMatrix.from_rows([[3, 0], [0, 3]])
    scores = [(0, [1.0, 0.0])] * 3 + [(1, [0.0, 1.0])] * 3
    report = class_report(matrix, scores)
    for c in range(2):
        row = report[c]
        assert row.precision == 1.0 and row.recall == 1.0
        assert row.f_measure == 1.0 and row.roc_area == 1.0
        assert row.fp_rate == 0.0 and row.mcc == 1.0


def test_class_report_constant_classifier_roc_half():
    # a single-leaf tree predicts class 0 with the same score row everywhere
    matrix = ConfusionMatrix.from_rows([[3, 3], [0, 0]])
    scores = [(0, [0.5, 0.5])] * 3 + [(1, [0.5, 0.5])] * 3
    report = class_report(matrix, scores)
    assert report[0].roc_area == 0.5
    assert report[1].roc_area == 0.5


def test_class_report_crafted_six_instances():
    # predictions: rows predicted, columns true
    matrix = ConfusionMatrix.from_rows([[2, 1], [1, 2]])
    scores = [
        (0, [0.9, 0.1]),
        (0, [0.8, 0.2]),
        (0, [0.4, 0.6]),
        (1, [0.7, 0.3]),
        (1, [0.2, 0.8]),
        (1, [0.3, 0.7]),
    ]
    report = class_report(matrix, scores)
    # hand-computed one-vs-rest for class 0: TP=2 FP=1 FN=1 TN=2
    row = report[0]
    assert row.tp_rate == 2 / 3
    assert row.fp_rate == 1 / 3
    assert row.precision == 2 / 3
    assert row.recall == 2 / 3
    assert row.f_measure == 2 / 3
    want_mcc = (2 * 2 - 1 * 1) / math.sqrt((2 + 1) * (2 + 1) * (2 + 1) * (2 + 1))
    assert row.mcc == want_mcc
    # scores for class 0 of true-0 instances: .9 .8 .4; true-1: .7 .2 .3
    # pairs won: (.9,.8) beat all three; .4 beats .2 and .3 -> 8 of 9
    assert row.roc_area == 8 / 9


def test_mcc_zero_convention():
    matrix = ConfusionMatrix.from_rows([[4, 2], [0, 0]])
    scores = [(0, [1.0, 0.0])] * 4 + [(1, [1.0, 0.0])] * 2
    report = class_report(matrix, scores)
    assert report[0].mcc == 0.0  # TN + FN column is empty


def test_binary_mcc_symmetry(rng):
    for _ in range(20):
        a, b, c, d = (int(v) for v in rng.integers(0, 6, size=4))
        if (a + b) == 0 or (c + d) == 0 or (a + c) == 0 or (b + d) == 0:
            continue
        matrix = ConfusionMatrix.from_rows([[a, b], [c, d]])
        scores = []
        for true in (0, 1):
            for _k in range(a + c if true == 0 else b + d):
                scores.append((true, [0.5, 0.5]))
        report = class_report(matrix, scores)
        assert report[0].mcc == pytest.approx(report[1].mcc, abs=1e-12)


def test_roc_invariant_under_monotone_transform(rng):
    labels = [bool(v) for v in rng.integers(0, 2, size=12)]
    if not any(labels) or all(labels):
        labels[0] = not labels[0]
    scores = [float(s) for s in rng.normal(size=12)]
    base = roc_area(labels, scores)
    transformed = [math.exp(2.0 * s) + 1.0 for s in scores]
    assert roc_area(labels, transformed) == pytest.approx(base, abs=1e-12)


def test_roc_and_prc_areas_equal_pairwise_and_per_threshold_sums_on_tied_scores(rng):
    """ROC area is the share of (positive, negative) pairs ranked right, a tie
    counting one half; PRC area steps through each distinct score, highest
    first.  Scores drawn from few values make long tied runs."""
    for size in range(1, 40):
        labels = [bool(v) for v in rng.integers(0, 2, size=size)]
        scores = [float(v) for v in rng.integers(0, 4, size=size) / 4]
        pos = [s for s, lab in zip(scores, labels) if lab]
        neg = [s for s, lab in zip(scores, labels) if not lab]
        if pos and neg:
            right = sum((p > n) + (p == n) / 2 for p in pos for n in neg)
            assert roc_area(labels, scores) == right / (len(pos) * len(neg))
        else:
            assert roc_area(labels, scores) == 0.5
        area, prev_recall = 0.0, 0.0
        for t in sorted(set(scores), reverse=True):
            tp = sum(s >= t for s in pos)
            recall = tp / len(pos) if pos else 0.0
            area += (recall - prev_recall) * (tp / sum(s >= t for s in scores))
            prev_recall = recall
        assert prc_area(labels, scores) == (area if pos else 0.0)


def test_prc_area_perfect_and_empty():
    assert prc_area([True, True, False], [0.9, 0.8, 0.1]) == 1.0
    assert prc_area([False, False], [0.5, 0.5]) == 0.0


def test_group_of():
    assert group_of("tj48:0.5") == "temporal"
    assert group_of("j48:1100") == "feature"
    assert group_of("ed-i") == "distance"
    assert group_of("dtw-d") == "distance"
    assert group_of("something") == "something"


def test_compare_report_single_method():
    text = compare_report([("tj48:0.5", 0.75)])
    assert "tj48:0.5" in text
    assert "_75.00_*" in text


def test_compare_report_tied_best_share_markers():
    rows = [("ed-i", 0.70), ("dtw-i", 0.80), ("dtw-d", 0.80)]
    text = compare_report(rows)
    assert text.count("_80.00_*") == 2
    assert "_70.00_" not in text


def test_compare_report_groups_marked_independently():
    rows = [
        ("j48:1100", 0.60),
        ("ed-i", 0.70),
        ("dtw-i", 0.65),
        ("tj48:0.5", 0.62),
        ("tj48:0.9", 0.58),
    ]
    text = compare_report(rows)
    assert "_60.00_" in text  # best of the feature group
    assert "_70.00_*" in text  # best distance and absolute best
    assert "_62.00_" in text  # best temporal
    lines = text.splitlines()
    assert sum(1 for ln in lines if set(ln) == {"-"}) == 2  # two group separators


def test_grid_report_columns():
    methods = ["ed-i", "tj48:0.5"]
    datasets = ["ds1", "ds2"]
    cells = {
        ("ed-i", "ds1"): 0.5,
        ("ed-i", "ds2"): 0.25,
        ("tj48:0.5", "ds1"): 0.75,
        ("tj48:0.5", "ds2"): 0.10,
    }
    text = grid_report(methods, datasets, cells)
    head = text.splitlines()[0]
    assert "ds1" in head and "ds2" in head
    assert "_75.00_*" in text and "_25.00_*" in text


def test_metrics_lines_format():
    text = metrics_lines([("ds", "tj48:0.5", "accuracy", 0.75)])
    assert text == "ds\ttj48:0.5\taccuracy\t0.75\n"
