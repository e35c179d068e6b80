"""Performance reporting: accuracy from the confusion matrix, one-vs-rest
per-class metrics (TP/FP rate, precision, recall, F-measure, MCC, ROC and
PRC areas), and the plain-text comparison tables used by the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

from .core import ConfusionMatrix


def accuracy(matrix: ConfusionMatrix) -> float:
    """Fraction of correctly classified instances (trace over total)."""
    total = matrix.total
    if total == 0:
        raise ValueError("accuracy is undefined for an empty confusion matrix")
    return matrix.trace / total


def percent(fraction: float) -> str:
    """CLI rendering of an accuracy fraction, two decimals."""
    return f"{fraction * 100.0:.2f}"


@dataclass(frozen=True)
class ClassMetrics:
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f_measure: float
    mcc: float
    roc_area: float
    prc_area: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def _tie_runs(labels: Sequence[bool], scores: Sequence[float]) -> list[tuple[int, int]]:
    """(positives, negatives) of each run of tied scores, in ascending score
    order."""
    runs = []
    for _, run in groupby(sorted(zip(scores, labels), key=itemgetter(0)), key=itemgetter(0)):
        flags = [bool(label) for _, label in run]
        runs.append((sum(flags), len(flags) - sum(flags)))
    return runs


def roc_area(labels: Sequence[bool], scores: Sequence[float]) -> float:
    """Rank-based ROC area with mid-rank handling of ties.

    Degenerate inputs (no positives or no negatives) score 0.5, the
    uninformative default.
    """
    runs = _tie_runs(labels, scores)
    n_pos = sum(pos for pos, _ in runs)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    rank_sum = 0.0  # a sum of half-integers, so exact
    below = 0
    for pos, neg in runs:
        rank_sum += pos * (below + (pos + neg + 1) / 2.0)  # 1-based mid rank of the run
        below += pos + neg
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def prc_area(labels: Sequence[bool], scores: Sequence[float]) -> float:
    """Precision-recall area by step interpolation over unique score
    thresholds, descending."""
    runs = _tie_runs(labels, scores)
    n_pos = sum(pos for pos, _ in runs)
    if n_pos == 0:
        return 0.0
    area = 0.0
    tp = 0
    fp = 0
    prev_recall = 0.0
    for pos, neg in reversed(runs):
        tp += pos
        fp += neg
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return area


def class_report(
    matrix: ConfusionMatrix,
    scores: Sequence[tuple[int, Sequence[float]]],
) -> tuple[ClassMetrics, ...]:
    """One-vs-rest metrics for every class, indexed by class.

    ``scores`` carries, per evaluated instance, its true class index and its
    row-normalized per-class score vector (leaf class distributions); the
    score rows feed the ROC and PRC areas, everything else comes from the
    matrix.
    """
    q = matrix.size
    total = matrix.total
    rows = []
    for c in range(q):
        tp = matrix.counts[c][c]
        fp = sum(matrix.counts[c][j] for j in range(q) if j != c)
        fn = sum(matrix.counts[i][c] for i in range(q) if i != c)
        tn = total - tp - fp - fn
        tp_rate = _safe_div(tp, tp + fn)
        fp_rate = _safe_div(fp, fp + tn)
        precision = _safe_div(tp, tp + fp)
        recall = tp_rate
        f_measure = _safe_div(2 * precision * recall, precision + recall)
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc = _safe_div(tp * tn - fp * fn, math.sqrt(denom)) if denom > 0 else 0.0
        labels = [true == c for true, _ in scores]
        class_scores = [float(vec[c]) for _, vec in scores]
        rows.append(
            ClassMetrics(
                tp_rate=tp_rate,
                fp_rate=fp_rate,
                precision=precision,
                recall=recall,
                f_measure=f_measure,
                mcc=mcc,
                roc_area=roc_area(labels, class_scores),
                prc_area=prc_area(labels, class_scores),
            )
        )
    return tuple(rows)


#: Method-name prefix -> comparison group.
_GROUPS = {"j48": "feature", "ed-i": "distance", "dtw-i": "distance", "dtw-d": "distance", "tj48": "temporal"}


def group_of(method: str) -> str:
    head = method.split(":", 1)[0]
    return _GROUPS.get(head, head)


def _mark_cells(rows: Sequence[tuple[str, float]]) -> dict[str, str]:
    """Accuracy cell text per method; best in group is underlined with
    underscores and the absolute best additionally starred.  Ties share
    markers."""
    best_overall = max(acc for _, acc in rows)
    best_in_group: dict[str, float] = {}
    for method, acc in rows:
        g = group_of(method)
        best_in_group[g] = max(best_in_group.get(g, acc), acc)
    cells = {}
    for method, acc in rows:
        text = percent(acc)
        if acc == best_in_group[group_of(method)]:
            text = f"_{text}_"
        if acc == best_overall:
            text = f"{text}*"
        cells[method] = text
    return cells


def compare_report(rows: Sequence[tuple[str, float]], title: str = "accuracy") -> str:
    """Single-dataset comparison table: one row per method, the
    one-column :func:`grid_report` headed ``title``.

    Best-in-group cells are wrapped in underscores, the absolute best gets a
    trailing star; groups are separated by a rule.
    """
    return grid_report([m for m, _ in rows], [title], {(m, title): a for m, a in rows})


def grid_report(
    methods: Sequence[str],
    datasets: Sequence[str],
    cells: dict[tuple[str, str], float],
) -> str:
    """Multi-dataset grid: methods as rows, datasets as columns, markers
    computed per column."""
    if not methods or not datasets:
        raise ValueError("grid_report needs at least one method and one dataset")
    marked: dict[tuple[str, str], str] = {}
    for ds in datasets:
        col = [(m, cells[(m, ds)]) for m in methods if (m, ds) in cells]
        for m, text in _mark_cells(col).items():
            marked[(m, ds)] = text
    name_w = max(len("method"), max(len(m) for m in methods))
    widths = {
        ds: max(len(ds), max(len(marked.get((m, ds), "-")) for m in methods))
        for ds in datasets
    }
    header = "method".ljust(name_w) + "".join(
        "  " + ds.rjust(widths[ds]) for ds in datasets
    )
    lines = [header]
    prev_group = None
    for m in methods:
        g = group_of(m)
        if prev_group is not None and g != prev_group:
            lines.append("-" * len(header))
        prev_group = g
        lines.append(
            m.ljust(name_w)
            + "".join("  " + marked.get((m, ds), "-").rjust(widths[ds]) for ds in datasets)
        )
    return "\n".join(lines) + "\n"


def metrics_lines(records: Iterable[tuple[str, str, str, float]]) -> str:
    """Machine-readable report: one ``dataset<TAB>method<TAB>metric<TAB>value``
    line per record."""
    return "".join(
        f"{dataset}\t{method}\t{metric}\t{value!r}\n"
        for dataset, method, metric, value in records
    )
