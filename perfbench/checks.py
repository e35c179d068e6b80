"""Output checks, computed apart from the program.

Inputs are re-read with parsers written here, models are read as plain
JSON, and expected results come from definitions written here or from the
brute-force oracles in ``tests/oracles.py``:

* racket-train: the training instances are routed down the saved tree with
  ``oracles.slow_check``; the root must carry the split that
  ``oracles.exhaustive_best_split`` finds, and every leaf the routed tally;
* long-predict: every instance is walked down the model with interval
  semantics written from the definitions (Allen relations as inequalities,
  ceil(alpha * points) on alpha's exact binary value);
* racket-compare: 1-NN accuracies from ED-I, DTW-I and DTW-D written here
  (squared-cost DTW recurrence, lowest training index wins ties) and the j48
  accuracy from ``oracles.ReferenceStaticTree`` on mean/std features.

Each check returns a list of mismatch messages, empty when the output is
right.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------- parsing

def read_ts(path: Path):
    """(channel matrices, labels) of a UEA-style file."""
    series, labels = [], []
    in_data = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("@"):
            in_data = in_data or line.lower() == "@data"
            continue
        if in_data:
            *chans, label = line.split(":")
            series.append(np.array([[float(v) for v in c.split(",")] for c in chans]))
            labels.append(label)
    return series, labels


def read_semicolon(path: Path):
    """(channel matrices, labels) of a semicolon table whose last column is
    the class."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    series = [np.array([[float(v) for v in cell.split(";")] for cell in row[:-1]])
              for row in rows[1:]]
    return series, [row[-1] for row in rows[1:]]


def first_appearance(labels):
    names = list(dict.fromkeys(labels))
    return names, [names.index(label) for label in labels]


# ------------------------------------------------------ interval semantics

_RELATIONS = {
    # does [u, v] stand in the relation to the reference [x, y]?
    "A": lambda x, y, u, v: u == y,
    "L": lambda x, y, u, v: u > y,
    "B": lambda x, y, u, v: (u == x) & (v < y),
    "E": lambda x, y, u, v: (v == y) & (x < u),
    "D": lambda x, y, u, v: (x < u) & (v < y),
    "O": lambda x, y, u, v: (x < u) & (u < y) & (y < v),
    "AI": lambda x, y, u, v: v == x,
    "LI": lambda x, y, u, v: v < x,
    "BI": lambda x, y, u, v: (u == x) & (y < v),
    "EI": lambda x, y, u, v: (v == y) & (u < x),
    "DI": lambda x, y, u, v: (u < x) & (y < v),
    "OI": lambda x, y, u, v: (u < x) & (x < v) & (v < y),
    "EQ": lambda x, y, u, v: (u == x) & (v == y),
}


def _points_ok(values, comparator, threshold, tol):
    if comparator == "LE":
        return values <= threshold
    if comparator == "GT":
        return values > threshold
    return values == threshold if tol == 0.0 else np.abs(values - threshold) <= tol


def walk(tree: dict, channels: np.ndarray) -> int:
    """Class index of the leaf an instance reaches, starting on [0, 1].

    Every interval [u, v] of {0..N} is tested at once: it holds when at
    least ceil(alpha * p) of its p data points u..v (clipped to 1..N-z)
    satisfy the point condition.  A modal decision moves the instance onto
    the first holding related interval in (u, v) order.
    """
    n = channels.shape[1]
    u, v = np.triu_indices(n + 1, k=1)
    x, y = 0, 1
    node = tree
    while node["kind"] == "node":
        d = node["decision"]
        values = channels[d["attribute_index"]]
        for _ in range(d["derivative_degree"]):
            values = values[1:] - values[:-1]
        ok = _points_ok(values, d["comparator"], d["threshold"], d.get("eq_tolerance", 0.0))
        cum = np.concatenate([[0], np.cumsum(ok)])
        lo = np.maximum(u, 1)
        hi = np.minimum(v, values.size)
        p = hi - lo + 1
        num, den = float(d["alpha"]).as_integer_ratio()
        need = -((-num * p) // den)
        holds = (p >= 1) & (cum[hi] - cum[lo - 1] >= need)
        hits = holds & _RELATIONS[d["relation"]](x, y, u, v)
        satisfied = bool(hits.any())
        if satisfied and d["relation"] != "EQ":
            k = int(np.argmax(hits))
            x, y = int(u[k]), int(v[k])
        node = node["left"] if satisfied else node["right"]
    return node["class_index"]


# -------------------------------------------------------------- long-predict

def expected_long(model_path: Path, data_path: Path):
    """(class names, predicted class names, true class names)."""
    model = json.loads(Path(model_path).read_text(encoding="utf-8"))
    series, labels = read_semicolon(data_path)
    names = model["class_names"]
    return names, [names[walk(model["tree"], s)] for s in series], labels


def _tally(names, predicted, true):
    q = len(names)
    rows = [[0] * q for _ in range(q)]
    for p, t in zip(predicted, true):
        rows[names.index(p)][names.index(t)] += 1
    return rows


def check_predict(stdout: str, expected) -> list[str]:
    _, predicted, _ = expected
    got = stdout.splitlines()
    if got == predicted:
        return []
    if len(got) != len(predicted):
        return [f"predict printed {len(got)} lines for {len(predicted)} instances"]
    bad = [i for i, (a, b) in enumerate(zip(got, predicted)) if a != b]
    return [f"predict: instance {bad[0]} printed {got[bad[0]]!r}, walk gives "
            f"{predicted[bad[0]]!r} ({len(bad)} differ)"]


def check_evaluate(stdout: str, report: str, expected) -> list[str]:
    names, predicted, true = expected
    rows = _tally(names, predicted, true)
    acc = sum(rows[i][i] for i in range(len(names))) / len(true)
    errors = []
    lines = stdout.splitlines()
    if not lines or lines[0] != f"accuracy: {acc * 100.0:.2f}":
        errors.append(f"evaluate: first line {lines[:1]!r}, tally gives {acc * 100.0:.2f}")
    printed = {}
    for line in lines[2: 2 + len(names) + 1]:
        cells = line.split()
        if cells and cells[0] in names and len(cells) == len(names) + 1:
            printed[cells[0]] = [int(c) for c in cells[1:]]
    if [printed.get(name) for name in names] != rows:
        errors.append(f"evaluate: confusion matrix {printed}, tally gives {rows}")
    reported = [ln.split("\t") for ln in report.splitlines()]
    acc_rows = [r for r in reported if len(r) == 4 and r[2] == "accuracy"]
    if len(acc_rows) != 1 or float(acc_rows[0][3]) != acc:
        errors.append(f"evaluate: report accuracy {acc_rows}, tally gives {acc!r}")
    return errors


# ------------------------------------------------------------ racket-train

# Nodes shallower than this are searched again by the exhaustive oracle; at
# the root that takes about 12 s, and each deeper level nearly as long again.
ORACLE_DEPTH = 1


def check_train(stdout: str, model_text: str, series, classes, class_names, config) -> list[str]:
    """Walk the saved tree with the training instances, routed by
    ``oracles.slow_check``.  Every leaf must hold the routed class tally;
    every node shallower than ``ORACLE_DEPTH`` must carry the decision and
    partition sizes of ``oracles.exhaustive_best_split``, and every leaf
    there must be one where the oracle finds no split; nodes must obey the
    stopping rules (purity, twice the minimum leaf size)."""
    import oracles
    from tstrees.core import Comparator, Instance, Interval, IntervalRelation, TemporalDecision

    try:
        model = json.loads(model_text)
    except json.JSONDecodeError as exc:
        return [f"train: model file is not JSON: {exc}"]
    if model.get("class_names") != class_names:
        return [f"train: class names {model.get('class_names')}, data has {class_names}"]
    q = len(class_names)
    errors, leaves = [], []

    def visit(node, instances, depth, path):
        counts = [0] * q
        for inst in instances:
            counts[inst.class_index] += 1
        stops = (oracles.entropy(counts) <= config.purity_threshold
                 or len(instances) < 2 * config.min_leaf_size)
        found = None
        if depth < ORACLE_DEPTH and not stops:
            found = oracles.exhaustive_best_split(instances, config)
        if node["kind"] == "leaf":
            leaves.append(node)
            if (node["class_index"], list(node["class_counts"])) != (
                    counts.index(max(counts)), counts):
                errors.append(f"{path}: leaf {node['class_counts']}, routed tally {counts}")
            if found is not None:
                errors.append(f"{path}: leaf where the oracle splits by {found}")
            return
        if stops:
            errors.append(f"{path}: split although the stopping rules make a leaf")
            return
        d = node["decision"]
        decision = TemporalDecision(
            IntervalRelation[d["relation"]], d["attribute_index"], d["derivative_degree"],
            Comparator[d["comparator"]], d["threshold"], d["alpha"], d["eq_tolerance"])
        sat, unsat = [], []
        for inst in instances:
            ok, witness = oracles.slow_check(inst, decision)
            if not ok:
                unsat.append(inst)
            elif witness is None:
                sat.append(inst)
            else:
                sat.append(Instance(inst.channels, inst.class_index, Interval(*witness)))
        if depth < ORACLE_DEPTH:
            key = (decision.attribute_index, decision.relation.rank, decision.comparator.rank,
                   decision.threshold, decision.alpha, decision.derivative_degree)
            if found is None or (found[0][1:], found[1]) != (key, (len(sat), len(unsat))):
                errors.append(f"{path}: decision {key} splits {len(sat)}/{len(unsat)}, "
                              f"oracle gives {found}")
        visit(node["left"], sat, depth + 1, path + ".sat")
        visit(node["right"], unsat, depth + 1, path + ".unsat")

    visit(model["tree"], [Instance(s, c) for s, c in zip(series, classes)], 0, "root")
    suffixes = []
    for leaf in leaves:
        total = sum(leaf["class_counts"])
        wrong = total - leaf["class_counts"][leaf["class_index"]]
        count = f"{float(total):.1f}" + (f"/{float(wrong):.1f}" if wrong else "")
        suffixes.append(f": {class_names[leaf['class_index']]} ({count})")
    printed = re.findall(r": \S+ \([0-9./]+\)$", stdout, flags=re.M)
    if printed != suffixes:
        errors.append(f"train: printed leaves {printed}, model has {suffixes}")
    lines = stdout.splitlines()
    if len(lines) != 2 * (len(leaves) - 1):
        errors.append(f"train: printed {len(lines)} lines for {len(leaves) - 1} decisions")
    return errors


# ---------------------------------------------------------- racket-compare

def resample(classes, q, fraction, seed):
    """Seeded stratified split as the CLI documents it: shuffle each class,
    take floor(fraction * size) of each, top up by largest remainder until
    ceil(fraction * m) are taken, then shuffle both sides."""
    target = math.ceil(fraction * len(classes))
    rng = random.Random(seed)
    by_class = [[i for i, c in enumerate(classes) if c == k] for k in range(q)]
    for members in by_class:
        rng.shuffle(members)
    quotas = [fraction * len(members) for members in by_class]
    take = [math.floor(x) for x in quotas]
    for c in sorted(range(q), key=lambda c: (-(quotas[c] - take[c]), c)):
        if sum(take) < target and take[c] < len(by_class[c]):
            take[c] += 1
    for c in range(q):
        while sum(take) < target and take[c] < len(by_class[c]):
            take[c] += 1
    train = [i for c in range(q) for i in by_class[c][: take[c]]]
    test = [i for c in range(q) for i in by_class[c][take[c]:]]
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def _dtw_all(cost):
    """DTW with squared cost for a batch of pairs: ``cost`` is
    (pairs, n, m); returns the accumulated cost of the best path per pair."""
    pairs, n, m = cost.shape
    prev = np.full((pairs, m + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(n):
        cur = np.full((pairs, m + 1), np.inf)
        for j in range(1, m + 1):
            best = np.minimum(np.minimum(prev[:, j], cur[:, j - 1]), prev[:, j - 1])
            cur[:, j] = cost[:, i, j - 1] + best
        prev = cur
    return prev[:, m]


def _nn_accuracy(dist, train_cls, test_cls):
    """dist is (test, train); lowest training index wins ties."""
    pred = np.asarray(train_cls)[np.argmin(dist, axis=1)]
    return float(np.sum(pred == np.asarray(test_cls))) / len(test_cls)


def expected_compare(series, classes, q, seed, fraction=0.8):
    """Accuracy per method after the CLI's split of the data."""
    import oracles

    train, test = resample(classes, q, fraction, seed)
    a = np.stack([series[i] for i in test])      # (t, ch, n)
    b = np.stack([series[i] for i in train])     # (r, ch, n)
    tc = [classes[i] for i in test]
    rc = [classes[i] for i in train]
    t, ch, n = a.shape
    r = b.shape[0]
    diff = a[:, None, :, :] - b[None, :, :, :]   # (t, r, ch, n)
    out = {"ed-i": _nn_accuracy(np.sqrt((diff ** 2).sum(axis=3)).sum(axis=2), rc, tc)}

    dtw_i = np.zeros((t, r))
    for c in range(ch):
        local = (a[:, None, c, :, None] - b[None, :, c, None, :]) ** 2  # (t, r, n, n)
        dtw_i = dtw_i + _dtw_all(local.reshape(t * r, n, n)).reshape(t, r)
    out["dtw-i"] = _nn_accuracy(dtw_i, rc, tc)
    local = ((a[:, None, :, :, None] - b[None, :, :, None, :]) ** 2).sum(axis=2)
    out["dtw-d"] = _nn_accuracy(_dtw_all(local.reshape(t * r, n, n)).reshape(t, r), rc, tc)

    def features(s):
        row = []
        for values in s:
            mean = float(values.sum() / values.size)
            centered = values - mean
            row += [mean, math.sqrt(float((centered ** 2).sum() / values.size))]
        return row

    ref = oracles.ReferenceStaticTree(min_leaf_size=2, purity_threshold=0.0)
    ref.fit([features(series[i]) for i in train], rc)
    good = sum(ref.predict_one(features(series[i])) == classes[i] for i in test)
    out["j48:1100"] = good / len(test)
    return out


def check_compare(stdout: str, report: str, want) -> list[str]:
    errors = []
    got = {}
    for line in report.splitlines():
        cells = line.split("\t")
        if len(cells) == 4 and cells[2] == "accuracy":
            got[cells[1]] = float(cells[3])
    if got != want:
        errors.append(f"compare: report accuracies {got}, recomputed {want}")
    for method, acc in want.items():
        pattern = rf"^{re.escape(method)}\s+_?{acc * 100.0:.2f}_?\*?$"
        if not re.search(pattern, stdout, flags=re.M):
            errors.append(f"compare: no printed row for {method} at {acc * 100.0:.2f}")
    return errors
