"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles: Allen relations by
their direct inequality definitions (no transposition), decision checks by
enumerating every interval, split search by walking the whole candidate grid,
DTW by exploring every warping path.  Nothing is imported from the package's
evaluation internals except shared, purely definitional plumbing
(threshold generation), so a library bug cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from tstrees.core import Comparator, IntervalRelation, Interval, TemporalDecision
from tstrees.induction import candidate_thresholds

Rel = IntervalRelation

# Direct definitions: does j = [u, v] stand in the relation to i = [x, y]?
RELATION_DEFS = {
    Rel.A: lambda x, y, u, v: y == u,
    Rel.L: lambda x, y, u, v: y < u,
    Rel.B: lambda x, y, u, v: x == u and v < y,
    Rel.E: lambda x, y, u, v: y == v and x < u,
    Rel.D: lambda x, y, u, v: x < u and v < y,
    Rel.O: lambda x, y, u, v: x < u < y < v,
    Rel.AI: lambda x, y, u, v: v == x,
    Rel.LI: lambda x, y, u, v: v < x,
    Rel.BI: lambda x, y, u, v: u == x and y < v,
    Rel.EI: lambda x, y, u, v: v == y and u < x,
    Rel.DI: lambda x, y, u, v: u < x and y < v,
    Rel.OI: lambda x, y, u, v: u < x < v < y,
    Rel.EQ: lambda x, y, u, v: x == u and y == v,
}


def all_intervals(n: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(n) for y in range(x + 1, n + 1)]


@lru_cache(maxsize=None)
def relation_tensor(n: int) -> dict:
    """REL[rel][r, j]: interval j stands in rel to interval r (over {0..n})."""
    ivals = all_intervals(n)
    k = len(ivals)
    out = {}
    for rel, fn in RELATION_DEFS.items():
        mat = np.zeros((k, k), dtype=bool)
        for r, (x, y) in enumerate(ivals):
            for j, (u, v) in enumerate(ivals):
                mat[r, j] = fn(x, y, u, v)
        out[rel] = mat
    return out


@lru_cache(maxsize=None)
def ceil_alpha(alpha: float, n_points: int) -> int:
    return math.ceil(Fraction(alpha) * n_points)


def slow_derivative(values, z: int) -> list[float]:
    out = [float(v) for v in values]
    for _ in range(z):
        out = [out[i + 1] - out[i] for i in range(len(out) - 1)]
    return out


def point_matches(value: float, comparator: Comparator, threshold: float, tol: float) -> bool:
    if comparator is Comparator.LE:
        return value <= threshold
    if comparator is Comparator.GT:
        return value > threshold
    if tol == 0.0:
        return value == threshold
    return abs(value - threshold) <= tol


def slow_holds_on(channel, x: int, y: int, comparator, threshold, alpha, z, tol=0.0) -> bool:
    n = len(channel)
    deriv = slow_derivative(channel, z)
    lo, hi = max(x, 1), min(y, n - z)
    if hi < lo:
        return False
    good = sum(
        1 for t in range(lo, hi + 1) if point_matches(deriv[t - 1], comparator, threshold, tol)
    )
    return good >= ceil_alpha(alpha, hi - lo + 1)


def slow_check(instance, decision):
    """(satisfied, witness) by scanning every interval in ascending order."""
    n = instance.series_length
    channel = instance.channels[decision.attribute_index]
    ref = (instance.reference.x, instance.reference.y)
    if decision.relation is Rel.EQ:
        ok = slow_holds_on(
            channel, ref[0], ref[1], decision.comparator, decision.threshold,
            decision.alpha, decision.derivative_degree, decision.eq_tolerance,
        )
        return ok, None
    fn = RELATION_DEFS[decision.relation]
    for (u, v) in all_intervals(n):
        if not fn(ref[0], ref[1], u, v):
            continue
        if slow_holds_on(
            channel, u, v, decision.comparator, decision.threshold,
            decision.alpha, decision.derivative_degree, decision.eq_tolerance,
        ):
            return True, (u, v)
    return False, None


class BulkChecker:
    """Vectorized but enumeration-based evaluation of decisions over a fixed
    instance list: per-interval point counts come from an explicit indicator
    matrix and modalities from the direct-definition relation tensor."""

    def __init__(self, instances):
        self.instances = instances
        self.m = len(instances)
        self.n = instances[0].series_length
        self.n_attr = instances[0].channel_count
        self.channels = np.stack([inst.channels for inst in instances])
        self.classes = np.array([inst.class_index for inst in instances])
        self.intervals = all_intervals(self.n)
        index = {iv: k for k, iv in enumerate(self.intervals)}
        self.ref_idx = np.array(
            [index[(inst.reference.x, inst.reference.y)] for inst in instances]
        )
        self.rel = relation_tensor(self.n)
        self._cache: dict = {}

    def _window(self, z: int):
        key = ("win", z)
        if key not in self._cache:
            npts = self.n - z
            lo = np.array([max(x, 1) for x, _ in self.intervals])
            hi = np.array([min(y, npts) for _, y in self.intervals])
            plen = hi - lo + 1
            ind = np.zeros((npts, len(self.intervals)), dtype=np.int64)
            for k, _ in enumerate(self.intervals):
                if plen[k] >= 1:
                    ind[lo[k] - 1 : hi[k], k] = 1
            self._cache[key] = (plen, ind)
        return self._cache[key]

    def _deriv(self, attr: int, z: int) -> np.ndarray:
        key = ("deriv", attr, z)
        if key not in self._cache:
            rows = [slow_derivative(self.channels[i, attr], z) for i in range(self.m)]
            self._cache[key] = np.array(rows, dtype=np.float64)
        return self._cache[key]

    def interval_sat(self, attr, z, comparator, threshold, alpha, tol=0.0) -> np.ndarray:
        """m x K bool: relaxed satisfaction of the point condition on every
        interval for every instance."""
        plen, ind = self._window(z)
        deriv = self._deriv(attr, z)
        if comparator is Comparator.LE:
            point = deriv <= threshold
        elif comparator is Comparator.GT:
            point = deriv > threshold
        elif tol == 0.0:
            point = deriv == threshold
        else:
            point = np.abs(deriv - threshold) <= tol
        counts = point.astype(np.int64) @ ind
        req = np.array([ceil_alpha(alpha, int(p)) if p >= 1 else 1 for p in plen])
        return (plen >= 1) & (counts >= req)

    def decision_outcomes(self, decision):
        """(satisfied m-bool, witness index per instance or -1)."""
        sat = self.interval_sat(
            decision.attribute_index,
            decision.derivative_degree,
            decision.comparator,
            decision.threshold,
            decision.alpha,
            decision.eq_tolerance,
        )
        if decision.relation is Rel.EQ:
            satisfied = sat[np.arange(self.m), self.ref_idx]
            return satisfied, np.full(self.m, -1)
        mask = self.rel[decision.relation][self.ref_idx]
        hits = sat & mask
        satisfied = hits.any(axis=1)
        witness = np.where(satisfied, hits.argmax(axis=1), -1)
        return satisfied, witness


@lru_cache(maxsize=None)
def successor_spans(x: int, y: int, relation, n: int, z: int) -> tuple:
    """The data-bearing point ranges (lo, hi), lo <= hi, of the successors of
    [x, y] under ``relation`` (by its direct definition) at degree z."""
    return tuple(
        (max(u, 1), min(v, n - z))
        for u, v in all_intervals(n)
        if RELATION_DEFS[relation](x, y, u, v) and max(u, 1) <= min(v, n - z)
    )


def critical_ranks(ranks, x: int, y: int, relation, sweeps, n: int, z: int, never: int) -> list[int]:
    """Per (comparator, alpha) of ``sweeps``, one instance's critical rank
    by definition: ``ranks`` holds its threshold ranks at points 1 .. n - z;
    per successor of its reference [x, y] under ``relation``, sort the ranks
    of the successor's data-bearing points and take the k-th smallest (for
    ``<=``) or k-th largest (for ``>``), k = ceil(alpha * p) for p points;
    the critical rank is the least (resp. greatest) of these, or ``never``
    (resp. -1) when no successor has a data-bearing point."""
    windows = [sorted(ranks[lo - 1 : hi]) for lo, hi in successor_spans(x, y, relation, n, z)]
    out = []
    for comparator, alpha in sweeps:
        if comparator is Comparator.LE:
            out.append(min((w[ceil_alpha(alpha, len(w)) - 1] for w in windows), default=never))
        else:
            out.append(max((w[-ceil_alpha(alpha, len(w))] for w in windows), default=-1))
    return out


def entropy(counts) -> float:
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc += p * math.log2(p)
    return -acc


def weighted_entropy(parent_total, parts) -> float:
    acc = 0.0
    for part in parts:
        size = sum(part)
        if size > 0:
            acc += (size / parent_total) * entropy(part)
    return acc


def exhaustive_best_split(instances, config):
    """Walk the entire candidate grid; return the canonical winner as
    (key, sizes) or None.  key = (split_info, attr, relation rank,
    comparator rank, threshold, alpha, degree)."""
    checker = BulkChecker(instances)
    m = checker.m
    q = int(checker.classes.max()) + 1
    parent = np.bincount(checker.classes, minlength=q)
    parent_info = entropy(parent.tolist())
    best = None
    best_sizes = None
    for attr in range(checker.n_attr):
        for z in range(0, min(config.max_derivative, checker.n - 1) + 1):
            deriv = checker._deriv(attr, z)
            thresholds = candidate_thresholds(deriv.ravel(), config.max_threshold_candidates)
            for comparator in config.comparators:
                for thr in thresholds:
                    for alpha in config.alpha_grid:
                        sat = checker.interval_sat(attr, z, comparator, thr, alpha)
                        for rel in config.relations:
                            if rel is Rel.EQ:
                                satisfied = sat[np.arange(m), checker.ref_idx]
                            else:
                                mask = checker.rel[rel][checker.ref_idx]
                                satisfied = (sat & mask).any(axis=1)
                            n1 = int(satisfied.sum())
                            n2 = m - n1
                            if n1 < config.min_leaf_size or n2 < config.min_leaf_size:
                                continue
                            c1 = np.bincount(checker.classes[satisfied], minlength=q)
                            c2 = parent - c1
                            si = weighted_entropy(m, [c1.tolist(), c2.tolist()])
                            if si >= parent_info:
                                continue
                            key = (si, attr, rel.rank, comparator.rank, thr, alpha, z)
                            if best is None or key < best:
                                best = key
                                best_sizes = (n1, n2)
    if best is None:
        return None
    return best, best_sizes


def reference_grow_tree(instances, q, config):
    """The tree grown from ``instances`` (each on its reference interval)
    over ``q`` classes, as nested tuples: ``("leaf", class, counts)``, with
    the lowest majority class, or ``("node", (attr, relation rank,
    comparator rank, threshold as float.hex, alpha, degree), satisfied
    subtree, unsatisfied subtree)``.  A node is a leaf when its entropy is at
    most the purity threshold, when it holds fewer than twice the minimum
    leaf size, or when :func:`exhaustive_best_split` finds no split.
    Otherwise :func:`slow_check` routes each instance, and one that satisfies
    a modal decision moves onto its witness before the satisfied side is
    grown."""
    counts = tuple(sum(1 for inst in instances if inst.class_index == c) for c in range(q))
    leaf = ("leaf", counts.index(max(counts)), counts)
    if entropy(counts) <= config.purity_threshold or len(instances) < 2 * config.min_leaf_size:
        return leaf
    found = exhaustive_best_split(instances, config)
    if found is None:
        return leaf
    (_, attr, rel_rank, cmp_rank, thr, alpha, z), _ = found
    decision = TemporalDecision(
        relation=next(rel for rel in Rel if rel.rank == rel_rank),
        attribute_index=attr,
        derivative_degree=z,
        comparator=next(c for c in Comparator if c.rank == cmp_rank),
        threshold=thr,
        alpha=alpha,
    )
    satisfied, unsatisfied = [], []
    for inst in instances:
        ok, witness = slow_check(inst, decision)
        if not ok:
            unsatisfied.append(inst)
        elif witness is None:
            satisfied.append(inst)
        else:
            satisfied.append(replace(inst, reference=Interval(*witness)))
    return (
        "node",
        (attr, rel_rank, cmp_rank, thr.hex(), alpha, z),
        reference_grow_tree(satisfied, q, config),
        reference_grow_tree(unsatisfied, q, config),
    )


def dtw_by_paths(cost) -> float:
    """Minimal accumulated cost over every monotone warping path, explored
    recursively without memoization."""
    n = len(cost)
    m = len(cost[0])

    def walk(i, j):
        c = cost[i][j]
        if i == 0 and j == 0:
            return c
        options = []
        if i > 0:
            options.append(walk(i - 1, j))
        if j > 0:
            options.append(walk(i, j - 1))
        if i > 0 and j > 0:
            options.append(walk(i - 1, j - 1))
        return c + min(options)

    return walk(n - 1, m - 1)


def dtw_univariate_oracle(a, b) -> float:
    cost = [[(float(x) - float(y)) ** 2 for y in b] for x in a]
    return dtw_by_paths(cost)


def dtw_dependent_oracle(a_channels, b_channels) -> float:
    n = a_channels.shape[1]
    m = b_channels.shape[1]
    cost = [
        [float(((a_channels[:, i] - b_channels[:, j]) ** 2).sum()) for j in range(m)]
        for i in range(n)
    ]
    return dtw_by_paths(cost)


class ReferenceStaticTree:
    """A bare-bones C4.5-style builder used only to cross-check the static
    path: thresholds are value midpoints, splits are `attr <= thr`, stopping
    mirrors the library's rules."""

    def __init__(self, min_leaf_size=2, purity_threshold=0.0):
        self.min_leaf = min_leaf_size
        self.purity = purity_threshold

    def fit(self, table, labels):
        table = np.asarray(table, dtype=np.float64)
        labels = list(labels)
        self.q = max(labels) + 1
        self.root = self._build(table, labels)
        return self

    def _build(self, table, labels):
        counts = [labels.count(c) for c in range(self.q)]
        if entropy(counts) <= self.purity or len(labels) < 2 * self.min_leaf:
            return ("leaf", counts.index(max(counts)))
        parent_info = entropy(counts)
        best = None
        for attr in range(table.shape[1]):
            distinct = sorted(set(table[:, attr].tolist()))
            for lo, hi in zip(distinct[:-1], distinct[1:]):
                thr = (lo + hi) / 2.0
                left = [i for i in range(len(labels)) if table[i, attr] <= thr]
                right = [i for i in range(len(labels)) if table[i, attr] > thr]
                if len(left) < self.min_leaf or len(right) < self.min_leaf:
                    continue
                cl = [sum(1 for i in left if labels[i] == c) for c in range(self.q)]
                cr = [sum(1 for i in right if labels[i] == c) for c in range(self.q)]
                si = weighted_entropy(len(labels), [cl, cr])
                if si >= parent_info:
                    continue
                key = (si, attr, thr)
                if best is None or key < best[0]:
                    best = (key, left, right)
        if best is None:
            return ("leaf", counts.index(max(counts)))
        (si, attr, thr), left, right = best
        return (
            "node",
            attr,
            thr,
            self._build(table[left], [labels[i] for i in left]),
            self._build(table[right], [labels[i] for i in right]),
        )

    def predict_one(self, row):
        node = self.root
        while node[0] == "node":
            _, attr, thr, left, right = node
            node = left if row[attr] <= thr else right
        return node[1]

    def training_accuracy(self, table, labels):
        table = np.asarray(table, dtype=np.float64)
        good = sum(
            1 for i, lab in enumerate(labels) if self.predict_one(table[i]) == lab
        )
        return good / len(labels)
