"""Entropy-based greedy tree growth.

Static C4.5-style splits are the degenerate case (eq relation, alpha 1,
degree 0 on constant two-point series); the general case searches the full
grid attributes x relations x comparators x alphas x derivative degrees x
thresholds and keeps the candidate of minimal weighted child entropy.

Candidate evaluation is vectorized per node.  Once per node, each relation's
successor rectangle (:func:`tstrees.intervals.relation_rectangle`) becomes an
(instances x intervals) mask.

Comparators ``<=`` and ``>`` are monotone in the threshold, so they are
searched by a sort and sweep, as C4.5 searches a numeric attribute (Quinlan
1993).  Each point value is replaced by its rank among the sorted candidate
thresholds.  An interval of p data-bearing points satisfies ``A <= t`` at
alpha exactly when its k-th smallest value is <= t, and ``A > t`` exactly
when its k-th largest value is > t, with k = ceil(alpha * p); every window
of each length is sorted once per (attribute, degree) to read these order
statistics.  Per (comparator, alpha, relation), one masked min (or max) over
an instance's successors gives its critical value, and cumulative class
counts over the critical values give the partition at every threshold at
once.  Only the first threshold of each distinct partition is scored.

Comparator ``=`` is not monotone and keeps one mask pass per threshold:
prefix counts give every interval's satisfaction, and an instance satisfies
the modality when some satisfied interval lies under its mask.

The reduction applies a total canonical tie-break, so the winner is
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    Comparator,
    DecisionTree,
    ConfusionMatrix,
    Instance,
    IntervalRelation,
    LearnerConfig,
    Node,
    ROOT_REFERENCE,
    TemporalDataset,
    TemporalDecision,
    leaf_for_counts,
)
from .intervals import (
    check_decision,
    compare_values,
    point_spans,
    relation_rectangle,
    required_counts,
    split_dataset,
)

Rel = IntervalRelation


def info(class_counts: Sequence[int]) -> float:
    """Entropy of a class-count vector, in bits; 0 log 0 counts as 0."""
    total = sum(class_counts)
    if total <= 0:
        raise ValueError("entropy is undefined for an empty count vector")
    acc = 0.0
    for c in class_counts:
        if c > 0:
            p = c / total
            acc += p * math.log2(p)
    return -acc


def info_split(parent_total: int, partitions: Sequence[Sequence[int]]) -> float:
    """Size-weighted mean entropy of the partitions; empty parts contribute 0."""
    sizes = [sum(p) for p in partitions]
    if sum(sizes) != parent_total:
        raise ValueError("partition sizes must sum to the parent total")
    acc = 0.0
    for part, size in zip(partitions, sizes):
        if size > 0:
            acc += (size / parent_total) * info(part)
    return acc


def candidate_thresholds(values: Sequence[float] | np.ndarray, cap: int) -> list[float]:
    """Split thresholds for an observed value multiset.

    Midpoints between consecutive distinct sorted values; when more than
    ``cap`` exist they are thinned to ``cap`` evenly spaced ones (by index
    over the midpoint sequence, i.e. evenly spaced quantiles).  Deterministic;
    empty for a constant multiset.  NaN and infinite values are refused, so
    the thresholds are finite and ascending.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot derive thresholds from no values")
    if not np.isfinite(arr).all():
        raise ValueError("cannot derive thresholds from NaN or infinite values")
    distinct = np.unique(arr)
    if distinct.size < 2:
        return []
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    if mids.size > cap:
        idx = np.round(np.linspace(0, mids.size - 1, cap)).astype(np.intp)
        mids = mids[idx]
    return [float(v) for v in mids]


@dataclass(frozen=True)
class SplitCandidate:
    """An admissible split: its decision, weighted child entropy, and the
    (satisfying, non-satisfying) partition sizes."""

    decision: TemporalDecision
    split_info: float
    partition_sizes: tuple[int, int]


def _order_statistics(
    deriv: np.ndarray,
    thresholds: list[float],
    lo: np.ndarray,
    length: np.ndarray,
    sweeps: list[tuple[Comparator, float]],
    n: int,
) -> list[np.ndarray]:
    """For each (comparator, alpha) of ``sweeps``, an (m, K) array holding,
    per instance and interval, the threshold rank that decides the interval.
    Interval k covers the data-bearing points ``lo[k] .. lo[k] + length[k] - 1``.

    A value's rank is the number of thresholds below it, so ``x <= t_j`` iff
    rank <= j and ``x > t_j`` iff rank > j.  An interval of p points
    satisfies ``A <= t_j`` at alpha iff its k-th smallest rank is <= j, and
    ``A > t_j`` iff its k-th largest rank is > j, with
    k = ``required_counts(alpha, n)[p]``.  The windows of each length are
    sorted once for all of ``sweeps``.  Intervals without data-bearing points
    get rank t (resp. -1), which never holds.  The arrays use the smallest
    integer type that holds -t - 1 .. t (int8 for up to 127 thresholds), so
    keeping one per (comparator, alpha) costs little memory.
    """
    m, points = deriv.shape
    t = len(thresholds)
    dtype = np.min_scalar_type(-t - 1)
    # int32 windows sort several times faster than int8 ones
    ranks = np.searchsorted(thresholds, deriv, side="left").astype(np.int32)
    stats = [
        np.full((m, length.size), t if comparator is Comparator.LE else -1, dtype=dtype)
        for comparator, _ in sweeps
    ]
    for size in range(1, points + 1):
        cols = np.flatnonzero(length == size)
        if not cols.size:
            continue
        window = ranks[:, np.arange(points - size + 1)[:, None] + np.arange(size)]
        window.sort(axis=2)
        starts = lo[cols] - 1
        for (comparator, alpha), stat in zip(sweeps, stats):
            k = required_counts(alpha, n)[size]
            stat[:, cols] = window[:, starts, k - 1 if comparator is Comparator.LE else size - k]
    return stats


def best_split(instances: Sequence[Instance], config: LearnerConfig) -> Optional[SplitCandidate]:
    """The admissible candidate of minimal weighted child entropy, or None
    when no candidate both respects ``min_leaf_size`` on each side and has
    strictly positive gain.

    Ties are broken canonically by (attribute index, relation order,
    comparator order, threshold, alpha, derivative degree).
    """
    if len(instances) < 2:
        return None
    m = len(instances)
    n = instances[0].series_length
    channels = np.stack([inst.channels for inst in instances])
    classes = np.array([inst.class_index for inst in instances], dtype=np.intp)
    q = int(classes.max()) + 1
    parent_counts = np.bincount(classes, minlength=q)
    parent_list = parent_counts.tolist()
    parent_info = info(parent_list)
    low, high = config.min_leaf_size, m - config.min_leaf_size

    # the K intervals [u, v] over {0, ..., n} in enumerate_intervals order,
    # and per relation an (m, K) mask of each reference's successors; a
    # relation without successors for any instance holds nowhere, and since
    # min_leaf_size >= 1 it has no admissible candidate
    u, v = np.triu_indices(n + 1, k=1)
    ref_x = np.array([[inst.reference.x] for inst in instances])
    ref_y = np.array([[inst.reference.y] for inst in instances])
    masks = []
    for rel in config.relations:
        r1, r2, c1, c2 = relation_rectangle(rel, ref_x, ref_y, n)
        mask = (r1 <= u) & (u <= r2) & (c1 <= v) & (v <= c2)
        if mask.any():
            masks.append((rel, mask))

    best_key: Optional[tuple] = None
    best_cand: Optional[SplitCandidate] = None
    # split_info per distinct satisfying class counts, kept per (attribute,
    # degree): most repeats come from other relations, alphas and comparators
    # on the same values, and a per-node table would hold thousands of keys
    split_infos: dict[tuple[int, ...], float] = {}

    def offer(c1: tuple[int, ...], attr, rel, comparator, a_thr, alpha, z) -> None:
        """Score the candidate whose satisfying side has class counts ``c1``
        (its size already within the leaf bounds); keep it if it wins."""
        nonlocal best_key, best_cand
        si = split_infos.get(c1)
        if si is None:
            c2 = [p - c for p, c in zip(parent_list, c1)]
            si = split_infos[c1] = info_split(m, [list(c1), c2])
        if si >= parent_info or (best_key is not None and si > best_key[0]):
            return
        key = (si, attr, rel.rank, comparator.rank, a_thr, alpha, z)
        if best_key is None or key < best_key:
            n1 = sum(c1)
            best_key = key
            best_cand = SplitCandidate(
                decision=TemporalDecision(
                    relation=rel,
                    attribute_index=attr,
                    derivative_degree=z,
                    comparator=comparator,
                    threshold=a_thr,
                    alpha=alpha,
                    eq_tolerance=config.eq_tolerance,
                ),
                split_info=si,
                partition_sizes=(n1, m - n1),
            )

    sweeps = [
        (comparator, alpha)
        for comparator in config.comparators
        if comparator is not Comparator.EQ
        for alpha in config.alpha_grid
    ]
    for attr in range(channels.shape[1]):
        deriv = channels[:, attr, :]
        for z in range(0, min(config.max_derivative, n - 1) + 1):
            split_infos.clear()
            if z:
                deriv = np.diff(deriv, axis=1)
            thresholds = candidate_thresholds(deriv.ravel(), config.max_threshold_candidates)
            if not thresholds:
                continue
            lo, hi = point_spans(u, v, n, z)
            length = hi - lo + 1
            if Comparator.EQ in config.comparators:
                # not monotone in the threshold: one mask pass per threshold
                req = {a: required_counts(a, n)[length] for a in config.alpha_grid}
                cum = np.zeros((m, n - z + 1), dtype=np.int64)
                for a_thr in thresholds:
                    point_ok = compare_values(deriv, Comparator.EQ, a_thr, config.eq_tolerance)
                    np.cumsum(point_ok, axis=1, out=cum[:, 1:])
                    counts = cum[:, hi] - cum[:, lo - 1]
                    for alpha in config.alpha_grid:
                        sat = counts >= req[alpha]
                        for rel, mask in masks:
                            satisfied = (sat & mask).any(axis=1)
                            n1 = int(satisfied.sum())
                            if low <= n1 <= high:
                                c1 = tuple(np.bincount(classes[satisfied], minlength=q).tolist())
                                offer(c1, attr, rel, Comparator.EQ, a_thr, alpha, z)
            if not sweeps:
                continue
            t = len(thresholds)
            stats = _order_statistics(deriv, thresholds, lo, length, sweeps, n)
            for (comparator, alpha), stat in zip(sweeps, stats):
                smallest = comparator is Comparator.LE
                reduce = np.minimum.reduce if smallest else np.maximum.reduce
                never = t if smallest else -1
                for rel, mask in masks:
                    # the critical rank: the instance satisfies the modality
                    # at thresholds[j] iff it is <= j (resp. > j)
                    crit = reduce(stat, axis=1, where=mask, initial=never)
                    # le[j, c]: instances of class c whose critical rank is <= j
                    rows = (crit.astype(np.intp) + 1) * q + classes
                    hist = np.bincount(rows, minlength=(t + 2) * q).reshape(t + 2, q)
                    # np.add.accumulate, not .cumsum(): on numpy 2.4 the method
                    # form leaves fresh name strings in CPython's type cache
                    le = np.add.accumulate(hist)[1 : t + 1]
                    below = le.sum(axis=1)
                    sizes = below if smallest else m - below
                    # a repeated size is the same partition at a larger
                    # threshold, whose key is larger: keep the first only
                    fresh = (sizes >= low) & (sizes <= high)
                    fresh[1:] &= below[1:] != below[:-1]
                    picks = np.flatnonzero(fresh)
                    counts = le[picks] if smallest else parent_counts - le[picks]
                    for j, c1 in zip(picks.tolist(), counts.tolist()):
                        offer(tuple(c1), attr, rel, comparator, thresholds[j], alpha, z)
    return best_cand


def _grow(instances: list[Instance], q: int, config: LearnerConfig) -> DecisionTree:
    counts = [0] * q
    for inst in instances:
        counts[inst.class_index] += 1
    if info(counts) <= config.purity_threshold:
        return leaf_for_counts(counts)
    if len(instances) < 2 * config.min_leaf_size:
        return leaf_for_counts(counts)
    cand = best_split(instances, config)
    if cand is None:
        return leaf_for_counts(counts)
    t1, t2 = split_dataset(instances, cand.decision)
    return Node(
        decision=cand.decision,
        left=_grow(t1, q, config),
        right=_grow(t2, q, config),
    )


def grow_tree(dataset: TemporalDataset, config: LearnerConfig) -> DecisionTree:
    """Greedy recursive growth from the root reference interval [0, 1].

    A node becomes a leaf when its entropy is at or below the purity
    threshold, when it holds fewer than twice the minimum leaf size, or when
    no candidate split has positive gain.
    """
    if not dataset.instances:
        raise ValueError("cannot grow a tree from an empty dataset")
    instances = [inst.with_reference(ROOT_REFERENCE) for inst in dataset.instances]
    return _grow(instances, dataset.class_count, config)


def static_series_dataset(
    table: Sequence[Sequence[float]] | np.ndarray, labels: Sequence[int]
) -> TemporalDataset:
    """Encode a static table as constant two-point series, one per cell;
    columns are named ``var<j>`` and classes ``class<c>``."""
    arr = np.asarray(table, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("table must be a non-empty 2-D matrix")
    m, n = arr.shape
    if len(labels) != m:
        raise ValueError("labels must match the number of rows")
    instances = [
        Instance(channels=np.repeat(arr[i][:, None], 2, axis=1), class_index=int(labels[i]))
        for i in range(m)
    ]
    return TemporalDataset(
        instances=instances,
        attribute_names=[f"var{j}" for j in range(n)],
        class_names=[f"class{c}" for c in range(max(labels) + 1)],
        series_length=2,
    )


def grow_static_tree(
    table: Sequence[Sequence[float]] | np.ndarray,
    labels: Sequence[int],
    config: LearnerConfig,
) -> DecisionTree:
    """Classic binary C4.5 on a static table via the constant-series encoding.

    Splits are restricted to the eq relation with alpha 1 and degree 0, so the
    resulting decisions are ordinary threshold tests and print without a
    modality.
    """
    dataset = static_series_dataset(table, labels)
    forced = replace(config, relations=(Rel.EQ,), alpha_grid=(1.0,), max_derivative=0)
    return grow_tree(dataset, forced)


def classify(tree: DecisionTree, instance: Instance) -> tuple[int, tuple[int, ...]]:
    """Route one instance from the root reference [0, 1] down to a leaf.

    Satisfying a modal decision moves the instance onto the witness interval;
    failing one leaves the reference unchanged.  Returns the reached leaf's
    class and class-count vector.  This is the only code that applies a
    grown tree: ``confusion``, ``predict``, ``evaluate`` and the tree methods
    of ``compare`` and ``bench`` all route through it.
    """
    walker = instance.with_reference(ROOT_REFERENCE)
    node = tree
    while isinstance(node, Node):
        result = check_decision(walker, node.decision)
        if result.satisfied:
            if result.witness is not None:
                walker = walker.with_reference(result.witness)
            node = node.left
        else:
            node = node.right
    return node.class_index, node.class_counts


def confusion(tree: DecisionTree, dataset: TemporalDataset) -> ConfusionMatrix:
    """The tree's confusion matrix on a dataset (rows = predicted, columns =
    true): the tally of :func:`classify` over its instances."""
    predicted = [classify(tree, inst)[0] for inst in dataset.instances]
    actual = [inst.class_index for inst in dataset.instances]
    return ConfusionMatrix.tally(predicted, actual, dataset.class_count)
