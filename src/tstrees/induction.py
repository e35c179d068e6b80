"""Entropy-based greedy tree growth.

Static C4.5-style splits are the degenerate case (eq relation, alpha 1,
degree 0 on constant two-point series); the general case searches the full
grid attributes x relations x comparators x alphas x derivative degrees x
thresholds and keeps the candidate of minimal weighted child entropy.

Candidate evaluation is vectorized per node.  Once per node, each relation's
successor rectangle (:func:`tstrees.intervals.relation_rectangle`) becomes an
(instances x intervals) mask.  For each (attribute, degree, comparator,
threshold, alpha), prefix counts give every interval's satisfaction, and an
instance satisfies a modality when some satisfied interval lies under its
mask.  The reduction applies a total canonical tie-break, so the winner is
independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    DecisionTree,
    ConfusionMatrix,
    Instance,
    IntervalRelation,
    Leaf,
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
    empty for a constant multiset.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot derive thresholds from no values")
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
    parent_info = info(parent_counts.tolist())

    # the K intervals [u, v] over {0, ..., n} in enumerate_intervals order,
    # and per relation an (m, K) mask of each reference's successors
    u, v = np.triu_indices(n + 1, k=1)
    ref_x = np.array([[inst.reference.x] for inst in instances])
    ref_y = np.array([[inst.reference.y] for inst in instances])
    masks = []
    for rel in config.relations:
        r1, r2, c1, c2 = relation_rectangle(rel, ref_x, ref_y, n)
        masks.append((rel, (r1 <= u) & (u <= r2) & (c1 <= v) & (v <= c2)))

    best_key: Optional[tuple] = None
    best_cand: Optional[SplitCandidate] = None
    for attr in range(channels.shape[1]):
        deriv = channels[:, attr, :]
        for z in range(0, min(config.max_derivative, n - 1) + 1):
            if z:
                deriv = np.diff(deriv, axis=1)
            thresholds = candidate_thresholds(deriv.ravel(), config.max_threshold_candidates)
            if not thresholds:
                continue
            lo, hi = point_spans(u, v, n, z)
            req = {a: required_counts(a, n)[hi - lo + 1] for a in config.alpha_grid}
            cum = np.zeros((m, n - z + 1), dtype=np.int64)
            for comparator in config.comparators:
                for a_thr in thresholds:
                    point_ok = compare_values(deriv, comparator, a_thr, config.eq_tolerance)
                    np.cumsum(point_ok, axis=1, out=cum[:, 1:])
                    counts = cum[:, hi] - cum[:, lo - 1]
                    for alpha in config.alpha_grid:
                        sat = counts >= req[alpha]
                        for rel, mask in masks:
                            satisfied = (sat & mask).any(axis=1)
                            n1 = int(satisfied.sum())
                            n2 = m - n1
                            if n1 < config.min_leaf_size or n2 < config.min_leaf_size:
                                continue
                            c1 = np.bincount(classes[satisfied], minlength=q)
                            c2 = parent_counts - c1
                            si = info_split(m, [c1.tolist(), c2.tolist()])
                            if si >= parent_info:
                                continue
                            key = (si, attr, rel.rank, comparator.rank, a_thr, alpha, z)
                            if best_key is None or key < best_key:
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
                                    partition_sizes=(n1, n2),
                                )
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
    table: Sequence[Sequence[float]] | np.ndarray,
    labels: Sequence[int],
    attribute_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
) -> TemporalDataset:
    """Encode a static table as constant two-point series, one per cell."""
    arr = np.asarray(table, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("table must be a non-empty 2-D matrix")
    m, n = arr.shape
    if len(labels) != m:
        raise ValueError("labels must match the number of rows")
    names = list(attribute_names) if attribute_names else [f"var{j}" for j in range(n)]
    q = max(labels) + 1
    classes = list(class_names) if class_names else [f"class{c}" for c in range(q)]
    instances = [
        Instance(channels=np.repeat(arr[i][:, None], 2, axis=1), class_index=int(labels[i]))
        for i in range(m)
    ]
    return TemporalDataset(
        instances=instances,
        attribute_names=names,
        class_names=classes,
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
    class and class-count vector.
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
    """The tree's confusion matrix on a dataset, computed bottom-up.

    Each leaf contributes one row: its predicted class against the true-class
    distribution of the instances that reached it; internal nodes sum their
    children.  Equals the per-instance classification tally by construction.
    """
    q = dataset.class_count
    instances = [inst.with_reference(ROOT_REFERENCE) for inst in dataset.instances]

    def theta(node: DecisionTree, insts: list[Instance]) -> ConfusionMatrix:
        if isinstance(node, Leaf):
            rows = [[0] * q for _ in range(q)]
            for inst in insts:
                rows[node.class_index][inst.class_index] += 1
            return ConfusionMatrix.from_rows(rows)
        t1, t2 = split_dataset(insts, node.decision)
        return theta(node.left, t1) + theta(node.right, t2)

    return theta(tree, instances)
