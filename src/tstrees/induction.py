"""Entropy-based greedy tree growth.

Static C4.5-style splits are the degenerate case (eq relation, alpha 1,
degree 0 on constant two-point series); the general case searches the full
grid attributes x relations x comparators x alphas x derivative degrees x
thresholds and keeps the candidate of minimal weighted child entropy.

Candidate evaluation is vectorized per node.  Once per node and distinct
reference, each relation's successor rectangle
(:func:`tstrees.intervals.relation_rectangle`) becomes a mask over the
intervals.  Intervals that succeed no reference are dropped, and the rest
of the mask is gathered out to the instances as (intervals x instances), or
left out when all instances stand on one reference.

The learner searches the comparators ``<=`` and ``>`` only (``=`` is refused
by :class:`tstrees.core.LearnerConfig`).  Both are monotone in the
threshold, so they are searched by a sweep over sorted values, as C4.5
searches a numeric attribute (Quinlan 1993).  Each point value is replaced
by its rank among the sorted candidate thresholds.  An interval of p
data-bearing points satisfies ``A <= t`` at alpha exactly when its k-th
smallest value is <= t, and ``A > t`` exactly when its k-th largest value
is > t, with k = ceil(alpha * p).  Nothing is sorted: per (attribute, degree),
the sorted windows of p + 1 points grow from those of p points by inserting
one point, start-major so that each step is one contiguous run per position,
and per (comparator, alpha) their order statistics go into one packed
(windows x instances) table (:func:`_order_statistics`).  Per (comparator,
alpha, relation), one plain min (or max) down the table rows of the reached
intervals gives each instance its critical value, once the entries off its
mask are bounded to the never value; per (comparator, alpha), cumulative
class counts over the critical values give the partition at every (relation,
threshold) at once.  Only the first threshold of each distinct partition is
scored.  On 96 x 6 Gaussian series with the racket-train config (2-vCPU VM;
medians over three to six processes of each one's best time), a root search
at N = 150 took 2.1 s with a 17.9 MiB tracemalloc peak when it sorted every
window, 0.35 s with 15.8 MiB after insertion into (instances x windows)
tables reduced under (instances x intervals) masks, and takes 0.10 s with
10.8 MiB in this layout; at N = 30, 35 ms, 27 ms and 13 ms.

Candidates are scored in batches.  Each (attribute, degree, comparator,
alpha) yields one batch of satisfying-side class counts, scored in one array
pass that equals :func:`info_split` bit for bit (:func:`_split_scorer`).
The batch lists its rows in (relation order, threshold) order, so its first
minimum is its canonical winner, and only that winner meets the total
canonical tie-break across batches; the winner is independent of
evaluation order.

Growth hands each split node's instances to
:func:`tstrees.intervals.split_dataset`, which routes them all in one pass.
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
) -> tuple[list[np.ndarray], np.ndarray]:
    """For each (comparator, alpha) of ``sweeps``, a packed table of the
    threshold ranks that decide each instance's windows, and the rows ``at``
    such that ``table[at]`` is the (K, m) array for the intervals: interval
    k covers the data-bearing points ``lo[k] .. lo[k] + length[k] - 1``.

    A value's rank is the number of thresholds below it, so ``x <= t_j`` iff
    rank <= j and ``x > t_j`` iff rank > j.  An interval of p points
    satisfies ``A <= t_j`` at alpha iff its k-th smallest rank is <= j, and
    ``A > t_j`` iff its k-th largest rank is > j, with
    k = ``required_counts(alpha, n)[p]``.  Nothing is sorted: the sorted
    windows of p + 1 points come from those of p points by inserting the
    next point x, as ``min(w[j], max(w[j - 1], x))`` at each position j.
    They are kept start-major, (position, start, instance), with the ranks
    taken from ``deriv.T``, so that each insertion step runs over one
    contiguous block of (N - p) * m values per position and every order
    statistic is a basic slice.  Table row ``offset[p] + i`` holds the
    p-point windows from point i + 1, one column per instance; row 0 is the
    empty window, with rank t (resp. -1), which never holds.  Ranks and
    tables use the smallest integer type that holds -t - 1 .. t (int8 for
    up to 127 thresholds).
    """
    m, points = deriv.shape
    t = len(thresholds)
    dtype = np.min_scalar_type(-t - 1)
    # np.add.accumulate, not np.cumsum, for the reason given in best_split
    offset = np.concatenate(([0, 1], 1 + np.add.accumulate(np.arange(points, 0, -1))))
    ranks = np.searchsorted(thresholds, deriv.T, side="left").astype(dtype)
    tables = [
        np.full((offset[-1], m), t if comparator is Comparator.LE else -1, dtype=dtype)
        for comparator, _ in sweeps
    ]
    window = ranks[None]  # window[j, s, i]: j-th smallest of i's window from s
    for size in range(1, points + 1):
        if size > 1:
            x, kept = ranks[size - 1 :], window[:, :-1]
            grown = np.empty((size, *x.shape), dtype=dtype)
            grown[0] = x
            np.maximum(kept, x, out=grown[1:])
            np.minimum(grown[:-1], kept, out=grown[:-1])
            window = grown
        for (comparator, alpha), table in zip(sweeps, tables):
            k = required_counts(alpha, n)[size]
            j = k - 1 if comparator is Comparator.LE else size - k
            table[offset[size] : offset[size + 1]] = window[j]
    return tables, np.where(length > 0, offset[length] + lo - 1, 0)


def _split_scorer(parent_counts: np.ndarray, low: int):
    """Batch form of :func:`info_split` for the binary splits of one node.

    ``parent_counts`` holds the node's m instances per class and ``low`` the
    minimum leaf size.  The returned ``score(c1)`` takes an (r, q) array of
    satisfying-side class counts, each row summing to a size in
    [low, m - low], and returns the r values of
    ``info_split(m, [c1, parent_counts - c1])``, bit for bit: the entropy
    terms come from a table built with the float operations of :func:`info`
    and are added in class order, and the two sides are weighted and added as
    ``info_split`` adds them.  The table is built per call and covers only
    sizes low .. m - low and counts up to the largest class count.
    """
    m = int(parent_counts.sum())
    width = int(parent_counts.max()) + 1
    sizes = np.arange(low, m - low + 1)[:, None]
    counts = np.arange(width)
    # terms[s - low, c] = (c / s) * log2(c / s); p = 1 where c is 0 (or
    # above s, never read) gives the 0.0 that info skips
    p = np.where((counts > 0) & (counts <= sizes), counts / sizes, 1.0)
    logs = np.fromiter(map(math.log2, p.ravel().tolist()), np.float64, p.size)
    terms = (p * logs.reshape(p.shape)).ravel()

    def side(n: np.ndarray, c: np.ndarray) -> np.ndarray:
        row = terms[(n - low)[:, None] * width + c]
        acc = row[:, 0]
        for k in range(1, row.shape[1]):
            acc = acc + row[:, k]
        return (n / m) * -acc

    def score(c1: np.ndarray) -> np.ndarray:
        n1 = c1.sum(axis=1)
        return (0.0 + side(n1, c1)) + side(m - n1, parent_counts - c1)

    return score


def best_split(instances: Sequence[Instance], config: LearnerConfig) -> Optional[SplitCandidate]:
    """The admissible candidate of minimal weighted child entropy, or None
    when no candidate both respects ``min_leaf_size`` on each side and has
    strictly positive gain.

    Ties are broken canonically by (attribute index, relation order,
    comparator order, threshold, alpha, derivative degree).
    """
    m = len(instances)
    low, high = config.min_leaf_size, m - config.min_leaf_size
    if low > high:  # too few instances for two leaves
        return None
    n = instances[0].series_length

    # the K intervals [u, v] over {0, ..., n} in enumerate_intervals order;
    # per relation, in rank order, the indices ``reach`` of the intervals
    # that succeed some reference, and the (reach, m) mask of each
    # instance's successors among them, built once per distinct reference
    # and gathered out to the instances (None when all instances stand on
    # one reference, so that each reached interval succeeds every
    # instance); a relation without successors for any instance holds
    # nowhere, and since min_leaf_size >= 1 it has no admissible candidate
    u, v = np.triu_indices(n + 1, k=1)
    refs = np.array([inst.reference.x * (n + 1) + inst.reference.y for inst in instances])
    distinct, back = np.unique(refs, return_inverse=True)
    ref_x, ref_y = np.divmod(distinct, n + 1)
    masks = []
    for rel in sorted(config.relations, key=lambda r: r.rank):
        r1, r2, c1, c2 = relation_rectangle(rel, ref_x, ref_y, n)
        mask = (r1 <= u[:, None]) & (u[:, None] <= r2) & (c1 <= v[:, None]) & (v[:, None] <= c2)
        reach = np.flatnonzero(mask.any(axis=1))
        if reach.size:
            masks.append((rel, reach, mask[reach][:, back] if distinct.size > 1 else None))
    if not masks:
        return None

    channels = np.stack([inst.channels for inst in instances])
    classes = np.array([inst.class_index for inst in instances], dtype=np.intp)
    q = int(classes.max()) + 1
    parent_counts = np.bincount(classes, minlength=q)
    parent_info = info(parent_counts.tolist())
    score = _split_scorer(parent_counts, low)
    best_key: Optional[tuple] = None
    best_cand: Optional[SplitCandidate] = None

    def consider(c1, rel_at, thr_at, thresholds, attr, comparator, alpha, z) -> None:
        """Score one batch of candidates of an (attribute, degree,
        comparator, alpha), given as the satisfying-side class counts ``c1``
        in (relation rank, threshold) order with their mask and threshold
        indices; the first minimum is the batch's canonical winner, and it
        is kept if it beats the best so far."""
        nonlocal best_key, best_cand
        if not len(c1):
            return
        si = score(c1)
        w = int(si.argmin())
        rel = masks[rel_at[w]][0]
        key = (float(si[w]), attr, rel.rank, comparator.rank, thresholds[thr_at[w]], alpha, z)
        if key[0] >= parent_info or (best_key is not None and key >= best_key):
            return
        n1 = int(c1[w].sum())
        best_key = key
        best_cand = SplitCandidate(
            decision=TemporalDecision(
                relation=rel,
                attribute_index=attr,
                derivative_degree=z,
                comparator=comparator,
                threshold=key[4],
                alpha=alpha,
            ),
            split_info=key[0],
            partition_sizes=(n1, m - n1),
        )

    sweeps = [(cmp, alpha) for cmp in config.comparators for alpha in config.alpha_grid]
    for attr in range(channels.shape[1]):
        deriv = channels[:, attr, :]
        for z in range(0, min(config.max_derivative, n - 1) + 1):
            if z:
                deriv = np.diff(deriv, axis=1)
            thresholds = candidate_thresholds(deriv.ravel(), config.max_threshold_candidates)
            if not thresholds:
                continue
            t = len(thresholds)
            lo, hi = point_spans(u, v, n, z)
            length = np.maximum(hi - lo + 1, 0)
            tables, at = _order_statistics(deriv, thresholds, lo, length, sweeps, n)
            # per relation, the table rows of its reached intervals and, when
            # the references differ, bounds that turn every entry off an
            # instance's mask into the never value: np.maximum with the first
            # (0 on the mask, t off it) for <=, np.minimum with the second (t
            # on, -1 off) for >.  A plain reduction of the bounded rows then
            # equals the masked one, without the branching that a where=
            # reduction (or np.where) pays on scattered masks.
            reached = []
            for _, reach, mask in masks:
                if mask is None:
                    reached.append((at[reach], None))
                    continue
                off = (~mask).astype(tables[0].dtype)
                reached.append((at[reach], (off * t, off * (-t - 1) + t)))
            # bincount offsets: row (r, rank + 1, class) of a (R, t + 2, q) table
            base = (np.arange(len(masks)) * (t + 2) + 1)[:, None] * q + classes
            for (comparator, alpha), table in zip(sweeps, tables):
                smallest = comparator is Comparator.LE
                reduce = np.minimum.reduce if smallest else np.maximum.reduce
                bound, side = (np.maximum, 0) if smallest else (np.minimum, 1)
                # crit[r, i]: instance i's critical rank under masks[r]; it
                # satisfies the modality at thresholds[j] iff crit <= j
                # (resp. > j)
                crit = np.empty((len(masks), m), dtype=table.dtype)
                for r, (rows, bounds) in enumerate(reached):
                    stat = table[rows]
                    if bounds is not None:
                        bound(stat, bounds[side], out=stat)
                    reduce(stat, axis=0, out=crit[r])
                # le[r, j, c]: instances of class c whose critical rank under
                # masks[r] is <= j
                bins = (base + q * crit.astype(np.intp)).ravel()
                hist = np.bincount(bins, minlength=len(masks) * (t + 2) * q)
                # np.add.accumulate, not .cumsum(): on numpy 2.4 the method
                # form leaves fresh name strings in CPython's type cache
                le = np.add.accumulate(hist.reshape(len(masks), t + 2, q), axis=1)[:, 1 : t + 1]
                below = le.sum(axis=2)
                sizes = below if smallest else m - below
                # a repeated size is the same partition at a larger threshold,
                # whose key is larger: keep the first only
                fresh = (sizes >= low) & (sizes <= high)
                fresh[:, 1:] &= below[:, 1:] != below[:, :-1]
                rel_at, thr_at = np.nonzero(fresh)
                c1 = le[rel_at, thr_at]
                if not smallest:
                    c1 = parent_counts - c1
                consider(c1, rel_at, thr_at, thresholds, attr, comparator, alpha, z)
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
