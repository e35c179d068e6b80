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
is > t, with k = ceil(alpha * p).  Nothing is sorted.  Per degree, the
attributes with thresholds are searched in batches of as many as the budget
:data:`_TABLE_CELLS` allows, side by side on the instance axis.  Per batch,
the sorted windows of p + 1 points grow from those of p points by inserting
one point, start-major so that each step is one contiguous run per position
(:func:`_sorted_windows`).  Per (comparator, alpha, relation), each
(attribute, instance) then needs its critical value: the min (for ``<=``)
or max (for ``>``) of the order statistics of its reached intervals.  When
all instances stand on one reference (the root, every node down an
unsatisfied branch, every j48 node), a relation's p-point windows start at
one run of consecutive points (:func:`_window_runs`), so a plain min (or
max) over that run of the p-point order-statistic row is folded in while
the windows of that size are held, and no table is built
(:func:`_streamed_critical_ranks`).  On
other nodes, per (comparator, alpha) the order statistics of every window
go into one packed (windows x columns) table (:func:`_order_statistics`),
and a min (or max) down the table rows of the reached intervals gives the
critical values, once the entries off each instance's mask are bounded to
the never value.  Per (comparator, alpha), cumulative class counts over the
critical values give the partition at every (attribute, relation,
threshold) of the batch at once.  Only the first threshold of each distinct
partition is scored.

On 96 x 6 Gaussian series with the racket-train config (2-vCPU VM), a root
search at N = 150 took 2.1 s with a 17.9 MiB tracemalloc peak when it sorted
every window, 0.10 s with 10.8 MiB with start-major tables, and 6.6 MiB
with one attribute's tables at a time.  Without tables, and with the last
degree's floats dropped once ranked, it peaks at 1.7 MiB, and at 5.6 and
22 MiB at N = 300 and 600 (24.8 and 96 MiB with tables), in no more time.
The racket-train root search (96 x 6 x 30) now takes all six attributes in
one batch: 7.2-7.4 ms and 501 KiB with one attribute's tables per batch,
against 4.0-4.1 ms and 387 KiB (best of 150 calls, four processes each).

Candidates are scored together.  Each (batch, degree, comparator, alpha)
yields one array of satisfying-side class counts, scored in one array pass
that equals :func:`info_split` bit for bit (:func:`_split_scorer`).  Its
rows run in (attribute, relation order, threshold) order, so its first
minimum is its canonical winner, and only that winner meets the total
canonical tie-break across sweeps and batches; the winner is independent of
evaluation order and of how the attributes are batched.

Growth and :func:`classify_all` hand each node's instances to
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
    DataFormatError,
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
    with np.errstate(over="ignore"):  # a sum past float64 range is redone below
        mids = (distinct[:-1] + distinct[1:]) / 2.0
    over = np.isinf(mids)
    mids[over] = distinct[:-1][over] / 2.0 + distinct[1:][over] / 2.0
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


#: Cells (one byte each while there are at most 127 thresholds) that one
#: batch of :func:`best_split` may hold in its largest array.  Per degree,
#: the attributes with thresholds are searched in batches, side by side on
#: the instance axis, as many as fit (at least one), as
#: :data:`tstrees.baselines._PASS_CELLS` caps a DTW pass.  When all instances
#: share one reference, an attribute counts its largest sorted window,
#: floor((N_z + 1)^2 / 4) x m cells (the windows grow in two buffers of that
#: size); otherwise it counts its sweep tables, sweeps x (1 + N_z(N_z + 1) /
#: 2) rows x m.  The racket-train root (96 instances, 30 points, 23,040 cells
#: per attribute) puts all six attributes in one batch, and j48's 12 static
#: features (two points) go in one.
_TABLE_CELLS = 2**18


def _ranks(derivs: Sequence[np.ndarray], thresholds: Sequence[Sequence[float]]) -> np.ndarray:
    """The (points, B * m) threshold ranks of one batch of B attributes, each
    an (m, points) array of ``derivs`` with its ascending ``thresholds``:
    entry [p, a * m + i] is the number of attribute a's thresholds below
    point p + 1 of its instance i, so ``x <= t_j`` iff rank <= j and
    ``x > t_j`` iff rank > j.  The ranks take the smallest integer type that
    holds -t - 1 .. t, t being the batch's largest threshold count (int8 for
    up to 127 thresholds)."""
    m, points = derivs[0].shape
    ranks = np.empty((points, len(derivs) * m), dtype=np.min_scalar_type(-max(map(len, thresholds)) - 1))
    for a, (deriv, thr) in enumerate(zip(derivs, thresholds)):
        ranks[:, a * m : (a + 1) * m] = np.searchsorted(thr, deriv.T, side="left")
    return ranks


def _sorted_windows(ranks: np.ndarray):
    """The sorted windows of one batch's :func:`_ranks`: yields ``(size,
    window)`` for size 1 .. points, where ``window[j, s, col]`` is the j-th
    smallest rank of column col over the ``size`` points from point s + 1.

    Nothing is sorted: the sorted windows of p + 1 points come from those of
    p points by inserting the next point x, as ``min(w[j], max(w[j - 1],
    x))`` at each position j.  They are kept start-major, (position, start,
    column), with the ranks taken point-major, so that each insertion step
    runs over one contiguous block of (points - p) * B * m values per
    position and every order statistic is a basic slice.  The windows of
    each size go into one of two buffers by turns, so that a batch allocates
    its windows once: a yielded window is overwritten when the window two
    sizes larger grows, and is read before the next one is asked for.
    """
    points = ranks.shape[0]
    # each as large as the largest window, floor((points + 1)^2 / 4) x B x m
    buffers = np.empty((2, (points + 1) ** 2 // 4 * ranks.shape[1]), dtype=ranks.dtype)
    window = ranks[None]
    yield 1, window
    for size in range(2, points + 1):
        x, kept = ranks[size - 1 :], window[:, :-1]
        grown = buffers[size % 2, : size * x.size].reshape(size, *x.shape)
        grown[0] = x
        np.maximum(kept, x, out=grown[1:])
        np.minimum(grown[:-1], kept, out=grown[:-1])
        window = grown
        yield size, window


def _order_statistics(
    derivs: Sequence[np.ndarray],
    thresholds: Sequence[Sequence[float]],
    lo: np.ndarray,
    length: np.ndarray,
    sweeps: list[tuple[Comparator, float]],
    n: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """For the :func:`_sorted_windows` of one batch's :func:`_ranks` and each
    (comparator, alpha) of ``sweeps``, a packed table of the threshold ranks
    that decide each instance's windows, with attribute a in columns a * m ..
    a * m + m - 1; and the rows ``at`` such that ``table[at]`` is the (K, B *
    m) array for the intervals: interval k covers the data-bearing points
    ``lo[k] .. lo[k] + length[k] - 1``.

    An interval of p points satisfies ``A <= t_j`` at alpha iff its k-th
    smallest rank is <= j, and ``A > t_j`` iff its k-th largest rank is > j,
    with k = ``required_counts(alpha, n)[p]``.  Table row ``offset[p] + i``
    holds the p-point windows from point i + 1; row 0 is the empty window,
    which never holds: it reads t (resp. -1), t being the batch's largest
    threshold count, above every threshold index of every attribute.
    """
    m, points = derivs[0].shape
    t = max(map(len, thresholds))
    # np.add.accumulate, not np.cumsum, for the reason given in best_split
    offset = np.concatenate(([0, 1], 1 + np.add.accumulate(np.arange(points, 0, -1))))
    tables = [
        np.full((offset[-1], len(derivs) * m), t if comparator is Comparator.LE else -1,
                dtype=np.min_scalar_type(-t - 1))
        for comparator, _ in sweeps
    ]
    for size, window in _sorted_windows(_ranks(derivs, thresholds)):
        for (comparator, alpha), table in zip(sweeps, tables):
            k = required_counts(alpha, n)[size]
            j = k - 1 if comparator is Comparator.LE else size - k
            table[offset[size] : offset[size + 1]] = window[j]
    return tables, np.where(length > 0, offset[length] + lo - 1, 0)


def _critical_ranks(table: np.ndarray, reached: list, smallest: bool, b: int) -> np.ndarray:
    """The (R, B * m) critical ranks of one sweep's ``table`` for a batch of
    B attributes: entry [r, a * m + i] is instance i's critical rank for
    attribute a under the r-th mask of ``reached``, the min (for ``<=``,
    ``smallest``) or max (for ``>``) down the mask's rows, bounded to the
    never value off the instance's mask.  Instance i satisfies the modality
    at its attribute's thresholds[j] iff its critical rank is <= j (resp.
    > j)."""
    m = table.shape[1] // b
    reduce = np.minimum.reduce if smallest else np.maximum.reduce
    bound, side = (np.maximum, 0) if smallest else (np.minimum, 1)
    crit = np.empty((len(reached), table.shape[1]), dtype=table.dtype)
    for k, (rows, bounds) in enumerate(reached):
        stat = table[rows].reshape(len(rows), b, m)
        bound(stat, bounds[side], out=stat)
        reduce(stat, axis=0, out=crit[k].reshape(b, m))
    return crit


def _window_runs(reaches: list[np.ndarray], lo: np.ndarray, hi: np.ndarray, points: int) -> list:
    """Per window size p (index p of the result, 0 .. points), the pairs
    (starts, rels) such that ``window[j, starts]`` of :func:`_sorted_windows`
    are the p-point windows of the intervals ``reaches[r]`` for each r in
    ``rels``, intervals that every instance of the node reaches.  Relations
    with the same windows share a pair (``A`` and ``Bi`` do at [0, 1]).
    ``starts`` is a slice when the windows start at consecutive points, as
    they do for p >= 2, and a list of starts otherwise (at degree 3 and up,
    the one-point windows of ``Li`` from [N - 1, N] lie at points 1 and
    N - 3)."""
    hit = np.zeros((len(reaches), points + 1, points), dtype=bool)
    for r, reach in enumerate(reaches):
        first, last = lo[reach], hi[reach]
        spans = first <= last
        hit[r, (last - first + 1)[spans], first[spans] - 1] = True
    count = hit.sum(axis=2).T.tolist()
    first = hit.argmax(axis=2).T.tolist()
    stop = (points - hit[:, :, ::-1].argmax(axis=2)).T.tolist()
    runs = []
    for p in range(points + 1):
        shared: dict = {}  # a run (first, stop), or (None, starts) -> its relations
        for r in range(len(reaches)):
            if count[p][r] == stop[p][r] - first[p][r]:
                shared.setdefault((first[p][r], stop[p][r]), []).append(r)
            elif count[p][r]:
                shared.setdefault((None, tuple(np.flatnonzero(hit[r, p]).tolist())), []).append(r)
        runs.append([
            (slice(*key) if key[0] is not None else list(key[1]), rels) for key, rels in shared.items()
        ])
    return runs


def _streamed_critical_ranks(
    ranks: np.ndarray,
    t: int,
    runs: list,
    r: int,
    sweeps: list[tuple[Comparator, float]],
    n: int,
) -> list[np.ndarray]:
    """Per (comparator, alpha) of ``sweeps``, the (r, B * m) critical ranks
    that :func:`_critical_ranks` reads from :func:`_order_statistics`' table,
    for one batch's :func:`_ranks` with t its largest threshold count, and
    for r relations whose intervals every instance of the node reaches,
    their windows of each size p at ``runs[p]`` (see :func:`_window_runs`).
    Each is the min (for ``<=``) or max (for ``>``) over the relation's
    windows, folded in while :func:`_sorted_windows` holds them, from the
    never value t (resp. -1), which an empty window reads; no table is
    built."""
    crits, plans = [], []  # plans: per sweep, its fold, its position per size and its rows
    for comparator, alpha in sweeps:
        smallest = comparator is Comparator.LE
        crit = np.full((r, ranks.shape[1]), t if smallest else -1, dtype=ranks.dtype)
        k = required_counts(alpha, n)
        position = k - 1 if smallest else np.arange(n + 1) - k
        crits.append(crit)
        plans.append((np.minimum if smallest else np.maximum, position.tolist(), list(crit)))
    last = max((p for p, run in enumerate(runs) if run), default=0)
    for size, window in _sorted_windows(ranks):
        if size > last:  # longer windows reach no relation
            break
        for fold, position, rows in plans:
            stat = window[position[size]]
            for starts, rels in runs[size]:
                folded = fold.reduce(stat[starts], axis=0)
                for rel in rels:
                    fold(rows[rel], folded, out=rows[rel])
    return crits


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

    def side(n: np.ndarray, columns) -> np.ndarray:
        # one class at a time, so that no (r, q) temporary is made
        row = (n - low) * width
        acc = None
        for c in columns:
            term = terms[row + c]
            acc = term if acc is None else acc + term
        return (n / m) * -acc

    def score(c1: np.ndarray) -> np.ndarray:
        n1 = c1.sum(axis=1)
        return (0.0 + side(n1, c1.T)) + side(m - n1, (total - c for total, c in zip(parent_counts, c1.T)))

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
    shared = distinct.size == 1
    masks = []
    for rel in sorted(config.relations, key=lambda r: r.rank):
        r1, r2, c1, c2 = relation_rectangle(rel, ref_x, ref_y, n)
        mask = (r1 <= u[:, None]) & (u[:, None] <= r2) & (c1 <= v[:, None]) & (v[:, None] <= c2)
        reach = np.flatnonzero(mask.any(axis=1))
        if reach.size:
            masks.append((rel, reach, None if shared else mask[reach][:, back]))
    if not masks:
        return None

    deriv = np.stack([inst.channels for inst in instances])
    classes = np.array([inst.class_index for inst in instances], dtype=np.intp)
    q = int(classes.max()) + 1
    parent_counts = np.bincount(classes, minlength=q)
    parent_info = info(parent_counts.tolist())
    score = _split_scorer(parent_counts, low)
    best_key: Optional[tuple] = None
    best_cand: Optional[SplitCandidate] = None

    sweeps = [(cmp, alpha) for cmp in config.comparators for alpha in config.alpha_grid]
    r = len(masks)
    top = min(config.max_derivative, n - 1)
    for z in range(top + 1):
        if z:
            deriv = np.diff(deriv, axis=2)
        searched = []  # (attribute, thresholds) of the attributes with thresholds
        for attr in range(deriv.shape[1]):
            thresholds = candidate_thresholds(deriv[:, attr].ravel(), config.max_threshold_candidates)
            if thresholds:
                searched.append((attr, thresholds))
        points = n - z
        # an attribute's largest window on one reference, else its tables
        cells = (points + 1) ** 2 // 4 if shared else len(sweeps) * (1 + points * (points + 1) // 2)
        per_batch = max(1, _TABLE_CELLS // (cells * m))
        batches = [searched[first : first + per_batch] for first in range(0, len(searched), per_batch)]
        if shared:
            runs = _window_runs([reach for _, reach, _ in masks], *point_spans(u, v, n, z), points)
            # every batch is ranked before any window grows, so that the
            # floats of the last degree are gone by then
            ranked = [_ranks([deriv[:, attr] for attr, _ in batch], [thr for _, thr in batch])
                      for batch in batches]
            if z == top:
                deriv = None
        else:
            lo, hi = point_spans(u, v, n, z)
            length = np.maximum(hi - lo + 1, 0)
        for k, batch in enumerate(batches):
            b = len(batch)
            counts = np.array([len(thresholds) for _, thresholds in batch])
            t = int(counts.max())
            if shared:
                crits = _streamed_critical_ranks(ranked[k], t, runs, r, sweeps, n)
            else:
                tables, at = _order_statistics(
                    [deriv[:, attr] for attr, _ in batch], [thr for _, thr in batch], lo, length, sweeps, n
                )
                # per relation, the table rows of its reached intervals and
                # bounds that turn every entry off an instance's mask into
                # the never value, broadcast over the batch's attributes:
                # np.maximum with the first (0 on the mask, t off it) for
                # <=, np.minimum with the second (t on, -1 off) for >.  A
                # plain reduction of the bounded rows then equals the masked
                # one, without the branching that a where= reduction (or
                # np.where) pays on scattered masks.
                reached = []
                for _, reach, mask in masks:
                    off = (~mask).astype(tables[0].dtype)[:, None]
                    reached.append((at[reach], (off * t, off * (-t - 1) + t)))
                crits = [
                    _critical_ranks(table, reached, comparator is Comparator.LE, b)
                    for (comparator, _), table in zip(sweeps, tables)
                ]
                # release the tables before the scoring allocates
                del tables, reached
            # bincount offsets: row (a, r, rank + 1, class) of a (B, R, t + 2,
            # q) table, laid out as crit is, (R, B * m)
            cell = np.arange(b) * r + np.arange(r)[:, None]
            base = ((cell * (t + 2) + 1)[:, :, None] * q + classes).reshape(r, b * m)
            # attribute a has thresholds 0 .. counts[a] - 1 only
            real = (np.arange(t) < counts[:, None])[:, None, :]
            tally = np.min_scalar_type(-m - 1)  # holds every count 0 .. m
            for (comparator, alpha), crit in zip(sweeps, crits):
                smallest = comparator is Comparator.LE
                # le[a, r, j, c]: instances of class c whose critical rank
                # for attribute a under masks[r] is <= j
                hist = np.bincount((base + q * crit.astype(np.intp)).ravel(), minlength=b * r * (t + 2) * q)
                # np.add.accumulate, not .cumsum(): on numpy 2.4 the method
                # form leaves fresh name strings in CPython's type cache
                le = np.add.accumulate(hist.reshape(b, r, t + 2, q), axis=2, dtype=tally)[:, :, 1 : t + 1]
                del hist
                below = le.sum(axis=3)
                sizes = below if smallest else m - below
                # a repeated size is the same partition at a larger threshold,
                # whose key is larger: keep the first only
                fresh = (sizes >= low) & (sizes <= high) & real
                fresh[..., 1:] &= below[..., 1:] != below[..., :-1]
                attr_at, rel_at, thr_at = np.nonzero(fresh)
                if not attr_at.size:
                    continue
                c1 = le[attr_at, rel_at, thr_at]
                if not smallest:
                    np.subtract(parent_counts, c1, out=c1)
                # rows run in (attribute, relation rank, threshold) order, so
                # the first minimum is the canonical winner of the sweep
                si = score(c1)
                w = int(si.argmin())
                attr, thresholds = batch[attr_at[w]]
                rel = masks[rel_at[w]][0]
                key = (float(si[w]), attr, rel.rank, comparator.rank, thresholds[thr_at[w]], alpha, z)
                if key[0] >= parent_info or (best_key is not None and key >= best_key):
                    continue
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
            # release this batch's critical ranks before the next batch
            del crits
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


def _check_differences(dataset: TemporalDataset, max_derivative: int) -> None:
    """Refuse data whose differences of a searched degree leave float64
    range, naming the first such channel: their thresholds would be inf."""
    deriv = np.stack([inst.channels for inst in dataset.instances])
    for z in range(1, min(max_derivative, dataset.series_length - 1) + 1):
        with np.errstate(over="ignore"):  # an overflow shows as inf, refused below
            deriv = np.diff(deriv, axis=2)
        finite = np.isfinite(deriv).all(axis=(0, 2))
        if not finite.all():
            channel = dataset.attribute_names[int(finite.argmin())]
            raise DataFormatError(f"channel {channel!r}: degree-{z} differences out of float64 range")


def grow_tree(dataset: TemporalDataset, config: LearnerConfig) -> DecisionTree:
    """Greedy recursive growth from the root reference interval [0, 1].

    A node becomes a leaf when its entropy is at or below the purity
    threshold, when it holds fewer than twice the minimum leaf size, or when
    no candidate split has positive gain.
    """
    if not dataset.instances:
        raise ValueError("cannot grow a tree from an empty dataset")
    _check_differences(dataset, config.max_derivative)
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


def classify_all(tree: DecisionTree, instances: Sequence[Instance]) -> list[tuple[int, tuple[int, ...]]]:
    """Each instance's leaf class and class-count vector, in input order.
    From [0, 1], the instances that reach a node are routed together by the
    rule that grew the tree (:func:`tstrees.intervals.split_dataset`), each
    moving onto its witness at a satisfied modal node.  Every consumer of a
    grown tree calls it."""
    leaves: list = [None] * len(instances)

    def walk(node: DecisionTree, batch: list[Instance]) -> None:
        if not isinstance(node, Node):
            for walker in batch:
                leaves[walker.class_index] = (node.class_index, node.class_counts)
        elif batch:
            held, failed = split_dataset(batch, node.decision)
            walk(node.left, held)
            walk(node.right, failed)

    # routing never reads a class, so each walker carries its input position as one
    walk(tree, [Instance(inst.channels, k, ROOT_REFERENCE) for k, inst in enumerate(instances)])
    return leaves


def classify(tree: DecisionTree, instance: Instance) -> tuple[int, tuple[int, ...]]:
    """One instance's leaf class and class counts: :func:`classify_all` on it."""
    return classify_all(tree, [instance])[0]


def confusion(tree: DecisionTree, dataset: TemporalDataset) -> ConfusionMatrix:
    """The tree's confusion matrix on a dataset (rows = predicted, columns =
    true): the tally of :func:`classify_all` over its instances."""
    predicted = [cls for cls, _ in classify_all(tree, dataset.instances)]
    actual = [inst.class_index for inst in dataset.instances]
    return ConfusionMatrix.tally(predicted, actual, dataset.class_count)
