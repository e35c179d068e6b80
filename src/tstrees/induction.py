"""Entropy-based greedy tree growth.

Static C4.5-style splits are the degenerate case (eq relation, alpha 1,
degree 0 on constant two-point series); the general case searches the full
grid attributes x relations x comparators x alphas x derivative degrees x
thresholds and keeps the candidate of minimal weighted child entropy.

The learner searches the comparators ``<=`` and ``>`` only (``=`` is refused
by :class:`tstrees.core.LearnerConfig`).  Both are monotone in the
threshold, so they are searched by a sweep over sorted values, as C4.5
searches a numeric attribute (Quinlan 1993).  One argsort per (attribute,
degree) of the node's values gives its range check, its candidate
thresholds and, by searching the thresholds in the sorted values, each
point's rank among them (:func:`_ranked_thresholds`).
``np.unique`` is not used: on numpy >= 2.3 its hash set grew a fresh heap
by 1.2 MiB, where a sort pages in 256 KiB of code.  An interval of p
data-bearing points satisfies ``A <= t`` at alpha exactly when its k-th
smallest value is <= t, and ``A > t`` exactly when its k-th largest value
is > t, with k = ceil(alpha * p).  No window is sorted.  Per degree, the attributes with
thresholds are searched in batches of as many as the budget
:data:`_TABLE_CELLS` allows, side by side on the instance axis.  Per batch,
the sorted windows of p + 1 points grow from those of p points by inserting
one point, start-major so that each step is one contiguous run per position
(:func:`_sorted_windows`).  Per (comparator, alpha, relation), each
(attribute, instance) then needs its critical value: the min (for ``<=``)
or max (for ``>``) of the order statistics of its successors' windows.

One streamed path serves every node (:func:`_streamed_critical_ranks`).
Once per node, each relation's successor rectangle is taken at every
distinct reference (:func:`tstrees.intervals.relation_boxes`), and a
relation without successors is dropped.  The p-point
windows of a rectangle's successors start at one run of points, in closed
form (:func:`_window_runs`), so the critical values are folded in while the
windows of each size are held, and no table of every window is built.  On
one reference (the root, for one), a relation's fold is a min (or max) over
a basic slice of the order-statistic row.  On several (below a satisfied
modal edge), a sparse table of that row gives every (relation, instance)
run as the fold of two entries (:class:`_SparseReads`).  Per (comparator,
alpha), cumulative class counts over the critical values give the
partition at every (attribute, relation, threshold) of the batch at once.
Only the first threshold of each distinct partition is scored.

On 96 x 6 Gaussian series with the racket-train config (2-vCPU VM), a root
search peaks at 1.3, 4.5 and 17 MiB of tracemalloc at N = 150, 300 and 600.
Spread over 20 distinct references it peaks at 2.6, 6.0 and 20 MiB and
takes 0.10 and 0.59 s at N = 150 and 300, where a table of every window per
sweep took 23, 87 and 333 MiB and 0.39 and 2.0 s.

Within one :func:`grow_tree` call the channels are stacked once and the
windows grow once per (instance, reference), not once per node
(:class:`_Seen`).  A critical rank is the
number of a node's thresholds below the critical value, a non-decreasing
function of it, and order statistics, min and max commute with such a
function.  So a node of a tree grows its windows on each instance's own
ranks (the rank of a value among the instance's own values) and keeps the
critical values as own ranks; a node whose instances still stand where they
were found maps them to its thresholds through each instance's sorted
values (:func:`_rank_table`).  Only below a satisfied modal edge, where
every instance has moved onto a witness, do the windows grow again.  Own
ranks fit one byte while N_z <= :data:`_OWN_POINTS`; above it, and in a
public :func:`best_split`, which has nothing to reuse, each search grows
its windows on its node ranks.

Candidates are scored together.  Each (batch, degree, comparator, alpha)
yields one array of satisfying-side class counts, scored in one array pass
that equals :func:`info_split` bit for bit (:func:`_split_scorer`), from a
table of entropy terms that a tree builds once, at its root.  Its
rows run in (attribute, relation order, threshold) order, so its first
minimum is its canonical winner, and only that winner meets the total
canonical tie-break across sweeps and batches; the winner is independent of
evaluation order and of how the attributes are batched.

Growth and :func:`classify_all` hand each node's instances to
:func:`tstrees.intervals.split_dataset`, which routes them all in one pass.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
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
    relation_boxes,
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


def _midpoints(ordered: np.ndarray, cap: int) -> np.ndarray:
    """The thresholds of :func:`candidate_thresholds` from the ascending
    finite ``ordered`` values: the midpoints between consecutive distinct
    values, thinned to ``cap`` evenly spaced ones by index."""
    at = np.flatnonzero(ordered[1:] != ordered[:-1])  # the last of each run of equal values but the last
    if at.size > cap:  # thinned before any midpoint is taken
        at = at[np.round(np.linspace(0, at.size - 1, cap)).astype(np.intp)]
    lower, upper = ordered[at], ordered[at + 1]
    with np.errstate(over="ignore"):  # a sum past float64 range is redone below
        mids = (lower + upper) / 2.0
    over = np.isinf(mids)
    mids[over] = lower[over] / 2.0 + upper[over] / 2.0
    return mids


def candidate_thresholds(values: Sequence[float] | np.ndarray, cap: int) -> list[float]:
    """Split thresholds for an observed value multiset.

    Midpoints between consecutive distinct sorted values; when more than
    ``cap`` exist they are thinned to ``cap`` evenly spaced ones (by index
    over the midpoint sequence, i.e. evenly spaced quantiles).  Deterministic;
    empty for a constant multiset.  NaN and infinite values are refused, so
    the thresholds are finite and ascending.  Split search takes the same
    ones from the argsort that ranks its values (:func:`_ranked_thresholds`).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot derive thresholds from no values")
    if not np.isfinite(arr).all():
        raise ValueError("cannot derive thresholds from NaN or infinite values")
    return _midpoints(np.sort(arr, axis=None), cap).tolist()


@dataclass(frozen=True)
class SplitCandidate:
    """An admissible split: its decision, weighted child entropy, and the
    (satisfying, non-satisfying) partition sizes."""

    decision: TemporalDecision
    split_info: float
    partition_sizes: tuple[int, int]


#: Cells (one byte each while there are at most 127 thresholds, or on own
#: ranks while N_z <= 254) that one batch of :func:`best_split` may hold.
#: Per degree, the attributes with thresholds are searched in batches, side
#: by side on the instance axis, as many as fit (at least one), as
#: :data:`tstrees.baselines._PASS_BUDGET` sizes a DTW pass.  Per instance, an
#: attribute counts its two window buffers of floor((N_z + 1)^2 / 4) cells
#: and its largest sparse table, N_z (floor(log2 N_z) + 1) cells; a node of
#: a tree that reads kept critical values grows no window but batches its
#: attributes alike.  The racket-train root (96 instances, 30 points, 60,480
#: cells per attribute) and j48's 12 static features each fit one batch.
_TABLE_CELLS = 2**19


def _ranked_thresholds(deriv: np.ndarray, cap: int, attr: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending candidate thresholds of one attribute's (m, points)
    degree-``z`` values ``deriv`` and the (points, m) ranks of its values
    among them, from one argsort of its point-major values.  Entry [p, i]
    is the number of thresholds below point p + 1 of instance i, so ``x <=
    t_j`` iff rank <= j and ``x > t_j`` iff rank > j, in the smallest type
    that holds -t - 1 .. t for t thresholds (int8 up to 127).  NaN and inf
    sort to the ends: a :class:`DataFormatError` naming attribute ``attr``.

    The ranks come from searching the at most ``cap`` thresholds in the
    sorted values, not the m * points values in the thresholds (11 against
    27 us on 96 x 30 values): threshold j first falls below the sorted value
    at ``searchsorted(ordered, t_j, "right")``, so the running count of
    those positions is each sorted value's rank.  A threshold at or above
    the largest value (a midpoint that rounds up to it) lands past the end
    and counts for no value.  The ranks are scattered back through the
    permutation."""
    m, points = deriv.shape
    size = points * m
    values = deriv.T.ravel()
    order = values.argsort()
    ordered = values[order]
    if not (-np.inf < ordered[0] and ordered[-1] < np.inf):
        raise DataFormatError(f"attribute {attr}: degree-{z} differences out of float64 range")
    thresholds = _midpoints(ordered, cap)
    ranks = np.empty(size, dtype=np.min_scalar_type(-thresholds.size - 1))
    # np.add.accumulate, not .cumsum(): see the type-cache note in best_split
    first_above = np.bincount(np.searchsorted(ordered, thresholds, "right"), minlength=size + 1)
    ranks[order] = np.add.accumulate(first_above[:-1], dtype=ranks.dtype)
    return thresholds, ranks.reshape(points, m)


def _sorted_windows(ranks: np.ndarray):
    """The sorted windows of a batch's (points, B * m) ranks, attribute a's
    :func:`_ranked_thresholds` in columns a * m ..: yields ``(size,
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


def _window_runs(box: np.ndarray, points: int, size) -> tuple[np.ndarray, np.ndarray]:
    """The starts of the ``size``-point windows of successors, in closed
    form: for the (4, R, D) :func:`tstrees.intervals.relation_boxes` of R
    relations and D references at degree z (``points`` = N_z = n - z
    data-bearing points), the (R, D) arrays (first, stop) such that
    ``window[j, first:stop]`` of :func:`_sorted_windows` are the windows of
    the successors, empty when first >= stop.  ``size`` may be an array that
    broadcasts against them.

    An interval [u, v] covers the points lo(u) .. hi(v) of
    :func:`tstrees.intervals.point_spans`, both ends monotone, so over a
    rectangle the windows start at lo(r1) .. lo(r2) and end at hi(c1) ..
    hi(c2), any start with any end (lo's clip at N_z + 1 moves only a start
    r1 > N_z, whose run is empty either way).  A window of p >= 2 points
    that starts at s ends at s + p - 1 > s, which every u <= s < v meets, so
    its starts are one run.  A one-point window [s, s] needs u < v too, which
    leaves s = 1 (u = 0, v = 1) and s = N_z (u = N_z < v): at size 1, only
    the starts 0 and N_z - 1 of the run are windows of successors."""
    r1, r2, c1, c2 = box
    (lo1, hi1), (lo2, hi2) = point_spans(r1, c1, points, 0), point_spans(r2, c2, points, 0)
    first = np.maximum(lo1, hi1 - size + 1) - 1
    stop = np.minimum(lo2, hi2 - size + 1)
    return first, np.where((r1 <= r2) & (c1 <= c2), stop, first)


def _window_reads(box: np.ndarray, points: int) -> Sequence:
    """How :func:`_streamed_critical_ranks` reads the p-point windows (entry
    p - 1, up to the longest window of a successor) of the (4, R, D)
    :func:`tstrees.intervals.relation_boxes` at ``points`` = N_z, from their
    :func:`_window_runs`.  On one reference (D = 1): a list of pairs (starts,
    rels) of a slice of starts, or at size 1 a list of the starts 0 and N_z -
    1 that the run holds, and the relations that read them (``A`` and ``Bi``
    share theirs at [0, 1]).  On several: a :class:`_SparseReads`, whose
    entry p - 1 is built when it is read."""
    r1, r2, c1, c2 = box
    # the longest window of a successor is that of [r1, c2]
    span_lo, span_hi = point_spans(r1, c2, points, 0)
    last = max(0, int((span_hi - span_lo + 1)[(r1 <= r2) & (c1 <= c2)].max()))
    if box.shape[2] == 1:
        sizes = np.arange(1, last + 1)
        first, stop = _window_runs(box, points, sizes[:, None, None])
        reads = []
        for size, firsts, stops in zip(sizes.tolist(), first[..., 0].tolist(), stop[..., 0].tolist()):
            shared: dict = {}
            for rel, (a, b) in enumerate(zip(firsts, stops)):
                if size == 1:
                    key = tuple(s for s in dict.fromkeys((0, points - 1)) if a <= s < b)
                else:
                    key = (a, b) if a < b else ()
                if key:
                    shared.setdefault(key, []).append(rel)
            reads.append([(list(key) if size == 1 else slice(*key), rels) for key, rels in shared.items()])
        return reads
    return _SparseReads(box, points, last)


class _SparseReads:
    """The reads of :func:`_window_reads` on several references, built a
    block of sizes at a time when :func:`_streamed_critical_ranks` first
    reads one of them, and kept for the node's later batches.  Every size's
    at once took 3.4 of the 4.8 MiB tracemalloc peak of a 96 x 6 x 150
    tree; their ``lo`` and ``hi`` alone take under a third of that.

    Entry p - 1 is (lo, hi, depth): the (R, D) rows of the size's sparse
    table whose fold is each run, and the table's top level.  Level k holds
    from row k (S + 1) - 2^k + 1 the fold of every 2^k consecutive starts of
    the S = N_z - p + 1, so that a run of length L is the fold of level
    floor(log2 L) at its first start and at its stop - 2^k (Bender and
    Farach-Colton, "The LCA Problem Revisited", LATIN 2000).  An empty run,
    and at size 1 a missing start, reads the never row N_z (floor(log2 N_z)
    + 1), past the largest table."""

    BLOCK = 16  # sizes built together

    def __init__(self, box: np.ndarray, points: int, last: int):
        self.box, self.points, self.last = box, points, last
        self.reads: list[tuple[np.ndarray, np.ndarray, int]] = []

    def __len__(self) -> int:
        return self.last

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        while len(self.reads) <= k:
            self.reads.extend(self._block(len(self.reads) + 1))
        return self.reads[k]

    def _block(self, start: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
        """The entries of the sizes start .. start + BLOCK - 1, up to last."""
        points = self.points
        sizes = np.arange(start, min(start + self.BLOCK, self.last + 1))
        first, stop = _window_runs(self.box, points, sizes[:, None, None])
        never = points * points.bit_length()
        length = stop - first
        level = np.frexp(np.maximum(length, 1))[1] - 1  # floor(log2 L)
        span = 1 << level
        base = level * (points + 2 - sizes[:, None, None]) - span + 1
        held = length > 0
        lo = np.where(held, base + first, never)
        hi = np.where(held, base + stop - span, never)
        if start == 1:  # size 1: level 0 at the starts 0 and N_z - 1 only
            lo[0] = np.where((first[0] <= 0) & (0 < stop[0]), 0, never)
            hi[0] = np.where((first[0] < points) & (points <= stop[0]), points - 1, never)
        return list(zip(lo, hi, level.max(axis=(1, 2)).tolist()))


def _streamed_critical_ranks(
    ranks: np.ndarray,
    t: int,
    reads: list,
    r: int,
    back: Optional[np.ndarray],
    sweeps: list[tuple[Comparator, float]],
    n: int,
    floor: int = -1,
) -> list[np.ndarray]:
    """Per (comparator, alpha) of ``sweeps``, the (r, B * m) critical ranks
    of a batch's ``ranks`` (as :func:`_sorted_windows` takes them, t the
    largest threshold count) under r relations whose windows are read as
    ``reads`` says, instance i standing on reference ``back[i]`` (None on
    one reference).  Entry [r, a * m + i] is the min (for ``<=``) or max
    (for ``>``), over instance i's successors under relation r, of the k-th
    smallest (resp. largest) rank of attribute a over the successor's p
    data-bearing points, k = ``required_counts(alpha, n)[p]``, from the
    never value t (resp. ``floor``), which an empty window reads; instance i
    satisfies the modality at thresholds[j] iff it is <= j (resp. > j).  It
    is folded in while :func:`_sorted_windows` holds each size's windows: on
    one reference over basic slices of the order-statistic row, on several
    from a sparse table of that row (see :class:`_SparseReads`) with two
    flat takes.  Own ranks 1 .. N_z (see :class:`_Seen`) take t = N_z + 1
    and ``floor`` = 0."""
    points, width = ranks.shape
    plans = []  # per sweep: its fold, its position per size, its never value and its ranks
    for comparator, alpha in sweeps:
        smallest, k = comparator is Comparator.LE, required_counts(alpha, n)
        never, position = (t, k - 1) if smallest else (floor, np.arange(n + 1) - k)
        crit = np.full((r, width), never, dtype=ranks.dtype)
        plans.append((np.minimum if smallest else np.maximum, position.tolist(), never, crit))
    if back is not None:
        # the largest sparse table, and the never row after it
        table = np.empty((points * points.bit_length() + 1, width), dtype=ranks.dtype)
        flat = table.reshape(-1)
        columns = np.arange(width).reshape(-1, back.size)  # column a * m + i
    for size, window in _sorted_windows(ranks):
        if size > len(reads):  # longer windows reach no relation
            break
        if back is None:
            for fold, position, _, crit in plans:
                stat = window[position[size]]
                for starts, rels in reads[size - 1]:
                    folded = fold.reduce(stat[starts], axis=0)
                    for rel in rels:
                        fold(crit[rel], folded, out=crit[rel])
            continue
        lo, hi, depth = reads[size - 1]
        # the flat entries of every (relation, column)'s two reads
        lo, hi = (
            (np.multiply(read[:, back], width, dtype=np.intp)[:, None, :] + columns).reshape(r, width)
            for read in (lo, hi)
        )
        starts = points - size + 1
        for fold, position, never, crit in plans:
            table[-1] = never
            table[:starts] = window[position[size]]
            for k in range(1, depth + 1):  # level k from level k - 1, h = 2^(k - 1) rows on
                h = 1 << (k - 1)
                rows, below = starts - 2 * h + 1, table[(k - 1) * (starts + 1) - h + 1 :]
                fold(below[:rows], below[h : h + rows], out=table[k * (starts + 1) - 2 * h + 1 :][:rows])
            fold(crit, fold(flat.take(lo), flat.take(hi)), out=crit)
    return [crit for *_, crit in plans]


#: The largest N_z whose own ranks 1 .. N_z and never values 0 and N_z + 1
#: fit one byte.  Up to it, the nodes of a tree find critical values as own
#: ranks and keep them; above it, int16 own ranks would grow the windows
#: about twice as slowly (45.7 against 93.6 ms for 96 x 6 columns at N =
#: 150), so each node grows its windows on its node ranks there and keeps
#: nothing.
_OWN_POINTS = 254


class _Seen:
    """What the nodes of one :func:`grow_tree` call share: the tree's
    channels, its entropy terms and its critical values.

    ``stack`` holds the (rows, attributes, N) channels of the tree's
    instances, stacked once; a node takes its rows from it
    (:meth:`channels`), and the root, whose rows are all of them in order,
    reads the stack itself.  ``terms`` is the :func:`_entropy_terms` table
    at the tree's size and largest class count, which covers every node of
    the tree, since a node's partition sizes and class counts are at most
    the root's, and each cell does not depend on the node.

    An instance's own rank of its k-th smallest value among its own values
    is k.  Its critical values as own ranks depend only on its series and
    its reference, not on a node's thresholds.  So the root, and every node
    below a satisfied modal edge, whose instances have all moved onto
    witnesses, finds and keeps them, and every other node reads them.

    ``rows`` maps the identity of each instance's channel matrix to its row,
    and ``on`` holds the reference key each row's values were found on, -1
    before any.  Per degree z with N_z <= :data:`_OWN_POINTS`, column
    a * rows + row holds attribute a of the row: ``orders[z]``, (columns,
    N_z) uint8, its points in ascending order of value, and ``crits[z]``,
    (sweeps, relations of the config in rank order, columns) uint8, its
    critical values, 0 the ``>`` never value and N_z + 1 the ``<=`` one.  A
    reading node's instances are some of those of the node that found their
    values, on the same references, so it reads only relations and
    attributes that node searched too (constant values stay constant on a
    subset), and only entries that node wrote."""

    def __init__(self, instances: Sequence[Instance], config: LearnerConfig) -> None:
        self.rows = {id(inst.channels): k for k, inst in enumerate(instances)}
        self.stack = np.stack([inst.channels for inst in instances])
        total, attributes = self.stack.shape[:2]
        largest = int(np.bincount([inst.class_index for inst in instances]).max())
        self.terms = _entropy_terms(total, largest + 1, config.min_leaf_size)
        self.on = np.full(total, -1)
        self.shape = (len(config.comparators) * len(config.alpha_grid), len(config.relations), attributes * total)
        self.orders: dict[int, np.ndarray] = {}
        self.crits: dict[int, np.ndarray] = {}

    def channels(self, rows: np.ndarray) -> np.ndarray:
        """The (m, attributes, N) channels of the instances at ``rows``."""
        if rows.size == self.on.size and (rows == np.arange(rows.size)).all():
            return self.stack
        return self.stack.take(rows, axis=0)

    def keep(self, z: int, columns: np.ndarray, ordered: np.ndarray, found: list, held_at: np.ndarray) -> None:
        """Write ``columns``: their (columns, N_z) ascending ``ordered``
        points and, per sweep, their (r, columns) own-rank critical values
        ``found`` under the node's relations ``held_at``."""
        if z not in self.orders:
            self.orders[z] = np.empty((self.shape[2], ordered.shape[1]), dtype=np.uint8)
            self.crits[z] = np.empty(self.shape, dtype=np.uint8)
        self.orders[z][columns] = ordered
        self.crits[z][:, held_at[:, None], columns] = found

    def read(self, z: int, columns: np.ndarray, held_at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ascending points and the own-rank critical values under the
        relations ``held_at`` that :meth:`keep` wrote to ``columns``."""
        return self.orders[z].take(columns, axis=0), self.crits[z][:, held_at].take(columns, axis=2)


#: The :class:`_Seen` of the tree that :func:`grow_tree` is growing.
_growing: ContextVar[Optional[_Seen]] = ContextVar("_growing", default=None)


def _sorted_at(order: np.ndarray) -> np.ndarray:
    """The flat positions, in a (points, columns) array, of each column's
    points in the ascending ``order`` (columns, points) of its values."""
    return np.multiply(order, order.shape[0], dtype=np.intp) + np.arange(order.shape[0])[:, None]


def _rank_table(at: np.ndarray, ranks: np.ndarray, t: int) -> np.ndarray:
    """The (columns, points + 2) node ranks of each own rank of a batch's
    (points, columns) node ``ranks``, t the largest threshold count, ``at``
    its :func:`_sorted_at`.  A node rank is a non-decreasing function of the
    value, and order statistics, min and max commute with it, so own rank k
    maps to the node rank of the column's k-th smallest value, 0 to -1 and
    points + 1 to t, and critical values map to the ranks that
    :func:`_streamed_critical_ranks` finds on the node ranks
    (:func:`_node_ranks`)."""
    points, cols = ranks.shape
    table = np.empty((cols, points + 2), dtype=ranks.dtype)
    table[:, 0], table[:, -1] = -1, t
    table[:, 1:-1] = ranks.reshape(-1).take(at)
    return table


def _node_ranks(crits, table: np.ndarray) -> list[np.ndarray]:
    """Per sweep, the (r, columns) node ranks of the own-rank critical
    values ``crits`` (r, columns), through the :func:`_rank_table`."""
    offsets = np.arange(0, table.size, table.shape[1])
    return [table.reshape(-1).take(crit + offsets) for crit in crits]


def _entropy_terms(m: int, width: int, low: int) -> np.ndarray:
    """The (m - 2 low + 1, width) entropy terms of the partitions of an
    m-instance node with minimum leaf size ``low`` and counts below
    ``width``: entry [s - low, c] is (c / s) * log2(c / s), with the float
    operations of :func:`info` (``math.log2``, which ``np.log2`` misses by
    an ulp on some fractions), and 0.0 where c is 0, as :func:`info` skips
    it.  A cell does not depend on m, so the table of a larger node, or of
    more classes, serves a smaller one."""
    sizes = np.arange(low, m - low + 1)[:, None]
    counts = np.arange(width)
    # p = 1 where c is 0 (or above s, never read) gives the 0.0
    p = np.where((counts > 0) & (counts <= sizes), counts / sizes, 1.0)
    logs = np.fromiter(map(math.log2, p.ravel().tolist()), np.float64, p.size)
    return p * logs.reshape(p.shape)


def _split_scorer(parent_counts: np.ndarray, low: int, terms: Optional[np.ndarray] = None):
    """Batch form of :func:`info_split` for the binary splits of one node.

    ``parent_counts`` holds the node's m instances per class and ``low`` the
    minimum leaf size.  The returned ``score(c1)`` takes an (r, q) array of
    satisfying-side class counts, each row summing to a size in
    [low, m - low], and returns the r values of
    ``info_split(m, [c1, parent_counts - c1])``, bit for bit: the entropy
    terms come from an :func:`_entropy_terms` table and are added in class
    order, and the two sides are weighted and added as ``info_split`` adds
    them.  ``terms`` is a table built for this node or a larger one, with
    the same ``low`` and at least its largest class count (a tree builds
    one at its root, :class:`_Seen`); without it, one is built for this
    node alone.
    """
    m = int(parent_counts.sum())
    if terms is None:
        terms = _entropy_terms(m, int(parent_counts.max()) + 1, low)
    width = terms.shape[1]
    terms = terms.ravel()

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
    comparator order, threshold, alpha, derivative degree).  Differences of
    a searched degree past float64 range, as for the router, and NaN or
    infinite values are a :class:`DataFormatError` naming the attribute
    and degree.

    A call from :func:`grow_tree` reuses the critical values that the
    tree's earlier nodes kept for instances that still stand where they
    were found, and keeps those it finds; it takes its channels from the
    tree's stack and scores with the tree's entropy-term table (see
    :class:`_Seen`).  The result is the same.  Any other call stacks its
    instances' channels, builds a table for its own node, finds every
    critical value and keeps nothing.
    """
    m = len(instances)
    low, high = config.min_leaf_size, m - config.min_leaf_size
    if low > high:  # too few instances for two leaves
        return None
    n = instances[0].series_length

    # per relation, in rank order, the successor box of each distinct
    # reference; a relation without successors for any instance holds
    # nowhere, and since min_leaf_size >= 1 it has no admissible candidate
    # (in Python: np.unique's first call here paged in 256-384 KiB of numpy
    # code, which a fresh process's first tree adds to its peak RSS)
    keys = [inst.reference.x * (n + 1) + inst.reference.y for inst in instances]
    index = {key: k for k, key in enumerate(sorted(set(keys)))}
    refs, distinct, back = np.array(keys), np.array(list(index)), np.array([index[key] for key in keys])
    ref_x, ref_y = np.divmod(distinct, n + 1)
    relations = sorted(config.relations, key=lambda r: r.rank)
    box = relation_boxes(relations, ref_x, ref_y, n)
    held = ((box[0] <= box[1]) & (box[2] <= box[3])).any(axis=1)
    if not held.any():
        return None
    held_at = np.flatnonzero(held)  # the node's relations among the config's
    relations = [relations[k] for k in held_at.tolist()]
    box = box[:, held]
    back = back if distinct.size > 1 else None

    # below a satisfied modal edge every instance has moved onto a witness
    # since its last search, elsewhere none has: a node of a tree finds the
    # critical values of all its instances or reads them all
    tree = _growing.get()
    if tree is not None:
        rows = np.array([tree.rows[id(inst.channels)] for inst in instances])
        find = bool((tree.on[rows] != refs).any())
        tree.on[rows] = refs

    deriv = np.stack([inst.channels for inst in instances]) if tree is None else tree.channels(rows)
    classes = np.array([inst.class_index for inst in instances], dtype=np.intp)
    q = int(classes.max()) + 1
    parent_counts = np.bincount(classes, minlength=q)
    parent_info = info(parent_counts.tolist())
    score = _split_scorer(parent_counts, low, None if tree is None else tree.terms)
    best_key: Optional[tuple] = None
    best_cand: Optional[SplitCandidate] = None

    sweeps = [(cmp, alpha) for cmp in config.comparators for alpha in config.alpha_grid]
    r = len(relations)
    top = min(config.max_derivative, n - 1)
    for z in range(top + 1):
        if z:
            with np.errstate(over="ignore"):  # an overflow shows as inf, refused below
                deriv = np.diff(deriv, axis=2)
        searched = []  # (attribute, thresholds, ranks) of the attributes with thresholds
        for attr in range(deriv.shape[1]):
            thresholds, ranked = _ranked_thresholds(deriv[:, attr], config.max_threshold_candidates, attr, z)
            if thresholds.size:
                searched.append((attr, thresholds, ranked))
        points = n - z
        own = tree is not None and points <= _OWN_POINTS  # kept between the tree's nodes
        if own and find and searched:
            # row k * m + i: instance i's points of the k-th searched attribute, ascending
            order = deriv.argsort(axis=2).astype(np.uint8)[:, [attr for attr, *_ in searched]]
            order = order.transpose(1, 0, 2).reshape(-1, points)
        if z == top:  # the floats of the last degree are gone before any window grows
            deriv = None
        # an attribute's two window buffers and its sparse table, per instance
        cells = 2 * ((points + 1) ** 2 // 4) + points * points.bit_length()
        per_batch = max(1, _TABLE_CELLS // (cells * m))
        if not own or find:
            reads = _window_reads(box, points)
        for first in range(0, len(searched), per_batch):
            batch = searched[first : first + per_batch]
            b = len(batch)
            counts = np.array([thresholds.size for _, thresholds, _ in batch])
            t = int(counts.max())
            # contiguous: a column slice of a wider array grew windows 40 % slower
            ranks = np.concatenate([ranked for *_, ranked in batch], axis=1, dtype=np.min_scalar_type(-t - 1))
            if not own:
                crits = _streamed_critical_ranks(ranks, t, reads, r, back, sweeps, n)
            else:
                # the batch's columns of the tree, a * rows + row, as in ranks
                columns = (np.array([attr for attr, *_ in batch])[:, None] * tree.on.size + rows).ravel()
                if find:
                    ordered = order[first * m : (first + b) * m]
                    at = _sorted_at(ordered)
                    owned = np.empty(ranks.shape, dtype=np.uint8)
                    owned.reshape(-1)[at] = np.arange(1, points + 1, dtype=np.uint8)
                    table = _rank_table(at, ranks, t)
                    del at  # before the windows grow
                    found = _streamed_critical_ranks(owned, points + 1, reads, r, back, sweeps, n, 0)
                    tree.keep(z, columns, ordered, found, held_at)
                else:
                    ordered, found = tree.read(z, columns, held_at)
                    table = _rank_table(_sorted_at(ordered), ranks, t)
                crits = _node_ranks(found, table)
            # bincount offsets: row (a, r, rank + 1, class) of a (B, R, t + 2,
            # q) table, laid out as crit is, (R, B * m)
            cell = np.arange(b) * r + np.arange(r)[:, None]
            base = ((cell * (t + 2) + 1)[:, :, None] * q + classes).reshape(r, b * m)
            # attribute a has thresholds 0 .. counts[a] - 1 only
            real = (np.arange(t) < counts[:, None])[:, None, :]
            tally = np.min_scalar_type(-m - 1)  # holds every count 0 .. m
            for (comparator, alpha), crit in zip(sweeps, crits):
                smallest = comparator is Comparator.LE
                # each array of a sweep is freed before the next sweep's
                # hist, the largest, is made
                slot = crit.astype(np.intp)
                slot *= q
                slot += base
                hist = np.bincount(slot.ravel(), minlength=b * r * (t + 2) * q)
                del slot
                # le[a, r, j, c]: instances of class c whose critical rank
                # for attribute a under relations[r] is <= j.
                # np.add.accumulate, not .cumsum(): on numpy 2.4 the method
                # form leaves fresh name strings in CPython's type cache
                le = np.add.accumulate(hist.reshape(b, r, t + 2, q), axis=2, dtype=tally)[:, :, 1 : t + 1]
                del hist
                # the <= side's sizes, summed class by class (le.sum(axis=3)
                # took 42 against 8 us on the racket-train root), in intp:
                # int8 sums would page in numpy's int8 loops, which nothing
                # else uses.  The > side's sizes, m - below, are admissible
                # and repeat exactly where below is and does
                below = le[..., 0].astype(np.intp)
                for c in range(1, q):
                    below += le[..., c]
                # a repeated size is the same partition at a larger threshold,
                # whose key is larger: keep the first only
                fresh = (below >= low) & (below <= high) & real
                fresh[..., 1:] &= below[..., 1:] != below[..., :-1]
                del below
                attr_at, rel_at, thr_at = np.nonzero(fresh)
                del fresh
                c1 = le[attr_at, rel_at, thr_at]
                del le
                if not attr_at.size:
                    continue
                if not smallest:
                    np.subtract(parent_counts, c1, out=c1)
                # rows run in (attribute, relation rank, threshold) order, so
                # the first minimum is the canonical winner of the sweep
                si = score(c1)
                w = int(si.argmin())
                attr, thresholds, _ = batch[attr_at[w]]
                rel = relations[rel_at[w]]
                key = (float(si[w]), attr, rel.rank, comparator.rank, float(thresholds[thr_at[w]]), alpha, z)
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
    cand = best_split(instances, config)  # None, too, below twice the minimum leaf size
    if cand is None:
        return leaf_for_counts(counts)
    t1, t2 = split_dataset(instances, cand.decision)
    return Node(
        decision=cand.decision,
        left=_grow(t1, q, config),
        right=_grow(t2, q, config),
    )


def _check_differences(stack: np.ndarray, dataset: TemporalDataset, max_derivative: int) -> None:
    """Refuse data whose differences of a searched degree leave float64
    range, naming the first such channel: their thresholds would be inf.
    ``stack`` holds the dataset's (m, attributes, N) channels."""
    deriv = stack
    for z in range(1, min(max_derivative, dataset.series_length - 1) + 1):
        with np.errstate(over="ignore"):  # an overflow shows as inf, refused below
            deriv = np.diff(deriv, axis=2)
        finite = np.isfinite(deriv).all(axis=(0, 2))
        if not finite.all():
            name = dataset.attribute_names[int(finite.argmin())]
            raise DataFormatError(f"channel {name!r}: degree-{z} differences out of float64 range")


def grow_tree(dataset: TemporalDataset, config: LearnerConfig) -> DecisionTree:
    """Greedy recursive growth from the root reference interval [0, 1].

    A node becomes a leaf when its entropy is at or below the purity
    threshold, when it holds fewer than twice the minimum leaf size, or when
    no candidate split has positive gain.

    Each instance's windows grow once per reference it stands on: at the
    root, and again below each satisfied modal edge that moves it onto a
    witness.  Every other node maps the critical values kept then to its
    own thresholds (:class:`_Seen`, while N_z <= :data:`_OWN_POINTS`), so a
    chain of unsatisfied or ``eq`` splits, and so every j48 tree, grows its
    windows at the root only.  What is kept, one byte per (instance,
    attribute, degree) and point or (sweep, relation), is freed on return,
    with the tree's stacked channels and its entropy-term table, which
    every node reads instead of building its own.
    """
    if not dataset.instances:
        raise ValueError("cannot grow a tree from an empty dataset")
    # a view per instance, so that its identity names the instance's row
    # below every split, which shares it
    instances = [Instance(inst.channels.view(), inst.class_index) for inst in dataset.instances]
    tree = _Seen(instances, config)
    _check_differences(tree.stack, dataset, config.max_derivative)
    token = _growing.set(tree)
    try:
        return _grow(instances, dataset.class_count, config)
    finally:
        _growing.reset(token)


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
