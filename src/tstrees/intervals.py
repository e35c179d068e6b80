"""Allen-relation algebra, discrete derivatives, relaxed pointwise
satisfaction, and decision checking with witness selection.

Intervals live on the extended point domain {0, ..., N}.  Channel values sit
at points 1..N; the z-th forward difference sits at points 1..N-z.  An
interval is evaluated on its data-bearing points clipped to that range, and
fails a decision outright when the clipped point set is empty.

The successor set of every relation is one rectangle of the (start, end)
grid (:func:`relation_rectangle`, stacked by :func:`relation_boxes`);
:func:`successors` lists its cells, and decision checking and routing here
and split search in :mod:`tstrees.induction` all read it.
:func:`allen_related` is the direct definition the tests compare it
against.  One router reads it to decide a decision and pick its witness, by
a linear rule on interval ends, in O(N) memory per instance:
:func:`split_dataset` is its batch call, as a tree is grown and applied,
:func:`check_decision` its one-instance call and :func:`holds_on` its eq
call on one interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    Comparator,
    DataFormatError,
    Instance,
    Interval,
    IntervalRelation,
    TemporalDecision,
)

Rel = IntervalRelation


def allen_related(i: Interval, j: Interval, relation: IntervalRelation) -> bool:
    """True iff ``j`` stands in ``relation`` to ``i``.

    The six forward relations follow the usual definitions; inverses are
    obtained by transposition; eq holds iff the intervals coincide.
    """
    if relation is Rel.EQ:
        return i == j
    if relation.is_inverse:
        return allen_related(j, i, relation.transpose)
    x, y, u, v = i.x, i.y, j.x, j.y
    if relation is Rel.A:
        return y == u
    if relation is Rel.L:
        return y < u
    if relation is Rel.B:
        return x == u and v < y
    if relation is Rel.E:
        return y == v and x < u
    if relation is Rel.D:
        return x < u and v < y
    if relation is Rel.O:
        return x < u and u < y and y < v
    raise ValueError(f"unknown relation {relation!r}")


def enumerate_intervals(n: int) -> list[Interval]:
    """All intervals over {0, ..., n}, sorted ascending by (x, y)."""
    return [Interval(x, y) for x in range(n) for y in range(x + 1, n + 1)]


def successors(i: Interval, relation: IntervalRelation, n: int) -> list[Interval]:
    """Exactly the intervals over {0, ..., n} related to ``i`` by
    ``relation``, sorted ascending by (x, y): the cells [u, v] with u < v of
    :func:`relation_rectangle`, clipped to the grid, in row-major order.
    Equivalence with filtering the full enumeration through
    :func:`allen_related` is a tested invariant.
    """
    r1, r2, c1, c2 = relation_rectangle(relation, i.x, i.y, n)
    return [Interval(u, v) for u in range(max(r1, 0), min(r2, n) + 1)
            for v in range(max(c1, u + 1), min(c2, n) + 1)]


Bound = Union[int, np.ndarray]


def relation_rectangle(
    relation: IntervalRelation, x: Bound, y: Bound, n: int
) -> tuple[Bound, Bound, Bound, Bound]:
    """Bounds (r1, r2, c1, c2) of the successor set of [x, y] over {0, ..., n}.

    The successors are exactly the intervals [u, v] with r1 <= u <= r2,
    c1 <= v <= c2 and u < v; eq is the single cell [x, x] x [y, y].  Only L,
    D and their inverses need the u < v cut.  An empty set shows as r1 > r2
    or c1 > c2, and bounds may then leave the grid by up to two.  Works
    elementwise on integer arrays of references.
    """
    if relation is Rel.EQ:
        return x, x, y, y
    if relation is Rel.A:
        return y, y, y + 1, n
    if relation is Rel.L:
        return y + 1, n - 1, y + 2, n
    if relation is Rel.B:
        return x, x, x + 1, y - 1
    if relation is Rel.E:
        return x + 1, y - 1, y, y
    if relation is Rel.D:
        return x + 1, y - 2, x + 2, y - 1
    if relation is Rel.O:
        return x + 1, y - 1, y + 1, n
    if relation is Rel.AI:
        return 0, x - 1, x, x
    if relation is Rel.LI:
        return 0, x - 2, 1, x - 1
    if relation is Rel.BI:
        return x, x, y + 1, n
    if relation is Rel.EI:
        return 0, x - 1, y, y
    if relation is Rel.DI:
        return 0, x - 1, y + 1, n
    if relation is Rel.OI:
        return 0, x - 1, x + 1, y - 1
    raise ValueError(f"unknown relation {relation!r}")


def relation_boxes(
    relations: Sequence[IntervalRelation], x: np.ndarray, y: np.ndarray, n: int
) -> np.ndarray:
    """The (4, R, D) :func:`relation_rectangle` bounds (r1, r2, c1, c2) of
    the successors of the D references [x, y] under each of R ``relations``.
    A reference has successors iff r1 <= r2 and c1 <= c2, and then the
    rectangle lies in the grid with r1 < c1 and r2 < c2, so that every start
    u and every end v in it belongs to a successor [u, v], u < v."""
    box = np.empty((4, len(relations), x.size), dtype=np.intp)
    for r, rel in enumerate(relations):
        for bound, value in zip(box[:, r], relation_rectangle(rel, x, y, n)):
            bound[...] = value
    return box


def derivative(channel: Sequence[float] | np.ndarray, z: int) -> np.ndarray:
    """z-fold forward difference of a channel; z = 0 is the channel itself."""
    values = np.asarray(channel, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("channel must be one-dimensional")
    if z < 0 or z >= values.shape[0]:
        raise ValueError(
            f"derivative degree {z} invalid for a series of length {values.shape[0]}"
        )
    with np.errstate(over="ignore"):  # an overflow reads as +-inf, as routing reads it
        for _ in range(z):
            values = np.diff(values)
    return values


def required_count(alpha: float, n_points: int) -> int:
    """ceil(alpha * n_points), computed on alpha's exact binary value so that
    results do not depend on intermediate rounding."""
    numerator, denominator = alpha.as_integer_ratio()
    return -((-numerator * n_points) // denominator)


@lru_cache(maxsize=256)
def required_counts(alpha: float, n: int) -> np.ndarray:
    """Table of :func:`required_count` for 0..n points."""
    table = np.array([required_count(alpha, p) for p in range(n + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def compare_values(
    values: np.ndarray, comparator: Comparator, threshold: float, eq_tolerance: float = 0.0
) -> np.ndarray:
    """Elementwise point condition ``values cmp threshold`` as a bool array."""
    if comparator is Comparator.LE:
        return values <= threshold
    if comparator is Comparator.GT:
        return values > threshold
    if comparator is Comparator.EQ:
        if eq_tolerance == 0.0:
            return values == threshold
        return np.abs(values - threshold) <= eq_tolerance
    raise ValueError(f"unknown comparator {comparator!r}")


def point_spans(u: Bound, v: Bound, n: int, z: int) -> tuple[Bound, Bound]:
    """Data-bearing point ranges [lo, hi] of the intervals [u, v] for
    derivative degree ``z`` over raw length ``n``, elementwise; the only
    definition of the span.  An empty range comes back as lo = hi + 1, so
    prefix-sum counts ``cum[hi] - cum[lo - 1]`` and lengths ``hi - lo + 1``
    read 0 and every index stays inside a prefix array of n - z + 1 entries.
    ``lo`` depends on u alone and ``hi`` on v alone; cells with u >= v,
    which are not intervals, may show negative lengths."""
    return np.minimum(np.maximum(u, 1), n - z + 1), np.minimum(v, n - z)


def holds_on(
    channel_values: Sequence[float] | np.ndarray,
    interval: Interval,
    comparator: Comparator,
    threshold: float,
    alpha: float,
    z: int,
    eq_tolerance: float = 0.0,
) -> bool:
    """Relaxed satisfaction of the point condition on one interval.

    True iff at least ceil(alpha * |P|) of the interval's data-bearing points
    P satisfy ``A^z cmp threshold``; false when P is empty.  This is the eq
    decision of :func:`check_decision` on a one-channel instance standing on
    ``interval``, which must end within the series.  At z >= 2 it raises
    :class:`DataFormatError` when a lower-degree difference of the channel
    leaves float64 range.
    """
    inst = Instance([channel_values], 0, interval)
    if interval.y > inst.series_length:
        raise ValueError(f"interval [{interval.x},{interval.y}] ends past the series' end")
    decision = TemporalDecision(Rel.EQ, 0, z, comparator, threshold, alpha, eq_tolerance)
    return check_decision(inst, decision).satisfied


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of checking one decision against one instance.

    ``witness`` is present iff the decision is satisfied and its relation is
    modal (not eq); it is then related to the instance's reference interval
    by the decision's relation.
    """

    satisfied: bool
    witness: Optional[Interval] = None

    def __post_init__(self) -> None:
        if self.witness is not None and not self.satisfied:
            raise ValueError("a witness requires satisfaction")


def _ratio(need: np.ndarray) -> tuple[int, int]:
    """(num, den), the least ``need[p] / p`` over p >= 1 for alpha's
    :func:`required_counts` table on 0..n: the least fraction >= alpha with
    denominator <= n, whose ceilings on 1..n are alpha's (the float argmin
    is exact, as such fractions differ by over 1 / n**2)."""
    den = int((need[1:] / np.arange(1, need.size)).argmin()) + 1
    return int(need[den]), den


def _route(
    instances: list[Instance], decision: TemporalDecision
) -> list[Optional[tuple[int, int]]]:
    """Per instance, None if the decision fails at its reference, else its
    witness (x, y): the first satisfied cell of its successor rectangle in
    row-major (x, y) order (for eq, the reference itself).  The instances
    share one series length.  With alpha as num / den (:func:`_ratio`),
    c satisfied points of p hold iff c * den - num * p >= 0, so a cell
    holds iff its end term reaches its start term, and a row iff its
    largest end term right of the row does.  At z >= 2 a lower-degree difference past
    float64 range is a :class:`DataFormatError`: it would read as inf."""
    m = len(instances)
    n = instances[0].series_length
    attr, z = decision.attribute_index, decision.derivative_degree
    try:
        values = np.array([inst.channels[attr] for inst in instances])
    except IndexError:
        fewest = min(inst.channel_count for inst in instances)
        raise ValueError(
            f"decision uses attribute {attr} but an instance has {fewest} channels"
        ) from None
    if z >= n:
        raise ValueError(f"derivative degree {z} invalid for a series of length {n}")

    x = [inst.reference.x for inst in instances]
    y = [inst.reference.y for inst in instances]
    rect = None
    if x.count(x[0]) == m and y.count(y[0]) == m:
        r1, r2, c1, c2 = relation_rectangle(decision.relation, x[0], y[0], n)
    else:  # rows r1, r2, c1, c2: each instance's successor rectangle
        rect = relation_boxes([decision.relation], np.array(x), np.array(y), n)[:, 0, :, None]
        (r1, c1), (r2, c2) = rect[0::2].min(1).ravel().tolist(), rect[1::2].max(1).ravel().tolist()
    # the box: every row has a data-bearing point and a column right of it
    v1 = min(c2, n)
    u0, u1 = max(r1, 0), min(r2, n - z, v1 - 1)
    v0 = max(c1, u0 + 1)
    if u0 > u1 or v0 > v1:
        return [None] * m

    for degree in range(1, z + 1):
        with np.errstate(over="ignore"):
            values = np.diff(values, axis=1)
        if degree < z and not np.isfinite(values).all():
            raise DataFormatError(
                f"attribute {attr}: degree-{degree} differences out of float64 range")
    point_ok = compare_values(values, decision.comparator, decision.threshold, decision.eq_tolerance)
    num, den = _ratio(required_counts(decision.alpha, n))
    # term[i, t] = den * (satisfied points in 1..t) - num * t; cell [u, v]'s
    # end term is term[hi[v]] and its start term term[lo[u] - 1]
    term = np.zeros((m, n - z + 1), dtype=np.int64)
    np.add.accumulate(np.where(point_ok, den - num, -num), axis=1, out=term[:, 1:])
    u, v = np.arange(u0, u1 + 1), np.arange(v0, v1 + 1)
    lo, hi = point_spans(u, v, n, z)
    start, end = term.take(lo - 1, axis=1), term.take(hi, axis=1)
    if rect is not None:  # cells off an instance's own rectangle never hold
        start[(u < rect[0]) | (u > rect[1])] = np.iinfo(np.int64).max
        end[(v < rect[2]) | (v > rect[3])] = np.iinfo(np.int64).min
    # row u reads the box's columns from first[u - u0] on (v > u): a suffix maximum
    first = np.maximum(u - (v0 - 1), 0)
    best = np.maximum.accumulate(end[:, ::-1], axis=1)[:, ::-1]
    rows_ok = best.take(first, axis=1) >= start
    row = rows_ok.argmax(axis=1)
    at = np.arange(m)
    col_ok = (end >= start[at, row][:, None]) & (v - v0 >= first[row][:, None])
    col = col_ok.argmax(axis=1)
    return [(u0 + r, v0 + c) if held else None
            for r, c, held in zip(row.tolist(), col.tolist(), rows_ok[at, row].tolist())]


def check_decision(instance: Instance, decision: TemporalDecision) -> WitnessResult:
    """Evaluate a decision at the instance's current reference interval by
    the rule that grows and applies a tree: the router of
    :func:`split_dataset`, called on one instance.  The witness is the
    first satisfied successor in ascending (x, y) order; for eq there is
    none, as the reference never moves.  At z >= 2 it raises
    :class:`DataFormatError` when a lower-degree difference of the channel
    leaves float64 range."""
    (witness,) = _route([instance], decision)
    if witness is None or decision.relation is Rel.EQ:
        return WitnessResult(witness is not None, None)
    return WitnessResult(True, Interval(*witness))


def split_dataset(
    instances: Iterable[Instance], decision: TemporalDecision
) -> tuple[list[Instance], list[Instance]]:
    """Partition instances into (satisfying, non-satisfying), in input order,
    routed together by the rule of :func:`check_decision`.  Satisfying
    instances come back as fresh copies standing on their witness (for eq,
    the reference itself), non-satisfying ones as fresh copies with the
    reference untouched; every copy shares the original's channel matrix.
    """
    instances = list(instances)
    if not instances:
        return [], []
    t1: list[Instance] = []
    t2: list[Instance] = []
    for inst, witness in zip(instances, _route(instances, decision)):
        if witness is not None:
            t1.append(Instance(inst.channels, inst.class_index, Interval(*witness)))
        else:
            t2.append(Instance(inst.channels, inst.class_index, inst.reference))
    return t1, t2
