"""Allen-relation algebra, discrete derivatives, relaxed pointwise
satisfaction, and decision checking with witness selection.

Intervals live on the extended point domain {0, ..., N}.  Channel values sit
at points 1..N; the z-th forward difference sits at points 1..N-z.  An
interval is evaluated on its data-bearing points clipped to that range, and
fails a decision outright when the clipped point set is empty.

The successor set of every relation is one rectangle of the (start, end)
grid (:func:`relation_rectangle`); decision checking and routing here and
split search in :mod:`tstrees.induction` all read it.  :func:`successors`,
:func:`allen_related` and :func:`holds_on` are the direct definitions the
tests compare it against.  :func:`check_decision` checks one instance, as a
tree is applied; :func:`split_dataset` routes all of a node's instances in
one pass, as a tree is grown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    Comparator,
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
    ``relation``, sorted ascending by (x, y).

    Built by direct construction per relation; equivalence with filtering the
    full enumeration through :func:`allen_related` is a tested invariant.
    """
    x, y = i.x, i.y
    if relation is Rel.EQ:
        return [i]
    if relation is Rel.A:
        return [Interval(y, v) for v in range(y + 1, n + 1)]
    if relation is Rel.L:
        return [Interval(u, v) for u in range(y + 1, n) for v in range(u + 1, n + 1)]
    if relation is Rel.B:
        return [Interval(x, v) for v in range(x + 1, y)]
    if relation is Rel.E:
        return [Interval(u, y) for u in range(x + 1, y)]
    if relation is Rel.D:
        return [Interval(u, v) for u in range(x + 1, y - 1) for v in range(u + 1, y)]
    if relation is Rel.O:
        return [Interval(u, v) for u in range(x + 1, y) for v in range(y + 1, n + 1)]
    if relation is Rel.AI:
        return [Interval(u, x) for u in range(0, x)]
    if relation is Rel.LI:
        return [Interval(u, v) for u in range(0, x - 1) for v in range(u + 1, x)]
    if relation is Rel.BI:
        return [Interval(x, v) for v in range(y + 1, n + 1)]
    if relation is Rel.EI:
        return [Interval(u, y) for u in range(0, x)]
    if relation is Rel.DI:
        return [Interval(u, v) for u in range(0, x) for v in range(y + 1, n + 1)]
    if relation is Rel.OI:
        return [Interval(u, v) for u in range(0, x) for v in range(x + 1, y)]
    raise ValueError(f"unknown relation {relation!r}")


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


def derivative(channel: Sequence[float] | np.ndarray, z: int) -> np.ndarray:
    """z-fold forward difference of a channel; z = 0 is the channel itself."""
    values = np.asarray(channel, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("channel must be one-dimensional")
    if z < 0 or z >= values.shape[0]:
        raise ValueError(
            f"derivative degree {z} invalid for a series of length {values.shape[0]}"
        )
    for _ in range(z):
        values = np.diff(values)
    return values


def required_count(alpha: float, n_points: int) -> int:
    """ceil(alpha * n_points), computed on alpha's exact binary value so that
    results do not depend on intermediate rounding."""
    frac = Fraction(alpha)
    return -((-frac.numerator * n_points) // frac.denominator)


@lru_cache(maxsize=256)
def required_counts(alpha: float, n: int) -> np.ndarray:
    """Table of :func:`required_count` for 0..n points.  Entry 0 is 1, so an
    interval whose clipped point set is empty never holds."""
    table = np.array([max(required_count(alpha, p), 1) for p in range(n + 1)], dtype=np.int64)
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
    derivative degree ``z`` over raw length ``n``, elementwise.  An empty
    range comes back as lo = hi + 1, so prefix-sum counts
    ``cum[hi] - cum[lo - 1]`` and lengths ``hi - lo + 1`` read 0 and every
    index stays inside a prefix array of n - z + 1 entries."""
    hi = np.minimum(v, n - z)
    lo = np.minimum(np.maximum(u, 1), hi + 1)
    return lo, hi


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
    P satisfy ``A^z cmp threshold``; false when P is empty.
    """
    values = np.asarray(channel_values, dtype=np.float64)
    n = values.shape[0]
    deriv = derivative(values, z)
    lo, hi = max(interval.x, 1), min(interval.y, n - z)
    if hi < lo:
        return False
    window = deriv[lo - 1 : hi]
    sat = int(compare_values(window, comparator, threshold, eq_tolerance).sum())
    return sat >= required_count(alpha, hi - lo + 1)


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


def check_decision(instance: Instance, decision: TemporalDecision) -> WitnessResult:
    """Evaluate a decision at the instance's current reference interval.

    Every interval of the relation's successor rectangle is tested at once
    from one prefix sum of satisfied points; the first satisfied one in
    ascending (x, y) order is the witness.  For eq the rectangle is the
    reference itself and the reference never moves.

    This is the one-instance path that applies a tree, and
    :func:`split_dataset` routes a batch by the same rule.  It is kept apart
    from that batched route because, called on one instance, the route
    costs more than this check on small successor rectangles: on a 150-point
    series (2-vCPU VM), 47 against 19 us under A, though 210 against 346 us
    under L, and a long-predict benchmark round went from 0.036 to 0.048 s
    through it.
    """
    n = instance.series_length
    if decision.attribute_index >= instance.channel_count:
        raise ValueError(
            f"decision uses attribute {decision.attribute_index} but the instance "
            f"has {instance.channel_count} channels"
        )
    z = decision.derivative_degree
    deriv = derivative(instance.channels[decision.attribute_index], z)
    ref = instance.reference
    r1, r2, c1, c2 = relation_rectangle(decision.relation, ref.x, ref.y, n)
    u = np.arange(max(r1, 0), min(r2, n) + 1)[:, None]
    v = np.arange(max(c1, 0), min(c2, n) + 1)
    if not (u.size and v.size):
        return WitnessResult(False, None)

    point_ok = compare_values(
        deriv, decision.comparator, decision.threshold, decision.eq_tolerance
    )
    # prefix counts over points 1..n-z; cum[t] = satisfied points in 1..t
    cum = np.zeros(deriv.shape[0] + 1, dtype=np.int64)
    np.add.accumulate(point_ok, out=cum[1:])
    lo, hi = point_spans(u, v, n, z)
    need = required_counts(decision.alpha, n)[hi - lo + 1]
    ok = (u < v) & (cum[hi] - cum[lo - 1] >= need)
    first = int(ok.argmax())
    if not ok.flat[first]:
        return WitnessResult(False, None)
    if decision.relation is Rel.EQ:
        return WitnessResult(True, None)
    row, col = divmod(first, v.shape[0])
    return WitnessResult(True, Interval(int(u[row, 0]), int(v[col])))


def split_dataset(
    instances: Iterable[Instance], decision: TemporalDecision
) -> tuple[list[Instance], list[Instance]]:
    """Partition instances into (satisfying, non-satisfying), in input order.

    The instances, which share one series length, are routed together in
    one pass.  One prefix count of satisfied points per instance is read
    against ``required_counts`` over the bounding box of the instances'
    successor rectangles; when the references differ, each instance's own
    rectangle then masks the box.  The box is read in row-major (x, y)
    order, which is ascending interval order, so the witness is the first
    satisfied interval, as in :func:`check_decision`; for eq the rectangle
    is the reference cell, so the witness is the reference itself.
    Satisfying instances come back as fresh copies standing on their
    witness, non-satisfying ones as fresh copies with the reference
    untouched; every copy shares the original's channel matrix.
    """
    instances = list(instances)
    m = len(instances)
    if not m:
        return [], []
    n = instances[0].series_length
    attr, z = decision.attribute_index, decision.derivative_degree
    try:
        values = np.array([inst.channels[attr] for inst in instances])
    except IndexError:
        raise ValueError(
            f"decision uses attribute {attr} but an instance has fewer channels"
        ) from None
    if z >= n:
        raise ValueError(f"derivative degree {z} invalid for a series of length {n}")
    point_ok = compare_values(
        np.diff(values, n=z, axis=1), decision.comparator, decision.threshold,
        decision.eq_tolerance,
    )
    # cum[i, t]: instance i's satisfied points in 1..t, in the smallest
    # integer type that holds n
    count_type = np.min_scalar_type(-n - 1)
    cum = np.zeros((m, n - z + 1), dtype=count_type)
    np.add.accumulate(point_ok, axis=1, dtype=count_type, out=cum[:, 1:])

    x = np.array([inst.reference.x for inst in instances])
    y = np.array([inst.reference.y for inst in instances])
    # rows r1, r2, c1, c2: each instance's successor rectangle, clipped
    rect = np.empty((4, m), dtype=np.int64)
    for row, bound in zip(rect, relation_rectangle(decision.relation, x, y, n)):
        row[:] = bound
    np.maximum(rect[0::2], 0, out=rect[0::2])
    np.minimum(rect[1::2], n, out=rect[1::2])
    r1, r2, c1, c2 = rect
    live = (r1 <= r2) & (c1 <= c2)
    satisfied, witness = [False] * m, [None] * m
    if live.any():
        (u0, v0), (u1, v1) = rect[0::2, live].min(axis=1), rect[1::2, live].max(axis=1)
        u, v = np.arange(u0, u1 + 1), np.arange(v0, v1 + 1)
        lo, hi = point_spans(u[:, None], v, n, z)  # lo is (u, v), hi (v,)
        need = required_counts(decision.alpha, n)[hi - lo + 1].astype(count_type)
        ok = (cum[:, None, hi] - cum[:, lo - 1] >= need) & (u[:, None] < v)
        if (x != x[0]).any() or (y != y[0]).any():
            in_u = (r1[:, None] <= u) & (u <= r2[:, None])
            in_v = (c1[:, None] <= v) & (v <= c2[:, None])
            ok &= in_u[:, :, None] & in_v[:, None, :]
        ok = ok.reshape(m, -1)
        first = ok.argmax(axis=1)
        satisfied = ok[np.arange(m), first].tolist()
        witness = zip(u[first // v.size].tolist(), v[first % v.size].tolist())

    t1: list[Instance] = []
    t2: list[Instance] = []
    for inst, ok, w in zip(instances, satisfied, witness):
        if ok:
            t1.append(Instance(inst.channels, inst.class_index, Interval(*w)))
        else:
            t2.append(Instance(inst.channels, inst.class_index, inst.reference))
    return t1, t2
