"""Allen-relation algebra, discrete derivatives, relaxed pointwise
satisfaction, and decision checking with witness selection.

Intervals live on the extended point domain {0, ..., N}.  Channel values sit
at points 1..N; the z-th forward difference sits at points 1..N-z.  An
interval is evaluated on its data-bearing points clipped to that range, and
fails a decision outright when the clipped point set is empty.

The successor set of every relation is one rectangle of the (start, end)
grid (:func:`relation_rectangle`); :func:`successors` lists its cells,
and decision checking and routing here and split search in
:mod:`tstrees.induction` all read it.  :func:`allen_related` is the direct
definition the tests compare it against.  One router reads it to decide a
decision and pick its witness: :func:`split_dataset` is its batch call, as
a tree is grown, :func:`check_decision` its one-instance call, as a tree
is applied, and :func:`holds_on` its eq call on one interval, so all three
follow one rule.
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
    ``interval``, which must end within the series.
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


def _route(
    instances: list[Instance], decision: TemporalDecision
) -> list[Optional[tuple[int, int]]]:
    """Per instance, None if the decision fails at its reference, else its
    witness (x, y): the first satisfied cell of its successor rectangle in
    row-major (x, y) order, which is ascending interval order (for eq, the
    reference itself).  The instances, which share one series length, are
    read together over the bounding box of their rectangles, which each
    instance's own rectangle masks only when the references differ."""
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
        u0, u1, v0, v1 = max(r1, 0), min(r2, n), max(c1, 0), min(c2, n)
    else:
        # rows r1, r2, c1, c2: each instance's successor rectangle, clipped
        rect = np.array(np.broadcast_arrays(
            *relation_rectangle(decision.relation, np.array(x), np.array(y), n)))
        np.maximum(rect[0::2], 0, out=rect[0::2])
        np.minimum(rect[1::2], n, out=rect[1::2])
        live = (rect[0] <= rect[1]) & (rect[2] <= rect[3])
        if not live.any():
            return [None] * m
        (u0, v0), (u1, v1) = rect[0::2, live].min(1).tolist(), rect[1::2, live].max(1).tolist()
    if u0 > u1 or v0 > v1:
        return [None] * m

    if z:
        with np.errstate(over="ignore"):  # exact at z = 1: an inf lies past every finite threshold
            values = np.diff(values, n=z, axis=1)
    point_ok = compare_values(values, decision.comparator, decision.threshold, decision.eq_tolerance)
    starts, ends, need = _span_counts(decision.alpha, n, z)
    # cum[i, t]: instance i's satisfied points in 1..t
    cum = np.zeros((m, n - z + 1), dtype=need.dtype)
    np.add.accumulate(point_ok, axis=1, dtype=need.dtype, out=cum[:, 1:])
    # cell [u, v] holds iff its points satisfied up to the span's end, less
    # those before its start, meet what the cell needs
    to_end = cum.take(ends[v0 : v1 + 1], axis=1)[:, None]
    before = cum.take(starts[u0 : u1 + 1], axis=1)[..., None]
    ok = to_end - before >= need[u0 : u1 + 1, v0 : v1 + 1]
    if rect is not None:
        u, v = np.arange(u0, u1 + 1), np.arange(v0, v1 + 1)
        in_u = (rect[0, :, None] <= u) & (u <= rect[1, :, None])
        in_v = (rect[2, :, None] <= v) & (v <= rect[3, :, None])
        ok &= in_u[:, :, None] & in_v[:, None, :]
    ok = ok.reshape(m, -1)
    width = v1 - v0 + 1
    return [(u0 + f // width, v0 + f % width) if ok[i, f] else None
            for i, f in enumerate(ok.argmax(axis=1).tolist())]


@lru_cache(maxsize=8)
def _span_counts(alpha: float, n: int, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For degree ``z`` over raw length ``n``: the prefix-count index before
    each start u (``lo - 1``) and at each end v (``hi``), and the (n + 1,
    n + 1) grid of the satisfied points cell [u, v] needs: ``required_counts``
    of its span's length, or n + 1, never met, where u >= v.  Counts take
    the smallest integer type that holds n + 1; wider ones made checks on
    150-point series up to 1.9x slower.  A grid is 45 KiB at n = 150."""
    lo, hi = point_spans(np.arange(n + 1), np.arange(n + 1), n, z)
    need = required_counts(alpha, n).astype(np.min_scalar_type(-n - 2))
    need = need.take(hi - lo[:, None] + 1, mode="clip")
    need[np.tri(n + 1, dtype=bool)] = n + 1
    tables = (lo - 1, hi, need)
    for table in tables:
        table.flags.writeable = False
    return tables


def check_decision(instance: Instance, decision: TemporalDecision) -> WitnessResult:
    """Evaluate a decision at the instance's current reference interval by
    the rule that grows a tree: the router of :func:`split_dataset`, called
    on one instance.  The witness is the first satisfied successor in
    ascending (x, y) order; for eq there is none, as the reference never
    moves."""
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
