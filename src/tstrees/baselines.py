"""Comparison methods: statistical feature flattening for static trees and
the three distance-based nearest-neighbour classifiers (independent
Euclidean, independent DTW, dependent DTW)."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import DataFormatError, Instance, TemporalDataset

#: Distance names accepted by :func:`nn_classify` and the CLI.
DISTANCE_METRICS = ("ed-i", "dtw-i", "dtw-d")


@dataclass(frozen=True)
class FeatureMask:
    """Which per-channel statistics to extract, in (mean, standard deviation,
    skewness, kurtosis) order."""

    mean: bool
    std: bool
    skewness: bool
    kurtosis: bool

    def __post_init__(self) -> None:
        if not (self.mean or self.std or self.skewness or self.kurtosis):
            raise ValueError("a feature mask needs at least one bit set")

    @classmethod
    def from_bits(cls, bits: str) -> "FeatureMask":
        cleaned = bits.replace(",", "")
        if len(cleaned) != 4 or any(b not in "01" for b in cleaned):
            raise ValueError(f"feature mask must be four 0/1 bits, got {bits!r}")
        return cls(*(b == "1" for b in cleaned))

    def bits(self) -> str:
        return "".join("1" if b else "0" for b in (self.mean, self.std, self.skewness, self.kurtosis))

    def names(self) -> list[str]:
        return [
            name
            for name, used in zip(("mean", "std", "skew", "kurt"), (self.mean, self.std, self.skewness, self.kurtosis))
            if used
        ]


def _stack(instances: Sequence[Instance]) -> np.ndarray:
    """The (r, c, n) array of r instances' channels."""
    return np.stack([inst.channels for inst in instances])


def _finite(name: str, stat: np.ndarray) -> np.ndarray:
    if not np.isfinite(stat).all():
        raise DataFormatError(f"the {name} feature of some channel is out of float64 range")
    return stat


def _features(stacked: np.ndarray, mask: FeatureMask) -> np.ndarray:
    """Population statistics of r instances stacked as (r, c, n), each
    reduced along its n points: the (r, c · k) table of the mask's k
    statistics, channel by channel in mask order.  Skewness and kurtosis
    are 0 by convention on constant channels.  Values too large (or spread
    too finely) for a statistic in float64 raise a :class:`DataFormatError`
    that names the first such statistic in (mean, std, skew, kurt) order."""
    n = stacked.shape[2]
    with np.errstate(all="ignore"):  # out-of-range values are caught by _finite
        mean = _finite("mean", stacked.sum(axis=2) / n)
        centered = stacked - mean[..., None]
        std = _finite("std", np.sqrt((centered**2).sum(axis=2) / n))
        columns = [stat for stat, used in ((mean, mask.mean), (std, mask.std)) if used]
        for power, name, used in ((3, "skew", mask.skewness), (4, "kurt", mask.kurtosis)):
            if used:
                # std ** power on Python floats: numpy's power rounds some of
                # them 1 ulp away from the per-channel formula
                try:
                    scale = np.array([s**power for s in std.ravel().tolist()]).reshape(std.shape)
                except OverflowError:
                    # so that each channel with std > 0 fails _finite below
                    scale = np.zeros_like(std)
                moment = (centered**power).sum(axis=2) / n
                stat = np.divide(moment, scale, out=np.zeros_like(moment), where=std > 0)
                columns.append(_finite(name, stat))
    return np.stack(columns, axis=2).reshape(len(stacked), -1)


def extract_features(instance: Instance, mask: FeatureMask) -> np.ndarray:
    """Flatten an instance to per-channel population statistics, channel by
    channel in mask order."""
    return _features(instance.channels[None], mask)[0]


def feature_table(dataset: TemporalDataset, mask: FeatureMask) -> tuple[np.ndarray, list[str]]:
    """Feature matrix for a whole dataset plus generated column names."""
    names = [
        f"{attr}_{stat}" for attr in dataset.attribute_names for stat in mask.names()
    ]
    return _features(_stack(dataset.instances), mask), names


#: Cells per rolling buffer of one DTW pass.  A pass scores a block of
#: columns, as many as this cap allows at n + 1 rows, so long series run
#: fewer columns per pass.  For `dtw-d` a column is a (query, training
#: series) pair; for the pruned `dtw-i` search it is one channel of a kept
#: pair, and its two input columns are gathered per pass, which adds two
#: (n, columns) arrays to the pass.  At 30 points this is 396 columns
#: (96 KiB per buffer).  On the racket-compare benchmark, before the `dtw-i`
#: pruning, half the cap ran about 20 % slower, and twice the cap about 5 %
#: faster for about 0.45 MiB more peak RSS.  A `dtw-d` pass over c > 1
#: channels also holds a channel buffer of c times a buffer's cells, where
#: each diagonal's c squared differences are summed by one reduce instead of
#: c - 1 adds.  At 30 points and 6 channels it is 557 KiB; on a 2-vCPU VM it
#: cut `nn_predict` on 96 x 24 racket-sized series from about 21 to 18 ms,
#: for 0.42 MiB more tracemalloc peak and about 0.4 MiB (1.2 %) more peak
#: RSS on the racket-compare benchmark.
_PASS_CELLS = 12_288


def _euclidean(train: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Independent Euclidean distances of g (c, n) queries to r (c, n)
    series, both stacked instance-major: per channel the pointwise Euclidean
    distance, then each (query, series) pair's c values summed in channel
    order.  Returns the (g, r) table."""
    out = np.empty((queries.shape[0], train.shape[0]))
    for row, query in zip(out, queries):
        diff = train - query
        np.multiply(diff, diff, out=diff)
        row[:] = np.sqrt(diff.sum(axis=2)).sum(axis=1)
    return out


def _dtw_pass(train: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """DTW of every column of one pass: ``train`` is (n, c, 1, r) and
    ``queries`` (m, c, b, 1), both time-major, the queries in reversed time
    (row m - j holds step j), and column (q, s) pairs query q with series s.
    The local cost of (i, j) is the squared difference between step i of a
    series and step j of a query, summed over the channels in channel
    order.

    The accumulated-cost table D is filled one anti-diagonal i + j = k at a
    time: a cell's predecessors (i-1, j), (i, j-1) and (i-1, j-1) lie on
    diagonals k-1 and k-2, so three rolling (n + 1, b, r) buffers indexed by
    i suffice, and diagonal k is their contiguous slice [lo : hi + 1].  The
    query steps k - i of a diagonal fall as i rises, so reversed in time
    they are one forward slice too.  Index 0 and the cells a diagonal does
    not cover stay inf, which is D's boundary.  Returns the (b, r) values
    D[n, m].
    """
    n, c = train.shape[:2]
    m, _, b = queries.shape[:3]
    shape = (n + 1, b, train.shape[3])
    back2 = np.full(shape, np.inf)  # diagonal k - 2
    back1 = np.full(shape, np.inf)  # diagonal k - 1
    cur = np.full(shape, np.inf)
    cost = np.empty((n,) + shape[1:])
    # the channel buffer: one diagonal's c squared differences side by side
    channels = np.empty((n, c) + shape[1:]) if c > 1 else None
    back2[0] = 0.0  # diagonal 0 is D[0, 0] = 0, the start of every warp
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        series = train[lo - 1 : hi]
        # step j = k - i at row m - j = m - k + i of the reversed queries
        steps = queries[m - k + lo : m - k + hi + 1]
        diag = cost[: hi - lo + 1]
        if c == 1:
            np.subtract(series[:, 0], steps[:, 0], out=diag)
            np.multiply(diag, diag, out=diag)
        else:
            # a reduce over the channel axis, which is not the innermost,
            # adds the channels one by one in channel order
            part = channels[: hi - lo + 1]
            np.subtract(series, steps, out=part)
            np.multiply(part, part, out=part)
            np.add.reduce(part, axis=1, out=diag)
        best = cur[lo : hi + 1]
        np.minimum(back1[lo - 1 : hi], back1[lo : hi + 1], out=best)
        np.minimum(best, back2[lo - 1 : hi], out=best)
        np.add(diag, best, out=best)
        if k == 2:
            back2[0] = np.inf  # diagonal 0's buffer takes diagonal 3, where D[0, 3] = inf
        back2, back1, cur = back1, cur, back2
    return back1[n]


def _dtw(train: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Unconstrained DTW from each of g queries, stacked time-major in
    reversed time as (m, c, g), to each of r series stacked as (n, c, r),
    with the local cost summed over the c channels.  The (g, r) pairs are
    scored in passes of at most :data:`_PASS_CELLS` cells per buffer.
    Returns the (g, r) table."""
    n, _, r = train.shape
    g = queries.shape[2]
    out = np.empty((g, r))
    columns = max(1, _PASS_CELLS // (n + 1))
    width = min(r, columns)  # training series per pass
    depth = max(1, columns // width)  # queries per pass
    for q0 in range(0, g, depth):
        for s0 in range(0, r, width):
            out[q0 : q0 + depth, s0 : s0 + width] = _dtw_pass(
                train[:, :, None, s0 : s0 + width], queries[:, :, q0 : q0 + depth, None]
            )
    return out


def _check_batch(train: Sequence[Instance], queries: Sequence[Instance], metric: str) -> None:
    """Every instance must have the shape of the first training instance,
    and the metric must be one of :data:`DISTANCE_METRICS`."""
    shape = train[0].channels.shape
    for inst in (*train, *queries):
        if inst.channels.shape != shape:
            raise ValueError(f"instances have mismatched shapes {shape} vs {inst.channels.shape}")
    if metric not in DISTANCE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {DISTANCE_METRICS}")


def _distances(train: Sequence[Instance], queries: Sequence[Instance], metric: str) -> np.ndarray:
    """The (g, r) table of distances from each of g queries to each of r
    training instances under one of :data:`DISTANCE_METRICS`.  Every
    instance must have the shape of the first training instance."""
    _check_batch(train, queries, metric)
    if not queries:
        return np.empty((0, len(train)))
    if metric == "ed-i":
        return _euclidean(_stack(train), _stack(queries))
    # time-major (queries in reversed time): one diagonal of a pass is a
    # contiguous run of the buffers and of both stacks
    series = _stack(train).transpose(2, 1, 0).copy()
    steps = _stack(queries).transpose(2, 1, 0)[::-1].copy()
    if metric == "dtw-d":
        return _dtw(series, steps)
    # dtw-i: one warp per channel, added in channel order
    out = _dtw(series[:, :1], steps[:, :1])
    for ch in range(1, series.shape[1]):
        out += _dtw(series[:, ch : ch + 1], steps[:, ch : ch + 1])
    return out


#: Training series per query whose exact DTW-I is taken first, lowest
#: bound first; the smallest of them is the query's upper bound.
_SEEDS = 4


def _envelope_bounds(series: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Lower bounds on the DTW-I from each of g queries, stacked time-major
    as (m, c, g), to each of r series stacked as (n, c, r).  A warp matches
    every point of either series to at least one point of the other, so per
    channel the DTW is at least the squared distances from the query's
    points to the series' [min, max] band, and at least those from the
    series' points to the query's band (LB_Keogh with the whole series as
    its window, taken both ways).  Per channel the larger of the two sums is
    taken, and each pair's c values are added in channel order.  One query
    at a time, so the largest temporary is (n, c, r).  Returns the (g, r)
    table."""
    low, high = series.min(axis=0), series.max(axis=0)
    out = np.empty((steps.shape[2], series.shape[2]))
    outside = np.empty(series.shape)  # m == n: one buffer serves both ways
    for k, row in enumerate(out):
        query = steps[:, :, k : k + 1]
        # clip as maximum then minimum, which keeps a NaN
        np.maximum(query, low, out=outside)
        np.minimum(outside, high, out=outside)
        np.subtract(query, outside, out=outside)
        np.multiply(outside, outside, out=outside)
        bound = outside.sum(axis=0)
        np.maximum(series, query.min(axis=0), out=outside)
        np.minimum(outside, query.max(axis=0), out=outside)
        np.subtract(series, outside, out=outside)
        np.multiply(outside, outside, out=outside)
        np.maximum(bound, outside.sum(axis=0), out=bound)
        row[:] = bound[0]
        for ch in range(1, len(bound)):
            row += bound[ch]
    return out


def _pair_dtw_i(series: np.ndarray, steps: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """DTW-I of K (query, series) pairs: ``pairs`` is (2, K), query indices
    into ``steps`` (m, c, g), in reversed time, over series indices into
    ``series`` (n, c, r), both time-major.  Each (pair, channel) is one
    column of a :func:`_dtw_pass`, gathered pass by pass into C-contiguous
    (time, column) stacks, so a pass holds up to :data:`_PASS_CELLS` /
    (n + 1) columns.  Each pair's channel values are added in channel
    order, as :func:`_distances` adds them, so every value is ``==`` to its
    entry there."""
    n, c, r = series.shape
    g = steps.shape[2]
    series, steps = series.reshape(n, -1), steps.reshape(steps.shape[0], -1)
    width = max(1, _PASS_CELLS // (n + 1))
    per_channel = np.empty(pairs.shape[1] * c)
    for start in range(0, per_channel.size, width):
        pair, ch = np.divmod(np.arange(start, min(start + width, per_channel.size)), c)
        per_channel[start : start + width] = _dtw_pass(
            series.take(ch * r + pairs[1, pair], axis=1)[:, None, None],
            steps.take(ch * g + pairs[0, pair], axis=1)[:, None, None],
        )[0]
    per_channel = per_channel.reshape(-1, c)
    out = per_channel[:, 0].copy()
    for ch in range(1, c):
        out += per_channel[:, ch]
    return out


def _nearest_dtw_i(train: Sequence[Instance], queries: Sequence[Instance]) -> np.ndarray:
    """The (g, r) DTW-I table of :func:`_distances`, except that a pair
    whose lower bound shows it cannot be its query's nearest, nor tie with
    it, holds inf.  Each query's :data:`_SEEDS` lowest-bound pairs are
    scored first; every other pair is scored unless its bound exceeds the
    smallest seed distance by the relative slack 1e-9, which covers the
    rounding of two sums of at most n + m nonnegative terms each.  A NaN
    bound or seed distance prunes nothing, so the argmin of each row is that
    of the full table."""
    if not queries:
        return np.empty((0, len(train)))
    series = _stack(train).transpose(2, 1, 0).copy()
    steps = _stack(queries).transpose(2, 1, 0).copy()
    bounds = _envelope_bounds(series, steps)  # summed in time order
    steps = steps[::-1].copy()
    seeds = np.argsort(bounds, axis=1, kind="stable")[:, :_SEEDS]
    seeded = np.zeros(bounds.shape, dtype=bool)
    np.put_along_axis(seeded, seeds, True, axis=1)
    out = np.full(bounds.shape, np.inf)
    out[seeded] = _pair_dtw_i(series, steps, np.array(np.nonzero(seeded)))
    rest = ~(bounds > out.min(axis=1, keepdims=True) * (1 + 1e-9))
    rest &= ~seeded
    out[rest] = _pair_dtw_i(series, steps, np.array(np.nonzero(rest)))
    return out


@contextmanager
def _in_float64_range(metric: str) -> Iterator[None]:
    """Run distance arithmetic under ``np.errstate(over="raise")`` and turn
    an overflow into a :class:`DataFormatError` that names the metric."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise DataFormatError(f"the {metric} distances are out of float64 range") from None


def euclidean_i(a: Instance, b: Instance) -> float:
    """Independent Euclidean distance: the per-channel pointwise Euclidean
    distances, summed over channels."""
    with _in_float64_range("ed-i"):
        return float(_distances([a], [b], "ed-i")[0, 0])


def dtw(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Unconstrained dynamic time warping with squared-difference local cost.

    Full window, no normalization; the returned value is the accumulated cost
    of the optimal warping path.
    """
    sa = np.asarray(a, dtype=np.float64)
    sb = np.asarray(b, dtype=np.float64)
    if sa.size == 0 or sb.size == 0:
        raise ValueError("dtw requires non-empty sequences")
    with _in_float64_range("dtw"):
        return float(_dtw(sa[:, None, None], sb[::-1, None, None].copy())[0, 0])


def dtw_i(a: Instance, b: Instance) -> float:
    """Independent DTW: one warp per channel, distances summed."""
    with _in_float64_range("dtw-i"):
        return float(_distances([a], [b], "dtw-i")[0, 0])


def dtw_d(a: Instance, b: Instance) -> float:
    """Dependent DTW: a single warp where the local cost at (i, j) is the
    squared Euclidean distance between the column vectors at times i and j."""
    with _in_float64_range("dtw-d"):
        return float(_distances([a], [b], "dtw-d")[0, 0])


def nn_predict(train: TemporalDataset, queries: Sequence[Instance], metric: str) -> list[int]:
    """1-nearest-neighbour class of each query; ties go to the lowest
    training index.  All queries are scored in one batch, after every query
    and training instance has been checked to share one shape.  ``dtw-i``
    skips the pairs whose lower bound rules them out (see
    :func:`_nearest_dtw_i`); the answer is that of the full table.  Values
    whose distances or bounds overflow float64 raise a
    :class:`DataFormatError` that names the metric."""
    if not train.instances:
        raise ValueError("nearest neighbour needs a non-empty training set")
    # a finite row minimum proves nothing: an ed-i pair with an inf channel may be nearest
    with _in_float64_range(metric):
        if metric == "dtw-i":
            _check_batch(train.instances, queries, metric)
            dist = _nearest_dtw_i(train.instances, queries)
        else:
            dist = _distances(train.instances, queries, metric)
    # argmin returns the first minimum: the lowest index wins a tie
    return [train.instances[idx].class_index for idx in np.argmin(dist, axis=1).tolist()]


def nn_classify(train: TemporalDataset, query: Instance, metric: str) -> int:
    """1-nearest-neighbour class of one query; see :func:`nn_predict`."""
    return nn_predict(train, [query], metric)[0]
