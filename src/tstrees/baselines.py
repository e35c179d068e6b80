"""Comparison methods: statistical feature flattening for static trees and
the three distance-based nearest-neighbour classifiers (independent
Euclidean, independent DTW, dependent DTW)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Instance, TemporalDataset

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


def _channel_stats(values: np.ndarray, mask: FeatureMask) -> list[float]:
    n = values.shape[0]
    mean = float(values.sum() / n)
    centered = values - mean
    m2 = float((centered**2).sum() / n)
    std = math.sqrt(m2)
    out: list[float] = []
    if mask.mean:
        out.append(mean)
    if mask.std:
        out.append(std)
    if mask.skewness:
        # population skewness; 0 by convention on constant channels
        out.append(float((centered**3).sum() / n) / std**3 if std > 0 else 0.0)
    if mask.kurtosis:
        out.append(float((centered**4).sum() / n) / std**4 if std > 0 else 0.0)
    return out


def extract_features(instance: Instance, mask: FeatureMask) -> np.ndarray:
    """Flatten an instance to per-channel population statistics, channel by
    channel in mask order."""
    feats: list[float] = []
    for ch in range(instance.channel_count):
        feats.extend(_channel_stats(instance.channels[ch], mask))
    return np.array(feats, dtype=np.float64)


def feature_table(dataset: TemporalDataset, mask: FeatureMask) -> tuple[np.ndarray, list[str]]:
    """Feature matrix for a whole dataset plus generated column names."""
    rows = [extract_features(inst, mask) for inst in dataset.instances]
    names = [
        f"{attr}_{stat}" for attr in dataset.attribute_names for stat in mask.names()
    ]
    return np.stack(rows), names


def _check_dims(a: Instance, b: Instance) -> None:
    if a.channels.shape != b.channels.shape:
        raise ValueError(
            f"instances have mismatched shapes {a.channels.shape} vs {b.channels.shape}"
        )


#: Cells per rolling buffer of one DTW pass.  A pass scores a block of
#: (query, training series) columns; the block is as wide as this cap allows
#: at n + 1 rows, so long series run fewer columns per pass.  At 30 points
#: this is 396 columns (96 KiB per buffer).  On the racket-compare benchmark
#: half the cap ran about 20 % slower, and twice the cap about 5 % faster for
#: about 0.45 MiB more peak RSS.
_PASS_CELLS = 12_288


def _stack(instances: Sequence[Instance]) -> np.ndarray:
    """The (r, c, n) array of r instances' channels."""
    return np.stack([inst.channels for inst in instances])


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
    ``queries`` (m, c, b, 1), both time-major, and column (q, s) pairs query
    q with series s.  The local cost of (i, j) is the squared difference
    between step i of a series and step j of a query, summed over the
    channels in channel order.

    The accumulated-cost table D is filled one anti-diagonal i + j = k at a
    time: a cell's predecessors (i-1, j), (i, j-1) and (i-1, j-1) lie on
    diagonals k-1 and k-2, so three rolling (n + 1, b, r) buffers indexed by
    i suffice, and diagonal k is their contiguous slice [lo : hi + 1].
    Index 0 and the cells a diagonal does not cover stay inf, which is D's
    boundary.  Returns the (b, r) values D[n, m].
    """
    n, c = train.shape[:2]
    m, _, b = queries.shape[:3]
    shape = (n + 1, b, train.shape[3])
    back2 = np.full(shape, np.inf)  # diagonal k - 2
    back1 = np.full(shape, np.inf)  # diagonal k - 1
    cur = np.full(shape, np.inf)
    cost = np.empty((n,) + shape[1:])
    extra = np.empty_like(cost) if c > 1 else None
    back2[0] = 0.0  # diagonal 0 is D[0, 0] = 0, the start of every warp
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        series = train[lo - 1 : hi]
        # j - 1 = k - i - 1 falls as i rises, so the query slice is reversed
        steps = queries[k - hi - 1 : k - lo][::-1]
        diag = cost[: hi - lo + 1]
        np.subtract(series[:, 0], steps[:, 0], out=diag)
        np.multiply(diag, diag, out=diag)
        for ch in range(1, c):
            part = extra[: hi - lo + 1]
            np.subtract(series[:, ch], steps[:, ch], out=part)
            np.multiply(part, part, out=part)
            np.add(diag, part, out=diag)
        best = cur[lo : hi + 1]
        np.minimum(back1[lo - 1 : hi], back1[lo : hi + 1], out=best)
        np.minimum(best, back2[lo - 1 : hi], out=best)
        np.add(diag, best, out=best)
        if k == 2:
            back2[0] = np.inf  # diagonal 0's buffer takes diagonal 3, where D[0, 3] = inf
        back2, back1, cur = back1, cur, back2
    return back1[n]


def _dtw(train: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Unconstrained DTW from each of g queries, stacked time-major as
    (m, c, g), to each of r series stacked as (n, c, r), with the local cost
    summed over the c channels.  The (g, r) pairs are scored in passes of at
    most :data:`_PASS_CELLS` cells per buffer.  Returns the (g, r) table."""
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


def _distances(train: Sequence[Instance], queries: Sequence[Instance], metric: str) -> np.ndarray:
    """The (g, r) table of distances from each of g queries to each of r
    training instances under one of :data:`DISTANCE_METRICS`.  Every
    instance must have the shape of the first training instance."""
    for inst in (*train, *queries):
        _check_dims(train[0], inst)
    if metric not in DISTANCE_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {DISTANCE_METRICS}")
    if not queries:
        return np.empty((0, len(train)))
    if metric == "ed-i":
        return _euclidean(_stack(train), _stack(queries))
    # time-major: one diagonal of a pass is a contiguous run of the buffers
    series = _stack(train).transpose(2, 1, 0).copy()
    steps = _stack(queries).transpose(2, 1, 0).copy()
    if metric == "dtw-d":
        return _dtw(series, steps)
    # dtw-i: one warp per channel, added in channel order
    out = _dtw(series[:, :1], steps[:, :1])
    for ch in range(1, series.shape[1]):
        out += _dtw(series[:, ch : ch + 1], steps[:, ch : ch + 1])
    return out


def euclidean_i(a: Instance, b: Instance) -> float:
    """Independent Euclidean distance: the per-channel pointwise Euclidean
    distances, summed over channels."""
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
    return float(_dtw(sa[:, None, None], sb[:, None, None])[0, 0])


def dtw_i(a: Instance, b: Instance) -> float:
    """Independent DTW: one warp per channel, distances summed."""
    return float(_distances([a], [b], "dtw-i")[0, 0])


def dtw_d(a: Instance, b: Instance) -> float:
    """Dependent DTW: a single warp where the local cost at (i, j) is the
    squared Euclidean distance between the column vectors at times i and j."""
    return float(_distances([a], [b], "dtw-d")[0, 0])


def nn_predict(train: TemporalDataset, queries: Sequence[Instance], metric: str) -> list[int]:
    """1-nearest-neighbour class of each query; ties go to the lowest
    training index.  All queries are scored in one batch, after every query
    and training instance has been checked to share one shape."""
    if not train.instances:
        raise ValueError("nearest neighbour needs a non-empty training set")
    dist = _distances(train.instances, queries, metric)
    # argmin returns the first minimum: the lowest index wins a tie
    return [train.instances[idx].class_index for idx in np.argmin(dist, axis=1).tolist()]


def nn_classify(train: TemporalDataset, query: Instance, metric: str) -> int:
    """1-nearest-neighbour class of one query; see :func:`nn_predict`."""
    return nn_predict(train, [query], metric)[0]
