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


def _channel_rows(instances: Sequence[Instance]) -> list[np.ndarray]:
    """One (r, n) array per channel, row k holding instance k's series."""
    return [
        np.stack([inst.channels[ch] for inst in instances])
        for ch in range(instances[0].channel_count)
    ]


def _euclidean_batch(rows: Sequence[np.ndarray], query: np.ndarray) -> np.ndarray:
    """Independent Euclidean distance from each of r series to one query:
    per channel the pointwise Euclidean distance, then the (r, c) table of
    those summed along each row."""
    per_channel = np.empty((rows[0].shape[0], len(rows)))
    for ch, series in enumerate(rows):
        diff = series - query[ch]
        per_channel[:, ch] = np.sqrt((diff**2).sum(axis=1))
    return per_channel.sum(axis=1)


def _diagonal_cost(rows: Sequence[np.ndarray], query: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """Local costs of the cells (i, k - i), i = lo..hi (1-based), of every
    row: squared differences summed over the channels in channel order."""
    cost = None
    for series, q in zip(rows, query):
        # j - 1 = k - i - 1 falls as i rises, so the query slice is reversed
        diff = series[:, lo - 1 : hi] - q[k - hi - 1 : k - lo][::-1]
        np.multiply(diff, diff, out=diff)
        if cost is None:
            cost = diff
        else:
            cost += diff
    return cost


def _dtw_batch(rows: Sequence[np.ndarray], query: np.ndarray) -> np.ndarray:
    """Unconstrained DTW from each of r series to one query, in one pass.

    ``rows`` holds one (r, n) array per channel and ``query`` is (c, m) with
    its channels in the same order; the local cost of (i, j) is the squared
    Euclidean distance between column i of a row and column j of the query.
    The accumulated-cost table D is filled one anti-diagonal i + j = k at a
    time: a cell's predecessors (i-1, j), (i, j-1) and (i-1, j-1) lie on
    diagonals k-1 and k-2, so three rolling (r, n + 1) buffers indexed by i
    suffice.  Index 0 and the cells a diagonal does not cover stay inf, which
    is D's boundary.  Returns the r values D[n, m].
    """
    r, n = rows[0].shape
    m = query.shape[1]
    back2 = np.full((r, n + 1), np.inf)  # diagonal k - 2
    back1 = np.full((r, n + 1), np.inf)  # diagonal k - 1
    cur = np.full((r, n + 1), np.inf)
    # diagonal 2 is D[1, 1] = cost(1, 1) + D[0, 0], and D[0, 0] = 0
    back1[:, 1:2] = _diagonal_cost(rows, query, 2, 1, 1)
    for k in range(3, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        best = np.minimum(back1[:, lo - 1 : hi], back1[:, lo : hi + 1])
        np.minimum(best, back2[:, lo - 1 : hi], out=best)
        np.add(_diagonal_cost(rows, query, k, lo, hi), best, out=cur[:, lo : hi + 1])
        back2, back1, cur = back1, cur, back2
    return back1[:, n]


def _distances(rows: Sequence[np.ndarray], query: np.ndarray, metric: str) -> np.ndarray:
    """Distance of each of r series (``rows``, one (r, n) array per channel)
    to the (c, m) query under one of :data:`DISTANCE_METRICS`."""
    if metric == "ed-i":
        return _euclidean_batch(rows, query)
    if metric == "dtw-i":
        # one warp per channel, added in channel order
        return sum(_dtw_batch([series], query[ch : ch + 1]) for ch, series in enumerate(rows))
    if metric == "dtw-d":
        return _dtw_batch(rows, query)
    raise ValueError(f"unknown metric {metric!r}; expected one of {DISTANCE_METRICS}")


def euclidean_i(a: Instance, b: Instance) -> float:
    """Independent Euclidean distance: the per-channel pointwise Euclidean
    distances, summed over channels."""
    _check_dims(a, b)
    return float(_distances(_channel_rows([a]), b.channels, "ed-i")[0])


def dtw(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Unconstrained dynamic time warping with squared-difference local cost.

    Full window, no normalization; the returned value is the accumulated cost
    of the optimal warping path.
    """
    sa = np.asarray(a, dtype=np.float64)
    sb = np.asarray(b, dtype=np.float64)
    if sa.size == 0 or sb.size == 0:
        raise ValueError("dtw requires non-empty sequences")
    return float(_dtw_batch([sa[None, :]], sb[None, :])[0])


def dtw_i(a: Instance, b: Instance) -> float:
    """Independent DTW: one warp per channel, distances summed."""
    _check_dims(a, b)
    return float(_distances(_channel_rows([a]), b.channels, "dtw-i")[0])


def dtw_d(a: Instance, b: Instance) -> float:
    """Dependent DTW: a single warp where the local cost at (i, j) is the
    squared Euclidean distance between the column vectors at times i and j."""
    _check_dims(a, b)
    return float(_distances(_channel_rows([a]), b.channels, "dtw-d")[0])


def nn_classify(train: TemporalDataset, query: Instance, metric: str) -> int:
    """1-nearest-neighbour class of ``query``; ties go to the lowest training
    index.  Every training series is scored against the query in one batch."""
    if not train.instances:
        raise ValueError("nearest neighbour needs a non-empty training set")
    for inst in train.instances:
        _check_dims(inst, query)
    dist = _distances(_channel_rows(train.instances), query.channels, metric)
    # argmin returns the first minimum: the lowest index wins a tie
    return train.instances[int(np.argmin(dist))].class_index
