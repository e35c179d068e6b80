"""Shared generators for randomized suites.

Values are drawn from a coarse grid about half the time so that ties between
candidate splits actually occur and exercise the canonical tie-break.
"""

from __future__ import annotations

import numpy as np
import pytest

from tstrees.core import Comparator, Instance, Interval, IntervalRelation, TemporalDataset


def random_dataset(
    rng: np.random.Generator,
    m: int,
    n: int,
    length: int,
    q: int,
    random_references: bool = False,
) -> TemporalDataset:
    instances = []
    for _ in range(m):
        if rng.random() < 0.5:
            channels = rng.integers(-3, 4, size=(n, length)).astype(np.float64) * 0.5
        else:
            channels = np.round(rng.normal(size=(n, length)), 2)
        cls = int(rng.integers(0, q))
        ref = Interval(0, 1)
        if random_references:
            x = int(rng.integers(0, length))
            y = int(rng.integers(x + 1, length + 1))
            ref = Interval(x, y)
        instances.append(Instance(channels=channels, class_index=cls, reference=ref))
    # make sure at least two classes actually occur
    if q >= 2 and len({i.class_index for i in instances}) < 2:
        instances[0].class_index = (instances[0].class_index + 1) % q
    return TemporalDataset(
        instances=instances,
        attribute_names=[f"var{j}" for j in range(n)],
        class_names=[f"class{c}" for c in range(q)],
        series_length=length,
    )


def long_dataset(points: int = 7000, m: int = 10) -> TemporalDataset:
    """m series of one channel of ``points`` Gaussian values, two classes."""
    rng = np.random.default_rng(0)
    return TemporalDataset([Instance(rng.normal(size=(1, points)), i % 2) for i in range(m)],
                           ["var0"], ["a", "b"], points)


def random_decision(rng: np.random.Generator, dataset: TemporalDataset, max_z: int = 1):
    from tstrees.core import TemporalDecision

    rel = list(IntervalRelation)[int(rng.integers(0, 13))]
    attr = int(rng.integers(0, dataset.attribute_count))
    z = int(rng.integers(0, min(max_z, dataset.series_length - 1) + 1))
    comparator = (Comparator.LE, Comparator.EQ, Comparator.GT)[int(rng.integers(0, 3))]
    values = np.concatenate([inst.channels[attr] for inst in dataset.instances])
    if rng.random() < 0.5:
        threshold = float(rng.choice(values))  # hit observed values, matters for =
    else:
        threshold = float(rng.uniform(values.min() - 0.5, values.max() + 0.5))
    alphas = (0.3, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0)
    alpha = float(alphas[int(rng.integers(0, len(alphas)))]) if rng.random() < 0.8 else float(
        rng.uniform(0.05, 1.0)
    )
    return TemporalDecision(
        relation=rel,
        attribute_index=attr,
        derivative_degree=z,
        comparator=comparator,
        threshold=threshold,
        alpha=alpha,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
