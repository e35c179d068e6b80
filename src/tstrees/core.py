"""Shared domain model: datasets, intervals, decisions, trees, confusion matrices.

Everything here is a plain value object.  ``Instance`` and
``TemporalDataset`` are not frozen, but nothing assigns to an ``Instance``
after ``__post_init__``: an instance moves onto a new reference interval as
a fresh copy (:func:`tstrees.intervals.split_dataset` hands back copies
that share the channel matrix), and instances handed to the library are
never mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence, Union

import numpy as np


class DataFormatError(ValueError):
    """Raised when an input file or serialized artifact is malformed."""


class IntervalRelation(Enum):
    """The twelve Allen relations (as HS modalities) plus ``eq``.

    Member order is the canonical order used for tie-breaking during split
    search: A, L, B, E, D, O, their inverses, then eq.  The value of each
    member is its rendering token.
    """

    A = "A"        # meets:     y == x'
    L = "L"        # later:     y < x'
    B = "B"        # begins:    x == x' and y' < y
    E = "E"        # ends:      y == y' and x < x'
    D = "D"        # during:    x < x' and y' < y
    O = "O"        # overlaps:  x < x' < y < y'
    AI = "InvA"
    LI = "InvL"
    BI = "InvB"
    EI = "InvE"
    DI = "InvD"
    OI = "InvO"
    EQ = "="       # same interval; makes static decisions a special case

    @property
    def rank(self) -> int:
        return _RELATION_RANK[self]

    @property
    def transpose(self) -> "IntervalRelation":
        return _TRANSPOSE[self]

    @property
    def is_inverse(self) -> bool:
        return self.name.endswith("I") and self is not IntervalRelation.EQ


_RELATION_RANK = {rel: i for i, rel in enumerate(IntervalRelation)}

_TRANSPOSE = {
    IntervalRelation.A: IntervalRelation.AI,
    IntervalRelation.L: IntervalRelation.LI,
    IntervalRelation.B: IntervalRelation.BI,
    IntervalRelation.E: IntervalRelation.EI,
    IntervalRelation.D: IntervalRelation.DI,
    IntervalRelation.O: IntervalRelation.OI,
    IntervalRelation.AI: IntervalRelation.A,
    IntervalRelation.LI: IntervalRelation.L,
    IntervalRelation.BI: IntervalRelation.B,
    IntervalRelation.EI: IntervalRelation.E,
    IntervalRelation.DI: IntervalRelation.D,
    IntervalRelation.OI: IntervalRelation.O,
    IntervalRelation.EQ: IntervalRelation.EQ,
}

#: All thirteen relations in canonical order.
FULL_HS: tuple[IntervalRelation, ...] = tuple(IntervalRelation)

class Comparator(Enum):
    """Point comparators usable in a decision.  ``>`` is not the negation of
    ``<=`` once an existential modality wraps the condition, so all three are
    first-class in decisions, model files and rendering.  The learner
    searches ``<=`` and ``>`` only (see :class:`LearnerConfig`)."""

    LE = "<="
    EQ = "="
    GT = ">"

    @property
    def rank(self) -> int:
        return _COMPARATOR_RANK[self]


_COMPARATOR_RANK = {Comparator.LE: 0, Comparator.EQ: 1, Comparator.GT: 2}


@dataclass(frozen=True, order=True)
class Interval:
    """An ordered pair of points ``[x, y]`` with ``x < y``.

    Points live on the extended domain {0, ..., N}; series values sit at
    points 1..N and point 0 carries no data (it exists so the root reference
    interval [0, 1] is well formed).  Validity against a concrete N is
    checked where N is known.
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        if not (0 <= self.x < self.y):
            raise ValueError(f"invalid interval [{self.x},{self.y}]: need 0 <= x < y")


ROOT_REFERENCE = Interval(0, 1)


@dataclass(frozen=True)
class TemporalDecision:
    """One split condition: ``<X>(A^z cmp_alpha a)``, or the modality-free
    form when ``relation`` is eq.

    ``alpha`` is the fraction of in-interval points that must satisfy the
    point condition; ``derivative_degree`` selects the z-fold forward
    difference of the channel.  ``eq_tolerance`` is the absolute tolerance
    used by the ``=`` comparator (0 means exact match).
    """

    relation: IntervalRelation
    attribute_index: int
    derivative_degree: int
    comparator: Comparator
    threshold: float
    alpha: float
    eq_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.attribute_index < 0:
            raise ValueError("attribute_index must be non-negative")
        if self.derivative_degree < 0:
            raise ValueError("derivative_degree must be non-negative")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.eq_tolerance < 0.0:
            raise ValueError("eq_tolerance must be non-negative")


@dataclass(frozen=True)
class Leaf:
    """A classified leaf: majority class plus the class distribution of the
    training instances that reached it."""

    class_index: int
    class_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = self.class_counts
        if not counts or min(counts) < 0:
            raise ValueError("class_counts must be a non-empty vector of counts >= 0")
        best = max(counts)
        if self.class_index != counts.index(best):
            raise ValueError(
                "leaf class must be the argmax of its counts (ties: lowest index)"
            )

    @property
    def total(self) -> int:
        return sum(self.class_counts)

    @property
    def errors(self) -> int:
        return self.total - self.class_counts[self.class_index]


@dataclass(frozen=True)
class Node:
    """An internal node: instances satisfying ``decision`` go left, the rest
    go right.  Both children are always present."""

    decision: TemporalDecision
    left: "DecisionTree"
    right: "DecisionTree"


DecisionTree = Union[Leaf, Node]


def iter_leaves(tree: DecisionTree) -> Iterator[Leaf]:
    if isinstance(tree, Leaf):
        yield tree
    else:
        yield from iter_leaves(tree.left)
        yield from iter_leaves(tree.right)


def iter_nodes(tree: DecisionTree) -> Iterator[Node]:
    if isinstance(tree, Node):
        yield tree
        yield from iter_nodes(tree.left)
        yield from iter_nodes(tree.right)


def leaf_for_counts(class_counts: Sequence[int]) -> Leaf:
    """Build a leaf labelled with the majority class, lowest index on ties."""
    counts = tuple(int(c) for c in class_counts)
    return Leaf(class_index=counts.index(max(counts)), class_counts=counts)


@dataclass(frozen=True)
class ConfusionMatrix:
    """A q x q count matrix; rows are predicted classes, columns true ones."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        q = len(self.counts)
        if q == 0:
            raise ValueError("confusion matrix must be non-empty")
        for row in self.counts:
            if len(row) != q:
                raise ValueError("confusion matrix must be square")
            if min(row) < 0:
                raise ValueError("confusion matrix entries must be >= 0")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ConfusionMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def tally(cls, predicted: Sequence[int], actual: Sequence[int], q: int) -> "ConfusionMatrix":
        """Count (predicted, true) class pairs: entry [p][t] is the number of
        instances predicted p whose true class is t."""
        if len(predicted) != len(actual):
            raise ValueError(f"{len(predicted)} predictions for {len(actual)} instances")
        rows = [[0] * q for _ in range(q)]
        for p, t in zip(predicted, actual):
            rows[p][t] += 1
        return cls.from_rows(rows)

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if len(self.counts) != len(other.counts):
            raise ValueError("cannot add confusion matrices of different sizes")
        return ConfusionMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.counts, other.counts)
            )
        )

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.counts)))


@dataclass
class Instance:
    """One multivariate series: an n x N matrix of channel values, its class,
    and the reference interval it currently stands on while descending a
    tree."""

    channels: np.ndarray
    class_index: int
    reference: Interval = ROOT_REFERENCE

    def __post_init__(self) -> None:
        arr = np.asarray(self.channels, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("channels must be a 2-D (n x N) array")
        self.channels = arr
        if self.class_index < 0:
            raise ValueError("class_index must be non-negative")

    @property
    def channel_count(self) -> int:
        return int(self.channels.shape[0])

    @property
    def series_length(self) -> int:
        return int(self.channels.shape[1])

    def with_reference(self, interval: Interval) -> "Instance":
        """A copy standing on ``interval``; the channel matrix is shared."""
        return replace(self, reference=interval)


@dataclass
class TemporalDataset:
    """A labelled set of equal-length multivariate series of finite values.

    Non-finite values are refused here, at the library's entry, and not by
    ``Instance``, whose copies the learner makes at every split.
    """

    instances: list[Instance]
    attribute_names: list[str]
    class_names: list[str]
    series_length: int

    def __post_init__(self) -> None:
        n = len(self.attribute_names)
        q = len(self.class_names)
        big_n = self.series_length
        if n < 1:
            raise ValueError("need at least one attribute")
        if big_n < 2:
            raise ValueError("series length must be at least 2")
        if q < 1:
            raise ValueError("need at least one class name")
        for i, inst in enumerate(self.instances):
            if inst.channels.shape != (n, big_n):
                raise ValueError(
                    f"instance {i}: channel matrix is {inst.channels.shape}, "
                    f"expected ({n}, {big_n})"
                )
            if not (0 <= inst.class_index < q):
                raise ValueError(f"instance {i}: class index {inst.class_index} out of range")
            if inst.reference.y > big_n:
                raise ValueError(f"instance {i}: reference interval exceeds domain")
            if not np.isfinite(inst.channels).all():
                finite = np.isfinite(inst.channels).all(axis=1)
                channel = self.attribute_names[int(finite.argmin())]
                raise DataFormatError(f"instance {i}: channel {channel!r} holds a non-finite value")

    @property
    def size(self) -> int:
        return len(self.instances)

    @property
    def attribute_count(self) -> int:
        return len(self.attribute_names)

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> tuple[int, ...]:
        counts = [0] * self.class_count
        for inst in self.instances:
            counts[inst.class_index] += 1
        return tuple(counts)

    def majority_class(self) -> int:
        counts = self.class_counts()
        return counts.index(max(counts))


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs of the greedy learner.

    ``alpha_grid`` with a single entry reproduces a fixed-alpha run; with
    several entries alpha becomes a per-decision search axis.  ``relations``
    defaults to the full set of thirteen.  ``comparators`` may hold ``<=``
    and ``>``; ``=`` is refused, since split thresholds lie strictly between
    observed values, where ``x = t`` never holds.
    """

    alpha_grid: tuple[float, ...] = (1.0,)
    max_derivative: int = 0
    relations: tuple[IntervalRelation, ...] = FULL_HS
    comparators: tuple[Comparator, ...] = (Comparator.LE, Comparator.GT)
    min_leaf_size: int = 2
    purity_threshold: float = 0.0
    max_threshold_candidates: int = 100

    def __post_init__(self) -> None:
        if not self.alpha_grid:
            raise ValueError("alpha_grid must not be empty")
        for a in self.alpha_grid:
            if not (0.0 < a <= 1.0):
                raise ValueError("every alpha must lie in (0, 1]")
        if not self.relations:
            raise ValueError("relations must not be empty")
        if not self.comparators:
            raise ValueError("comparators must not be empty")
        if Comparator.EQ in self.comparators:
            raise ValueError(
                "comparator '=' cannot be trained: split thresholds lie strictly "
                "between observed values, so 'x = t' never holds on the training data"
            )
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")
        if self.max_derivative < 0:
            raise ValueError("max_derivative must be >= 0")
        if self.max_threshold_candidates < 1:
            raise ValueError("max_threshold_candidates must be >= 1")
        # NaN would make every node a split candidate and Infinity every node
        # a leaf; neither is a number a model file may carry as JSON
        if not math.isfinite(self.purity_threshold):
            raise ValueError("purity_threshold must be a finite number")
