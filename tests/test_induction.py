import gc
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tstrees.core import (
    Comparator,
    Instance,
    Interval,
    IntervalRelation,
    Leaf,
    LearnerConfig,
    Node,
    TemporalDataset,
    iter_leaves,
    iter_nodes,
)
from tstrees import induction
from tstrees.induction import (
    _split_scorer,
    best_split,
    candidate_thresholds,
    classify,
    confusion,
    grow_static_tree,
    grow_tree,
    info,
    info_split,
    static_series_dataset,
)
from tstrees.intervals import point_spans, required_counts

import oracles
from conftest import random_dataset

Rel = IntervalRelation


def four_series_dataset() -> TemporalDataset:
    values = [(0.0, 0), (1.0, 0), (9.0, 1), (10.0, 1)]
    instances = [Instance(np.array([[v, v]]), c) for v, c in values]
    return TemporalDataset(instances, ["a0"], ["No", "Yes"], 2)


def test_info_examples():
    assert info([4, 0]) == 0.0
    assert info([2, 2]) == 1.0
    derived = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert info([3, 1]) == derived
    assert round(info([3, 1]), 4) == 0.8113
    with pytest.raises(ValueError):
        info([0, 0])


def test_info_split_examples():
    assert info_split(6, [[3, 0], [0, 3]]) == 0.0
    assert info_split(4, [[3, 1], [0, 0]]) == info([3, 1])
    derived = (4 / 6) * oracles.entropy([3, 1]) + (2 / 6) * 0.0
    assert info_split(6, [[3, 1], [0, 2]]) == derived
    assert round(info_split(6, [[3, 1], [0, 2]]), 4) == 0.5409
    with pytest.raises(ValueError):
        info_split(5, [[3, 1], [0, 2]])


def test_candidate_thresholds_examples():
    assert candidate_thresholds([1.0, 2.0, 4.0], 100) == [1.5, 3.0]
    assert candidate_thresholds([5.0, 5.0, 5.0], 100) == []
    with pytest.raises(ValueError):
        candidate_thresholds([], 100)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            candidate_thresholds([1.0, bad, 2.0], 100)


def test_candidate_thresholds_cap(rng):
    values = rng.permutation(np.arange(1000).astype(np.float64))
    got = candidate_thresholds(values, 100)
    assert len(got) == 100
    assert all(values.min() < t < values.max() for t in got)
    assert got == sorted(got)
    assert len(set(got)) == 100
    # deterministic
    assert got == candidate_thresholds(values, 100)


def test_best_split_pure_returns_none():
    instances = [Instance(np.array([[float(i), float(i)]]), 0) for i in range(4)]
    assert best_split(instances, LearnerConfig(min_leaf_size=1)) is None


def test_best_split_derived_example():
    ds = four_series_dataset()
    cfg = LearnerConfig(
        relations=(Rel.A,), comparators=(Comparator.LE,), min_leaf_size=2
    )
    cand = best_split(ds.instances, cfg)
    assert cand is not None
    assert cand.split_info == 0.0
    assert cand.partition_sizes == (2, 2)
    d = cand.decision
    assert d.relation is Rel.A and d.comparator is Comparator.LE
    assert 1.0 < d.threshold < 9.0
    assert d.derivative_degree == 0 and d.alpha == 1.0


def test_best_split_matches_exhaustive_enumeration(rng):
    for trial in range(25):
        ds = random_dataset(
            rng,
            m=int(rng.integers(4, 11)),
            n=int(rng.integers(1, 3)),
            length=int(rng.integers(3, 8)),
            q=int(rng.integers(2, 4)),
            random_references=True,
        )
        cfg = LearnerConfig(
            alpha_grid=(0.5, 1.0),
            max_derivative=3,  # up to N - 1 at length 4
            min_leaf_size=int(rng.integers(1, 3)),
        )
        got = best_split(ds.instances, cfg)
        want = oracles.exhaustive_best_split(ds.instances, cfg)
        if want is None:
            assert got is None
            continue
        key, sizes = want
        si, attr, rel_rank, cmp_rank, thr, alpha, z = key
        assert got is not None
        assert got.split_info == si
        assert got.partition_sizes == sizes
        d = got.decision
        assert (d.attribute_index, d.relation.rank, d.comparator.rank) == (attr, rel_rank, cmp_rank)
        assert (d.threshold, d.alpha, d.derivative_degree) == (thr, alpha, z)


# the comparators the learner searches: a non-empty subset of <= and >, in rank order
_learner_comparators = st.sampled_from(
    ((Comparator.LE,), (Comparator.GT,), (Comparator.LE, Comparator.GT))
)


@st.composite
def _nodes(draw):
    """Two to eight instances of two channels over 2 or 3 points, each on a
    random reference interval, so that most successor sets are empty; and a
    config with every relation, ``<=``, ``>`` or both, and degree up to
    N - 1.  Values come from a coarse grid so that candidate splits tie."""
    n = draw(st.sampled_from((2, 3)))
    instances = []
    for _ in range(draw(st.integers(2, 8))):
        x = draw(st.integers(0, n - 1))
        y = draw(st.integers(x + 1, n))
        values = draw(st.lists(st.integers(-2, 2), min_size=2 * n, max_size=2 * n))
        channels = np.array(values, dtype=np.float64).reshape(2, n) / 2
        instances.append(Instance(channels, draw(st.integers(0, 2)), reference=Interval(x, y)))
    alphas = draw(st.sets(st.sampled_from((0.3, 0.5, 0.7, 1.0)), min_size=1))
    config = LearnerConfig(
        alpha_grid=tuple(sorted(alphas)),
        max_derivative=draw(st.integers(0, n - 1)),
        relations=tuple(Rel),
        comparators=draw(_learner_comparators),
        min_leaf_size=draw(st.integers(1, 2)),
    )
    return instances, config


def _ten_point_node(reference, relation, alpha):
    """Two series with 7 of 10 points above 0.5 and two with 6.  Only the
    first two hold at alpha 0.7, since ceil(0.7 * 10) = 7 on the binary
    value of 0.7, which sits just below 7/10."""
    seven = np.array([[0, 0, 0, 1, 1, 1, 1, 1, 1, 1]], dtype=np.float64)
    six = np.array([[0, 0, 0, 0, 1, 1, 1, 1, 1, 1]], dtype=np.float64)
    instances = [
        Instance(series, cls, reference=reference)
        for series, cls in ((seven, 0), (seven, 0), (six, 1), (six, 1))
    ]
    config = LearnerConfig(
        alpha_grid=(alpha,),
        relations=(relation,),
        comparators=(Comparator.GT,),
        min_leaf_size=1,
    )
    return instances, config


def _empty_span_node(comparator):
    """Three points on reference [1, 2]: the only A-successor, [2, 3], has
    data at degrees 0 and 1 (where both classes look alike) but no point at
    degree 2, where the classes would separate.  No split exists."""
    rows = [([0, 0, 0], 0), ([0, 0, 0], 0), ([1, 0, 0], 1), ([1, 0, 0], 1)]
    instances = [
        Instance(np.array([row], dtype=np.float64), cls, reference=Interval(1, 2))
        for row, cls in rows
    ]
    config = LearnerConfig(
        max_derivative=2, relations=(Rel.A,), comparators=(comparator,), min_leaf_size=1
    )
    return instances, config


def _tied_node():
    """Integer values from the root: under A, ``<=`` and alpha 1 the critical
    value is max(x1, x2), which is 1 for four series (three of class 0) and
    2 for two; the best split keeps the four tied series together."""
    rows = [([1, 0, 5], 0), ([0, 1, 3], 0), ([1, 1, 0], 0),
            ([2, 0, 0], 1), ([0, 2, 1], 1), ([1, 0, 4], 1)]
    instances = [Instance(np.array([row], dtype=np.float64), cls) for row, cls in rows]
    config = LearnerConfig(alpha_grid=(0.5, 1.0), relations=(Rel.A, Rel.BI), min_leaf_size=1)
    return instances, config


def _adjacent_values_node():
    """1.0 and the next float up: their midpoint rounds to 1.0, so the only
    threshold equals an observed value, and ``1.0 <= 1.0`` must hold."""
    above = float(np.nextafter(1.0, 2.0))
    rows = [([1.0, 0, 0], 0), ([1.0, 0, 0], 0), ([above, 0, 0], 1), ([above, 0, 0], 1)]
    instances = [Instance(np.array([row], dtype=np.float64), cls) for row, cls in rows]
    return instances, LearnerConfig(relations=(Rel.A,), min_leaf_size=1)


@settings(max_examples=300, deadline=None)
@given(_nodes())
@example(_ten_point_node(Interval(0, 10), Rel.EQ, 0.7))  # splits 2 / 2
@example(_ten_point_node(Interval(0, 1), Rel.BI, 0.7))  # witness [0, 10]
@example(_ten_point_node(Interval(0, 1), Rel.BI, 0.75))  # no split
@example(_empty_span_node(Comparator.LE))  # no split
@example(_empty_span_node(Comparator.GT))  # no split
@example(_tied_node())  # splits 4 / 2 at 1.5
@example(_adjacent_values_node())  # splits 2 / 2 at 1.0
def test_best_split_matches_exhaustive_enumeration_property(node):
    instances, config = node
    got = best_split(instances, config)
    want = oracles.exhaustive_best_split(instances, config)
    if want is None:
        assert got is None
        return
    d = got.decision
    key = (got.split_info, d.attribute_index, d.relation.rank, d.comparator.rank,
           d.threshold, d.alpha, d.derivative_degree)
    assert (key, got.partition_sizes) == want


@st.composite
def _pooled_nodes(draw):
    """Four to twelve instances of one or two channels over 4 to 7 points,
    each on one of a pool of 2 or 3 reference intervals, so that a successor
    mask is shared by several instances beside other masks; and a config
    with every relation, ``<=``, ``>`` or both, and degree up to 1.  Values
    come from a coarse grid so that candidate splits tie."""
    n = draw(st.integers(4, 7))
    c = draw(st.integers(1, 2))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    pool = draw(st.lists(interval, min_size=2, max_size=3, unique=True))
    instances = [
        Instance(
            np.array(draw(st.lists(st.integers(-2, 2), min_size=c * n, max_size=c * n)),
                     dtype=np.float64).reshape(c, n) / 2,
            draw(st.integers(0, 2)),
            reference=draw(st.sampled_from(pool)),
        )
        for _ in range(draw(st.integers(4, 12)))
    ]
    config = LearnerConfig(
        alpha_grid=tuple(sorted(draw(st.sets(st.sampled_from((0.5, 0.7, 1.0)), min_size=1)))),
        max_derivative=draw(st.integers(0, 1)),
        relations=tuple(Rel),
        comparators=draw(_learner_comparators),
        min_leaf_size=draw(st.integers(1, 2)),
    )
    return instances, config


def _wide_pooled_node():
    """Twenty 7-point series of 140 distinct values on three references: 139
    thresholds, so the order-statistic tables and the mask bounds are
    int16."""
    values = (np.arange(140) * 53 % 140).reshape(20, 1, 7).astype(np.float64)
    pool = (Interval(0, 1), Interval(2, 4), Interval(1, 6))
    instances = [Instance(row, i % 3, reference=pool[i % 3]) for i, row in enumerate(values)]
    config = LearnerConfig(alpha_grid=(0.5,), relations=tuple(Rel), min_leaf_size=2,
                           max_threshold_candidates=200)
    return instances, config


@settings(max_examples=150, deadline=None)
@given(_pooled_nodes())
@example(_wide_pooled_node())
def test_best_split_matches_exhaustive_enumeration_on_pooled_references_property(node):
    instances, config = node
    got = best_split(instances, config)
    want = oracles.exhaustive_best_split(instances, config)
    if want is None:
        assert got is None
        return
    d = got.decision
    key = (got.split_info, d.attribute_index, d.relation.rank, d.comparator.rank,
           d.threshold, d.alpha, d.derivative_degree)
    assert (key, got.partition_sizes) == want


def test_best_split_keeps_no_memory_between_calls():
    """Live memory after 50 searches on one node stays within 256 B per call
    of what it was after 5 warm-up searches.  Before each reading, a full
    collection and a cleared type cache release what CPython keeps on its
    own: free lists, and the attribute names numpy's C code creates afresh on
    some method calls, which the type cache holds (bounded, not leaked)."""
    rng = np.random.default_rng(11)
    instances = [
        Instance(np.round(rng.normal(size=(2, 12)), 1), i % 3) for i in range(24)
    ]
    config = LearnerConfig(alpha_grid=(0.6, 0.9))

    def live_bytes():
        gc.collect()
        sys._clear_type_cache()
        return tracemalloc.get_traced_memory()[0]

    for _ in range(5):
        best_split(instances, config)
    tracemalloc.start()
    try:
        before = live_bytes()
        for _ in range(50):
            best_split(instances, config)
        growth = live_bytes() - before
    finally:
        tracemalloc.stop()
    assert growth / 50 < 256


def test_best_split_returns_early_when_no_split_can_be_admissible():
    """Too few instances for two leaves, or no successor under any relation:
    the search returns None without building a window."""
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=(1, 6)) for _ in range(6)]
    root = [Instance(row, i % 2) for i, row in enumerate(rows)]
    at_end = [Instance(row, i % 2, reference=Interval(2, 6)) for i, row in enumerate(rows)]
    spy = mock.patch.object(induction, "_order_statistics", wraps=induction._order_statistics)
    with spy as order_statistics:
        assert best_split(root[:5], LearnerConfig(min_leaf_size=3)) is None
        assert best_split(at_end, LearnerConfig(relations=(Rel.A, Rel.L))) is None
        assert order_statistics.call_count == 0
        # the same nodes with room for a split do build them
        best_split(root, LearnerConfig(min_leaf_size=3))
        best_split(at_end, LearnerConfig(relations=(Rel.A, Rel.L, Rel.B)))
        assert order_statistics.call_count == 2


@st.composite
def _window_nodes(draw):
    """1 to 12 series of 2 to 40 points on a coarse or a fine value grid, a
    derivative degree up to 3 (and below N), a threshold cap up to 300 and
    1 to 3 alphas, on and off the grid of tenths."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((2, 1000)))
    series = rng.integers(-scale, scale + 1, size=(m, n)) / scale
    alphas = draw(st.lists(
        st.sampled_from((0.5, 0.7, 1.0)) | st.floats(0.01, 1.0), min_size=1, max_size=3
    ))
    return series, draw(st.integers(0, min(3, n - 1))), draw(st.integers(1, 300)), alphas


_SHUFFLED = (np.arange(160) * 37 % 160).reshape(4, 40).astype(np.float64)


@settings(max_examples=100, deadline=None)
@given(_window_nodes())
@example((_SHUFFLED, 0, 127, [0.55, 1.0]))  # 127 thresholds: int8
@example((_SHUFFLED, 0, 128, [0.55, 1.0]))  # 128 thresholds: int16
@example((np.repeat([[0.5], [1.5], [-2.0]], 2, axis=1), 0, 100, [1.0]))  # j48's static path
def test_order_statistic_tables_equal_sorted_windows_property(node):
    """Each sweep's ``table[at]`` holds, per interval and instance, the
    k-th smallest (``<=``) or k-th largest (``>``) threshold rank of the
    interval's data-bearing points, and the never value on an empty one."""
    series, z, cap, alphas = node
    m, n = series.shape
    deriv = np.diff(series, n=z, axis=1)
    thresholds = candidate_thresholds(deriv.ravel(), cap)
    if not thresholds:
        return
    t = len(thresholds)
    u, v = np.triu_indices(n + 1, k=1)
    lo, hi = point_spans(u, v, n, z)
    sweeps = [(c, a) for c in (Comparator.LE, Comparator.GT) for a in alphas]
    tables, at = induction._order_statistics(deriv, thresholds, lo, hi - lo + 1, sweeps, n)
    ranks = (np.array(thresholds) < deriv[:, :, None]).sum(axis=2)
    want = np.empty((len(sweeps), m, u.size), dtype=np.int64)
    for col, (x, y) in enumerate(zip(u.tolist(), v.tolist())):
        window = np.sort(ranks[:, max(x, 1) - 1 : min(y, n - z)], axis=1)
        p = window.shape[1]
        for s, (comparator, alpha) in enumerate(sweeps):
            smallest = comparator is Comparator.LE
            if not p:
                want[s, :, col] = t if smallest else -1
                continue
            k = int(required_counts(alpha, n)[p])
            want[s, :, col] = window[:, k - 1] if smallest else window[:, p - k]
    for table, rows in zip(tables, want):
        assert table.dtype == np.min_scalar_type(-t - 1)
        assert (table[at].T == rows).all()


@st.composite
def _split_batches(draw):
    """A node's class counts (1 to 6 classes, some possibly 0, m from 2 to
    300), a minimum leaf size from 1 to 3, and satisfying-side class counts:
    rows at both size bounds that take whole classes in class order and in
    reverse, and rows of random class make-up and size within the bounds."""
    q = draw(st.integers(1, 6))
    low = draw(st.integers(1, 3))
    m = draw(st.integers(max(2, 2 * low), 300))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=q - 1, max_size=q - 1)))
    parent = np.diff([0, *cuts, m])
    rows = []
    for size in (low, m - low):
        for order in (range(q), reversed(range(q))):
            row, left = [0] * q, size
            for c in order:
                row[c] = min(int(parent[c]), left)
                left -= row[c]
            rows.append(row)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for size in rng.integers(low, m - low + 1, size=draw(st.integers(0, 30))):
        rows.append(rng.multivariate_hypergeometric(parent, int(size)).tolist())
    return parent.tolist(), low, rows


@settings(max_examples=200, deadline=None)
@given(_split_batches())
@example(([9, 66], 1, [[0, 1]]))  # np.log2(65 / 74) is 1 ulp off math.log2 (numpy 2.4, x86-64)
def test_split_scorer_equals_info_split_property(batch):
    parent, low, rows = batch
    parent_counts = np.array(parent, dtype=np.intp)
    c1 = np.array(rows, dtype=np.intp).reshape(-1, len(parent))
    got = _split_scorer(parent_counts, low)(c1)
    m = sum(parent)
    for row, si in zip(c1.tolist(), got.tolist()):
        assert si == info_split(m, [row, [p - c for p, c in zip(parent, row)]])


def _tree_shape(tree):
    """A grown tree in the form of :func:`oracles.reference_grow_tree`."""
    if isinstance(tree, Leaf):
        return ("leaf", tree.class_index, tree.class_counts)
    d = tree.decision
    key = (d.attribute_index, d.relation.rank, d.comparator.rank, d.threshold.hex(),
           d.alpha, d.derivative_degree)
    return ("node", key, _tree_shape(tree.left), _tree_shape(tree.right))


def _grow_case(values, classes, max_derivative, min_leaf_size):
    """Series of values in halves, on the root reference, over three classes,
    and a full-HS config with alphas 0.5 and 1.0."""
    channels = np.array(values, dtype=np.float64) / 2
    instances = [Instance(row, c) for row, c in zip(channels, classes)]
    dataset = TemporalDataset(
        instances, [f"a{j}" for j in range(channels.shape[1])], ["c0", "c1", "c2"],
        channels.shape[2],
    )
    config = LearnerConfig(
        alpha_grid=(0.5, 1.0), max_derivative=max_derivative, min_leaf_size=min_leaf_size
    )
    return dataset, config


@st.composite
def _grow_cases(draw):
    """6 to 14 instances of 1 or 2 channels over 3 to 6 points, values from
    a coarse grid so that candidate splits tie, degree up to 1 and minimum
    leaf size 1 or 2."""
    m, c, n = draw(st.integers(6, 14)), draw(st.integers(1, 2)), draw(st.integers(3, 6))
    values = draw(st.lists(st.integers(-2, 2), min_size=m * c * n, max_size=m * c * n))
    classes = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    return _grow_case(
        np.reshape(values, (m, c, n)), classes, draw(st.integers(0, 1)), draw(st.integers(1, 2))
    )


@settings(max_examples=40, deadline=None)
@given(_grow_cases())
# the root holds under A, and its satisfied side, moved onto the witnesses,
# splits again
@example(_grow_case(
    [[[-1, 0, 2]], [[0, -2, -1]], [[1, 2, 1]], [[2, -2, 2]], [[-2, 0, -1]],
     [[-1, 1, -1]], [[0, -1, -2]], [[1, 0, 1]], [[1, 2, 0]], [[-1, 1, 2]]],
    [1, 1, 1, 0, 0, 0, 0, 0, 0, 1], 1, 2,
))
@example(_grow_case(
    [[[-1, 2, -1, 1], [-1, 0, 2, -2]], [[1, 0, 1, 1], [-1, 1, 1, 0]],
     [[-2, 1, -2, 2], [2, 2, -2, 2]], [[2, 0, 2, 1], [1, -2, -2, -1]],
     [[-1, 0, 2, 1], [0, 0, 1, 1]], [[-2, 1, -2, 0], [0, 2, 1, -2]],
     [[0, -2, -2, 0], [2, -1, -2, 2]], [[0, -2, 0, -1], [-1, 0, 0, 2]]],
    [1, 0, 0, 1, 1, 1, 1, 0], 0, 2,
))
def test_grow_tree_matches_reference_learner_property(case):
    dataset, config = case
    want = oracles.reference_grow_tree(dataset.instances, dataset.class_count, config)
    assert _tree_shape(grow_tree(dataset, config)) == want


def test_grow_tree_single_class_is_leaf():
    instances = [Instance(np.array([[1.0, 2.0, 3.0]]), 0) for _ in range(5)]
    ds = TemporalDataset(instances, ["a0"], ["only"], 3)
    tree = grow_tree(ds, LearnerConfig())
    assert isinstance(tree, Leaf)
    assert tree.class_index == 0 and tree.total == 5


def test_grow_tree_empty_dataset_errors():
    ds = TemporalDataset([], ["a0"], ["x"], 3)
    with pytest.raises(ValueError):
        grow_tree(ds, LearnerConfig())


def test_grow_tree_derived_four_series():
    ds = four_series_dataset()
    cfg = LearnerConfig(relations=(Rel.A,), comparators=(Comparator.LE,))
    tree = grow_tree(ds, cfg)
    assert isinstance(tree, Node)
    assert tree.decision.relation is Rel.A
    assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
    assert tree.left.errors == 0 and tree.right.errors == 0
    for inst in ds.instances:
        cls, _ = classify(tree, inst)
        assert cls == inst.class_index


def test_grow_tree_eq_restriction_equals_static_path(rng):
    for _ in range(10):
        m, n = int(rng.integers(4, 9)), int(rng.integers(1, 4))
        table = np.round(rng.normal(size=(m, n)), 2)
        labels = [int(v) for v in rng.integers(0, 2, size=m)]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        cfg = LearnerConfig()
        static = grow_static_tree(table, labels, cfg)
        ds = static_series_dataset(table, labels)
        temporal = grow_tree(
            ds,
            LearnerConfig(relations=(Rel.EQ,), alpha_grid=(1.0,), max_derivative=0),
        )
        assert static == temporal


def test_grow_static_tree_separating_attribute():
    table = [[0.0, 5.0], [1.0, 5.0], [10.0, 5.0], [11.0, 5.0]]
    labels = [0, 0, 1, 1]
    tree = grow_static_tree(table, labels, LearnerConfig())
    assert isinstance(tree, Node)
    assert tree.decision.attribute_index == 0
    assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)


def test_grow_static_tree_pure_labels():
    tree = grow_static_tree([[1.0], [2.0]], [0, 0], LearnerConfig())
    assert isinstance(tree, Leaf)


def test_grow_static_tree_matches_reference_accuracy(rng):
    for _ in range(15):
        table = np.round(rng.normal(size=(8, 2)), 2)
        labels = [int(v) for v in rng.integers(0, 2, size=8)]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        tree = grow_static_tree(table, labels, LearnerConfig())
        ref = oracles.ReferenceStaticTree().fit(table, labels)
        ds = static_series_dataset(table, labels)
        ours = sum(
            1
            for inst, lab in zip(ds.instances, labels)
            if classify(tree, inst)[0] == lab
        ) / len(labels)
        assert ours == ref.training_accuracy(table, labels)


def test_classify_single_leaf():
    leaf = Leaf(1, (0, 4))
    inst = Instance(np.zeros((1, 3)), 0)
    assert classify(leaf, inst) == (1, (0, 4))


def test_classify_counts_contain_training_instance():
    ds = four_series_dataset()
    tree = grow_tree(ds, LearnerConfig(relations=(Rel.A,), comparators=(Comparator.LE,)))
    for inst in ds.instances:
        cls, counts = classify(tree, inst)
        assert counts[inst.class_index] > 0


def test_confusion_leaf_rules():
    instances = [Instance(np.zeros((1, 3)), c) for c in (1, 1, 1, 1, 1)]
    ds = TemporalDataset(instances, ["a0"], ["No", "Yes"], 3)
    matrix = confusion(Leaf(1, (0, 5)), ds)
    assert matrix.counts == ((0, 0), (0, 5))

    mixed = [Instance(np.zeros((1, 3)), c) for c in (0, 0, 0, 1, 1)]
    ds2 = TemporalDataset(mixed, ["a0"], ["No", "Yes"], 3)
    matrix2 = confusion(Leaf(0, (3, 2)), ds2)
    assert matrix2.counts == ((3, 2), (0, 0))


def test_confusion_bottom_up_equals_per_instance_tally(rng):
    for _ in range(8):
        ds = random_dataset(rng, m=10, n=2, length=6, q=3)
        cfg = LearnerConfig(min_leaf_size=1)
        tree = grow_tree(ds, cfg)
        matrix = confusion(tree, ds)
        q = ds.class_count
        rows = [[0] * q for _ in range(q)]
        for inst in ds.instances:
            pred, _ = classify(tree, inst)
            rows[pred][inst.class_index] += 1
        assert matrix.counts == tuple(tuple(r) for r in rows)


def test_theta_additivity(rng):
    ds = random_dataset(rng, m=12, n=2, length=5, q=2)
    tree = grow_tree(ds, LearnerConfig(min_leaf_size=1))
    if isinstance(tree, Node):
        from tstrees.intervals import split_dataset
        from tstrees.core import ROOT_REFERENCE

        insts = [i.with_reference(ROOT_REFERENCE) for i in ds.instances]
        t1, t2 = split_dataset(insts, tree.decision)

        def as_ds(instances):
            return TemporalDataset(
                instances, ds.attribute_names, ds.class_names, ds.series_length
            )

        left = _confusion_from_refs(tree.left, as_ds(t1))
        right = _confusion_from_refs(tree.right, as_ds(t2))
        assert (left + right).counts == confusion(tree, ds).counts


def _confusion_from_refs(tree, ds):
    """Bottom-up matrix without resetting references (instances already carry
    the references induced by the parent split)."""
    from tstrees.core import ConfusionMatrix, Leaf as _Leaf
    from tstrees.intervals import split_dataset

    q = ds.class_count
    if isinstance(tree, _Leaf):
        rows = [[0] * q for _ in range(q)]
        for inst in ds.instances:
            rows[tree.class_index][inst.class_index] += 1
        return ConfusionMatrix.from_rows(rows)
    t1, t2 = split_dataset(ds.instances, tree.decision)

    def as_ds(instances):
        return TemporalDataset(instances, ds.attribute_names, ds.class_names, ds.series_length)

    return _confusion_from_refs(tree.left, as_ds(t1)) + _confusion_from_refs(tree.right, as_ds(t2))


def test_gain_positive_on_emitted_splits(rng):
    for _ in range(10):
        ds = random_dataset(rng, m=10, n=1, length=5, q=2)
        cfg = LearnerConfig(min_leaf_size=1)
        cand = best_split(ds.instances, cfg)
        if cand is None:
            continue
        parent = info(list(ds.class_counts()))
        assert parent - cand.split_info > 0


def test_determinism(rng):
    ds = random_dataset(rng, m=12, n=2, length=6, q=3)
    cfg = LearnerConfig(alpha_grid=(0.5, 1.0), max_derivative=1, min_leaf_size=1)
    assert grow_tree(ds, cfg) == grow_tree(ds, cfg)


def _leaf_populations(tree, instances):
    from tstrees.intervals import split_dataset

    if isinstance(tree, Leaf):
        return [(tree, instances)]
    t1, t2 = split_dataset(instances, tree.decision)
    return _leaf_populations(tree.left, t1) + _leaf_populations(tree.right, t2)


def test_stopping_soundness(rng):
    from tstrees.core import ROOT_REFERENCE

    ds = random_dataset(rng, m=14, n=2, length=5, q=3)
    cfg = LearnerConfig(min_leaf_size=2, purity_threshold=0.3)
    tree = grow_tree(ds, cfg)
    assert len(list(iter_leaves(tree))) == len(list(iter_nodes(tree))) + 1
    rooted = [i.with_reference(ROOT_REFERENCE) for i in ds.instances]
    for leaf, members in _leaf_populations(tree, rooted):
        assert leaf.total == len(members)
        pure_enough = info(list(leaf.class_counts)) <= cfg.purity_threshold
        too_small = leaf.total < 2 * cfg.min_leaf_size
        if not (pure_enough or too_small):
            assert best_split(members, cfg) is None
