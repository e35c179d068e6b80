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
    DataFormatError,
    FULL_HS,
    Instance,
    Interval,
    IntervalRelation,
    Leaf,
    LearnerConfig,
    Node,
    TemporalDataset,
    TemporalDecision,
    iter_leaves,
    iter_nodes,
)
from tstrees import induction
from tstrees.induction import (
    _split_scorer,
    best_split,
    candidate_thresholds,
    classify,
    classify_all,
    confusion,
    grow_static_tree,
    grow_tree,
    info,
    info_split,
    static_series_dataset,
)
from tstrees.intervals import point_spans, relation_boxes

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


def test_best_split_refuses_differences_out_of_float64_range():
    # 1.7e308 - (-1.7e308) is past float64: a data error, with no overflow
    # warning (the suite turns warnings into errors) and no inf threshold
    instances = [Instance(np.array([[-1.7e308, 1.7e308, 0.0]]), i % 2) for i in range(6)]
    with pytest.raises(DataFormatError, match="^attribute 0: degree-1 differences out of float64 range$"):
        best_split(instances, LearnerConfig(max_derivative=1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_best_split_refuses_nan_and_infinite_values_naming_the_attribute(bad):
    instances = [Instance(np.array([[0.0, i, 1.0], [1.0, 2.0, i]]), i % 2) for i in range(6)]
    instances[3].channels[1, 1] = bad
    with pytest.raises(DataFormatError, match="^attribute 1: degree-0 differences out of float64 range$"):
        best_split(instances, LearnerConfig())


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
    spy = mock.patch.object(induction, "_sorted_windows", wraps=induction._sorted_windows)
    with spy as order_statistics:
        assert best_split(root[:5], LearnerConfig(min_leaf_size=3)) is None
        assert best_split(at_end, LearnerConfig(relations=(Rel.A, Rel.L))) is None
        assert order_statistics.call_count == 0
        # the same nodes with room for a split do build them
        best_split(root, LearnerConfig(min_leaf_size=3))
        best_split(at_end, LearnerConfig(relations=(Rel.A, Rel.L, Rel.B)))
        assert order_statistics.call_count == 2


@st.composite
def _batched_nodes(draw):
    """Two to sixteen instances of 1 to 4 channels over 2 to 14 points, on
    a pool of 1 to 3 references; each channel on a coarse grid (tied values,
    few thresholds) or a fine one, so that the attributes of one batch have
    different threshold counts, or none; degree up to 2, an alpha grid with
    0.33 and 1.0, and a threshold cap of 3 or 100."""
    n = draw(st.integers(2, 14))
    c = draw(st.integers(1, 4))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    pool = draw(st.lists(interval, min_size=1, max_size=3, unique=True))
    m = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.array(draw(st.lists(st.sampled_from((1, 2, 1000)), min_size=c, max_size=c)))
    values = rng.integers(-2 * scales[:, None], 2 * scales[:, None] + 1, size=(m, c, n)) / scales[:, None]
    instances = [
        Instance(values[i], draw(st.integers(0, 2)), reference=draw(st.sampled_from(pool)))
        for i in range(m)
    ]
    extra = draw(st.sets(st.sampled_from((0.5, 0.7))))
    config = LearnerConfig(
        alpha_grid=tuple(sorted({0.33, 1.0} | extra)),
        max_derivative=draw(st.integers(0, 2)),
        relations=tuple(draw(st.sets(st.sampled_from(tuple(Rel)), min_size=1))),
        comparators=draw(_learner_comparators),
        min_leaf_size=draw(st.integers(1, 2)),
        max_threshold_candidates=draw(st.sampled_from((3, 100))),
    )
    return instances, config


@settings(max_examples=200, deadline=None)
@given(_batched_nodes())
def test_best_split_is_the_same_with_one_attribute_per_batch_property(node):
    """Searching each degree's attributes side by side (all of them fit the
    default table budget here) finds the split that one attribute per batch
    finds: the same decision, score and partition sizes, or None."""
    instances, config = node
    batched = best_split(instances, config)
    with mock.patch.object(induction, "_TABLE_CELLS", 1):
        assert best_split(instances, config) == batched


def test_root_search_on_long_series_stays_within_its_memory_budget():
    """A split search on 96 Gaussian series of 6 channels with the
    racket-train options (full HS, ``<=`` and ``>``, alphas 0.6 and 0.9,
    degree 0) stays within an 11 MiB tracemalloc peak at 150 points and a
    12 MiB one at 300 points on the root reference (1.3 and 4.5 MiB
    measured; 6.6 and 24.8 MiB with a table per sweep), within 11 MiB at
    150 points with the series spread over 20 distinct references (3.1 MiB
    measured; 23 MiB with a gathered mask per relation and a table per
    sweep), and within 11 MiB at 150 points up to degree 2 (1.9 MiB
    measured): a node keeps only its growing windows and one sparse table,
    and a batch frees them before the next batch grows its own."""
    rng = np.random.default_rng(5)
    for points, distinct, top, budget in ((150, 1, 0, 11 * 2**20), (300, 1, 0, 12 * 2**20),
                                          (150, 20, 0, 11 * 2**20), (150, 1, 2, 11 * 2**20)):
        config = LearnerConfig(alpha_grid=(0.6, 0.9), max_derivative=top)
        pool = [Interval(0, 1)]
        if distinct > 1:
            cells = [Interval(x, y) for x in range(points) for y in range(x + 1, points + 1)]
            pool = [cells[k] for k in np.random.default_rng(7).choice(len(cells), distinct, replace=False)]
        instances = [Instance(rng.normal(size=(6, points)), i % 4, reference=pool[i % distinct])
                     for i in range(96)]
        best_split(instances, config)  # warm the caches
        tracemalloc.start()
        try:
            best_split(instances, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (points, distinct, top)


@st.composite
def _successor_nodes(draw):
    """A series length N from 2 to 40, a derivative degree up to 3 (and
    below N) and 1 to 4 distinct references anywhere in the series."""
    n = draw(st.integers(2, 40))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    return n, draw(st.integers(0, min(3, n - 1))), draw(st.lists(interval, min_size=1, max_size=4, unique=True))


@settings(max_examples=100, deadline=None)
@given(_successor_nodes())
# from [N - 1, N] at degree 3, the one-point windows of Li lie at points 1 and N_z
@example((40, 3, [Interval(39, 40)]))
@example((2, 1, [Interval(0, 1), Interval(1, 2), Interval(0, 2)]))  # N_z = 1
def test_window_runs_equal_the_successor_windows_property(node):
    """For every relation and reference, the successor box is empty exactly
    when the reference has no successor, and the closed-form runs of window
    starts (at size 1, their starts 0 and N_z - 1) are the (size, start) of
    the successors' windows, enumerated through the direct relation
    definitions and :func:`point_spans`."""
    n, z, references = node
    points = n - z
    relations = sorted(Rel, key=lambda r: r.rank)
    x, y = np.array([[ref.x, ref.y] for ref in references]).T
    box = relation_boxes(relations, x, y, n)
    first, stop = induction._window_runs(box, points, np.arange(1, points + 1)[:, None, None])
    for r, rel in enumerate(relations):
        for d, ref in enumerate(references):
            spans = [point_spans(u, v, n, z) for u, v in oracles.all_intervals(n)
                     if oracles.RELATION_DEFS[rel](ref.x, ref.y, u, v)]
            r1, r2, c1, c2 = box[:, r, d]
            assert (r1 <= r2 and c1 <= c2) == bool(spans), (rel, ref)
            want = {(int(hi - lo + 1), int(lo - 1)) for lo, hi in spans if lo <= hi}
            got = set()
            for size in range(1, points + 1):
                starts = set(range(first[size - 1, r, d], stop[size - 1, r, d]))
                got |= {(size, s) for s in (starts & {0, points - 1} if size == 1 else starts)}
            assert got == want, (rel, ref)


@st.composite
def _critical_rank_nodes(draw):
    """A batch of 1 to 3 attributes of 1 to 12 series of 2 to 30 points,
    each series on one of a pool of 1 to 3 references anywhere in the
    series, at a degree up to 3 (and below N): each attribute on a coarse
    grid (tied values) or a fine one, a threshold cap up to 300 (so int8 or
    int16 ranks), and 1 to 3 alphas, on and off the grid of tenths."""
    b, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(2, 30))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    pool = draw(st.lists(interval, min_size=1, max_size=3, unique=True))
    references = [draw(st.sampled_from(pool)) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array(draw(st.lists(st.sampled_from((2, 1000)), min_size=b, max_size=b)))[:, None, None]
    series = rng.integers(-scale, scale + 1, size=(b, m, n)) / scale
    alphas = draw(st.lists(
        st.sampled_from((0.33, 0.5, 0.7, 1.0)) | st.floats(0.01, 1.0), min_size=1, max_size=3
    ))
    return series, references, draw(st.integers(0, min(3, n - 1))), draw(st.integers(1, 300)), alphas


_SHUFFLED = (np.arange(160) * 37 % 160).reshape(4, 40).astype(np.float64)
_POOL = [Interval(0, 1), Interval(3, 17), Interval(39, 40), Interval(3, 17)]


@st.composite
def _rank_batches(draw):
    """A batch of 1 to 3 attributes of 1 to 12 series of 2 to 30 points at a
    degree up to 3 (and below N), each attribute on a coarse grid (tied
    values), a fine one, or at degree 0 of any finite floats, and a threshold
    cap up to 300 (so int8 or int16 ranks)."""
    b, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(2, 30))
    z = draw(st.integers(0, min(3, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(b):
        if z == 0 and draw(st.booleans()):
            finite = st.floats(allow_nan=False, allow_infinity=False)
            series.append(draw(st.lists(finite, min_size=m * n, max_size=m * n)))
        else:
            scale = draw(st.sampled_from((2, 1000)))
            series.append(rng.integers(-scale, scale + 1, size=m * n) / scale)
    return np.array(series, dtype=np.float64).reshape(b, m, n), z, draw(st.integers(1, 300))


_ULP = np.nextafter(1.0, 2.0) - 1.0


@settings(max_examples=200, deadline=None)
@given(_rank_batches())
# 1 and 1 + ulp have the midpoint 1; 1 + ulp and 1 + 2 ulp have 1 + 2 ulp
@example((np.array([[[1.0, 1.0 + _ULP], [1.0 + _ULP, 1.0 + 2 * _ULP]]]), 0, 100))
# sums past float64 range: the midpoints take the halves path
@example((np.array([[[1.6e308, 1.7e308], [-1.7e308, -1.6e308]]]), 0, 100))
@example((_SHUFFLED[None], 0, 5))  # 159 midpoints thinned to 5
@example((np.stack([np.full((4, 40), 2.5), _SHUFFLED]), 0, 100))  # a constant attribute
@example((np.round(_SHUFFLED / 40)[None], 0, 100))  # repeated values
@example((np.random.default_rng(3).normal(size=(2, 6, 30)), 1, 300))  # degree 1, 173 thresholds: int16
def test_ranked_thresholds_equal_candidate_thresholds_and_a_search_of_them_property(batch):
    """One argsort of each attribute's point-major values gives the
    thresholds that :func:`candidate_thresholds` gives and, in (points, m)
    layout and the smallest rank type, the ranks that searching every value
    in them gives."""
    series, z, cap = batch
    for a, attribute in enumerate(series):
        deriv = np.diff(attribute, n=z, axis=1)
        thresholds, ranks = induction._ranked_thresholds(deriv, cap, a, z)
        want = candidate_thresholds(deriv.ravel(), cap)
        assert thresholds.tolist() == want
        assert ranks.dtype == np.min_scalar_type(-len(want) - 1)
        assert ranks.shape == deriv.T.shape
        assert (ranks == np.searchsorted(want, deriv.T, side="left")).all()


@settings(max_examples=100, deadline=None)
@given(_critical_rank_nodes())
@example((_SHUFFLED[None], _POOL, 0, 127, [0.55, 1.0]))  # 127 thresholds: int8
@example((_SHUFFLED[None], _POOL, 0, 128, [0.55, 1.0]))  # 128 thresholds: int16
@example((np.repeat([[0.5], [1.5], [-2.0]], 2, axis=1)[None], [Interval(0, 1)] * 3, 0, 100, [1.0]))  # j48's static path
# two attributes with 2 and 8 thresholds, and empty windows at degree 2
@example((np.stack([_SHUFFLED, np.round(_SHUFFLED / 40)]), _POOL, 2, 127, [0.55, 1.0]))
# two attributes with 127 (thinned from 151) and 4 thresholds at degree 2
@example((np.stack([np.random.default_rng(3).normal(size=(4, 40)),
                    np.cumsum(np.cumsum(_SHUFFLED % 5, axis=1), axis=1)]), _POOL, 2, 127, [0.55, 1.0]))
# 1 threshold: _SHUFFLED's first differences take two values
@example((_SHUFFLED[None], [Interval(3, 17)] * 4, 1, 300, [0.33, 1.0]))
@example((np.random.default_rng(3).normal(size=(1, 4, 40)), [Interval(3, 17)] * 4, 1, 300, [0.33, 1.0]))  # 155 thresholds: int16
# from [N - 1, N] at degree 3, the one-point windows of Li start at points 1 and N - 3
@example((np.stack([_SHUFFLED, np.round(_SHUFFLED / 40)]), [Interval(39, 40)] * 4, 3, 300, [0.33, 1.0]))
def test_streamed_critical_ranks_equal_the_definition_property(node):
    """For every relation and (comparator, alpha), the critical ranks folded
    in while the windows grow, on one reference or through the sparse
    tables of several, equal :func:`oracles.critical_ranks`, which sorts the
    threshold ranks of each successor's window and takes the k-th; the
    batch's attributes stand side by side, in the smallest rank type."""
    series, references, z, cap, alphas = node
    n = series.shape[2]
    derivs, thresholds, columns = [], [], []
    for a, attribute in enumerate(series):
        deriv = np.diff(attribute, n=z, axis=1)
        found, ranked = induction._ranked_thresholds(deriv, cap, a, z)
        if found.size:
            derivs.append(deriv)
            thresholds.append(found.tolist())
            columns.append(ranked)
    if not derivs:
        return
    m, t = derivs[0].shape[0], max(map(len, thresholds))
    distinct, back = np.unique([ref.x * (n + 1) + ref.y for ref in references], return_inverse=True)
    relations = sorted(Rel, key=lambda r: r.rank)
    box = relation_boxes(relations, *np.divmod(distinct, n + 1), n)
    sweeps = [(c, a) for c in (Comparator.LE, Comparator.GT) for a in alphas]
    ranks = np.concatenate(columns, axis=1, dtype=np.min_scalar_type(-t - 1))
    got = induction._streamed_critical_ranks(
        ranks, t, induction._window_reads(box, n - z), len(relations),
        back if distinct.size > 1 else None, sweeps, n,
    )
    assert all(crit.dtype == np.min_scalar_type(-t - 1) for crit in got)
    for a, (deriv, thr) in enumerate(zip(derivs, thresholds)):
        ranks = (np.array(thr) < deriv[:, :, None]).sum(axis=2).tolist()
        for i, ref in enumerate(references):
            for r, rel in enumerate(relations):
                want = oracles.critical_ranks(ranks[i], ref.x, ref.y, rel, sweeps, n, z, t)
                assert [int(crit[r, a * m + i]) for crit in got] == want, (rel, ref)


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
@given(_split_batches(), st.integers(1, 200), st.integers(1, 100))
@example(([9, 66], 1, [[0, 1]]), 1, 1)  # np.log2(65 / 74) is 1 ulp off math.log2 (numpy 2.4, x86-64)
@example(([9, 66], 1, [[0, 1]]), 200, 100)
def test_split_scorer_equals_info_split_property(batch, more, wider):
    """Scored with a table of its own, or with one built for a node of
    ``more`` instances more and a largest class count ``wider`` larger, as a
    tree's root builds one for every node below it, each row equals
    :func:`info_split` bit for bit."""
    parent, low, rows = batch
    parent_counts = np.array(parent, dtype=np.intp)
    c1 = np.array(rows, dtype=np.intp).reshape(-1, len(parent))
    m = sum(parent)
    larger = induction._entropy_terms(m + more, max(parent) + 1 + wider, low)
    for got in (_split_scorer(parent_counts, low)(c1), _split_scorer(parent_counts, low, larger)(c1)):
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


def _racket_like_dataset():
    """48 Gaussian series of 5 channels and 24 points in four classes; class
    k carries a bump on channel k and a dip on channel k + 1, as the racket
    twin of acceptance criterion 6 does."""
    rng = np.random.default_rng(5)
    instances = []
    for i in range(48):
        k = i % 4
        channels = rng.normal(0.0, 0.5, size=(5, 24))
        channels[k, 3 + 4 * k : 9 + 4 * k] += 2.5
        channels[k + 1, 3 + 4 * k : 9 + 4 * k] -= 1.5
        instances.append(Instance(channels, k))
    return TemporalDataset(instances, [f"c{j}" for j in range(5)], [f"k{j}" for j in range(4)], 24)


def _windowed_searches(dataset, config):
    """Grow a tree, and per split search its instances, those of them that
    moved since their last search (all of them at the root) and the columns
    of ranks whose windows it grew."""
    searches, last = [], {}
    search, windows = induction.best_split, induction._sorted_windows

    def counted_search(instances, config):
        moved = sum(last.get(id(inst.channels)) != inst.reference for inst in instances)
        searches.append([len(instances), moved, 0])
        last.update((id(inst.channels), inst.reference) for inst in instances)
        return search(instances, config)

    def counted_windows(ranks):
        searches[-1][2] += ranks.shape[1]
        return windows(ranks)

    with mock.patch.object(induction, "best_split", counted_search), \
            mock.patch.object(induction, "_sorted_windows", counted_windows):
        tree = grow_tree(dataset, config)
    return tree, searches


def test_grow_tree_grows_windows_only_at_the_root_of_a_one_reference_chain():
    """Every node of the racket-like tree stands on [0, 1] (each satisfied
    side is a leaf), so the windows grow once, at the root, over every
    attribute and instance, and every node below reads the critical values
    the root kept."""
    dataset = _racket_like_dataset()
    tree, searches = _windowed_searches(dataset, LearnerConfig(alpha_grid=(0.6, 0.9)))
    assert len(list(iter_nodes(tree))) >= 3
    assert searches[0] == [48, 48, 5 * 48]
    assert [columns for *_, columns in searches[1:]] == [0] * (len(searches) - 1)


@pytest.mark.parametrize("alpha, min_leaf, top", [(1.0, 2, 0), (0.7, 1, 2)])
def test_grow_tree_grows_windows_again_only_for_moved_instances(tmp_path, alpha, min_leaf, top):
    """On the planted Rise/Fall data, each satisfied modal node moves its
    instances onto witnesses and the nodes below split again, from there or
    from where their instances stood.  A search grows windows for exactly
    the instances that moved since their last search, once per searched
    degree of the one attribute, and none where they all stand still."""
    from test_golden_outputs import _rise_and_fall
    from tstrees.dataio import load_dataset

    _rise_and_fall(tmp_path / "rise_and_fall.csv")
    dataset = load_dataset(tmp_path / "rise_and_fall.csv", "semicolon")
    config = LearnerConfig(alpha_grid=(alpha,), min_leaf_size=min_leaf, max_derivative=top)
    _, searches = _windowed_searches(dataset, config)
    splittable = [(moved, columns) for size, moved, columns in searches if size >= 2 * min_leaf]
    assert [columns for _, columns in splittable] == [(top + 1) * moved for moved, _ in splittable]
    # the root, at least one node below it that moved, and one that stood still
    assert splittable[0][0] == 36
    assert any(moved for moved, _ in splittable[1:]) and any(not moved for moved, _ in splittable)


@st.composite
def _kept_nodes(draw):
    """1 to 3 attributes of 2 to 12 series of 2 to 30 points, each series on
    one of a pool of 1 to 4 references, at a degree up to 2 (and below N),
    each attribute on a coarse grid (tied values) or a fine one; a threshold
    cap of 1, 3 or 100, 1 to 3 alphas, and a node: a non-empty subset of the
    series."""
    b, m, n = draw(st.integers(1, 3)), draw(st.integers(2, 12)), draw(st.integers(2, 30))
    interval = st.integers(0, n - 1).flatmap(
        lambda x: st.integers(x + 1, n).map(lambda y: Interval(x, y))
    )
    pool = draw(st.lists(interval, min_size=1, max_size=4, unique=True))
    references = [draw(st.sampled_from(pool)) for _ in range(m)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = np.array(draw(st.lists(st.sampled_from((2, 1000)), min_size=b, max_size=b)))[:, None, None]
    series = rng.integers(-scale, scale + 1, size=(b, m, n)) / scale
    alphas = draw(st.lists(st.sampled_from((0.33, 0.5, 0.7, 1.0)), min_size=1, max_size=3))
    node = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    return series, references, draw(st.integers(0, min(2, n - 1))), draw(st.sampled_from((1, 3, 100))), alphas, node


def _critical_rank_inputs(references, n, points):
    """The window reads of every relation, in rank order, from the
    references, and each series' index among their distinct ones (None on
    one reference)."""
    distinct, back = np.unique([ref.x * (n + 1) + ref.y for ref in references], return_inverse=True)
    box = relation_boxes(sorted(Rel, key=lambda r: r.rank), *np.divmod(distinct, n + 1), n)
    return induction._window_reads(box, points), back if distinct.size > 1 else None


@settings(max_examples=150, deadline=None)
@given(_kept_nodes())
# 1 threshold: every point ranks 0 or 1
@example((_SHUFFLED[None], _POOL, 0, 1, [0.55, 1.0], [0, 2, 3]))
# two attributes with 2 and 3 thresholds at degree 2, over three references
@example((np.stack([_SHUFFLED, np.round(_SHUFFLED / 40)]), _POOL, 2, 3, [0.33, 1.0], [1, 2, 3]))
def test_node_ranks_of_kept_own_rank_critical_values_equal_the_streamed_ones_property(case):
    """Critical values found once over every series as own ranks (each
    series ranked among its own values), on its own reference, then mapped
    to the thresholds of a node of some of the series, equal the critical
    ranks that :func:`_streamed_critical_ranks` finds on the node's ranks,
    for every relation and (comparator, alpha)."""
    series, references, z, cap, alphas, node = case
    b, m, n = series.shape
    points = n - z
    relations = sorted(Rel, key=lambda r: r.rank)
    sweeps = [(c, a) for c in (Comparator.LE, Comparator.GT) for a in alphas]
    derivs = np.diff(series, n=z, axis=2)
    # found once, column a * m + i
    order = derivs.reshape(b * m, points).argsort(axis=1)
    owned = np.empty((points, b * m), dtype=np.uint8)
    owned.reshape(-1)[induction._sorted_at(order)] = np.arange(1, points + 1)
    reads, back = _critical_rank_inputs(references, n, points)
    kept = induction._streamed_critical_ranks(owned, points + 1, reads, len(relations), back, sweeps, n, 0)
    # the node's thresholds and ranks
    columns, ranked = [], []
    for a in range(b):
        found, ranks = induction._ranked_thresholds(derivs[a, node], cap, a, z)
        if found.size:
            columns.extend(a * m + i for i in node)
            ranked.append((found.size, ranks))
    if not ranked:
        return
    t = max(size for size, _ in ranked)
    ranks = np.concatenate([ranks for _, ranks in ranked], axis=1, dtype=np.min_scalar_type(-t - 1))
    reads, back = _critical_rank_inputs([references[i] for i in node], n, points)
    want = induction._streamed_critical_ranks(ranks, t, reads, len(relations), back, sweeps, n)
    table = induction._rank_table(induction._sorted_at(order[columns]), ranks, t)
    got = induction._node_ranks([crit[:, columns] for crit in kept], table)
    for (comparator, alpha), g, w in zip(sweeps, got, want):
        assert g.dtype == w.dtype and (g == w).all(), (comparator, alpha)


@settings(max_examples=150, deadline=None)
@given(_batched_nodes(), st.data())
def test_best_split_in_a_tree_equals_a_public_search_property(node, data):
    """Inside a tree, a node that finds its critical values as own ranks and
    keeps them, a node below it whose instances stand still and read them
    back, and a node whose instances moved and find them again each split
    as a public search of the same instances does, which finds them on its
    node ranks."""
    instances, config = node
    below = [instances[k] for k in sorted(data.draw(st.sets(st.integers(0, len(instances) - 1), min_size=1)))]
    n = instances[0].series_length
    moved = [inst.with_reference(data.draw(st.sampled_from(oracles.all_intervals(n)).map(lambda iv: Interval(*iv))))
             for inst in below]
    want = [best_split(part, config) for part in (instances, below, moved)]
    token = induction._growing.set(induction._Seen(instances, config))
    try:
        got = [best_split(part, config) for part in (instances, below, moved)]
    finally:
        induction._growing.reset(token)
    assert got == want


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


def _leaves_in_order(draw, depth, n, c, leaves):
    """A random tree of depth <= ``depth`` whose leaf j (in drawing order)
    carries the counts (j + 1,), so that the leaf an instance reaches is
    known from its counts alone."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaves.append(None)
        return Leaf(0, (len(leaves),))
    decision = TemporalDecision(
        relation=draw(st.sampled_from(FULL_HS)),
        attribute_index=draw(st.integers(0, c - 1)),
        derivative_degree=draw(st.integers(0, min(2, n - 1))),
        comparator=draw(st.sampled_from((Comparator.LE, Comparator.GT))),
        threshold=draw(st.integers(-6, 6)) / 4,
        alpha=draw(st.sampled_from((0.3, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0))
                   | st.floats(0.01, 1.0, allow_subnormal=False)),
    )
    left = _leaves_in_order(draw, depth - 1, n, c, leaves)
    return Node(decision, left, _leaves_in_order(draw, depth - 1, n, c, leaves))


@st.composite
def _walks(draw):
    """One to twelve instances of one or two channels over 2 to 40 points,
    with values on a coarse grid, and a tree of depth <= 3 over every
    relation, ``<=`` and ``>``, degree up to 2 and grid or uniform alphas."""
    n, c = draw(st.integers(2, 40)), draw(st.integers(1, 2))
    instances = [
        Instance(np.array(draw(st.lists(st.integers(-2, 2), min_size=c * n, max_size=c * n)),
                          dtype=np.float64).reshape(c, n) / 2, 0)
        for _ in range(draw(st.integers(1, 12)))
    ]
    return _leaves_in_order(draw, 3, n, c, []), instances


def _long_walk(n):
    """Four series of 0/1 values over ``n`` points and a depth-2 tree whose
    modal decisions move them onto different witnesses."""
    rng = np.random.default_rng(n)
    instances = [Instance((rng.random((1, n)) < 0.75).astype(float), 0) for _ in range(4)]
    tree = Node(
        TemporalDecision(Rel.BI, 0, 0, Comparator.GT, 0.5, 0.9),
        Node(TemporalDecision(Rel.L, 0, 1, Comparator.LE, 0.5, 0.6), Leaf(0, (1,)), Leaf(0, (2,))),
        Node(TemporalDecision(Rel.A, 0, 2, Comparator.GT, -0.5, 0.75), Leaf(0, (3,)), Leaf(0, (4,))),
    )
    return tree, instances


def _slow_walk(tree, instance):
    """The leaf one instance reaches, one ``oracles.slow_check`` per node."""
    walker, node = instance.with_reference(Interval(0, 1)), tree
    while isinstance(node, Node):
        ok, witness = oracles.slow_check(walker, node.decision)
        if ok and witness is not None:
            walker = walker.with_reference(Interval(*witness))
        node = node.left if ok else node.right
    return node.class_index, node.class_counts


@settings(max_examples=200, deadline=None)
@given(_walks())
@example(_long_walk(126))
@example(_long_walk(150))
def test_classify_all_matches_a_slow_walk_per_instance_property(walk):
    """Routing a batch node by node reaches, for every instance, the leaf
    that a walk of its own by the definition reaches, although the
    instances that meet at a node may stand on different witnesses; and
    ``classify``, its one-instance call, agrees."""
    tree, instances = walk
    want = [_slow_walk(tree, inst) for inst in instances]
    assert classify_all(tree, instances) == want
    assert [classify(tree, inst) for inst in instances] == want
