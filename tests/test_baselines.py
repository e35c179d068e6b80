import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tstrees import baselines
from tstrees.baselines import (
    DISTANCE_METRICS,
    FeatureMask,
    _distances,
    dtw,
    dtw_d,
    dtw_i,
    euclidean_i,
    extract_features,
    feature_table,
    nn_classify,
    nn_predict,
)
from tstrees.core import DataFormatError, Instance, TemporalDataset

import oracles


def inst(*channels, cls=0):
    return Instance(np.array(channels, dtype=np.float64), cls)


_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)


def test_feature_mask_validation():
    FeatureMask(True, False, False, False)
    with pytest.raises(ValueError):
        FeatureMask(False, False, False, False)
    assert FeatureMask.from_bits("1100").bits() == "1100"
    with pytest.raises(ValueError):
        FeatureMask.from_bits("10")
    with pytest.raises(ValueError):
        FeatureMask.from_bits("10a0")


def test_extract_features_examples():
    mean_only = extract_features(inst([1.0, 2.0, 3.0, 4.0]), FeatureMask.from_bits("1000"))
    assert mean_only.tolist() == [2.5]

    skew = extract_features(inst([1.0, 2.0, 3.0, 4.0, 5.0]), FeatureMask.from_bits("0010"))
    assert skew.tolist() == [0.0]

    both = extract_features(inst([1.0, 2.0, 3.0, 4.0]), FeatureMask.from_bits("1100"))
    assert both[0] == 2.5
    assert both[1] == math.sqrt(1.25)
    assert round(both[1], 4) == 1.1180


def test_extract_features_constant_channel_convention():
    feats = extract_features(inst([3.0, 3.0, 3.0]), FeatureMask.from_bits("1111"))
    assert feats.tolist() == [3.0, 0.0, 0.0, 0.0]


def test_extract_features_layout():
    got = extract_features(
        inst([1.0, 2.0], [10.0, 20.0]), FeatureMask.from_bits("1100")
    )
    # channel-major: all of channel 0's stats first
    assert got.tolist() == [1.5, 0.5, 15.0, 5.0]


def _ref_channel_stats(values, mask):
    """One channel's statistics as a per-channel loop computes them, kept as
    the reference for the stacked feature table."""
    n = values.shape[0]
    mean = float(values.sum() / n)
    centered = values - mean
    std = math.sqrt(float((centered**2).sum() / n))
    out = []
    if mask.mean:
        out.append(mean)
    if mask.std:
        out.append(std)
    if mask.skewness:
        out.append(float((centered**3).sum() / n) / std**3 if std > 0 else 0.0)
    if mask.kurtosis:
        out.append(float((centered**4).sum() / n) / std**4 if std > 0 else 0.0)
    return out


@st.composite
def _feature_cases(draw):
    """r instances of c channels and n points, about one channel in four
    constant, and a non-empty feature mask."""
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    instances = []
    for _ in range(r):
        rows = []
        for _ in range(c):
            if draw(st.integers(0, 3)) == 0:
                rows.append([draw(_values)] * n)
            else:
                rows.append(draw(st.lists(_values, min_size=n, max_size=n)))
        instances.append(Instance(np.array(rows), 0))
    bits = draw(st.sampled_from([f"{k:04b}" for k in range(1, 16)]))
    return instances, FeatureMask.from_bits(bits)


@settings(max_examples=100, deadline=None)
@given(_feature_cases())
@example(([inst([3.0, 3.0, 3.0], [1.0, 2.0, 4.0]), inst([0.5, 0.5, 0.5], [0.0, 0.0, 0.0])], FeatureMask.from_bits("1111")))
def test_feature_table_equals_the_per_channel_reference(case):
    instances, mask = case
    c, n = instances[0].channels.shape
    dataset = TemporalDataset(instances, [f"a{i}" for i in range(c)], ["u"], n)
    table, names = feature_table(dataset, mask)
    want = [[v for ch in x.channels for v in _ref_channel_stats(ch, mask)] for x in instances]
    assert table.shape == (len(instances), len(names)) and table.tolist() == want
    assert [extract_features(x, mask).tolist() for x in instances] == want


def test_feature_table_names():
    ds = TemporalDataset(
        [inst([1.0, 2.0], [3.0, 4.0])], ["gyr", "acc"], ["c"], 2
    )
    table, names = feature_table(ds, FeatureMask.from_bits("1010"))
    assert names == ["gyr_mean", "gyr_skew", "acc_mean", "acc_skew"]
    assert table.shape == (1, 4)


def test_euclidean_examples():
    a = inst([0.0, 0.0])
    b = inst([3.0, 4.0])
    assert euclidean_i(a, a) == 0.0
    assert euclidean_i(a, b) == 5.0
    a2 = inst([0.0, 0.0], [0.0, 0.0])
    b2 = inst([3.0, 4.0], [3.0, 4.0])
    assert euclidean_i(a2, b2) == 10.0
    with pytest.raises(ValueError):
        euclidean_i(a, a2)


def test_dtw_examples():
    assert dtw([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert dtw([0.0, 0.0], [1.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        dtw([], [1.0])


def test_dtw_matches_path_enumeration(rng):
    for _ in range(150):
        la, lb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = np.round(rng.normal(size=la), 3)
        b = np.round(rng.normal(size=lb), 3)
        assert abs(dtw(a, b) - oracles.dtw_univariate_oracle(a, b)) <= 1e-9


def test_dtw_i_examples(rng):
    a = inst([1.0, 5.0, 2.0])
    b = inst([2.0, 4.0, 2.0])
    assert dtw_i(a, a) == 0.0
    assert dtw_i(a, b) == dtw(a.channels[0], b.channels[0])
    a2 = inst([1.0, 5.0], [0.0, 2.0])
    b2 = inst([2.0, 4.0], [1.0, 1.0])
    assert dtw_i(a2, b2) == dtw(a2.channels[0], b2.channels[0]) + dtw(
        a2.channels[1], b2.channels[1]
    )


def test_dtw_d_examples(rng):
    a = inst([1.0, 5.0, 2.0])
    b = inst([2.0, 4.0, 2.0])
    assert dtw_d(a, a) == 0.0
    assert dtw_d(a, b) == dtw(a.channels[0], b.channels[0])
    a2 = inst([1.0, 5.0, 0.0], [0.0, 2.0, 1.0])
    b2 = inst([2.0, 4.0, 1.0], [1.0, 1.0, 0.0])
    assert abs(dtw_d(a2, b2) - oracles.dtw_dependent_oracle(a2.channels, b2.channels)) <= 1e-9


def test_distance_properties(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        length = int(rng.integers(2, 6))
        a = Instance(np.round(rng.normal(size=(n, length)), 2), 0)
        b = Instance(np.round(rng.normal(size=(n, length)), 2), 0)
        for fn in (euclidean_i, dtw_i, dtw_d):
            assert fn(a, b) >= 0.0
            assert fn(a, b) == fn(b, a)
            assert fn(a, a) == 0.0
        # dtw never exceeds the diagonal alignment cost
        for ch in range(n):
            diag = float(((a.channels[ch] - b.channels[ch]) ** 2).sum())
            assert dtw(a.channels[ch], b.channels[ch]) <= diag + 1e-12


def test_nn_classify_examples():
    train = TemporalDataset(
        [inst([0.0, 0.0], cls=0), inst([5.0, 5.0], cls=1), inst([9.0, 9.0], cls=2)],
        ["a0"],
        ["u", "v", "w"],
        2,
    )
    assert nn_classify(train, inst([8.0, 8.0]), "ed-i") == 2
    assert nn_classify(train, inst([5.0, 5.0]), "ed-i") == 1
    single = TemporalDataset([inst([1.0, 1.0], cls=0)], ["a0"], ["u"], 2)
    assert nn_classify(single, inst([100.0, -100.0]), "dtw-d") == 0
    with pytest.raises(ValueError):
        nn_classify(TemporalDataset([], ["a0"], ["u"], 2), inst([1.0, 1.0]), "ed-i")
    with pytest.raises(ValueError):
        nn_classify(train, inst([1.0, 1.0]), "bogus")
    for metric in DISTANCE_METRICS:
        assert nn_predict(train, [], metric) == []
        assert nn_predict(train, [inst([8.0, 9.0]), inst([1.0, 0.0]), inst([5.0, 4.0])], metric) == [2, 0, 1]
        with pytest.raises(ValueError, match="non-empty training set"):
            nn_predict(TemporalDataset([], ["a0"], ["u"], 2), [inst([1.0, 1.0])], metric)
    with pytest.raises(ValueError, match="unknown metric"):
        nn_predict(train, [inst([1.0, 1.0])], "bogus")


def test_nn_tie_breaks_to_lowest_index():
    train = TemporalDataset(
        [inst([1.0, 1.0], cls=1), inst([1.0, 1.0], cls=0)], ["a0"], ["u", "v"], 2
    )
    assert nn_classify(train, inst([1.0, 1.0]), "ed-i") == 1
    assert nn_classify(train, inst([1.0, 1.0]), "dtw-i") == 1
    # duplicates at indices 1 and 3 that are nearest but not exact matches;
    # the lower index wins under every metric, whichever duplicate it holds
    near = [[1.0, 3.0, 2.0], [0.0, -1.0, 4.0]]
    far = [inst([9.0, 9.0, 9.0], [9.0, 9.0, 9.0]), inst([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])]
    query = inst([1.0, 2.5, 2.0], [0.5, -1.0, 4.0])
    for first, second in ((2, 1), (1, 2)):
        train = TemporalDataset(
            [far[0], inst(*near, cls=first), far[1], inst(*near, cls=second)],
            ["a", "b"],
            ["u", "v", "w"],
            3,
        )
        for metric in DISTANCE_METRICS:
            assert nn_classify(train, query, metric) == first, metric


def test_nn_invariant_under_training_permutation(rng):
    for _ in range(10):
        base = [
            Instance(np.round(rng.normal(size=(2, 4)), 3), int(rng.integers(0, 3)))
            for _ in range(6)
        ]
        query = Instance(np.round(rng.normal(size=(2, 4)), 3), 0)
        names = ["u", "v", "w"]
        train = TemporalDataset(list(base), ["a", "b"], names, 4)
        want = nn_classify(train, query, "dtw-d")
        order = rng.permutation(6)
        shuffled = TemporalDataset([base[i] for i in order], ["a", "b"], names, 4)
        # distances are distinct with probability one, so the permutation
        # cannot change the winner
        assert nn_classify(shuffled, query, "dtw-d") == want


# -- per-pair scalar reference -------------------------------------------
# One (training series, query) pair at a time, DTW as a Python double loop.
# Each cell sees the same operands as in the batched kernel, so the batched
# distances must equal these exactly, not within a tolerance.


def _ref_dtw_on_cost(cost):
    n = len(cost)
    m = len(cost[0])
    inf = math.inf
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        row = cost[i - 1]
        cur = [inf] * (m + 1)
        for j in range(1, m + 1):
            best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            if prev[j - 1] < best:
                best = prev[j - 1]
            cur[j] = row[j - 1] + best
        prev = cur
    return prev[m]


def _ref_dtw(a, b):
    sa = np.asarray(a, dtype=np.float64)
    sb = np.asarray(b, dtype=np.float64)
    return _ref_dtw_on_cost(((sa[:, None] - sb[None, :]) ** 2).tolist())


def _ref_euclidean_i(a, b):
    diff = a.channels - b.channels
    return float(np.sqrt((diff**2).sum(axis=1)).sum())


def _ref_dtw_i(a, b):
    return sum(_ref_dtw(a.channels[ch], b.channels[ch]) for ch in range(a.channel_count))


def _ref_dtw_d(a, b):
    diff = a.channels[:, :, None] - b.channels[:, None, :]
    return _ref_dtw_on_cost((diff**2).sum(axis=0).tolist())


_REFERENCE = {"ed-i": _ref_euclidean_i, "dtw-i": _ref_dtw_i, "dtw-d": _ref_dtw_d}


def _ref_nn_classify(train, query, metric):
    func = _REFERENCE[metric]
    best_idx = 0
    best_dist = func(train.instances[0], query)
    for idx in range(1, len(train.instances)):
        d = func(train.instances[idx], query)
        if d < best_dist:
            best_dist = d
            best_idx = idx
    return train.instances[best_idx].class_index


@st.composite
def _batches(draw):
    """r training series and g queries of c channels and n points, two
    univariate series of lengths n and m for the pairwise ``dtw``, and a
    budget of cells per DTW pass, mostly small enough to split the queries,
    the training series or both over several passes.  c runs up to six, the
    racket twin's width, so the ``dtw-d`` channel sums are checked at that
    length."""
    r = draw(st.integers(1, 5))
    g = draw(st.integers(1, 7))
    c = draw(st.integers(1, 6))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 8))
    series = st.lists(_values, min_size=c * n, max_size=c * n)
    train = [np.array(draw(series)).reshape(c, n) for _ in range(r)]
    queries = [np.array(draw(series)).reshape(c, n) for _ in range(g)]
    a = np.array(draw(st.lists(_values, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(_values, min_size=m, max_size=m)))
    classes = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
    cells = draw(st.one_of(st.just(baselines._PASS_BUDGET), st.integers(1, 9 * 5 * 7)))
    return train, queries, a, b, classes, cells


_tied = [np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 1e3]])] * 2
# at the real budget the widest pass over two-point series is a one-channel
# one; this training set is wider than that
_wide = np.random.default_rng(11).integers(-4, 5, size=(baselines._pass_columns(2, 2, 1) + 3, 2, 2)) * 0.5


@settings(max_examples=300, deadline=None)
@given(_batches())
@example(([np.array([[2.0, 1e-3]])], [np.array([[1e3, -5.0]])], np.array([7.0, 1.0]), np.array([3.0]), [0], baselines._PASS_BUDGET))
# 3 + 1 queries per pass over one training series, then 5 series over
# passes of 2 + 2 + 1 for each single query
@example(
    (
        [np.array([[0.0, 1.0, -2.0]])],
        [np.array([[0.5, 1.0, 2.0]]), np.array([[1e3, 0.0, -1e3]]),
         np.array([[-1.0, -1.0, 4.0]]), np.array([[0.0, 0.0, 1e-3]])],
        np.array([1.0, 2.0, 3.0]),
        np.array([0.0, 2.0]),
        [2],
        70,
    )
)
@example(
    (
        [np.array([[float(s), 1.0 - s]]) for s in range(5)],
        [np.array([[0.5, 1.0]])] * 3,
        np.array([1.0, 2.0]),
        np.array([0.0, 2.0, 5.0]),
        [0, 1, 2, 0, 1],
        37,
    )
)
# tied duplicate training series of different classes: the first one wins
@example(
    (
        _tied,
        [np.array([[3.0, 2.0, 1.0], [-1e-3, 0.0, 1.0]]), np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 1e3]])],
        np.array([1e3, -1e3]),
        np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        [1, 2],
        baselines._PASS_BUDGET,
    )
)
@example(
    (
        [np.array([[9.0, 9.0, 9.0], [9.0, 9.0, 9.0]])] + _tied + [np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])],
        [np.array([[1.0, 2.5, 3.0], [0.5, -1.0, 1e3]])] * 3,
        np.array([1.0, 2.0, 4.0]),
        np.array([2.0]),
        [0, 2, 1, 0],
        73,
    )
)
@example(
    (
        list(_wide),
        [np.array([[0.3, -1.2], [2.0, 0.1]]), np.array([[1.0, 1.0], [-1.5, 0.5]])],
        np.array([1.0, -2.0]),
        np.array([0.5, 0.0, 2.0]),
        [k % 3 for k in range(len(_wide))],
        baselines._PASS_BUDGET,
    )
)
def test_batched_distances_equal_the_scalar_reference(batch):
    train, queries, a, b, classes, cells = batch
    c, n = queries[0].shape
    instances = [Instance(x, cls) for x, cls in zip(train, classes)]
    targets = [Instance(x, 0) for x in queries]
    dataset = TemporalDataset(instances, [f"a{i}" for i in range(c)], ["u", "v", "w"], n)
    with mock.patch.object(baselines, "_PASS_BUDGET", cells):
        for metric, func in _REFERENCE.items():
            dist = _distances(instances, targets, metric)
            assert dist.shape == (len(targets), len(instances))
            for row, q in zip(dist.tolist(), targets):
                assert row == [func(inst, q) for inst in instances]
            want = [_ref_nn_classify(dataset, q, metric) for q in targets]
            assert nn_predict(dataset, targets, metric) == want
            assert [nn_classify(dataset, q, metric) for q in targets] == want
        q = targets[-1]
        for inst in instances:
            assert euclidean_i(inst, q) == _ref_euclidean_i(inst, q)
            assert dtw_i(inst, q) == _ref_dtw_i(inst, q)
            assert dtw_d(inst, q) == _ref_dtw_d(inst, q)
        # unequal lengths, and a one-point series on either side
        assert dtw(a, b) == _ref_dtw(a, b)
        assert dtw(b, a) == _ref_dtw(b, a)
        assert dtw(a[:1], b) == _ref_dtw(a[:1], b)


def _pass_cells(call):
    """Float64 cells that one :func:`baselines._dtw_pass` call holds: its
    two tiles and the work array it takes its buffers from are views of one
    allocation, counted whole."""
    assert len({id(x.base) for x in call.args}) == 1
    return call.args[0].base.size


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 6),
    st.integers(1, 9), st.integers(1, 9), st.integers(1, 20_000),
)
def test_a_dtw_pass_holds_at_most_the_budget(n, m, c, r, g, budget):
    rng = np.random.default_rng(0)
    series, steps = rng.normal(size=(n, c, r)), rng.normal(size=(m, c, g))
    pairs = np.array(np.divmod(np.arange(g * r), r))
    with mock.patch.object(baselines, "_PASS_BUDGET", budget):
        with mock.patch.object(baselines, "_dtw_pass", wraps=baselines._dtw_pass) as passes:
            baselines._dtw(series, steps)
        with mock.patch.object(baselines, "_dtw_pass", wraps=baselines._dtw_pass) as pair_passes:
            baselines._pair_dtw_i(series, steps, pairs)
    # every pass runs on C-contiguous, paired columns, within the budget
    # unless it holds the one column that every pass may hold
    for call in passes.call_args_list + pair_passes.call_args_list:
        train, queries, _ = call.args
        assert train.flags.c_contiguous and queries.flags.c_contiguous
        assert train.ctypes.data % 64 == 0  # the workspace starts on a cache line
        assert train.shape[1:] == queries.shape[1:] and queries.shape[0] == m
        assert train.shape[2] == 1 or _pass_cells(call) <= budget
    # the pruned dtw-i search keeps its passes to half the budget, apart
    # from the 7 cells that align a pass's workspace
    for call in pair_passes.call_args_list:
        assert call.args[0].shape[2] == 1 or _pass_cells(call) <= budget // 2 + 7
    assert sum(call.args[0].shape[2] for call in passes.call_args_list) == g * r
    assert sum(call.args[0].shape[2] for call in pair_passes.call_args_list) == g * r * c


def test_a_racket_sized_dtw_d_pass_holds_two_queries():
    # the racket-compare benchmark's shape: 96 training series of 6 channels
    # and 30 points, and 24 queries; one query per pass measured no faster
    rng = np.random.default_rng(3)
    train = TemporalDataset(
        [Instance(rng.normal(size=(6, 30)), k % 4) for k in range(96)],
        [f"a{i}" for i in range(6)], ["u", "v", "w", "x"], 30,
    )
    queries = [Instance(rng.normal(size=(6, 30)), 0) for _ in range(24)]
    with mock.patch.object(baselines, "_dtw_pass", wraps=baselines._dtw_pass) as passes:
        nn_predict(train, queries, "dtw-d")
    assert [call.args[0].shape[2] for call in passes.call_args_list] == [2 * 96] * 12
    assert all(_pass_cells(call) <= baselines._PASS_BUDGET for call in passes.call_args_list)
    # what tracemalloc sees the passes allocate stays within the budget and
    # the (24, 96) table they fill
    series = baselines._stack(train.instances).transpose(2, 1, 0).copy()
    steps = baselines._stack(queries).transpose(2, 1, 0)[::-1].copy()
    tracemalloc.start()
    try:
        baselines._dtw(series, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (baselines._PASS_BUDGET + 24 * 96)


@pytest.mark.parametrize("metric", DISTANCE_METRICS)
def test_nn_classify_refuses_a_query_of_another_shape(metric):
    rng = np.random.default_rng(7)
    train = TemporalDataset(
        [Instance(rng.normal(size=(2, 30)), cls) for cls in (0, 1, 0)], ["a", "b"], ["u", "v"], 30
    )
    # DTW would warp a 40-point query onto 30-point series without complaint
    longer = Instance(rng.normal(size=(2, 40)), 0)
    with pytest.raises(ValueError, match="mismatched shapes"):
        nn_classify(train, longer, metric)
    one_channel = Instance(rng.normal(size=(1, 30)), 0)
    with pytest.raises(ValueError, match="mismatched shapes"):
        nn_classify(train, one_channel, metric)
    three_channels = Instance(rng.normal(size=(3, 30)), 0)
    with pytest.raises(ValueError, match="mismatched shapes"):
        nn_classify(train, three_channels, metric)
    # in a batch, the last query alone is enough to refuse it
    fitting = [Instance(rng.normal(size=(2, 30)), 0) for _ in range(4)]
    for odd in (longer, three_channels):
        with pytest.raises(ValueError, match="mismatched shapes"):
            nn_predict(train, fitting + [odd], metric)
    # and so is one training instance of another shape
    with pytest.raises(ValueError, match="mismatched shapes"):
        _distances(train.instances + [longer], fitting, metric)


# -- exact pruning of 1-NN DTW-I -------------------------------------------
# nn_predict scores a DTW-I pair only when its envelope bound cannot rule it
# out; the answer must stay the argmin of the full table.


def _full_dtw_i_argmin(train, queries):
    dist = _distances(train.instances, queries, "dtw-i")
    return [train.instances[i].class_index for i in np.argmin(dist, axis=1).tolist()]


@st.composite
def _planted(draw):
    """A training set and queries drawn around q class centres that lie far
    apart, so the envelope bound rules out most pairs of other classes."""
    q = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, 12))
    g = draw(st.integers(1, 4))
    noise = st.lists(st.floats(-1.0, 1.0), min_size=c * n, max_size=c * n)

    def near(cls):
        return Instance(10.0 * cls + np.array(draw(noise)).reshape(c, n), cls)

    classes = draw(st.lists(st.integers(0, q - 1), min_size=r, max_size=r))
    train = TemporalDataset(
        [near(cls) for cls in classes], [f"a{i}" for i in range(c)], ["u", "v", "w"], n
    )
    queries = [near(draw(st.integers(0, q - 1))) for _ in range(g)]
    return train, queries


@settings(max_examples=100, deadline=None)
@given(_planted())
def test_pruned_dtw_i_equals_the_full_table_argmin(case):
    train, queries = case
    assert nn_predict(train, queries, "dtw-i") == _full_dtw_i_argmin(train, queries)
    # every pair it scores holds the full table's value, and a pair left out
    # is strictly farther than the query's nearest
    full = _distances(train.instances, queries, "dtw-i")
    pruned = baselines._nearest_dtw_i(train.instances, queries)
    scored = np.isfinite(pruned)
    assert (pruned[scored] == full[scored]).all()
    assert (full > full.min(axis=1, keepdims=True))[~scored].all()


def test_pruning_skips_pairs_on_planted_data():
    rng = np.random.default_rng(5)
    train = TemporalDataset(
        [Instance(10.0 * (k % 3) + rng.normal(size=(2, 12)), k % 3) for k in range(30)],
        ["a", "b"],
        ["u", "v", "w"],
        12,
    )
    queries = [Instance(10.0 * (k % 3) + rng.normal(size=(2, 12)), 0) for k in range(6)]
    with mock.patch.object(baselines, "_dtw_pass", wraps=baselines._dtw_pass) as passes:
        got = nn_predict(train, queries, "dtw-i")
    assert got == _full_dtw_i_argmin(train, queries) == [k % 3 for k in range(6)]
    # a pass's columns are the last axis of its (n, c, w) arguments; with the
    # bound switched off the passes would score all 6 * 30 pairs of 2 channels
    columns = sum(call.args[0].shape[2] for call in passes.call_args_list)
    assert columns < 6 * 30 * 2 // 2


def test_pruning_keeps_pairs_whose_bound_equals_the_distance():
    # against a constant series both the bound and the DTW are the diagonal
    # sum, so six tied series all hold the smallest bound: four are seeds and
    # the other two must still be scored, not ruled out by their equal bound
    train = TemporalDataset(
        [inst([0.0, 0.0], cls=k % 3) for k in range(6)] + [inst([5.0, 5.0], cls=2)],
        ["a"],
        ["u", "v", "w"],
        2,
    )
    query = [inst([1.0, -1.0])]
    pruned = baselines._nearest_dtw_i(train.instances, query)
    assert pruned[0].tolist() == [2.0] * 6 + [np.inf]
    assert nn_predict(train, query, "dtw-i") == _full_dtw_i_argmin(train, query) == [0]


def test_pruning_keeps_a_tie_below_the_seeds():
    # for the query [0, 2], [1, 1] (index 0) and the seed [1, 3] both lie at
    # DTW 2, but [1, 1] bounds at 2 and four series bound at 1, so it is no
    # seed; it must be scored and win the tie as the lower index
    train = TemporalDataset(
        [inst([1.0, 1.0], cls=0), inst([3.0, 1.0], cls=2), inst([1.0, 3.0], cls=1),
         inst([3.0, 1.0], cls=2), inst([3.0, 1.0], cls=2)],
        ["a"],
        ["u", "v", "w"],
        2,
    )
    query = [inst([0.0, 2.0])]
    assert baselines._envelope_bounds(*(baselines._stack(x).T.copy() for x in (train.instances, query))).tolist() == [
        [2.0, 1.0, 1.0, 1.0, 1.0]
    ]
    assert baselines._nearest_dtw_i(train.instances, query).tolist() == [[2.0, 10.0, 2.0, 10.0, 10.0]]
    assert nn_predict(train, query, "dtw-i") == _full_dtw_i_argmin(train, query) == [0]


def test_pruning_with_one_training_series():
    train = TemporalDataset([inst([1.0, 4.0, 2.0], [0.0, 1.0, 0.0], cls=1)], ["a", "b"], ["u", "v"], 3)
    queries = [inst([9.0, 9.0, 9.0], [-3.0, 0.0, 2.0]), inst([1.0, 4.0, 2.0], [0.0, 1.0, 0.0])]
    assert nn_predict(train, queries, "dtw-i") == [1, 1]


def test_pruning_with_nan_and_inf():
    # a NaN bound or seed distance rules nothing out, an inf bound only what
    # an inf distance would lose anyway; the first NaN in a row stays its argmin
    finite = [inst([float(k), 2.0, -1.0], [0.5, 0.0, float(k)], cls=k % 2) for k in range(6)]
    nan_series = inst([1.0, np.nan, 0.0], [0.0, 0.0, 0.0], cls=1)
    inf_series = inst([1.0, 2.0, np.inf], [0.0, 0.0, 0.0], cls=1)
    queries = [inst([0.0, 2.0, -1.0], [0.5, 0.0, 0.0]), inst([1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]),
               inst([1.0, 2.0, np.inf], [0.0, 0.0, 0.0]), inst([np.nan, 2.0, 1.0], [0.0, 0.0, 0.0])]
    # inf - inf in a local cost is NaN, in the full table as in the bound
    with np.errstate(invalid="ignore"):
        # a TemporalDataset refuses non-finite training values, so the
        # training side is checked on the table
        for series in (
            finite[:2] + [nan_series] + finite[2:],
            finite[:5] + [inf_series] + finite[5:],
            [inf_series] + finite + [nan_series],
        ):
            want = np.argmin(_distances(series, queries, "dtw-i"), axis=1).tolist()
            assert np.argmin(baselines._nearest_dtw_i(series, queries), axis=1).tolist() == want
        train = TemporalDataset(finite, ["a", "b"], ["u", "v"], 3)
        assert nn_predict(train, queries, "dtw-i") == _full_dtw_i_argmin(train, queries)


def test_one_pair_distances_out_of_float64_range_raise_without_a_warning():
    # (4e160 - 1e160) ** 2 overflows; nn_predict refuses it, and so must the
    # one-pair calls, not warn and return inf
    a, b = [1e160, 2e160], [4e160, 5e160]
    ia, ib = Instance(np.array([a]), 0), Instance(np.array([b]), 0)
    calls = [("dtw", dtw, a, b), ("ed-i", euclidean_i, ia, ib), ("dtw-i", dtw_i, ia, ib),
             ("dtw-d", dtw_d, ia, ib)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for metric, distance, x, y in calls:
            with pytest.raises(DataFormatError, match=f"the {metric} distances are out of float64 range"):
                distance(x, y)
        train = TemporalDataset([ia], ["a"], ["u"], 2)
        with pytest.raises(DataFormatError, match="the dtw-d distances are out of float64 range"):
            nn_predict(train, [ib], "dtw-d")
