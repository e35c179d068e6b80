import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tstrees.baselines import (
    DISTANCE_METRICS,
    FeatureMask,
    _channel_rows,
    _distances,
    dtw,
    dtw_d,
    dtw_i,
    euclidean_i,
    extract_features,
    feature_table,
    nn_classify,
)
from tstrees.core import Instance, TemporalDataset

import oracles


def inst(*channels, cls=0):
    return Instance(np.array(channels, dtype=np.float64), cls)


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


_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
)


@st.composite
def _batches(draw):
    """r training series and one query of c channels and n points, plus two
    univariate series of lengths n and m for the pairwise ``dtw``."""
    r = draw(st.integers(1, 5))
    c = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 8))
    series = st.lists(_values, min_size=c * n, max_size=c * n)
    train = [np.array(draw(series)).reshape(c, n) for _ in range(r)]
    query = np.array(draw(series)).reshape(c, n)
    a = np.array(draw(st.lists(_values, min_size=n, max_size=n)))
    b = np.array(draw(st.lists(_values, min_size=m, max_size=m)))
    classes = draw(st.lists(st.integers(0, 2), min_size=r, max_size=r))
    return train, query, a, b, classes


@settings(max_examples=300, deadline=None)
@given(_batches())
@example(([np.array([[2.0, 1e-3]])], np.array([[1e3, -5.0]]), np.array([7.0, 1.0]), np.array([3.0]), [0]))
@example(
    (
        [np.array([[1.0, 2.0, 3.0], [0.5, 0.25, 1e3]])] * 2,
        np.array([[3.0, 2.0, 1.0], [-1e-3, 0.0, 1.0]]),
        np.array([1e3, -1e3]),
        np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        [1, 2],
    )
)
def test_batched_distances_equal_the_scalar_reference(batch):
    train, query, a, b, classes = batch
    c, n = query.shape
    instances = [Instance(x, cls) for x, cls in zip(train, classes)]
    q = Instance(query, 0)
    rows = _channel_rows(instances)
    for metric, func in _REFERENCE.items():
        want = [func(inst, q) for inst in instances]
        assert _distances(rows, query, metric).tolist() == want
        dataset = TemporalDataset(instances, [f"a{i}" for i in range(c)], ["u", "v", "w"], n)
        assert nn_classify(dataset, q, metric) == _ref_nn_classify(dataset, q, metric)
    for inst in instances:
        assert euclidean_i(inst, q) == _ref_euclidean_i(inst, q)
        assert dtw_i(inst, q) == _ref_dtw_i(inst, q)
        assert dtw_d(inst, q) == _ref_dtw_d(inst, q)
    # unequal lengths, and a one-point series on either side
    assert dtw(a, b) == _ref_dtw(a, b)
    assert dtw(b, a) == _ref_dtw(b, a)
    assert dtw(a[:1], b) == _ref_dtw(a[:1], b)


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
