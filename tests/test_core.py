import numpy as np
import pytest

from tstrees.core import (
    Comparator,
    ConfusionMatrix,
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
    leaf_for_counts,
)


def test_interval_validation():
    Interval(0, 1)
    Interval(2, 7)
    with pytest.raises(ValueError):
        Interval(3, 3)  # point intervals are excluded
    with pytest.raises(ValueError):
        Interval(5, 2)
    with pytest.raises(ValueError):
        Interval(-1, 2)


def test_relation_set_is_thirteen_with_transposes():
    assert len(FULL_HS) == 13
    for rel in FULL_HS:
        assert rel.transpose.transpose is rel
    assert IntervalRelation.EQ.transpose is IntervalRelation.EQ
    inverses = [r for r in FULL_HS if r.is_inverse]
    assert len(inverses) == 6


def test_canonical_relation_order():
    names = [r.name for r in FULL_HS]
    assert names == ["A", "L", "B", "E", "D", "O", "AI", "LI", "BI", "EI", "DI", "OI", "EQ"]
    assert [r.rank for r in FULL_HS] == list(range(13))
    assert [c.rank for c in (Comparator.LE, Comparator.EQ, Comparator.GT)] == [0, 1, 2]


def test_decision_validation():
    ok = TemporalDecision(IntervalRelation.A, 0, 0, Comparator.LE, 1.0, 1.0)
    assert ok.alpha == 1.0
    with pytest.raises(ValueError):
        TemporalDecision(IntervalRelation.A, 0, 0, Comparator.LE, 1.0, 0.0)
    with pytest.raises(ValueError):
        TemporalDecision(IntervalRelation.A, 0, 0, Comparator.LE, 1.0, 1.2)
    with pytest.raises(ValueError):
        TemporalDecision(IntervalRelation.A, -1, 0, Comparator.LE, 1.0, 0.5)


def test_leaf_majority_rule():
    leaf = leaf_for_counts([2, 5, 1])
    assert leaf.class_index == 1
    assert leaf.total == 8 and leaf.errors == 3
    tied = leaf_for_counts([3, 3])
    assert tied.class_index == 0  # ties break to the lowest index
    with pytest.raises(ValueError):
        Leaf(class_index=0, class_counts=(1, 5))


def test_binary_tree_identity():
    decision = TemporalDecision(IntervalRelation.B, 0, 0, Comparator.LE, 0.5, 1.0)
    tree = Node(
        decision,
        Node(decision, leaf_for_counts([1, 0]), leaf_for_counts([0, 1])),
        leaf_for_counts([0, 2]),
    )
    leaves = list(iter_leaves(tree))
    nodes = list(iter_nodes(tree))
    assert len(leaves) == len(nodes) + 1


def test_confusion_matrix_algebra():
    a = ConfusionMatrix.from_rows([[2, 1], [0, 3]])
    b = ConfusionMatrix.from_rows([[1, 0], [1, 1]])
    s = a + b
    assert s.counts == ((3, 1), (1, 4))
    assert s.total == 9 and s.trace == 7
    with pytest.raises(ValueError):
        ConfusionMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        ConfusionMatrix.from_rows([[1, -2], [0, 0]])


def test_confusion_matrix_tally():
    # rows are predicted classes, columns true ones: row 2 holds three
    # predictions of class 2, column 2 one instance of true class 2
    matrix = ConfusionMatrix.tally([0, 2, 2, 1, 2], [0, 1, 2, 1, 0], 3)
    assert matrix.counts == ((1, 0, 0), (0, 1, 0), (1, 1, 1))
    assert matrix.total == 5 and matrix.trace == 3
    assert ConfusionMatrix.tally([], [], 2).counts == ((0, 0), (0, 0))
    with pytest.raises(ValueError, match="2 predictions for 1 instances"):
        ConfusionMatrix.tally([0, 1], [0], 2)
    with pytest.raises(ValueError, match="0 predictions for 1 instances"):
        ConfusionMatrix.tally([], [1], 2)


def test_dataset_validation():
    inst = Instance(np.zeros((2, 4)), 0)
    ds = TemporalDataset([inst], ["a", "b"], ["x", "y"], 4)
    assert ds.attribute_count == 2 and ds.class_count == 2 and ds.size == 1
    with pytest.raises(ValueError):
        TemporalDataset([inst], ["a"], ["x", "y"], 4)  # channel count mismatch
    with pytest.raises(ValueError):
        TemporalDataset([Instance(np.zeros((2, 4)), 5)], ["a", "b"], ["x", "y"], 4)
    with pytest.raises(ValueError):
        TemporalDataset([inst], ["a", "b"], ["x", "y"], 1)
    for bad in (np.nan, np.inf, -np.inf):
        channels = np.zeros((2, 4))
        channels[1, 2] = bad
        with pytest.raises(DataFormatError, match="instance 1: channel 'b' holds a non-finite"):
            TemporalDataset([inst, Instance(channels, 0)], ["a", "b"], ["x", "y"], 4)


def test_dataset_class_counts_and_majority():
    instances = [Instance(np.zeros((1, 3)), c) for c in (0, 1, 1, 2, 1)]
    ds = TemporalDataset(instances, ["a"], ["p", "q", "r"], 3)
    assert ds.class_counts() == (1, 3, 1)
    assert ds.majority_class() == 1


def test_learner_config_validation():
    LearnerConfig()
    with pytest.raises(ValueError):
        LearnerConfig(alpha_grid=())
    with pytest.raises(ValueError):
        LearnerConfig(alpha_grid=(0.0,))
    with pytest.raises(ValueError):
        LearnerConfig(relations=())
    with pytest.raises(ValueError):
        LearnerConfig(min_leaf_size=0)


def test_learner_config_refuses_the_eq_comparator():
    """The learner searches ``<=`` and ``>`` only: its thresholds lie between
    observed values, where ``=`` never holds."""
    for comparators in ((Comparator.EQ,), (Comparator.LE, Comparator.EQ, Comparator.GT)):
        with pytest.raises(ValueError, match="never holds on the training data"):
            LearnerConfig(comparators=comparators)


def test_instance_reference_copy_shares_channels():
    inst = Instance(np.zeros((1, 4)), 0)
    moved = inst.with_reference(Interval(1, 3))
    assert moved.reference == Interval(1, 3)
    assert inst.reference == Interval(0, 1)
    assert moved.channels is inst.channels
