import numpy as np
import pytest

from tstrees.core import DataFormatError, Instance, TemporalDataset
from tstrees.dataio import (
    parse_semicolon_table,
    parse_uea_sequence,
    resample_split,
    serialize_semicolon_table,
    trim,
)

from conftest import random_dataset


SIMPLE_TABLE = "A1,C\n1;2;3,C1\n4;5;6,C2\n"


def test_parse_semicolon_table_simple():
    ds = parse_semicolon_table(SIMPLE_TABLE)
    assert ds.size == 2 and ds.attribute_count == 1
    assert ds.series_length == 3 and ds.class_count == 2
    assert ds.class_names == ["C1", "C2"]
    assert ds.instances[0].channels.tolist() == [[1.0, 2.0, 3.0]]
    assert ds.instances[1].class_index == 1


def test_parse_semicolon_table_class_column_options():
    content = "C,A1\nYes,1;2\nNo,3;4\n"
    ds = parse_semicolon_table(content)  # picks the column named C
    assert ds.attribute_names == ["A1"]
    ds2 = parse_semicolon_table(content, class_column=0)
    assert ds2.class_names == ["Yes", "No"]
    ds3 = parse_semicolon_table("lbl,A1\nYes,1;2\n", class_column="lbl")
    assert ds3.class_names == ["Yes"]
    with pytest.raises(DataFormatError):
        parse_semicolon_table(content, class_column="nope")
    with pytest.raises(DataFormatError):
        parse_semicolon_table(content, class_column=9)


def test_parse_semicolon_table_errors():
    with pytest.raises(DataFormatError, match="row 3"):
        parse_semicolon_table("A1,C\n1;2;3,C1\n1;2,C2\n")
    with pytest.raises(DataFormatError):
        parse_semicolon_table("A1,C\n")
    with pytest.raises(DataFormatError):
        parse_semicolon_table("")
    with pytest.raises(DataFormatError, match="non-numeric"):
        parse_semicolon_table("A1,C\n1;x;3,C1\n")
    with pytest.raises(DataFormatError):
        parse_semicolon_table("A1,C\n1;2;3,\n")
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(DataFormatError, match="non-finite.*row 3, column 'B'"):
            parse_semicolon_table(f"A,B,C\n1;2,3;4,x\n5;6,7;{token},y\n")


def test_semicolon_round_trip(rng):
    raw = random_dataset(rng, m=6, n=2, length=4, q=3)
    # the format carries no class table, so the canonical form of a dataset
    # has class names in first-appearance order; one parse canonicalizes
    ds = parse_semicolon_table(serialize_semicolon_table(raw))
    back = parse_semicolon_table(serialize_semicolon_table(ds))
    assert back.attribute_names == ds.attribute_names
    assert back.class_names == ds.class_names
    assert back.series_length == ds.series_length
    for a, b in zip(ds.instances, back.instances):
        assert np.array_equal(a.channels, b.channels)
        assert a.class_index == b.class_index
    # and the semantic content survives the very first serialization too
    for a, b in zip(raw.instances, ds.instances):
        assert np.array_equal(a.channels, b.channels)
        assert raw.class_names[a.class_index] == ds.class_names[b.class_index]


UEA_CONTENT = """\
# a comment
@problemName tiny
@timeStamps false
@classLabel true a b
@data
1,2,3,4:5,6,7,8:a
9,8,7,6:5,4,3,2:b
"""


def test_parse_uea_sequence():
    ds = parse_uea_sequence(UEA_CONTENT)
    assert ds.size == 2 and ds.attribute_count == 2 and ds.series_length == 4
    assert ds.class_names == ["a", "b"]
    assert ds.instances[0].channels.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]


def test_parse_uea_single_case():
    ds = parse_uea_sequence("1,2,3,4:5,6,7,8:yes\n")
    assert ds.size == 1 and ds.attribute_count == 2 and ds.series_length == 4


def test_parse_uea_errors():
    with pytest.raises(DataFormatError):
        parse_uea_sequence("@data\n")
    with pytest.raises(DataFormatError):
        parse_uea_sequence("1,2:3,4:a\n1,2:b\n")  # channel count mismatch
    with pytest.raises(DataFormatError):
        parse_uea_sequence("1,2:a\n1,2,3:b\n")  # length mismatch
    with pytest.raises(DataFormatError, match="non-numeric"):
        parse_uea_sequence("1,x:a\n")
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(DataFormatError, match="non-finite.*line 2, channel 1"):
            parse_uea_sequence(f"1,2:3,4:a\n5,6:{token},8:b\n")


def test_trim():
    base = random_dataset(np.random.default_rng(7), m=3, n=2, length=300, q=2)
    trimmed = trim(base, 150)
    assert trimmed.series_length == 150
    for a, b in zip(base.instances, trimmed.instances):
        assert np.array_equal(b.channels, a.channels[:, :150])

    same = random_dataset(np.random.default_rng(8), m=2, n=1, length=150, q=2)
    assert trim(same, 150) is same

    short = random_dataset(np.random.default_rng(9), m=2, n=1, length=30, q=2)
    assert trim(short, 150) is short
    with pytest.raises(ValueError):
        trim(short, 1)


def _counted_dataset(class_sizes):
    instances = []
    for cls, size in enumerate(class_sizes):
        for _ in range(size):
            instances.append(Instance(np.zeros((1, 3)), cls))
    return TemporalDataset(
        instances,
        ["a0"],
        [f"c{c}" for c in range(len(class_sizes))],
        3,
    )


def test_resample_split_cardinalities():
    ds = _counted_dataset([10, 10, 10])  # m = 30
    train, test = resample_split(ds, 0.8, seed=3)
    assert (train.size, test.size) == (24, 6)

    ds2 = _counted_dataset([20, 20, 20, 20, 20, 20])  # m = 120
    train2, test2 = resample_split(ds2, 0.8, seed=3)
    assert (train2.size, test2.size) == (96, 24)


def test_resample_split_stratifies():
    ds = _counted_dataset([10, 20, 10])
    train, test = resample_split(ds, 0.8, seed=11)
    assert train.class_counts() == (8, 16, 8)
    assert test.class_counts() == (2, 4, 2)


def test_resample_split_deterministic_and_partition(rng):
    ds = random_dataset(rng, m=17, n=2, length=4, q=3)
    a_train, a_test = resample_split(ds, 0.8, seed=42)
    b_train, b_test = resample_split(ds, 0.8, seed=42)

    def signature(d):
        return [(inst.class_index, inst.channels.tobytes()) for inst in d.instances]

    assert signature(a_train) == signature(b_train)
    assert signature(a_test) == signature(b_test)
    combined = sorted(signature(a_train) + signature(a_test))
    assert combined == sorted(signature(ds))
    assert a_train.size == 14  # ceil(0.8 * 17)


def test_resample_split_singleton_class_warns():
    ds = _counted_dataset([6, 1])
    with pytest.warns(UserWarning, match="falling back"):
        train, test = resample_split(ds, 0.8, seed=5)
    assert train.size + test.size == 7
    assert train.size == 6


def test_resample_split_bad_fraction():
    ds = _counted_dataset([3, 3])
    with pytest.raises(ValueError):
        resample_split(ds, 0.0, seed=1)
    with pytest.raises(ValueError):
        resample_split(ds, 1.0, seed=1)
