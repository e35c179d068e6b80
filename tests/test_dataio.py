import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tstrees.core import DataFormatError, Instance, TemporalDataset
from tstrees.dataio import (
    _lines,
    load_dataset,
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
    for content, message in (
        ("A1,C\n1;2;3,C1\n1;2\n", "row 3: expected 2 columns, found 1"),
        ("A1,A2,C\n1;2,,C1\n", "row 2, column 'A2': empty cell"),
        ("A1,A2,C\n1;2, ; ,C1\n", "row 2, column 'A2': empty cell"),
        ("A1,C\n1;2;3,\n", "row 2: missing class label"),
        ("A1,C\n1;2;3,C1\n1;2,C2\n", "row 3, column 'A1': 2 values, expected 3"),
        ("A1,C\n1,C1\n2,C2\n", "row 2: series length 1, need at least 2"),
        ("A1,C\n1;2;3,C1\n4; x ;6,C2\n", "non-numeric value 'x' at row 3, column 'A1'"),
    ):
        with pytest.raises(DataFormatError) as info:
            parse_semicolon_table(content)
        assert str(info.value) == message


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


_EDGE_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def _cases_as_text(draw):
    """A random finite dataset, with its cases as `.ts` lines that put
    spaces around some values."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    length = draw(st.integers(2, 6))
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_VALUES)
    )
    pads = st.sampled_from(("", " ", "  "))
    labels, channels, lines = [], [], []
    for _ in range(m):
        label = draw(st.sampled_from(("a", "b", "Walk", "Run_2")))
        rows = [[draw(values) for _ in range(length)] for _ in range(n)]
        cells = [",".join(f"{draw(pads)}{v!r}{draw(pads)}" for v in row) for row in rows]
        labels.append(label)
        channels.append(rows)
        lines.append(":".join(cells) + ":" + label)
    class_names = list(dict.fromkeys(labels))
    source = TemporalDataset(
        [Instance(np.array(rows), class_names.index(label)) for rows, label in zip(channels, labels)],
        [f"var{j}" for j in range(n)],
        class_names,
        length,
    )
    return source, "@problemName drawn\n@data\n" + "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_cases_as_text())
def test_both_formats_parse_to_the_same_dataset(drawn):
    source, ts_text = drawn
    for parsed in (
        parse_semicolon_table(serialize_semicolon_table(source)),
        parse_uea_sequence(ts_text),
    ):
        assert parsed.attribute_names == source.attribute_names
        assert parsed.class_names == source.class_names
        assert parsed.series_length == source.series_length
        assert [i.class_index for i in parsed.instances] == [
            i.class_index for i in source.instances
        ]
        assert [i.channels.tobytes() for i in parsed.instances] == [
            i.channels.tobytes() for i in source.instances
        ]


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


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="a;,\"\n\r\x0b\x0c\x1c\x85\u2028 "))
def test_table_lines_are_the_lines_stringio_yields(text):
    """The semicolon table is read line by line exactly as csv.reader reads
    ``io.StringIO(content)``: split after "\\n" only, newlines kept."""
    assert list(_lines(text)) == list(io.StringIO(text))


def test_load_dataset_reads_each_format(tmp_path):
    (tmp_path / "data.ts").write_text(UEA_CONTENT, encoding="utf-8")
    (tmp_path / "data.csv").write_text(SIMPLE_TABLE, encoding="utf-8")
    uea = load_dataset(tmp_path / "data.ts", "uea")
    assert uea.class_names == ["a", "b"] and uea.series_length == 4
    table = load_dataset(str(tmp_path / "data.csv"), "semicolon", class_column="C")
    assert table.class_names == ["C1", "C2"] and table.series_length == 3
    with pytest.raises(DataFormatError, match="unknown dataset format 'arff'"):
        load_dataset(tmp_path / "data.csv", "arff")


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
    for content, message in (
        ("1,2:a\n3,4\n", "line 2: expected channels and a class label"),
        ("1,2: :a\n", "line 1, channel 1: empty cell"),
        ("1,2:3,4:a\n1,2:b\n", "line 2: 1 channels, expected 2"),
        ("1,2:a\n1,2,3:b\n", "line 2, channel 0: 3 values, expected 2"),
        ("1,2:\n", "line 1: missing class label"),
        ("1:a\n", "line 1: series length 1, need at least 2"),
        ("1, x ,3:a\n", "non-numeric value 'x' at line 1, channel 0"),
    ):
        with pytest.raises(DataFormatError) as info:
            parse_uea_sequence(content)
        assert str(info.value) == message


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
