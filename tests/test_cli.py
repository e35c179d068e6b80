import json
import signal
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tstrees import cli
from tstrees.cli import build_parser, main
from tstrees.core import (
    Comparator,
    Instance,
    IntervalRelation as Rel,
    Leaf,
    LearnerConfig,
    Node,
    TemporalDataset,
    TemporalDecision,
)
from tstrees.dataio import serialize_semicolon_table
from tstrees.induction import classify, confusion, grow_tree
from tstrees.model import (
    MODEL_VERSION,
    ModelBundle,
    _tree_from_dict,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
)
from tstrees.core import DataFormatError

from conftest import long_dataset, random_dataset

import fixture_tree


def write_dataset(tmp_path, ds, name="data.csv"):
    path = tmp_path / name
    path.write_text(serialize_semicolon_table(ds), encoding="utf-8")
    return path


def separable_dataset(m=8, length=4):
    instances = []
    for i in range(m):
        cls = i % 2
        base = 0.0 if cls == 0 else 9.0
        values = base + np.linspace(0, 1, length) + 0.01 * i
        instances.append(Instance(values.reshape(1, length), cls))
    return TemporalDataset(instances, ["var0"], ["Lo", "Hi"], length)


def test_model_round_trip_is_byte_identical(tmp_path):
    tree = fixture_tree.golden_tree()
    bundle = ModelBundle(
        tree=tree,
        attribute_names=fixture_tree.ATTRS,
        class_names=fixture_tree.CLASSES,
        series_length=30,
        config=LearnerConfig(alpha_grid=(0.6,)),
    )
    path = tmp_path / "model.json"
    save_model(path, bundle)
    first = path.read_bytes()
    save_model(path, load_model(path))
    assert path.read_bytes() == first


def test_model_version_mismatch_refused():
    bundle = ModelBundle(
        tree=fixture_tree.golden_tree(),
        attribute_names=fixture_tree.ATTRS,
        class_names=fixture_tree.CLASSES,
        series_length=30,
        config=LearnerConfig(),
    )
    current = f'"version": {MODEL_VERSION}'
    assert current in model_to_text(bundle)
    text = model_to_text(bundle).replace(current, '"version": 99')
    with pytest.raises(DataFormatError, match="version"):
        model_from_text(text)
    with pytest.raises(DataFormatError):
        model_from_text("{}")
    with pytest.raises(DataFormatError):
        model_from_text("not json")


def test_version_1_model_loads_and_saves_as_current(tmp_path):
    bundle = ModelBundle(
        tree=fixture_tree.golden_tree(),
        attribute_names=fixture_tree.ATTRS,
        class_names=fixture_tree.CLASSES,
        series_length=30,
        config=LearnerConfig(alpha_grid=(0.6,)),
    )
    current = json.loads(model_to_text(bundle))
    assert current["version"] == MODEL_VERSION == 2
    assert "witness_policy" not in current["config"] and "seed" not in current["config"]
    old = dict(current, version=1)
    old["config"] = dict(current["config"], witness_policy="first_found", seed=7)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    loaded = load_model(path)
    assert loaded == bundle
    save_model(path, loaded)
    assert path.read_text(encoding="utf-8") == model_to_text(bundle)


def test_model_preserves_classification(tmp_path, rng):
    ds = random_dataset(rng, m=10, n=2, length=5, q=2)
    held_out = random_dataset(rng, m=6, n=2, length=5, q=2)
    config = LearnerConfig(min_leaf_size=1)
    tree = grow_tree(ds, config)
    bundle = ModelBundle(tree, ds.attribute_names, ds.class_names, 5, config)
    path = tmp_path / "m.json"
    save_model(path, bundle)
    loaded = load_model(path)
    assert loaded.tree == tree
    for inst in held_out.instances:
        assert classify(loaded.tree, inst) == classify(tree, inst)


def test_train_prints_tree_and_saves_model(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--data", str(data),
            "--min-leaf", "1",
            "--out", str(model_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "var0" in out
    assert model_path.exists()


def test_train_unknown_theory_class_exits_2_before_training(tmp_path, capsys):
    data = write_dataset(tmp_path, separable_dataset())
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path),
                 "--theory-class", "Nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown class 'Nope'" in captured.err
    assert not model_path.exists()
    # a known class still trains, saves and prints its theory after the tree
    code = main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path),
                 "--theory-class", "Hi"])
    assert code == 0 and model_path.exists()
    assert capsys.readouterr().out.splitlines() == [
        "<A> var0 <= 0.53: Lo (4.0)", "[A] var0 > 0.53: Hi (4.0)", "[A](var0 > 0.53)"
    ]


def test_main_calls_share_the_parser_but_keep_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    data = str(write_dataset(tmp_path, separable_dataset()))
    grids = {}
    # --alpha is an append action: a later call without it must fall back to
    # the default grid, and a later call with it must not see earlier values
    for name, option in (("two", ["--alpha", "0.6", "--alpha", "0.7"]), ("none", []), ("one", ["--alpha", "0.8"])):
        model_path = tmp_path / f"{name}.json"
        assert main(["train", "--data", data, "--min-leaf", "1", "--out", str(model_path), *option]) == 0
        grids[name] = load_model(model_path).config.alpha_grid
    assert grids == {"two": (0.6, 0.7), "none": (1.0,), "one": (0.8,)}
    assert main(["train", "--data", data, "--min-leaf", "0"]) == 1
    capsys.readouterr()
    assert main(["train", "--data", data]) == 0
    assert "var0" in capsys.readouterr().out


def test_train_pure_class_file_prints_single_leaf(tmp_path, capsys):
    instances = [Instance(np.ones((1, 3)) * i, 0) for i in range(4)]
    ds = TemporalDataset(instances, ["var0"], ["Only"], 3)
    data = write_dataset(tmp_path, ds)
    code = main(["train", "--data", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ": Only (4.0)\n"


def test_predict_reproduces_training_labels(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    assert main(
        ["train", "--data", str(data), "--min-leaf", "1", "--purity", "0.0",
         "--out", str(model_path)]
    ) == 0
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--data", str(data)])
    out = capsys.readouterr().out
    assert code == 0
    names = [ds.class_names[i.class_index] for i in ds.instances]
    assert out.splitlines() == names


def test_predict_refuses_a_model_whose_config_lists_eq_exits_2(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    payload["config"]["comparators"] = ["LE", "EQ", "GT"]
    model_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and "malformed config" in err


@pytest.mark.parametrize("kind, edit, message", [
    ("attribute", lambda tree: tree["decision"].update(attribute_index=9),
     "reads attribute 9 at degree 0, but the model has 1 attributes of 4 points"),
    ("degree", lambda tree: tree["decision"].update(derivative_degree=500),
     "reads attribute 0 at degree 500, but the model has 1 attributes of 4 points"),
    ("classes", lambda tree: tree["left"].update(class_index=9, class_counts=[0] * 9 + [4]),
     "leaf has 10 class counts for 2 classes"),
    ("argmax", lambda tree: tree["left"].update(class_index=1, class_counts=[4, 0]),
     "malformed leaf"),
])
def test_predict_refuses_a_model_whose_tree_does_not_fit_its_header_exits_2(tmp_path, capsys, kind, edit, message):
    """A tree that reads an attribute the model does not name, a degree not
    below its series length, or whose leaves count another number of classes
    (or name a class that is not their counts' argmax), fails to load as a
    data error, not later as an internal error."""
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    assert payload["tree"]["kind"] == "node" and payload["tree"]["left"]["kind"] == "leaf"
    edit(payload["tree"])
    model_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2, kind
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ") and message in err, err
    with pytest.raises(DataFormatError):
        model_from_text(model_path.read_text(encoding="utf-8"))


_SMALL_MODEL = model_to_text(ModelBundle(
    Node(
        TemporalDecision(Rel.L, 1, 1, Comparator.GT, 0.5, 0.6),
        Leaf(0, (3, 1)),
        Node(TemporalDecision(Rel.EQ, 0, 0, Comparator.LE, -2.0, 1.0), Leaf(1, (0, 4)), Leaf(0, (2, 0))),
    ),
    ["a", "b"], ["x", "y"], 5, LearnerConfig(alpha_grid=(0.6, 1.0), max_derivative=1),
))


def _paths(obj, prefix=()):
    """The key path of every value and subtree below a parsed JSON value."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutated(text, path, value):
    """``text`` with the value at ``path`` dropped (``_DROP``) or replaced."""
    payload = json.loads(text)
    parent = _at(payload, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_DROP = object()
_PATHS = list(_paths(json.loads(_SMALL_MODEL)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# the four shapes that once escaped as internal errors
_CRASH_SHAPES = [(("tree",), []), (("tree", "left"), 5), (("series_length",), "abc"), (("attribute_names",), 5)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_PATHS),
    st.just(_DROP) | _JSON | st.sampled_from([_at(json.loads(_SMALL_MODEL), p) for p in _PATHS]),
)
@example(*_CRASH_SHAPES[0])
@example(*_CRASH_SHAPES[1])
@example(*_CRASH_SHAPES[2])
@example(*_CRASH_SHAPES[3])
@example(("series_length",), float("inf"))  # json writes Infinity, and int() of it overflows
@example(("tree", "decision", "threshold"), 10**400)  # past float64
def test_a_mutated_model_file_loads_or_is_a_data_error_property(path, value):
    """A valid model text with one key dropped, or one value or subtree
    replaced by a random JSON value or by another part of the file, either
    loads as a bundle that saves and loads back to the same text, or is
    refused as a DataFormatError; no other exception escapes."""
    try:
        bundle = model_from_text(_mutated(_SMALL_MODEL, path, value))
    except DataFormatError:
        return
    text = model_to_text(bundle)
    assert model_to_text(model_from_text(text)) == text


@pytest.mark.parametrize("path, value, message", [
    *((path, value, "malformed tree node in model file: ") for path, value in _CRASH_SHAPES[:2]),
    *((path, value, "malformed header in model file: ") for path, value in _CRASH_SHAPES[2:]),
    (("tree", "decision", "relation"), "XX", "malformed decision in model file: 'XX'"),
    (("tree", "right", "kind"), "twig", "malformed tree node of kind 'twig' in model file"),
    (("tree", "left", "class_counts"), "3", "model leaf has 1 class counts for 2 classes"),
    (("config", "alpha_grid"), 0.5, "malformed config in model file: "),
    (("config",), _DROP, "model file is missing 'config'"),
    (("version",), 3, "model version 3 is not supported"),
])
def test_predict_refuses_a_malformed_model_file_exits_2(tmp_path, capsys, path, value, message):
    model_path = tmp_path / "model.json"
    model_path.write_text(_mutated(_SMALL_MODEL, path, value), encoding="utf-8")
    data = write_dataset(tmp_path, TemporalDataset([Instance(np.zeros((2, 5)), 0)], ["a", "b"], ["x"], 5))
    assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"data error: {message}"), err


@pytest.mark.parametrize("path, value, message", [
    (("attribute_names",), "ab", "malformed header in model file: attribute_names must be a JSON array, not str"),
    (("class_names",), "xy", "malformed header in model file: class_names must be a JSON array, not str"),
    (("attribute_names", 1), 5, "malformed header in model file: attribute_names must be a JSON string, not int"),
    (("version",), True, "model version True is not supported"),
    (("version",), 2.0, "model version 2.0 is not supported"),
    (("series_length",), 5.9, "malformed header in model file: series_length must be a JSON integer, not float"),
    (("series_length",), True, "malformed header in model file: series_length must be a JSON integer, not bool"),
    (("series_length",), "5", "malformed header in model file: series_length must be a JSON integer, not str"),
    (("tree", "decision", "attribute_index"), True,
     "malformed decision in model file: attribute_index must be a JSON integer, not bool"),
    (("tree", "decision", "derivative_degree"), 1.0,
     "malformed decision in model file: derivative_degree must be a JSON integer, not float"),
    (("tree", "left", "class_index"), "0", "malformed leaf in model file: class_index must be a JSON integer, not str"),
    (("tree", "left", "class_counts", 0), 3.0,
     "malformed leaf in model file: class_counts must be a JSON integer, not float"),
    (("tree", "left", "class_counts", 1), True,
     "malformed leaf in model file: class_counts must be a JSON integer, not bool"),
    (("tree", "decision", "threshold"), "0.5", "malformed decision in model file: threshold must be a JSON number, not str"),
    (("tree", "decision", "alpha"), True, "malformed decision in model file: alpha must be a JSON number, not bool"),
    (("tree", "decision", "eq_tolerance"), "0", "malformed decision in model file: eq_tolerance must be a JSON number, not str"),
    (("config", "alpha_grid", 0), "0.6", "malformed config in model file: alpha_grid must be a JSON number, not str"),
    (("config", "max_derivative"), True, "malformed config in model file: max_derivative must be a JSON integer, not bool"),
    (("config", "min_leaf_size"), 2.0, "malformed config in model file: min_leaf_size must be a JSON integer, not float"),
    (("config", "max_threshold_candidates"), "3",
     "malformed config in model file: max_threshold_candidates must be a JSON integer, not str"),
    (("config", "purity_threshold"), False, "malformed config in model file: purity_threshold must be a JSON number, not bool"),
    (("config", "relations"), "AL", "malformed config in model file: relations must be a JSON array, not str"),
])
def test_a_model_part_of_another_json_type_is_refused_not_coerced_exits_2(tmp_path, capsys, path, value, message):
    """Each part of a model file is read with its exact JSON type, and
    nothing is coerced: a string is no array of names, ``true``, ``5.9`` or
    ``"3"`` no integer, and ``true`` or ``"0.5"`` no number.  ``predict``
    and ``evaluate`` both exit 2, naming the part."""
    model_path = tmp_path / "model.json"
    model_path.write_text(_mutated(_SMALL_MODEL, path, value), encoding="utf-8")
    data = write_dataset(tmp_path, TemporalDataset([Instance(np.zeros((2, 5)), 0)], ["a", "b"], ["x"], 5))
    for command in ("predict", "evaluate"):
        assert main([command, "--model", str(model_path), "--data", str(data)]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"data error: {message}"), (command, err)


def test_a_model_nested_past_the_recursion_limit_is_a_data_error():
    """A tree nested past the interpreter's recursion limit is a data error,
    whether the JSON parser or the tree walk runs out of frames first (the
    walk can, where the parser counts its C frames apart, as from 3.12)."""
    payload = json.loads(_SMALL_MODEL)
    leaf, depth = payload["tree"]["left"], 5 * sys.getrecursionlimit()
    deep = leaf
    for _ in range(depth):
        deep = dict(payload["tree"], left=deep)
    with pytest.raises(DataFormatError, match="^malformed [a-z ]+ in model file: maximum recursion depth"):
        _tree_from_dict(deep, (2, 5, 2))
    node, leaf = json.dumps(payload["tree"]).partition('"left": ')[0] + '"left": ', json.dumps(leaf)
    payload["tree"] = "TREE"
    text = json.dumps(payload).replace('"TREE"', node * depth + leaf + f', "right": {leaf}}}' * depth)
    with pytest.raises(DataFormatError, match="^model file nests too deeply|^malformed tree node"):
        model_from_text(text)


def test_files_that_are_not_utf8_exit_2_naming_the_file(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(_SMALL_MODEL.replace('"x"', '"caf\u00e9"').encode("latin-1"))
    data = tmp_path / "latin1.csv"
    data.write_bytes("A,C\n1;2;3,caf\u00e9\n4;5;6,b\n".encode("latin-1"))
    good = write_dataset(tmp_path, TemporalDataset([Instance(np.zeros((2, 5)), 0)], ["a", "b"], ["x"], 5))
    for command, path in ((["predict", "--model", str(model_path), "--data", str(good)], model_path),
                          (["train", "--data", str(data)], data)):
        assert main(command) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"data error: {path}: not UTF-8 text: "), err


def test_non_finite_purity_is_a_usage_error_and_a_malformed_model(tmp_path, capsys):
    """``--purity nan`` or ``inf`` exits 1 before anything is written; a model
    file that carries such a threshold fails to load as a malformed config
    (exit 2), since ``NaN`` and ``Infinity`` are no JSON numbers."""
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    for value in ("nan", "inf", "-inf"):
        assert main(["train", "--data", str(data), f"--purity={value}", "--out", str(model_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: purity_threshold must be a finite number\n"
    assert not model_path.exists()
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    for value in (float("nan"), float("inf")):
        payload["config"]["purity_threshold"] = value
        model_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("data error: ") and "malformed config" in err


def test_model_with_eq_decisions_round_trips_and_predicts(tmp_path, capsys):
    """Decisions may still use ``=`` with a tolerance: such a model saves
    back byte-identically, and ``predict`` routes as :func:`classify` does.
    At the root, [0, 1] holds its first point, which is 9 + 0.01 i for the
    Hi series; the L-successors of [0, 1] hold 1 + 0.01 i at point 4 for
    the Lo series, which lies within 0.125 of 1.17 only for i = 6."""
    ds = separable_dataset()
    tree = Node(
        TemporalDecision(Rel.EQ, 0, 0, Comparator.EQ, 9.0, 1.0, eq_tolerance=0.125),
        Leaf(1, (0, 4)),
        Node(
            TemporalDecision(Rel.L, 0, 0, Comparator.EQ, 1.17, 0.5, eq_tolerance=0.125),
            Leaf(1, (0, 2)),
            Leaf(0, (3, 0)),
        ),
    )
    model_path = tmp_path / "model.json"
    save_model(model_path, ModelBundle(tree, ds.attribute_names, ds.class_names, 4, LearnerConfig()))
    first = model_path.read_bytes()
    loaded = load_model(model_path)
    assert loaded.tree == tree
    save_model(model_path, loaded)
    assert model_path.read_bytes() == first
    data = write_dataset(tmp_path, ds)
    assert main(["predict", "--model", str(model_path), "--data", str(data)]) == 0
    predicted = capsys.readouterr().out.splitlines()
    assert predicted == [ds.class_names[classify(tree, inst)[0]] for inst in ds.instances]
    assert predicted == ["Lo", "Hi", "Lo", "Hi", "Lo", "Hi", "Hi", "Hi"]


def test_predict_dimension_mismatch_exits_2(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    wide = TemporalDataset(
        [Instance(np.zeros((2, 4)), 0)], ["var0", "var1"], ["Lo"], 4
    )
    long = TemporalDataset([Instance(np.zeros((1, 40)), 0)], ["var0"], ["Lo"], 40)
    cases = [
        (write_dataset(tmp_path, wide, "wide.csv"), "channels"),
        (write_dataset(tmp_path, long, "long.csv"), "length"),
    ]
    capsys.readouterr()
    for bad, word in cases:
        for command in ("predict", "evaluate"):
            code = main([command, "--model", str(model_path), "--data", str(bad)])
            err = capsys.readouterr().err
            assert code == 2, (command, bad.name)
            assert word in err, (command, err)


def test_evaluate_reports_accuracy(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.tsv"
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    capsys.readouterr()
    code = main(
        ["evaluate", "--model", str(model_path), "--data", str(data),
         "--report", str(report_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("accuracy: 100.00")
    assert "confusion matrix" in out
    assert "tp_rate" in out
    lines = report_path.read_text().splitlines()
    assert any("\taccuracy\t" in line for line in lines)


def test_evaluate_matrix_equals_confusion(tmp_path, rng, capsys):
    ds = random_dataset(rng, m=12, n=2, length=5, q=3)
    held_out = random_dataset(rng, m=30, n=2, length=5, q=3)
    config = LearnerConfig(min_leaf_size=1)
    tree = grow_tree(ds, config)
    model_path = tmp_path / "m.json"
    save_model(model_path, ModelBundle(tree, ds.attribute_names, ds.class_names, 5, config))
    data = write_dataset(tmp_path, held_out, "held_out.csv")
    assert main(["evaluate", "--model", str(model_path), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("confusion matrix (rows = predicted, columns = true):") + 2
    printed = {}
    for line in lines[start : start + len(ds.class_names)]:
        name, *counts = line.split()
        printed[name] = tuple(int(c) for c in counts)
    expected = confusion(tree, held_out).counts
    assert printed == dict(zip(ds.class_names, expected))
    # the held-out data is not all classified correctly, so the check sees
    # off-diagonal counts and the orientation of the matrix
    assert any(expected[p][t] for p in range(3) for t in range(3) if p != t)


def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["train"]) == 1  # --data missing
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    data = str(write_dataset(tmp_path, separable_dataset()))
    for spec in ("<=,=", "eq"):  # thresholds fall between observed values
        assert main(["train", "--data", data, "--comparators", spec]) == 1
        assert "never holds on the training data" in capsys.readouterr().err
    # out-of-range options are refused by LearnerConfig and reported as usage
    for option, reason in (
        (["--alpha", "2"], "alpha must lie in (0, 1]"),
        (["--alpha", "0"], "alpha must lie in (0, 1]"),
        (["--min-leaf", "0"], "min_leaf_size must be >= 1"),
        (["--max-z", "-1"], "max_derivative must be >= 0"),
    ):
        assert main(["train", "--data", data, *option]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and reason in err
    # relation and comparator lists: unknown and empty entries, and '='
    with pytest.raises(ValueError) as refused:
        LearnerConfig(comparators=(Comparator.EQ,))
    for option, reason in (
        (["--relations", "foo"], "unknown relation 'foo'"),
        (["--comparators", "foo"], "unknown comparator 'foo'"),
        (["--relations", ","], "no relations given"),
        (["--comparators", ","], "no comparators given"),
        (["--comparators", "="], str(refused.value)),
    ):
        assert main(["train", "--data", data, *option]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: {reason}\n", option
    # options are checked before the data is read
    assert main(["train", "--data", "/nonexistent.csv", "--comparators", "="]) == 1
    assert "never holds on the training data" in capsys.readouterr().err
    # compare and bench check every split option and method token first
    for option, reason in (
        (["--max-len", "1"], "--max-len must be 0 (no trimming) or at least 2, got 1"),
        (["--max-len", "-3"], "--max-len must be 0 (no trimming) or at least 2, got -3"),
        (["--train-fraction", "1.5"], "--train-fraction must lie strictly between 0 and 1"),
        (["--train-fraction", "0"], "--train-fraction must lie strictly between 0 and 1"),
        (["--train-fraction", "1"], "--train-fraction must lie strictly between 0 and 1"),
        (["--methods", "tj48:abc"], "method 'tj48:abc': could not convert string to float"),
        (["--methods", "tj48:2"], "method 'tj48:2': every alpha must lie in (0, 1]"),
        (["--methods", "j48:11"], "method 'j48:11': feature mask must be four 0/1 bits"),
        (["--methods", "j48:0000"], "method 'j48:0000': a feature mask needs at least one bit"),
        (["--methods", "ed-i,bogus"], "unknown method 'bogus'"),
    ):
        for command in (
            ["compare", "--data", data],
            ["compare", "--data", "/nonexistent.ts"],
            ["bench", "--data-dir", str(tmp_path)],
            ["bench", "--data-dir", "/nonexistent"],
        ):
            assert main([*command, *option]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage error: ") and reason in err


def test_non_finite_alpha_range_exits_1(capsys):
    """A range with a NaN or infinite part is refused before any data is
    read.  Such a range once made the range loop run forever; an alarm turns
    a return that never comes into a failure."""

    def hang(signum, frame):
        raise TimeoutError("the alpha range was not refused")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for spec in ("0.5:1:nan", "nan:1:0.1", "0.5:inf:0.1", "-inf:1:0.1", "0.5:1:inf"):
            for command in (
                ["train", "--data", "/nonexistent.csv", f"--alpha={spec}"],
                ["compare", "--data", "/nonexistent.ts", "--methods", f"tj48:{spec}"],
                ["bench", "--data-dir", "/nonexistent", "--methods", f"ed-i,tj48:{spec}"],
            ):
                assert main(command) == 1, command
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("usage error: ") and "finite" in err, err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_repeated_alphas_are_dropped(tmp_path, capsys):
    data = str(write_dataset(tmp_path, separable_dataset()))
    models = {}
    for name, option in (("once", "0.6"), ("twice", "0.6,0.6"), ("range", "0.6:0.6:0.1,0.6")):
        model_path = tmp_path / f"{name}.json"
        assert main(["train", "--data", data, "--min-leaf", "1", "--out", str(model_path), "--alpha", option]) == 0
        models[name] = model_path.read_bytes()
        assert load_model(model_path).config.alpha_grid == (0.6,)
    assert models["twice"] == models["once"] and models["range"] == models["once"]
    capsys.readouterr()
    # the first appearance keeps its place
    model_path = tmp_path / "order.json"
    assert main(["train", "--data", data, "--min-leaf", "1", "--out", str(model_path),
                 "--alpha", "0.8,0.5:0.7:0.1,0.6,0.8"]) == 0
    assert load_model(model_path).config.alpha_grid == (0.8, 0.5, 0.6, 0.7)


def test_alpha_range_of_over_1000_values_exits_1(capsys):
    """A range with a step small enough to give over 1,000 values is refused
    before its loop builds them, with the count in the message; an alarm
    turns a loop that builds them all anyway into a failure."""

    def hang(signum, frame):
        raise TimeoutError("the alpha range was not refused")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for spec, count in (("0.5:0.5000001:1e-12", "about 100001"), ("0.001:1:0.0009", "about 1111"),
                            ("0.5:1:0.0001220703125", "about 4097"), ("0:1:5e-324", "over 1e308")):
            for command in (
                ["train", "--data", "/nonexistent.csv", f"--alpha={spec}"],
                ["compare", "--data", "/nonexistent.ts", "--methods", f"tj48:{spec}"],
            ):
                assert main(command) == 1, command
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("usage error: "), err
                assert f"would give {count}" in err and "at most 1000" in err, err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # 1,000 values is still a range
    from tstrees.cli import _parse_alpha_spec

    assert len(_parse_alpha_spec(["0.001:1:0.001"])) == 1000


def test_missing_file_exits_2(capsys):
    code = main(["train", "--data", "/nonexistent/file.csv"])
    assert code == 2
    capsys.readouterr()


def test_compare_and_bench_refuse_too_few_cases_exits_2(tmp_path, capsys):
    # one case cannot be split; two or three leave the 80 % split's test side empty
    for count, reason in (
        (1, "1 case, need at least two to split"),
        (2, "leaves the test side of 2 cases empty"),
        (3, "leaves the test side of 3 cases empty"),
    ):
        folder = tmp_path / f"tiny{count}"
        folder.mkdir()
        path = folder / "tiny.ts"
        path.write_text(
            "".join(f"{i}.0,{i + 1}.0,{i + 2}.0:{'ab'[i % 2]}\n" for i in range(count)),
            encoding="utf-8",
        )
        for command in (
            ["compare", "--data", str(path), "--methods", "ed-i"],
            ["bench", "--data-dir", str(folder), "--methods", "ed-i,tj48"],
        ):
            assert main(command) == 2, (count, command)
            out, err = capsys.readouterr()
            assert out == "", (count, command)
            assert "data error: tiny: " in err and reason in err, (count, err)


def test_compare_and_bench_refuse_features_out_of_float64_range_exits_2(tmp_path, capsys):
    # finite values: near 1e120 std ** 3 overflows, near 1e308 so does the sum
    # behind the mean, which every statistic needs
    rng = np.random.default_rng(0)
    for scale, method, stat in ((1e120, "j48:1111", "skew"), (1e120, "j48:0001", "kurt"),
                                (1.5e308, "j48:0100", "mean")):
        folder = tmp_path / f"{stat}{method[-4:]}"
        folder.mkdir()
        instances = [Instance(scale * rng.uniform(0.5, 1.0, (1, 6)), i % 2) for i in range(10)]
        path = write_dataset(folder, TemporalDataset(instances, ["var0"], ["a", "b"], 6), "huge.csv")
        for command in (
            ["compare", "--data", str(path), "--methods", method],
            ["bench", "--data-dir", str(folder), "--methods", method],
        ):
            assert main(command) == 2, command
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"data error: huge: {method}: the {stat} feature of some channel "
                "is out of float64 range\n"
            ), (command, err)


def _run_without_warnings(command):
    """main's exit code, with every warning raised in the call recorded and
    required absent."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(command)
    assert caught == [], [str(w.message) for w in caught]
    return code


def _singleton_class_case(tmp_path):
    """A folder holding odd.ts: nine cases of class a and one of class b."""
    folder = tmp_path / "one"
    folder.mkdir()
    rows = [f"{i}.0,{i + 1}.0,{i % 3}.0:a\n" for i in range(9)] + ["5.0,0.0,5.0:b\n"]
    (folder / "odd.ts").write_text("".join(rows), encoding="utf-8")
    return folder


_SINGLETON_WARNING = (
    "warning: odd: class 'b' has 1 instance(s); falling back to unstratified assignment for it\n"
)


def test_compare_names_the_dataset_of_a_one_member_class(tmp_path, capsys):
    folder = _singleton_class_case(tmp_path)
    report = tmp_path / "report.tsv"
    command = ["compare", "--data", str(folder / "odd.ts"), "--methods", "ed-i", "--report", str(report)]
    assert _run_without_warnings(command) == 0
    out, err = capsys.readouterr()
    assert err == _SINGLETON_WARNING
    assert out.splitlines()[1].split()[0] == "ed-i"
    assert report.read_text(encoding="utf-8").startswith("odd\ted-i\taccuracy\t")


def test_bench_names_the_dataset_of_a_one_member_class(tmp_path, capsys):
    folder = _singleton_class_case(tmp_path)
    assert _run_without_warnings(["bench", "--data-dir", str(folder), "--methods", "ed-i"]) == 0
    out, err = capsys.readouterr()
    assert err == _SINGLETON_WARNING
    assert out.splitlines()[0].split() == ["method", "odd"]


def _overflowing_midpoints_dataset():
    # 1.6e308 + 1.0e308 overflows, so the midpoint is taken as halves
    instances = [Instance(np.full((1, 4), 1.6e308 if i % 2 else 1.0e308), i % 2) for i in range(10)]
    return TemporalDataset(instances, ["var0"], ["a", "b"], 4)


def test_train_splits_values_whose_midpoints_overflow(tmp_path, capsys):
    data = write_dataset(tmp_path, _overflowing_midpoints_dataset())
    assert _run_without_warnings(["train", "--data", str(data), "--min-leaf", "1"]) == 0
    out = capsys.readouterr().out
    assert "var0 <= 1.3e+308: a (5.0)" in out and "var0 > 1.3e+308: b (5.0)" in out


def test_train_refuses_differences_out_of_float64_range_exits_2(tmp_path, capsys):
    # 1.5e308 - (-1.5e308) is past float64, so degree-1 thresholds would be inf
    rows = ([1.5e308, -1.5e308, 1.5e308, -1.5e308], [1.0, 2.0, 3.0, 4.0])
    instances = [Instance(np.array([rows[i % 2]]), i % 2) for i in range(10)]
    data = write_dataset(tmp_path, TemporalDataset(instances, ["var0"], ["a", "b"], 4))
    command = ["train", "--data", str(data), "--min-leaf", "1", "--max-z", "1"]
    assert _run_without_warnings(command) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "data error: channel 'var0': degree-1 differences out of float64 range\n"
    )


def _huge_distances_dataset():
    # finite values near 1e160 whose squared differences overflow
    rng = np.random.default_rng(0)
    instances = [Instance((1.0 + 3.0 * (i % 2)) * 1e160 * rng.uniform(0.9, 1.1, (1, 6)), i % 2)
                 for i in range(10)]
    return TemporalDataset(instances, ["var0"], ["a", "b"], 6)


def test_compare_refuses_nn_distances_out_of_float64_range_exits_2(tmp_path, capsys):
    data = write_dataset(tmp_path, _huge_distances_dataset(), "huge.csv")
    for method in ("ed-i", "dtw-i", "dtw-d"):
        assert _run_without_warnings(["compare", "--data", str(data), "--methods", method]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"data error: huge: {method}: the {method} distances are out of float64 range\n"
        )


def test_bench_refuses_nn_distances_out_of_float64_range_exits_2(tmp_path, capsys):
    # the data error compare gives, from a folder holding the same file
    write_dataset(tmp_path, _huge_distances_dataset(), "huge.csv")
    for method in ("ed-i", "dtw-i", "dtw-d"):
        assert _run_without_warnings(["bench", "--data-dir", str(tmp_path), "--methods", method]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"data error: huge: {method}: the {method} distances are out of float64 range\n"
        )


def test_bench_trains_tj48_on_values_whose_midpoints_overflow(tmp_path, capsys):
    write_dataset(tmp_path, _overflowing_midpoints_dataset(), "wide.csv")
    assert _run_without_warnings(["bench", "--data-dir", str(tmp_path), "--methods", "tj48"]) == 0
    out, err = capsys.readouterr()
    # the split at the midpoint 1.3e308 separates the classes
    assert err == "" and out.splitlines()[1].split() == ["tj48", "_100.00_*"]


def test_compare_rows_mirror_method_ladder(tmp_path, capsys):
    ds = separable_dataset(m=14, length=5)
    data = write_dataset(tmp_path, ds)
    methods = "tj48:0.5,tj48:0.6,tj48:0.7,tj48:0.8,tj48:0.9,ed-i,dtw-i,dtw-d"
    code = main(
        ["compare", "--data", str(data), "--train-fraction", "0.8",
         "--seed", "7", "--methods", methods]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not set(ln) <= {"-"}]
    labels = [ln.split()[0] for ln in lines[1:]]
    assert labels == methods.split(",")


def test_compare_deterministic(tmp_path, capsys):
    ds = separable_dataset(m=12, length=5)
    data = write_dataset(tmp_path, ds)
    args = ["compare", "--data", str(data), "--seed", "3",
            "--methods", "tj48:0.5,ed-i,j48:1100"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_bench_grid(tmp_path, capsys):
    for name in ("alpha.csv", "beta.csv"):
        ds = separable_dataset(m=10, length=4)
        write_dataset(tmp_path, ds, name)
    report = tmp_path / "grid.tsv"
    code = main(
        ["bench", "--data-dir", str(tmp_path), "--seed", "1",
         "--methods", "ed-i,tj48:0.5", "--report", str(report)]
    )
    out = capsys.readouterr().out
    assert code == 0
    head = out.splitlines()[0]
    assert "alpha" in head and "beta" in head
    lines = report.read_text().splitlines()
    assert len(lines) == 4  # 2 datasets x 2 methods


def test_compare_and_bench_agree_on_a_folder_of_one_dataset(tmp_path, capsys):
    # bench over a folder holding only x.ts is compare on x.ts: same grid,
    # same report
    rng = np.random.default_rng(5)
    rows = [(9.0 * (i % 3) + rng.normal(0, 4, (2, 6)), "abc"[i % 3]) for i in range(18)]
    data = tmp_path / "x.ts"
    data.write_text(
        "".join(":".join(",".join(map(repr, ch.tolist())) for ch in values) + f":{label}\n"
                for values, label in rows),
        encoding="utf-8",
    )
    methods = ["--seed", "4", "--methods", "j48:1100,ed-i,dtw-i,dtw-d,tj48:0.6,tj48:0.9"]
    printed = []
    for command, report in (
        (["compare", "--data", str(data)], tmp_path / "compare.tsv"),
        (["bench", "--data-dir", str(tmp_path)], tmp_path / "bench.tsv"),
    ):
        assert main([*command, *methods, "--report", str(report)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        printed.append((out, report.read_text(encoding="utf-8")))
    assert printed[0] == printed[1]
    assert printed[0][0].splitlines()[0].split() == ["method", "x"]
    assert len(printed[0][1].splitlines()) == 6


def test_predict_and_evaluate_refuse_lower_degree_differences_out_of_float64_range_exits_2(
    tmp_path, capsys
):
    # the second difference of the first series is -3.4e306, which holds
    # > -1e307, but its first difference 1.79e308 + 2e306 overflows, so
    # routing at degree 2 would read -inf
    rows = ([-1.79e308, 2e306, 1.796e308], [1.0, 2.0, 3.0])
    ds = TemporalDataset([Instance(np.array([row]), k) for k, row in enumerate(rows)],
                         ["var0"], ["a", "b"], 3)
    tree = Node(TemporalDecision(Rel.EQ, 0, 2, Comparator.GT, -1e307, 1.0), Leaf(0, (1, 0)),
                Leaf(1, (0, 1)))
    model_path = tmp_path / "model.json"
    save_model(model_path, ModelBundle(tree, ds.attribute_names, ds.class_names, 3,
                                       LearnerConfig(max_derivative=2)))
    data = write_dataset(tmp_path, ds)
    for command in ("predict", "evaluate"):
        assert _run_without_warnings([command, "--model", str(model_path), "--data", str(data)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "data error: attribute 0: degree-1 differences out of float64 range\n"
        )


def _write_ts(path, rows):
    """A UEA file of (channels, label) cases."""
    path.write_text(
        "".join(":".join(",".join(map(repr, ch)) for ch in channels) + f":{label}\n"
                for channels, label in rows),
        encoding="utf-8",
    )


def _ts_rows(labels, channels=1, length=5):
    return [([[9.0 * "abc".index(label) + i + k for k in range(length)]] * channels, label)
            for i, label in enumerate(labels)]


def test_bench_merges_a_train_and_test_pair_into_one_dataset(tmp_path, capsys):
    # class c appears only in the TEST file, which sorts first, and class b
    # only in the TRAIN file, which joins the merged class list after it
    _write_ts(tmp_path / "X_TRAIN.ts", _ts_rows("abababab"))
    _write_ts(tmp_path / "X_TEST.ts", _ts_rows("cacaca"))
    paths = [tmp_path / "X_TEST.ts", tmp_path / "X_TRAIN.ts"]
    assert cli._discover_datasets(tmp_path) == [("X", paths)]
    merged = cli._load_merged("X", paths, "auto", None)
    assert merged.class_names == ["c", "a", "b"]
    assert [merged.class_names[inst.class_index] for inst in merged.instances] == list("cacacaabababab")
    assert [inst.channels[0, 0] for inst in merged.instances][6:8] == [0.0, 10.0]
    report = tmp_path / "grid.tsv"
    assert main(["bench", "--data-dir", str(tmp_path), "--methods", "ed-i", "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["method", "X"]
    assert report.read_text(encoding="utf-8").startswith("X\ted-i\taccuracy\t")


@pytest.mark.parametrize("channels, length, what", [(2, 5, "1 against 2 channels"),
                                                    (1, 6, "5 against 6 points per series")])
def test_bench_refuses_a_pair_of_other_shapes_exits_2(tmp_path, capsys, channels, length, what):
    _write_ts(tmp_path / "X_TRAIN.ts", _ts_rows("abababab", channels, length))
    _write_ts(tmp_path / "X_TEST.ts", _ts_rows("abab"))
    assert main(["bench", "--data-dir", str(tmp_path), "--methods", "ed-i"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"data error: X: cannot merge {tmp_path / 'X_TEST.ts'} with {tmp_path / 'X_TRAIN.ts'}: {what}\n"
    )


def test_class_column_given_as_an_index(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("p,q,K,r\n" + "".join(
        f"{9.0 * (i % 2) + 0.01 * i};1;2,1;2;3,{('Lo', 'Hi')[i % 2]},4;5;6\n" for i in range(8)
    ), encoding="utf-8")
    printed = []
    for column in ("2", "K"):
        assert main(["train", "--data", str(data), "--min-leaf", "1", "--class-column", column]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].splitlines() == ["<A> p <= 1.5: Lo (4.0)", "[A] p > 1.5: Hi (4.0)"]


def test_train_on_a_malformed_data_file_names_it_exits_2(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("A,C\n1;x;3,a\n", encoding="utf-8")
    assert main(["train", "--data", str(data)]) == 2
    assert capsys.readouterr().err == f"data error: {data}: non-numeric value 'x' at row 2, column 'A'\n"


def test_evaluate_refuses_a_class_the_model_lacks_exits_2(tmp_path, capsys):
    ds = separable_dataset()
    data = write_dataset(tmp_path, ds)
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--min-leaf", "1", "--out", str(model_path)]) == 0
    other = TemporalDataset(ds.instances, ds.attribute_names, ["Lo", "Mid"], ds.series_length)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path), "--data", str(write_dataset(tmp_path, other, "mid.csv"))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "data error: data contains classes unknown to the model: ['Mid']\n"


def test_compare_and_bench_refuse_no_methods_or_no_data_files(tmp_path, capsys):
    data = str(write_dataset(tmp_path, separable_dataset()))
    assert main(["compare", "--data", data, "--methods", ","]) == 1
    assert capsys.readouterr().err == "usage error: no methods given\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    for folder, message in ((tmp_path / "nowhere", "no such directory:"), (empty, "no data files found under")):
        assert main(["bench", "--data-dir", str(folder)]) == 2
        assert capsys.readouterr().err == f"data error: {message} {folder}\n"


def test_train_takes_no_seed_but_compare_and_bench_do(tmp_path, capsys):
    """The learner is deterministic, so ``train --seed`` is a usage error;
    the resampling commands keep theirs."""
    data = str(write_dataset(tmp_path, separable_dataset()))
    assert main(["train", "--data", data, "--seed", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: unrecognized arguments: --seed 9\n"
    for command, listed in (("train", False), ("compare", True), ("bench", True)):
        assert main([command, "--help"]) == 0
        assert ("--seed" in capsys.readouterr().out) == listed, command


def test_help_exits_0_and_an_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out

    def broken(dataset, config):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "grow_tree", broken)
    assert main(["train", "--data", str(write_dataset(tmp_path, separable_dataset()))]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Traceback") and err.endswith("RuntimeError: broken invariant\n")


def test_compare_trims_a_table_of_cells_past_the_csv_default_field_limit(tmp_path, capsys):
    data = write_dataset(tmp_path, long_dataset())
    assert main(["compare", "--data", str(data), "--max-len", "150", "--methods", "ed-i,tj48"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split() == ["method", "data"]
