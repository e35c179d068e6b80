import json
import signal

import numpy as np
import pytest

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
    load_model,
    model_from_text,
    model_to_text,
    save_model,
)
from tstrees.core import DataFormatError

from conftest import random_dataset

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


@pytest.mark.filterwarnings("ignore:class .* falling back to unstratified assignment")
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
