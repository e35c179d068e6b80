"""Acceptance suite: one test per criterion, each printing a PASS line when
it completes (run with ``pytest -s`` to see them).

Criterion 6 exercises the full archive pipeline.  Public sequence archives
cannot be fetched in this environment, so by default it runs on a synthetic
twin with the same geometry as the racket-sports archive (120 cases, 6
channels, 30 points, 4 classes), written and re-read through the UEA text
format.  Point TSTREES_UEA_DIR at a directory containing
RacketSports_TRAIN.ts / RacketSports_TEST.ts to run on the real data.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from tstrees.core import (
    Comparator,
    FULL_HS,
    Instance,
    Interval,
    IntervalRelation,
    LearnerConfig,
    Node,
    TemporalDataset,
    iter_nodes,
)
from tstrees.baselines import dtw, dtw_d, dtw_i
from tstrees.cli import main
from tstrees.dataio import parse_uea_sequence, resample_split, trim
from tstrees.evaluation import accuracy, group_of
from tstrees.induction import (
    best_split,
    classify,
    confusion,
    grow_static_tree,
    grow_tree,
    static_series_dataset,
)
from tstrees.intervals import (
    allen_related,
    check_decision,
    enumerate_intervals,
    holds_on,
    split_dataset,
)
from tstrees.rendering import extract_class_theory, render_tree

import fixture_tree
import oracles
from conftest import random_dataset, random_decision

Rel = IntervalRelation


def _passed(k: int, name: str) -> None:
    print(f"ACCEPTANCE {k} ({name}): PASS")


# ---------------------------------------------------------------------- 1


def test_criterion_1_interval_semantics_oracle():
    rng = np.random.default_rng(101)

    # exhaustive transposition and joint exhaustiveness for N <= 8
    for n in range(2, 9):
        ivals = enumerate_intervals(n)
        for i in ivals:
            for j in ivals:
                matches = [rel for rel in Rel if allen_related(i, j, rel)]
                assert len(matches) == 1
                for rel in Rel:
                    if rel is not Rel.EQ:
                        assert allen_related(i, j, rel) == allen_related(j, i, rel.transpose)

    for _ in range(200):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 4))
        length = int(rng.integers(2, 11))
        ds = random_dataset(rng, m=m, n=n, length=length, q=int(rng.integers(2, 4)),
                            random_references=True)
        checker = oracles.BulkChecker(ds.instances)
        intervals = checker.intervals
        pos_of = {id(inst.channels): k for k, inst in enumerate(ds.instances)}
        refs = [inst.reference for inst in ds.instances]
        for _ in range(500):
            decision = random_decision(rng, ds, max_z=min(1, length - 1))
            sat_o, wit_o = checker.decision_outcomes(decision)

            t1, t2 = split_dataset(ds.instances, decision)
            sat_lib = np.zeros(m, dtype=bool)
            for moved in t1:
                k = pos_of[id(moved.channels)]
                sat_lib[k] = True
                if decision.relation is Rel.EQ:
                    assert moved.reference == refs[k]
                else:
                    assert (moved.reference.x, moved.reference.y) == intervals[wit_o[k]]
            assert np.array_equal(sat_lib, sat_o)
            for kept in t2:
                assert kept.reference == refs[pos_of[id(kept.channels)]]

            for k in range(min(m, 4)):
                result = check_decision(ds.instances[k], decision)
                assert result.satisfied == bool(sat_o[k])
                if result.satisfied and decision.relation is not Rel.EQ:
                    assert (result.witness.x, result.witness.y) == intervals[wit_o[k]]
                else:
                    assert result.witness is None
    _passed(1, "interval-semantics oracle")


# ---------------------------------------------------------------------- 2


def test_criterion_2_split_search_oracle():
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(100):
        ds = random_dataset(
            rng,
            m=int(rng.integers(4, 13)),
            n=int(rng.integers(1, 4)),
            length=int(rng.integers(3, 9)),
            q=int(rng.integers(2, 4)),
            random_references=True,
        )
        cfg = LearnerConfig(
            alpha_grid=(0.5, 1.0),
            max_derivative=1,
            relations=FULL_HS,
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
        assert got.split_info == si, "split_info must match the enumerator exactly"
        assert got.partition_sizes == sizes
        d = got.decision
        assert (d.attribute_index, d.relation.rank, d.comparator.rank, d.threshold,
                d.alpha, d.derivative_degree) == (attr, rel_rank, cmp_rank, thr, alpha, z)
        checked += 1
    assert checked >= 50  # the vast majority of random datasets admit a split
    _passed(2, "split-search oracle")


# ---------------------------------------------------------------------- 3


def test_criterion_3_theta_consistency():
    rng = np.random.default_rng(303)
    configs = (
        [LearnerConfig(min_leaf_size=1)] * 6
        + [LearnerConfig(min_leaf_size=2)] * 6
        + [LearnerConfig(alpha_grid=(0.5, 1.0), min_leaf_size=1)] * 8
        + [LearnerConfig(alpha_grid=(0.5, 1.0), max_derivative=1, min_leaf_size=2)] * 4
    )
    for cfg in configs:
        ds = random_dataset(
            rng,
            m=int(rng.integers(6, 17)),
            n=int(rng.integers(1, 4)),
            length=int(rng.integers(3, 9)),
            q=int(rng.integers(2, 4)),
        )
        tree = grow_tree(ds, cfg)
        matrix = confusion(tree, ds)
        q = ds.class_count
        rows = [[0] * q for _ in range(q)]
        correct = 0
        for inst in ds.instances:
            pred, _ = classify(tree, inst)
            rows[pred][inst.class_index] += 1
            correct += pred == inst.class_index
        assert matrix.counts == tuple(tuple(r) for r in rows)
        assert accuracy(matrix) == correct / ds.size
        if isinstance(tree, Node):
            left = confusion_sub(tree, ds)
            assert left.counts == matrix.counts
    _passed(3, "theta consistency")


def confusion_sub(tree, ds):
    """Recompute the matrix as the sum of the children's matrices."""
    from tstrees.core import ConfusionMatrix, Leaf as _Leaf, ROOT_REFERENCE

    q = ds.class_count

    def theta(node, insts):
        if isinstance(node, _Leaf):
            rows = [[0] * q for _ in range(q)]
            for inst in insts:
                rows[node.class_index][inst.class_index] += 1
            return ConfusionMatrix.from_rows(rows)
        t1, t2 = split_dataset(insts, node.decision)
        return theta(node.left, t1) + theta(node.right, t2)

    rooted = [i.with_reference(ROOT_REFERENCE) for i in ds.instances]
    t1, t2 = split_dataset(rooted, tree.decision)
    return theta(tree.left, t1) + theta(tree.right, t2)


# ---------------------------------------------------------------------- 4


def test_criterion_4_degenerate_static_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(50):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(1, 4))
        table = np.round(rng.normal(size=(m, n)), 2)
        labels = [int(v) for v in rng.integers(0, 2, size=m)]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        cfg = LearnerConfig(min_leaf_size=int(rng.integers(1, 3)))
        static = grow_static_tree(table, labels, cfg)
        ds = static_series_dataset(table, labels)
        temporal = grow_tree(
            ds,
            LearnerConfig(
                relations=(Rel.EQ,),
                alpha_grid=(1.0,),
                max_derivative=0,
                min_leaf_size=cfg.min_leaf_size,
            ),
        )
        assert [nd.decision for nd in iter_nodes(static)] == [
            nd.decision for nd in iter_nodes(temporal)
        ]
        acc_static = sum(
            1 for inst, lab in zip(ds.instances, labels) if classify(static, inst)[0] == lab
        )
        acc_temporal = sum(
            1 for inst, lab in zip(ds.instances, labels) if classify(temporal, inst)[0] == lab
        )
        assert acc_static == acc_temporal
    _passed(4, "degenerate static equivalence")


# ---------------------------------------------------------------------- 5


def test_criterion_5_dtw_oracle_and_worked_example():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        la, lb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        ra = np.round(rng.normal(size=la), 3)
        rb = np.round(rng.normal(size=lb), 3)
        assert abs(dtw(ra, rb) - oracles.dtw_univariate_oracle(ra, rb)) <= 1e-9

        length = int(rng.integers(1, 6))
        n_ch = int(rng.integers(1, 4))
        a = Instance(np.round(rng.normal(size=(n_ch, length)), 3), 0)
        b = Instance(np.round(rng.normal(size=(n_ch, length)), 3), 0)
        want_i = sum(
            oracles.dtw_univariate_oracle(a.channels[c], b.channels[c]) for c in range(n_ch)
        )
        assert abs(dtw_i(a, b) - want_i) <= 1e-9
        assert abs(dtw_d(a, b) - oracles.dtw_dependent_oracle(a.channels, b.channels)) <= 1e-9

    # the worked vital-signs example: all three conditions hold at alpha 1
    o2 = [88.0, 89.0, 90.0, 85.0, 82.0]
    pr = [105.0, 107.0, 110.0, 108.0, 102.0]
    te = [37.0, 37.0, 39.0, 39.0, 37.0]
    assert holds_on(o2, Interval(1, 3), Comparator.GT, 86.0, 1.0, 0)
    assert holds_on(te, Interval(1, 2), Comparator.LE, 38.0, 1.0, 0)
    assert holds_on(pr, Interval(2, 4), Comparator.GT, 105.0, 1.0, 0)
    _passed(5, "dtw oracle and worked example")


# ---------------------------------------------------------------------- 6


ARCHIVE_CLASSES = ["Badminton_Clear", "Badminton_Smash",
                   "Squash_ForehandBoast", "Squash_BackhandBoast"]


def synthetic_archive_pair() -> tuple[str, str]:
    """A deterministic archive-format twin of the racket-sports data: 120
    cases split 60/60 over two files, 6 channels, 30 points, 4 classes."""
    rng = np.random.default_rng(606)
    cases = []
    for k in range(120):
        cls = k % 4
        channels = rng.normal(0.0, 0.5, size=(6, 30))
        lo = 3 + 5 * cls
        channels[cls, lo : lo + 8] += 2.5
        channels[cls + 1, lo : lo + 8] -= 1.5
        cases.append((channels, cls))
    rng.shuffle(cases)

    def to_text(selection):
        lines = [
            "@problemName SyntheticRackets",
            "@timeStamps false",
            "@classLabel true " + " ".join(ARCHIVE_CLASSES),
            "@data",
        ]
        for channels, cls in selection:
            chans = ":".join(
                ",".join(f"{v:.4f}" for v in channels[c]) for c in range(6)
            )
            lines.append(f"{chans}:{ARCHIVE_CLASSES[cls]}")
        return "\n".join(lines) + "\n"

    return to_text(cases[:60]), to_text(cases[60:])


def _merge(a: TemporalDataset, b: TemporalDataset) -> TemporalDataset:
    index = {name: i for i, name in enumerate(a.class_names)}
    classes = list(a.class_names)
    merged = list(a.instances)
    for inst in b.instances:
        name = b.class_names[inst.class_index]
        if name not in index:
            index[name] = len(classes)
            classes.append(name)
        copy = inst.with_reference(inst.reference)
        copy.class_index = index[name]
        merged.append(copy)
    return TemporalDataset(merged, list(a.attribute_names), classes, a.series_length)


def _load_archive() -> TemporalDataset:
    uea_dir = os.environ.get("TSTREES_UEA_DIR")
    if uea_dir:
        train = parse_uea_sequence(
            (Path(uea_dir) / "RacketSports_TRAIN.ts").read_text(encoding="utf-8")
        )
        test = parse_uea_sequence(
            (Path(uea_dir) / "RacketSports_TEST.ts").read_text(encoding="utf-8")
        )
    else:
        text_a, text_b = synthetic_archive_pair()
        train = parse_uea_sequence(text_a)
        test = parse_uea_sequence(text_b)
    return _merge(train, test)


def test_criterion_6_archive_pipeline_and_harness():
    pool = _load_archive()
    pool = trim(pool, 150)
    train, test = resample_split(pool, 0.8, seed=7)

    # structural facts of the resampled archive
    assert (train.size, test.size) == (96, 24)
    assert train.attribute_count == 6
    assert train.series_length == 30
    assert train.class_count == 4

    # one learner with alpha as a search axis over the 0.5..0.9 grid,
    # full relation set, no derivatives
    cfg = LearnerConfig(
        alpha_grid=(0.5, 0.6, 0.7, 0.8, 0.9),
        relations=FULL_HS,
        max_derivative=0,
    )
    tree = grow_tree(train, cfg)
    acc = accuracy(confusion(tree, test))
    majority = train.majority_class()
    baseline = sum(1 for i in test.instances if i.class_index == majority) / test.size
    assert acc > baseline, f"learned accuracy {acc} not above baseline {baseline}"

    # the comparison harness reproduces the nine-method ladder
    from tstrees.cli import run_method

    methods = ["j48:1100", "ed-i", "dtw-i", "dtw-d",
               "tj48:0.5", "tj48:0.6", "tj48:0.7", "tj48:0.8", "tj48:0.9"]
    rows = [(m, run_method(m, train, test)) for m in methods]
    assert len(rows) == 9
    assert [group_of(m) for m, _ in rows] == (
        ["feature"] + ["distance"] * 3 + ["temporal"] * 5
    )
    from tstrees.evaluation import compare_report

    report = compare_report(rows, title="archive")
    body = [ln for ln in report.splitlines()[1:] if not set(ln) <= {"-"}]
    assert [ln.split()[0] for ln in body] == methods
    _passed(6, "archive pipeline and harness")


# ---------------------------------------------------------------------- 7


def test_criterion_7_golden_rendering_and_theory():
    tree = fixture_tree.golden_tree()
    text = render_tree(tree, fixture_tree.ATTRS, fixture_tree.CLASSES)
    assert text == fixture_tree.GOLDEN_TEXT
    for token in ("<L> var5 <= -2.756591", "[L] var5 > -2.756591", "<=>", "[=]", "InvA", "(6.0)", "(3.0/1.0)"):
        assert token in text

    formulas = extract_class_theory(tree, fixture_tree.BH, fixture_tree.ATTRS)
    # the first two are the reference branch shapes; the third covers the
    # remaining leaf of the class
    assert formulas == fixture_tree.BACKHAND_FORMULAS
    assert len(formulas) == 3
    _passed(7, "golden rendering and theory")


# ---------------------------------------------------------------------- 8


def test_criterion_8_determinism(tmp_path, capsys):
    rng = np.random.default_rng(808)
    instances = []
    for i in range(14):
        cls = i % 2
        base = 0.0 if cls == 0 else 6.0
        values = base + np.round(rng.normal(0, 0.4, size=5), 3)
        instances.append(Instance(values.reshape(1, 5), cls))
    ds = TemporalDataset(instances, ["var0"], ["Lo", "Hi"], 5)

    from tstrees.dataio import serialize_semicolon_table

    data = tmp_path / "data.csv"
    data.write_text(serialize_semicolon_table(ds), encoding="utf-8")

    model_a, model_b = tmp_path / "a.json", tmp_path / "b.json"
    train_args = ["train", "--data", str(data), "--alpha", "0.5:1.0:0.25",
                  "--min-leaf", "1"]
    assert main(train_args + ["--out", str(model_a)]) == 0
    out_a = capsys.readouterr().out
    assert main(train_args + ["--out", str(model_b)]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert model_a.read_bytes() == model_b.read_bytes()

    rep_a, rep_b = tmp_path / "ra.tsv", tmp_path / "rb.tsv"
    cmp_args = ["compare", "--data", str(data), "--seed", "5",
                "--methods", "tj48:0.5,tj48:1.0,ed-i,dtw-i,dtw-d,j48:1100"]
    assert main(cmp_args + ["--report", str(rep_a)]) == 0
    cmp_out_a = capsys.readouterr().out
    assert main(cmp_args + ["--report", str(rep_b)]) == 0
    cmp_out_b = capsys.readouterr().out
    assert cmp_out_a == cmp_out_b
    assert rep_a.read_bytes() == rep_b.read_bytes()
    _passed(8, "determinism")
