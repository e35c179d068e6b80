"""Command-line interface: train, predict, evaluate, compare, bench.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from .baselines import DISTANCE_METRICS, FeatureMask, feature_table, nn_predict
from .core import (
    Comparator,
    ConfusionMatrix,
    DataFormatError,
    FULL_HS,
    Instance,
    IntervalRelation,
    LearnerConfig,
    TemporalDataset,
)
from .dataio import load_dataset, resample_split, trim
from .evaluation import (
    accuracy,
    class_report,
    compare_report,
    grid_report,
    metrics_lines,
    percent,
)
from .induction import classify, grow_static_tree, grow_tree, static_series_dataset
from .model import ModelBundle, load_model, save_model
from .rendering import extract_class_theory, render_tree

DEFAULT_TRIM = 150


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


#: Most values one a:b:step alpha range may give.
_MAX_RANGE_VALUES = 1000


def _parse_alpha_spec(specs: Sequence[str]) -> tuple[float, ...]:
    values: list[float] = []
    for spec in specs:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" in chunk:
                parts = chunk.split(":")
                if len(parts) != 3:
                    raise UsageError(f"alpha range must be a:b:step, got {chunk!r}")
                lo, hi, step = (float(p) for p in parts)
                if not all(map(math.isfinite, (lo, hi, step))):  # the loop would not end
                    raise UsageError(f"alpha range parts must be finite numbers, got {chunk!r}")
                if step <= 0:
                    raise UsageError("alpha range step must be positive")
                span = (hi - lo) / step + 0.5  # the loop gives floor(span) + 1 values, up to rounding
                if span >= _MAX_RANGE_VALUES:
                    count = f"about {math.floor(span) + 1}" if math.isfinite(span) else "over 1e308"
                    raise UsageError(
                        f"alpha range {chunk!r} would give {count} values; "
                        f"a range may give at most {_MAX_RANGE_VALUES}"
                    )
                k = 0
                while True:
                    v = round(lo + k * step, 10)
                    if v > hi + step / 2:
                        break
                    values.append(v)
                    k += 1
            else:
                values.append(float(chunk))
    if not values:
        raise UsageError("no alpha values given")
    # a repeated alpha would repeat its sweeps for the same result
    return tuple(dict.fromkeys(values))


_RELATION_TOKENS = {r.name.lower(): r for r in IntervalRelation}
_RELATION_TOKENS.update({r.value.lower(): r for r in IntervalRelation})
_RELATION_TOKENS["eq"] = IntervalRelation.EQ

_COMPARATOR_TOKENS = {
    "<=": Comparator.LE,
    "le": Comparator.LE,
    ">": Comparator.GT,
    "gt": Comparator.GT,
    "=": Comparator.EQ,  # refused by LearnerConfig, with its reason
    "eq": Comparator.EQ,
}


def _parse_relations(spec: str) -> tuple[IntervalRelation, ...]:
    if spec.strip().lower() == "full-hs":
        return FULL_HS
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _RELATION_TOKENS:
            raise UsageError(f"unknown relation {token!r}")
        rel = _RELATION_TOKENS[token]
        if rel not in out:
            out.append(rel)
    if not out:
        raise UsageError("no relations given")
    return tuple(sorted(out, key=lambda r: r.rank))


def _parse_comparators(spec: str) -> tuple[Comparator, ...]:
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in _COMPARATOR_TOKENS:
            raise UsageError(f"unknown comparator {token!r}")
        cmp = _COMPARATOR_TOKENS[token]
        if cmp not in out:
            out.append(cmp)
    if not out:
        raise UsageError("no comparators given")
    return tuple(sorted(out, key=lambda c: c.rank))


def _load(path_text: str, fmt: str, class_column) -> TemporalDataset:
    path = Path(path_text)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    if fmt == "auto":
        fmt = "uea" if path.suffix.lower() == ".ts" else "semicolon"
    column = class_column
    if isinstance(column, str) and column.isdigit():
        column = int(column)
    try:
        return load_dataset(path, fmt, column)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _config_from_args(args) -> LearnerConfig:
    try:
        return LearnerConfig(
            alpha_grid=_parse_alpha_spec(args.alpha) if args.alpha else (1.0,),
            max_derivative=args.max_z,
            relations=_parse_relations(args.relations),
            comparators=_parse_comparators(args.comparators),
            min_leaf_size=args.min_leaf,
            purity_threshold=args.purity,
        )
    except ValueError as exc:  # a value out of range, or an alpha that is no number
        raise UsageError(str(exc)) from exc


def _default_alpha(config: LearnerConfig) -> float:
    return config.alpha_grid[0] if len(config.alpha_grid) == 1 else 1.0


def _check_model_shape(dataset: TemporalDataset, bundle: ModelBundle) -> None:
    if dataset.attribute_count != len(bundle.attribute_names):
        raise DataFormatError(
            f"data has {dataset.attribute_count} channels but the model expects "
            f"{len(bundle.attribute_names)}"
        )
    if dataset.series_length != bundle.series_length:
        raise DataFormatError(
            f"data has series of length {dataset.series_length} but the model "
            f"expects length {bundle.series_length}"
        )


def _relabel(dataset: TemporalDataset, index: dict[str, int]) -> list[Instance]:
    """Copies of the dataset's instances whose class indices point, by class
    name, into ``index``."""
    return [
        replace(inst, class_index=index[dataset.class_names[inst.class_index]])
        for inst in dataset.instances
    ]


def _remap_to_model(dataset: TemporalDataset, bundle: ModelBundle) -> TemporalDataset:
    _check_model_shape(dataset, bundle)
    index = {name: i for i, name in enumerate(bundle.class_names)}
    unknown = [c for c in dataset.class_names if c not in index]
    if unknown:
        raise DataFormatError(f"data contains classes unknown to the model: {unknown}")
    return TemporalDataset(
        instances=_relabel(dataset, index),
        attribute_names=list(bundle.attribute_names),
        class_names=list(bundle.class_names),
        series_length=dataset.series_length,
    )


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = _load(args.data, args.format, args.class_column)
    if args.theory_class is not None and args.theory_class not in dataset.class_names:
        raise DataFormatError(f"unknown class {args.theory_class!r}")
    tree = grow_tree(dataset, config)
    sys.stdout.write(
        render_tree(
            tree,
            dataset.attribute_names,
            dataset.class_names,
            default_alpha=_default_alpha(config),
        )
    )
    if args.out:
        bundle = ModelBundle(
            tree=tree,
            attribute_names=list(dataset.attribute_names),
            class_names=list(dataset.class_names),
            series_length=dataset.series_length,
            config=config,
        )
        save_model(args.out, bundle)
    if args.theory_class is not None:
        for formula in extract_class_theory(
            tree,
            dataset.class_names.index(args.theory_class),
            dataset.attribute_names,
            default_alpha=_default_alpha(config),
        ):
            sys.stdout.write(formula + "\n")
    return 0


def _cmd_predict(args) -> int:
    bundle = load_model(args.model)
    dataset = _load(args.data, args.format, args.class_column)
    _check_model_shape(dataset, bundle)
    for inst in dataset.instances:
        cls, _ = classify(bundle.tree, inst)
        sys.stdout.write(bundle.class_names[cls] + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    bundle = load_model(args.model)
    dataset = _remap_to_model(_load(args.data, args.format, args.class_column), bundle)
    actual = [inst.class_index for inst in dataset.instances]
    leaves = [classify(bundle.tree, inst) for inst in dataset.instances]
    matrix = ConfusionMatrix.tally([cls for cls, _ in leaves], actual, dataset.class_count)
    scores = []
    for true, (_, counts) in zip(actual, leaves):
        total = sum(counts)
        scores.append((true, [c / total if total else 0.0 for c in counts]))
    acc = accuracy(matrix)
    report = class_report(matrix, scores)

    out = sys.stdout
    out.write(f"accuracy: {percent(acc)}\n")
    out.write("confusion matrix (rows = predicted, columns = true):\n")
    width = max(len(name) for name in dataset.class_names)
    width = max(width, 6)
    out.write(" " * (width + 2) + "".join(n.rjust(width + 2) for n in dataset.class_names) + "\n")
    for i, name in enumerate(dataset.class_names):
        out.write(
            name.rjust(width + 2)
            + "".join(str(v).rjust(width + 2) for v in matrix.counts[i])
            + "\n"
        )
    out.write("per-class metrics:\n")
    header = ["tp_rate", "fp_rate", "precision", "recall", "f_measure", "mcc", "roc_area", "prc_area"]
    out.write("  ".join(h.rjust(9) for h in header) + "  class\n")
    for c, name in enumerate(dataset.class_names):
        row = report[c]
        vals = [row.tp_rate, row.fp_rate, row.precision, row.recall, row.f_measure, row.mcc, row.roc_area, row.prc_area]
        out.write("  ".join(f"{v:9.3f}" for v in vals) + f"  {name}\n")

    if args.report:
        label = Path(args.data).stem
        records = [(label, "model", "accuracy", acc)]
        for c, name in enumerate(dataset.class_names):
            row = report[c]
            for metric in header:
                records.append((label, "model", f"{metric}[{name}]", getattr(row, metric)))
        Path(args.report).write_text(metrics_lines(records), encoding="utf-8")
    return 0


_Runner = Callable[[TemporalDataset, TemporalDataset], list[int]]


def _tj48_predict(config: LearnerConfig, train: TemporalDataset, test: TemporalDataset) -> list[int]:
    tree = grow_tree(train, config)
    return [classify(tree, inst)[0] for inst in test.instances]


def _nn_predict(metric: str, train: TemporalDataset, test: TemporalDataset) -> list[int]:
    return nn_predict(train, test.instances, metric)


def _j48_predict(mask: FeatureMask, train: TemporalDataset, test: TemporalDataset) -> list[int]:
    table, _ = feature_table(train, mask)
    labels = [inst.class_index for inst in train.instances]
    tree = grow_static_tree(table, labels, LearnerConfig())
    test_table, _ = feature_table(test, mask)
    encoded = static_series_dataset(test_table, [inst.class_index for inst in test.instances])
    return [classify(tree, inst)[0] for inst in encoded.instances]


def _parse_method(method: str) -> _Runner:
    """Check one method token and return the function that trains it on a
    training split and returns its class predictions for the test split."""
    name, _, spec = method.partition(":")
    try:
        if name == "tj48":
            grid = _parse_alpha_spec([spec]) if spec else (1.0,)
            return partial(_tj48_predict, LearnerConfig(alpha_grid=grid))
        if name == "j48":
            mask = FeatureMask.from_bits(spec) if spec else FeatureMask(True, True, True, True)
            return partial(_j48_predict, mask)
    except ValueError as exc:  # an alpha or mask that LearnerConfig or FeatureMask refuses
        raise UsageError(f"method {method!r}: {exc}") from exc
    if method in DISTANCE_METRICS:
        return partial(_nn_predict, method)
    raise UsageError(f"unknown method {method!r}")


def _test_accuracy(run: _Runner, train: TemporalDataset, test: TemporalDataset) -> float:
    """Train one method's runner and score its predictions on the test split."""
    actual = [inst.class_index for inst in test.instances]
    return accuracy(ConfusionMatrix.tally(run(train, test), actual, test.class_count))


def run_method(method: str, train: TemporalDataset, test: TemporalDataset) -> float:
    """Train one comparison method and return its test accuracy."""
    return _test_accuracy(_parse_method(method), train, test)


def _race_plan(args) -> list[tuple[str, _Runner]]:
    """Check the split options and method tokens of ``compare`` and ``bench``
    before any data is read; one (token, runner) pair per method, in order."""
    if args.max_len < 0 or args.max_len == 1:
        raise UsageError(f"--max-len must be 0 (no trimming) or at least 2, got {args.max_len}")
    if not 0.0 < args.train_fraction < 1.0:
        raise UsageError(
            f"--train-fraction must lie strictly between 0 and 1, got {args.train_fraction}"
        )
    methods = [token.strip() for token in args.methods.split(",") if token.strip()]
    if not methods:
        raise UsageError("no methods given")
    return [(method, _parse_method(method)) for method in methods]


def _race(datasets, plan, args) -> list[tuple[str, str, str, float]]:
    """Run every planned method on a resampled split of each (name, dataset)
    pair, in order; one (name, method, "accuracy", value) record per run."""
    records = []
    for name, dataset in datasets:
        trimmed = trim(dataset, args.max_len) if args.max_len else dataset
        if trimmed.size < 2:
            raise DataFormatError(
                f"{name}: {trimmed.size} case, need at least two to split into training and test sets"
            )
        train, test = resample_split(trimmed, args.train_fraction, args.seed)
        for side, part in (("training", train), ("test", test)):
            if not part.instances:
                raise DataFormatError(
                    f"{name}: a training fraction of {args.train_fraction} leaves the {side} "
                    f"side of {trimmed.size} cases empty"
                )
        for method, run in plan:
            try:
                score = _test_accuracy(run, train, test)
            except DataFormatError as exc:  # a feature out of float64 range
                raise DataFormatError(f"{name}: {method}: {exc}") from None
            records.append((name, method, "accuracy", score))
    return records


def _cmd_compare(args) -> int:
    plan = _race_plan(args)
    label = Path(args.data).stem
    dataset = _load(args.data, args.format, args.class_column)
    records = _race([(label, dataset)], plan, args)
    sys.stdout.write(compare_report([(m, a) for _, m, _, a in records], title=label))
    if args.report:
        Path(args.report).write_text(metrics_lines(records), encoding="utf-8")
    return 0


def _discover_datasets(data_dir: Path) -> list[tuple[str, list[Path]]]:
    """Dataset name -> file list.  ``X_TRAIN.ts``/``X_TEST.ts`` pairs merge
    into one dataset named ``X``; other data files stand alone."""
    found: dict[str, list[Path]] = {}
    for path in sorted(data_dir.iterdir()):
        if not path.is_file():
            continue
        if path.suffix.lower() not in (".ts", ".csv"):
            continue
        stem = path.stem
        if stem.endswith("_TRAIN") or stem.endswith("_TEST"):
            found.setdefault(stem.rsplit("_", 1)[0], []).append(path)
        else:
            found.setdefault(stem, []).append(path)
    return sorted(found.items())


def _load_merged(paths: list[Path], fmt: str, class_column) -> TemporalDataset:
    parts = [_load(str(p), fmt, class_column) for p in sorted(paths)]
    base = parts[0]
    if len(parts) == 1:
        return base
    merged = list(base.instances)
    label_index = {name: i for i, name in enumerate(base.class_names)}
    for part in parts[1:]:
        if part.attribute_count != base.attribute_count:
            raise DataFormatError("cannot merge files with different channel counts")
        if part.series_length != base.series_length:
            raise DataFormatError("cannot merge files with different series lengths")
        for inst in part.instances:
            label_index.setdefault(part.class_names[inst.class_index], len(label_index))
        merged += _relabel(part, label_index)
    return TemporalDataset(
        instances=merged,
        attribute_names=list(base.attribute_names),
        class_names=list(label_index),
        series_length=base.series_length,
    )


def _cmd_bench(args) -> int:
    plan = _race_plan(args)
    data_dir = Path(args.data_dir)
    if not data_dir.is_dir():
        raise DataFormatError(f"no such directory: {data_dir}")
    datasets = _discover_datasets(data_dir)
    if not datasets:
        raise DataFormatError(f"no data files found under {data_dir}")
    loaded = (
        (name, _load_merged(paths, args.format, args.class_column)) for name, paths in datasets
    )
    records = _race(loaded, plan, args)
    cells = {(method, name): acc for name, method, _, acc in records}
    methods = [method for method, _ in plan]
    sys.stdout.write(grid_report(methods, [name for name, _ in datasets], cells))
    if args.report:
        Path(args.report).write_text(metrics_lines(records), encoding="utf-8")
    return 0


def _add_data_options(sub, flag="--data", help="path to the data file"):
    sub.add_argument(flag, required=True, help=help)
    sub.add_argument(
        "--format",
        choices=("auto", "semicolon", "uea"),
        default="auto",
        help="input format; auto picks by extension (.ts means uea)",
    )
    sub.add_argument(
        "--class-column",
        default=None,
        help="class column name or index for the semicolon format",
    )


def _add_split_options(sub):
    sub.add_argument("--train-fraction", type=float, default=0.8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--max-len",
        type=int,
        default=DEFAULT_TRIM,
        help="trim series to this many points before splitting (0 disables)",
    )
    sub.add_argument(
        "--methods",
        default="j48:1100,ed-i,dtw-i,dtw-d,tj48:0.5,tj48:0.6,tj48:0.7,tj48:0.8,tj48:0.9",
        help="comma list: tj48[:alpha], ed-i, dtw-i, dtw-d, j48[:mask]",
    )
    sub.add_argument("--report", default=None, help="write a metric-per-line report file")


@cache  # one parser per process: building it costs about 1 ms, and parsing keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tstrees", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = subs.add_parser("train", help="learn a tree and print it")
    _add_data_options(p_train)
    p_train.add_argument("--alpha", action="append", default=None,
                         help="alpha value, comma list, or a:b:step range; repeatable")
    p_train.add_argument("--max-z", type=int, default=0, help="maximum derivative degree")
    p_train.add_argument("--relations", default="full-hs",
                         help='comma list of relations or "full-hs"')
    p_train.add_argument("--comparators", default="<=,>", help="comma list of <=, >")
    p_train.add_argument("--min-leaf", type=int, default=2)
    p_train.add_argument("--purity", type=float, default=0.0,
                         help="entropy at or below which a node becomes a leaf")
    p_train.add_argument("--seed", type=int, default=0,
                         help="accepted and ignored: the learner is deterministic")
    p_train.add_argument("--out", default=None, help="write the model file here")
    p_train.add_argument("--theory-class", default=None,
                         help="also print the extracted formulas for this class")
    p_train.set_defaults(func=_cmd_train)

    p_predict = subs.add_parser("predict", help="print one class name per instance")
    p_predict.add_argument("--model", required=True)
    _add_data_options(p_predict)
    p_predict.set_defaults(func=_cmd_predict)

    p_eval = subs.add_parser("evaluate", help="accuracy, confusion matrix, per-class metrics")
    p_eval.add_argument("--model", required=True)
    _add_data_options(p_eval)
    p_eval.add_argument("--report", default=None, help="write a metric-per-line report file")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_cmp = subs.add_parser("compare", help="resample one dataset and race the methods")
    _add_data_options(p_cmp)
    _add_split_options(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_bench = subs.add_parser("bench", help="run the comparison over a directory of datasets")
    _add_data_options(p_bench, "--data-dir", "directory of .ts and .csv data files")
    _add_split_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
