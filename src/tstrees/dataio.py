"""Dataset ingestion and preprocessing.

Two text formats are supported:

* semicolon table: a header row with comma-separated column names, then one
  row per instance where each temporal cell packs its values as
  ``v1;v2;...;vN`` and one column holds the class label;
* UEA-style sequence files: optional ``@...`` metadata lines, then one case
  per line with channels separated by ``:``, values by ``,`` and the class
  label last.

Each parser only splits its text into ``(label, cells, where)`` cases; one
builder turns the cases into instances and owns every rule the formats
share.

Preprocessing covers series trimming and the seeded, stratified train/test
resampling used by the comparison harness.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .core import DataFormatError, Instance, TemporalDataset


def _build_dataset(
    cases: Iterable[tuple[str, list[str], str]],
    sep: str,
    cell_name: Callable[[int], str],
    attribute_names: Optional[list[str]],
    empty: str,
) -> TemporalDataset:
    """Build a dataset from ``(label, cells, where)`` cases, each cell one
    channel of ``sep``-separated float literals.

    Every case needs a label, the first case's channel count and series
    length (at least 2), and finite values.  Labels become class indices in
    first-appearance order.  Errors name a case by ``where`` and a cell by
    ``cell_name(channel)``; ``empty`` is the error for no cases at all.
    """
    labels: dict[str, int] = {}
    instances: list[Instance] = []
    width: Optional[int] = None
    length: Optional[int] = None
    for label, cells, where in cases:
        if not label:
            raise DataFormatError(f"{where}: missing class label")
        if width is None:
            width = len(cells)
        if len(cells) != width:
            raise DataFormatError(f"{where}: {len(cells)} channels, expected {width}")
        rows = []
        for c, cell in enumerate(cells):
            try:
                values = list(map(float, filter(str.strip, cell.split(sep))))
            except ValueError:
                raise _cell_error(cell, sep, f"{where}, {cell_name(c)}") from None
            if not values:
                raise DataFormatError(f"{where}, {cell_name(c)}: empty cell")
            if length is None:
                length = len(values)
                if length < 2:
                    raise DataFormatError(f"{where}: series length 1, need at least 2")
            if len(values) != length:
                raise DataFormatError(
                    f"{where}, {cell_name(c)}: {len(values)} values, expected {length}"
                )
            rows.append(values)
        channels = np.array(rows)
        if not np.isfinite(channels).all():
            c = int(np.isfinite(channels).all(axis=1).argmin())
            raise _cell_error(cells[c], sep, f"{where}, {cell_name(c)}")
        instances.append(Instance(channels, labels.setdefault(label, len(labels))))
    if not instances:
        raise DataFormatError(empty)
    return TemporalDataset(
        instances=instances,
        attribute_names=attribute_names or [f"var{j}" for j in range(width)],
        class_names=list(labels),
        series_length=length,
    )


def _cell_error(cell: str, sep: str, where: str) -> DataFormatError:
    """The error for the first token of ``cell`` that is not a finite float."""
    for token in filter(str.strip, cell.split(sep)):
        try:
            value = float(token)
        except ValueError:
            return DataFormatError(f"non-numeric value {token.strip()!r} at {where}")
        if not math.isfinite(value):
            return DataFormatError(f"non-finite value {token.strip()!r} at {where}")
    raise AssertionError(f"{where}: no bad token")


def _lines(content: str) -> Iterator[str]:
    """The lines that ``io.StringIO(content)`` yields, each keeping its
    newline, without StringIO's copy of the text at four bytes a character."""
    return (line.group() for line in re.finditer(r"[^\n]*\n|[^\n]+", content))


def parse_semicolon_table(content: str, class_column: Union[str, int, None] = None) -> TemporalDataset:
    """Parse the semicolon string-cell table.

    ``class_column`` may be a header name, a column index, or None, in which
    case a column named ``C`` is used if present and the last column
    otherwise.  Rows are numbered from 1 at the header, skipping blank rows.
    """
    rows = (row for row in csv.reader(_lines(content)) if any(cell.strip() for cell in row))
    header = [cell.strip() for cell in next(rows, [])]
    if not header:
        raise DataFormatError("empty table: no header row")

    if class_column is None:
        class_idx = header.index("C") if "C" in header else len(header) - 1
    elif isinstance(class_column, int):
        if not (0 <= class_column < len(header)):
            raise DataFormatError(f"class column index {class_column} out of range")
        class_idx = class_column
    else:
        if class_column not in header:
            raise DataFormatError(f"no column named {class_column!r} in header {header}")
        class_idx = header.index(class_column)

    attr_names = [name for i, name in enumerate(header) if i != class_idx]
    if not attr_names:
        raise DataFormatError("table has a class column but no attributes")

    def cases():
        for r, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DataFormatError(
                    f"row {r}: expected {len(header)} columns, found {len(row)}"
                )
            label = row.pop(class_idx).strip()
            yield label, row, f"row {r}"

    return _build_dataset(
        cases(),
        ";",
        lambda c: f"column {attr_names[c]!r}",
        attr_names,
        "empty table: header but no data rows",
    )


def serialize_semicolon_table(dataset: TemporalDataset, class_column: str = "C") -> str:
    """Render a dataset back to the semicolon table format.

    Values print with ``repr`` so parsing the output reproduces the dataset
    exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(dataset.attribute_names) + [class_column])
    for inst in dataset.instances:
        cells = [
            ";".join(repr(float(v)) for v in inst.channels[ch])
            for ch in range(dataset.attribute_count)
        ]
        cells.append(dataset.class_names[inst.class_index])
        writer.writerow(cells)
    return out.getvalue()


def parse_uea_sequence(content: str) -> TemporalDataset:
    """Parse a UEA-style plain-text sequence file.

    Blank lines, metadata lines (starting with ``@``) and comments (``#``)
    are skipped; every other line is a case.  Channels are named ``var0``,
    ``var1``, ... and located in errors by their 0-based index.
    """

    def cases():
        for lineno, raw in enumerate(content.splitlines(), start=1):
            line = raw.strip()
            if not line or line[0] in "#@":
                continue
            *cells, label = line.split(":")
            if not cells:
                raise DataFormatError(f"line {lineno}: expected channels and a class label")
            yield label.strip(), cells, f"line {lineno}"

    return _build_dataset(cases(), ",", "channel {}".format, None, "no data lines found")


def load_dataset(
    path: Union[str, Path], fmt: str, class_column: Union[str, int, None] = None
) -> TemporalDataset:
    """Read ``path`` as a ``"semicolon"`` table or a ``"uea"`` sequence file;
    ``class_column`` applies to the semicolon table only."""
    content = Path(path).read_text(encoding="utf-8")
    if fmt == "semicolon":
        return parse_semicolon_table(content, class_column)
    if fmt == "uea":
        return parse_uea_sequence(content)
    raise DataFormatError(f"unknown dataset format {fmt!r}")


def trim(dataset: TemporalDataset, max_len: int) -> TemporalDataset:
    """Truncate every channel to its first ``max_len`` points; a no-op when
    the series are already short enough."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if dataset.series_length <= max_len:
        return dataset
    instances = [
        replace(inst, channels=inst.channels[:, :max_len].copy())
        for inst in dataset.instances
    ]
    return TemporalDataset(
        instances=instances,
        attribute_names=list(dataset.attribute_names),
        class_names=list(dataset.class_names),
        series_length=max_len,
    )


def resample_split(
    dataset: TemporalDataset, train_fraction: float, seed: int
) -> tuple[TemporalDataset, TemporalDataset]:
    """Seeded, class-stratified shuffle split.

    The training side receives ceil(train_fraction * m) instances overall;
    per-class quotas are floors topped up by largest fractional remainder.  A
    class with fewer than two members cannot be stratified and is assigned by
    the same quota rule after a warning.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    m = dataset.size
    if m < 2:
        raise ValueError("need at least two instances to split")
    target = math.ceil(train_fraction * m)
    rng = random.Random(seed)

    by_class: list[list[int]] = [[] for _ in dataset.class_names]
    for idx, inst in enumerate(dataset.instances):
        by_class[inst.class_index].append(idx)
    for c, members in enumerate(by_class):
        if 0 < len(members) < 2:
            warnings.warn(
                f"class {dataset.class_names[c]!r} has {len(members)} instance(s); "
                "falling back to unstratified assignment for it",
                stacklevel=2,
            )
        rng.shuffle(members)

    quotas = [train_fraction * len(members) for members in by_class]
    take = [math.floor(qt) for qt in quotas]
    remainder_order = sorted(
        range(len(by_class)), key=lambda c: (-(quotas[c] - take[c]), c)
    )
    i = 0
    while sum(take) < target and i < len(remainder_order):
        c = remainder_order[i]
        if take[c] < len(by_class[c]):
            take[c] += 1
        i += 1
    # pathological rounding: top up from any class with spare members
    for c in range(len(by_class)):
        while sum(take) < target and take[c] < len(by_class[c]):
            take[c] += 1

    train_idx: list[int] = []
    test_idx: list[int] = []
    for c, members in enumerate(by_class):
        train_idx.extend(members[: take[c]])
        test_idx.extend(members[take[c] :])
    rng.shuffle(train_idx)
    rng.shuffle(test_idx)

    def subset(indices: list[int]) -> TemporalDataset:
        return TemporalDataset(
            instances=[replace(dataset.instances[i]) for i in indices],
            attribute_names=list(dataset.attribute_names),
            class_names=list(dataset.class_names),
            series_length=dataset.series_length,
        )

    return subset(train_idx), subset(test_idx)
