"""Dataset ingestion and preprocessing.

Two text formats are supported:

* semicolon table: a header row with comma-separated column names, then one
  row per instance where each temporal cell packs its values as
  ``v1;v2;...;vN`` and one column holds the class label;
* UEA-style sequence files: optional ``@...`` metadata lines, then one case
  per line with channels separated by ``:``, values by ``,`` and the class
  label last.

Preprocessing covers series trimming and the seeded, stratified train/test
resampling used by the comparison harness.
"""

from __future__ import annotations

import csv
import io
import math
import random
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import DataFormatError, Instance, TemporalDataset


@dataclass(frozen=True)
class DatasetSource:
    """Where a dataset comes from and how to read it."""

    format: str  # "semicolon_table" | "uea_sequence"
    path: Path
    class_column: Union[str, int, None] = None


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFormatError(f"non-numeric value {token!r} at {where}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite value {token!r} at {where}")
    return value


def parse_semicolon_table(content: str, class_column: Union[str, int, None] = None) -> TemporalDataset:
    """Parse the semicolon string-cell table.

    ``class_column`` may be a header name, a column index, or None, in which
    case a column named ``C`` is used if present and the last column
    otherwise.  Class labels map to indices in first-appearance order.
    """
    reader = csv.reader(io.StringIO(content))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataFormatError("empty table: no header row")
    header = [cell.strip() for cell in rows[0]]
    data_rows = rows[1:]
    if not data_rows:
        raise DataFormatError("empty table: header but no data rows")

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

    label_to_index: dict[str, int] = {}
    class_names: list[str] = []
    instances: list[Instance] = []
    series_length: Optional[int] = None

    for r, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"row {r}: expected {len(header)} columns, found {len(row)}"
            )
        label = row[class_idx].strip()
        if not label:
            raise DataFormatError(f"row {r}: missing class label")
        if label not in label_to_index:
            label_to_index[label] = len(class_names)
            class_names.append(label)
        channels: list[list[float]] = []
        for c, cell in enumerate(row):
            if c == class_idx:
                continue
            tokens = [t for t in cell.strip().split(";") if t != ""]
            if not tokens:
                raise DataFormatError(f"row {r}, column {header[c]!r}: empty cell")
            values = [
                _parse_float(t, f"row {r}, column {header[c]!r}") for t in tokens
            ]
            if series_length is None:
                series_length = len(values)
            if len(values) != series_length:
                raise DataFormatError(
                    f"row {r}, column {header[c]!r}: cell has {len(values)} values, "
                    f"expected {series_length}"
                )
            channels.append(values)
        instances.append(
            Instance(channels=np.array(channels), class_index=label_to_index[label])
        )

    assert series_length is not None
    return TemporalDataset(
        instances=instances,
        attribute_names=attr_names,
        class_names=class_names,
        series_length=series_length,
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

    Metadata lines (starting with ``@``) and comments (``#``) are skipped;
    when an ``@data`` marker is present only lines after it count as cases.
    """
    lines = content.splitlines()
    data_lines: list[tuple[int, str]] = []
    saw_data_tag = False
    in_data = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            if line.lower() == "@data":
                saw_data_tag = True
                in_data = True
            continue
        if in_data or not saw_data_tag:
            data_lines.append((lineno, line))
    if not data_lines:
        raise DataFormatError("no data lines found")

    label_to_index: dict[str, int] = {}
    class_names: list[str] = []
    instances: list[Instance] = []
    n_channels: Optional[int] = None
    series_length: Optional[int] = None

    for lineno, line in data_lines:
        parts = [p.strip() for p in line.split(":")]
        if len(parts) < 2:
            raise DataFormatError(f"line {lineno}: expected channels and a class label")
        label = parts[-1]
        channel_parts = parts[:-1]
        if n_channels is None:
            n_channels = len(channel_parts)
        if len(channel_parts) != n_channels:
            raise DataFormatError(
                f"line {lineno}: {len(channel_parts)} channels, expected {n_channels}"
            )
        channels: list[list[float]] = []
        for ci, part in enumerate(channel_parts):
            tokens = [t for t in part.split(",") if t.strip() != ""]
            if not tokens:
                raise DataFormatError(f"line {lineno}: channel {ci} is empty")
            values = [_parse_float(t, f"line {lineno}, channel {ci}") for t in tokens]
            if series_length is None:
                series_length = len(values)
            if len(values) != series_length:
                raise DataFormatError(
                    f"line {lineno}, channel {ci}: {len(values)} values, "
                    f"expected {series_length}"
                )
            channels.append(values)
        if label not in label_to_index:
            label_to_index[label] = len(class_names)
            class_names.append(label)
        instances.append(
            Instance(channels=np.array(channels), class_index=label_to_index[label])
        )

    assert n_channels is not None and series_length is not None
    return TemporalDataset(
        instances=instances,
        attribute_names=[f"var{j}" for j in range(n_channels)],
        class_names=class_names,
        series_length=series_length,
    )


def load_dataset(source: DatasetSource) -> TemporalDataset:
    content = Path(source.path).read_text(encoding="utf-8")
    if source.format == "semicolon_table":
        return parse_semicolon_table(content, source.class_column)
    if source.format == "uea_sequence":
        return parse_uea_sequence(content)
    raise DataFormatError(f"unknown dataset format {source.format!r}")


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
