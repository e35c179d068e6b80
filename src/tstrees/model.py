"""Versioned plain-text (JSON) model persistence.

The file stores the tree, the attribute and class name tables, the series
length, and the training configuration.  Dumps are canonical (sorted keys,
fixed indentation), so loading a file and saving it again is byte-identical.
Files of an unknown version refuse to load; version 1 files load and save
back as the current version.  One walk reads the tree and checks it against
the header; a part of the file that is missing, of another JSON type (no
value is coerced) or out of range is a :class:`DataFormatError` naming the
part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .core import (
    Comparator,
    DataFormatError,
    DecisionTree,
    IntervalRelation,
    Leaf,
    LearnerConfig,
    Node,
    TemporalDecision,
)

MODEL_FORMAT = "tstrees-model"
MODEL_VERSION = 2
# Version 1 also stored a witness policy and a seed, neither of which ever
# changed a tree; they are ignored on load.  So is the config's
# ``eq_tolerance``: the learner has none, since it never searches ``=``.  It
# is written as 0.0 so that model files keep their layout.
READABLE_VERSIONS = (1, MODEL_VERSION)

# what reading a part of the wrong shape raises, up to a number past float64
# or a tree nested past the interpreter's recursion limit
_MALFORMED = (KeyError, ValueError, TypeError, AttributeError, OverflowError, RecursionError)

_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _typed(value, kind: type, name: str):
    """``value`` if its JSON type is ``kind``, a number (``float``) returned
    as a float.  Nothing is coerced: ``true``, ``3.0`` and ``"3"`` are no
    integer, and ``true`` and ``"0.5"`` no number."""
    if type(value) is kind or (kind is float and type(value) is int):
        return float(value) if kind is float else value
    raise TypeError(f"{name} must be a JSON {_JSON_TYPES[kind]}, not {type(value).__name__}")


def _typed_list(value, kind: type, name: str) -> list:
    """``value`` if it is a JSON array of ``kind`` (see :func:`_typed`)."""
    if type(value) is not list:
        raise TypeError(f"{name} must be a JSON array, not {type(value).__name__}")
    return [_typed(item, kind, name) for item in value]


@dataclass(frozen=True)
class ModelBundle:
    tree: DecisionTree
    attribute_names: list[str]
    class_names: list[str]
    series_length: int
    config: LearnerConfig


def _decision_to_dict(d: TemporalDecision) -> dict:
    return {
        "relation": d.relation.name,
        "attribute_index": d.attribute_index,
        "derivative_degree": d.derivative_degree,
        "comparator": d.comparator.name,
        "threshold": d.threshold,
        "alpha": d.alpha,
        "eq_tolerance": d.eq_tolerance,
    }


def _decision_from_dict(obj: dict) -> TemporalDecision:
    try:
        return TemporalDecision(
            relation=IntervalRelation[obj["relation"]],
            attribute_index=_typed(obj["attribute_index"], int, "attribute_index"),
            derivative_degree=_typed(obj["derivative_degree"], int, "derivative_degree"),
            comparator=Comparator[obj["comparator"]],
            threshold=_typed(obj["threshold"], float, "threshold"),
            alpha=_typed(obj["alpha"], float, "alpha"),
            eq_tolerance=_typed(obj.get("eq_tolerance", 0.0), float, "eq_tolerance"),
        )
    except _MALFORMED as exc:
        raise DataFormatError(f"malformed decision in model file: {exc}") from exc


def _tree_to_dict(tree: DecisionTree) -> dict:
    if isinstance(tree, Leaf):
        return {
            "kind": "leaf",
            "class_index": tree.class_index,
            "class_counts": list(tree.class_counts),
        }
    return {
        "kind": "node",
        "decision": _decision_to_dict(tree.decision),
        "left": _tree_to_dict(tree.left),
        "right": _tree_to_dict(tree.right),
    }


def _tree_from_dict(obj: dict, shape: tuple[int, int, int]) -> DecisionTree:
    """Build a tree in one walk, refusing a decision that reads an attribute
    or degree beyond the header's ``shape`` (attributes, points, classes) and
    a leaf that counts another number of classes, which applying the tree
    would find out only halfway."""
    attributes, points, classes = shape
    part = "tree node"
    try:
        kind = obj["kind"]
        if kind == "node":
            d = _decision_from_dict(obj["decision"])
            if d.attribute_index >= attributes or d.derivative_degree >= points:
                raise DataFormatError(
                    f"model tree reads attribute {d.attribute_index} at degree {d.derivative_degree}, "
                    f"but the model has {attributes} attributes of {points} points"
                )
            return Node(d, _tree_from_dict(obj["left"], shape), _tree_from_dict(obj["right"], shape))
        if kind != "leaf":
            raise DataFormatError(f"malformed tree node of kind {kind!r} in model file")
        part = "leaf"
        counts = obj["class_counts"]
        if len(counts) != classes:
            raise DataFormatError(f"model leaf has {len(counts)} class counts for {classes} classes")
        return Leaf(_typed(obj["class_index"], int, "class_index"), tuple(_typed_list(counts, int, "class_counts")))
    except DataFormatError:  # a ValueError, raised below this node or for it
        raise
    except _MALFORMED as exc:
        raise DataFormatError(f"malformed {part} in model file: {exc}") from exc


def _config_to_dict(config: LearnerConfig) -> dict:
    return {
        "alpha_grid": list(config.alpha_grid),
        "max_derivative": config.max_derivative,
        "relations": [r.name for r in config.relations],
        "comparators": [c.name for c in config.comparators],
        "min_leaf_size": config.min_leaf_size,
        "purity_threshold": config.purity_threshold,
        "max_threshold_candidates": config.max_threshold_candidates,
        "eq_tolerance": 0.0,
    }


def _config_from_dict(obj: dict) -> LearnerConfig:
    try:
        return LearnerConfig(
            alpha_grid=tuple(_typed_list(obj["alpha_grid"], float, "alpha_grid")),
            max_derivative=_typed(obj["max_derivative"], int, "max_derivative"),
            relations=tuple(IntervalRelation[r] for r in _typed_list(obj["relations"], str, "relations")),
            comparators=tuple(Comparator[c] for c in _typed_list(obj["comparators"], str, "comparators")),
            min_leaf_size=_typed(obj["min_leaf_size"], int, "min_leaf_size"),
            purity_threshold=_typed(obj["purity_threshold"], float, "purity_threshold"),
            max_threshold_candidates=_typed(obj["max_threshold_candidates"], int, "max_threshold_candidates"),
        )
    except _MALFORMED as exc:
        raise DataFormatError(f"malformed config in model file: {exc}") from exc


def model_to_text(bundle: ModelBundle) -> str:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "attribute_names": list(bundle.attribute_names),
        "class_names": list(bundle.class_names),
        "series_length": bundle.series_length,
        "config": _config_to_dict(bundle.config),
        "tree": _tree_to_dict(bundle.tree),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_text(text: str) -> ModelBundle:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataFormatError(f"model file nests too deeply: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataFormatError("not a model file")
    version = payload.get("version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise DataFormatError(
            f"model version {version!r} is not supported (expected {MODEL_VERSION})"
        )
    try:
        attribute_names = _typed_list(payload["attribute_names"], str, "attribute_names")
        class_names = _typed_list(payload["class_names"], str, "class_names")
        series_length = _typed(payload["series_length"], int, "series_length")
        tree, config = payload["tree"], payload["config"]
    except KeyError as exc:
        raise DataFormatError(f"model file is missing {exc}") from exc
    except _MALFORMED as exc:
        raise DataFormatError(f"malformed header in model file: {exc}") from exc
    return ModelBundle(
        tree=_tree_from_dict(tree, (len(attribute_names), series_length, len(class_names))),
        attribute_names=attribute_names,
        class_names=class_names,
        series_length=series_length,
        config=_config_from_dict(config),
    )


def save_model(path: Union[str, Path], bundle: ModelBundle) -> None:
    Path(path).write_text(model_to_text(bundle), encoding="utf-8")


def load_model(path: Union[str, Path]) -> ModelBundle:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # not an OSError, so not otherwise a data error
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return model_from_text(text)
