"""Versioned plain-text (JSON) model persistence.

The file stores the tree, the attribute and class name tables, the series
length, and the training configuration.  Dumps are canonical (sorted keys,
fixed indentation), so loading a file and saving it again is byte-identical.
Files of an unknown version refuse to load; version 1 files load and save
back as the current version.
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
            attribute_index=int(obj["attribute_index"]),
            derivative_degree=int(obj["derivative_degree"]),
            comparator=Comparator[obj["comparator"]],
            threshold=float(obj["threshold"]),
            alpha=float(obj["alpha"]),
            eq_tolerance=float(obj.get("eq_tolerance", 0.0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
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


def _tree_from_dict(obj: dict) -> DecisionTree:
    kind = obj.get("kind")
    if kind == "leaf":
        return Leaf(
            class_index=int(obj["class_index"]),
            class_counts=tuple(int(c) for c in obj["class_counts"]),
        )
    if kind == "node":
        return Node(
            decision=_decision_from_dict(obj["decision"]),
            left=_tree_from_dict(obj["left"]),
            right=_tree_from_dict(obj["right"]),
        )
    raise DataFormatError(f"malformed tree node of kind {kind!r} in model file")


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
            alpha_grid=tuple(float(a) for a in obj["alpha_grid"]),
            max_derivative=int(obj["max_derivative"]),
            relations=tuple(IntervalRelation[r] for r in obj["relations"]),
            comparators=tuple(Comparator[c] for c in obj["comparators"]),
            min_leaf_size=int(obj["min_leaf_size"]),
            purity_threshold=float(obj["purity_threshold"]),
            max_threshold_candidates=int(obj["max_threshold_candidates"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
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
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataFormatError("not a model file")
    version = payload.get("version")
    if version not in READABLE_VERSIONS:
        raise DataFormatError(
            f"model version {version!r} is not supported (expected {MODEL_VERSION})"
        )
    try:
        return ModelBundle(
            tree=_tree_from_dict(payload["tree"]),
            attribute_names=[str(s) for s in payload["attribute_names"]],
            class_names=[str(s) for s in payload["class_names"]],
            series_length=int(payload["series_length"]),
            config=_config_from_dict(payload["config"]),
        )
    except KeyError as exc:
        raise DataFormatError(f"model file is missing {exc}") from exc


def save_model(path: Union[str, Path], bundle: ModelBundle) -> None:
    Path(path).write_text(model_to_text(bundle), encoding="utf-8")


def load_model(path: Union[str, Path]) -> ModelBundle:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
