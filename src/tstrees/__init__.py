"""Interval-temporal decision trees for multivariate time series.

The learner grows binary trees whose node conditions quantify over Allen
interval relations of raw series, with distance-based and feature-based
baselines and a small evaluation harness beside it.  Data files load with
``load_dataset(path, "uea")`` or ``load_dataset(path, "semicolon")``.
"""

from .core import (
    Comparator,
    ConfusionMatrix,
    DataFormatError,
    DecisionTree,
    FULL_HS,
    Instance,
    Interval,
    IntervalRelation,
    Leaf,
    LearnerConfig,
    Node,
    ROOT_REFERENCE,
    TemporalDataset,
    TemporalDecision,
)
from .intervals import (
    WitnessResult,
    allen_related,
    check_decision,
    derivative,
    enumerate_intervals,
    holds_on,
    required_count,
    split_dataset,
    successors,
)
from .induction import (
    SplitCandidate,
    best_split,
    candidate_thresholds,
    classify,
    confusion,
    grow_static_tree,
    grow_tree,
    info,
    info_split,
    static_series_dataset,
)
from .baselines import (
    DISTANCE_METRICS,
    FeatureMask,
    dtw,
    dtw_d,
    dtw_i,
    euclidean_i,
    extract_features,
    feature_table,
    nn_classify,
    nn_predict,
)
from .dataio import (
    load_dataset,
    parse_semicolon_table,
    parse_uea_sequence,
    resample_split,
    serialize_semicolon_table,
    trim,
)
from .evaluation import (
    ClassMetrics,
    accuracy,
    class_report,
    compare_report,
    grid_report,
    metrics_lines,
    percent,
)
from .model import ModelBundle, load_model, model_from_text, model_to_text, save_model
from .rendering import extract_class_theory, render_tree

__version__ = "0.1.0"
