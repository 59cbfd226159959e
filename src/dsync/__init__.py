"""Discovery of inter-case decision synchronization constraints.

The pipeline simulates guarded timed colored Petri nets into event logs
(ground truth), replays logs over unguarded nets into state samples, builds
per-pattern observation-outcome tables, trains decision trees on them, and
extracts the guard constraints that make the net replay the log.
"""

from .constraints import (
    ConstraintExpr,
    FeatureRef,
    eval_feature,
    parse_constraint,
)
from .errors import DsyncError
from .eventlog import Event, Log, parse_log, traces, write_log
from .extract import (
    ExtractionParams,
    PatternConstraint,
    annotate_net,
    discover,
    discover_run,
)
from .modelfile import load_model, save_model
from .net import (
    Marking,
    Net,
    Place,
    Token,
    Transition,
    enabled_bindings,
    fire,
    preset,
    validate_net,
)
from .patterns import PatternCandidate, PatternKind, build_pt_log, detect_constructs, features_for
from .replay import MatchReport, StateSample, replay, sim_score
from .simulate import SimConfig, ground_truth, simulate
from .tree import TreeNode, TreeParams, fit, gini, predict

__version__ = "0.1.0"

__all__ = [
    "ConstraintExpr",
    "DsyncError",
    "Event",
    "ExtractionParams",
    "FeatureRef",
    "Log",
    "Marking",
    "MatchReport",
    "Net",
    "PatternCandidate",
    "PatternConstraint",
    "PatternKind",
    "Place",
    "SimConfig",
    "StateSample",
    "Token",
    "Transition",
    "TreeNode",
    "TreeParams",
    "annotate_net",
    "build_pt_log",
    "detect_constructs",
    "discover",
    "discover_run",
    "enabled_bindings",
    "eval_feature",
    "features_for",
    "fire",
    "fit",
    "gini",
    "ground_truth",
    "load_model",
    "parse_constraint",
    "parse_log",
    "predict",
    "preset",
    "replay",
    "save_model",
    "sim_score",
    "simulate",
    "traces",
    "validate_net",
    "write_log",
]
