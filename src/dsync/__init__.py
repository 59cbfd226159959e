"""Discovery of inter-case decision synchronization constraints.

The pipeline simulates guarded timed colored Petri nets into event logs
(ground truth), replays logs over unguarded nets into state samples, builds
per-pattern observation-outcome tables, trains decision trees on them, and
extracts the guard constraints that make the net replay the log.
"""

from .constraints import ConstraintExpr, FeatureRef, parse_constraint
from .errors import DsyncError
from .eventlog import Event, Log, parse_log, write_log
from .extract import ExtractionParams, PatternConstraint, annotate_net, discover_run
from .modelfile import load_model, save_model
from .net import Marking, Net, Place, Token, Transition
from .patterns import PatternCandidate, PatternKind
from .replay import MatchReport, StateSample, replay
from .simulate import SimConfig, simulate
from .tree import TreeNode, TreeParams

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
    "discover_run",
    "load_model",
    "parse_constraint",
    "parse_log",
    "replay",
    "save_model",
    "simulate",
    "write_log",
]
