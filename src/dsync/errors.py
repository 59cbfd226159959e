"""Exception types shared across the package."""


class DsyncError(Exception):
    """Base class for all package errors."""


class ModelError(DsyncError):
    """Invalid net structure, model file, or node reference."""


class ConstraintSyntaxError(DsyncError):
    """Constraint text failed to parse; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ConstraintEvalError(DsyncError):
    """Constraint evaluation met an unknown operator or feature kind."""


class LogError(DsyncError):
    """Event-log text could not be parsed or violates log invariants."""


class ReplayError(DsyncError):
    """Log cannot be replayed over the given net (e.g. unknown task label)."""


class SimulationError(DsyncError):
    """Simulation could not produce any event or got an invalid config."""
