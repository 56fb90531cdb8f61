"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class GeometryError(ReproError):
    """Invalid geometric construction (degenerate box, zero direction...)."""


class PhysicsError(ReproError):
    """Physical model evaluated outside its domain of validity."""


class CircuitError(ReproError):
    """Netlist construction or element error."""


class ConvergenceError(CircuitError):
    """The nonlinear (Newton) or transient solver failed to converge."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class CharacterizationError(ReproError):
    """SRAM cell characterization produced an unusable result."""


class LookupError_(ReproError):
    """A LUT query fell outside the tabulated domain (strict mode)."""


class SerializationError(ReproError):
    """Failed to persist or restore a LUT/result artifact."""


class TaskError(ReproError):
    """A parallel shard task raised a deterministic exception.

    Retrying such a task in a fresh worker would only reproduce the
    same failure (shards are pure functions of their seed), so the
    engine fails fast and attaches the shard id and task description.
    The original exception is chained as ``__cause__``.
    """

    def __init__(self, message, shard=None, label=None):
        super().__init__(message)
        self.shard = shard
        self.label = label


class WorkerCrashError(ReproError):
    """Worker processes kept dying past the configured retry budget."""


class ServiceError(ReproError):
    """A request the SER service could not serve."""
