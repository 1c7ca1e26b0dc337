"""Exception types shared across the package."""


class NeotrajError(Exception):
    """Base class for all package errors."""


class NonPositiveDuration(NeotrajError):
    """A piece duration is zero or negative."""


class SingularSystem(NeotrajError):
    """The coefficient system is singular (degenerate knot times)."""


class OutOfDomain(NeotrajError):
    """Query time outside the trajectory's time span."""


class ShapeMismatch(NeotrajError):
    """Array shape does not match what the operation expects."""


class OutOfRange(NeotrajError):
    """Value outside the admissible interval."""


class NonFiniteObjective(NeotrajError):
    """Objective returned NaN or infinity."""


class PackingFailure(NeotrajError):
    """Could not place the requested obstacles with the spacing constraint."""


class NoPath(NeotrajError):
    """Grid search found no path between start and goal."""


class NoFreeCell(NeotrajError):
    """No free cell with the required clearance near the candidate point."""


class ModelShapeMismatch(NeotrajError):
    """Loaded model's layer sizes or depth range do not match the run's geometry."""


class EmptyDataset(NeotrajError):
    """Training requested on an empty or too-small dataset."""
