"""Exception types shared across the package, and the one definition of a number read from
outside for every loader: no bool, and no NaN or infinity, which Python's `json` reads."""

import sys


def is_integer(v) -> bool:
    """Whether v is an integer: an int, not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """Whether v is a number a float holds: an int or float, not a bool, NaN or infinity."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def numbers(values, n: int | None = None) -> bool:
    """Whether values is a list (or tuple) of finite numbers, n of them if n is given."""
    return (isinstance(values, (list, tuple)) and (n is None or len(values) == n)
            and all(map(is_number, values)))


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
