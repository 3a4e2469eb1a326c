"""Exception hierarchy shared across the package.

Two families: precondition violations (bad caller input, CLI exit code 2)
and structural failures (an invariant the math guarantees did not hold at
runtime, CLI exit code 3).
"""

import math
import operator


class FoldmapError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(FoldmapError, ValueError):
    """An argument violates a documented precondition."""


class PrecisionError(PreconditionError):
    """Requested computation exceeds the double-precision reliability bound."""


class WordNotFoundError(PreconditionError):
    """Search exhausted max_len without reaching the target; enlarge and retry."""


class StructuralError(FoldmapError, RuntimeError):
    """A guaranteed structural property failed to materialize."""


class WindowError(StructuralError):
    """A trajectory or label left the materialized graph window."""


class ClassBoundaryError(StructuralError):
    """An orbit value sits on a vertex-class boundary within tolerance."""


class LemmaViolationError(StructuralError):
    """An exhaustive search contradicted a guaranteed existence claim."""


def comparable(value, name: str, kind: str = "an integer"):
    """value itself when it compares with numbers (NaN does); a str, None or
    other non-number is a PreconditionError: `name` must be `kind`. A range
    check made before as_int goes through this, and so does the range check
    of a float with kind "a number"."""
    try:
        value < 0
    except TypeError:
        raise PreconditionError(f"{name} must be {kind}") from None
    return value


def as_int(value, name: str, least: int | None = None) -> int:
    """The count `name` as an int: an int or a numpy int, finite and at
    least `least` where that is given; else PreconditionError. The range is
    checked first, so NaN and inf read as out of range where it is."""
    # NaN fails the range too
    if least is not None and not least <= comparable(value, name) < math.inf:
        raise PreconditionError(f"{name} must be >= {least}")
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{name} must be an integer") from None
