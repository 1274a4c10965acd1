"""Exception types shared across the package."""


class GresolvError(Exception):
    """Base class for all package errors."""


class KindMismatch(GresolvError):
    """A matrix failed the structural test (unitary/hermitian) it was declared with."""


class Singular(GresolvError):
    """A linear system was rejected because the matrix is numerically singular.

    Carries the offending smallest singular value so callers can map the
    failure to a domain error.
    """

    def __init__(self, smallest_sv: float, message: str = ""):
        self.smallest_sv = float(smallest_sv)
        super().__init__(message or f"matrix numerically singular (sigma_min={smallest_sv:.3e})")


class SingularSystem(GresolvError):
    """A resolvent-side linear system could not be inverted at the requested point."""

    def __init__(self, point, smallest_sv: float | None = None):
        self.point = point
        self.smallest_sv = smallest_sv
        super().__init__(f"resolvent system singular at point {point}")


class NotContraction(GresolvError):
    """An operator expected to be non-expanding has norm above 1."""


class FixedPointObstruction(GresolvError):
    """An isometry that must not fix any non-zero vector has eigenvalue 1 on its domain."""


class NotAdmissible(GresolvError):
    """A parameter collides with the forbidden operator, so no extension exists.

    ``which`` identifies the failing block when the check ran on a composite
    parameter ('parameter', 'phi' or 't22').
    """

    def __init__(self, which: str = "parameter", message: str = ""):
        self.which = which
        super().__init__(message or f"operator not admissible ({which} block)")


class T22NotAdmissible(NotAdmissible):
    """The exit-exit block of a composite parameter is not admissible."""

    def __init__(self, message: str = ""):
        super().__init__("t22", message or "exit-exit block not admissible")


class InternalDisagreement(GresolvError):
    """Two independent routes to the same verdict disagreed beyond tolerance."""


class NotRegularType(GresolvError):
    """A point required to be of regular type is in the approximate point spectrum."""

    def __init__(self, point, lower_bound: float):
        self.point = point
        self.lower_bound = float(lower_bound)
        super().__init__(f"point {point} is not of regular type (lower bound {lower_bound:.3e})")


class PointExcluded(GresolvError):
    """Evaluation requested at a point outside the natural domain of the formula."""


class PreconditionViolated(GresolvError):
    """A necessary side condition of a criterion fails on the requested region."""


class NumericalFailure(GresolvError, ArithmeticError):
    """An internal cross-check or identity failed beyond its numerical gate.

    Subclasses the builtin ``ArithmeticError`` so callers that catch it keep
    working.
    """
