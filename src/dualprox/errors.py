"""Exception types shared across the package."""


class DualproxError(Exception):
    """Base class for all package errors."""


class UnboundedConjugateError(DualproxError):
    """The supremum defining a conjugate value is +infinity."""


class NonStronglyConvexError(DualproxError):
    """An operation requiring strong convexity got a function without it."""


class SingularScaleError(DualproxError):
    """A curvature is not positive, or a constant derived from an agent's data is not finite."""


class HistoryUnderflowError(DualproxError):
    """The state history is too short for the requested delayed read."""


class StepSizeViolationError(DualproxError):
    """Asynchronous step sizes violate the delay-aware admissibility rule."""


class NonFiniteInitialError(DualproxError):
    """The dual objective is not finite at the initial point."""


class InsufficientTraceError(DualproxError):
    """The trace is too short for the requested bound verification."""


class MalformedTraceError(DualproxError):
    """A trace file cannot be parsed back into a trajectory."""


class MalformedInstanceError(DualproxError):
    """An instance document lacks a required key or holds a value of the wrong type."""


class RankDeficientError(DualproxError):
    """A constraint transform matrix does not have full row rank."""
