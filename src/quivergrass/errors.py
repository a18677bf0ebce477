"""Exception hierarchy.

Three families, matching the CLI exit codes: bad input (2), a desk-scale
limit or assumption that did not hold (3), and internal certificates that
must never fail on correct code (4).
"""

from __future__ import annotations


class QuivergrassError(Exception):
    """Base class for all library errors."""


class ValidationError(QuivergrassError):
    """Caller-supplied data violates a precondition. CLI exit code 2."""


class LoopArrowError(ValidationError):
    pass


class DuplicateNameError(ValidationError):
    pass


class DanglingEndpointError(ValidationError):
    pass


class AlreadyDoubledError(ValidationError):
    pass


class ShapeMismatchError(ValidationError):
    pass


class RelationViolatedError(ValidationError):
    def __init__(self, msg: str, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class NotSubmoduleError(ValidationError):
    pass


class NotNilpotentError(ValidationError):
    pass


class NotFiniteTypeError(ValidationError):
    pass


class NotReducedError(ValidationError):
    pass


class NotExtremalError(ValidationError):
    pass


class NotComparableError(ValidationError):
    pass


class NotDiagonalizableError(ValidationError):
    pass


class NotFiniteRegimeError(ValidationError):
    pass


class BadPrimeError(ValidationError):
    pass


class LimitError(QuivergrassError):
    """A configured cap or desk assumption was exceeded. CLI exit code 3."""


class CapExceededError(LimitError):
    """More subspace cells would be walked than the cap allows.

    `candidates` is the cell count the walk would have reached, and `slot`
    the enumeration slot whose branching overflowed, when one is known.
    """

    def __init__(self, msg: str, candidates: int | None = None, slot=None):
        super().__init__(msg)
        self.candidates = candidates
        self.slot = slot


class TruncationTooSmallError(LimitError):
    def __init__(self, msg: str, suggested: int | None = None):
        super().__init__(msg)
        self.suggested = suggested


class InterpolationInconsistentError(LimitError):
    def __init__(self, msg: str, counts=None):
        super().__init__(msg)
        self.counts = counts


class SearchExhaustedError(LimitError):
    """A bounded search ended without finding what it looked for."""


class InternalCheckError(QuivergrassError):
    """An internal certificate failed; always a bug. CLI exit code 4."""


class NoSolutionError(InternalCheckError):
    pass


class NonUniqueError(InternalCheckError):
    pass


class DimensionMismatchError(InternalCheckError):
    pass
