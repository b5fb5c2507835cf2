"""Exception types shared across the package."""


class NtkalError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(NtkalError, ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class ContractError(NtkalError, ValueError):
    """An input violates a documented precondition (beyond pure shape)."""


class NotPositiveDefiniteError(NtkalError):
    """Cholesky factorization failed even at the maximal jitter level.

    ``pivot`` is the 1-based index of the first non-positive pivot reported
    by the factorization at the last jitter level tried.
    """

    def __init__(self, message, pivot):
        super().__init__(message)
        self.pivot = pivot


class DivergenceError(NtkalError):
    """SGD training diverged; ``epoch`` is the epoch where it was detected."""

    def __init__(self, message, epoch):
        super().__init__(message)
        self.epoch = epoch


class DegenerateCandidateError(NtkalError):
    """Candidate point lies numerically inside the span of the labeled set.

    Adding such a point to a fixed-kernel regression changes nothing, so
    callers normally treat the associated model change as zero instead of
    propagating this error.
    """


class FormatError(NtkalError, ValueError):
    """A file or stream does not match its documented format."""
