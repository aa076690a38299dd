"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch one base class.  Validation problems (bad dtypes, mismatched lengths,
out-of-range vertex ids) raise :class:`ValidationError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, or value range)."""


class FaultError(ReproError, RuntimeError):
    """An environmental (injected or real) fault interrupted an operation.

    The chaos subsystem (:mod:`repro.chaos`) raises the two subclasses at
    its fault points; service layers key their recovery policy on the
    distinction rather than on where the fault came from, so a real
    environmental error classified the same way gets the same handling.
    """

    def __init__(self, message: str, *, point: str | None = None) -> None:
        super().__init__(message)
        #: Name of the fault point that fired (None for real faults).
        self.point = point


class TransientFault(FaultError):
    """A retryable fault: the same operation may succeed if re-attempted."""


class PermanentFault(FaultError):
    """A non-retryable fault: the resource is gone until rebuilt."""


class PersistError(ReproError, OSError):
    """A durability operation (WAL append, fsync, segment open) failed.

    Raised by :mod:`repro.persist` instead of a raw :class:`OSError` so
    callers can tell a broken log apart from unrelated I/O problems; the
    writer guarantees the on-disk log is still scan-clean (any partially
    written record was truncated away) unless :attr:`broken` is True.
    """

    def __init__(self, message: str, *, op: str = "", broken: bool = False) -> None:
        super().__init__(message)
        #: Which durability step failed ("write", "fsync", "open", ...).
        self.op = op
        #: True when the writer could not restore a clean on-disk state.
        self.broken = broken
