"""Exception hierarchy shared by all minorclub modules."""

from __future__ import annotations


class MinorclubError(Exception):
    """Base class for all library errors."""


class ParseError(MinorclubError):
    """Malformed input data. Carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(MinorclubError):
    """A precondition on the operation's input does not hold, or no solving
    method applies to it.

    ``certificate`` optionally carries a witness of the violation, e.g. the
    four vertices of an induced P4 when a cograph was required.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CapacityError(MinorclubError):
    """Input exceeds a configured size cap of an exponential-time routine."""


class InvalidStructureError(MinorclubError):
    """A solver's output failed its certificate check (``witness.certify``).

    This is an internal fault, not a fault of the input."""
