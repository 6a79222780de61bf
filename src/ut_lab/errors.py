"""Exceptions shared across the library."""


class UtLabError(Exception):
    """Base class for library-specific errors."""


class DegreeMismatch(UtLabError, ValueError):
    """Operands act on point sets of different sizes."""


class NotTransitiveError(UtLabError, ValueError):
    """A transitive group was required."""


class UnknownGroup(UtLabError, KeyError):
    """A catalog lookup names no group, or several without a degree."""

    def __str__(self) -> str:
        # KeyError would quote the message.
        return str(self.args[0])


class CapExceeded(UtLabError, RuntimeError):
    """An enumeration outgrew its configured cap.

    `partial` holds the number of items produced before giving up.
    """

    def __init__(self, message: str, partial: int | None = None):
        super().__init__(message)
        self.partial = partial


class MissingDataError(UtLabError, FileNotFoundError):
    """A stored-generator data file is not bundled or present on disk."""
