"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: DomainError -> 1,
SpecIOError -> 2 (a file that cannot be read, parsed or written),
ResourceCapError -> 3.  The base class, which nothing raises directly,
exits with 1.
"""


class ZdmnError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(ZdmnError):
    """A precondition on values or dimensions was violated."""


class SpecIOError(ZdmnError):
    """A file could not be read, parsed or written."""

    exit_code = 2


class ResourceCapError(ZdmnError):
    """An enumeration would exceed its configured size cap."""

    exit_code = 3
