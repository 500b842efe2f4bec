"""The package's exceptions: one class per way a caller handles a failure.

:class:`OrbitresError` is bad input (exit 2 in the CLI, whichever check
rejected it; the message says which), :class:`InternalInvariantError` a
broken internal invariant, that is a bug, never bad input (exit 4), and
:class:`NotInDatabase` an exceptional-table miss, answered with guidance.
"""


class OrbitresError(Exception):
    """Input the package rejects; the base class of the other two."""


class InternalInvariantError(OrbitresError):
    """An invariant the package guarantees for every valid input broke: the
    two resolution routes disagree, a degree exponent is negative or not an
    integer, or a computed value fails its type's gate."""


class NotInDatabase(OrbitresError):
    """Exceptional orbit label absent from the embedded verdict table."""
