"""Exception hierarchy shared across the package.

Every error raised by orbitres derives from :class:`OrbitresError`, so
callers (notably the CLI) can catch one base class for "bad input" paths,
except those under :class:`InternalInvariantError`: they signal a broken
internal invariant, that is a bug, never bad input.
"""


class OrbitresError(Exception):
    """Base class for all orbitres errors."""


class PartitionError(OrbitresError, ValueError):
    """Partition data violates a structural constraint."""


class NotWeaklyDecreasing(PartitionError):
    """Parts are not sorted in weakly decreasing order."""


class NonPositivePart(PartitionError):
    """A part is zero or negative."""


class WrongSum(PartitionError):
    """Parts do not sum to the matrix size of the algebra."""


class ParityMultiplicityViolation(PartitionError):
    """A part of the constrained parity occurs with odd multiplicity."""

    def __init__(self, family_name: str, part: int, multiplicity: int):
        self.part = part
        self.multiplicity = multiplicity
        super().__init__(
            f"{family_name} requires the part {part} to have even "
            f"multiplicity, found multiplicity {multiplicity}"
        )


class InvalidLieType(OrbitresError, ValueError):
    """Matrix size incompatible with the requested family."""


class InvalidLabel(OrbitresError, ValueError):
    """A very-even label supplied where none is allowed, or vice versa."""


class WrongFamily(OrbitresError, TypeError):
    """Operation applied to an orbit of an unsupported family."""


class InadmissibleQ(OrbitresError, ValueError):
    """q is not admissible: outside 0..m, of the wrong parity, or 2 for so."""


class InternalInvariantError(OrbitresError):
    """An invariant the package guarantees for every valid input broke."""


class NonIntegralExponent(InternalInvariantError, ArithmeticError):
    """The collapsing-degree exponent came out negative or non-integral.

    This never fires for valid classical data; it exists as a guard so a
    convention bug cannot silently truncate the degree.
    """


class CrossCheckMismatch(InternalInvariantError):
    """The closed-form criterion and the Hesselink search disagree.

    This is an implementation bug by construction and is never returned
    as a verdict.
    """


class UnknownAlgebra(OrbitresError, LookupError):
    """Exceptional algebra name outside G2/F4/E6/E7/E8."""


class NotInDatabase(OrbitresError, LookupError):
    """Exceptional orbit label absent from the embedded verdict table."""


class ParseError(OrbitresError, ValueError):
    """Malformed partition or algebra text."""
